"""Round-trip and validation tests for parameter/state snapshots."""

import json
import re

import numpy as np
import pytest

from lindrive import snapshots
from lindrive.errors import DataError, ShapeError
from lindrive.rwkv7 import RecurrentState, block_forward, random_block_params

BLOCK = random_block_params(8, n_heads=2, seed=10, h_ff=12, rank=3)
# every block tensor under its snapshot name
NAMES = list(BLOCK.tensors())


def assert_params_equal(a, b, exact=True):
    da, db = snapshots.params_to_dict(a), snapshots.params_to_dict(b)
    assert da.keys() == db.keys()
    for key in da:
        if exact:
            np.testing.assert_array_equal(da[key], db[key], err_msg=key)
        else:
            np.testing.assert_allclose(da[key], db[key], rtol=1e-15, err_msg=key)


class TestParamSnapshots:
    def test_npz_round_trip_exact(self, tmp_path):
        p = random_block_params(16, n_heads=4, seed=1)
        path = tmp_path / "block.npz"
        snapshots.save_params(path, p)
        assert_params_equal(p, snapshots.load_params(path))

    def test_json_round_trip(self, tmp_path):
        p = random_block_params(8, seed=2)
        path = tmp_path / "block.json"
        snapshots.save_params(path, p)
        loaded = snapshots.load_params(path)
        assert_params_equal(p, loaded)  # float64 json text is lossless via repr

    def test_missing_entry_rejected(self, tmp_path):
        p = random_block_params(8, seed=3)
        tensors = snapshots.params_to_dict(p)
        del tensors["W_r"]
        with pytest.raises(ShapeError):
            snapshots.params_from_dict(tensors)

    def test_bad_shape_rejected(self, tmp_path):
        p = random_block_params(8, seed=4)
        tensors = snapshots.params_to_dict(p)
        tensors["W_k"] = tensors["W_k"][:4]
        with pytest.raises(ShapeError):
            snapshots.params_from_dict(tensors)

    def test_named_entries_present(self):
        tensors = snapshots.params_to_dict(random_block_params(8, seed=5))
        for key in ("W_r", "mu_w", "lora_w.A", "lora_w.B", "lora_w.bias", "k_k"):
            assert key in tensors


class TestParamSchema:
    """Every entry of RwkvBlockParams.tensors() is checked on load."""

    def test_entries_are_tensors_plus_sizes(self):
        assert len(NAMES) == 34
        assert list(snapshots.params_to_dict(BLOCK)) == NAMES + ["d", "n_heads"]

    @pytest.mark.parametrize("name", NAMES)
    def test_missing_entry_rejected(self, name):
        tensors = snapshots.params_to_dict(BLOCK)
        del tensors[name]
        with pytest.raises(ShapeError, match=re.escape(name)):
            snapshots.params_from_dict(tensors)

    @pytest.mark.parametrize("edit", ["drop_row", "add_axis"])
    @pytest.mark.parametrize("name", NAMES)
    def test_wrong_shape_rejected(self, name, edit):
        tensors = snapshots.params_to_dict(BLOCK)
        t = tensors[name]
        tensors[name] = t[:-1] if edit == "drop_row" else t[None]
        with pytest.raises(ShapeError, match=re.escape(name)):
            snapshots.params_from_dict(tensors)

    @pytest.mark.parametrize("name", NAMES)
    def test_wrong_dtype_rejected(self, name):
        tensors = snapshots.params_to_dict(BLOCK)
        tensors[name] = tensors[name].astype(np.float32)
        with pytest.raises(DataError):
            snapshots.params_from_dict(tensors)

    @pytest.mark.parametrize("name", NAMES)
    def test_non_finite_rejected(self, name):
        tensors = snapshots.params_to_dict(BLOCK)
        tensors[name] = tensors[name].copy()
        tensors[name].flat[-1] = np.nan
        with pytest.raises(DataError, match=re.escape(name)):
            snapshots.params_from_dict(tensors)

    def test_integer_block_rejected(self):
        tensors = {k: t.astype(np.int64) for k, t in snapshots.params_to_dict(BLOCK).items()}
        with pytest.raises(DataError):
            snapshots.params_from_dict(tensors)

    @pytest.mark.parametrize("suffix", [".npz", ".json"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_exact(self, tmp_path, dtype, suffix):
        p = random_block_params(8, n_heads=2, seed=11, dtype=dtype)
        path = tmp_path / f"block{suffix}"
        snapshots.save_params(path, p)
        loaded = snapshots.load_params(path).tensors()
        for name, t in p.tensors().items():
            assert loaded[name].dtype == dtype, name
            np.testing.assert_array_equal(loaded[name], t, err_msg=name)

    def test_json_without_dtype_reads_float64(self, tmp_path):
        path = tmp_path / "block.json"
        snapshots.save_params(path, BLOCK)
        payload = json.loads(path.read_text())
        for entry in payload.values():
            del entry["dtype"]
        path.write_text(json.dumps(payload))
        assert_params_equal(BLOCK, snapshots.load_params(path))

    def test_json_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "block.json"
        snapshots.save_params(path, BLOCK)
        payload = json.loads(path.read_text())
        payload["W_r"]["dtype"] = "float17"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            snapshots.load_params(path)


class TestJsonEntries:
    """A malformed JSON entry raises a typed error that names it."""

    def load_edited(self, tmp_path, edit):
        path = tmp_path / "block.json"
        snapshots.save_params(path, BLOCK)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return snapshots.load_params(path)

    def test_ragged_data_rejected(self, tmp_path):
        def ragged(payload):
            payload["W_r"]["data"][1] = payload["W_r"]["data"][1][:-1]

        with pytest.raises(DataError, match="'W_r'"):
            self.load_edited(tmp_path, ragged)

    @pytest.mark.parametrize("key", ["dims", "data"])
    def test_missing_field_rejected(self, tmp_path, key):
        with pytest.raises(DataError, match="'lora_a.B'"):
            self.load_edited(tmp_path, lambda payload: payload["lora_a.B"].pop(key))

    def test_non_object_entry_rejected(self, tmp_path):
        def flatten(payload):
            payload["k_k"] = payload["k_k"]["data"]

        with pytest.raises(DataError, match="'k_k'"):
            self.load_edited(tmp_path, flatten)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "block.json"
        path.write_text(json.dumps([1.0, 2.0]))
        with pytest.raises(DataError, match="object of entries"):
            snapshots.load_params(path)


class TestStateSnapshots:
    def test_round_trip_bit_exact(self, tmp_path):
        p = random_block_params(8, n_heads=2, seed=6)
        state = RecurrentState.zeros(8, 2)
        rng = np.random.default_rng(7)
        block_forward(rng.standard_normal((9, 8)), p, state, mode="chunked")
        path = tmp_path / "state.npz"
        snapshots.save_state(path, state)
        loaded = snapshots.load_state(path)
        np.testing.assert_array_equal(loaded.S, state.S)
        np.testing.assert_array_equal(loaded.shift_tm, state.shift_tm)
        np.testing.assert_array_equal(loaded.shift_cm, state.shift_cm)
        assert loaded.tokens_seen == 9

    def test_resume_equals_uninterrupted(self, tmp_path):
        p = random_block_params(8, seed=8)
        rng = np.random.default_rng(9)
        tokens = rng.standard_normal((12, 8))
        full = RecurrentState.zeros(8, 1)
        out_full, _ = block_forward(tokens, p, full, mode="chunked")

        mid = RecurrentState.zeros(8, 1)
        block_forward(tokens[:6], p, mid, mode="chunked")
        snapshots.save_state(tmp_path / "mid.npz", mid)
        resumed = snapshots.load_state(tmp_path / "mid.npz")
        out_tail, _ = block_forward(tokens[6:], p, resumed, mode="chunked")
        # the snapshot loses nothing: identical to resuming in memory
        out_mem, _ = block_forward(tokens[6:], p, mid, mode="chunked")
        np.testing.assert_array_equal(out_tail, out_mem)
        # and matches the uninterrupted run up to chunk-boundary round-off
        np.testing.assert_allclose(out_tail, out_full[6:], atol=1e-12)

    def test_entries_are_state_fields(self, tmp_path):
        path = tmp_path / "state.npz"
        snapshots.save_state(path, RecurrentState.zeros(8, 2))
        with np.load(path) as data:
            assert data.files == ["S", "shift_tm", "shift_cm", "tokens_seen"]
            assert data["tokens_seen"].dtype == np.int64

    def write(self, path, **edits):
        """A snapshot in save_state's layout, some entries replaced."""
        state = RecurrentState.zeros(8, 2, n_layers=2)
        entries = {"S": state.S, "shift_tm": state.shift_tm, "shift_cm": state.shift_cm,
                   "tokens_seen": np.asarray(16, dtype=np.int64)}
        np.savez(path, **{**entries, **edits})
        return path

    @pytest.mark.parametrize(
        "edits, error",
        [
            ({"S": np.full((2, 2, 4, 4), np.nan)}, DataError),
            ({"shift_cm": np.zeros((2, 8), dtype=np.float32)}, DataError),
            ({"S": np.zeros((2, 2, 4, 4), dtype=np.int64),
              "shift_tm": np.zeros((2, 8), dtype=np.int64),
              "shift_cm": np.zeros((2, 8), dtype=np.int64)}, DataError),
            ({"tokens_seen": np.asarray(-5, dtype=np.int64)}, DataError),
            ({"tokens_seen": np.asarray([8, 8], dtype=np.int64)}, DataError),
            ({"tokens_seen": np.asarray(2.7)}, DataError),
            ({"shift_tm": np.zeros((2, 6))}, ShapeError),
            ({"S": np.zeros((2, 2, 4, 3))}, ShapeError),
        ],
        ids=["nan-S", "mixed-dtype", "int64", "negative-count", "counter-(2,)",
             "float-counter", "shift_tm-width", "S-not-square"],
    )
    def test_invalid_state_rejected(self, tmp_path, edits, error):
        with pytest.raises(error):
            snapshots.load_state(self.write(tmp_path / "bad.npz", **edits))

    def test_unknown_entries_ignored(self, tmp_path):
        # older snapshots carry a frames_seen entry; it is not a state field
        path = self.write(tmp_path / "old.npz", frames_seen=np.asarray(2, dtype=np.int64))
        state = snapshots.load_state(path)
        assert state.tokens_seen == 16 and not hasattr(state, "frames_seen")

    def test_corrupt_snapshot_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, S=np.zeros((1, 1, 4, 4)), shift_tm=np.zeros((1, 4)))
        with pytest.raises(ShapeError):
            snapshots.load_state(path)


def write_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def write_object_entry(path):
    with open(path, "wb") as fh:
        np.savez(fh, S=np.array([{"S": 1}], dtype=object))


class TestNotAnArchive:
    """A snapshot file that is not an .npz archive raises DataError, not
    numpy's ValueError; a missing file still raises FileNotFoundError."""

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: path.write_text(json.dumps({"S": [0.0]})),
            lambda path: path.write_bytes(b""),
            lambda path: path.write_bytes(b"PK\x03\x04 truncated"),
            write_npy,
            write_object_entry,
        ],
        ids=["json-text", "empty", "truncated-zip", "npy-array", "object-entry"],
    )
    @pytest.mark.parametrize("load", [snapshots.load_state, snapshots.load_params],
                             ids=["load_state", "load_params"])
    def test_rejected(self, tmp_path, write, load):
        path = tmp_path / "snapshot.npz"
        write(path)
        with pytest.raises(DataError):
            load(path)

    @pytest.mark.parametrize("load", [snapshots.load_state, snapshots.load_params],
                             ids=["load_state", "load_params"])
    def test_missing_file(self, tmp_path, load):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "absent.npz")
