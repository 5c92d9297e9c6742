"""Round-trip and validation tests for stream-state snapshots, and for a
block's parameters as named tensors.

Snapshots hold stream state only. A block's parameters are checked here as
the 34 named entries of RwkvBlockParams.tensors() plus d and n_heads:
rebuilt by from_tensors and checked by validate, and carried through the
snapshot codec, whose other fixture, a state, has four entries and no
dotted names."""

import io
import json
import re
import zipfile

import numpy as np
import pytest

from lindrive import snapshots
from lindrive.errors import ConfigError, DataError, ShapeError
from lindrive.rwkv7 import RecurrentState, RwkvBlockParams, block_forward, random_block_params

BLOCK = random_block_params(8, n_heads=2, seed=10, h_ff=12, rank=3)
# every block tensor under its name
NAMES = list(BLOCK.tensors())


def assert_params_equal(a, b):
    assert (a.d, a.n_heads) == (b.d, b.n_heads)
    ta, tb = a.tensors(), b.tensors()
    assert ta.keys() == tb.keys()
    for key in ta:
        assert ta[key].dtype == tb[key].dtype, key
        np.testing.assert_array_equal(ta[key], tb[key], err_msg=key)


def build_edited(edit, params=BLOCK, d=None, n_heads=None):
    """validate() of `params` rebuilt by from_tensors from copies of its
    tensors, after `edit` changed the dict of the copies in place; `d` and
    `n_heads` replace the block's sizes when given."""
    tensors = {name: t.copy() for name, t in params.tensors().items()}
    edit(tensors)
    rebuilt = RwkvBlockParams.from_tensors(params.d if d is None else d,
                                           params.n_heads if n_heads is None else n_heads,
                                           tensors.__getitem__)
    rebuilt.validate()
    return rebuilt


def write_block(path, params, edit=lambda entries: None):
    """The snapshot codec's archive of `params`' tensors, after `edit`
    changed the dict of them in place."""
    entries = dict(params.tensors())
    edit(entries)
    snapshots._write_npz(path, entries)
    return path


def read_block(path, d, n_heads):
    """The block from_tensors rebuilds from the entries of the archive at
    `path`, validated."""
    params = RwkvBlockParams.from_tensors(d, n_heads, snapshots._npz_entries(path).__getitem__)
    params.validate()
    return params


class TestParamSnapshots:
    """A block's tensors through the snapshot codec: many members, dotted
    names, 1-D and 2-D arrays."""

    def test_npz_round_trip_exact(self, tmp_path):
        p = random_block_params(16, n_heads=4, seed=1)
        path = write_block(tmp_path / "block.npz", p)
        assert_params_equal(p, read_block(path, 16, 4))

    @pytest.mark.parametrize("name", ["block.json", "block.npy", "block"])
    def test_non_npz_suffix_rejected(self, tmp_path, name):
        # np.savez would write <name>.npz without a word
        with pytest.raises(ConfigError, match="npz"):
            write_block(tmp_path / name, BLOCK)
        assert not list(tmp_path.iterdir())

    def test_missing_entry_rejected(self, tmp_path):
        # from_tensors asks for every name; no entry has a default
        p = random_block_params(8, seed=3)
        path = write_block(tmp_path / "block.npz", p, lambda entries: entries.pop("W_r"))
        with pytest.raises(KeyError, match="W_r"):
            read_block(path, 8, 1)

    def test_bad_shape_rejected(self, tmp_path):
        def truncate(entries):
            entries["W_k"] = entries["W_k"][:4]

        path = write_block(tmp_path / "block.npz", random_block_params(8, seed=4), truncate)
        with pytest.raises(ShapeError, match="W_k"):
            read_block(path, 8, 1)

    def test_named_entries_present(self, tmp_path):
        path = write_block(tmp_path / "block.npz", random_block_params(8, seed=5))
        with np.load(path) as data:
            for key in ("W_r", "mu_w", "lora_w.A", "lora_w.B", "lora_w.bias", "k_k"):
                assert key in data.files


class TestParamSchema:
    """RwkvBlockParams.validate checks every entry of tensors() by name, and
    the two sizes."""

    def test_entries_are_tensors_plus_sizes(self):
        # from_tensors asks for exactly the names of tensors(), in order; the
        # sizes are its other two arguments
        assert len(NAMES) == 34
        asked = []

        def tensor(name):
            asked.append(name)
            return BLOCK.tensors()[name]

        rebuilt = RwkvBlockParams.from_tensors(BLOCK.d, BLOCK.n_heads, tensor)
        assert asked == NAMES
        assert_params_equal(rebuilt, BLOCK)

    @pytest.mark.parametrize("name", NAMES)
    def test_missing_entry_rejected(self, name):
        with pytest.raises(KeyError, match=re.escape(name)):
            build_edited(lambda tensors: tensors.pop(name))

    @pytest.mark.parametrize("edit", ["drop_row", "add_axis"])
    @pytest.mark.parametrize("name", NAMES)
    def test_wrong_shape_rejected(self, name, edit):
        def reshape(tensors):
            t = tensors[name]
            tensors[name] = t[:-1] if edit == "drop_row" else t[None]

        with pytest.raises(ShapeError, match=re.escape(name)):
            build_edited(reshape)

    @pytest.mark.parametrize("name", NAMES)
    def test_wrong_dtype_rejected(self, name):
        def to_float32(tensors):
            tensors[name] = tensors[name].astype(np.float32)

        with pytest.raises(DataError):
            build_edited(to_float32)

    @pytest.mark.parametrize("name", NAMES)
    def test_non_finite_rejected(self, name):
        def poison(tensors):
            tensors[name].flat[-1] = np.nan

        with pytest.raises(DataError, match=re.escape(name)):
            build_edited(poison)

    def test_integer_block_rejected(self):
        def to_int64(tensors):
            tensors.update((k, t.astype(np.int64)) for k, t in tensors.items())

        with pytest.raises(DataError):
            build_edited(to_int64)

    @pytest.mark.parametrize("name", ["d", "n_heads"])
    @pytest.mark.parametrize("value", [[8, 8], [2]], ids=["two-values", "one-value"])
    def test_size_not_0d_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name}="):
            build_edited(lambda tensors: None, **{name: np.array(value)})

    @pytest.mark.parametrize("name,value", [("d", 8.5), ("d", 8.0), ("n_heads", 2.0)])
    def test_size_not_integer_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name}="):
            build_edited(lambda tensors: None, **{name: value})

    @pytest.mark.parametrize("n_heads", [0, -2])
    def test_bad_head_count_rejected(self, n_heads):
        with pytest.raises(ConfigError, match="n_heads"):
            build_edited(lambda tensors: None, n_heads=n_heads)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32-.npz", "float64-.npz"])
    def test_round_trip_exact(self, tmp_path, dtype):
        p = random_block_params(8, n_heads=2, seed=11, dtype=dtype)
        path = write_block(tmp_path / "block.npz", p)
        loaded = read_block(path, 8, 2).tensors()
        for name, t in p.tensors().items():
            assert loaded[name].dtype == dtype, name
            np.testing.assert_array_equal(loaded[name], t, err_msg=name)


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

    @pytest.mark.parametrize("name", ["state.json", "state.npy", "state"])
    def test_non_npz_suffix_rejected(self, tmp_path, name):
        # np.savez would write <name>.npz, which load_state(<name>) never finds
        with pytest.raises(ConfigError, match="npz"):
            snapshots.save_state(tmp_path / name, RecurrentState.zeros(8, 2))
        assert not list(tmp_path.iterdir())

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


def random_state(d, n_layers, dtype, seed):
    """A valid state with every entry drawn from `seed`."""
    state = RecurrentState.zeros(d, 2, n_layers=n_layers, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name in ("S", "shift_tm", "shift_cm"):
        entry = getattr(state, name)
        entry[...] = rng.standard_normal(entry.shape)
    state.tokens_seen = int(rng.integers(1, 10_000))
    return state


def assert_states_equal(a, b):
    for name in ("S", "shift_tm", "shift_cm"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert a.tokens_seen == b.tokens_seen


class TestOverwrite:
    """save_state writes over an existing file in place and cuts it to
    length; what it leaves loads as a fresh write would."""

    SMALL = random_state(8, 1, np.float32, seed=30)

    @pytest.mark.parametrize("old", ["larger-snapshot", "unrelated-1MB"])
    def test_smaller_state_over_larger_file(self, tmp_path, old):
        path = tmp_path / "state.npz"
        if old == "larger-snapshot":
            snapshots.save_state(path, random_state(64, 2, np.float64, seed=31))
        else:
            path.write_bytes(np.random.default_rng(32).bytes(1 << 20))
        old_size = path.stat().st_size
        snapshots.save_state(path, self.SMALL)
        fresh = tmp_path / "fresh.npz"
        snapshots.save_state(fresh, self.SMALL)
        assert path.stat().st_size == fresh.stat().st_size < old_size
        assert_states_equal(snapshots.load_state(path), self.SMALL)

    def test_torn_overwrite_is_old_new_or_rejected(self, tmp_path):
        # a write cut after n bytes of B over a same-size A: the zip CRCs in
        # A's central directory reject every mix of the two
        a, b = random_state(8, 2, np.float32, seed=33), random_state(8, 2, np.float32, seed=34)
        for name, state in (("a.npz", a), ("b.npz", b)):
            snapshots.save_state(tmp_path / name, state)
        a_bytes, b_bytes = (tmp_path / "a.npz").read_bytes(), (tmp_path / "b.npz").read_bytes()
        assert len(a_bytes) == len(b_bytes)
        path = tmp_path / "torn.npz"
        outcomes = []
        for n in np.linspace(0, len(b_bytes), 17).astype(int):
            path.write_bytes(b_bytes[:n] + a_bytes[n:])
            try:
                loaded = snapshots.load_state(path)
            except DataError:
                outcomes.append("rejected")
                continue
            if loaded.tokens_seen == a.tokens_seen:
                assert_states_equal(loaded, a)
                outcomes.append("a")
            else:
                assert_states_equal(loaded, b)
                outcomes.append("b")
        assert outcomes[0] == "a" and outcomes[-1] == "b"
        assert "rejected" in outcomes

    def test_np_savez_snapshot_loads(self, tmp_path):
        # the writer of earlier versions: np.savez straight to the path
        state = random_state(8, 2, np.float32, seed=35)
        path = tmp_path / "state.npz"
        np.savez(path, S=state.S, shift_tm=state.shift_tm, shift_cm=state.shift_cm,
                 tokens_seen=np.asarray(state.tokens_seen, dtype=np.int64))
        assert_states_equal(snapshots.load_state(path), state)


def write_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def write_object_entry(path):
    with open(path, "wb") as fh:
        np.savez(fh, S=np.array([{"S": 1}], dtype=object))


def npy_bytes(array, version=None):
    """`array` as a .npy file, in the header version numpy picks or `version`."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, version=version)
    return buf.getvalue()


def write_members(path, members, compression=zipfile.ZIP_STORED):
    """A zip archive of `members`, each a name and its bytes."""
    with zipfile.ZipFile(path, "w", compression) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return path


def write_short_entry(path):
    # the header says (4, 4); the body holds 15 values
    write_members(path, {"S.npy": npy_bytes(np.zeros((4, 4)))[:-8]})


def write_bad_magic(path):
    write_members(path, {"S.npy": b"\x92" + npy_bytes(np.zeros((4, 4)))[1:]})


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
            write_short_entry,
            write_bad_magic,
        ],
        ids=["json-text", "empty", "truncated-zip", "npy-array", "object-entry",
             "shape-not-bytes", "bad-magic"],
    )
    @pytest.mark.parametrize("load", [snapshots.load_state], ids=["load_state"])
    def test_rejected(self, tmp_path, write, load):
        path = tmp_path / "snapshot.npz"
        write(path)
        with pytest.raises(DataError):
            load(path)

    @pytest.mark.parametrize("load", [snapshots.load_state], ids=["load_state"])
    def test_missing_file(self, tmp_path, load):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "absent.npz")


def state_entries(state):
    return {"S": state.S, "shift_tm": state.shift_tm, "shift_cm": state.shift_cm,
            "tokens_seen": np.asarray(state.tokens_seen, dtype=np.int64)}


class TestCodec:
    """The archives the codec writes, of a state or of a block's tensors,
    are plain .npz files; load_state reads what np.savez and
    np.savez_compressed write."""

    STATE = random_state(8, 2, np.float32, seed=40)

    @pytest.mark.parametrize("kind", ["float32-state", "float64-state", "params"])
    def test_valid_zip_that_np_load_reads(self, tmp_path, kind):
        path = tmp_path / "snapshot.npz"
        if kind == "params":
            expected = {**BLOCK.tensors(), "d": np.asarray(8), "n_heads": np.asarray(2)}
            snapshots._write_npz(path, expected)
        else:
            state = random_state(8, 2, np.float32 if kind == "float32-state" else np.float64, seed=41)
            snapshots.save_state(path, state)
            expected = state_entries(state)
        with zipfile.ZipFile(path) as archive:
            assert archive.testzip() is None
        with np.load(path) as data:
            assert data.files == list(expected)
            for name, value in expected.items():
                assert (data[name].dtype, data[name].shape) == (value.dtype, value.shape), name
                np.testing.assert_array_equal(data[name], value, err_msg=name)

    def test_byte_stable(self, tmp_path):
        # no clock in the archive: two saves of one state are the same file
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        snapshots.save_state(first, self.STATE)
        snapshots.save_state(second, self.STATE)
        assert first.read_bytes() == second.read_bytes()
        with zipfile.ZipFile(first) as archive:
            assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    @pytest.mark.parametrize("form", ["savez_compressed", "fortran-order", "big-endian", "npy-2.0"])
    def test_reads_other_writers(self, tmp_path, form):
        path = tmp_path / "state.npz"
        entries = state_entries(self.STATE)
        if form == "savez_compressed":
            np.savez_compressed(path, **entries)
        elif form == "fortran-order":
            np.savez(path, **{k: np.asfortranarray(v) if v.ndim > 1 else v for k, v in entries.items()})
        elif form == "big-endian":
            np.savez(path, **{k: v.astype(v.dtype.newbyteorder(">")) for k, v in entries.items()})
        else:
            write_members(path, {f"{k}.npy": npy_bytes(v, (2, 0)) for k, v in entries.items()},
                          zipfile.ZIP_DEFLATED)
        # values and native dtypes as saved
        assert_states_equal(snapshots.load_state(path), self.STATE)

    def test_non_npy_member_ignored(self, tmp_path):
        entries = {f"{k}.npy": npy_bytes(v) for k, v in state_entries(self.STATE).items()}
        path = write_members(tmp_path / "state.npz", {**entries, "README.txt": b"notes"})
        assert_states_equal(snapshots.load_state(path), self.STATE)

    def test_corrupt_bytes_rejected_or_exact(self, tmp_path):
        # byte flips and cuts anywhere raise a typed error or load the state exactly
        path = tmp_path / "state.npz"
        snapshots.save_state(path, self.STATE)
        good = path.read_bytes()
        rng = np.random.default_rng(42)
        for _ in range(500):
            data = bytearray(good)
            data[rng.integers(len(data))] = rng.integers(256)
            path.write_bytes(bytes(data[: rng.integers(len(data))] if rng.random() < 0.2 else data))
            try:
                loaded = snapshots.load_state(path)
            except (DataError, ShapeError):
                continue
            assert_states_equal(loaded, self.STATE)
