"""Parameter and state snapshots.

Parameters serialize to a flat tensor container with named entries
(``W_r``, ``mu_w``, ``lora_w.A``, ...), either binary ``.npz`` or JSON with
nested lists that records each entry's dtype. The entries are
RwkvBlockParams.tensors() plus ``d`` and ``n_heads``. State snapshots are
``.npz`` only so that resuming a stream is bit-exact. Loaders validate every
shape, the dtype and finite values before returning an object.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeError
from .rwkv7 import RecurrentState, RwkvBlockParams


def params_to_dict(params: RwkvBlockParams) -> dict[str, np.ndarray]:
    """Flatten block parameters into named tensors."""
    return {
        **params.tensors(),
        "d": np.asarray(params.d),
        "n_heads": np.asarray(params.n_heads),
    }


def params_from_dict(tensors: dict[str, np.ndarray]) -> RwkvBlockParams:
    """Rebuild block parameters, validating every shape and the dtype."""

    def entry(name):
        if name not in tensors:
            raise ShapeError(f"snapshot missing entry {name!r}")
        return np.asarray(tensors[name])

    params = RwkvBlockParams.from_tensors(int(entry("d")), int(entry("n_heads")), entry)
    params.validate()
    return params


def save_params(path: str | Path, params: RwkvBlockParams) -> None:
    """Write one block's parameters; format chosen by suffix (.npz or .json).

    JSON entries record their dims and dtype next to the nested-list data.
    """
    path = Path(path)
    tensors = params_to_dict(params)
    if path.suffix == ".json":
        payload = {
            name: {"dims": list(t.shape), "dtype": t.dtype.name, "data": t.tolist()}
            for name, t in tensors.items()
        }
        path.write_text(json.dumps(payload))
    else:
        np.savez(path, **tensors)


def load_params(path: str | Path) -> RwkvBlockParams:
    """Read a block written by save_params; a JSON entry without a dtype
    reads as float64. A malformed JSON entry raises DataError naming it."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise DataError("a JSON parameter file must hold an object of entries")
        return params_from_dict({name: _json_entry(name, e) for name, e in payload.items()})
    return params_from_dict(_npz_entries(path))


def _npz_entries(path: Path) -> dict[str, np.ndarray]:
    """Every entry of the .npz archive at `path`; DataError if the file is
    not one. A missing file still raises FileNotFoundError."""
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as err:
        raise DataError(f"{path} is not an .npz archive ({err})") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DataError(f"{path} holds one .npy array, not an .npz archive")
    with data:
        try:
            return dict(data)
        except (ValueError, zipfile.BadZipFile) as err:  # object arrays, bad members
            raise DataError(f"{path}: unreadable .npz entry ({err})") from None


def _json_entry(name: str, entry) -> np.ndarray:
    """The array of one JSON entry, checked against its recorded dims."""
    if not isinstance(entry, dict) or not {"dims", "data"} <= entry.keys():
        raise DataError(f"entry {name!r} must be an object with 'dims' and 'data'")
    try:
        dtype = np.dtype(entry.get("dtype", "float64"))
    except TypeError:
        raise DataError(f"entry {name!r}: unknown dtype {entry['dtype']!r}") from None
    try:
        arr = np.asarray(entry["data"], dtype=dtype)
    except (TypeError, ValueError) as err:
        raise DataError(f"entry {name!r}: data is not a rectangular array of numbers ({err})") from None
    if list(arr.shape) != entry["dims"]:
        raise ShapeError(
            f"entry {name!r}: recorded dims {entry['dims']} "
            f"do not match data shape {list(arr.shape)}"
        )
    return arr


def save_state(path: str | Path, state: RecurrentState) -> None:
    """Serialize a stream state, one entry per RecurrentState field;
    round-trips bit-exactly."""
    entries = {f.name: getattr(state, f.name) for f in fields(RecurrentState)}
    entries["tokens_seen"] = np.asarray(state.tokens_seen, dtype=np.int64)
    np.savez(Path(path), **entries)


def load_state(path: str | Path) -> RecurrentState:
    """Read a state written by save_state and validate it. Entries that are
    not RecurrentState fields, such as the frame count older snapshots
    carry, are ignored."""
    names = [f.name for f in fields(RecurrentState)]
    data = _npz_entries(Path(path))
    for key in names:
        if key not in data:
            raise ShapeError(f"state snapshot missing entry {key!r}")
    state = RecurrentState(**{k: data[k] for k in names})
    state.tokens_seen = state.tokens_seen[()]  # a 0-d counter as a numpy scalar
    state.validate()
    state.tokens_seen = int(state.tokens_seen)
    return state
