"""Parameter and state snapshots, both ``.npz`` archives.

Parameter entries are RwkvBlockParams.tensors() (``W_r``, ``mu_w``,
``lora_w.A``, ...) plus ``d`` and ``n_heads``; state entries are the
RecurrentState fields. Both round-trip bit-exactly, and loaders validate
every shape, the dtype and finite values before returning an object.
"""

from __future__ import annotations

import io
import os
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .rwkv7 import RecurrentState, RwkvBlockParams


def _write_npz(path: str | Path, kind: str, entries: dict) -> None:
    """np.savez of `entries` to the ``.npz`` path `path`; ConfigError for any
    other suffix, which np.savez would silently extend.

    The archive is built in memory and written over the old file in place,
    then cut to its length. Truncating first cost more than the write on
    ext4: the freed blocks are discarded, and a file rewritten after a
    truncation is flushed on close (auto_da_alloc). Like np.savez this is not
    atomic: a torn overwrite of a same-size archive loads as the old or the
    new one, or fails its CRC-32 check with DataError."""
    path = Path(path)
    if path.suffix != ".npz":
        raise ConfigError(f"{kind} snapshots are .npz files, got {path.name!r}")
    archive = io.BytesIO()
    np.savez(archive, **entries)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(archive.getbuffer())
        fh.truncate()


def save_params(path: str | Path, params: RwkvBlockParams) -> None:
    """Write one block's parameters to an ``.npz`` path (_write_npz)."""
    _write_npz(path, "parameter", {**params.tensors(), "d": params.d, "n_heads": params.n_heads})


def load_params(path: str | Path) -> RwkvBlockParams:
    """Read a block written by save_params, validating every entry's shape
    (ShapeError), integer sizes, one floating dtype and finite values (DataError)."""
    tensors = _npz_entries(Path(path))

    def entry(name):
        if name not in tensors:
            raise ShapeError(f"snapshot missing entry {name!r}")
        return tensors[name]

    sizes = {name: entry(name) for name in ("d", "n_heads")}
    for name, value in sizes.items():
        if value.ndim != 0:
            raise ShapeError(f"snapshot entry {name!r} must be 0-d, got shape {value.shape}")
        if not np.issubdtype(value.dtype, np.integer):
            raise DataError(f"snapshot entry {name!r} must be an integer, got {value.dtype}")
    params = RwkvBlockParams.from_tensors(int(sizes["d"]), int(sizes["n_heads"]), entry)
    params.validate()
    return params


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


def save_state(path: str | Path, state: RecurrentState) -> None:
    """Serialize a stream state to an ``.npz`` path (_write_npz), one entry
    per RecurrentState field; round-trips bit-exactly."""
    entries = {f.name: getattr(state, f.name) for f in fields(RecurrentState)}
    entries["tokens_seen"] = np.asarray(state.tokens_seen, dtype=np.int64)
    _write_npz(path, "state", entries)


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
