"""Parameter and state snapshots.

Parameters serialize to a flat tensor container with named entries
(``W_r``, ``mu_w``, ``lora_w.A``, ...), either binary ``.npz`` or JSON with
nested lists that records each entry's dtype. The entries are
RwkvBlockParams.tensors() plus ``d`` and ``n_heads``. State snapshots are
``.npz`` only so that resuming a stream is bit-exact. Loaders validate every
shape and the dtype before returning an object.
"""

from __future__ import annotations

import json
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
    reads as float64."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        tensors = {}
        for name, entry in payload.items():
            try:
                dtype = np.dtype(entry.get("dtype", "float64"))
            except TypeError:
                raise DataError(f"entry {name!r}: unknown dtype {entry['dtype']!r}") from None
            arr = np.asarray(entry["data"], dtype=dtype)
            if list(arr.shape) != entry["dims"]:
                raise ShapeError(
                    f"entry {name!r}: recorded dims {entry['dims']} "
                    f"do not match data shape {list(arr.shape)}"
                )
            tensors[name] = arr
        return params_from_dict(tensors)
    with np.load(path) as data:
        return params_from_dict(dict(data))


def save_state(path: str | Path, state: RecurrentState, **extra_counters) -> None:
    """Serialize a stream state; round-trips bit-exactly.

    Extra integer counters (e.g. a fusion session's frame count) are stored
    alongside and returned by load_state.
    """
    np.savez(
        Path(path),
        S=state.S,
        shift_tm=state.shift_tm,
        shift_cm=state.shift_cm,
        tokens_seen=np.asarray(state.tokens_seen, dtype=np.int64),
        **{k: np.asarray(v, dtype=np.int64) for k, v in extra_counters.items()},
    )


def load_state(path: str | Path) -> tuple[RecurrentState, dict[str, int]]:
    with np.load(Path(path)) as data:
        for key in ("S", "shift_tm", "shift_cm", "tokens_seen"):
            if key not in data:
                raise ShapeError(f"state snapshot missing entry {key!r}")
        S = data["S"]
        shift_tm = data["shift_tm"]
        shift_cm = data["shift_cm"]
        if S.ndim != 4 or shift_tm.shape != shift_cm.shape:
            raise ShapeError("state snapshot arrays have inconsistent shapes")
        n_layers, n_heads, hd, hd2 = S.shape
        if hd != hd2 or shift_tm.shape != (n_layers, n_heads * hd):
            raise ShapeError("state snapshot arrays have inconsistent shapes")
        state = RecurrentState(
            S=S, shift_tm=shift_tm, shift_cm=shift_cm,
            tokens_seen=int(data["tokens_seen"]),
        )
        extras = {
            k: int(data[k])
            for k in data.files
            if k not in ("S", "shift_tm", "shift_cm", "tokens_seen")
        }
    return state, extras
