"""Stream-state snapshots: ``.npz`` archives with one entry per
RecurrentState field, which round-trip bit-exactly; load_state validates
the state before returning it.

The archive is the ``.npz`` layout np.savez writes and np.load reads,
handled here without either: the writer packs stored ``.npy`` 1.0 members itself, and
the reader takes the zip container from zipfile (CRC checks, deflate,
zip64) but parses each ``.npy`` header with one regular expression, in
place of numpy's ast.literal_eval. So it reads what np.savez and
np.savez_compressed write: stored or deflated members, ``.npy`` 1.0 to
3.0, C or Fortran order and either byte order, of bool, integer or float
arrays.
"""

from __future__ import annotations

import io
import math
import os
import re
import struct
import zipfile
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .rwkv7 import RecurrentState

_NPY_MAGIC = b"\x93NUMPY"
# The header dict numpy writes, keys sorted: a plain bool, int, uint or float
# descr in any byte order, the memory order, and the shape tuple.
_NPY_HEADER = re.compile(
    r"\{'descr': '([<>|=]?(?:b1|[iu][1248]|f[248]))', 'fortran_order': (False|True), "
    r"'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n",
    re.ASCII,
)
# Zip records, little-endian. Flags through extra-field length are the same
# in a member's local header and its central-directory entry.
_ZIP_COMMON = struct.Struct("<4H3I2H")  # flags, method, time, date, crc, sizes, name, extra
_ZIP_LOCAL = b"PK\x03\x04\x14\x00"  # signature, version 2.0 needed
_ZIP_CENTRAL = b"PK\x01\x02\x14\x00\x14\x00"  # signature, made by and needs 2.0
_ZIP_CENTRAL_TAIL = struct.Struct("<3H2I")  # comment, disk, attributes, local offset
_ZIP_END = b"PK\x05\x06"
_ZIP_END_TAIL = struct.Struct("<4H2IH")  # disks, entries, directory size and offset, comment
_DOS_DATE_1980 = (1 << 5) | 1  # 1980-01-01, the zip epoch


def _write_npz(path: str | Path, entries: dict) -> None:
    """Write `entries` as the ``.npz`` archive `path`; ConfigError for any
    other suffix, which np.savez would silently extend.

    Each entry becomes a stored (uncompressed) ``<name>.npy`` member: a
    ``.npy`` 1.0 header padded to 64 bytes, then the array's C-order bytes.
    Every member is dated 1980-01-01, so equal entries write equal bytes.
    There are no zip64 records, so an archive must stay under 4 GiB.

    The archive is built in memory and written over the old file in place,
    then cut to its length. Truncating first cost more than the write on
    ext4: the freed blocks are discarded, and a file rewritten after a
    truncation is flushed on close (auto_da_alloc). Like np.savez this is not
    atomic: a torn overwrite of a same-size archive loads as the old or the
    new one, or fails its CRC-32 check with DataError."""
    path = Path(path)
    if path.suffix != ".npz":
        raise ConfigError(f"state snapshots are .npz files, got {path.name!r}")
    members, directory, offset = [], [], 0
    for name, value in entries.items():
        array = np.asarray(value)
        header = (f"{{'descr': {array.dtype.str!r}, 'fortran_order': False, "
                  f"'shape': {array.shape!r}, }}")
        header += " " * (-(len(header) + 11) % 64) + "\n"
        head = _NPY_MAGIC + b"\x01\x00" + struct.pack("<H", len(header)) + header.encode()
        body = array.tobytes()
        crc, size = zlib.crc32(body, zlib.crc32(head)), len(head) + len(body)
        filename = f"{name}.npy".encode()
        common = _ZIP_COMMON.pack(0, 0, 0, _DOS_DATE_1980, crc, size, size, len(filename), 0)
        members += [_ZIP_LOCAL, common, filename, head, body]
        directory += [_ZIP_CENTRAL, common, _ZIP_CENTRAL_TAIL.pack(0, 0, 0, 0, offset), filename]
        offset += len(_ZIP_LOCAL) + len(common) + len(filename) + size
    central = b"".join(directory)
    end = _ZIP_END_TAIL.pack(0, 0, len(entries), len(entries), len(central), offset, 0)
    archive = b"".join([*members, central, _ZIP_END, end])
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(archive)
        fh.truncate()


def _npz_entries(path: Path) -> dict[str, np.ndarray]:
    """Every ``.npy`` member of the .npz archive at `path`, by name without
    the suffix; other members are ignored. DataError if the file is not a
    readable zip archive or a member is not a plain bool, integer or float
    array (_npy_array). A missing file still raises FileNotFoundError."""
    raw = path.read_bytes()
    try:
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            members = {info.filename: archive.read(info) for info in archive.infolist()
                       if info.filename.endswith(".npy")}
    # CRC or header mismatch, a cut stream, an offset before the start, bad
    # deflate data, an unknown compression method, an encrypted member
    except (zipfile.BadZipFile, EOFError, ValueError, zlib.error, NotImplementedError,
            RuntimeError) as err:
        raise DataError(f"{path} is not a readable .npz archive ({err})") from None
    return {name[:-4]: _npy_array(data, f"{path}: {name}") for name, data in members.items()}


def _npy_array(data: bytes, where: str) -> np.ndarray:
    """The array of one ``.npy`` file (versions 1.0 to 3.0) as a writable copy
    in native byte order; DataError for any other header or a byte count
    that is not the shape's."""
    version = data[6:8]
    if data[:6] != _NPY_MAGIC or version not in (b"\x01\x00", b"\x02\x00", b"\x03\x00"):
        raise DataError(f"{where} is not a .npy array")
    length_end = 10 if version == b"\x01\x00" else 12
    start = length_end + int.from_bytes(data[8:length_end], "little")
    match = _NPY_HEADER.fullmatch(data[length_end:start].decode("latin-1"))
    if match is None:
        raise DataError(f"{where} is not a plain bool, integer or float array")
    descr, fortran_order, dims = match.groups()
    dtype = np.dtype(descr)
    shape = tuple(int(n) for n in dims.split(",") if n)
    body = memoryview(data)[start:]
    if len(body) != math.prod(shape) * dtype.itemsize:
        raise DataError(f"{where} holds {len(body)} bytes, not shape {shape} of {dtype}")
    array = np.frombuffer(body, dtype)
    array = array.reshape(shape[::-1]).T if fortran_order == "True" else array.reshape(shape)
    return array.astype(dtype.newbyteorder("="))


def save_state(path: str | Path, state: RecurrentState) -> None:
    """Serialize a stream state to an ``.npz`` path (_write_npz), one entry
    per RecurrentState field; round-trips bit-exactly."""
    entries = {f.name: getattr(state, f.name) for f in fields(RecurrentState)}
    entries["tokens_seen"] = np.asarray(state.tokens_seen, dtype=np.int64)
    _write_npz(path, entries)


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
