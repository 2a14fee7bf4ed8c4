"""Binary container for checkpoints and trace dumps.

Layout (all integers little-endian):

    magic   4 bytes  b"CLUE"
    version u32      1
    count   u32      number of entries
    entry*  u16 name length, UTF-8 name,
            u8 dtype code (0=f32, 1=f64, 2=i32, 3=u8),
            u8 rank, u32 dims[rank],
            raw little-endian payload

Codes 0/1 hold parameters and traces; 2 holds integer index arrays in trace
dumps; 3 holds raw byte blobs (the ``__config__`` checkpoint entry).
Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"CLUE"
VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i4"), 3: np.dtype("u1")}
_KIND_TO_CODE = {(dt.kind, dt.itemsize): code for code, dt in _CODE_TO_DTYPE.items()}


def _dtype_code(arr: np.ndarray) -> int:
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _KIND_TO_CODE:
        raise FormatError(f"unsupported array dtype {arr.dtype}")
    return _KIND_TO_CODE[key]


def write_container(path, entries: dict[str, np.ndarray]) -> None:
    """Write a name -> array mapping; iteration order is preserved on read."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(entries)))
        for name, arr in entries.items():
            arr = np.asarray(arr)  # tobytes() below writes C order; 0-d stays 0-d
            code = _dtype_code(arr)
            name_b = name.encode("utf-8")
            if len(name_b) > 0xFFFF:
                raise FormatError(f"entry name too long: {name[:40]}...")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype(_CODE_TO_DTYPE[code], copy=False).tobytes())


def read_container(path) -> dict[str, np.ndarray]:
    """Read a container; raises FormatError on bad magic, version, or truncation."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != MAGIC:
        raise FormatError(f"{path}: not a CLUE container")
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    off = 12
    entries: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, off)
            off += 2
            name_b = data[off:off + name_len]
            if len(name_b) != name_len:
                raise FormatError(f"{path}: truncated entry name")
            try:
                name = name_b.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: entry name is not UTF-8 ({exc})") from exc
            off += name_len
            code, rank = struct.unpack_from("<BB", data, off)
            off += 2
            if code not in _CODE_TO_DTYPE:
                raise FormatError(f"{path}: unknown dtype code {code}")
            dims = struct.unpack_from(f"<{rank}I", data, off)
            off += 4 * rank
            dtype = _CODE_TO_DTYPE[code]
            nbytes = math.prod(dims) * dtype.itemsize
            payload = data[off:off + nbytes]
            if len(payload) != nbytes:
                raise FormatError(f"{path}: truncated payload for entry {name!r}")
            off += nbytes
            try:
                entries[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
            except ValueError as exc:   # e.g. a corrupt rank whose dims include a 0
                raise FormatError(f"{path}: entry {name!r} has invalid shape {dims}") from exc
    except struct.error as exc:
        raise FormatError(f"{path}: truncated container ({exc})") from exc
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes after last entry")
    return entries


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def pack_text(text: str) -> np.ndarray:
    """Encode text as a u8 entry: 8-byte LE FNV-1a hash followed by UTF-8 bytes."""
    body = text.encode("utf-8")
    head = struct.pack("<Q", fnv1a64(body))
    return np.frombuffer(head + body, dtype=np.uint8).copy()


def unpack_text(arr: np.ndarray) -> str:
    """Decode a text entry, verifying its leading FNV-1a hash."""
    raw = arr.tobytes()
    if len(raw) < 8:
        raise FormatError("text entry shorter than its hash header")
    (stored,) = struct.unpack("<Q", raw[:8])
    body = raw[8:]
    if fnv1a64(body) != stored:
        raise FormatError("text entry hash mismatch (corrupt config block)")
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"text entry is not UTF-8 ({exc})") from exc
