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

import hashlib
import math
import os
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"CLUE"
VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i4"), 3: np.dtype("u1")}
_KIND_TO_CODE = {(dt.kind, dt.itemsize): code for code, dt in _CODE_TO_DTYPE.items()}


def write_container(path, entries: dict[str, np.ndarray]) -> None:
    """Write a name -> array mapping; iteration order is preserved on read.

    Every entry is encoded before a file is opened, so an entry that cannot be
    written raises FormatError and leaves ``path`` as it was. The parts go to
    a temporary file beside ``path`` that replaces it only once complete, so
    an OSError mid-write also leaves ``path`` as it was, and no other file."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(entries))]
    for name, arr in entries.items():
        try:    # the u16 name length and u32 dims bound what struct.pack accepts
            arr = np.asarray(arr)
            code = _KIND_TO_CODE[arr.dtype.kind, arr.dtype.itemsize]
            name_b = name.encode("utf-8")
            parts.append(struct.pack(f"<H{len(name_b)}sBB{arr.ndim}I",
                                     len(name_b), name_b, code, arr.ndim, *arr.shape))
            parts.append(np.ascontiguousarray(arr, _CODE_TO_DTYPE[code]))   # written from its buffer
        except (ValueError, KeyError, AttributeError, UnicodeEncodeError, struct.error) as exc:
            raise FormatError(f"entry {name!r:.40} cannot be written"
                              f" ({type(exc).__name__}: {exc})") from exc
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"     # same directory: os.replace is atomic
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):     # the write or the replace failed
            os.remove(tmp)


def read_container(path) -> dict[str, np.ndarray]:
    """Read a container; raises FormatError on bad magic, version, a
    repeated entry name, or any entry that is truncated or malformed."""
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
        for i in range(count):
            (name_len,) = struct.unpack_from("<H", data, off)
            name_b, code, rank = struct.unpack_from(f"<{name_len}sBB", data, off + 2)
            off += 4 + name_len
            dims = struct.unpack_from(f"<{rank}I", data, off)
            off += 4 * rank
            dtype, size = _CODE_TO_DTYPE[code], math.prod(dims)
            if off + size * dtype.itemsize > len(data):   # before any read: dims can be huge
                raise FormatError(f"{path}: entry {i} is truncated: its {size} items run past the end")
            name = name_b.decode("utf-8")
            if name in entries:     # a second entry would silently replace the first
                raise FormatError(f"{path}: entry {i} repeats the name {name!r:.40}")
            entries[name] = np.frombuffer(data, dtype, size, off).reshape(dims).copy()
            off += size * dtype.itemsize
    except (struct.error, UnicodeDecodeError, KeyError, ValueError) as exc:
        raise FormatError(f"{path}: entry {i} is truncated or malformed"
                          f" ({type(exc).__name__}: {exc})") from exc
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes after last entry")
    return entries


def pack_text(text: str) -> np.ndarray:
    """Encode text as a u8 entry: an 8-byte BLAKE2b digest followed by UTF-8 bytes."""
    body = text.encode("utf-8")
    return np.frombuffer(hashlib.blake2b(body, digest_size=8).digest() + body, dtype=np.uint8).copy()


def unpack_text(arr: np.ndarray) -> str:
    """Decode a text entry, verifying its leading BLAKE2b digest."""
    raw = arr.tobytes()
    if len(raw) < 8 or hashlib.blake2b(raw[8:], digest_size=8).digest() != raw[:8]:
        raise FormatError("text entry fails its digest check (corrupt or truncated config block)")
    try:
        return raw[8:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"text entry is not UTF-8 ({exc})") from exc
