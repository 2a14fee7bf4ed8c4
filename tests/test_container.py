"""Round-trip and corruption handling for the binary tensor container."""

import hashlib
import io

import numpy as np
import pytest

from cluenet import container as C
from cluenet.errors import FormatError


def test_round_trip_mixed_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    entries = {
        "a/weight": rng.normal(size=(3, 4)).astype(np.float32),
        "a/bias": rng.normal(size=4).astype(np.float64),
        "idx": np.array([5, -1, 7], dtype=np.int32),
        "bytes": np.arange(10, dtype=np.uint8),
        "scalarish": np.array([3.25], dtype=np.float32),
    }
    path = tmp_path / "t.clue"
    C.write_container(path, entries)
    out = C.read_container(path)
    assert list(out) == list(entries)  # insertion order preserved
    for k in entries:
        assert out[k].dtype == entries[k].dtype
        np.testing.assert_array_equal(out[k], entries[k])


def test_round_trip_zero_dim_and_empty(tmp_path):
    entries = {"empty": np.zeros((0, 3), dtype=np.float32),
               "scalar": np.asarray(-1.5, dtype=np.float64)}
    path = tmp_path / "e.clue"
    C.write_container(path, entries)
    out = C.read_container(path)
    assert out["empty"].shape == (0, 3)
    assert out["scalar"].shape == ()
    assert out["scalar"] == -1.5


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.clue"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        C.read_container(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.clue"
    C.write_container(path, {"x": np.ones((4, 4), dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="entry 0 is truncated: its 16 items run past the end"):
        C.read_container(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "t.clue"
    C.write_container(path, {"x": np.ones(2, dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:10])
    with pytest.raises(FormatError, match="not a CLUE container"):
        C.read_container(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "t.clue"
    C.write_container(path, {"x": np.ones(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="4 trailing bytes"):
        C.read_container(path)


def test_repeated_entry_name(tmp_path):
    """Renaming entry ``b`` to ``a`` must not read back as one ``a`` holding b's payload."""
    path = tmp_path / "t.clue"
    C.write_container(path, {"a": np.ones(2, dtype=np.float32), "b": np.zeros(3, dtype=np.float32)})
    raw = path.read_bytes()
    name_b = b"\x01\x00b"                  # u16 name length 1, then the name
    assert raw.count(name_b) == 1
    path.write_bytes(raw.replace(name_b, b"\x01\x00a"))
    with pytest.raises(FormatError, match="entry 1 repeats the name 'a'"):
        C.read_container(path)


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "t.clue"
    C.write_container(path, {"x": np.ones(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    # dtype code sits right after magic(4) + version(4) + count(4) + namelen(2) + name(1)
    off = 4 + 4 + 4 + 2 + 1
    assert raw[off] == 0
    raw[off] = 250
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"entry 0 is truncated or malformed \(KeyError: 250\)"):
        C.read_container(path)


def test_non_utf8_entry_name(tmp_path):
    path = tmp_path / "t.clue"
    C.write_container(path, {"x": np.ones(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    off = 4 + 4 + 4 + 2    # the one-byte name
    assert raw[off] == ord("x")
    raw[off] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"entry 0 is truncated or malformed \(UnicodeDecodeError"):
        C.read_container(path)


def test_entry_name_of_65535_bytes_round_trips(tmp_path):
    """The name length is a u16: 0xFFFF bytes is the longest name (one more is in BAD_WRITES)."""
    entries = {"x" * 0xFFFF: np.zeros(1, np.float32)}
    C.write_container(tmp_path / "ok.clue", entries)
    assert list(C.read_container(tmp_path / "ok.clue")) == list(entries)


ONE = np.zeros(1, np.float32)
BAD_WRITES = {   # id: (entries, the start of the FormatError message, which names the bad entry)
    "int64 array": ({"x": np.ones(2, np.int64)}, "entry 'x' cannot be written"),
    "65536-byte name": ({"x" * 0x10000: ONE}, "entry 'x{39} cannot be written"),
    "int name": ({3: ONE}, "entry 3 cannot be written"),
    "bytes name": ({b"x": ONE}, "entry b'x' cannot be written"),
    "lone-surrogate name": ({"\udc80": ONE}, r"entry '\\udc80' cannot be written"),
    "dimension 2**32": ({"e": np.zeros((0, 2**32), np.float32)}, "entry 'e' cannot be written"),
    "ragged list": ({"r": [[1.0, 2.0], [3.0]]}, "entry 'r' cannot be written"),
    "good entry then bad": ({"a": ONE, "b": np.ones(2, np.int64)}, "entry 'b' cannot be written"),
}


@pytest.mark.parametrize("bad", sorted(BAD_WRITES))
def test_rejected_write_leaves_no_file_and_keeps_an_existing_one(tmp_path, bad):
    """Every entry is encoded before the file is opened, so a rejection
    writes nothing: no new file appears and an old one keeps its bytes."""
    entries, message = BAD_WRITES[bad]
    old = tmp_path / "old.clue"
    C.write_container(old, {"keep": np.arange(3, dtype=np.float32)})
    before = old.read_bytes()
    for path in (tmp_path / "new.clue", old):
        with pytest.raises(FormatError, match=message):
            C.write_container(path, entries)
    assert [p.name for p in tmp_path.iterdir()] == ["old.clue"]
    assert old.read_bytes() == before


def test_failed_write_keeps_the_old_file_and_leaves_no_other(tmp_path, monkeypatch):
    """An OSError after some bytes reached the disk leaves the old file whole."""
    old = tmp_path / "old.clue"
    C.write_container(old, {"keep": np.arange(1000, dtype=np.float32)})
    before = old.read_bytes()

    class FailingFile(io.FileIO):
        def writelines(self, parts):
            self.write(parts[0])
            raise OSError("disk full")

    monkeypatch.setattr(C, "open", lambda path, mode: FailingFile(path, mode), raising=False)
    with pytest.raises(OSError, match="disk full"):
        C.write_container(old, {"new": np.ones(1000, dtype=np.float32)})
    assert [p.name for p in tmp_path.iterdir()] == ["old.clue"]
    assert old.read_bytes() == before


def test_text_pack_round_trip():
    text = "widths=8,8,8,8\nnum_classes=3\n"
    arr = C.pack_text(text)
    assert arr.dtype == np.uint8
    assert C.unpack_text(arr) == text


def test_text_hash_detects_tamper():
    arr = C.pack_text("alpha=1\n").copy()
    arr[-1] ^= 0xFF
    with pytest.raises(FormatError):
        C.unpack_text(arr)


@pytest.mark.parametrize("size", [0, 7])
def test_text_entry_shorter_than_its_header(size):
    with pytest.raises(FormatError, match="text entry fails its digest check"):
        C.unpack_text(np.zeros(size, dtype=np.uint8))


def test_text_non_utf8_body_with_valid_hash():
    body = b"\xff\xfe"
    arr = np.frombuffer(hashlib.blake2b(body, digest_size=8).digest() + body, dtype=np.uint8)
    with pytest.raises(FormatError, match="not UTF-8"):
        C.unpack_text(arr)


def test_checkpoint_config_tamper_is_caught_by_its_digest(tmp_path):
    """Arrays carry no checksum, so the file still reads; the config text does not."""
    path = tmp_path / "ckpt.clue"
    body = b'{"widths": [8, 8], "num_classes": 3}'
    C.write_container(path, {"w": np.ones((2, 3), np.float32),
                             "__config__": C.pack_text(body.decode()),
                             "b": np.zeros(3, np.float64)})
    raw = bytearray(path.read_bytes())
    at = raw.index(body) + body.index(b"3}")
    raw[at] ^= 0x01                    # "3" -> "2": still valid UTF-8 and JSON
    path.write_bytes(bytes(raw))
    out = C.read_container(path)
    assert list(out) == ["w", "__config__", "b"]
    with pytest.raises(FormatError, match="digest"):
        C.unpack_text(out["__config__"])


def test_corrupt_rank_raises_format_error(tmp_path):
    path = tmp_path / "t.clue"
    C.write_container(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                             "s": np.float64(2.0), "i": np.array([1, 2], dtype=np.int32)})
    raw = bytearray(path.read_bytes())
    # rank of "w": magic(4) + version(4) + count(4) + namelen(2) + name(1) + code(1)
    assert raw[16] == 2
    raw[16] = 14      # its dims run into the payload and include a 0
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"entry 0 is truncated or malformed \(ValueError"):
        C.read_container(path)


# ---------------------------------------------------------------------------
# corruption sweeps: the format has no checksum, so a flipped payload byte
# can read back as different values; the contract is only that damage never
# escapes as anything but FormatError
# ---------------------------------------------------------------------------

FIVE_ENTRIES = {
    "w": np.arange(6, dtype=np.float32).reshape(2, 3),
    "s": np.asarray(2.0, dtype=np.float64),
    "i": np.array([1, 2], dtype=np.int32),
    "empty": np.zeros((0, 3), dtype=np.float32),
    "bytes": np.arange(5, dtype=np.uint8),
}


@pytest.fixture(scope="module")
def five_entry_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "five.clue"
    C.write_container(path, FIVE_ENTRIES)
    return path, path.read_bytes()


def test_every_truncation_raises_format_error(five_entry_file):
    path, raw = five_entry_file
    damaged = path.with_name("truncated.clue")
    for n in range(len(raw)):
        damaged.write_bytes(raw[:n])
        with pytest.raises(FormatError):
            C.read_container(damaged)


def test_byte_flips_raise_format_error_or_read(five_entry_file):
    """Every single-bit flip, then 300 seeded pairs of byte flips."""
    path, raw = five_entry_file
    rng = np.random.default_rng(0)
    cases = [[(at, 1 << bit)] for at in range(len(raw)) for bit in range(8)]
    cases += [list(zip(rng.choice(len(raw), 2, replace=False), rng.integers(1, 256, 2)))
              for _ in range(300)]
    damaged = path.with_name("flipped.clue")
    for flips in cases:
        flipped = bytearray(raw)
        for at, xor in flips:
            flipped[at] ^= int(xor)
        damaged.write_bytes(bytes(flipped))
        try:
            out = C.read_container(damaged)
        except FormatError:
            continue
        assert isinstance(out, dict) and all(isinstance(v, np.ndarray) for v in out.values()), flips
