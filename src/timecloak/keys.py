"""Key material handling.

Hexadecimal key streams with consume-once semantics, a deterministic mock
source standing in for the key-delivery hardware, and a two-party key store
in a directory that hands identical digits to parties A and B exactly once
each: every retrieval reads the key file and creates a claim file that can
be created only once, so the directory is the store's only state.
"""
from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .tables import write_text

PARTIES = ("A", "B")

_WHITESPACE = b" \t\r\n\x0b\x0c"
_HEX_OR_SPACE = b"0123456789abcdefABCDEF" + _WHITESPACE
# hex character -> digit value, and digit value -> lowercase hex character
_VALUES = bytes.maketrans(b"0123456789abcdefABCDEF", bytes(range(16)) + bytes(range(10, 16)))
_CHARS = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")


class KeyExhaustedError(RuntimeError):
    """A stream has fewer unconsumed digits than were requested."""


class UnknownKeyError(KeyError):
    """The requested key id is not present in the store."""


class KeyConsumedError(RuntimeError):
    """The same party tried to retrieve the same key id twice."""


class HexKeyStream:
    """An ordered run of hexadecimal digits (values 0..15) consumed front to back.

    The digit buffer is immutable; only the cursor advances, and it never
    goes backwards. Reuse of consumed material is a hard error by design:
    callers must provision enough key up front. The digits, the key id and
    the cursor are read-only, and the stream cannot be replaced, copied or
    pickled, so nothing can rewind it, swap its key or hand its digits out
    twice.
    """

    __slots__ = ("_digits", "_key_id", "_cursor")

    def __init__(self, digits: bytes, key_id: str = "anonymous") -> None:
        if isinstance(digits, (bytearray, memoryview)):
            digits = bytes(digits)
        if digits and np.frombuffer(digits, dtype=np.uint8).max() > 15:
            raise ValueError("key digits must be in [0, 15]")
        self._digits, self._key_id, self._cursor = digits, key_id, 0

    @property
    def digits(self) -> bytes:
        """Every digit, consumed or not, one byte each."""
        return self._digits

    @property
    def key_id(self) -> str:
        """The name the key is stored under."""
        return self._key_id

    @property
    def cursor(self) -> int:
        """Number of digits consumed."""
        return self._cursor

    def __reduce__(self):
        raise TypeError(f"key {self._key_id!r}: a key stream cannot be copied or pickled")

    def __len__(self) -> int:
        return len(self.digits)

    @property
    def remaining(self) -> int:
        """Number of digits not yet consumed."""
        return len(self.digits) - self.cursor

    def peek_digits(self, n: int, size: int) -> np.ndarray:
        """The next size*n digits as a read-only (n, size) uint8 array, decoded
        straight from the digit buffer, without consuming them."""
        if n < 0 or size < 1:  # a negative size or count would move the cursor back
            raise ValueError(f"need n >= 0 and size >= 1, got n={n!r}, size={size!r}")
        needed = size * n
        if needed > self.remaining:
            raise KeyExhaustedError(
                f"key {self.key_id!r}: need {needed} digits, only {self.remaining} left"
            )
        block = np.frombuffer(self.digits, dtype=np.uint8, count=needed, offset=self.cursor)
        return block.reshape(n, size)

    def take_digits(self, n: int, size: int) -> np.ndarray:
        """Consume size*n digits and return them as peek_digits does."""
        block = self.peek_digits(n, size)
        self._cursor += block.size
        return block

    def to_hex(self) -> str:
        """Lowercase hex text, one character per digit (canonical file form)."""
        return self.digits.translate(_CHARS).decode("ascii")


def load_keys(path: str | Path) -> HexKeyStream:
    """Read a key file: hex characters, case-insensitive, whitespace ignored.

    The key id is the file name without its suffix. A non-hex byte raises
    ValueError naming the byte offset; a file with no hex digits at all
    is also an error.
    """
    p = Path(path)
    raw = p.read_bytes()
    bad = raw.translate(None, _HEX_OR_SPACE)  # every byte that is neither, in order
    if bad:
        offset = raw.index(bad[0])
        raise ValueError(f"{p}: invalid hex character {chr(bad[0])!r} at offset {offset}")
    digits = raw.translate(_VALUES, _WHITESPACE)
    if not digits:
        raise ValueError(f"{p}: no hexadecimal digits")
    return HexKeyStream(digits, key_id=p.stem)


def save_keys(stream: HexKeyStream, path: str | Path | int) -> None:
    """Write a stream's canonical hex file form to path, a name or an open fd it closes."""
    write_text(path, stream.to_hex() + "\n")


def mock_qkd_source(seed: int, n_digits: int) -> HexKeyStream:
    """Deterministic stand-in for delivered key material.

    Digits are uniform on [0, 15]; the same seed always yields the same
    stream. Intended for simulation and tests, not for real secrets.
    """
    if n_digits <= 0:
        raise ValueError("n_digits must be > 0")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 16, size=n_digits, dtype=np.uint8).tobytes()
    return HexKeyStream(digits, key_id=f"mock-{seed}")


class KmsStore:
    """Two-party consume-once key store kept in a directory.

    Both parties retrieve byte-identical digit sequences for a given key id;
    a second retrieval by the same party is rejected. Each key lives in one
    ``<key_id>.hex`` file, and each retrieval creates an empty claim file
    ``<key_id>.<party>`` that can be created only once, so the refusal holds
    across threads, reopened stores and stores open on the same directory.
    Every retrieval reads the key file, so a corrupt file fails only its id.
    """

    def __init__(self, directory: str | Path):
        """Open the store in directory, creating it if needed."""
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        old_log = self._dir / "consumed.txt"
        if old_log.exists():
            raise ValueError(f"{old_log}: consume log of an older store format, not read")

    @classmethod
    def open_dir(cls, directory: str | Path) -> "KmsStore":
        """The same as KmsStore(directory)."""
        return cls(directory)

    def _key_file(self, key_id: str) -> Path | None:
        """The key file of key_id, or None if the id names no file directly in the directory."""
        key_file = self._dir / f"{key_id}.hex"
        direct = key_file.parent == self._dir and key_file.stem == key_id and "\0" not in key_id
        return key_file if direct else None

    def add(self, stream: HexKeyStream) -> None:
        """Write a key's file whole under its id. An id already stored, or one
        that does not name a file directly in the directory, is refused."""
        key_file = self._key_file(stream.key_id)
        if key_file is None:
            raise ValueError(f"key id {stream.key_id!r} does not name a file in {self._dir}")
        # a file of its own, linked into place: the link refuses any existing key file
        fd, tmp_file = tempfile.mkstemp(suffix=".tmp", dir=self._dir)
        try:
            save_keys(stream, fd)
            os.link(tmp_file, key_file)
        except FileExistsError:
            raise ValueError(f"key id {stream.key_id!r} already stored") from None
        finally:
            os.remove(tmp_file)

    def get(self, key_id: str, party: str) -> HexKeyStream:
        """Retrieve a key for one party: parse its key file (a missing or corrupt
        one makes no claim), then create the party's claim file and sync it to
        disk. If the sync fails, the claim stays and the party gets nothing."""
        if party not in PARTIES:
            raise ValueError(f"party must be one of {PARTIES}, got {party!r}")
        key_file = self._key_file(key_id)
        if key_file is None:
            raise UnknownKeyError(key_id)
        try:
            stream = load_keys(key_file)
        except FileNotFoundError:
            raise UnknownKeyError(key_id) from None
        claim = self._dir / f"{key_id}.{party}"
        try:
            os.close(os.open(claim, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            raise KeyConsumedError(f"party {party} already took key {key_id!r}") from None
        dir_fd = os.open(self._dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        return stream
