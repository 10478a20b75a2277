"""Key material handling.

Hexadecimal key streams with consume-once semantics, a deterministic mock
source standing in for the key-delivery hardware, and a two-party key store
in a directory that hands identical digits to parties A and B exactly once
each: every retrieval creates a claim file that can be created only once.
"""
from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tables import write_text

PARTIES = ("A", "B")

_WHITESPACE = b" \t\r\n\x0b\x0c"
_NOT_HEX_OR_SPACE = re.compile(rb"[^0-9a-fA-F\s]")  # bytes \s is _WHITESPACE
# hex character -> digit value, and digit value -> lowercase hex character
_VALUES = bytes.maketrans(b"0123456789abcdefABCDEF", bytes(range(16)) + bytes(range(10, 16)))
_CHARS = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")


class KeyExhaustedError(RuntimeError):
    """A stream has fewer unconsumed digits than were requested."""


class HexParseError(ValueError):
    """A key file contains something other than hex digits and whitespace."""


class UnknownKeyError(KeyError):
    """The requested key id is not present in the store."""


class KeyConsumedError(RuntimeError):
    """The same party tried to retrieve the same key id twice."""


@dataclass
class HexKeyStream:
    """An ordered run of hexadecimal digits (values 0..15) consumed front to back.

    The digit buffer is immutable; only the cursor advances, and it never
    goes backwards. Reuse of consumed material is a hard error by design:
    callers must provision enough key up front.
    """

    digits: bytes
    key_id: str = "anonymous"
    cursor: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.digits, (bytearray, memoryview)):
            self.digits = bytes(self.digits)
        if self.digits and np.frombuffer(self.digits, dtype=np.uint8).max() > 15:
            raise ValueError("key digits must be in [0, 15]")
        if not 0 <= self.cursor <= len(self.digits):
            raise ValueError("cursor out of range")

    def __len__(self) -> int:
        return len(self.digits)

    @property
    def remaining(self) -> int:
        """Number of digits not yet consumed."""
        return len(self.digits) - self.cursor

    def take_digits(self, n: int, size: int) -> np.ndarray:
        """Consume size*n digits and return them as a read-only (n, size)
        uint8 array, decoded straight from the digit buffer."""
        if n < 0:
            raise ValueError("chunk count must be >= 0")
        needed = size * n
        if needed > self.remaining:
            raise KeyExhaustedError(
                f"key {self.key_id!r}: need {needed} digits, only {self.remaining} left"
            )
        start = self.cursor
        self.cursor = start + needed
        block = np.frombuffer(self.digits, dtype=np.uint8, count=needed, offset=start)
        return block.reshape(n, size)

    def to_hex(self) -> str:
        """Lowercase hex text, one character per digit (canonical file form)."""
        return self.digits.translate(_CHARS).decode("ascii")


def load_keys(path: str | Path) -> HexKeyStream:
    """Read a key file: hex characters, case-insensitive, whitespace ignored.

    The key id is the file name without its suffix. A non-hex byte raises
    HexParseError naming the byte offset; a file with no hex digits at all
    is also an error.
    """
    p = Path(path)
    raw = p.read_bytes()
    bad = _NOT_HEX_OR_SPACE.search(raw)
    if bad is not None:
        ch = chr(raw[bad.start()])
        raise HexParseError(f"{p}: invalid hex character {ch!r} at offset {bad.start()}")
    digits = raw.translate(_VALUES, _WHITESPACE)
    if not digits:
        raise HexParseError(f"{p}: no hexadecimal digits")
    return HexKeyStream(digits, key_id=p.stem)


def save_keys(stream: HexKeyStream, path: str | Path) -> None:
    """Write a stream back to its canonical hex file form."""
    write_text(path, stream.to_hex() + "\n")


def mock_qkd_source(seed: int, n_digits: int) -> HexKeyStream:
    """Deterministic stand-in for delivered key material.

    Digits are uniform on [0, 15]; the same seed always yields the same
    stream. Intended for simulation and tests, not for real secrets.
    """
    if n_digits <= 0:
        raise ValueError("n_digits must be > 0")
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
    """

    def __init__(self, directory: str | Path):
        """Open the store in directory, creating it if needed, and load the
        key files already there."""
        self._lock = threading.Lock()
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        old_log = self._dir / "consumed.txt"
        if old_log.exists():
            raise ValueError(f"{old_log}: consume log of an older store format, not read")
        self._keys = {s.key_id: s.digits for s in map(load_keys, sorted(self._dir.glob("*.hex")))}

    @classmethod
    def open_dir(cls, directory: str | Path) -> "KmsStore":
        """The same as KmsStore(directory)."""
        return cls(directory)

    def key_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._keys)

    def add(self, stream: HexKeyStream) -> None:
        """Register a key under its id and write its key file whole. An id
        that does not name a file directly in the directory is refused."""
        key_file = self._dir / f"{stream.key_id}.hex"
        if key_file.parent != self._dir or key_file.stem != stream.key_id:
            raise ValueError(f"key id {stream.key_id!r} does not name a file in {self._dir}")
        with self._lock:
            # the file check catches a key another store added to the directory
            if stream.key_id in self._keys or key_file.exists():
                raise ValueError(f"key id {stream.key_id!r} already stored")
            tmp_file = key_file.with_suffix(".tmp")  # renamed into place: a cut write leaves none
            save_keys(stream, tmp_file)
            os.replace(tmp_file, key_file)
            self._keys[stream.key_id] = stream.digits

    def get(self, key_id: str, party: str) -> HexKeyStream:
        """Retrieve a key for one party by creating its claim file. The claim
        is synced to disk before the digits are returned; if that fails, the
        claim stays and the party gets nothing."""
        if party not in PARTIES:
            raise ValueError(f"party must be one of {PARTIES}, got {party!r}")
        with self._lock:
            digits = self._keys.get(key_id)
            if digits is None:
                raise UnknownKeyError(key_id)
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
            return HexKeyStream(digits, key_id=key_id)
