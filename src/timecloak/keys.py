"""Key material handling.

Hexadecimal key streams with consume-once semantics, a deterministic mock
source standing in for the key-delivery hardware, and a small two-party
key store that hands identical digits to parties A and B exactly once each.
"""
from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
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
        if max(self.digits, default=0) > 15:
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


@dataclass
class _StoreEntry:
    digits: bytes
    consumed: set[str] = field(default_factory=set)


class KmsStore:
    """Two-party consume-once key store.

    Both parties retrieve byte-identical digit sequences for a given key id;
    a second retrieval by the same party is rejected. Retrieval is safe under
    concurrent access, and the consumed flag is set atomically with the read.

    When backed by a directory, keys live in one ``<key_id>.hex`` file each
    and consumption flags are appended to a ``consumed.txt`` sidecar.
    """

    _FLAGS_FILE = "consumed.txt"

    def __init__(self, directory: str | Path | None = None):
        """An in-memory store, or one backed by a directory. The key files and
        consumption flags already in the directory are loaded, so a party
        never gets a key again that it consumed before the store was opened."""
        self._lock = threading.Lock()
        self._entries: dict[str, _StoreEntry] = {}
        self._dir = Path(directory) if directory is not None else None
        if self._dir is None:
            return
        self._dir.mkdir(parents=True, exist_ok=True)
        for key_file in sorted(self._dir.glob("*.hex")):
            stream = load_keys(key_file)
            self._entries[stream.key_id] = _StoreEntry(stream.digits)
        flags = self._dir / self._FLAGS_FILE
        if flags.exists():
            for line in flags.read_text().splitlines():
                key_id, _, party = line.strip().partition(",")
                entry = self._entries.get(key_id)
                if entry is not None:
                    entry.consumed.add(party)

    @classmethod
    def open_dir(cls, directory: str | Path) -> "KmsStore":
        """A directory-backed store: the same as KmsStore(directory)."""
        return cls(directory)

    def key_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def add(self, stream: HexKeyStream) -> None:
        """Register a key under its id, persisting it when directory-backed."""
        with self._lock:
            key_file = None if self._dir is None else self._dir / f"{stream.key_id}.hex"
            # the file check catches a key another store added to the directory
            if stream.key_id in self._entries or (key_file is not None and key_file.exists()):
                raise ValueError(f"key id {stream.key_id!r} already stored")
            self._entries[stream.key_id] = _StoreEntry(stream.digits)
            if key_file is not None:
                save_keys(stream, key_file)

    def get(self, key_id: str, party: str) -> HexKeyStream:
        """Retrieve a key for one party, marking it consumed for that party."""
        if party not in PARTIES:
            raise ValueError(f"party must be one of {PARTIES}, got {party!r}")
        with self._lock:
            entry = self._entries.get(key_id)
            if entry is None:
                raise UnknownKeyError(key_id)
            if party in entry.consumed:
                raise KeyConsumedError(f"key {key_id!r} already consumed by party {party}")
            entry.consumed.add(party)
            if self._dir is not None:
                with open(self._dir / self._FLAGS_FILE, "a", encoding="ascii") as fh:
                    fh.write(f"{key_id},{party}\n")
            return HexKeyStream(entry.digits, key_id=key_id)
