"""Key material handling.

Hexadecimal key streams with consume-once semantics, a deterministic mock
source standing in for the key-delivery hardware, and a small two-party
key store that hands identical digits to parties A and B exactly once each.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PARTIES = ("A", "B")

_HEX = "0123456789abcdefABCDEF"
_WHITESPACE = frozenset(b" \t\r\n\x0b\x0c")


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
        if any(d > 15 for d in self.digits):
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

    def take_pairs(self, n: int) -> list[tuple[int, int]]:
        """Consume 2*n digits and return them as n ordered pairs."""
        return list(zip(*self.take_digits(n, 2).T.tolist()))

    def take_triplets(self, n: int) -> list[tuple[int, int, int]]:
        """Consume 3*n digits and return them as n ordered triplets."""
        return list(zip(*self.take_digits(n, 3).T.tolist()))

    def to_hex(self) -> str:
        """Lowercase hex text, one character per digit (canonical file form)."""
        return "".join(f"{d:x}" for d in self.digits)


def load_keys(path: str | Path) -> HexKeyStream:
    """Read a key file: hex characters, case-insensitive, whitespace ignored.

    The key id is the file name without its suffix. A non-hex byte raises
    HexParseError naming the byte offset; a file with no hex digits at all
    is also an error.
    """
    p = Path(path)
    raw = p.read_bytes()
    digits = bytearray()
    for offset, byte in enumerate(raw):
        if byte in _WHITESPACE:
            continue
        ch = chr(byte)
        if ch not in _HEX:
            raise HexParseError(f"{p}: invalid hex character {ch!r} at offset {offset}")
        digits.append(int(ch, 16))
    if not digits:
        raise HexParseError(f"{p}: no hexadecimal digits")
    return HexKeyStream(bytes(digits), key_id=p.stem)


def save_keys(stream: HexKeyStream, path: str | Path) -> None:
    """Write a stream back to its canonical hex file form."""
    Path(path).write_text(stream.to_hex() + "\n", encoding="ascii")


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
        self._lock = threading.Lock()
        self._entries: dict[str, _StoreEntry] = {}
        self._dir = Path(directory) if directory is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)

    @classmethod
    def open_dir(cls, directory: str | Path) -> "KmsStore":
        """Load a directory-backed store, replaying persisted consumption flags."""
        store = cls(directory)
        assert store._dir is not None
        for key_file in sorted(store._dir.glob("*.hex")):
            stream = load_keys(key_file)
            store._entries[stream.key_id] = _StoreEntry(stream.digits)
        flags = store._dir / cls._FLAGS_FILE
        if flags.exists():
            for line in flags.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                key_id, _, party = line.partition(",")
                entry = store._entries.get(key_id)
                if entry is not None:
                    entry.consumed.add(party)
        return store

    def key_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def add(self, stream: HexKeyStream) -> None:
        """Register a key under its id, persisting it when directory-backed."""
        with self._lock:
            if stream.key_id in self._entries:
                raise ValueError(f"key id {stream.key_id!r} already stored")
            self._entries[stream.key_id] = _StoreEntry(stream.digits)
            if self._dir is not None:
                save_keys(stream, self._dir / f"{stream.key_id}.hex")

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
