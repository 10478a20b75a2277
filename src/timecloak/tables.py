"""The format of every file the program writes: ASCII, each line ending in
LF, the last one included. A CSV is a header line, then one row per
position of its columns, the cells joined by commas."""
from __future__ import annotations

from itertools import chain
from typing import Iterable


def csv_text(header: str, *columns: Iterable[str]) -> str:
    """The header, then one row per position of the columns of rendered cells."""
    # the trailing empty line makes the join end the last row with LF
    return "\n".join(chain((header,), map(",".join, zip(*columns)), ("",)))


def write_text(path, text: str) -> None:
    """Write text to path as ASCII with LF line endings."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
