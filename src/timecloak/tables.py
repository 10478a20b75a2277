"""The format of every file the program writes: ASCII, each line ending in
LF, the last one included. A CSV is a header line, then one row per
position of its columns, the cells joined by commas."""
from __future__ import annotations

from contextlib import ExitStack
from itertools import chain, islice
from typing import Iterable

CHUNK_ROWS = 4096  # rows write_csv_pair renders at a time


def csv_text(header: str, *columns: Iterable[str]) -> str:
    """The header, then one row per position of the columns of rendered cells."""
    # the trailing empty line makes the join end the last row with LF
    return "\n".join(chain((header,), map(",".join, zip(*columns)), ("",)))


def write_csv_pair(paths, header: str, prefixes: Iterable[str], lasts: Iterable[Iterable[str]]):
    """Write to each path csv_text's bytes for rows of a shared prefix (cells up
    to the last comma) and its own last column, all equally long. A chunk of
    prefixes is rendered once and written to every file before the next: the
    chunk is interleaved into one list as prefix, last cell, LF per row, the
    last cells swapped in per file, and each file gets one join of it."""
    prefixes, lasts = iter(prefixes), [iter(column) for column in lasts]
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="ascii", newline="\n")) for p in paths]
        for fh in files:
            fh.write(header + "\n")
        while chunk := list(islice(prefixes, CHUNK_ROWS)):
            k = len(chunk)
            parts = ["\n"] * (3 * k)
            parts[0::3] = chunk
            for fh, last in zip(files, lasts):
                parts[1::3] = list(islice(last, k))
                fh.write("".join(parts))


def write_text(path, text: str) -> None:
    """Write text to path as ASCII with LF line endings."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
