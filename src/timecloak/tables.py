"""The format of every file the program writes: ASCII, each line ending in
LF, the last one included. A CSV is a header line, then one row per
position of its columns, the cells joined by commas."""
from __future__ import annotations

from contextlib import ExitStack
from itertools import chain
from typing import Iterable

CHUNK_ROWS = 4096  # rows write_series_csvs renders at a time


def csv_text(header: str, *columns: Iterable[str]) -> str:
    """The header, then one row per position of the columns of rendered cells."""
    # the trailing empty line makes the join end the last row with LF
    return "\n".join(chain((header,), map(",".join, zip(*columns)), ("",)))


def write_series_csvs(paths, tau0: float, columns) -> None:
    """Write to each path the step_index,time_s,error_ns CSV of its column of
    float64 samples, time_s being step_index * tau0, with csv_text's bytes and
    every cell its repr. Each chunk of rows is one list of prefix (the cells up
    to the last comma), sample cell and LF per row: its prefixes are rendered
    once, its cells swapped in per file, and each file gets one join of it."""
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError("columns differ in length: " + " and ".join(str(len(c)) for c in columns))
    # whole products below 2**53 are exact, and repr writes them as integer + ".0"
    whole = tau0.is_integer() and (n - 1) * int(tau0) < 2**53
    step, point = (int(tau0), ".0") if whole else (tau0, "")
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="ascii", newline="\n")) for p in paths]
        for fh in files:
            fh.write("step_index,time_s,error_ns\n")
        for start in range(0, n, CHUNK_ROWS):
            rows = range(start, min(start + CHUNK_ROWS, n))
            parts = ["\n"] * (3 * len(rows))
            parts[0::3] = [f"{i},{i * step!r}{point}," for i in rows]
            for fh, column in zip(files, columns):
                parts[1::3] = map(repr, column[start : rows.stop].tolist())
                fh.write("".join(parts))


def write_text(path, text: str) -> None:
    """Write text to path as ASCII with LF line endings."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
