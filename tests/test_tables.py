import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from timecloak import tables
from timecloak.tables import CHUNK_ROWS, csv_text, read_decimal_table, write_series_csvs


def _error_cells(path) -> list[str]:
    """The error_ns cells of a series CSV, in row order."""
    return [row.rsplit(",", 1)[1] for row in path.read_text().splitlines()[1:]]


@given(st.floats())
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1e-4)
@example(float(np.nextafter(1e-4, 0.0)))
@example(1e16)
@example(float(np.nextafter(1e16, 0.0)))
@example(9007199254740993.0)
@example(2.0**-10)  # a power of two: its lower neighbour is half as far as its upper one
@example(2.0**40)
def test_cells_are_repr(tmp_path_factory, x):
    path = tmp_path_factory.mktemp("cells") / "tic.csv"
    write_series_csvs([path], 0.5, [np.array([x, -x])])
    assert _error_cells(path) == [repr(x), repr(-x)]


def test_cells_are_repr_for_a_million_doubles_printed_without_exponent(tmp_path):
    # random bit patterns over every double repr writes in fixed notation, both signs
    lo, hi = (int(np.float64(v).view(np.uint64)) for v in (1e-4, 1e16))
    rng = np.random.default_rng(20201)
    bits = rng.integers(lo, hi, 10**6, dtype=np.uint64)
    x = bits.view(np.float64) * np.where(rng.random(10**6) < 0.5, -1.0, 1.0)
    write_series_csvs([tmp_path / "tic.csv"], 1.0, [x])
    assert _error_cells(tmp_path / "tic.csv") == list(map(repr, x.tolist()))


def test_scale_table_is_exact():
    # row 2 * (exponent - _EXP_LO) + irregular: 10**-K is the largest power of ten
    # at or below the interval width a * 2**(q - 2), and 5**K and the shift are exact
    assert tables._EXP_LO == int(np.float64(1e-4).view(np.uint64)) >> 52
    assert tables._EXP_HI == int(np.float64(np.nextafter(1e16, 0.0)).view(np.uint64)) >> 52
    rows = [(e, a) for e in range(tables._EXP_LO, tables._EXP_HI + 1) for a in (4, 3)]
    assert tables._scales().shape == (3, len(rows))
    for (exponent, a), k, shift, pow5 in zip(rows, *tables._scales().tolist()):
        q = exponent - 1075
        # 10**-k <= a * 2**(q - 2) < 10**(1 - k), times 10**k * 2**(2 - q)
        assert 2 ** (2 - q) <= a * 10**k < 10 * 2 ** (2 - q), (exponent, a)
        assert pow5 == 5**k and shift == 2 - q - k
        # the products fit their words: (16c + 8) * 5**K < 2**104, and
        # 4 * x * 10**K < 2**60 after the shift
        assert 1 <= shift and (2**57 + 8) * pow5 < 2**104 and (2**57 + 8) * pow5 >> shift < 2**60


@pytest.mark.parametrize("n", [1, 3, CHUNK_ROWS + 2])
def test_integer_tau0_writes_the_float_tau0_bytes(n, tmp_path):
    # an int tau0 once raised AttributeError: int.is_integer exists only from Python 3.12
    column = np.linspace(-1.0, 1.0, n)
    write_series_csvs([tmp_path / "int.csv"], 5, [column])
    write_series_csvs([tmp_path / "float.csv"], 5.0, [column])
    assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()


@pytest.mark.parametrize("tau0", [1.0, 0.25, 1e-7, 3e15, 2.0**70, 1e307, -2.0, 0.0, math.inf])
@pytest.mark.parametrize("n", [1, 40])
def test_time_cells_are_repr(n, tau0, tmp_path):
    # whole and fractional steps, times past 1e16 that repr writes with an
    # exponent, and steps no series would take but the writer still renders
    column = np.arange(n) * 0.5
    write_series_csvs([tmp_path / "tic.csv"], tau0, [column])
    steps = range(n)
    columns = (steps, [i * tau0 for i in steps], column.tolist())
    expected = csv_text("step_index,time_s,error_ns", *(map(repr, c) for c in columns))
    assert (tmp_path / "tic.csv").read_text() == expected


def test_no_rows_writes_the_header(tmp_path):
    write_series_csvs([tmp_path / "a.csv", tmp_path / "b.csv"], 5.0, [np.zeros(0), np.zeros(0)])
    for name in ("a.csv", "b.csv"):
        assert (tmp_path / name).read_bytes() == b"step_index,time_s,error_ns\n"


#: the cells read_decimal_table decodes: -?digits[.digits], 1 to 8 bytes, with a digit
_DECIMAL = re.compile(r"-?[0-9]*\.?[0-9]*")
_DECIMAL_CELLS = st.from_regex(r"\A-?[0-9]{0,8}(\.[0-9]{0,8})?\Z").filter(
    lambda s: len(s) <= 8 and any(c.isdigit() for c in s)
)


def _table_of(path, cells, columns=(1,)):
    """read_decimal_table of an index,cell,label CSV of the cells."""
    rows = "".join(f"{i},{cell},site\n" for i, cell in enumerate(cells))
    path.write_bytes(("index,value,label\n" + rows).encode("utf-8"))
    return read_decimal_table(path, 1, list(columns))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@given(st.lists(_DECIMAL_CELLS, min_size=1, max_size=40))
@example(["-0"])
@example(["-.5"])
@example(["5."])
@example(["00000000"])
@example(["99999999"])
@example(["-0.00000"])
@example([".1234567", "-1234567", "1234567.", "0", "-9.99999"])
def test_decimal_cells_are_float(tmp_path_factory, cells):
    table = _table_of(tmp_path_factory.mktemp("cells") / "t.csv", cells)
    assert table is not None and table.shape == (len(cells), 1)
    assert _bits(table[:, 0]) == _bits([float(cell) for cell in cells])


@given(st.text(alphabet="0123456789.-+eE_abn/: ", min_size=0, max_size=10))
@example("")
@example("-")
@example(".")
@example("-.")
@example("1.2.3")
@example("--1")
@example("1-")
@example("123456789")
@example("1e5")
@example("nan")
@example("1_0")
@example("9:")
@example("1/2")
def test_other_cells_are_refused(tmp_path_factory, cell):
    # a cell outside the grammar, or past 8 bytes, leaves the file to np.loadtxt
    table = _table_of(tmp_path_factory.mktemp("cells") / "t.csv", ["1.5", cell])
    if _DECIMAL.fullmatch(cell) and 1 <= len(cell) <= 8 and any(c.isdigit() for c in cell):
        assert _bits(table[:, 0]) == _bits([1.5, float(cell)])
    else:
        assert table is None


@pytest.mark.parametrize("block", [40, 41, 64, 1000])
def test_blocks_cut_at_newlines_read_every_row(monkeypatch, block, tmp_path):
    monkeypatch.setattr(tables, "READ_BLOCK", block)
    values = np.round(np.random.default_rng(4).normal(0.0, 50.0, 300), 3)
    cells = [f"{v:.3f}" for v in values]
    table = _table_of(tmp_path / "t.csv", cells, columns=(1, 0))
    assert _bits(table[:, 0]) == _bits(values) and table[:, 1].tolist() == list(range(300))


def test_line_longer_than_a_block_is_refused(monkeypatch, tmp_path):
    # a line that does not fit the buffer cannot be cut at a newline
    monkeypatch.setattr(tables, "READ_BLOCK", 20)
    (tmp_path / "t.csv").write_bytes(b"a,b\n1,2\n" + b"3," + b"4" * 30 + b"\n")
    assert read_decimal_table(tmp_path / "t.csv", 1, [1]) is None


def test_table_grows_past_its_first_guess(monkeypatch, tmp_path):
    # rows that get shorter after the first block overrun the guess made from it
    monkeypatch.setattr(tables, "READ_BLOCK", 64)
    cells = ["-1234.56"] * 20 + ["1"] * 400
    table = _table_of(tmp_path / "t.csv", cells)
    assert _bits(table[:, 0]) == _bits([float(c) for c in cells])


def test_first_row_that_fails_stops_the_read(monkeypatch, tmp_path):
    # a file of 17-digit reprs, as timecloak run writes, costs one row
    calls = []
    rows = tables._decimal_rows

    def spy(buf, words, lo, hi, *args):
        calls.append(hi - lo)
        return rows(buf, words, lo, hi, *args)

    monkeypatch.setattr(tables, "_decimal_rows", spy)
    cells = [repr(v) for v in np.random.default_rng(6).normal(0.0, 3.0, 1000).tolist()]
    assert _table_of(tmp_path / "t.csv", cells) is None
    assert calls == [len(f"0,{cells[0]},site\n")]
