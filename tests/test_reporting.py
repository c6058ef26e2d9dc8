"""The column-wise CSV writer against a per-cell oracle, the earlier
one-'%'-per-block writer, and '%.17g' on the float kernel's hard cases."""

import random
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughn_lab import cli_harness as ch
from roughn_lab import reporting
from roughn_lab.cli_harness import GAP_COLUMNS
from roughn_lab.cramer_models import CramerConfig
from roughn_lab.reporting import columns_of, float_digits, format_cell, write_csv
from memory_helpers import traced_peak
from test_cramer_models import gap_columns, kept_successes

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
    1.0, -3.0, 1e16, 1e16 + 2.0, 2.0**53, 2.0**53 + 2.0, 1e17, 123456789012345678.0,
    9007199254740993.0, 1.7976931348623157e308, 0.1, 1 / 3,
]
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),  # integer-valued, above 2**53 too
)
ints = st.integers(-(2**63), 2**63 - 1)
big_ints = st.integers(-(2**70), 2**70)  # beyond int64 and 2**53


def oracle(header, columns) -> str:
    """The row-at-a-time CSV: format_cell of every cell, an array's cells
    being its tolist() values."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    lines = [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def percent_column(column):
    """The %-format of one CSV column and the cells it applies to: '%d' for
    integers, '%.17g' for finite floats, format_cell's strings under '%s'."""
    if isinstance(column, np.ndarray):
        if column.ndim != 1:
            raise ValueError("a CSV column must be one-dimensional")
        if column.dtype.kind in "iu":
            return "%d", column
        if column.dtype.kind == "f":
            if not np.isfinite(column).all():
                raise ValueError("refusing to write a non-finite value")
            return "%.17g", column
        column = column.tolist()
    kinds = set(map(type, column))
    if kinds <= {int}:
        return "%d", column
    if kinds == {float}:
        return percent_column(np.array(column, dtype=np.float64))
    return "%s", [format_cell(v) for v in column]


def percent_oracle(header, columns, block_rows=1 << 14) -> str:
    """The earlier writer: one '%' operation per block of rows.  '%.17g' and
    format(v, '.17g') share CPython's float-to-string routine."""
    checked = [percent_column(column) for column in columns]
    n_rows = len(checked[0][1]) if checked else 0
    width = len(checked)
    row = ",".join(fmt for fmt, _ in checked) + "\n"
    parts = [",".join(header) + "\n"]
    for lo in range(0, n_rows, block_rows):
        hi = min(lo + block_rows, n_rows)
        flat = [None] * ((hi - lo) * width)
        for j, (_, cells) in enumerate(checked):
            part = cells[lo:hi]
            flat[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
        parts.append(row * (hi - lo) % tuple(flat))
    return "".join(parts)


def column(n: int):
    """One column of n cells, of any kind write_csv takes."""
    return st.one_of(
        st.lists(ints, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.uint64)),
        st.lists(floats, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float64)),
        st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float32)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        st.lists(big_ints, min_size=n, max_size=n),
        st.lists(floats, min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.one_of(big_ints, st.just("none")), min_size=n, max_size=n),
        st.lists(st.one_of(big_ints, floats), min_size=n, max_size=n),
        st.lists(st.text(st.characters(codec="ascii", exclude_characters=",\r\n"),
                         max_size=6), min_size=n, max_size=n),
    )


@st.composite
def tables(draw):
    n = draw(st.integers(0, 30))
    width = draw(st.integers(1, 5))
    columns = [draw(column(n)) for _ in range(width)]
    return [f"c{j}" for j in range(width)], columns


def varied_ints(n: int):
    """n int64 cells of 1 to 19 digits, drawn per cell, so that blocks of a
    few rows differ in width."""
    return st.lists(st.integers(0, 18).flatmap(lambda e: st.integers(-(10**e), 10**e)),
                    min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))


@st.composite
def mixed_tables(draw):
    """Integer, float and text columns side by side, in any order, with at
    least one integer column whose width changes from block to block."""
    n = draw(st.integers(1, 30))
    kinds = [varied_ints(n),
             st.lists(floats, min_size=n, max_size=n).map(lambda v: np.array(v, np.float64)),
             st.lists(st.text(st.characters(codec="ascii", exclude_characters=",\r\n"),
                              max_size=6), min_size=n, max_size=n)]
    kinds += draw(st.lists(st.sampled_from(kinds), max_size=3))
    columns = [draw(kind) for kind in draw(st.permutations(kinds))]
    return [f"c{j}" for j in range(len(columns))], columns


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=st.one_of(tables(), mixed_tables()), block=st.sampled_from([1, 2, 3, 7, 1 << 14]))
def test_write_csv_matches_per_cell_oracle(table, block):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(reporting, "CSV_BLOCK_ROWS", block):
        path = Path(tmp) / "t.csv"
        write_csv(path, header, [columns])
        assert path.read_text() == oracle(header, columns)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=tables(), cuts=st.lists(st.integers(0, 30), max_size=4),
       block=st.sampled_from([1, 2, 7, 1 << 14]))
def test_write_csv_parts_write_the_whole_table(table, cuts, block):
    # cut the rows into consecutive parts, zero-row parts among them
    header, columns = table
    n = len(columns[0])
    bounds = [0] + sorted(min(c, n) for c in cuts) + [n]
    parts = [[column[lo:hi] for column in columns] for lo, hi in zip(bounds, bounds[1:])]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(reporting, "CSV_BLOCK_ROWS", block):
        path = Path(tmp) / "t.csv"
        write_csv(path, header, parts)
        assert path.read_text() == oracle(header, columns)


@pytest.mark.parametrize("parts", [
    [],
    [[[], []]],
    [[[], []], [np.arange(2), [0.5, "a"]], [[], []]],
], ids=["no-parts", "one-empty-part", "empty-parts-around-rows"])
def test_write_csv_zero_row_parts(tmp_path, parts):
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "x"], parts)
    rows = "".join(f"{i},{x}\n" for part in parts for i, x in zip(*part))
    assert path.read_text() == "i,x\n" + rows


@pytest.mark.parametrize("last", [
    [np.arange(2), np.array([1.0, float("nan")])],
    [np.arange(2), np.ones(1)],
    [np.arange(2)],
], ids=["nan", "short-column", "missing-column"])
def test_bad_last_part_is_refused_before_writing(tmp_path, last):
    path = tmp_path / "t.csv"
    first = [np.arange(3), np.ones(3)]
    with pytest.raises(ValueError):
        write_csv(path, ["i", "x"], [first, first, last])
    assert list(tmp_path.iterdir()) == []
    write_csv(path, ["i", "x"], [first])
    previous = path.read_bytes()
    with pytest.raises(ValueError):
        write_csv(path, ["i", "x"], [first, first, last])
    assert path.read_bytes() == previous
    assert list(tmp_path.iterdir()) == [path]


def test_parts_are_read_after_the_earlier_rows_are_written(tmp_path):
    # each part is made only once every row before it is in the .tmp file
    path = tmp_path / "t.csv"
    tmp = Path(f"{path}.tmp")
    sizes = [3, 0, 20_000, 1, 5]
    written = []

    def parts():
        for i, n in enumerate(sizes):
            written.append(tmp.stat().st_size)
            yield [np.full(n, i), np.arange(n) + 0.5]

    write_csv(path, ["i", "x"], parts())
    want = "i,x\n"
    expected_sizes = []
    for i, n in enumerate(sizes):
        expected_sizes.append(len(want))
        want += "".join(f"{i},{x + 0.5}\n" for x in range(n))
    assert written == expected_sizes
    assert path.read_text() == want


@pytest.mark.parametrize("middle", [
    [np.arange(2), np.array([1.0, float("inf")])],
    [np.arange(2), np.ones(3)],
    [np.arange(2), np.ones(2), np.ones(2)],
], ids=["inf", "long-column", "extra-column"])
def test_bad_middle_part_leaves_no_file(tmp_path, middle):
    path = tmp_path / "t.csv"
    good = [np.arange(3), np.ones(3)]
    pulled = []

    def parts():
        for part in (good, middle, good):
            pulled.append(len(part[0]))
            yield part

    with pytest.raises(ValueError):
        write_csv(path, ["i", "x"], parts())
    assert pulled == [3, 2]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows", [[], [(1, "a", 0.5)], [(1, "a", 0.5), (2, "b", -0.0)]])
def test_columns_of_rows_writes_the_rows(tmp_path, rows):
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "s", "x"], [columns_of(rows, 3)])
    expected = ["i,s,x"] + [",".join(format_cell(v) for v in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1, 2], [3]]),
    (["a", "b"], [[1, 2]]),
    (["a"], [np.zeros((2, 2))]),
])
def test_misshapen_columns_are_refused_before_writing(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", header, [columns])
    assert list(tmp_path.iterdir()) == []


# --- what one block holds ---

def float_block_peak(tmp_path, n_columns: int) -> int:
    """The traced peak of writing one CSV_BLOCK_ROWS-row block of float columns."""
    rng = np.random.default_rng(n_columns)
    columns = [rng.standard_normal(reporting.CSV_BLOCK_ROWS) for _ in range(n_columns)]
    reporting.pow10_table()  # the cached table is not a block's
    _, peak = traced_peak(write_csv, tmp_path / "t.csv",
                          [f"x{j}" for j in range(n_columns)], [columns])
    return peak


def float_block_bytes(n_columns: int) -> int:
    """One block's buffer: a float cell's byte positions and a separator."""
    return reporting.CSV_BLOCK_ROWS * n_columns * (reporting.FLOAT_CELL_ROWS + 1)


def test_float_block_holds_its_buffer_and_output(tmp_path):
    # one block of 4 float columns: the buffer, and beside it one column's
    # cell matrix and kernel temporaries (under 64 bytes a cell) while the
    # buffer fills, then one slab and its translation while it is written.
    # Translating the whole buffer at once, which allocates its output at
    # the buffer's length, peaked at 1.91 MB here; holding every column's
    # matrix, the assembled block and its tobytes() copy at once, at 3.78 MB.
    peak = float_block_peak(tmp_path, 4)
    assert peak < float_block_bytes(4) + 64 * reporting.CSV_BLOCK_ROWS


def test_float_columns_add_only_their_block_and_output_bytes(tmp_path):
    # 4 more float columns add their share of the buffer and 1 KiB of Python
    # objects each: the translated slabs do not grow with the block's width.
    # 1.91 MB when translate's output was the buffer's length, 3.77 MB when
    # every column's matrix was held at once
    added = float_block_peak(tmp_path, 8) - float_block_peak(tmp_path, 4)
    assert added <= float_block_bytes(4) + 4 * 1024


# --- full-size tables against the earlier writer ---

MEASURE_BUNDLE = "x = 30000000\nK = 1\nw = 7\nc = 0.3\ngamma = 1\n"


def default_gap_columns():
    """gaps.csv's columns at cramer-gaps' default size, seed 7."""
    config = CramerConfig(rate="log", N=ch.GAP_N, trials=ch.GAP_TRIALS, seed=7)
    return list(gap_columns(kept_successes(config)))


def default_gap_ratio_columns():
    """The default-size gap columns and every row's ratio gap / (f(S_k)
    log S_k): about 961k floats for the float kernel."""
    columns = default_gap_columns()
    s_k, gap = columns[2], columns[3]
    return columns + [gap / (np.log(s_k) * np.log(s_k))]


def measure_weight_columns():
    """weights.csv's columns at the benchmark's measure bundle."""
    _, _, table = ch._table_setup(MEASURE_BUNDLE)
    return [np.array(table.support), table.nu, np.cumsum(table.nu) / table.total]


@pytest.mark.parametrize("header, make_columns", [
    (GAP_COLUMNS, default_gap_columns),
    (GAP_COLUMNS + ("ratio",), default_gap_ratio_columns),
    (("n", "nu(n)", "cumulative-mass"), measure_weight_columns),
], ids=["gaps", "gap_ratios", "weights"])
def test_full_size_tables_match_percent_oracle(tmp_path, header, make_columns):
    columns = make_columns()
    assert len(columns[0]) > 100_000
    path = tmp_path / "t.csv"
    write_csv(path, header, [columns])
    assert path.read_bytes() == percent_oracle(header, columns).encode()


# --- the float kernel's hard cases against '%.17g' ---

def written_floats(values, dtype=np.float64) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, ["x"], [[np.array(values, dtype=dtype)]])
        return path.read_text()


def expected_floats(values) -> str:
    return "x\n" + "".join("%.17g\n" % float(v) for v in values)


def steps_around(x: float, steps: int = 2) -> list:
    """x and up to `steps` neighbouring doubles on either side, both signs."""
    out, down, up = [x], x, x
    for _ in range(steps):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        out += [float(down), float(up)]
    return out + [-v for v in out]


def pow10(e: int) -> float:
    """The double nearest 10^e (int/int true division rounds correctly)."""
    return 10**e / 1 if e >= 0 else 1 / 10**-e


FINITE_DECADES = range(-323, 309)  # 1e-323 is the smallest nonzero power


def test_powers_of_ten_and_their_neighbours():
    values = [v for e in FINITE_DECADES for v in steps_around(pow10(e))]
    assert written_floats(values) == expected_floats(values)


def test_special_values_and_fast_range_edges():
    tiny = 2.2250738585072014e-308
    values = [0.0, -0.0, 5e-324, -5e-324, tiny, tiny / 3, np.nextafter(tiny, 0.0),
              1.7976931348623157e308, -1.7976931348623157e308,
              float(2**53 - 1), float(2**53), float(2**53 + 1), float(2**53 + 2)]
    lo, hi = reporting.FAST_DECADES
    values += steps_around(10.0**lo) + steps_around(10.0**hi)
    assert written_floats(values) == expected_floats(values)


def exact_ties() -> list:
    """Doubles x with x * 10^(16-k) exactly halfway between two integers,
    10^k <= x < 10^(k+1): m/4 for odd m in [4e15, 9e15), where 10^(16-k) = 10,
    and odd/2^24 in [1e-7, 1e-6), where 10^(16-k) = 10^23 is not a double."""
    rng = random.Random(12)
    odd = [4 * 10**15 + 1, 9 * 10**15 - 1] + [2 * rng.randrange(2 * 10**15, 9 * 10**15 // 2) + 1
                                              for _ in range(2000)]
    return [m / 4 for m in odd] + [m / 2**24 for m in range(3, 17, 2)]


def test_exact_ties_fall_back_and_print_as_percent_g():
    values = exact_ties()
    _, _, slow = float_digits(np.abs(np.array(values)))
    assert slow.all()
    assert written_floats(values) == expected_floats(values)


def test_exact_powers_of_ten_stay_on_the_fast_path():
    lo, hi = reporting.FAST_DECADES
    exponents = range(lo + 1, hi)
    values = [pow10(e) for e in exponents]
    digits, decade, slow = float_digits(np.array(values))
    assert not slow.any()
    for e, v, d, k in zip(exponents, values, digits.tolist(), decade.tolist()):
        true_k = e if Fraction(v) >= Fraction(10)**e else e - 1
        true_d = round(Fraction(v) * Fraction(10)**(16 - true_k))
        assert (d, k) == ((true_d, true_k) if true_d < 10**17 else (10**16, true_k + 1))


def test_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2**64, 10**6, dtype=np.uint64,
                                                   endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert written_floats(values) == expected_floats(values.tolist())


def test_float32_and_float16_columns():
    bits32 = np.random.default_rng(5).integers(0, 2**32, 10**5, dtype=np.uint32)
    values32 = bits32.view(np.float32)
    values32 = values32[np.isfinite(values32)]
    values16 = np.arange(2**16, dtype=np.uint16).view(np.float16)  # every float16
    values16 = values16[np.isfinite(values16)]
    for values in (values32, values16):
        assert written_floats(values, values.dtype) == expected_floats(values.tolist())


def test_pow10_table_matches_a_fraction_build():
    hi, lo, hi_high, hi_low = reporting.pow10_table()
    exponents = range(reporting.POW10_RANGE[0], reporting.POW10_RANGE[1] + 1)
    assert len(hi) == len(exponents)
    for e, h, l in zip(exponents, hi.tolist(), lo.tolist()):
        exact = Fraction(10)**e
        assert h == float(exact)
        assert l == float(exact - Fraction(h))
    assert (hi_high + hi_low == hi).all()


def test_longdouble_columns_are_refused_before_writing(tmp_path):
    # format_cell prints such a cell with all its digits, not '%.17g' of its
    # float64 rounding
    column = np.array([0.1, 0.5], dtype=np.longdouble)
    with pytest.raises(ValueError, match="refusing"):
        write_csv(tmp_path / "t.csv", ["x"], [[column]])
    assert list(tmp_path.iterdir()) == []


def test_dekker_product_is_exact_against_every_table_entry():
    # p + err == x * 10^e exactly, for err summed as float_digits sums it;
    # a splitter that leaves a half wider than 26 bits breaks it.  Each x
    # sits in the fast range, at the decade that keeps x * 10^e finite.
    hi, _, hi_high, hi_low = reporting.pow10_table()
    rng = np.random.default_rng(20261021)
    lo_k, hi_k = reporting.FAST_DECADES
    for i, e in enumerate(range(reporting.POW10_RANGE[0], reporting.POW10_RANGE[1] + 1)):
        mantissas = rng.integers(2**52, 2**53, 32) / 2.0**52
        x = mantissas * pow10(min(max(16 - e, lo_k), hi_k - 1))
        p = x * hi[i]
        x_high, x_low = reporting._veltkamp(x)
        err = ((x_high * hi_high[i] - p) + x_high * hi_low[i] + x_low * hi_high[i]) \
            + x_low * hi_low[i]
        for xv, pv, ev in zip(x.tolist(), p.tolist(), err.tolist()):
            assert Fraction(pv) + Fraction(ev) == Fraction(xv) * Fraction(float(hi[i])), (e, xv)


@pytest.mark.parametrize("direction", [-np.inf, np.inf], ids=["ulp-low", "ulp-high"])
def test_decade_checks_correct_a_log10_one_ulp_off(monkeypatch, direction):
    # this build's log10 lands in the true decade at every power of ten; a
    # libm or SIMD loop one ulp off must still give '%.17g''s digits
    lo, hi = reporting.FAST_DECADES
    values = [v for e in range(lo, hi + 1) for v in steps_around(pow10(e))]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: np.nextafter(log10(x), direction))
    assert written_floats(values) == expected_floats(values)


def test_fast_range_is_exactly_its_stated_decades():
    # the doubles at and next to 1e-150 and 1e150: float_digits settles
    # exactly those with 1e-150 <= |x| < 1e150, and all print as '%.17g'
    values = np.array(steps_around(1e-150) + steps_around(1e150))
    a = np.abs(values)
    _, _, slow = float_digits(a)
    assert slow.tolist() == (~((a >= 1e-150) & (a < 1e150))).tolist()
    assert written_floats(values) == expected_floats(values)


def test_zero_column_csv_is_its_empty_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [], [columns_of([], 0), []])
    assert path.read_bytes() == b"\n"
