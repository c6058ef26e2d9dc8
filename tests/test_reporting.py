"""The column-wise CSV writer against a per-cell oracle."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughn_lab import reporting
from roughn_lab.reporting import columns_of, format_cell, write_csv

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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=tables(), block=st.sampled_from([1, 2, 3, 7, 1 << 14]))
def test_write_csv_matches_per_cell_oracle(table, block):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(reporting, "CSV_BLOCK_ROWS", block):
        path = Path(tmp) / "t.csv"
        write_csv(path, header, columns)
        assert path.read_text() == oracle(header, columns)


@pytest.mark.parametrize("rows", [[], [(1, "a", 0.5)], [(1, "a", 0.5), (2, "b", -0.0)]])
def test_columns_of_rows_writes_the_rows(tmp_path, rows):
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "s", "x"], columns_of(rows, 3))
    expected = ["i,s,x"] + [",".join(format_cell(v) for v in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1, 2], [3]]),
    (["a", "b"], [[1, 2]]),
    (["a"], [np.zeros((2, 2))]),
])
def test_misshapen_columns_are_refused_before_writing(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", header, columns)
    assert list(tmp_path.iterdir()) == []
