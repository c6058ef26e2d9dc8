"""Golden bytes of the constants library.

No subcommand reaches the simplex search or the partition sum, so the CLI
goldens cannot see a change in their floats.  These hashes can: each
simplex case hashes the report's `repr` (argmax, max_value, uniform value
and distance), and the partition case hashes the `float.hex` of G over
criterion 06's grid.  A change that alters these bytes on purpose
regenerates the hashes and says why in CHANGES.md.
"""

import hashlib

import pytest

from roughn_lab.moments_concentration import partition_sum_G, rho_r_maximize

SIMPLEX_GOLDEN = {
    (2, 500): "263f4a366c833fd20bcedbf579ff74c3905758f169a192dd6f47b6b9722da002",
    (3, 500): "ec14b1aff699212dd50aa2ff45b1ca96d10455db124e56395c505de2a4fdcd1e",
    (4, 500): "8eb2bfdcefe1dea70865d4c8f9f0aa7bde421e57e2c9910b5dd6ccc9e4923130",
    (5, 60): "db764c58dba96c9e8a952f183d2c33f6ac3dfe477f3918b4038648db3c05aa4f",
    (6, 40): "df9de2ebbd54cb5d21784e4913fac714f47068066d679b7c5b8fca6a767b3b95",
}

# one "s3 R hex" line per case, s3 <= 8 and R in {10, 100, 1000}
PARTITION_GOLDEN = "7fbbece15ef2d39882a6dbec45e62fe9d3e837f60217088f1ddb016ed13c9c6e"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("r, grid", sorted(SIMPLEX_GOLDEN))
def test_simplex_report_bytes(r, grid):
    assert sha256(repr(rho_r_maximize(r, grid))) == SIMPLEX_GOLDEN[(r, grid)]


def test_partition_sum_bytes():
    lines = [f"{s3} {R:g} {partition_sum_G(s3, R).hex()}"
             for s3 in range(1, 9) for R in (10.0, 100.0, 1000.0)]
    assert sha256("\n".join(lines)) == PARTITION_GOLDEN
