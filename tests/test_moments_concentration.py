"""Combinatorial identities and moment enumerations against independent oracles."""

import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from memory_helpers import traced_peak

from roughn_lab import moments_concentration
from roughn_lab.bump_functions import make_bump
from roughn_lab.moments_concentration import (
    MomentReport,
    SimplexReport,
    build_stirling_table,
    exact_centered_moment,
    fit_c3,
    max_log_ratio,
    partition_sum_G,
    range_moduli,
    rho_r,
    rho_r_maximize,
    stirling_bound_kappa,
    validate_constants,
)
from roughn_lab.primes_core import factor_window
from roughn_lab.sieve_measure import SieveParams, build_weight_table, prob_divides, range_sum


@pytest.fixture(scope="module")
def spec():
    return make_bump(grid_points=1025, t_points=801, t_max=60.0)


@pytest.fixture(scope="module")
def toy_params():
    return SieveParams(x=10**4, K=1, w=3, a=1, c=0.29, gamma=1.0,
                       T_exponent=0.5, A=2.0, k_max=20)


@pytest.fixture(scope="module")
def toy_table(toy_params, spec):
    return build_weight_table(toy_params, spec)


# --- oracles ---

def partitions_by_growth_string(n: int):
    """All set partitions of {0..n-1} via restricted growth strings."""
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def walk(i: int, mx: int):
        if i == n:
            blocks = [[] for _ in range(mx + 1)]
            for pos, b in enumerate(rgs):
                blocks[b].append(pos)
            yield blocks
            return
        for b in range(mx + 2):
            rgs[i] = b
            yield from walk(i + 1, max(mx, b))

    yield from walk(1, 0)


def set_partitions(n: int):
    """Yield all partitions of {0..n-1} as lists of blocks, each partition
    of {0..n-2} extended by adding n - 1 to each block in turn or alone."""
    if n == 0:
        yield []
        return
    for rest in set_partitions(n - 1):
        item = n - 1
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [item]] + rest[i + 1 :]
        yield rest + [[item]]


def stirling_by_enumeration(s: int, t: int) -> int:
    return sum(1 for part in partitions_by_growth_string(s) if len(part) == t)


def ordered_compositions(total: int, parts: int, minimum: int):
    """Nondecreasing positive integer tuples of the given length and sum,
    in lexicographic order."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in ordered_compositions(total - first, parts - 1, first):
            yield (first,) + rest


def simplex_search_by_enumeration(r: int, grid: int) -> SimplexReport:
    """rho_r at every grid point of the ordered simplex, one call per point;
    the first point with the largest value wins."""
    best_val = -math.inf
    best_alpha = None
    for comp in ordered_compositions(grid, r, 1):
        alphas = tuple(c / grid for c in comp)
        val = rho_r(alphas)
        if val > best_val:
            best_val = val
            best_alpha = alphas
    uniform = tuple(1.0 / r for _ in range(r))
    return SimplexReport(r, grid, best_alpha, best_val, rho_r(uniform),
                         max(abs(a - 1.0 / r) for a in best_alpha))


def trial_big_omega(m: int) -> int:
    count = 0
    d = 2
    while d * d <= m:
        while m % d == 0:
            count += 1
            m //= d
        d += 1
    return count + (1 if m > 1 else 0)


# --- Stirling numbers ---

def stirling2(s: int, t: int) -> int:
    """{s, t} read from build_stirling_table's rows."""
    return build_stirling_table()[s - 1][t - 1]


def test_stirling_base_cases_and_small_values():
    assert stirling2(2, 1) == 1 and stirling2(2, 2) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25


def test_stirling_matches_set_partition_enumeration():
    for s in range(1, 9):
        for t in range(1, s + 1):
            assert stirling2(s, t) == stirling_by_enumeration(s, t)


def test_stirling_recurrence_exact():
    for s in range(3, 40):
        for t in range(2, s):
            assert stirling2(s, t) == t * stirling2(s - 1, t) + stirling2(s - 1, t - 1)


def stirling_identity_holds(s: int, m: int) -> bool:
    """sum_{j=1}^{2s} {2s, j} * m!/(m-j)! == m^(2s), exactly."""
    return sum(stirling2(2 * s, j) * math.perm(m, j) for j in range(1, 2 * s + 1)) == m ** (2 * s)


def test_stirling_identity_small_case_by_hand():
    # s=1, m=3: {2,1}*3 + {2,2}*6 = 3 + 6 = 9 = 3^2
    assert stirling_identity_holds(1, 3)


def test_stirling_identity_full_grid():
    for s in range(1, 13):
        for m in range(2 * s, 25):
            assert stirling_identity_holds(s, m)


def test_stirling_envelope_constant_is_stable():
    kappa = stirling_bound_kappa()
    assert 0 < kappa < 1
    assert kappa == pytest.approx(0.017815631, rel=1e-6)


# --- partition sum G ---

def test_partition_sum_single_block():
    for R in (10.0, 100.0, 1000.0):
        assert partition_sum_G(1, R) == pytest.approx(8.0 / R, rel=1e-14)


def test_partition_sum_two_and_three_blocks_by_hand():
    for R in (10.0, 100.0):
        want2 = 32.0 / R**3 + 64.0 / R**2
        assert partition_sum_G(2, R) == pytest.approx(want2, rel=1e-13)
        want3 = 128.0 / R**5 + 3 * 256.0 / R**4 + 512.0 / R**3
        assert partition_sum_G(3, R) == pytest.approx(want3, rel=1e-13)


def test_partition_sum_dual_route_grid():
    # the EGF twin runs inside; disagreement raises RuntimeError
    for s3 in range(1, 9):
        for R in (10.0, 100.0, 1000.0):
            assert partition_sum_G(s3, R) > 0


def test_partition_shapes_match_set_partition_enumeration():
    # the closed-form counts tally every block shape as the enumeration does
    for n in range(11):
        want = Counter(tuple(sorted(map(len, part))) for part in set_partitions(n))
        shapes = moments_concentration._partition_shapes(n)
        assert len(shapes) == len(want) and dict(shapes) == want


def test_partition_sum_routes_must_agree_exactly(monkeypatch):
    # counting the single-block partition of {0..9} twice moves the direct
    # route by 2^21 / R^19, 1.9e-30 of G(10, 1000): only an exact comparison
    # of the two Fractions sees it
    shapes = moments_concentration._partition_shapes

    def miscounted(n):
        return tuple((sizes, count + (sizes == (n,))) for sizes, count in shapes(n))

    monkeypatch.setattr(moments_concentration, "_partition_shapes", miscounted)
    with pytest.raises(RuntimeError, match="routes disagree"):
        partition_sum_G(10, 1000.0)


def per_partition_sum(s3: int, R: float) -> float:
    """The earlier direct route: one product of block factors per set
    partition, summed exactly."""
    factor = [None] + [Fraction(2 ** (2 * b + 1)) / Fraction(R) ** (2 * b - 1)
                       for b in range(1, s3 + 1)]
    direct = Fraction(0)
    for part in set_partitions(s3):
        term = Fraction(1)
        for block in part:
            term *= factor[len(block)]
        direct += term
    return float(direct)


@pytest.mark.parametrize("R", [2.5, 3.7, 10.0, 100.0, 1000.0, 1e6])
def test_partition_sum_matches_per_partition_loop(R):
    # every s3 up to the cap at R = 3.7, whose block factors have the longest
    # denominators; s3 <= 8 elsewhere, since the loop takes seconds at s3 = 10
    for s3 in range(1, 11 if R == 3.7 else 9):
        assert partition_sum_G(s3, R).hex() == per_partition_sum(s3, R).hex()


def test_partition_sum_budget_and_domain():
    with pytest.raises(ValueError, match="capped at s3 <= 10"):
        partition_sum_G(11, 10.0)
    with pytest.raises(ValueError):
        partition_sum_G(2, 2.0)
    with pytest.raises(ValueError):
        partition_sum_G(0, 10.0)
    with pytest.raises(ValueError):
        partition_sum_G(2, math.inf)


# --- simplex maximization ---

def test_rho_maximizer_uniform_r2():
    rep = rho_r_maximize(2, grid=1000)
    assert rep.uniform_distance <= 1e-3
    assert rep.maximizer_is_uniform()


def test_rho_maximizer_uniform_r3_r4():
    assert rho_r_maximize(3, grid=120).maximizer_is_uniform()
    assert rho_r_maximize(4, grid=60).maximizer_is_uniform()


def test_rho_uniform_beats_random_ordered_points():
    rng = np.random.default_rng(12)
    for r in (2, 3, 4):
        uniform_val = rho_r(tuple(1.0 / r for _ in range(r)))
        for _ in range(100):
            alphas = np.sort(rng.dirichlet(np.ones(r)))
            alphas = np.maximum(alphas, 1e-12)
            alphas = tuple(float(a) for a in alphas / alphas.sum())
            assert rho_r(alphas) <= uniform_val * (1 + 1e-9)


def test_rho_domain_checks():
    for r in (1, 7):
        with pytest.raises(ValueError):
            rho_r_maximize(r)
    with pytest.raises(ValueError):
        rho_r((0.0, 1.0))
    with pytest.raises(ValueError):
        rho_r((math.nan, 1.0))


@settings(deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6).flatmap(lambda r: st.tuples(st.just(r), st.integers(r, 80))))
def test_simplex_search_matches_enumeration(case):
    r, grid = case
    rep = rho_r_maximize(r, grid)
    want = simplex_search_by_enumeration(r, grid)
    assert rep.argmax == want.argmax
    assert rep.max_value == want.max_value
    assert repr(rep) == repr(want)


def test_simplex_search_holds_one_block_at_a_time():
    # r = 4 at grid 1000: the largest block, alpha_1 = 1/1000, has 83,167
    # points, so its index and log arrays are 0.67 MB each; the search's
    # traced peak is 3.5 MB, and a block that grew would pass 4 MB
    rep, peak = traced_peak(rho_r_maximize, 4, 1000)
    assert rep.maximizer_is_uniform()
    assert peak < 4_000_000


def test_simplex_tie_goes_to_the_first_point(monkeypatch):
    # no real grid has two points whose rho_r round to the same float, so the
    # tie rule is checked on a patched log: flat, every log is 0; below one
    # ulp, the logs differ but stay under 1e-17, so every math.exp is 1.0.
    # Either way every point ties, and the first composition in enumeration
    # order must win, not the one with the largest log
    for fake_log in (lambda x: 0.0, lambda x: 1e-17 * (x % 1.0)):
        fake = SimpleNamespace(**vars(math))
        fake.log = fake_log
        monkeypatch.setattr(moments_concentration, "math", fake)
        for r in range(2, 7):
            for grid in (r, r + 1, 17, 40):
                rep = rho_r_maximize(r, grid)
                assert rep.argmax == tuple(c / grid for c in (1,) * (r - 1) + (grid - r + 1,))
                assert rep == simplex_search_by_enumeration(r, grid)


# --- moments over the toy table ---

def test_moment_matches_shuffled_two_pass_oracle(toy_table, toy_params):
    rep = exact_centered_moment(toy_table, 1, "large", 2)
    moduli = range_moduli(toy_params, 1, "large")
    mean_shift = math.fsum(1.0 / m for m in moduli)
    order = list(range(len(toy_table.support)))
    random.Random(99).shuffle(order)
    acc = 0.0
    for i in order:
        n = int(toy_table.support[i])
        count = sum(1 for m in moduli if (n + 1) % m == 0)
        acc += toy_table.nu[i] * (count - mean_shift) ** 2
    assert rep.exact_moment == pytest.approx(acc / toy_table.total, rel=1e-10)


def test_moment_holds_one_float_per_point(spec):
    # 166,667 support points: range_sum's float64 accumulator, raised to the
    # s-th power and weighted in place, and no list of floats
    params = SieveParams(x=10**6, K=1, w=3, a=1, c=0.29, gamma=1.0,
                         T_exponent=0.5, A=2.0, k_max=20)
    table = build_weight_table(params, spec)
    n = len(table.support)
    for s in (1, 2, 3, 4):
        rep, peak = traced_peak(exact_centered_moment, table, 1, "medium", s)
        acc = range_sum(table, 1, range_moduli(params, 1, "medium"))
        assert rep.exact_moment == math.fsum((table.nu * acc**s).tolist()) / table.total
        assert peak < 9 * n, s


def test_even_moment_nonnegative(toy_table):
    for k in (1, 2, 3):
        for s in (2, 4):
            rep = exact_centered_moment(toy_table, k, "large", s)
            assert rep.exact_moment >= 0


def test_s1_centered_triangle_inequality(toy_table, toy_params):
    rep = exact_centered_moment(toy_table, 2, "large", 1)
    moduli = range_moduli(toy_params, 2, "large")
    triangle = math.fsum(abs(prob_divides(p, 2, toy_table) - 1.0 / p) for p in moduli)
    assert abs(rep.exact_moment) <= triangle + 1e-12


def test_far_shift_medium_range_is_flagged_zero(toy_table):
    rep = exact_centered_moment(toy_table, 5, "medium", 2)
    assert rep.flagged_empty and rep.exact_moment == 0.0


def test_moment_rejects_bad_orders(toy_table):
    with pytest.raises(ValueError):
        exact_centered_moment(toy_table, 1, "large", 0)
    with pytest.raises(ValueError):
        exact_centered_moment(toy_table, 1, "large", 13)
    for tag in ("huge", "tiny", "power"):
        with pytest.raises(ValueError, match="unknown range tag"):
            exact_centered_moment(toy_table, 1, tag, 2)


def test_fit_c3_covers_medium_reports(toy_table):
    reports = [exact_centered_moment(toy_table, 1, "medium", s)
               for s in (1, 2, 3, 4)]
    c3 = fit_c3(reports)
    assert c3 is not None and c3 > 0
    for rep in reports:
        assert rep.exact_moment <= (2 * c3 * rep.s) ** rep.s * (1 + 1e-12)


# --- the record-search ratio ---

def test_max_log_ratio_witness_matches_brute_scan(toy_table):
    k_max = 10
    support = toy_table.support
    lo = int(support[0]) + 2
    window = factor_window(lo, int(support[-1]) + k_max)
    ratios = max_log_ratio(window, support, k_max)
    best_n, best_val = None, math.inf
    for n in support:
        val = max(trial_big_omega(n + k) / math.log(k) for k in range(2, k_max + 1))
        if val < best_val:
            best_n, best_val = n, val
    arg = int(np.argmin(ratios))
    assert int(support[arg]) == best_n
    assert ratios[arg] == pytest.approx(best_val, rel=1e-12)


# --- constants ---

def test_validate_constants_branches():
    big = validate_constants(2.0**21 * math.e, 3.0, 3.0)
    assert big["ok"]
    assert big["C3_prime"] == pytest.approx(66.0 * math.log(3.0) / math.log(2.0))
    small = validate_constants(10.0, 3.0, 3.0)
    assert not small["ok"]
    with pytest.raises(ValueError):
        validate_constants(1.0, 1.0, 1.0)
