"""Weight-table behavior against direct enumeration oracles."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from memory_helpers import traced_peak
from test_acceptance import RECORD_PARAMS_TEXT

from roughn_lab import sieve_measure
from roughn_lab.bump_functions import eta_tilde, make_bump
from roughn_lab.sieve_measure import (
    SieveParams,
    WeightTable,
    _hits,
    axiom_check,
    build_weight_table,
    carried_cumsum,
    empty_medium_shifts,
    exact_weights,
    inverse_cdf,
    nu_exact,
    parse_params,
    prob_divides,
    sample,
    shift_terms,
    tiny_prime_rigidity,
    total_mass,
    walk_ends,
    weights_at,
)


@pytest.fixture(scope="module")
def spec():
    return make_bump(grid_points=1025, t_points=801, t_max=60.0)


@pytest.fixture(scope="module")
def toy_params():
    # W = 6, R_1 ~ 14.45 so the medium primes are {5, 7, 11, 13}
    return SieveParams(x=10**4, K=1, w=3, a=1, c=0.29, gamma=1.0,
                       T_exponent=0.5, A=2.0, k_max=20)


@pytest.fixture(scope="module")
def toy_table(toy_params, spec):
    return build_weight_table(toy_params, spec)


# --- oracles ---

def trial_factor(m: int) -> dict:
    fs = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            fs[d] = fs.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fs[m] = fs.get(m, 0) + 1
    return fs


def nu_unpruned_oracle(n, params, spec):
    """Direct weight: every squarefree w-rough divisor of n+k, no size cut.

    eta_tilde vanishes from 1 on, so divisors at or beyond R_k drop out on
    their own; this is the unpruned side of the pruning invariant.
    """
    if n % params.W:
        return 0.0
    value = 1.0
    for k in range(1, params.K + 1):
        primes = sorted(p for p in trial_factor(n + k) if p > params.w)
        log_r = math.log(params.R(k))
        inner = 1.0
        for mask in range(1, 1 << len(primes)):
            d = 1
            bits = 0
            for i, p in enumerate(primes):
                if mask >> i & 1:
                    d *= p
                    bits += 1
            coef = float(eta_tilde(math.log(d) / log_r, spec))
            inner += -coef if bits % 2 else coef
        value *= inner * inner
    return value


# --- toy windows ---

def test_single_shift_coprime_weight_is_one(spec):
    params = SieveParams(x=10**4, K=1, w=2, a=1, c=0.25, gamma=1.0,
                         T_exponent=0.5, A=2.0, k_max=10)
    assert params.R(1) == pytest.approx(10.0)
    table = build_weight_table(params, spec)
    n = next(n for n in table.support
             if all((n + 1) % q for q in (3, 5, 7)))
    assert table.nu_of(n) == 1.0


def test_single_shift_single_prime_factor(spec):
    params = SieveParams(x=10**4, K=1, w=2, a=1, c=0.25, gamma=1.0,
                         T_exponent=0.5, A=2.0, k_max=10)
    table = build_weight_table(params, spec)
    n = next(n for n in table.support
             if (n + 1) % 3 == 0 and (n + 1) % 5 and (n + 1) % 7
             and (n + 1) % 9)
    want = (1.0 - float(eta_tilde(math.log(3) / math.log(10), spec))) ** 2
    assert table.nu_of(n) == pytest.approx(want, rel=1e-12)


def test_support_is_multiples_of_w_primorial(toy_table):
    assert toy_table.params.W == 6
    assert {n % 6 for n in toy_table.support} == {0}
    assert toy_table.support[0] >= toy_table.params.x
    assert toy_table.support[-1] <= 2 * toy_table.params.x


def test_degenerate_schedule_gives_uniform_measure(spec):
    params = SieveParams(x=10**4, K=2, w=5, a=1, c=1e-9, gamma=1.0,
                         T_exponent=0.5, A=2.0, k_max=10)
    table = build_weight_table(params, spec)
    assert empty_medium_shifts(table.params) == (1, 2)
    assert bool((table.nu == 1.0).all())
    assert table.total == float(len(table.support))


# --- pruning, normalization, exactness ---

def test_pruned_vs_unpruned_on_random_support_points(toy_table, toy_params, spec):
    rng = random.Random(17)
    pts = rng.sample(toy_table.support, 100)
    for n in pts:
        pruned = nu_exact(n, toy_params, spec)
        unpruned = nu_unpruned_oracle(n, toy_params, spec)
        assert pruned == pytest.approx(unpruned, rel=1e-10, abs=1e-14)
        assert toy_table.nu_of(n) == pytest.approx(unpruned, rel=1e-10, abs=1e-14)


def test_normalization_drift_below_1e12(toy_table):
    drift = abs(math.fsum((toy_table.nu / toy_table.total).tolist()) - 1.0)
    assert drift <= 1e-12


@pytest.fixture(scope="module")
def kernel_tables(toy_table, spec):
    # a second bundle with two sieved shifts: R_1 ~ 15.8 (medium {7, 11, 13}),
    # R_2 ~ 11.08 (medium {7, 11}, where d = 7 carries weight ~1e-3)
    two = SieveParams(x=10**6, K=2, w=5, a=1, c=0.2, gamma=0.2,
                      T_exponent=0.5, A=2.0, k_max=20)
    return [toy_table, build_weight_table(two, spec)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_weight_kernel_on_support_slices(kernel_tables, data):
    table = data.draw(st.sampled_from(kernel_tables))
    size = len(table.support)
    lo = data.draw(st.integers(0, size - 1))
    hi = data.draw(st.integers(lo + 1, min(size, lo + 150)))
    got = weights_at(table.support[lo:hi], table.params.W,
                     shift_terms(table.params, table.spec))
    assert got.tobytes() == table.nu[lo:hi].tobytes()
    for n, v in zip(table.support[lo:hi], got.tolist()):
        ref = nu_exact(n, table.params, table.spec)
        assert abs(v - ref) <= 1e-12 * abs(ref)


# a modulus m = p^j * cofactor with p <= 7 shares p^min(j, a) with W, as the
# tiny range and the power range's p^(a+1), p^(a+2), ... do
moduli = st.one_of(
    st.builds(lambda p, j, c: p**j * c, st.sampled_from([2, 3, 5, 7]),
              st.integers(0, 6), st.integers(1, 200)),
    st.integers(1, 10**6),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(primorial=st.sampled_from([1, 2, 6, 30, 210]), a=st.integers(1, 3),
       q=st.integers(0, 10**6), offset=st.one_of(st.just(0), st.integers(0, 10**4)),
       length=st.one_of(st.sampled_from([0, 1]), st.integers(2, 600)),
       k=st.integers(1, 3000), m=moduli)
@example(primorial=210, a=1, q=5, offset=0, length=0, k=1, m=11)
@example(primorial=210, a=1, q=5, offset=0, length=1, k=1, m=11)
@example(primorial=30, a=2, q=3, offset=0, length=50, k=1, m=8)  # 8 | n+1: no n
@example(primorial=6, a=1, q=9, offset=0, length=80, k=3, m=9)  # power range 3^2
@example(primorial=2, a=3, q=1, offset=0, length=200, k=40, m=7)  # k >= m
@example(primorial=1, a=1, q=100, offset=0, length=300, k=1, m=1)
def test_hits_match_the_mask(primorial, a, q, offset, length, k, m):
    # the strided slice picks exactly the points the mask picks, in order
    W = primorial**a
    points = np.arange(length, dtype=np.int64) * W + (q * W + offset)
    ix = _hits(q * W + offset, W, k, m)
    assert isinstance(ix, slice)
    want = np.flatnonzero(points % m == -k % m)
    assert np.array_equal(np.arange(length)[ix], want)


def test_total_is_sum_of_pointwise_weights(toy_table, toy_params, spec):
    direct = math.fsum(nu_exact(int(n), toy_params, spec)
                       for n in toy_table.support[:500])
    table_part = math.fsum(toy_table.nu[:500].tolist())
    assert direct == pytest.approx(table_part, rel=1e-10)


def test_nu_outside_window_raises_and_nu_of_is_zero(toy_table, toy_params, spec):
    with pytest.raises(ValueError):
        nu_exact(toy_params.x - 6, toy_params, spec)
    assert toy_table.nu_of(toy_params.x - 6) == 0.0
    assert toy_table.nu_of(toy_table.support[0] + 1) == 0.0


def test_exact_rational_mode_matches_float_total(toy_table):
    exact_nu, exact_total = exact_weights(toy_table)
    rel = abs(float(exact_total) - toy_table.total) / toy_table.total
    assert rel <= 1e-9
    n = int(toy_table.support[3])
    assert float(exact_nu[n]) == pytest.approx(toy_table.nu_of(n), abs=1e-9)


def test_exact_mode_rejects_large_windows(spec):
    params = SieveParams(x=2 * 10**4, K=1, w=3, a=1, c=0.25, gamma=1.0,
                         T_exponent=0.5, A=2.0, k_max=10)
    table = build_weight_table(params, spec)
    with pytest.raises(ValueError):
        exact_weights(table)


def test_empty_support_fails_loudly(spec):
    fake = SimpleNamespace(x=10, W=210)
    with pytest.raises(ValueError, match="no multiple of W=210"):
        build_weight_table(fake, spec)


# --- probabilities and sampling ---

def test_prob_divides_unit_modulus(toy_table):
    assert prob_divides(1, 3, toy_table) == 1.0


def test_tiny_prime_rigidity_is_exact(toy_table):
    assert tiny_prime_rigidity(toy_table, k_hi=20) == 0.0


def test_prob_divides_against_hand_count(toy_table):
    d, k = 11, 1
    mask = (np.array(toy_table.support) + k) % d == 0
    want = math.fsum(toy_table.nu[mask].tolist()) / toy_table.total
    assert prob_divides(d, k, toy_table) == want


def test_exact_sums_make_no_per_point_objects(spec):
    # 166,667 support points; a list of their floats takes 32 bytes a point
    params = SieveParams(x=10**6, K=1, w=3, a=1, c=0.29, gamma=1.0,
                         T_exponent=0.5, A=2.0, k_max=20)
    table = build_weight_table(params, spec)
    n = len(table.support)
    again, peak = traced_peak(WeightTable, params, spec, table.support, table.nu)
    assert again.total == math.fsum(table.nu.tolist()) and peak < n
    for d, k in ((2, 2), (5, 1), (11, 3)):
        got, peak = traced_peak(prob_divides, d, k, table)
        want = math.fsum(table.nu[(np.array(table.support) + k) % d == 0].tolist()) / table.total
        assert got == want and peak < n, (d, k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1e300, 1e300), max_size=64), st.integers(0, 5), st.integers(1, 4))
def test_fsum_of_memoryview_is_fsum_of_list(values, start, step):
    a = np.array(values, dtype=np.float64)
    for view in (a, a[start::step], a[::-step]):
        assert math.fsum(memoryview(view)).hex() == math.fsum(view.tolist()).hex()


def test_monte_carlo_frequencies_within_three_sigma(toy_table):
    draws = sample(toy_table, seed=90210, count=10**5)
    tuples = [(5, 1), (7, 1), (7, 3), (11, 2), (13, 1),
              (35, 1), (55, 2), (65, 1), (77, 3), (143, 2)]
    for d, k in tuples:
        exact = prob_divides(d, k, toy_table)
        freq = float(((draws + k) % d == 0).mean())
        sigma = math.sqrt(exact * (1 - exact) / len(draws))
        assert abs(freq - exact) <= 3 * sigma, (d, k, exact, freq)


def test_sampling_is_deterministic_and_in_support(toy_table):
    a = sample(toy_table, seed=7, count=4096)
    b = sample(toy_table, seed=7, count=4096)
    assert (a == b).all()
    assert np.isin(a, toy_table.support).all()
    assert (sample(toy_table, seed=8, count=4096) != a).any()


def sample_oracle(table, seed, count):
    """The one-shot inverse-CDF draw: one generator call for every uniform,
    scaled by the last value of one cumsum of the whole support."""
    cum = np.cumsum(table.nu)
    u = np.random.Generator(np.random.PCG64(seed)).random(count) * cum[-1]
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    return np.array(table.support)[idx]


@pytest.fixture(scope="module")
def sample_tables(toy_table, spec):
    # the toy and RECORD bundles, and the toy weights with runs of zero weight
    # at both ends and inside, each longer than any walk block the test sets
    nu = toy_table.nu.copy()
    nu[:40] = nu[100:300] = nu[-50:] = 0.0
    return {"toy": toy_table,
            "record": build_weight_table(parse_params(RECORD_PARAMS_TEXT), spec),
            "zero-runs": WeightTable(toy_table.params, spec, toy_table.support, nu)}


@pytest.mark.parametrize("walk_block", [8, 24])
@pytest.mark.parametrize("draw_block", [8, 24])
@pytest.mark.parametrize("which", ["toy", "record", "zero-runs"])
def test_sample_matches_one_shot_inverse_cdf(which, draw_block, walk_block, sample_tables,
                                             monkeypatch):
    # blocks of 8 and 24 make every draw cross many draw and walk blocks; the
    # goldens' supports fit in one walk block of the default size
    monkeypatch.setattr(sieve_measure, "DRAW_BLOCK", draw_block)
    monkeypatch.setattr(sieve_measure, "WALK_BLOCK", walk_block)
    table = sample_tables[which]
    for seed, count in ((0, 1000), (5, 999), (2805, 7), (1, 1)):
        got = sample(table, seed, count)
        assert got.dtype == np.int64
        assert np.array_equal(got, sample_oracle(table, seed, count)), (seed, count)


@pytest.mark.parametrize("walk_block", [8, 24])
def test_inverse_cdf_at_block_ends(walk_block, toy_table, monkeypatch):
    # a u equal to a cumulative value goes right of it (side="right"), also
    # where that value ends a walk block or a run of zero weight; a u at the
    # total is clamped to the last point
    monkeypatch.setattr(sieve_measure, "WALK_BLOCK", walk_block)
    runs = np.array([0.0] * 8 + [1.0] * 8 + [0.0] * 8 + [1.0] * 4 + [0.0] * 3)
    for nu in (np.ones(20), runs, toy_table.nu):
        cum = np.cumsum(nu)
        ends = walk_ends(nu)
        assert ends.tobytes() == cum[walk_block - 1::walk_block].tobytes() + (
            cum[-1:].tobytes() if len(nu) % walk_block else b"")
        u = np.concatenate([ends, cum[::3], [0.0, np.nextafter(cum[-1], 0.0)]])
        want = np.minimum(np.searchsorted(cum, u, side="right"), len(nu) - 1)
        assert np.array_equal(inverse_cdf(nu, ends, u), want)


def decades(n, seed):
    """n positive floats spread over 16 decades."""
    return 10.0 ** np.random.default_rng(seed).uniform(-8.0, 8.0, n)


@pytest.mark.parametrize("n, size", [(10**5, 1), (3 * 10**6, 7), (3 * 10**6, 8192),
                                     (3 * 10**6, 250_007)])
def test_carried_cumsum_and_chained_fsum_equal_one_call(n, size):
    # numpy's add.accumulate adds left to right on this build: if one ever sums
    # in another order, the carried cumsum (weights.csv, sample) fails here
    values = decades(n, size)
    cum = np.empty(n)
    carry = -0.0
    for lo in range(0, n, size):
        cum[lo:lo + size] = part = carried_cumsum(values[lo:lo + size], carry)
        carry = part[-1]
    assert np.array_equal(cum.view(np.int64), np.cumsum(values).view(np.int64))
    # fsum rounds once, so chained parts give the one call's float; the parts
    # of a resumed checkpoint are unaligned "<f8" views of its body
    whole = math.fsum(memoryview(values))
    body = b"\0" + values.tobytes()
    assert total_mass(values[lo:lo + size] for lo in range(0, n, size)) == whole
    assert total_mass(np.frombuffer(body, "<f8", len(values[lo:lo + size]), 1 + 8 * lo)
                      for lo in range(0, n, size)) == whole


def test_total_mass_refuses_zero():
    with pytest.raises(ValueError, match="total mass is zero"):
        total_mass([np.zeros(3), np.zeros(0)])


# --- parameter files ---

def test_parse_params_defaults_and_comments():
    params = parse_params("# schedule\nx = 20000\nw = 5  # keep W small\nc = 0.2\n")
    assert params.x == 20000 and params.w == 5 and params.c == 0.2
    assert params.K == 4 and params.gamma == 3.0 and params.k_max == 100


def test_parse_params_rejects_unknown_and_malformed():
    with pytest.raises(ValueError, match="unknown parameter"):
        parse_params("xx = 3\n")
    with pytest.raises(ValueError, match="bad value"):
        parse_params("x = fish\n")
    with pytest.raises(ValueError, match="malformed parameter line"):
        parse_params("x 20000")


def test_params_validation():
    with pytest.raises(ValueError, match="K < w"):
        SieveParams(x=10**4, K=5, w=3, a=1, c=0.2, gamma=1.0,
                    T_exponent=0.5, A=2.0, k_max=10)
    with pytest.raises(ValueError, match="infeasible"):
        SieveParams(x=100, K=1, w=7, a=1, c=0.3, gamma=1.0,
                    T_exponent=0.5, A=2.0, k_max=10)
    with pytest.raises(ValueError):
        SieveParams(x=10**4, K=1, w=3, a=0, c=0.2, gamma=1.0,
                    T_exponent=0.5, A=2.0, k_max=10)


def test_default_parameter_bundle_is_feasible():
    params = parse_params("")
    assert params.x == 10**7 and params.K == 4 and params.w == 7
    assert params.theta < 1.0
    # x^0.1 ~ 5.0 sits below w = 7, so every default shift clamps to the
    # trivial level and the default measure is uniform on multiples of W
    assert all(r == params.w for r in params.R_values)


# --- axiom reports ---

def test_axiom_a_exact_on_support(toy_table):
    report = axiom_check("A", toy_table)
    assert report.passed and report.detail["support_size"] == len(toy_table.support)


def test_axiom_a_checks_first_point_last_point_and_step(toy_table, spec):
    sup, nu = toy_table.support, toy_table.nu
    for part, weights in ((sup[1:], nu[1:]), (sup[:-1], nu[:-1]), (sup[::2], nu[::2])):
        report = axiom_check("A", WeightTable(toy_table.params, spec, part, weights))
        assert not report.passed and report.detail["support_size"] == len(part)


def test_axiom_b_empty_tuple_ratio_is_one(toy_table):
    report = axiom_check("B", toy_table, s=0)
    assert report.detail["sup_ratio"] == 1.0


def test_axiom_b_ratio_finite(toy_table):
    report = axiom_check("B", toy_table, s=2, budget=200, seed=4)
    assert 0 < report.detail["sup_ratio"] < 10.0
    assert report.detail["tuples"] == 200


def test_axiom_c_budget_truncation_flag(toy_table):
    full = axiom_check("C", toy_table, s=2, budget=1000, seed=0)
    cut = axiom_check("C", toy_table, s=2, budget=2, seed=0)
    assert not full.truncated and cut.truncated
    assert full.detail["tuples"] == 6  # C(4 medium primes, 2)
    assert full.detail["c3_fit"] is None or full.detail["c3_fit"] > 0


def test_axiom_d_prime_power_reduction_small(toy_table):
    report = axiom_check("D", toy_table, budget=30, seed=9)
    assert report.detail["tuples"] >= 6
    assert report.detail["max_deviation"] <= 5e-3


def test_axiom_d_requires_admissible_prime_powers(spec):
    params = SieveParams(x=10**4, K=1, w=5, a=1, c=1e-6, gamma=1.0,
                         T_exponent=0.3, A=2.0, k_max=10)
    table = build_weight_table(params, spec)
    with pytest.raises(ValueError, match="T_exponent"):
        axiom_check("D", table, budget=10)


def test_axiom_unknown_name_rejected(toy_table):
    with pytest.raises(ValueError):
        axiom_check("E", toy_table)
