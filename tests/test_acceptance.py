"""Acceptance suite.

One test per acceptance criterion, numbered 01 through 12; running this
file with -v prints one pass/fail line per criterion.  Tolerances and
runtime budgets are stated inline next to each assertion.  One more test
recomputes criterion 08's stated false-failure rate.
"""

import json
import math
import time

import numpy as np
import pytest
from checkpoint_helpers import checkpoint_roundtrip

from roughn_lab import cli_harness as ch
from roughn_lab.bump_functions import c0_compute, make_bump
from roughn_lab.cramer_models import CramerConfig, count_pi_k, simulate_gaps
from roughn_lab.moments_concentration import (
    build_stirling_table,
    partition_sum_G,
    rho_r_maximize,
)
from roughn_lab.primes_core import primes_between
from roughn_lab.sieve_measure import (
    SieveParams,
    axiom_check,
    build_weight_table,
    prob_divides,
    sample,
)

TOY_PARAMS_TEXT = """\
x = 10000
K = 1
w = 3
a = 1
c = 0.29
gamma = 1.0
T_exponent = 0.5
A = 2.0
k_max = 20
"""

RECORD_PARAMS_TEXT = """\
x = 1000000
K = 1
w = 7
a = 1
c = 0.25
gamma = 1.0
T_exponent = 0.5
A = 2.0
k_max = 100
"""


@pytest.fixture(scope="module")
def spec():
    return make_bump(grid_points=1025, t_points=801, t_max=60.0)


@pytest.fixture(scope="module")
def toy_table(spec):
    params = SieveParams(x=10**4, K=1, w=3, a=1, c=0.29, gamma=1.0,
                         T_exponent=0.5, A=2.0, k_max=20)
    return build_weight_table(params, spec)


@pytest.fixture(scope="module")
def wide_table(spec):
    # window [x, 2x] holds 500001 integers, inside the 10^6 enumeration cap
    params = SieveParams(x=5 * 10**5, K=1, w=3, a=1, c=0.29, gamma=1.0,
                         T_exponent=0.5, A=2.0, k_max=20)
    return build_weight_table(params, spec)


def test_criterion_01_c0_dual_route_agreement():
    t0 = time.perf_counter()
    res = c0_compute(make_bump())
    elapsed = time.perf_counter() - t0
    rel = abs(res.c0_time - res.c0_freq) / abs(res.c0_time)
    assert rel <= 1e-6
    assert res.c0_time >= 1.0 - 1e-9
    assert elapsed <= 30.0
    print(f"criterion 01 PASS: rel={rel:.3e}, c0={res.c0_time:.12f}, "
          f"{elapsed:.1f}s")


def test_criterion_02_axiom_a_every_sample_divisible(toy_table):
    t0 = time.perf_counter()
    draws = sample(toy_table, seed=2026, count=10**5)
    divisible = np.all(draws % toy_table.params.W == 0)
    elapsed = time.perf_counter() - t0
    assert len(draws) == 10**5
    assert bool(divisible) is True
    assert elapsed <= 60.0
    print(f"criterion 02 PASS: 10^5 samples, all divisible by "
          f"{toy_table.params.W}, {elapsed:.1f}s")


def test_criterion_03_axiom_d_prime_power_factorization(wide_table):
    rep = axiom_check("D", wide_table, budget=20, seed=20)
    rows = rep.detail["rows"]
    assert len(rows) == 20
    assert rep.detail["max_deviation"] <= 1e-3
    assert rep.passed is True
    print(f"criterion 03 PASS: 20 triples, max deviation "
          f"{rep.detail['max_deviation']:.3e} <= 1e-3")


def test_criterion_04_tiny_prime_rigidity_exact(toy_table, wide_table):
    for table in (toy_table, wide_table):
        # d = 1 divides every n + k: prob_divides reads it through _hits too
        for p in (1, *primes_between(1, table.params.w)):
            for k in range(1, table.params.k_max + 1):
                assert prob_divides(p, k, table) == (k % p == 0)
    print("criterion 04 PASS: P(p|n+k) = [p|k] exactly, both tables")


def test_criterion_05_stirling_suite_exact():
    t0 = time.perf_counter()
    rows = build_stirling_table()[:24]

    def stirling2(s, t):
        return rows[s - 1][t - 1]

    assert stirling2(4, 2) == 7
    for s in range(2, 25):
        # boundary columns absorb the {s-1, 0} = 0 and {s-1, s} = 0 terms
        assert stirling2(s, 1) == stirling2(s - 1, 1)
        assert stirling2(s, s) == stirling2(s - 1, s - 1)
        for t in range(2, s):
            assert stirling2(s, t) == t * stirling2(s - 1, t) + stirling2(s - 1, t - 1)
    for s in range(1, 7):
        for m in range(2 * s, 25):
            # sum_j {2s, j} m!/(m-j)! == m^(2s)
            assert sum(stirling2(2 * s, j) * math.perm(m, j)
                       for j in range(1, 2 * s + 1)) == m ** (2 * s)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1.0
    print(f"criterion 05 PASS: recurrence, {{4,2}}=7, identity s<=6 m<=24, "
          f"{elapsed:.2f}s")


def test_criterion_06_partition_sum_dual_route():
    from fractions import Fraction
    for s3 in range(1, 9):
        for R in (10, 100, 1000):
            value = partition_sum_G(s3, R)
            assert value > 0
    # spot anchors on top of the internal enumeration-vs-EGF agreement check
    assert abs(partition_sum_G(1, 10) - float(Fraction(8, 10))) <= 1e-12
    anchor = float(Fraction(32, 1000) + Fraction(64, 100))
    assert abs(partition_sum_G(2, 10) - anchor) <= 1e-12
    print("criterion 06 PASS: enumeration vs EGF for s3<=8, R in {10,100,1000}")


def test_criterion_07_simplex_maximizer_is_uniform():
    for r in (2, 3, 4):
        rep = rho_r_maximize(r, grid=1000)
        assert rep.uniform_distance <= 2e-3, (r, rep.argmax)
    print("criterion 07 PASS: grid-1000 argmax within 2e-3 of uniform, r=2,3,4")


def test_criterion_08_monte_carlo_consistency(toy_table):
    """At least 9 of 10 divisibility tuples within 3 sigma over 10^5 draws.

    Taking each tuple's frequency as normal about its exact probability and
    the ten tuples as independent, a tuple lands within 3 sigma with
    probability p = erf(3/sqrt(2)), so a correct sampler fails this check
    with probability 1 - P(Bin(10, p) >= 9), about 3.2e-04.
    """
    tuples = [(5, 1), (7, 1), (7, 3), (11, 2), (13, 1),
              (35, 1), (55, 2), (65, 1), (77, 3), (143, 2)]
    draws = sample(toy_table, seed=90210, count=10**5)
    passing = 0
    for d, k in tuples:
        exact = prob_divides(d, k, toy_table)
        freq = float(((draws + k) % d == 0).mean())
        sigma = math.sqrt(exact * (1.0 - exact) / len(draws))
        if abs(freq - exact) <= 3.0 * sigma:
            passing += 1
    assert passing >= 9
    print(f"criterion 08 PASS: {passing}/10 tuples within 3 sigma")


def test_criterion_08_false_failure_rate():
    p = math.erf(3 / math.sqrt(2))
    rate = 1 - sum(math.comb(10, j) * p**j * (1 - p) ** (10 - j) for j in (9, 10))
    assert f"about {rate:.1e}." in test_criterion_08_monte_carlo_consistency.__doc__


def test_criterion_09_record_search_sampler_near_optimal(tmp_path):
    t0 = time.perf_counter()
    params_file = tmp_path / "record.params"
    params_file.write_text(RECORD_PARAMS_TEXT)
    rc = ch.main(["record-search", "--params", str(params_file),
                  "--out", str(tmp_path), "--seed", "0"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    rep = json.loads((tmp_path / "record_search.json").read_text())
    ratio = rep["value_ratio_sampled_over_exhaustive"]
    assert ratio <= 1.05
    assert rep["k_max"] == 100
    assert elapsed <= 600.0
    print(f"criterion 09 PASS: sampled/exhaustive = {ratio:.4f} <= 1.05, "
          f"witness {rep['sampled']['witness']}, {elapsed:.0f}s")


def test_criterion_10_cramer_gap_ratios():
    config = CramerConfig(rate="log", N=10**5, trials=100, seed=0)
    rep = simulate_gaps(config)
    good = sum(1 for m in rep.max_ratios if not math.isnan(m) and m <= 1.5)
    assert good >= 90
    print(f"criterion 10 PASS: {good}/100 trials with max ratio <= 1.5")


def test_criterion_11_pi_k_partition_identity():
    for x in (10**3, 10**4, 10**5, 10**6):
        total = sum(count_pi_k(x, k) for k in range(1, 12))
        assert total == x - 1, x
    # enumeration oracle for pi_2(30): count n <= 30 with omega(n) = 2
    two = 0
    for n in range(2, 31):
        m, omega, p = n, 0, 2
        while p * p <= m:
            if m % p == 0:
                omega += 1
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            omega += 1
        two += omega == 2
    assert two == 12
    assert count_pi_k(30, 2) == 12
    print("criterion 11 PASS: partition identity at 10^3..10^6, pi_2(30)=12")


def test_criterion_12_deterministic_reports(tmp_path):
    params_file = tmp_path / "toy.params"
    params_file.write_text(TOY_PARAMS_TEXT)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    for d in (d1, d2):
        assert ch.main(["sample", "--params", str(params_file),
                        "--out", str(d), "--seed", "5"]) == 0
    for name in ("samples.csv", "probs.csv", "sample_summary.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    roundtrip = checkpoint_roundtrip("sieve-scan", tmp_path / "rt",
                                     [5, 5, 5],
                                     params_path=str(params_file), seed=3)
    assert roundtrip["identical"] is True
    print("criterion 12 PASS: repeated runs and interrupt/resume byte-identical")
