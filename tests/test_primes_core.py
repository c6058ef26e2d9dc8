import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from roughn_lab.primes_core import (
    TABLE_LIMIT_MAX,
    build_prime_table,
    factor_window,
    factorize,
    primes_upto,
)


# --- independent oracle: naive trial division, no tables ---

def trial_factorize(n):
    fs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            fs.append((d, e))
        d += 1
    if n > 1:
        fs.append((n, 1))
    return tuple(fs)


TABLE = build_prime_table(2 * 10**5)


def test_table_small_cases():
    t = build_prime_table(10)
    assert t.tolist() == [2, 3, 5, 7]
    assert t.dtype == np.int64 and not t.flags.writeable
    assert build_prime_table(2).tolist() == [2]


def test_table_prime_count_100():
    # frozen from the trial-division oracle
    assert len([p for p in range(2, 101) if trial_factorize(p) == ((p, 1),)]) == 25
    assert len(build_prime_table(100)) == 25


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(-2, 20000))
def test_primes_upto_matches_sympy(n):
    assert primes_upto(n) == tuple(sympy.primerange(max(n + 1, 0)))


def test_primes_upto_matches_sympy_at_1e6():
    assert primes_upto(10**6) == tuple(sympy.primerange(10**6 + 1))


def test_table_invariants():
    assert np.all(np.diff(TABLE) > 0)
    assert TABLE[TABLE < 2000].tolist() == [
        n for n in range(2, 2000) if trial_factorize(n) == ((n, 1),)]


def test_table_rejects_bad_limit():
    with pytest.raises(ValueError):
        build_prime_table(1)
    with pytest.raises(ValueError, match="memory budget"):
        build_prime_table(TABLE_LIMIT_MAX + 1)


def test_factorize_matches_oracle_below_1e5():
    for n in range(1, 10**5 + 1, 17):
        f = factorize(n)
        assert f == trial_factorize(n) if n > 1 else f == ()
        prod = 1
        for p, e in f:
            prod *= p**e
        assert prod == n
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))


def test_factorize_large_candidate():
    # 9999991 is prime; trial division runs over every prime up to its isqrt
    expected = trial_factorize(9999991)
    assert factorize(9999991) == expected


def test_factorize_errors():
    for n in (0, -1, 2**63):
        with pytest.raises(ValueError):
            factorize(n)


def test_factorization_methods():
    f = factorize(360)
    assert f == ((2, 3), (3, 2), (5, 1))
    assert sum(e for _, e in f) == 6


def assert_window_matches(wf, lo, hi, factors_of):
    """omega/Omega of every n in [lo, hi] against a per-n factorization oracle."""
    assert (wf.lo, wf.hi) == (lo, hi)
    assert len(wf.omega) == len(wf.big_omega) == hi - lo + 1
    for n in range(lo, hi + 1):
        fs = factors_of(n)
        assert wf.omega[n - lo] == len(fs), n
        assert wf.big_omega[n - lo] == sum(e for _, e in fs), n


def test_factor_window_consistency():
    assert_window_matches(factor_window(10, 20), 10, 20, factorize)
    assert_window_matches(factor_window(2, 2), 2, 2, trial_factorize)


def test_factor_window_big_omega_oracle():
    lo, hi = 10**6, 10**6 + 10**3
    assert_window_matches(factor_window(lo, hi), lo, hi, trial_factorize)


def test_factor_window_random_windows():
    rng = random.Random(123)
    for _ in range(40):
        lo = rng.randrange(2, 4 * 10**4)
        hi = lo + rng.randrange(0, 10**3)
        assert_window_matches(factor_window(lo, hi), lo, hi, factorize)


# windows reach 4e10, so the sieve runs over primes up to 2e5, as many as TABLE holds
WINDOW_TOP = 4 * 10**10


@st.composite
def windows(draw):
    """(lo, hi) windows, biased toward the sieve's edge cases: windows from 2,
    width-1 windows, windows narrower than their primes, and prime powers on
    either edge."""
    width = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["anywhere", "from_two", "power_at_lo", "power_at_hi"]))
    if kind == "anywhere":
        lo = draw(st.integers(2, WINDOW_TOP - width))
    elif kind == "from_two":
        lo = 2
    else:
        p = draw(st.sampled_from(TABLE[:2000].tolist()))
        e_max = 1
        while p ** (e_max + 1) <= WINDOW_TOP - width:
            e_max += 1
        e = draw(st.integers(1, e_max))
        lo = p**e if kind == "power_at_lo" else max(2, p**e - width)
    return lo, lo + width


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(windows())
def test_factor_window_matches_sympy_factorint(window):
    lo, hi = window
    wf = factor_window(lo, hi)
    factored = [sympy.factorint(n) for n in range(lo, hi + 1)]
    assert wf.omega.tolist() == [len(f) for f in factored]
    assert wf.big_omega.tolist() == [sum(f.values()) for f in factored]


def test_factor_window_errors():
    with pytest.raises(ValueError):
        factor_window(1, 5)

