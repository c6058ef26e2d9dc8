import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from memory_helpers import traced_peak

from math import isqrt

from roughn_lab import primes_core
from roughn_lab.primes_core import (
    TABLE_LIMIT_MAX,
    WORD_MAX,
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
    assert primes_upto(n).tolist() == list(sympy.primerange(max(n + 1, 0)))


def test_primes_upto_matches_sympy_at_1e6():
    primes = primes_upto(10**6)
    assert primes.tolist() == list(sympy.primerange(10**6 + 1))
    assert primes.dtype == np.int64 and not primes.flags.writeable


def test_odd_only_sieve_at_every_small_limit():
    primes = list(sympy.primerange(2000))
    for limit in range(2, 2000):
        got = build_prime_table(limit)
        assert got.tolist() == [p for p in primes if p <= limit], limit
        assert got.dtype == np.int64 and not got.flags.writeable


def test_primes_upto_serves_every_limit_from_one_table(monkeypatch):
    assert np.shares_memory(primes_upto(10**6), primes_upto(997))
    small = primes_upto(997)
    assert small[-1] == 997 and not small.flags.writeable
    built = []
    monkeypatch.setattr(primes_core, "build_prime_table",
                        lambda n: built.append(n) or build_prime_table(n))
    primes_upto.cache_clear()
    for n in (1000, 10, 999, 1):
        primes_upto(n)
    assert built == [1000]
    assert primes_upto(1001).tolist() == primes_upto(1000).tolist()
    assert built == [1000, 1001]


def test_table_invariants():
    assert np.all(np.diff(TABLE) > 0)
    assert TABLE[TABLE < 2000].tolist() == [
        n for n in range(2, 2000) if trial_factorize(n) == ((n, 1),)]


def test_factor_window_peak_is_four_bytes_per_integer():
    # the uint16 word and two uint8 arrays, omega and Omega written into the
    # last two; the prime table is warmed first, since it is not the window's
    lo, width = 10**9, 10**6
    primes_upto(isqrt(lo + width - 1))
    _, peak = traced_peak(factor_window, lo, lo + width - 1)
    assert peak <= 4 * width + 2**16


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


def test_factorize_two():
    # no prime is at most isqrt(2), so 2 is the cofactor the trial division leaves
    assert factorize(2) == ((2, 1),)
    assert factorize(3) == ((3, 1),)
    assert factorize(4) == ((2, 2),)


def test_factorize_at_the_word_limit_and_one_past(monkeypatch):
    # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657.  Its isqrt needs primes
    # up to 3.04e9, past the table budget, but every prime factor is below
    # 10^6, so trial division over the primes up to 10^6 factors it completely
    monkeypatch.setattr(primes_core, "primes_upto", lambda n: build_prime_table(min(n, 10**6)))
    want = ((7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1))
    assert want == tuple(sympy.factorint(2**63 - 1).items())
    assert factorize(2**63 - 1) == want
    with pytest.raises(ValueError, match="machine-word"):
        factorize(2**63)


def test_table_limit_at_the_budget_and_one_past(monkeypatch):
    # refused before the sieve is allocated
    with pytest.raises(ValueError, match="memory budget"):
        build_prime_table(10**8 + 1)
    # a sieve at the real budget takes 50 MB, so the budget is lowered to
    # test exactly at it
    monkeypatch.setattr(primes_core, "TABLE_LIMIT_MAX", 1000)
    assert build_prime_table(1000).tolist() == list(sympy.primerange(1001))
    with pytest.raises(ValueError, match="memory budget"):
        build_prime_table(1001)


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



def test_window_width_at_the_budget_and_one_past(monkeypatch):
    # refused before any array is made: a width of 10^7 + 1, and a window
    # ending one past the machine word
    with pytest.raises(ValueError, match="wider than budget"):
        factor_window(2, 10**7 + 2)
    with pytest.raises(ValueError, match="machine-word"):
        factor_window(2**63 - 10, 2**63)
    # a window at the real budget takes 40 MB, so the budget is lowered to
    # test exactly at it
    monkeypatch.setattr(primes_core, "WINDOW_WIDTH_MAX", 1000)
    assert_window_matches_sympy(10**6, 10**6 + 999)
    with pytest.raises(ValueError, match="wider than budget"):
        factor_window(10**6, 10**6 + 1000)


def assert_window_matches_sympy(lo, hi):
    wf = factor_window(lo, hi)
    factored = [sympy.factorint(n) for n in range(lo, hi + 1)]
    assert wf.omega.tolist() == [len(f) for f in factored], (lo, hi)
    assert wf.big_omega.tolist() == [sum(f.values()) for f in factored], (lo, hi)
    assert wf.omega.dtype == wf.big_omega.dtype == np.uint8


def test_factor_window_from_two_crosses_split_points():
    # windows from 2 and from small lo span many bit lengths, so many thresholds
    assert_window_matches_sympy(2, 20000)
    for lo, hi in ((3, 700), (17, 2000), (49, 51), (185, 1100), (1000, 12000)):
        assert_window_matches_sympy(lo, hi)


@pytest.mark.parametrize("e", range(2, 41))
def test_factor_window_across_a_bit_length_boundary(e):
    # the cofactor threshold 2 * n.bit_length() steps up at n = 2^e
    assert_window_matches_sympy(max(2, 2**e - 40), 2**e + 40)


def floor_log_tally(n, r):
    """sum of e * floor(4 log2 p) over the prime powers p^e || n with p <= r."""
    return sum(e * ((p**4).bit_length() - 1) for p, e in sympy.factorint(n).items() if p <= r)


def test_factor_window_at_the_threshold_margin():
    # each window holds an n = F * q, q a prime above sqrt(hi), whose tally of
    # F is one below the threshold 2 * n.bit_length(), and with rounded logs
    # would reach it
    for lo, hi, n in ((2001, 2041, 2021), (3579, 3619, 3599), (14966, 15006, 14986)):
        assert floor_log_tally(n, isqrt(hi)) == 2 * n.bit_length() - 1
        assert max(sympy.factorint(n)) > isqrt(hi)
        assert_window_matches_sympy(lo, hi)


def test_factor_window_large_windows_narrower_than_their_primes():
    rng = random.Random(11)
    for exp in range(12, 17):
        lo = rng.randrange(10**exp // 2, 10**exp - 100)
        assert_window_matches_sympy(lo, lo + 30)


@pytest.mark.parametrize("p", [1000003, 4000037, 31622743, 99999989])
def test_factor_window_square_of_a_large_prime_on_either_edge(p):
    # p is above every window's width, so its one hit and its square come
    # from the large-prime pass; p^2 ranges over 10^12 .. 10^16
    for k in (1, 2, 3):
        if k * p * p > 10**16:
            continue
        n = k * p * p
        assert_window_matches_sympy(n, n + 24)
        assert_window_matches_sympy(n - 24, n)


def test_factor_window_near_the_top_of_the_word(monkeypatch):
    """Windows ending at 2^63 - 1 and around 7 * 2^60, whose tallies reach
    249 and 251 of the low byte's 255.  Sieving them needs primes up to
    3.04e9, past the table budget, so the sieve gets the primes up to 10^6;
    the counts are then exact at every n whose primes lie below 10^6 but for
    at most one above sqrt(hi), and the test checks those."""
    monkeypatch.setattr(primes_core, "primes_upto", lambda n: build_prime_table(min(n, 10**6)))
    for lo, hi in ((WORD_MAX - 60, WORD_MAX), (7 * 2**60 - 30, 7 * 2**60 + 30)):
        wf = factor_window(lo, hi)
        checked = []
        for n in range(lo, hi + 1):
            f = sympy.factorint(n)
            if sum(p > 10**6 for p in f) == 0 or (
                    sum(p > 10**6 for p in f) == 1 and max(f) > isqrt(hi)):
                assert wf.omega[n - lo] == len(f), n
                assert wf.big_omega[n - lo] == sum(f.values()), n
                checked.append(n)
        assert len(checked) >= 5
    assert floor_log_tally(7 * 2**60, 10**6) == 251
    assert floor_log_tally(WORD_MAX, 10**6) == 249
    assert factor_window(7 * 2**60, 7 * 2**60).big_omega.tolist() == [61]
