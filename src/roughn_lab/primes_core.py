"""The package's one prime sieve (build_prime_table, under a memory budget),
the cached prime arrays it backs (primes_upto, primes_between), exact
factorization of single integers by trial division over
primes_upto(isqrt(n)), and windowed omega/Omega counts over contiguous
windows via a division-free log-tally sieve (factor_window), which takes its
primes p <= sqrt(hi) from primes_upto.

Everything in this module stays machine-word sized (n <= 2**63 - 1).  Exact
big-integer work lives in moments_concentration, on top of the factorizations
and counts produced here.  Callers that do Python-int arithmetic with primes
(products, powers) take them as ints, from primes_between or .tolist(), since
int64 would wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

WORD_MAX = 2**63 - 1

# The bool sieve takes limit + 1 bytes, so limits beyond this are
# memory-budgeted out; the primes up to L serve every n <= L**2.
TABLE_LIMIT_MAX = 10**8

_NO_PRIMES = np.zeros(0, dtype=np.int64)
_NO_PRIMES.setflags(write=False)


def build_prime_table(limit: int) -> np.ndarray:
    """The primes p <= limit, ascending, as a read-only int64 array, from a
    bool sieve; the package's one prime sieve."""
    if limit < 2:
        raise ValueError("prime table limit must be >= 2")
    if limit > TABLE_LIMIT_MAX:
        raise ValueError(f"prime table limit above memory budget ({TABLE_LIMIT_MAX})")
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve).astype(np.int64, copy=False)
    primes.setflags(write=False)
    return primes


@lru_cache(maxsize=32)
def primes_upto(n: int) -> np.ndarray:
    """The primes p <= n, ascending, as a cached read-only int64 array."""
    return build_prime_table(n) if n >= 2 else _NO_PRIMES


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes p with lo < p <= hi, ascending, as Python ints."""
    primes = primes_upto(hi)
    return primes[np.searchsorted(primes, lo, side="right"):].tolist()


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n in increasing prime order, by trial
    division over the primes up to isqrt(n), all tested in one numpy pass;
    factorize(1) is ()."""
    if n == 0:
        raise ValueError("n must be >= 1")
    if n < 0 or n > WORD_MAX:
        raise ValueError("n outside machine-word range")
    primes = primes_upto(isqrt(n))
    factors = []
    for p in primes[n % primes == 0].tolist():
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        factors.append((p, e))
    # every prime up to the original isqrt(n) is out, so what is left is 1 or prime
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


@dataclass(frozen=True)
class WindowOmega:
    """omega(n) and Omega(n) for every n in [lo, hi], as dense uint8 arrays
    indexed by n - lo (Omega(n) <= 62 for n < 2**63).  Both arrays are
    read-only.
    """

    lo: int
    hi: int
    omega: np.ndarray
    big_omega: np.ndarray


WINDOW_WIDTH_MAX = 10**7


def _split_end(a: int) -> int:
    """floor(a**(4/3)), the largest b with b**3 <= a**4, by integer Newton
    steps from above; a float power is inexact past 2**53."""
    n = a**4
    b = 1 << -(-n.bit_length() // 3)
    while (c := (2 * b + n // (b * b)) // 3) < b:
        b = c
    return b


def factor_window(lo: int, hi: int) -> WindowOmega:
    """Count prime factors over [lo, hi] with a division-free log-tally sieve.

    The window is sieved in segments [a, b] with b**3 <= a**4 (one segment
    unless lo is small; pik's [2, 10^6] takes ten), as _sieve_segment
    needs.  No integer of the window is divided.
    """
    if lo < 2 or hi < lo:
        raise ValueError("window needs 2 <= lo <= hi")
    if hi > WORD_MAX:
        raise ValueError("window end outside machine-word range")
    if hi - lo + 1 > WINDOW_WIDTH_MAX:
        raise ValueError(f"window wider than budget ({WINDOW_WIDTH_MAX})")
    om = np.empty(hi - lo + 1, dtype=np.uint8)
    bom = np.empty_like(om)
    a = lo
    while a <= hi:
        b = min(hi, _split_end(a))
        _sieve_segment(a, b, om[a - lo : b - lo + 1], bom[a - lo : b - lo + 1])
        a = b + 1
    om.setflags(write=False)
    bom.setflags(write=False)
    return WindowOmega(lo=lo, hi=hi, omega=om, big_omega=bom)


def _sieve_segment(lo: int, hi: int, om: np.ndarray, bom: np.ndarray) -> None:
    """Write omega and Omega of [lo, hi], where hi**3 <= lo**4, into om and bom.

    Every power q = p^e <= hi of a prime p <= sqrt(hi) adds lg(p) =
    floor(4 log2 p) = (p**4).bit_length() - 1 to the low byte of a uint16
    word at each of its multiples: the tally.  At e = 1 it also adds 1 to the
    word's high byte, which so counts the distinct primes found; at e >= 2 it
    adds 1 to a uint8 count of extra powers.  The primes come from one numpy
    pass, (-lo) % P < width, which keeps every p <= width and, of the larger
    ones, only the few with a multiple in the window; the Python loop runs
    over those primes and their powers alone.

    A prime cofactor is left where the tally is below B = ceil(2 log2 hi) =
    (hi*hi - 1).bit_length().  Let F be the part of n that the sieve finds.
    Each prime power in F loses less than 1 to the floor, so the tally lies
    in (4 log2 F - Omega(n), 4 log2 F].  Either the cofactor n / F is 1, so
    F = n >= lo and, as Omega(n) <= log2 hi, the tally exceeds
    4 log2 lo - log2 hi; or it is a single prime above sqrt(hi), so
    F < sqrt(hi) and the tally is below 2 log2 hi <= B.  The first bound is
    at least 2 log2 hi when hi**3 <= lo**4, and the integer tally above it
    then at least B; factor_window splits a window that starts lower.  The
    tally is at most 4 log2 hi < 252 for hi < 2**63, so it never carries
    into the high byte.
    """
    width = hi - lo + 1
    word = np.zeros(width, dtype=np.uint16)
    extra = np.zeros(width, dtype=np.uint8)
    primes = primes_upto(isqrt(hi))
    for p in primes[-lo % primes < width].tolist():
        lg = (p**4).bit_length() - 1
        word[-lo % p :: p] += lg | 1 << 8
        q = p * p
        # multiples of p^(e+1) are multiples of p^e: stop at the first empty power
        while (s := -lo % q) < width:
            word[s::q] += lg
            extra[s::q] += 1
            q *= p
    cofactor = word.astype(np.uint8) < (hi * hi - 1).bit_length()
    np.add(word >> 8, cofactor, out=om, casting="unsafe")
    np.add(om, extra, out=bom)
