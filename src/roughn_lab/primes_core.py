"""The package's one prime sieve (build_prime_table, under a memory budget),
the cached prime lists it backs (primes_upto), exact factorization of single
integers by trial division over primes_upto(isqrt(n)), and windowed
omega/Omega counts over contiguous windows via a strided prime-power sieve,
which takes its primes p <= sqrt(hi) from primes_upto.

Everything in this module stays machine-word sized (n <= 2**63 - 1).  Exact
big-integer work lives in moments_concentration, on top of the factorizations
and counts produced here.
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
def primes_upto(n: int) -> tuple[int, ...]:
    """The primes p <= n, ascending, as a cached tuple of ints."""
    return tuple(build_prime_table(n).tolist()) if n >= 2 else ()


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n in increasing prime order, by trial
    division over the primes up to isqrt(n); factorize(1) is ()."""
    if n == 0:
        raise ValueError("n must be >= 1")
    if n < 0 or n > WORD_MAX:
        raise ValueError("n outside machine-word range")
    factors = []
    for p in primes_upto(isqrt(n)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


@dataclass(frozen=True)
class WindowOmega:
    """omega(n) and Omega(n) for every n in [lo, hi], as dense int16 arrays
    indexed by n - lo.  Both arrays are read-only.
    """

    lo: int
    hi: int
    omega: np.ndarray
    big_omega: np.ndarray


WINDOW_WIDTH_MAX = 10**7


def factor_window(lo: int, hi: int) -> WindowOmega:
    """Count prime factors over [lo, hi] with a strided prime-power sieve.

    Every power q = p^e <= hi of a prime p <= sqrt(hi) divides the residual
    of each of its in-window multiples by p and adds one to Omega there (and,
    for e = 1, to omega).  The cofactor left above 1 is a single prime beyond
    sqrt(hi) and counts once more in both.
    """
    if lo < 2 or hi < lo:
        raise ValueError("window needs 2 <= lo <= hi")
    if hi > WORD_MAX:
        raise ValueError("window end outside machine-word range")
    if hi - lo + 1 > WINDOW_WIDTH_MAX:
        raise ValueError(f"window wider than budget ({WINDOW_WIDTH_MAX})")
    width = hi - lo + 1
    residual = np.arange(lo, hi + 1, dtype=np.int64)
    om = np.zeros(width, dtype=np.int16)
    bom = np.zeros(width, dtype=np.int16)
    for p in primes_upto(isqrt(hi)):
        q = p
        # multiples of p^(e+1) are multiples of p^e: stop at the first empty power
        while (s := -lo % q) < width:
            residual[s::q] //= p
            bom[s::q] += 1
            if q == p:
                om[s::q] += 1
            q *= p
    big = residual > 1
    om += big
    bom += big
    om.setflags(write=False)
    bom.setflags(write=False)
    return WindowOmega(lo=lo, hi=hi, omega=om, big_omega=bom)
