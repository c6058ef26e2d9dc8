"""The package's one prime sieve (primes_upto), prime tables, exact
factorization of single integers by trial division over a table's primes,
and windowed omega/Omega counts over contiguous windows via a strided
prime-power sieve, which takes its primes p <= sqrt(hi) from primes_upto.

Everything in this module stays machine-word sized (n <= 2**63 - 1).  Exact
big-integer work lives in moments_concentration, on top of the factorizations
and counts produced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import TableTooSmallError

WORD_MAX = 2**63 - 1

# The bool sieve behind a table takes limit + 1 bytes, so tables beyond this
# are memory-budgeted out; a table of limit L serves every n <= L**2.
TABLE_LIMIT_MAX = 10**8


@dataclass(frozen=True)
class PrimeTable:
    """The primes p <= `limit`, ascending, as a read-only int64 array."""

    limit: int
    primes: np.ndarray


@dataclass(frozen=True)
class Factorization:
    n: int
    factors: tuple[tuple[int, int], ...]

    def big_omega(self) -> int:
        return sum(e for _, e in self.factors)


def _prime_array(n: int) -> np.ndarray:
    """The primes p <= n, ascending, from a bool sieve; the package's one
    prime sieve."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


@lru_cache(maxsize=32)
def primes_upto(n: int) -> tuple[int, ...]:
    """The primes p <= n, ascending, as a cached tuple of ints."""
    return tuple(_prime_array(n).tolist())


def build_prime_table(limit: int) -> PrimeTable:
    if limit < 2:
        raise ValueError("prime table limit must be >= 2")
    if limit > TABLE_LIMIT_MAX:
        raise ValueError(f"prime table limit above memory budget ({TABLE_LIMIT_MAX})")
    primes = _prime_array(limit)
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes)


def _check_n(n: int) -> None:
    if n == 0:
        raise ValueError("n must be >= 1")
    if n < 0 or n > WORD_MAX:
        raise ValueError("n outside machine-word range")


def _prime_powers(n: int, table: PrimeTable):
    """Yield (prime, exponent) pairs of n in increasing prime order, by trial
    division over the table's primes up to sqrt(n)."""
    if n > table.limit * table.limit:
        raise TableTooSmallError(
            f"factoring {n} needs primes up to {isqrt(n)}, table limit is {table.limit}"
        )
    for p in table.primes:
        p = int(p)
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
    if n > 1:
        yield n, 1


def factorize(n: int, table: PrimeTable) -> Factorization:
    _check_n(n)
    return Factorization(n=n, factors=tuple(_prime_powers(n, table)))


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
