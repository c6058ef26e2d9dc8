"""The package's one prime sieve (primes_upto), prime tables, exact
factorization of single integers, windowed omega/Omega counts over
contiguous windows via a strided prime-power sieve, and a binary dump format
for prime tables.

Everything in this module stays machine-word sized (n <= 2**63 - 1).  Exact
big-integer work lives in moments_concentration, on top of the factorizations
and counts produced here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import TableTooSmallError

WORD_MAX = 2**63 - 1

# Full spf arrays beyond this are memory-budgeted out; larger n are handled by
# trial division / segmented sieving with primes <= sqrt(n).
TABLE_LIMIT_MAX = 10**8

PRIME_TABLE_MAGIC = b"RLPT1"


@dataclass(frozen=True)
class PrimeTable:
    """Primes up to `limit` plus a smallest-prime-factor array.

    spf[n] is the smallest prime factor of n for 2 <= n <= limit; spf[0] and
    spf[1] are 0.  Immutable; safe to share across workers.
    """

    limit: int
    primes: np.ndarray
    spf: np.ndarray


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
    # mark composites with their smallest prime factor: smaller primes mark first
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in primes[: np.searchsorted(primes, isqrt(limit), side="right")].tolist():
        block = spf[p * p :: p]
        block[block == 0] = p
    spf[primes] = primes
    spf.setflags(write=False)
    primes.setflags(write=False)
    return PrimeTable(limit=limit, primes=primes, spf=spf)


def _check_n(n: int) -> None:
    if n == 0:
        raise ValueError("n must be >= 1")
    if n < 0 or n > WORD_MAX:
        raise ValueError("n outside machine-word range")


def _prime_powers(n: int, table: PrimeTable):
    """Yield (prime, exponent) pairs of n in increasing prime order."""
    if n <= table.limit:
        spf = table.spf
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        return
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
    indexed by n - lo.  Immutable; parallel readers are safe.
    """

    lo: int
    hi: int
    omega: np.ndarray
    big_omega: np.ndarray


WINDOW_WIDTH_MAX = 10**7


def factor_window(lo: int, hi: int, table: PrimeTable) -> WindowOmega:
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
    if table.limit * table.limit < hi:
        raise TableTooSmallError(
            f"window up to {hi} needs primes up to {isqrt(hi)}, table limit is {table.limit}"
        )
    width = hi - lo + 1
    residual = np.arange(lo, hi + 1, dtype=np.int64)
    om = np.zeros(width, dtype=np.int16)
    bom = np.zeros(width, dtype=np.int16)
    n_small = int(np.searchsorted(table.primes, isqrt(hi), side="right"))
    for p in table.primes[:n_small].tolist():
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


def dump_prime_table(table: PrimeTable, path) -> None:
    """Binary dump: magic "RLPT1", little-endian u64 limit/count, u64 prime list."""
    with open(path, "wb") as fh:
        fh.write(PRIME_TABLE_MAGIC)
        fh.write(struct.pack("<QQ", table.limit, len(table.primes)))
        fh.write(table.primes.astype("<u8").tobytes())


def load_prime_table(path) -> PrimeTable:
    """Rebuild the table a dump describes; a dump whose prime list differs
    from the rebuilt one is refused."""
    with open(path, "rb") as fh:
        magic = fh.read(len(PRIME_TABLE_MAGIC))
        if magic != PRIME_TABLE_MAGIC:
            raise ValueError("not a prime table dump (bad magic)")
        head = fh.read(16)
        if len(head) != 16:
            raise ValueError("prime table dump is corrupt")
        limit, count = struct.unpack("<QQ", head)
        primes = np.frombuffer(fh.read(8 * count), dtype="<u8")
    table = build_prime_table(limit)
    if not np.array_equal(primes, table.primes):
        raise ValueError("prime table dump is corrupt")
    return table
