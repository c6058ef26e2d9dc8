"""The package's one prime sieve (build_prime_table, under a memory budget),
the cached prime arrays it backs (primes_upto, primes_between), exact
factorization of single integers by trial division over
primes_upto(isqrt(n)), and windowed omega/Omega counts over contiguous
windows via a division-free log-tally sieve (factor_window), one pass over
any window up to WINDOW_WIDTH_MAX wide, which takes its primes p <= sqrt(hi)
from primes_upto.

Everything in this module stays machine-word sized (n <= 2**63 - 1).  Exact
big-integer work lives in moments_concentration, on top of the factorizations
and counts produced here.  Callers that do Python-int arithmetic with primes
(products, powers) take them as ints, from primes_between or .tolist(), since
int64 would wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    bool sieve over the odd numbers; the package's one prime sieve."""
    if limit < 2:
        raise ValueError("prime table limit must be >= 2")
    if limit > TABLE_LIMIT_MAX:
        raise ValueError(f"prime table limit above memory budget ({TABLE_LIMIT_MAX})")
    # slot i stands for the odd number 2i + 1; slot 0, the number 1, stands
    # in for 2, so the one index array becomes the primes in place
    sieve = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = False
    primes = np.flatnonzero(sieve).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    primes.setflags(write=False)
    return primes


# {limit: the primes up to it} for the largest limit sieved so far, or empty;
# every smaller limit is served by a slice of that one table
_largest: dict[int, np.ndarray] = {}


def primes_upto(n: int) -> np.ndarray:
    """The primes p <= n, ascending, as a read-only int64 array: a view of
    the largest table sieved so far, which is replaced only for a larger n."""
    if n < 2:
        return _NO_PRIMES
    if n > max(_largest, default=1):
        _largest.clear()
        _largest[n] = build_prime_table(n)
    (primes,) = _largest.values()
    return primes[: np.searchsorted(primes, n, side="right")]


# drops the table, so that the next call sieves again
primes_upto.cache_clear = _largest.clear


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


def factor_window(lo: int, hi: int) -> WindowOmega:
    """Count prime factors over [lo, hi] with a division-free log-tally sieve.

    Every power q = p^e <= hi of a prime p <= sqrt(hi) adds lg(p) =
    floor(4 log2 p) = (p**4).bit_length() - 1 to the low byte of a uint16
    word at each of its multiples: the tally.  At e = 1 it also adds 1 to the
    word's high byte, which so counts the distinct primes found; at e >= 2 it
    adds 1 to a uint8 count of extra powers.  The primes come from one numpy
    pass, (-lo) % P < width, which keeps every p <= width and, of the larger
    ones, only the few with a multiple in the window; the Python loop runs
    over those primes and their powers alone.  No integer of the window is
    divided.

    A prime cofactor is left in n where the tally is below 2L, L =
    n.bit_length(); the test runs once per bit length in [lo, hi].  Let F be
    the part of n that the sieve finds.  Each prime power in F loses less
    than 1 to the floor, so the tally lies in (4 log2 F - Omega(n),
    4 log2 F].  Either F = n, and as Omega(n) <= log2 n the tally exceeds
    3 log2 n >= 3(L - 1), so the integer tally is at least 3L - 2 >= 2L
    (L >= 2 for n >= 2); or n / F is a single prime above sqrt(hi) >=
    sqrt(n), so F < sqrt(n) and the tally is below 2 log2 n < 2L.  Neither
    case bounds lo.  The tally is at most 4 log2 hi < 252 for hi < 2**63, so
    it never carries into the high byte.
    """
    if lo < 2 or hi < lo:
        raise ValueError("window needs 2 <= lo <= hi")
    if hi > WORD_MAX:
        raise ValueError("window end outside machine-word range")
    width = hi - lo + 1
    if width > WINDOW_WIDTH_MAX:
        raise ValueError(f"window wider than budget ({WINDOW_WIDTH_MAX})")
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
    # the low byte becomes the cofactor flag, one bit-length slice at a time
    cofactor = word.astype(np.uint8)
    for bits in range(lo.bit_length(), hi.bit_length() + 1):
        s = slice(max(lo, 1 << bits - 1) - lo, min(hi, (1 << bits) - 1) - lo + 1)
        np.less(cofactor[s], 2 * bits, out=cofactor[s])
    # omega goes into the flag array and Omega into extra: 4 bytes per integer
    # at the peak, word's 2 and the two uint8 arrays
    word >>= 8
    om = np.add(word, cofactor, out=cofactor, dtype=np.uint8, casting="unsafe")
    del word
    bom = np.add(om, extra, out=extra)
    om.setflags(write=False)
    bom.setflags(write=False)
    return WindowOmega(lo=lo, hi=hi, omega=om, big_omega=bom)
