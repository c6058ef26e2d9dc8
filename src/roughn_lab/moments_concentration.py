"""Exact combinatorics for the tail-to-moment reduction.

The Stirling table, the partition sum G with its exponential-formula twin,
the ordered-simplex product rho_r, and full-enumeration moments of
divisor-count sums over the medium and large prime ranges under a weight
table.  Everything here is either exact integer/rational arithmetic or a
finite weighted enumeration; sampling never enters.  A refused input, such as a partition sum past s3 = 10,
raises ValueError; two exact routes that disagree raise RuntimeError.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .primes_core import WindowOmega
from .sieve_measure import SieveParams, WeightTable, range_sum

STIRLING_MAX_S = 64
_SIMPLEX_PRIMES = (2, 3, 5, 7, 11, 13)


# --- Stirling numbers of the second kind ---

@lru_cache(maxsize=1)
def build_stirling_table() -> tuple[tuple[int, ...], ...]:
    """Row s - 1 holds the exact {s, 1} .. {s, s}, for 1 <= s <= STIRLING_MAX_S."""
    rows = [(1,)]
    for s in range(2, STIRLING_MAX_S + 1):
        prev = rows[-1]
        row = [1]
        for t in range(2, s):
            row.append(t * prev[t - 1] + prev[t - 2])
        row.append(1)
        rows.append(tuple(row))
    return tuple(rows)


def stirling_bound_kappa() -> float:
    """Smallest kappa with {s, t} <= kappa * (s/log s)^s for 10 <= s <= 60."""
    rows = build_stirling_table()
    kappa = 0.0
    for s in range(10, 61):
        envelope = (s / math.log(s)) ** s
        best = max(rows[s - 1])
        kappa = max(kappa, best / envelope)
    return kappa


# --- moments over the weight table ---

RANGE_TAGS = ("medium", "large")


@dataclass(frozen=True)
class MomentReport:
    k: int
    range_tag: str
    s: int
    exact_moment: float
    paper_bound: float
    ratio: float
    flagged_empty: bool = False


def range_moduli(params: SieveParams, k: int, range_tag: str) -> tuple[int, ...]:
    """The divisor moduli entering the range's indicator sum."""
    if range_tag == "medium":
        return params.medium_primes(k)
    if range_tag == "large":
        return params.large_primes(k)
    raise ValueError(f"unknown range tag {range_tag!r}; expected one of {RANGE_TAGS}")


def _display_bound(range_tag: str, params: SieveParams, k: int, s: int) -> float:
    if range_tag == "medium":
        return (2.0 * 3.0 * s) ** s  # (2*C3*s)^s at C3 = 3
    return (132.0 * params.A * math.log(k)) ** s if k >= 2 else 0.0


def exact_centered_moment(
    table: WeightTable,
    k: int,
    range_tag: str,
    s: int,
) -> MomentReport:
    """s-th weighted moment of sum_{m in range} (1_{m | n+k} - 1/m).

    Exact over the whole support: range_sum adds each modulus m on its
    strided slice of the support, O(N/m) work, and the moment is a weighted
    fsum over every support point.  The bound column is display-only
    (the configured-constant shape of the corresponding asymptotic bound).
    """
    if k < 1:
        raise ValueError("shift k must be >= 1")
    if not 1 <= s <= 12:
        raise ValueError("moment order s must lie in [1, 12]")
    params = table.params
    moduli = range_moduli(params, k, range_tag)
    bound = _display_bound(range_tag, params, k, s)
    if not moduli:
        return MomentReport(k, range_tag, s, 0.0, bound, 0.0, flagged_empty=True)
    acc = range_sum(table, k, moduli)
    acc **= s
    acc *= table.nu
    moment = math.fsum(memoryview(acc)) / table.total
    ratio = moment / bound if bound > 0 else 0.0
    return MomentReport(k, range_tag, s, moment, bound, ratio)


def fit_c3(reports: Sequence[MomentReport]) -> Optional[float]:
    """Smallest C3 putting every medium-range moment under (2*C3*s)^s."""
    best = None
    for rep in reports:
        if rep.range_tag != "medium" or rep.exact_moment <= 0:
            continue
        val = rep.exact_moment ** (1.0 / rep.s) / (2.0 * rep.s)
        best = val if best is None else max(best, val)
    return best


# --- the partition sum G and its exponential-formula twin ---

@lru_cache(maxsize=None)
def _partition_shapes(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(sorted block sizes, number of partitions of {0..n-1} with them) for
    every integer partition of n: with m_j blocks of size j, the blocks B
    split {0..n-1} in n! / (prod_B |B|! * prod_j m_j!) ways."""
    def shapes(total: int, smallest: int):
        if total == 0:
            yield ()
        for b in range(smallest, total + 1):
            for rest in shapes(total - b, b):
                yield (b,) + rest

    return tuple((sizes, math.factorial(n) // math.prod(
        map(math.factorial, sizes + tuple(Counter(sizes).values()))))
        for sizes in shapes(n, 1))


def _poly_mul(a: list, b: list, cap: int) -> list:
    from fractions import Fraction  # with _decimal, 0.3 MB that only the exact routes need
    out = [Fraction(0)] * min(cap + 1, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > cap:
                break
            out[i + j] += ai * bj
    return out


def partition_sum_G(s3: int, R: float) -> float:
    """G(s3, R) = sum over set partitions of prod_B 2^(2|B|+1) / R^(2|B|-1).

    Computed twice, by direct block enumeration and as the y^s3 coefficient
    of s3! * exp(sum_m 2^(2m+1) y^m / (R^(2m-1) m!)), both in exact rational
    arithmetic; a mismatch raises rather than returning either value.
    """
    if s3 < 1:
        raise ValueError("s3 must be >= 1")
    if s3 > 10:
        raise ValueError("partition enumeration is capped at s3 <= 10")
    if not (R > 2 and math.isfinite(R)):
        raise ValueError("R must be finite and exceed 2")
    from fractions import Fraction
    R_frac = Fraction(R)
    # the factor of a block of size b, 2^(2b+1) / R^(2b-1), built once per size
    factor = [None] + [Fraction(2 ** (2 * b + 1)) / R_frac ** (2 * b - 1)
                       for b in range(1, s3 + 1)]
    # a partition's term depends only on its block sizes, so multiply once
    # per size tuple, weighted by its partition count
    direct = Fraction(0)
    for sizes, count in _partition_shapes(s3):
        term = Fraction(count)
        for b in sizes:
            term *= factor[b]
        direct += term
    # EGF route: exp of the block series, truncated at degree s3
    f = [Fraction(0)] * (s3 + 1)
    for m in range(1, s3 + 1):
        f[m] = Fraction(2 ** (2 * m + 1)) / (R_frac ** (2 * m - 1) * math.factorial(m))
    series = [Fraction(1)] + [Fraction(0)] * s3
    power = [Fraction(1)]
    for j in range(1, s3 + 1):
        power = _poly_mul(power, f, s3)
        inv_fact = Fraction(1, math.factorial(j))
        for i, c in enumerate(power):
            series[i] += c * inv_fact
    egf = series[s3] * math.factorial(s3)
    if direct != egf:
        raise RuntimeError(f"partition sum routes disagree: direct={direct}, egf={egf}")
    return float(direct)


# --- the ordered-simplex product rho_r ---

@dataclass(frozen=True)
class SimplexReport:
    r: int
    grid: int
    argmax: tuple[float, ...]
    max_value: float
    uniform_value: float
    uniform_distance: float

    def maximizer_is_uniform(self) -> bool:
        return self.uniform_distance <= 1.0 / self.grid


def rho_r(alphas: Sequence[float]) -> float:
    """prod_i (32 / (alpha_i * q_i^5))^alpha_i with q_i the i-th prime."""
    if len(alphas) > len(_SIMPLEX_PRIMES):
        raise ValueError(f"at most {len(_SIMPLEX_PRIMES)} coordinates supported")
    log_val = 0.0
    for a, q in zip(alphas, _SIMPLEX_PRIMES):
        if not a > 0:
            raise ValueError("simplex coordinates must be positive")
        log_val += a * math.log(32.0 / (a * q**5))
    return math.exp(log_val)


def rho_r_maximize(r: int, grid: int = 1000) -> SimplexReport:
    """Grid search of rho_r over the nondecreasing simplex alpha_1 <= ... <= alpha_r.

    The ordering constraint matters: without it the product is maximized at
    lopsided points that load mass on the smallest prime.

    Points are the nondecreasing compositions of `grid` into r parts, in
    lexicographic order, and a tie goes to the first point with the largest
    math.exp(log rho_r).  Python walks the first r - 3 coordinates; the last
    three, b <= c <= d, are one ragged numpy block per prefix in (b, c)
    order, summed term by term in rho_r's order, so every log is rho_r's
    float (r = 2 is one vector over c).  Only a block's points within 1e-9
    of its largest log go through math.exp, in order, under a strict >.  A
    point further below has a smaller exp than the block's largest-log
    point, so it neither has the largest exp nor ties it: it can never be
    the final winner, and skipping it keeps the tie rule.
    """
    if not 2 <= r <= 6:
        raise ValueError("r must lie in [2, 6]")
    if grid < r:
        raise ValueError("grid must allow at least one point per coordinate")
    # terms[i][c]: the summand rho_r adds for alpha_i = c / grid (index 0 unused)
    terms = [[0.0] + [(c / grid) * math.log(32.0 / ((c / grid) * q**5))
                      for c in range(1, grid + 1)]
             for q in _SIMPLEX_PRIMES[:r]]
    tail = [np.array(t) for t in terms[-3:]]
    best_val = -math.inf
    best_comp = None

    def offer(logs: np.ndarray, prefix: tuple, *coords: np.ndarray) -> None:
        nonlocal best_val, best_comp
        for j in np.flatnonzero(logs >= logs.max() - 1e-9).tolist():
            val = math.exp(logs[j])
            if val > best_val:
                best_val = val
                best_comp = prefix + tuple(int(x[j]) for x in coords)

    def walk(i: int, rest: int, minimum: int, acc: float, prefix: tuple) -> None:
        if i < r - 3:
            for first in range(minimum, rest // (r - i) + 1):
                walk(i + 1, rest - first, first, acc + terms[i][first], prefix + (first,))
            return
        # b runs over minimum..rest//3, c over b..(rest - b)//2, d = rest - b - c
        bs = np.arange(minimum, rest // 3 + 1)
        counts = (rest - bs) // 2 - bs + 1
        b = np.repeat(bs, counts)
        c = np.arange(len(b)) - np.repeat(np.cumsum(counts) - counts - bs, counts)
        d = rest - b - c
        offer(((acc + tail[0][b]) + tail[1][c]) + tail[2][d], prefix, b, c, d)

    if r == 2:
        c = np.arange(1, grid // 2 + 1)
        offer(tail[0][c] + tail[1][grid - c], (), c, grid - c)
    else:
        walk(0, grid, 1, 0.0, ())
    best_alpha = tuple(c / grid for c in best_comp)
    uniform = tuple(1.0 / r for _ in range(r))
    return SimplexReport(
        r=r,
        grid=grid,
        argmax=best_alpha,
        max_value=best_val,
        uniform_value=rho_r(uniform),
        uniform_distance=max(abs(a - 1.0 / r) for a in best_alpha),
    )


# --- the record-search ratio ---

def max_log_ratio(window: WindowOmega, points: range, k_max: int) -> np.ndarray:
    """max over 2 <= k <= k_max of Omega(n+k)/log k at every point n of the
    progression points, read from a window that covers n + 2 .. n + k_max:
    the Omega(n+k) are a strided slice of the window."""
    worst = np.zeros(len(points), dtype=np.float64)
    for k in range(2, k_max + 1):
        om = window.big_omega[points.start + k - window.lo::points.step][:len(points)]
        np.maximum(worst, om / math.log(k), out=worst)
    return worst


# --- configured-constant bookkeeping ---

def validate_constants(C1: float, C2: float, C3: float) -> dict:
    """Arithmetic over the configured constant chain; flags requirement
    violations without asserting them."""
    if min(C1, C3) <= 0 or C2 <= 1:
        raise ValueError("need C1, C3 > 0 and C2 > 1")
    e = math.e
    c3_prime = max(C3, 66.0 * math.log(C2) / math.log(2))
    A = (4.0 * math.log(C2) / math.log(2)) * max(C1 / (8.0 * c3_prime * e), 1.0)
    requirement = max(8.0 * e * c3_prime, 132.0 * A * e, 2.0**19 * e)
    # A is chosen to make 132*A*e land exactly on C1 once C1 is large, so the
    # comparison sits on the boundary; allow rounding-level slack.
    return {
        "C1": C1,
        "C2": C2,
        "C3": C3,
        "C3_prime": c3_prime,
        "A": A,
        "C1_requirement": requirement,
        "ok": C1 >= requirement * (1.0 - 1e-12),
    }
