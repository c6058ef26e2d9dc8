"""Bernoulli site models for prime-like sets, gap ratios, and counts of
integers with a fixed number of prime factors.

A site n >= 3 is occupied with probability 1/f(n); runs of the model measure
the normalized gap statistic (S_{k+1} - S_k) / (f(S_k) log S_k).  The rest of
the module counts omega-level sets exactly, from one factor_window over
[2, x] whose width budget is the count's only cap, and scans short windows
for integers with unusually many prime factors, recording hits and misses
alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .primes_core import factor_window, factorize

RATE_NAMES = ("log", "semiprime", "custom")
WINDOW_VARIANTS = ("A-omega", "B-Omega", "weak")


def loglog(v: float) -> float:
    return math.log(math.log(v))


@dataclass(frozen=True)
class CramerConfig:
    """One simulation setup: rate function, range, trial count, seed.

    rate "log" is f(n) = log n; "semiprime" is f(n) = log n / (loglog n)^(j-1);
    "custom" interpolates the given (n, f(n)) knots linearly and holds the end
    values flat outside their range.  scale multiplies f pointwise.
    """

    rate: str = "log"
    j: int = 1
    custom: Optional[tuple[tuple[float, float], ...]] = None
    scale: float = 1.0
    N: int = 10**5
    trials: int = 100
    seed: int = 0
    warmup: Optional[int] = None

    def __post_init__(self):
        # a NaN passes every range check below, and an infinite rate empties every trial
        if not math.isfinite(self.scale):
            raise ValueError("scale must be finite")
        if self.custom and not all(math.isfinite(v) for knot in self.custom for v in knot):
            raise ValueError("custom knots (n, f) must be finite")
        if self.rate not in RATE_NAMES:
            raise ValueError(f"unknown rate {self.rate!r}; expected one of {RATE_NAMES}")
        if self.rate == "semiprime" and self.j < 1:
            raise ValueError("semiprime rate needs j >= 1")
        if self.rate == "custom":
            if not self.custom:
                raise ValueError("custom rate needs at least one (n, f) knot")
            ns = [p[0] for p in self.custom]
            if ns != sorted(ns):
                raise ValueError("custom knots must have increasing n")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.N < 10:
            raise ValueError("need N >= 10")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        w = self.warmup_index()
        if w < 3:
            raise ValueError("warmup must be >= 3")
        probe = self.rate_values(np.array([float(w), float(self.N)]))
        if not np.all(probe > 1.0):
            raise ValueError("rate function must exceed 1 from the warmup index on")

    def warmup_index(self) -> int:
        if self.warmup is not None:
            return self.warmup
        return max(3, int(round(self.N**0.25)))

    def rate_values(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.float64)
        if self.rate == "log":
            vals = np.log(ns)
        elif self.rate == "semiprime":
            vals = np.log(ns) / np.log(np.log(ns)) ** (self.j - 1)
        else:
            knots_n = np.array([p[0] for p in self.custom], dtype=np.float64)
            knots_f = np.array([p[1] for p in self.custom], dtype=np.float64)
            vals = np.interp(ns, knots_n, knots_f)
        vals *= self.scale  # vals is a new array on every branch
        return vals

    @property
    def trial_bytes(self) -> int:
        """The length of a trial's bit string: one bit per site 3..N."""
        return -(-(self.N - 2) // 8)

    @cached_property
    def sites(self) -> np.ndarray:
        """1/f(n) for the sites n = 3..N, index n - 3: each site's chance of
        a success, built once per config and shared, read-only, by its trials.
        The rates are scaled and inverted in place: two arrays of sites at most."""
        inv = self.rate_values(np.arange(3, self.N + 1, dtype=np.float64))
        np.divide(1.0, inv, out=inv)
        inv.setflags(write=False)
        return inv


# sites drawn per generator call; a multiple of 8, so each block packs to whole bytes
DRAW_BLOCK = 1 << 13


class TrialSummary(NamedTuple):
    """One trial's share of a report: its largest kept ratio (NaN without a
    gap), its kept gap count, and its last success less its first (0 with
    fewer than two successes), the sum of its kept gaps."""

    max_ratio: float
    gap_count: int
    span: int


@dataclass(frozen=True, eq=False)
class GapReport:
    """A run's gap statistics.  max_ratios holds each trial's largest kept
    ratio gap / (f(S_k) log S_k), NaN for an empty trial (listed in
    empty_trials), and mean_gap pools every kept gap, NaN when there is
    none; so two reports compare by identity, never by those NaNs."""

    seed: int
    trials: int
    warmup: int
    max_ratios: tuple[float, ...]
    mean_gap: float
    gap_count: int
    empty_trials: tuple[int, ...]

    def empty(self) -> bool:
        return self.gap_count == 0

    def count_below(self, cutoff: float) -> int:
        """Trials whose max ratio is at most cutoff; an empty trial never is."""
        return sum(1 for r in self.max_ratios if r <= cutoff)


def trial_gaps(config: CramerConfig, trial: int) -> np.ndarray:
    """One trial of the Bernoulli model: its bit string, the np.packbits of
    its sites 3..N, bit n - 3 set where site n is a success: config.trial_bytes
    = ceil((N - 2) / 8) uint8 bytes, all the trial's outcome.
    trial_successes decodes it.

    The trial draws from its own generator seeded with seed XOR trial, so its
    gaps never depend on which other trials ran, or in what order.  The
    uniforms come DRAW_BLOCK at a time, the same stream in the same order as
    one call for every site, so the same successes.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed ^ trial))
    sites = config.sites
    bits = np.empty(config.trial_bytes, dtype=np.uint8)
    for lo in range(0, len(sites), DRAW_BLOCK):
        block = sites[lo:lo + DRAW_BLOCK]
        bits[lo // 8:(lo + len(block) + 7) // 8] = np.packbits(rng.random(len(block)) < block)
    return bits


def trial_successes(config: CramerConfig, bits: np.ndarray) -> np.ndarray:
    """A trial's int64 successes from its bit string (see trial_gaps), from
    the first at or beyond the warmup index on.  The kept gaps are
    np.diff(succ), each starting at its S_k in succ[:-1]."""
    S = np.flatnonzero(np.unpackbits(bits, count=config.N - 2))
    S += 3
    # S increases, so the successes at or beyond the warmup are a suffix;
    # searching S[:-1] keeps the last success even below the warmup, where it
    # starts no gap
    return S[np.searchsorted(S[:-1], config.warmup_index()):]


def trial_summary(config: CramerConfig, succ: np.ndarray) -> TrialSummary:
    """The summary of a trial whose successes from the warmup on are succ."""
    s_k = succ[:-1]
    return TrialSummary(
        max_ratio=float((np.diff(succ) / (config.rate_values(s_k) * np.log(s_k))).max())
        if len(s_k) else float("nan"),
        gap_count=len(s_k),
        span=int(succ[-1] - succ[0]) if len(succ) else 0,
    )


def gap_report(config: CramerConfig, summaries) -> GapReport:
    """The report of a run whose t-th trial has the summary summaries[t]."""
    max_ratios = tuple(s.max_ratio for s in summaries)
    gap_count = sum(s.gap_count for s in summaries)
    # a trial's gaps telescope to its span, and every partial sum of the int64
    # gaps is an integer below 2^53, so this is the pooled mean numpy would
    # take of them all, bit for bit
    total = sum(s.span for s in summaries)
    return GapReport(
        seed=config.seed,
        trials=config.trials,
        warmup=config.warmup_index(),
        max_ratios=max_ratios,
        mean_gap=float(np.float64(total) / gap_count) if gap_count else float("nan"),
        gap_count=gap_count,
        empty_trials=tuple(t for t, r in enumerate(max_ratios) if math.isnan(r)),
    )


def simulate_gaps(config: CramerConfig) -> GapReport:
    """Run every trial of the Bernoulli model and report the normalized
    success gaps (see trial_gaps and GapReport)."""
    return gap_report(config, [
        trial_summary(config, trial_successes(config, trial_gaps(config, t)))
        for t in range(config.trials)])


# --- exact omega-level counts ---

@lru_cache(maxsize=8)
def _omega_histogram(x: int) -> tuple[int, ...]:
    # one count per value, so the uint8 omegas are never widened to int64
    omega = factor_window(2, x).omega
    return tuple(int(np.count_nonzero(omega == v)) for v in range(int(omega.max()) + 1))


def count_pi_k(x: int, k: int) -> int:
    """Number of 2 <= n <= x with exactly k distinct prime factors."""
    if x < 2:
        raise ValueError("need x >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    hist = _omega_histogram(x)
    return hist[k] if k < len(hist) else 0


def pi_k_lower_bound_shape(x: int, k: int) -> float:
    """(x / log x) * (loglog x)^(k-1) / (k-1)!, the growth shape without its
    implied constant."""
    if x < 3:
        raise ValueError("need x >= 3")
    return x / math.log(x) * loglog(x) ** (k - 1) / math.factorial(k - 1)


def density_profile(x_grid, k: Optional[int] = None) -> list[tuple[int, int, int, float, float]]:
    """Rows (x, k, count, bound shape, ratio); k defaults to ceil(loglog x)."""
    rows = []
    for x in x_grid:
        kk = k if k is not None else max(1, math.ceil(loglog(x)))
        cnt = count_pi_k(x, kk)
        shape = pi_k_lower_bound_shape(x, kk)
        rows.append((int(x), kk, cnt, shape, cnt / shape))
    return rows


# --- window searches for prime-factor-rich integers ---

@dataclass(frozen=True)
class WindowWitness:
    x: int
    variant: str
    params: dict
    lo: int
    hi: int
    witness: Optional[int]
    value: Optional[int]
    threshold: Optional[float]


def window_search(
    x: int,
    variant: str,
    epsilon: Optional[float] = None,
    C: Optional[float] = None,
    C0: Optional[float] = None,
    d: Optional[float] = None,
) -> WindowWitness:
    """Largest n in the variant's trailing window with enough prime factors.

    A-omega / B-Omega use the window (x - C log x sqrt(loglog x), x] and the
    threshold epsilon * loglog n on omega / Omega.  weak uses the window
    (x - (log(x/2))^d, x] and the threshold C0 * loglog n / logloglog n.
    A missing witness is an ordinary outcome and is returned as None with the
    scanned window recorded.
    """
    if variant not in WINDOW_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {WINDOW_VARIANTS}")
    if x < 100:
        raise ValueError("need x >= 100")
    if variant in ("A-omega", "B-Omega"):
        if epsilon is None or C is None:
            raise ValueError("A-omega/B-Omega need epsilon and C")
        params = {"epsilon": epsilon, "C": C}
        width = C * math.log(x) * math.sqrt(loglog(x))
        threshold_at = lambda ll: epsilon * ll
    else:
        if C0 is None or d is None:
            raise ValueError("weak variant needs C0 and d")
        params = {"C0": C0, "d": d}
        width = math.log(x / 2.0) ** d
        threshold_at = lambda ll: C0 * ll / math.log(ll)
    if width < 1:
        raise ValueError(f"window width {width:.3g} is below one integer")
    lo = max(2, int(math.floor(x - width)) + 1)
    if variant == "weak":
        lo = max(lo, 16)  # logloglog must be positive
    hi = x
    window = factor_window(lo, hi)
    counts = window.big_omega if variant == "B-Omega" else window.omega
    witness = None
    value = None
    threshold = None
    for n in range(hi, lo - 1, -1):
        thresh = threshold_at(loglog(n))
        got = int(counts[n - lo])
        if got >= thresh:
            factors = factorize(n)
            check = sum(e for _, e in factors) if variant == "B-Omega" else len(factors)
            if check != got:
                raise RuntimeError(f"window counts disagree with trial division at {n}")
            witness, value, threshold = n, got, thresh
            break
    return WindowWitness(x=x, variant=variant, params=params, lo=lo, hi=hi,
                         witness=witness, value=value, threshold=threshold)


# --- the downward-shift refuter ---

@dataclass(frozen=True)
class RefuterResult:
    n: int
    delta: float
    k: Optional[int]
    omega_value: Optional[int]
    threshold: Optional[float]
    searched_up_to: int
    chain: Optional[dict] = None


def erdos_style_refuter(
    n: int,
    delta: float,
    budget: int = 10**5,
    C0: Optional[float] = None,
    d: Optional[float] = None,
) -> RefuterResult:
    """First k >= 3 with omega(n-k) > (1+delta) log k / loglog k, if any.

    With C0 and d supplied, also runs the window search at x = n and records
    the two sides of the comparison chain linking the window threshold to the
    gap threshold at the implied k.
    """
    if n < 10**6:
        raise ValueError("need n >= 10^6 so the iterated logs are stable")
    if delta <= 0:
        raise ValueError("delta must be positive")
    k_hi = min(budget, n - 2)
    lo = n - k_hi
    window = factor_window(lo, n - 3)
    found_k = None
    found_omega = None
    found_threshold = None
    for k in range(3, k_hi + 1):
        m = n - k
        om = int(window.omega[m - lo])
        thresh = (1.0 + delta) * math.log(k) / loglog(k)
        if om > thresh:
            found_k, found_omega, found_threshold = k, om, thresh
            break
    chain = None
    if C0 is not None and d is not None:
        wit = window_search(n, "weak", C0=C0, d=d)
        if wit.witness is not None and n - wit.witness >= 3:
            k_w = n - wit.witness
            lhs = C0 * loglog(wit.witness) / math.log(loglog(wit.witness))
            rhs = (1.0 + (C0 / d - 1.0)) * math.log(k_w) / loglog(k_w)
            chain = {
                "witness": wit.witness,
                "k": k_w,
                "window_threshold": lhs,
                "gap_threshold": rhs,
                "chain_holds": lhs >= rhs,
            }
        else:
            chain = {"witness": wit.witness, "k": None,
                     "window_threshold": None, "gap_threshold": None,
                     "chain_holds": None}
    return RefuterResult(n=n, delta=delta, k=found_k, omega_value=found_omega,
                         threshold=found_threshold, searched_up_to=k_hi, chain=chain)
