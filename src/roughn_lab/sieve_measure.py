"""The weighted measure on [x, 2x].

nu(n) = 1_{n in [x,2x]} * 1_{W | n} * prod_{k=1}^K (sum over w-rough squarefree
d | n+k of mu(d) * eta_tilde(log d / log R_k))^2, normalized by its total mass.
Only d < R_k contribute: eta_tilde vanishes from 1 on, and any w-rough d > 1
is a product of primes in (w, R_k).

The module builds weight tables, evaluates exact divisibility probabilities,
samples from the measure, and checks the distributional axioms (A)-(D) at
desk scale, (B) and (C) at the one tuple size AXIOM_TUPLE_SIZE.

The support is an arithmetic progression, held as a range; nu over it is the
one support-sized array.  The total mass is one fsum over consecutive parts
of nu, and the cumulative mass a cumsum carried from part to part, so a
chunked scan and the inverse-CDF draw keep block-sized temporaries: the
carried cumsum equals the whole array's np.cumsum bit for bit, because numpy
accumulates left to right and fsum rounds once.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bump_functions import BumpSpec, eta_tilde
from .primes_core import TABLE_LIMIT_MAX, WORD_MAX, primes_between

PARAM_DEFAULTS = {
    "x": 10**7,
    "K": 4,
    "w": 7,
    "a": 1,
    "c": 0.1,
    "gamma": 3.0,
    "T_exponent": 0.5,
    "A": 2.0,
    "k_max": 100,
}
_INT_KEYS = ("x", "K", "w", "a", "k_max")

EXACT_MODE_MAX_X = 10**4
ETA_QUANT_BITS = 40
DRAW_BLOCK = 1 << 13  # uniforms per generator call in sample
WALK_BLOCK = 1 << 13  # support points per step of sample's walk over nu
_FLOAT_MAX_QUARTIC_ROOT = math.sqrt(math.sqrt(sys.float_info.max))


@dataclass(frozen=True)
class SieveParams:
    """Desk-scale sieve configuration.

    R_k = max(w, x^(c/k^gamma)) for the K sieved shifts; W = prod_{p<=w} p^a;
    T = x^T_exponent is the very-large prime cutoff; k_max bounds the shifts
    scanned by Omega profiles.  Derived values are computed at construction.
    """

    x: int
    K: int
    w: int
    a: int
    c: float
    gamma: float
    T_exponent: float
    A: float
    k_max: int
    W: int = field(init=False, repr=False)
    R_values: tuple[float, ...] = field(init=False, repr=False)
    T: float = field(init=False, repr=False)
    theta: float = field(init=False, repr=False)

    def __post_init__(self):
        # every comparison with a NaN is false, so the range checks below
        # would let one through
        for key in PARAM_DEFAULTS:
            if key not in _INT_KEYS and not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if self.x < 10:
            raise ValueError("window start x must be >= 10")
        if 2 * self.x > WORD_MAX:  # an int comparison: float(x) may overflow
            raise ValueError(f"window end 2x must not exceed {WORD_MAX}")
        if not 1 <= self.K:
            raise ValueError("need at least one sieved shift (K >= 1)")
        if self.w < 2 or self.w > 10**4:
            raise ValueError("tiny-prime cutoff w must lie in [2, 10^4]")
        if self.K >= self.w:
            raise ValueError("need K < w (shift distances must stay below every sieving prime)")
        if not 1 <= self.a <= 16:
            raise ValueError("W-exponent a must lie in [1, 16]")
        if self.c <= 0:
            raise ValueError("schedule exponent c must be positive")
        if self.gamma < 0:
            raise ValueError("schedule decay gamma must be >= 0")
        if not 0 < self.T_exponent <= 1:
            raise ValueError("T_exponent must lie in (0, 1]")
        if self.A <= 0:
            raise ValueError("constant A must be positive")
        # moments prints (132 A log k)^s for k = 2, 3 and s <= 4: refuse an A
        # whose largest bound overflows or whose smallest leaves the normal floats
        if not 132.0 * self.A * math.log(3) <= _FLOAT_MAX_QUARTIC_ROOT:
            raise ValueError("constant A too large: the moments bound (132 A log 3)^4 overflows")
        if (132.0 * self.A * math.log(2)) ** 4 < sys.float_info.min:
            raise ValueError("constant A too small: the moments bound (132 A log 2)^4 underflows")
        if self.k_max < 2:
            raise ValueError("k_max must be >= 2")
        W = math.prod(primes_between(1, self.w)) ** self.a
        object.__setattr__(self, "W", W)
        rs = tuple(max(float(self.w), self._level(k)) for k in range(1, self.K + 1))
        object.__setattr__(self, "R_values", rs)
        object.__setattr__(self, "T", float(self.x) ** self.T_exponent)
        if self.T < self.w:
            raise ValueError("very-large cutoff T must be at least w")
        # feasibility mirrors the crude modulus bound W * prod R_k^2 <= x^theta,
        # theta < 1.  A shift whose medium range (w, R_k] holds no prime admits
        # no divisor besides d=1 and contributes level 1, not R_k.
        log_prod = math.log(W)
        for k, r in enumerate(rs, start=1):
            log_prod += 2.0 * math.log(r if self.medium_primes(k) else 1.0)
        theta = log_prod / math.log(self.x)
        object.__setattr__(self, "theta", theta)
        if theta >= 1.0:
            raise ValueError(
                f"infeasible parameters: W*prod(R_k^2) = x^{theta:.3f}, needs exponent < 1"
            )

    def _level(self, k: int) -> float:
        """x^(c/k^gamma), refused where it would pass the float range."""
        try:
            e = self.c / float(k) ** self.gamma
        except OverflowError:  # k^gamma past the float range: take c/k^gamma from logs
            e = math.exp(math.log(self.c) - self.gamma * math.log(k))
        # the log of the level; beyond 700 the level is far above any prime budget
        if e * math.log(self.x) > 700.0:
            raise ValueError(
                f"level R_{k} = x^(c/k^gamma) above the prime table budget ({TABLE_LIMIT_MAX})")
        return float(self.x) ** e

    def R(self, k: int) -> float:
        if not 1 <= k <= self.K:
            raise ValueError(f"shift index k={k} outside [1, {self.K}]")
        return self.R_values[k - 1]

    def range_level(self, k: int) -> float:
        """R_k for a sieved shift k <= K; a shift beyond K keeps the trivial
        level w, so its medium range is empty."""
        return self.R(k) if k <= self.K else float(self.w)

    def medium_primes(self, k: int) -> tuple[int, ...]:
        """The primes in (w, R_k], with R_k read from range_level."""
        return tuple(primes_between(self.w, int(self.range_level(k))))

    def large_primes(self, k: int) -> tuple[int, ...]:
        """The primes in (R_k, T], with R_k read from range_level."""
        return tuple(primes_between(int(self.range_level(k)), int(self.T)))

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in PARAM_DEFAULTS}


def parse_params(text: str) -> SieveParams:
    """Flat 'key = value' parameter format, '#' comments, unknown keys rejected."""
    values = dict(PARAM_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed parameter line {lineno}: {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in PARAM_DEFAULTS:
            raise ValueError(f"unknown parameter {key!r} on line {lineno}")
        try:
            values[key] = int(val) if key in _INT_KEYS else float(val)
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r} on line {lineno}: {val!r}") from exc
    return SieveParams(**values)


# --- the weight itself ---

def _admissible_divisors(params: SieveParams, spec: BumpSpec, k: int):
    """(d, mu(d) * eta_tilde(log d / log R_k)) for all w-rough squarefree d > 1
    with d < R_k, in increasing d order."""
    r = params.R(k)
    log_r = math.log(r)
    meds = params.medium_primes(k)
    out = []

    def extend(start: int, prod: int, size: int):
        for i in range(start, len(meds)):
            p = meds[i]
            d = prod * p
            if d >= r:
                break  # meds ascending, deeper products only grow
            coef = float(eta_tilde(math.log(d) / log_r, spec))
            out.append((d, -coef if (size + 1) % 2 else coef))
            extend(i + 1, d, size + 1)

    extend(0, 1, 0)
    return sorted(out)


def nu_exact(n: int, params: SieveParams, spec: BumpSpec) -> float:
    """The weight at a single n, by direct enumeration of divisor subsets."""
    if not params.x <= n <= 2 * params.x:
        raise ValueError(f"n={n} outside the window [{params.x}, {2 * params.x}]")
    if n % params.W:
        return 0.0
    value = 1.0
    for k in range(1, params.K + 1):
        r = params.R(k)
        log_r = math.log(r)
        divisors = [p for p in params.medium_primes(k) if (n + k) % p == 0]
        inner = 1.0
        for mask in range(1, 1 << len(divisors)):
            d = 1
            bits = 0
            for i, p in enumerate(divisors):
                if mask >> i & 1:
                    d *= p
                    bits += 1
            if d >= r:
                continue
            coef = float(eta_tilde(math.log(d) / log_r, spec))
            inner += -coef if bits % 2 else coef
        value *= inner * inner
    return value


def total_mass(parts) -> float:
    """The fsum of nu over its consecutive parts, float64 arrays: one
    correctly rounded sum whatever the split, refused when zero.  Each part
    is read as native doubles, so an unaligned view of checkpoint bytes sums
    as its aligned copy would; only a strided part is copied."""
    total = math.fsum(itertools.chain.from_iterable(
        memoryview(np.ascontiguousarray(part)).cast("B").cast("d") for part in parts))
    if total <= 0:
        raise ValueError("weight table total mass is zero")
    return total


def carried_cumsum(part: np.ndarray, carry: float) -> np.ndarray:
    """np.cumsum of an array over one of its consecutive parts, given carry,
    its value just before the part (-0.0 before the first part, which adds
    nothing to any float).  numpy accumulates left to right, so this is the
    whole array's cumsum there bit for bit."""
    cum = np.empty(len(part) + 1, dtype=np.float64)
    cum[0] = carry
    cum[1:] = part
    return np.cumsum(cum, out=cum)[1:]


def empty_medium_shifts(params: SieveParams) -> tuple[int, ...]:
    """The sieved shifts whose medium range (w, R_k] holds no prime."""
    return tuple(k for k in range(1, params.K + 1) if not params.medium_primes(k))


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Immutable weight table over the support {n in [x,2x] : W | n}, a
    range, built from nu there; the total mass (refused when zero) is
    derived at construction."""

    params: SieveParams
    spec: BumpSpec
    support: range
    nu: np.ndarray
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", total_mass([self.nu]))


def _hits(n0: int, step: int, k: int, m: int) -> slice:
    """Indexer of the points n_i = n0 + i*step with m | n_i + k, read as
    arr[ix] or added to as arr[ix] += v, for an arr indexed by i.

    With g = gcd(m, step) the condition is i*(step/g) = -(n0+k)/g mod m/g
    when g | n0 + k, and holds for no i otherwise.  So the hits are one
    residue class of i mod m/g: a strided basic slice, O(N/m) work per
    modulus where a mask over the points would be O(N), picking the same
    elements in the same ascending order.
    """
    g = math.gcd(m, step)
    r = int(n0) + k
    if r % g:
        return slice(0, 0)
    mg = m // g
    return slice(-(r // g) * pow(step // g, -1, mg) % mg, None, mg)


def weight_support(params: SieveParams) -> range:
    """The support {n in [x, 2x] : W | n}, ascending, of at most
    TABLE_LIMIT_MAX points: range(n0, 2x + 1, W)."""
    x, W = params.x, params.W
    n0 = x + (-x) % W
    if n0 > 2 * x:
        raise ValueError(
            f"no multiple of W={W} lies in [{x}, {2 * x}]; refusing to widen the window"
        )
    if (2 * x - n0) // W + 1 > TABLE_LIMIT_MAX:
        raise ValueError(f"weight support above memory budget ({TABLE_LIMIT_MAX} points)")
    return range(n0, 2 * x + 1, W)


def shift_terms(params: SieveParams, spec: BumpSpec) -> dict:
    """k -> _admissible_divisors(params, spec, k) for every sieved shift."""
    return {k: _admissible_divisors(params, spec, k) for k in range(1, params.K + 1)}


def weights_at(points: range, step: int, terms: dict) -> np.ndarray:
    """nu at the given support points (any slice of the support, whose
    consecutive points lie step = W apart), from the shift_terms of the
    measure.  The first shift's squared sum becomes nu in place, since
    1 * s^2 is s^2 exactly, so one shift takes one array of the points."""
    if not len(points):
        return np.ones(0, dtype=np.float64)
    nu = None
    for k, k_terms in terms.items():
        inner = np.ones(len(points), dtype=np.float64)
        for d, coef in k_terms:
            inner[_hits(points[0], step, k, d)] += coef
        inner *= inner
        nu = inner if nu is None else np.multiply(nu, inner, out=nu)
    return nu


def build_weight_table(params: SieveParams, spec: BumpSpec) -> WeightTable:
    support = weight_support(params)
    return WeightTable(params, spec, support,
                       weights_at(support, params.W, shift_terms(params, spec)))


def exact_weights(table: WeightTable) -> tuple[dict, Fraction]:
    """n -> nu(n) over the table's support in exact rationals, and their total:
    the float route's divisor sums with every eta_tilde coefficient rounded
    to a multiple of 2^-ETA_QUANT_BITS.  Refused above EXACT_MODE_MAX_X."""
    params = table.params
    if params.x > EXACT_MODE_MAX_X:
        raise ValueError(
            f"exact-rational mode only supports windows with x <= {EXACT_MODE_MAX_X}"
        )
    from fractions import Fraction  # loads _decimal: only this exact route pays for it
    scale = 1 << ETA_QUANT_BITS
    quant = [[(d, Fraction(round(coef * scale), scale)) for d, coef in k_terms]
             for k_terms in shift_terms(params, table.spec).values()]
    exact_map = {}
    for n in table.support:
        val = Fraction(1)
        for k, k_quant in enumerate(quant, start=1):
            inner = Fraction(1)
            for d, coef in k_quant:
                if (n + k) % d == 0:
                    inner += coef
            val *= inner * inner
        exact_map[n] = val
    return exact_map, sum(exact_map.values(), Fraction(0))


def prob_divides(d_star: int, k_star: int, table: WeightTable) -> float:
    """Exact weighted probability that d_star divides n + k_star.

    fsum keeps the numerator/denominator sums correctly rounded, so the
    tiny-prime rigidity identities hold with zero float drift.
    """
    if d_star < 1:
        raise ValueError("d_star must be >= 1")
    if k_star < 1:
        raise ValueError("k_star must be >= 1")
    ix = _hits(table.support[0], table.params.W, k_star, d_star)
    num = math.fsum(memoryview(table.nu[ix]))
    return num / table.total


def range_sum(table: WeightTable, k: int, moduli) -> np.ndarray:
    """sum over m in moduli of 1_{m | n+k} - 1/m at every support point n."""
    acc = np.zeros(len(table.support), dtype=np.float64)
    for m in moduli:
        acc[_hits(table.support[0], table.params.W, k, m)] += 1.0
    acc -= math.fsum(1.0 / m for m in moduli)
    return acc


def walk_ends(nu: np.ndarray) -> np.ndarray:
    """np.cumsum(nu) at the last point of each WALK_BLOCK-point block,
    carried from block to block."""
    ends = np.empty(-(-len(nu) // WALK_BLOCK), dtype=np.float64)
    carry = -0.0
    for j in range(len(ends)):
        carry = ends[j] = carried_cumsum(nu[j * WALK_BLOCK:(j + 1) * WALK_BLOCK], carry)[-1]
    return ends


def inverse_cdf(nu: np.ndarray, ends: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min(np.searchsorted(np.cumsum(nu), u, side="right"), len(nu) - 1),
    walking nu a block at a time, where ends = walk_ends(nu).

    np.cumsum(nu) does not decrease, so a u in [ends[j - 1], ends[j]) lies
    at or past every point of the blocks before j and before block j's last
    point: its index is found in block j's carried cumsum alone, from
    ends[j - 1].  A u at or past ends[-1] is clamped to the last point.  The
    u are sorted first, so each block's share of them is one run.
    """
    order = np.argsort(u)
    u = u[order]
    idx = np.full(len(u), len(nu) - 1, dtype=np.int64)
    start = 0
    for j, stop in enumerate(np.searchsorted(u, ends, side="left").tolist()):
        if stop > start:
            lo = j * WALK_BLOCK
            cum = carried_cumsum(nu[lo:lo + WALK_BLOCK], ends[j - 1] if j else -0.0)
            idx[order[start:stop]] = np.searchsorted(cum, u[start:stop], side="right") + lo
        start = stop
    return idx


def sample(table: WeightTable, seed: int, count: int) -> np.ndarray:
    """Deterministic weighted draws from the table (inverse-CDF on one stream).

    Each call draws from one fresh PCG64(seed) stream, so the same seed gives
    the same draws.  The uniforms come DRAW_BLOCK at a time, the same stream
    in the same order as one call for every draw, scaled by np.cumsum(nu)'s
    last value and placed by inverse_cdf; no cumsum of the whole support is
    held.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(table.support) == 0:
        raise ValueError("cannot sample from an empty table")
    ends = walk_ends(table.nu)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = np.empty(count, dtype=np.int64)
    for lo in range(0, count, DRAW_BLOCK):
        u = rng.random(min(DRAW_BLOCK, count - lo))
        u *= ends[-1]
        draws[lo:lo + len(u)] = inverse_cdf(table.nu, ends, u)
    draws *= table.support.step
    draws += table.support.start
    return draws


# --- axiom reports ---

AXIOM_TUPLE_SIZE = 2  # the tuple size s at which axioms (B) and (C) are checked


@dataclass(frozen=True)
class AxiomReport:
    which: str
    passed: bool
    detail: dict
    truncated: bool = False


def axiom_check(
    which: str,
    table: WeightTable,
    budget: int = 2000,
    seed: int = 0,
) -> AxiomReport:
    """Desk-scale distributional reports for axioms A-D.

    (A) is an exact assertion on the support; (B)/(C) report fitted
    finiteness ratios at the shift k = 1; (D) reports the max deviation of
    the prime-power reduction identity.  Budget overruns return a flagged
    partial report.
    """
    params = table.params
    s = AXIOM_TUPLE_SIZE
    if which == "A":
        # the support is the progression of the multiples of W in [x, 2x]:
        # its first point, last point and step, each exactly
        sup, x, W = table.support, params.x, params.W
        ok = (len(sup) > 0 and sup.step == W and sup[0] == x + (-x) % W
              and sup[-1] == 2 * x - 2 * x % W)
        return AxiomReport("A", ok, {"support_size": len(sup)})

    if which == "B":
        pool = params.large_primes(1)
        if len(pool) < s:
            return AxiomReport("B", True, {"sup_ratio": 0.0, "tuples": 0, "s": s}, truncated=True)
        rng = np.random.Generator(np.random.PCG64(seed))
        sup = 0.0
        arg = None
        n_tuples = budget
        for _ in range(n_tuples):
            pick = rng.choice(len(pool), size=s, replace=False)
            d = 1
            for i in pick:
                d *= pool[i]
            ratio = d * prob_divides(d, 1, table) / 8.0**s
            if ratio > sup:
                sup, arg = ratio, d
        return AxiomReport("B", True, {"sup_ratio": sup, "at_d_star": arg, "tuples": n_tuples, "s": s})

    if which == "C":
        meds = params.medium_primes(1)
        total = 0.0
        count = 0
        truncated = False
        fact_s = math.factorial(s)
        for combo in itertools.combinations(meds, s):
            if count >= budget:
                truncated = True
                break
            d = 1
            for p in combo:
                d *= p
            total += fact_s * prob_divides(d, 1, table)
            count += 1
        c3 = None
        if total > 0:
            c3 = total ** (1.0 / s) / math.log(s)
        return AxiomReport(
            "C", True,
            {"tuple_sum": total, "c3_fit": c3, "tuples": count, "s": s,
             "paper_bound_shape": "(C3*log(s))^s"},
            truncated=truncated,
        )

    if which == "D":
        pool = primes_between(params.w, int(params.T))
        triples = []
        for p in pool:
            for a in (2, 3):
                if p**a > params.T:
                    break
                for k in range(1, min(params.K + 2, params.k_max) + 1):
                    triples.append((p, a, k))
        if not triples:
            raise ValueError("no admissible (p, a) with p^a <= T; raise T_exponent")
        rng = np.random.Generator(np.random.PCG64(seed))
        order = rng.permutation(len(triples))
        truncated = len(triples) > budget
        worst = 0.0
        rows = []
        for i in order[:budget]:
            p, a, k = triples[i]
            lhs = prob_divides(p**a, k, table)
            rhs = prob_divides(p, k, table) / p ** (a - 1)
            dev = abs(lhs - rhs)
            rows.append((p, a, k, lhs, rhs, dev))
            worst = max(worst, dev)
        return AxiomReport(
            "D", True, {"max_deviation": worst, "rows": rows, "tuples": len(rows)},
            truncated=truncated,
        )

    raise ValueError(f"unknown axiom {which!r}; expected one of A, B, C, D")
