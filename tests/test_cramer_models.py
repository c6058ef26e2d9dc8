"""Bernoulli gap model, omega-level counts, and window searches vs oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from memory_helpers import traced_peak
from test_cli_harness import TOY_PARAMS

from roughn_lab import cli_harness as ch
from roughn_lab import cramer_models
from roughn_lab.cli_harness import GAP_COLUMNS, _write_gaps_csv
from roughn_lab.cramer_models import (
    CramerConfig,
    GapReport,
    TrialSummary,
    count_pi_k,
    density_profile,
    erdos_style_refuter,
    gap_report,
    loglog,
    pi_k_lower_bound_shape,
    simulate_gaps,
    trial_gaps,
    trial_successes,
    trial_summary,
    window_search,
)
from roughn_lab.primes_core import WindowOmega, factor_window
from roughn_lab.reporting import write_csv


def trial_omega(m: int) -> int:
    count = 0
    d = 2
    while d * d <= m:
        if m % d == 0:
            count += 1
            while m % d == 0:
                m //= d
        d += 1
    return count + (1 if m > 1 else 0)


def trial_big_omega(m: int) -> int:
    count = 0
    d = 2
    while d * d <= m:
        while m % d == 0:
            count += 1
            m //= d
        d += 1
    return count + (1 if m > 1 else 0)


# --- omega-level counts ---

def test_count_matches_enumeration_at_30():
    singles = {n for n in range(2, 31) if trial_omega(n) == 1}
    assert singles == {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29}
    assert count_pi_k(30, 1) == len(singles)
    assert count_pi_k(30, 2) == 12
    assert count_pi_k(30, 3) == 1  # only 30 itself


def test_count_matches_enumeration_random_x():
    rng = random.Random(2)
    for _ in range(5):
        x = rng.randint(50, 2000)
        for k in (1, 2, 3):
            want = sum(1 for n in range(2, x + 1) if trial_omega(n) == k)
            assert count_pi_k(x, k) == want


def test_partition_identity():
    for x in (30, 1000, 12345):
        total = sum(count_pi_k(x, k) for k in range(1, 10))
        assert total == x - 1


def test_primorial_vanishing():
    # 2*3*5*7 = 210 > 100, so no n <= 100 has four distinct prime factors
    assert count_pi_k(100, 4) == 0
    assert count_pi_k(2309, 5) == 0  # 2*3*5*7*11 = 2310


def test_count_budget_and_domain():
    # the window [2, x] is the only budget: x = 10^7 + 1 is exactly WINDOW_WIDTH_MAX wide
    with pytest.raises(ValueError, match="window wider than budget"):
        count_pi_k(10**7 + 2, 2)
    with pytest.raises(ValueError):
        count_pi_k(1, 1)
    with pytest.raises(ValueError):
        count_pi_k(30, 0)


def test_omega_histogram_widens_no_omega(monkeypatch):
    # one bool mask per omega value at a time, where np.bincount's int64
    # copy of the uint8 omegas took 8 bytes per integer
    x = 10**6
    window = factor_window(2, x)
    monkeypatch.setattr(cramer_models, "factor_window", lambda lo, hi: window)
    hist, peak = traced_peak(cramer_models._omega_histogram.__wrapped__, x)
    assert hist == tuple(np.bincount(window.omega).tolist())
    assert all(type(c) is int for c in hist)
    assert peak < 2 * x


def test_density_profile_rows_at_each_k():
    for k in (1, 2, 3):
        rows = density_profile([10**3, 10**4, 10**5], k)
        assert [row[:2] for row in rows] == [(10**3, k), (10**4, k), (10**5, k)]
        for x, _, count, shape, ratio in rows:
            assert count == count_pi_k(x, k)
        assert ratio == pytest.approx(count / shape, rel=1e-14)
        assert ratio > 0


# --- the Bernoulli gap model ---

def test_constant_rate_gaps_are_geometric():
    cfg = CramerConfig(rate="custom", custom=((3.0, 2.0), (10**5, 2.0)),
                       N=10**5, trials=20, seed=5)
    rep = simulate_gaps(cfg)
    # geometric(1/2): mean 2, sd sqrt(2)
    sigma_mean = math.sqrt(2.0) / math.sqrt(rep.gap_count)
    assert abs(rep.mean_gap - 2.0) <= 3 * sigma_mean


def test_log_rate_reports_max_ratio_fraction():
    cfg = CramerConfig(rate="log", N=10**5, trials=100, seed=0)
    rep = simulate_gaps(cfg)
    assert rep.trials == 100
    assert len(rep.max_ratios) == 100
    assert all(r >= 0 for r in rep.max_ratios if not math.isnan(r))
    below = rep.count_below(1.5)
    assert 50 <= below <= 100
    assert below == sum(1 for r in rep.max_ratios if r <= 1.5)


def test_simulation_is_deterministic():
    cfg = CramerConfig(rate="log", N=2 * 10**4, trials=10, seed=33)
    a = simulate_gaps(cfg)
    b = simulate_gaps(cfg)
    assert a.max_ratios == b.max_ratios
    for t in range(10):
        bits_a, bits_b = trial_gaps(cfg, t), trial_gaps(cfg, t)
        assert bits_a.dtype == bits_b.dtype == np.uint8
        assert np.array_equal(bits_a, bits_b)
        succ_a, succ_b = trial_successes(cfg, bits_a), trial_successes(cfg, bits_b)
        assert succ_a.dtype == succ_b.dtype == np.int64
        assert np.array_equal(succ_a, succ_b)
    c = simulate_gaps(CramerConfig(rate="log", N=2 * 10**4, trials=10, seed=34))
    assert c.max_ratios != a.max_ratios


def kept_successes(config) -> list[tuple[np.ndarray]]:
    """Each trial's kept successes (succ,), decoded from its bit string."""
    return [(trial_successes(config, trial_gaps(config, t)),) for t in range(config.trials)]


def kept_columns(succ) -> tuple[np.ndarray, np.ndarray]:
    """A trial's kept (S_k, gap) int64 arrays from its successes (succ,)."""
    return succ[:-1], np.diff(succ)


def gap_columns(kept) -> tuple[np.ndarray, ...]:
    """The earlier gaps.csv columns, in GAP_COLUMNS order, concatenated over
    the run from each trial's kept successes (succ,): trial t is the t-th
    entry of kept, k counts that trial's gaps from 1, and S_k and gap come
    from kept_columns."""
    pairs = [kept_columns(succ) for succ, in kept]
    lengths = [len(s_k) for s_k, _ in pairs]
    trial = np.repeat(np.arange(len(kept), dtype=np.int64), lengths)
    k = np.concatenate([np.arange(1, n + 1, dtype=np.int64) for n in lengths])
    return (trial, k, *(np.concatenate(column) for column in zip(*pairs)))


def oracle_trials(config):
    """The earlier trial kernel: each trial's kept (S_k, gap, ratio) arrays,
    the ratio gap / (f(S_k) log S_k) taken over every success and then
    masked by the warmup."""
    ns = np.arange(3, config.N + 1, dtype=np.int64)
    fvals = config.rate_values(ns)
    kept = []
    for t in range(config.trials):
        rng = np.random.Generator(np.random.PCG64(config.seed ^ t))
        hits = rng.random(len(ns)) < 1.0 / fvals
        S = ns[hits]
        gaps = np.diff(S)
        ratios = gaps / (fvals[hits][:-1] * np.log(S[:-1]))
        mask = S[:-1] >= config.warmup_index()
        kept.append((S[:-1][mask], gaps[mask], ratios[mask]))
    return kept


@pytest.mark.parametrize("kwargs", [
    dict(seed=0),
    dict(seed=7),
    dict(seed=12101),
    dict(rate="semiprime", j=2, seed=3),
    dict(scale=1.5, seed=4),
    dict(rate="custom", custom=((3.0, 1.5), (10**3, 8.0), (10**5, 12.0)), seed=5),
], ids=["seed-0", "seed-7", "seed-12101", "semiprime-j2", "scale-1.5", "custom"])
def test_trials_and_max_ratios_match_earlier_kernel(kwargs):
    # default size: N = 10^5, 100 trials
    config = CramerConfig(**{"rate": "log", **kwargs})
    want = oracle_trials(config)
    kept = kept_successes(config)
    for (succ,), (want_s, want_gap, _) in zip(kept, want, strict=True):
        s_k, gap = kept_columns(succ)
        assert s_k.dtype == gap.dtype == np.int64
        assert np.array_equal(s_k, want_s) and np.array_equal(gap, want_gap)
    want_max = [float(r.max()) if len(r) else math.nan for _, _, r in want]
    # bit for bit: the hex form tells apart what == would not
    assert [m.hex() for m in simulate_gaps(config).max_ratios] == \
        [m.hex() for m in want_max]


@pytest.mark.parametrize("block", [8, 24])
@pytest.mark.parametrize("residue", range(8))
def test_bit_strings_decode_to_earlier_kernel_successes(residue, block, monkeypatch):
    # N - 2 = 1000 + residue sites, so the last byte holds 1..8 of them; blocks
    # of 8 and 24 sites make every trial's draw cross many blocks
    monkeypatch.setattr(cramer_models, "DRAW_BLOCK", block)
    config = CramerConfig(rate="log", N=1002 + residue, trials=20, seed=11)
    n_sites = config.N - 2
    for t, (want_s, want_gap, want_ratio) in enumerate(oracle_trials(config)):
        bits = trial_gaps(config, t)
        assert bits.dtype == np.uint8 and bits.shape == (-(-n_sites // 8),)
        # the pad bits of the last byte are clear, so equal trials have equal bytes
        assert not np.unpackbits(bits)[n_sites:].any()
        succ = trial_successes(config, bits)
        s_k, gap = kept_columns(succ)
        assert succ.dtype == np.int64
        assert np.array_equal(s_k, want_s) and np.array_equal(gap, want_gap)
        summary = trial_summary(config, succ)
        assert summary.max_ratio.hex() == float(want_ratio.max()).hex()
        assert summary.gap_count == len(want_gap)
        assert summary.span == int(want_gap.sum())


def test_empty_trial_bit_string():
    config = CramerConfig(rate="custom", custom=((3.0, 1e9), (10**4, 1e9)),
                          N=10**4, trials=1, seed=2)
    bits = trial_gaps(config, 0)
    assert bits.shape == (1250,) and not bits.any()
    succ = trial_successes(config, bits)
    assert succ.dtype == np.int64 and len(succ) == 0
    summary = trial_summary(config, succ)
    assert math.isnan(summary.max_ratio) and summary[1:] == (0, 0)


def test_warmup_at_the_last_success_keeps_it_alone():
    drawn = CramerConfig(rate="log", N=1003, trials=1, seed=5)
    bits = trial_gaps(drawn, 0)
    everything = np.flatnonzero(np.unpackbits(bits, count=1001)) + 3
    assert len(everything) > 1
    last = int(everything[-1])
    # the warmup does not enter the draw, so the same bits under either config
    config = CramerConfig(rate="log", N=1003, trials=1, seed=5, warmup=last)
    assert np.array_equal(trial_gaps(config, 0), bits)
    succ = trial_successes(config, bits)
    assert succ.tolist() == [last]
    summary = trial_summary(config, succ)
    assert isinstance(summary, TrialSummary)
    assert math.isnan(summary.max_ratio) and summary[1:] == (0, 0)
    assert [len(s_k) for s_k, _, _ in oracle_trials(config)] == [0]
    assert simulate_gaps(config).empty_trials == (0,)


@pytest.mark.parametrize("kwargs", [
    dict(),
    dict(rate="semiprime", j=2),
    dict(scale=1.5),
    dict(rate="custom", custom=((3.0, 1.5), (10**3, 8.0), (10**5, 12.0))),
], ids=["log", "semiprime-j2", "scale-1.5", "custom"])
def test_sites_are_the_inverted_rates(kwargs):
    config = CramerConfig(**{"rate": "log", "N": 10**4, **kwargs})
    want = 1.0 / config.rate_values(np.arange(3, config.N + 1, dtype=np.int64))
    assert config.sites.tobytes() == want.tobytes()
    assert not config.sites.flags.writeable


def test_sites_take_two_arrays_of_sites():
    # a float64 arange and the rates taken from it, scaled and inverted in
    # place; the Python objects of the two arrays come on top.  An int64
    # arange, its float64 copy and an out-of-place scale and inversion
    # peaked at three arrays (2.40 MB here).
    config = CramerConfig(rate="log", N=10**5)
    sites, peak = traced_peak(lambda: config.sites)
    assert len(sites) == config.N - 2
    assert peak <= 2 * sites.nbytes + 1024


def test_doubling_rate_roughly_doubles_mean_gap():
    base = simulate_gaps(CramerConfig(rate="log", N=10**5, trials=100, seed=0))
    doubled = simulate_gaps(CramerConfig(rate="log", scale=2.0, N=10**5,
                                         trials=100, seed=0))
    assert 1.7 <= doubled.mean_gap / base.mean_gap <= 2.3


def test_semiprime_rate_j1_equals_log_rate():
    a = CramerConfig(rate="log", N=10**4, trials=3, seed=1)
    b = CramerConfig(rate="semiprime", j=1, N=10**4, trials=3, seed=1)
    assert simulate_gaps(a).max_ratios == simulate_gaps(b).max_ratios


def test_no_successes_flags_empty_report():
    cfg = CramerConfig(rate="custom", custom=((3.0, 1e9), (10**4, 1e9)),
                       N=10**4, trials=4, seed=2)
    rep = simulate_gaps(cfg)
    assert rep.empty()
    assert rep.gap_count == 0
    assert len(rep.empty_trials) == 4
    assert rep.count_below(1.5) == 0


def test_reports_compare_without_raising():
    # a report holds numpy arrays, so == is identity, never an array truth value
    cfg = CramerConfig(N=1000, trials=2, seed=1)
    rep, again = simulate_gaps(cfg), simulate_gaps(cfg)
    assert rep == rep
    assert (rep == again) is False


def test_config_validation():
    with pytest.raises(ValueError):
        CramerConfig(rate="nope")
    with pytest.raises(ValueError):
        CramerConfig(rate="custom", custom=((3.0, 0.5), (100.0, 0.5)), N=1000)
    with pytest.raises(ValueError):
        CramerConfig(rate="log", N=1000, warmup=2)
    with pytest.raises(ValueError):
        CramerConfig(rate="log", N=1000, trials=0)
    with pytest.raises(ValueError):
        CramerConfig(rate="custom", custom=((10.0, 5.0), (3.0, 5.0)), N=1000)


def test_custom_rate_dipping_to_one_between_warmup_and_n_is_refused():
    # the rate is 5 at the warmup (10) and at N but 0.5 at the knot n = 500:
    # site 500 would succeed with "probability" 2
    with pytest.raises(ValueError, match="exceed 1"):
        CramerConfig(rate="custom", custom=((3, 5), (500, 0.5), (1e4, 5)), N=10**4)
    # knots outside [warmup, N] are not probed: below the warmup no gap starts
    config = CramerConfig(rate="custom", custom=((3, 0.5), (10, 5), (1e4, 5), (2e4, 0.5)),
                          N=10**4)
    assert config.sites[config.warmup_index() - 3:].max() <= 0.2


def test_semiprime_rate_dipping_below_one_at_its_turn_is_refused():
    # at j = 2 the rate log n / loglog n is least near n = e^e: scaled by 0.35
    # it is 4.09 at the warmup 3 and 1.65 at N but 0.951 at n = 15, where
    # the site's "probability" would be 1.051
    with pytest.raises(ValueError, match="exceed 1"):
        CramerConfig(rate="semiprime", j=2, scale=0.35, warmup=3, N=10**5)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(st.integers(1, 3), st.floats(0.1, 1.0), st.integers(3, 20), st.integers(60, 3000))
@example(2, 0.35, 3, 3000)
def test_semiprime_config_is_accepted_iff_no_site_exceeds_one(j, scale, warmup, N):
    # at j = 2 a scale from about 0.26 to 0.368 puts the rate below 1 near
    # n = 15 alone, above 1 at the warmup and at N
    ns = np.arange(warmup, N + 1, dtype=np.float64)
    rates = np.log(ns) / np.log(np.log(ns)) ** (j - 1) * scale
    try:
        config = CramerConfig(rate="semiprime", j=j, scale=scale, warmup=warmup, N=N)
    except ValueError:
        assert rates.min() <= 1.0
        return
    assert rates.min() > 1.0
    assert config.sites[warmup - 3:].max() <= 1.0


@pytest.mark.parametrize("kwargs", [
    dict(scale=math.nan),
    dict(scale=math.inf),
    dict(scale=-math.inf),
    dict(rate="custom", custom=((3.0, math.inf), (10**4, 2.0))),
    dict(rate="custom", custom=((3.0, 2.0), (10**4, math.nan))),
    dict(rate="custom", custom=((3.0, 2.0), (math.inf, 2.0))),
    dict(rate="custom", custom=((math.nan, 2.0), (10**4, 2.0))),
], ids=["scale-nan", "scale-inf", "scale-neg-inf", "knot-f-inf", "knot-f-nan",
        "knot-n-inf", "knot-n-nan"])
def test_non_finite_config_is_refused(kwargs):
    with pytest.raises(ValueError, match="finite"):
        CramerConfig(N=10**4, **kwargs)


def test_default_warmup_is_fourth_root():
    cfg = CramerConfig(rate="log", N=10**4)
    assert cfg.warmup_index() == 10
    assert CramerConfig(rate="log", N=10**4, warmup=50).warmup_index() == 50


# --- window searches ---

def test_power_of_two_is_big_omega_witness():
    x = 2**20 + 24
    w = window_search(x, "B-Omega", epsilon=0.5, C=2.0)
    assert w.lo <= 2**20 <= w.hi
    assert w.witness is not None and w.witness >= 2**20
    assert trial_big_omega(w.witness) >= w.threshold


def test_witnesses_verified_against_trial_division():
    w = window_search(10**6, "A-omega", epsilon=1.0, C=2.0)
    assert w.witness is not None
    assert trial_omega(w.witness) == w.value
    assert w.value >= w.threshold


def test_weak_variant_matches_exhaustive_scan():
    x = 10**6
    w = window_search(x, "weak", C0=2.0, d=1.5)
    hits = []
    for n in range(w.lo, x + 1):
        thresh = 2.0 * loglog(n) / math.log(loglog(n))
        if trial_omega(n) >= thresh:
            hits.append(n)
    if hits:
        assert w.witness == max(hits)
    else:
        assert w.witness is None


@pytest.mark.parametrize("variant, kwargs", [
    ("A-omega", dict(epsilon=1.0, C=2.0)),
    ("B-Omega", dict(epsilon=1.0, C=2.0)),
    ("weak", dict(C0=2.0, d=1.5)),
], ids=["A-omega", "B-Omega", "weak"])
def test_wrong_window_count_raises(variant, kwargs, monkeypatch):
    # a window count that trial division does not confirm is a bug, not a witness
    window_of = cramer_models.factor_window

    def inflated(*args):
        w = window_of(*args)
        return WindowOmega(w.lo, w.hi, w.omega + 5, w.big_omega + 5)

    monkeypatch.setattr(cramer_models, "factor_window", inflated)
    with pytest.raises(RuntimeError, match="disagree with trial division"):
        window_search(10**6, variant, **kwargs)


def test_window_clamps_to_two():
    w = window_search(100, "A-omega", epsilon=10.0, C=40.0)
    assert w.lo == 2
    assert w.witness is None or w.witness >= 2


# the six window-search calls of the CLI
CLI_WINDOWS = [
    ("A-omega", dict(epsilon=0.8, C=2.0)), ("A-omega", dict(epsilon=1.2, C=2.0)),
    ("B-Omega", dict(epsilon=0.5, C=2.0)), ("B-Omega", dict(epsilon=1.0, C=2.0)),
    ("weak", dict(C0=2.0, d=1.5)), ("weak", dict(C0=1.2, d=1.01)),
]


def starts_at_least_n_within_width(w) -> bool:
    """lo is the least n with x - n < width, the width computed as
    window_search does; an int compares with a float exactly."""
    width = (math.log(w.x / 2.0) ** w.params["d"] if w.variant == "weak"
             else w.params["C"] * math.log(w.x) * math.sqrt(loglog(w.x)))
    return w.x - w.lo < width <= w.x - (w.lo - 1)


def test_window_starts_at_the_least_n_within_its_width(monkeypatch):
    # at x = 10^15, x - 130.0069 rounds to ...870.0 in doubles, and a window
    # computed there started one integer late
    for variant, kwargs in CLI_WINDOWS:
        w = window_search(10**15, variant, **kwargs)
        assert starts_at_least_n_within_width(w), (variant, kwargs)
    # below 10^16, with empty counts in place of the sieve: no witness, so
    # only the window is computed
    monkeypatch.setattr(cramer_models, "factor_window", lambda lo, hi: WindowOmega(
        lo, hi, np.zeros(hi - lo + 1, np.int64), np.zeros(hi - lo + 1, np.int64)))
    rng = random.Random(34)
    for _ in range(2000):
        x = rng.randrange(100, 10 ** rng.randint(3, 16))
        variant, kwargs = rng.choice(CLI_WINDOWS)
        w = window_search(x, variant, **kwargs)
        assert w.witness is None
        assert starts_at_least_n_within_width(w), (x, variant, kwargs)


def test_degenerate_window_rejected():
    with pytest.raises(ValueError):
        window_search(10**6, "A-omega", epsilon=1.0, C=1e-9)
    with pytest.raises(ValueError):
        window_search(10**6, "weak", C0=2.0, d=-1.0)
    with pytest.raises(ValueError):
        window_search(10**6, "C-sideways", epsilon=1.0, C=1.0)
    with pytest.raises(ValueError):
        window_search(10**6, "A-omega", epsilon=1.0)


def test_missing_witness_keeps_window_metadata():
    w = window_search(10**6, "A-omega", epsilon=10.0, C=1.0)
    assert w.witness is None and w.value is None
    assert w.params == {"epsilon": 10.0, "C": 1.0}
    assert 2 <= w.lo <= w.hi == 10**6


# --- the refuter ---

def test_refuter_first_witness_matches_brute_scan():
    n = 10**8
    res = erdos_style_refuter(n, 0.01, C0=2.0, d=1.5, budget=10**5)
    assert res.k is not None
    for k in range(3, res.k + 1):
        om = trial_omega(n - k)
        thresh = 1.01 * math.log(k) / loglog(k)
        if k < res.k:
            assert om <= thresh
        else:
            assert om > thresh
            assert om == res.omega_value


def test_refuter_primorial_construction():
    # omega(30030) = 6 clears the threshold at the implied shift by a margin
    n = 10**6 + 30030
    k = n - 30030
    assert trial_omega(30030) == 6
    assert 6 > 1.01 * math.log(k) / loglog(k)


def test_refuter_none_within_budget():
    res = erdos_style_refuter(10**6 + 3, delta=50.0, C0=2.0, d=1.5, budget=500)
    assert res.k is None and res.omega_value is None
    assert res.searched_up_to == 500


def test_refuter_chain_recorded_with_window_params():
    res = erdos_style_refuter(10**6 + 7, 0.01, C0=1.2, d=1.01, budget=10**4)
    if res.chain["witness"] is not None and res.chain["k"] is not None:
        k = res.chain["k"]
        want_rhs = (1.0 + (1.2 / 1.01 - 1.0)) * math.log(k) / loglog(k)
        assert res.chain["gap_threshold"] == pytest.approx(want_rhs, rel=1e-12)
        assert isinstance(res.chain["chain_holds"], bool)


def test_refuter_domain_checks():
    with pytest.raises(ValueError):
        erdos_style_refuter(10**5, 0.1, C0=2.0, d=1.5)
    with pytest.raises(ValueError):
        erdos_style_refuter(10**6, -0.5, C0=2.0, d=1.5)


# --- gaps.csv ---

def test_gaps_csv_layout(tmp_path):
    cfg = CramerConfig(rate="log", N=5000, trials=2, seed=7)
    rep = simulate_gaps(cfg)
    path = tmp_path / "gaps.csv"
    _write_gaps_csv(cfg, [trial_gaps(cfg, t) for t in range(cfg.trials)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,k,S_k,gap"
    assert len(lines) == 1 + rep.gap_count
    assert lines[1:] == [",".join(map(str, row)) for row in zip(*(
        column.tolist() for column in gap_columns(kept_successes(cfg))))]


@pytest.mark.parametrize("kwargs", [
    dict(seed=0),
    dict(seed=7),
    # with sites 3..10 only, some trials see fewer than two successes
    dict(N=10, trials=300, warmup=3, seed=0),
    # no gap can start at or beyond the last site
    dict(N=10, trials=5, warmup=10, seed=0),
], ids=["seed-0", "seed-7", "some-empty-trials", "all-empty"])
def test_streamed_gaps_csv_matches_concatenated_oracle(kwargs, tmp_path):
    # default size unless given: N = 10^5, 100 trials
    config = CramerConfig(**{"rate": "log", **kwargs})
    trials = [trial_gaps(config, t) for t in range(config.trials)]
    # the summaries taken in the gaps.csv pass make the one-call report
    rep = gap_report(config, _write_gaps_csv(config, trials, tmp_path / "streamed.csv"))
    assert [m.hex() for m in rep.max_ratios] == \
        [m.hex() for m in simulate_gaps(config).max_ratios]
    columns = gap_columns(kept_successes(config))
    assert rep.gap_count == len(columns[3])
    # bit for bit: the mean numpy takes over the concatenated gaps
    want_mean = float(columns[3].mean()) if len(columns[3]) else math.nan
    assert rep.mean_gap.hex() == want_mean.hex()
    write_csv(tmp_path / "oracle.csv", GAP_COLUMNS, [columns])
    streamed = (tmp_path / "streamed.csv").read_bytes()
    assert streamed == (tmp_path / "oracle.csv").read_bytes()
    if kwargs.get("warmup") == 3:
        assert rep.empty_trials and not rep.empty()
    if kwargs.get("warmup") == 10:
        assert rep.empty() and streamed == b"trial,k,S_k,gap\n"


def test_witness_csv_handles_none(tmp_path):
    # window-search writes one row per search: a search without a hit gets
    # none, one with a hit its witness n <= x
    params = tmp_path / "toy.params"
    params.write_text(TOY_PARAMS)
    out = tmp_path / "out"
    assert ch.main(["window-search", "--params", str(params), "--out", str(out)]) == 0
    lines = (out / "witness.csv").read_text().splitlines()
    assert lines[0] == "x,variant,params,witness_or_none"
    for line in lines[1:]:
        x, variant, spec, witness = line.split(",")
        if (variant, spec) == ("weak", "C0=2.0;d=1.5"):
            assert witness == "none"
        else:
            assert witness.isdigit() and int(witness) <= int(x)
