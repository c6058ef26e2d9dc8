import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from memory_helpers import traced_peak

import roughn_lab
from roughn_lab import cli_harness as ch
from roughn_lab.bump_functions import (
    _freq_route,
    _smooth_length,
    _symmetric_t_grid,
    _time_route,
    c0_compute,
    eta_tilde,
    eta_tilde_prime,
    eta_value,
    fourier_inverse_check,
    make_bump,
    simpson_weights,
    standard_base,
)


# --- independent oracles ---

def autocorrelation_oracle(u, h=1e-5):
    """eta(u) by direct convolution quadrature at step h, no cached grids."""
    n = int(round(1.0 / h))
    if n % 2:
        n += 1
    w = np.linspace(-0.5, 0.5, n + 1)
    wts = simpson_weights(n + 1, w[1] - w[0])
    num = wts @ (standard_base(w) * standard_base(w + u))
    den = wts @ (standard_base(w) ** 2)
    return num / den


def filon_cos_oracle(f, a, b, t, n_half):
    """Filon's composite cosine rule with 2*n_half panels (A&S 25.4.47 form)."""
    n = 2 * n_half
    x = np.linspace(a, b, n + 1)
    h = x[1] - x[0]
    th = t * h
    s, c = np.sin(th), np.cos(th)
    alpha = (th * th + th * s * c - 2 * s * s) / th**3
    beta = 2 * (th * (1 + c * c) - 2 * s * c) / th**3
    gamma = 4 * (s - th * c) / th**3
    fx = f(x)
    ce = fx[::2] @ np.cos(t * x[::2]) - 0.5 * (fx[-1] * np.cos(t * b) + fx[0] * np.cos(t * a))
    co = fx[1::2] @ np.cos(t * x[1::2])
    return h * (alpha * (fx[-1] * np.sin(t * b) - fx[0] * np.sin(t * a)) + beta * ce + gamma * co)


def time_route_oracle(spec, refine):
    """integral over [0,1] of eta_tilde'(u)^2 with step h/refine, through
    eta_tilde_prime at every point: the full u x base-grid matrix."""
    n = (spec.grid_points - 1) // 2 * refine + 1
    us = np.linspace(0.0, 1.0, n)
    vals = eta_tilde_prime(us, spec)
    return float(simpson_weights(n, us[1] - us[0]) @ (vals * vals))


def freq_route_oracle(ts, hs, ht, chunk=512):
    """The frequency-side double sum with the kernel evaluated on the full
    t x t' matrix, block by block."""
    wh = simpson_weights(len(ts), ht) * hs
    total = 0.0
    for a in range(0, len(ts), chunk):
        ta = ts[a : a + chunk][:, None]
        fac = 1.0 - (2.0 + 2.0 * ta * ts[None, :]) / (4.0 + (ta + ts[None, :]) ** 2)
        total += float(wh[a : a + chunk] @ (fac @ wh))
    return total


def eta_hat_oracle(ts, u_grid, eta_samples, h, chunk=256):
    """(1/2pi) * Simpson sum of eta(u) cos(tu) over the whole u grid."""
    wu = simpson_weights(len(u_grid), h) * eta_samples
    out = np.empty(len(ts))
    for a in range(0, len(ts), chunk):
        block = np.asarray(ts[a : a + chunk])
        out[a : a + chunk] = np.cos(np.outer(block, u_grid)) @ wu
    return out / (2.0 * np.pi)


def eta_hat_fold(ts, u_grid, eta_samples, h):
    """(1/2pi) * Simpson sum of eta(u) cos(tu) over u_grid, at any t's.

    eta is even and u_grid symmetric about its middle point, so the u < 0
    half is folded onto u > 0 and the cosines are taken over u >= 0 only.
    The cosines of 8 t values at a time fill one reused block buffer."""
    wu = simpson_weights(len(u_grid), h) * eta_samples
    mid = len(u_grid) // 2
    folded = np.concatenate([wu[mid : mid + 1], wu[mid + 1 :] + wu[mid - 1 :: -1]])
    u_pos = u_grid[mid:]
    out = np.empty(len(ts))
    buf = np.empty((min(len(ts), 8), len(u_pos)))
    for a in range(0, len(ts), 8):
        block = buf[: len(ts) - a]
        np.multiply.outer(ts[a : a + 8], u_pos, out=block)
        np.cos(block, out=block)
        out[a : a + 8] = np.einsum("ij,j->i", block, folded)
    out /= 2.0 * np.pi
    return out


def eta_hat(t, spec):
    """eta_hat at arbitrary |t| <= t_max, by the direct cosine fold."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.abs(arr) > spec.t_max):
        raise ValueError(f"|t| beyond cached truncation t_max={spec.t_max}")
    vals = eta_hat_fold(np.abs(arr), spec.u_grid, spec.eta, spec.h)
    return vals if np.ndim(t) else float(vals[0])


@pytest.fixture(scope="module", params=["default", "fast"])
def any_spec(request, bump_spec):
    """The full default bump and the reduced one the table builders use."""
    return bump_spec if request.param == "default" else make_bump(**ch._FAST_BUMP)


def test_eta_basic_values(bump_spec):
    assert eta_value(0.0, bump_spec) == pytest.approx(1.0, abs=1e-12)
    assert eta_value(1.5, bump_spec) == 0.0
    assert eta_value(-2.0, bump_spec) == 0.0
    assert eta_value(1.0, bump_spec) == 0.0


def test_eta_against_high_resolution_oracle(bump_spec):
    for u in (0.3, 0.5, 0.05, 0.91):
        assert eta_value(u, bump_spec) == pytest.approx(autocorrelation_oracle(u), abs=1e-10)


def test_eta_even_and_supported(bump_spec):
    us = np.linspace(0.0, 1.2, 61)
    vp = eta_value(us, bump_spec)
    vm = eta_value(-us, bump_spec)
    assert np.max(np.abs(vp - vm)) <= 1e-14
    assert np.all(vp[us >= 1.0] == 0.0)
    assert np.all(eta_tilde(us + 1.0, bump_spec) == 0.0)


def test_eta_tilde_values(bump_spec):
    assert eta_tilde(0.0, bump_spec) == pytest.approx(1.0, abs=1e-12)
    assert eta_tilde(2.0, bump_spec) == 0.0
    expected = np.exp(-0.5) * autocorrelation_oracle(0.5)
    assert eta_tilde(0.5, bump_spec) == pytest.approx(expected, abs=1e-10)


def test_eta_tilde_prime_matches_difference_quotient(bump_spec):
    # 5-point central differences of eta_tilde vs the analytic derivative route
    d = 1e-3
    for u in (0.12, 0.43, 0.77, -0.31):
        stencil = (
            8 * (eta_tilde(u + d, bump_spec) - eta_tilde(u - d, bump_spec))
            - (eta_tilde(u + 2 * d, bump_spec) - eta_tilde(u - 2 * d, bump_spec))
        ) / (12 * d)
        assert eta_tilde_prime(u, bump_spec) == pytest.approx(stencil, abs=1e-8)


def test_eta_hat_inversion_at_zero(bump_spec):
    ht = bump_spec.t_grid[1] - bump_spec.t_grid[0]
    full = np.concatenate([-bump_spec.t_grid[::-1][:-1], bump_spec.t_grid])
    vals = np.concatenate([bump_spec.eta_hat_grid[::-1][:-1], bump_spec.eta_hat_grid])
    integral = simpson_weights(len(full), ht) @ vals
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_eta_hat_even(bump_spec):
    assert eta_hat(3.7, bump_spec) == eta_hat(-3.7, bump_spec)


def test_eta_hat_nonnegative_on_grid(bump_spec):
    assert bump_spec.eta_hat_grid.min() >= -1e-10


def test_eta_hat_against_filon_oracle(bump_spec):
    oracle = filon_cos_oracle(
        lambda x: eta_value(x, bump_spec), -1.0, 1.0, 10.0, n_half=2 * (bump_spec.grid_points - 1) // 2
    ) / (2 * np.pi)
    assert eta_hat(10.0, bump_spec) == pytest.approx(oracle, abs=1e-10)


def test_eta_hat_out_of_range(bump_spec):
    with pytest.raises(ValueError, match="beyond cached truncation"):
        eta_hat(bump_spec.t_max + 1.0, bump_spec)


def test_fourier_and_twisted_inversion(bump_spec):
    rng = np.random.default_rng(20240811)
    us = rng.uniform(-0.999, 0.999, 20)
    plain, twisted = fourier_inverse_check(bump_spec, us)
    assert plain <= 1e-6
    assert twisted <= 1e-6


def test_profile_self_convergence(bump_spec):
    finer = make_bump(grid_points=2 * (bump_spec.grid_points - 1) + 1, t_points=bump_spec.t_points)
    assert np.max(np.abs(finer.eta_hat_grid - bump_spec.eta_hat_grid)) < 1e-8
    assert np.max(np.abs(finer.eta[::2] - bump_spec.eta)) < 1e-10


def test_c0_dual_routes(bump_spec):
    res = c0_compute(bump_spec)
    assert res.c0_time >= 1.0 - 1e-9
    assert abs(res.c0_time - res.c0_freq) <= res.combined_error()
    assert abs(res.c0_time - res.c0_freq) / res.c0_time <= 1e-6


@pytest.mark.parametrize("refine", [1, 2, 3])
def test_time_route_matches_full_grid_oracle(any_spec, refine):
    got = _time_route(any_spec, refine)
    want = time_route_oracle(any_spec, refine)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("grid", ["base", "coarse", "extended"])
def test_freq_route_matches_full_matrix_oracle(any_spec, grid):
    extend_to = 1.25 * any_spec.t_max if grid == "extended" else 0.0
    ts, hs, ht = _symmetric_t_grid(any_spec, extend_to=extend_to)
    if grid == "coarse":
        ts, hs, ht = ts[::2], hs[::2], 2 * ht
    ts_x = _symmetric_t_grid(any_spec, extend_to=1.25 * any_spec.t_max)[0]
    got = _freq_route(ts, hs, ht, _smooth_length(2 * len(ts_x) - 1))  # c0_compute's length
    want = freq_route_oracle(ts, hs, ht)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_eta_hat_fold_matches_full_grid_oracle(any_spec):
    # the chirp-z grid, and the extension past t_max that c0's frequency
    # route adds, against the cosine sum over the whole u grid
    spec = any_spec
    want = eta_hat_oracle(spec.t_grid, spec.u_grid, spec.eta, spec.h)
    assert np.max(np.abs(spec.eta_hat_grid - want)) <= 1e-14
    ts, hs, _ = _symmetric_t_grid(spec, extend_to=1.25 * spec.t_max)
    extension = slice(len(ts) // 2 + spec.t_points, None)
    assert len(ts[extension]) > 0
    want = eta_hat_oracle(ts[extension], spec.u_grid, spec.eta, spec.h)
    assert np.max(np.abs(hs[extension] - want)) <= 1e-14


def test_make_bump_and_c0_compute_traced_peaks(bump_spec):
    # make_bump() defaults: 4097 u against 4001 t.  The eta_hat grid is one
    # chirp-z transform by real FFTs of 6075 points (six half spectra of
    # 48 KiB); c0's largest frequency sum is a real FFT of 20250 points.
    # Peaks were 0.79 MB and 0.85 MB with the 8-row cosine block and the
    # sliding-window convolution, and 0.64 MB and 0.78 MB here.
    _, peak = traced_peak(make_bump)
    assert peak < 700_000
    _, peak = traced_peak(c0_compute, bump_spec)
    assert peak < 800_000


# fixed inputs made with + - * / only: numpy picks its exp loop by CPU
# feature, so eta's own samples would move with the dispatch
DISPATCH_PROBE = """\
import hashlib
import numpy as np
from roughn_lab.bump_functions import _cos_sums, _freq_route, simpson_weights
k = np.arange(2049.0)
f = simpson_weights(2049, 1.0 / 2048) / (1.0 + k * k / 1e4)
sums = [_cos_sums(f, 1.0 / 2048, t0, 0.05, count) for t0, count in ((0.0, 4001), (200.05, 1000))]
ts = np.linspace(-250.0, 250.0, 10001)
q = 1.0 + ts * ts
print(*[hashlib.sha256(s.tobytes()).hexdigest() for s in sums],
      _freq_route(ts, 1.0 / (q * q), ts[1] - ts[0], 20250).hex())
"""


def test_fft_kernels_hold_their_bytes_without_dispatched_loops():
    # the chirp-z and real-FFT kernels in a child process whose numpy runs
    # its baseline loops only: every SIMD target the host supports disabled
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches no loop beyond its baseline on this host")
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(DISPATCH_PROBE, {})
    src = str(Path(roughn_lab.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets), PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    still_on = ("from numpy._core._multiarray_umath import __cpu_features__\n"
                f"print(*[t for t in {targets!r} if __cpu_features__[t]])\n")
    proc = subprocess.run([sys.executable, "-c", DISPATCH_PROBE + still_on], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == printed.getvalue() + "\n"


def test_c0_freq_integrand_nonnegative(bump_spec):
    rng = np.random.default_rng(99)
    t = rng.uniform(-bump_spec.t_max, bump_spec.t_max, 300)
    tp = rng.uniform(-bump_spec.t_max, bump_spec.t_max, 300)
    factor = 1.0 - (2.0 + 2.0 * t * tp) / (4.0 + (t + tp) ** 2)
    assert np.all(factor >= 0.0)  # equals (2+t^2+t'^2)/(4+(t+t')^2) >= 0
    hv = eta_hat(t, bump_spec) * eta_hat(tp, bump_spec)
    assert np.all(factor * hv >= -1e-9)


def test_make_bump_rejects_bad_grids():
    with pytest.raises(ValueError):
        make_bump(grid_points=100)
    with pytest.raises(ValueError):
        make_bump(t_max=-3.0)


def test_profile_csvs(tmp_path, bump_spec):
    # the c0 subcommand writes both profiles of the default bump
    assert ch.main(["c0", "--out", str(tmp_path)]) == 0
    head1 = (tmp_path / "eta_profile.csv").read_text().splitlines()
    head2 = (tmp_path / "eta_hat_profile.csv").read_text().splitlines()
    assert head1[0] == "u,eta,eta_tilde,eta_tilde_prime"
    assert head2[0] == "t,eta_hat"
    assert len(head1) == bump_spec.grid_points + 1
    assert len(head2) == bump_spec.t_points + 1
    # formatting is 17 significant digits; the u=0 row carries eta=1 exactly
    mid = head1[1 + (bump_spec.grid_points - 1) // 2].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == pytest.approx(1.0, abs=1e-12)
