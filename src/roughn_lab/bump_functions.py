"""Smooth cutoff machinery.

Builds the even bump eta with eta(0)=1 and nonnegative Fourier profile as the
normalized autocorrelation of a compactly supported base bump, the twisted
cutoff eta_tilde(u) = exp(-u) * eta(u), the numeric Fourier transform
eta_hat(t) = (1/2pi) * integral eta(u) exp(itu) du, and the normalization
constant c0 by two independent routes (time side and frequency side).

All integrals are composite Simpson on uniform grids.  The base bump is flat
to every order at the edge of its support, so these quadratures converge
faster than any power of the step; the self-checks below measure that rather
than assume it.

c0's two routes are diagonal sums, not full matrices.  The time route samples
the base once per residue of its refinement.  The frequency route uses that
the kernel 1 - (2+2tt')/(4+(t+t')^2) equals (2+t^2+t'^2)/(4+(t+t')^2) and that
on the uniform t grid t_i + t_j depends on i+j only, so its sum is one
convolution, taken by real FFT.  The eta_hat grid is one chirp-z transform of
eta's samples: u and t both sit on uniform grids, so t*u is affine in the
product of their indices.  The time route's sums, and eta_value's and
eta_prime_value's sums over the base grid, run through correlate_fixed and
1-D einsum; the real FFTs' spectra are multiplied by real ufuncs on their
parts.  None of it calls BLAS, so c0's bytes and the weight coefficients do
not move with the BLAS build or its thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

BASE_HALF_WIDTH = 0.5


def standard_base(u):
    """exp(-1/(1-4u^2)) inside (-1/2, 1/2), zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < BASE_HALF_WIDTH
    v = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - 4.0 * v * v))
    return out


def standard_base_prime(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < BASE_HALF_WIDTH
    v = u[inside]
    q = 1.0 - 4.0 * v * v
    out[inside] = np.exp(-1.0 / q) * (-8.0 * v) / (q * q)
    return out


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("composite Simpson needs an odd point count >= 3")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


@dataclass(frozen=True)
class BumpSpec:
    """Cached grids for one bump construction.  Immutable and reentrant."""

    grid_points: int
    h: float
    t_max: float
    t_points: int
    norm: float
    u_grid: np.ndarray
    eta: np.ndarray
    eta_tilde: np.ndarray
    eta_tilde_prime: np.ndarray
    t_grid: np.ndarray
    eta_hat_grid: np.ndarray
    base_weights: np.ndarray  # simpson weights * base values on the base grid
    base_grid: np.ndarray


def make_bump(
    grid_points: int = 4097,
    t_max: float = 200.0,
    t_points: int = 4001,
) -> BumpSpec:
    """Build the normalized autocorrelation bump and cache its sample grids.

    grid_points covers [-1, 1] and must be 1 mod 4 so that both the full grid
    and the half grids carry composite Simpson rules.
    """
    if grid_points < 257 or grid_points % 4 != 1:
        raise ValueError("grid_points must be >= 257 and congruent to 1 mod 4")
    if t_points < 251 or t_points % 4 != 1:
        raise ValueError("t_points must be >= 251 and congruent to 1 mod 4")
    if not (t_max > 0 and np.isfinite(t_max)):
        raise ValueError("t_max must be positive and finite")

    h = 2.0 / (grid_points - 1)
    u_grid = -1.0 + h * np.arange(grid_points)
    nb = (grid_points - 1) // 2 + 1  # base grid point count on [-1/2, 1/2]
    base_grid = -BASE_HALF_WIDTH + h * np.arange(nb)
    # extended grid covering w + u for w in the base support, u in [-1, 1]
    ext_grid = -1.5 + h * np.arange(3 * (grid_points - 1) // 2 + 1)
    b_ext = standard_base(ext_grid)
    bp_ext = standard_base_prime(ext_grid)
    b0 = b_ext[(grid_points - 1) // 2 : (grid_points - 1) // 2 + nb]
    wb = simpson_weights(nb, h) * b0

    windows = np.lib.stride_tricks.sliding_window_view(b_ext, nb)
    corr = windows @ wb  # autocorrelation on u_grid
    windows_p = np.lib.stride_tricks.sliding_window_view(bp_ext, nb)
    corr_prime = windows_p @ wb

    norm = float(corr[(grid_points - 1) // 2])
    if not np.isfinite(norm) or norm <= 0:
        raise RuntimeError(f"autocorrelation normalization came out {norm}")
    # enforce exact evenness; the correlation of an even base is even
    corr = 0.5 * (corr + corr[::-1])
    corr_prime = 0.5 * (corr_prime - corr_prime[::-1])

    eta = corr / norm
    eta_prime = corr_prime / norm
    decay = np.exp(-u_grid)
    eta_tilde = decay * eta
    eta_tilde_prime = decay * (eta_prime - eta)
    # the extended base grids are not held through the eta_hat transform
    del ext_grid, b_ext, bp_ext, windows, windows_p, corr, corr_prime, eta_prime, decay

    t_grid = np.linspace(0.0, t_max, t_points)
    eta_hat_grid = _eta_hat_on_grid(eta, h, 0.0, t_grid[1], t_points)

    spec = BumpSpec(
        grid_points=grid_points,
        h=h,
        t_max=float(t_max),
        t_points=t_points,
        norm=norm,
        u_grid=u_grid,
        eta=eta,
        eta_tilde=eta_tilde,
        eta_tilde_prime=eta_tilde_prime,
        t_grid=t_grid,
        eta_hat_grid=eta_hat_grid,
        base_weights=wb,
        base_grid=base_grid,
    )
    if abs(eta_value(0.0, spec) - 1.0) > 1e-12:
        raise RuntimeError("eta(0) failed to normalize to 1")
    if eta_hat_grid.min() < -1e-10:
        raise RuntimeError(
            f"eta_hat dipped to {eta_hat_grid.min():.3e}; should be >= 0 up to quadrature noise"
        )
    return spec


def correlate_fixed(seq, w, count):
    """out[i] = sum_k seq[i+k] * w[k] for i < count.

    numpy's own sum-of-products loop over a sliding-window view, with no BLAS
    call, so the bytes do not depend on the BLAS build, its thread count or
    the arrays' alignment.
    """
    windows = np.lib.stride_tricks.sliding_window_view(seq, len(w))[:count]
    return np.einsum("ij,j->i", windows, np.ascontiguousarray(w))


def _smooth_length(n: int) -> int:
    """The least integer >= n with no prime factor above 5: an FFT length
    pocketfft splits into radix-2, -3 and -5 passes."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _multiply_spectra(a, b):
    """a *= b for complex arrays, by real ufuncs on the parts: numpy's own
    complex multiply picks an FMA loop on some CPUs, and so moves the bytes."""
    ai_bi = a.imag * b.imag
    ai_br = a.imag * b.real
    np.multiply(a.real, b.imag, out=a.imag)
    a.imag += ai_br  # ar*bi + ai*br
    a.real *= b.real
    a.real -= ai_bi  # ar*br - ai*bi


def _cos_sums(f, h, t0, ht, count):
    """sum_k f[k] cos(t_j u_k) with u_k = k*h, at t_j = t0 + j*ht for j < count.

    t_j u_k = t0 u_k + a*j*k with a = ht*h, and jk = (j^2 + k^2 - (j-k)^2)/2,
    so each term is f_k cos(phi_j + theta_k - phi_{j-k}) with phi_m = a m^2/2
    and theta_k = t0 u_k + phi_k.  By the angle-sum formulas the sum is
    cos(phi_j) P_j - sin(phi_j) Q_j with P = conv(c, C) + conv(s, S) and
    Q = conv(s, C) - conv(c, S), for c = f cos(theta), s = f sin(theta) and
    the chirps C = cos(phi), S = sin(phi): a chirp-z (Bluestein) transform in
    real arithmetic, by real FFTs of a 5-smooth length.
    """
    n = len(f)
    size = _smooth_length(count + n - 1)
    phi = np.arange(max(count, n), dtype=float)  # a m^2 / 2
    np.multiply(phi, phi, out=phi)
    phi *= 0.5 * ht * h
    theta = t0 * (h * np.arange(n)) + phi[:n]
    c = np.fft.rfft(f * np.cos(theta), size)
    s = np.fft.rfft(f * np.sin(theta), size)
    del theta

    def chirp_spectrum(chirp):  # the chirp at m < count, and at size - m for 0 < m < n
        wrapped = np.zeros(size)
        wrapped[:count] = chirp[:count]
        wrapped[size - n + 1:] = chirp[n - 1:0:-1]
        return np.fft.rfft(wrapped)

    cos_chirp, sin_chirp = chirp_spectrum(np.cos(phi)), chirp_spectrum(np.sin(phi))
    p, q = c.copy(), s.copy()
    for product, chirp in ((p, cos_chirp), (q, cos_chirp), (s, sin_chirp), (c, sin_chirp)):
        _multiply_spectra(product, chirp)
    p += s  # the spectra of conv(c, C) + conv(s, S)
    q -= c  # and of conv(s, C) - conv(c, S)
    del c, s, cos_chirp, sin_chirp
    p = np.fft.irfft(p, size)[:count]
    q = np.fft.irfft(q, size)[:count]
    return np.cos(phi[:count]) * p - np.sin(phi[:count]) * q


def _eta_hat_on_grid(eta_samples, h, t0, ht, count):
    """(1/2pi) * Simpson sum of eta(u) cos(tu) over make_bump's u grid, at
    t = t0 + j*ht for j < count.

    eta is even and the u grid symmetric about its middle point, so the u < 0
    half is folded onto u = k*h >= 0 and the cosine sums are one _cos_sums.
    """
    wu = simpson_weights(len(eta_samples), h) * eta_samples
    mid = len(eta_samples) // 2
    folded = np.concatenate([wu[mid : mid + 1], wu[mid + 1 :] + wu[mid - 1 :: -1]])
    del wu
    out = _cos_sums(folded, h, t0, ht, count)
    out /= 2.0 * np.pi
    return out


def eta_value(u, spec: BumpSpec):
    """eta at arbitrary points, by Simpson over the cached base grid."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    points = arr[:, None] + spec.base_grid[None, :]
    vals = np.einsum("ij,j->i", standard_base(points), spec.base_weights) / spec.norm
    vals[np.abs(arr) >= 1.0] = 0.0
    return vals if np.ndim(u) else float(vals[0])


def eta_prime_value(u, spec: BumpSpec):
    """eta' at arbitrary points, differentiated under the convolution integral."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    points = arr[:, None] + spec.base_grid[None, :]
    vals = np.einsum("ij,j->i", standard_base_prime(points), spec.base_weights) / spec.norm
    vals[np.abs(arr) >= 1.0] = 0.0
    return vals if np.ndim(u) else float(vals[0])


def eta_tilde(u, spec: BumpSpec):
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    vals = np.exp(-arr) * eta_value(arr, spec)
    return vals if np.ndim(u) else float(vals[0])


def eta_tilde_prime(u, spec: BumpSpec):
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    vals = np.exp(-arr) * (eta_prime_value(arr, spec) - eta_value(arr, spec))
    return vals if np.ndim(u) else float(vals[0])


def _symmetric_t_grid(spec: BumpSpec, extend_to: float = 0.0):
    """Symmetric t grid with eta_hat values, optionally extended past t_max.

    The t >= 0 half, the cached grid then any extension, is written into the
    upper half of each returned array and mirrored into its lower half, so
    no piece is concatenated."""
    ht = spec.t_grid[1] - spec.t_grid[0]
    n_extra = 0
    if extend_to > spec.t_max:
        n_extra = int(np.ceil((extend_to - spec.t_max) / ht))
        if n_extra % 2:
            n_extra += 1  # keep the total point count odd
    m = spec.t_points + n_extra
    ts, hs = np.empty(2 * m - 1), np.empty(2 * m - 1)
    pos_t, pos_h = ts[m - 1 :], hs[m - 1 :]
    pos_t[: spec.t_points] = spec.t_grid
    pos_h[: spec.t_points] = spec.eta_hat_grid
    if n_extra:
        extra_t = pos_t[spec.t_points :]  # t_max + ht * (1, ..., n_extra)
        np.multiply(ht, np.arange(1, n_extra + 1), out=extra_t)
        np.add(spec.t_max, extra_t, out=extra_t)
        pos_h[spec.t_points :] = _eta_hat_on_grid(spec.eta, spec.h, extra_t[0], ht, n_extra)
    np.negative(pos_t[:0:-1], out=ts[: m - 1])
    hs[: m - 1] = pos_h[:0:-1]
    return ts, hs, ht


@dataclass(frozen=True)
class C0Result:
    c0_time: float
    c0_freq: float
    err_time: float
    err_freq: float

    def combined_error(self) -> float:
        return self.err_time + self.err_freq


def _time_route(spec: BumpSpec, refine: int) -> float:
    """integral over [0,1] of eta_tilde'(u)^2 with step h/refine.

    For u_j = j*h/refine with j = q*refine + r, u_j + b_k lies on the base
    grid shifted by u_r: u_r - 1/2 + (q+k)*h.  So each residue r samples the
    base and its derivative once on that shifted grid, and eta, eta' at its
    u's are correlations with the base weights.
    """
    n = (spec.grid_points - 1) // 2 * refine + 1
    us = np.linspace(0.0, 1.0, n)
    diff = np.empty(n)  # eta' - eta
    for r in range(refine):
        count = len(range(r, n, refine))
        xs = us[r] - BASE_HALF_WIDTH + spec.h * np.arange(count + len(spec.base_weights) - 1)
        eta_r = correlate_fixed(standard_base(xs), spec.base_weights, count) / spec.norm
        eta_p = correlate_fixed(standard_base_prime(xs), spec.base_weights, count) / spec.norm
        diff[r::refine] = eta_p - eta_r
    diff[us >= 1.0] = 0.0  # as eta_value: eta vanishes at |u| >= 1
    vals = np.exp(-us) * diff
    return float(np.einsum("i,i->", simpson_weights(n, us[1] - us[0]), vals * vals))


def _freq_route(ts, hs, ht, size) -> float:
    """The double Simpson sum of (1 - (2+2tt')/(4+(t+t')^2)) eta_hat(t) eta_hat(t').

    The kernel equals (2+t^2+t'^2)/(4+(t+t')^2), and (2+t^2+t'^2) =
    (1+t^2) + (1+t'^2), so by the t <-> t' symmetry the sum is
    2 * sum_{i,j} (1+t_i^2) wh_i wh_j g(t_i + t_j) with g(s) = 1/(4+s^2).
    On the uniform t grid t_i + t_j = 2*t_0 + (i+j)*ht depends on i+j only:
    the sum is 2 * sum_k g(s_k) c_k with c = conv((1+t^2) wh, wh).

    c is one real-FFT product, zero-padded to size >= 2*len(ts) - 1; g is
    computed in place, with the ufuncs of the expression in the comment, in
    its order.
    """
    n = len(ts)
    wh = simpson_weights(n, ht)
    wh *= hs
    wh_spectrum = np.fft.rfft(wh, size)
    p = np.multiply(ts, ts)  # (1.0 + ts * ts) * wh
    np.add(1.0, p, out=p)
    p *= wh
    del wh
    spectrum = np.fft.rfft(p, size)
    del p
    _multiply_spectra(spectrum, wh_spectrum)
    del wh_spectrum
    c = np.fft.irfft(spectrum, size)[: 2 * n - 1]
    del spectrum
    g = np.arange(2 * n - 1, dtype=float)  # s = 2.0 * ts[0] + ht * arange; 1.0 / (4.0 + s * s)
    np.multiply(ht, g, out=g)
    np.add(2.0 * ts[0], g, out=g)
    np.multiply(g, g, out=g)
    np.add(4.0, g, out=g)
    np.divide(1.0, g, out=g)
    return 2.0 * float(np.einsum("i,i->", g, c))


def c0_compute(spec: BumpSpec) -> C0Result:
    """The normalization constant by both routes, with measured error estimates.

    Time route: integral_0^1 eta_tilde'(u)^2 du, Richardson-checked by halving
    the step.  Frequency route: the double integral of
    (1+it)(1+it') / (2+i(t+t')) eta_hat(t) eta_hat(t'), whose real part is
    (1 - (2+2tt')/(4+(t+t')^2)) eta_hat(t) eta_hat(t'); checked by halving the
    t resolution and by extending the truncation past t_max.
    """
    i_coarse = _time_route(spec, 1)
    i_fine = _time_route(spec, 2)
    c0_time = i_fine
    err_time = abs(i_fine - i_coarse) + 1e-12

    ts, hs, ht = _symmetric_t_grid(spec)
    ts_x, hs_x, _ = _symmetric_t_grid(spec, extend_to=1.25 * spec.t_max)
    # one FFT length for the three sums: numpy keeps a plan per length it has seen
    size = _smooth_length(2 * len(ts_x) - 1)
    s_base = _freq_route(ts, hs, ht, size)
    s_coarse = _freq_route(ts[::2], hs[::2], 2 * ht, size)
    s_ext = _freq_route(ts_x, hs_x, ht, size)
    c0_freq = s_ext
    err_freq = abs(s_base - s_coarse) + 2.0 * abs(s_ext - s_base) + 1e-10

    for name, v in (("c0_time", c0_time), ("c0_freq", c0_freq)):
        if not np.isfinite(v):
            raise RuntimeError(f"{name} quadrature returned {v}")
    result = C0Result(c0_time=c0_time, c0_freq=c0_freq, err_time=err_time, err_freq=err_freq)
    if result.c0_time < 1.0 - 1e-9:
        raise RuntimeError(
            f"c0_time={result.c0_time} violates the lower bound 1 (err {err_time:.2e})"
        )
    if abs(result.c0_time - result.c0_freq) > result.combined_error():
        raise RuntimeError(
            "dual-route disagreement "
            f"{abs(c0_time - c0_freq):.3e} exceeds combined estimate {result.combined_error():.3e}"
        )
    return result


def fourier_inverse_check(spec: BumpSpec, us) -> tuple[float, float]:
    """Max deviation of the plain and twisted inversions at the given u's."""
    ts, hs, ht = _symmetric_t_grid(spec)
    wh = simpson_weights(len(ts), ht) * hs
    worst_plain = 0.0
    worst_twist = 0.0
    for u in np.atleast_1d(us):
        u = float(u)
        plain = float(wh @ np.cos(ts * u))
        twisted = complex((wh * np.exp(-(1.0 + 1j * ts) * u)).sum())
        worst_plain = max(worst_plain, abs(plain - eta_value(u, spec)))
        worst_twist = max(
            worst_twist, abs(twisted - eta_tilde(u, spec)), abs(twisted.imag)
        )
    return worst_plain, worst_twist
