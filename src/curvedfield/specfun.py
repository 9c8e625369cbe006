"""Special functions: Wigner d/D, spin-weighted harmonics, the spin ladder,
spherical Bessel and Gegenbauer recurrences, conical Legendre values, radial
eigenfunctions for the three curvature models, and zonal spherical functions.

All harmonic values come from one three-term recurrence in l for the Wigner
d^l_{mn}(theta), seeded at l = max(|m|, |n|) by its one-term closed form and
vectorised over m: `spin_harmonic_table(s, L, theta)` takes every m at
n = -s, and `spin_harmonic` and `wigner_d` take one m.  It has no alternating
sum to cancel: d^l_{m0} stays within 5e-14 of scipy through l = 128.  The
public ceiling l <= HARMONIC_L_MAX = 32 comes from synthesis and the radial
table.

Radial eigenfunctions R_kl solve

    (1/f_K^2) (f_K^2 R')' + [k^2 - K - l(l+1)/f_K^2] R = 0

with the per-model normalizations

    open   (K<0): R_kl = sqrt(pi N_kl / (2 w^2 sinh r)) P^{-1/2-l}_{-1/2+iw}(cosh r),
                  w = k/sqrt(-K), r = sqrt(-K) chi, N_kl = prod_{n=0..l} (w^2+n^2)
    flat   (K=0): R_kl = sqrt(2/pi) j_l(k chi)
    closed (K>0): R_kl = sqrt(pi M_wl / (2 (w+1)^2 sin r)) P^{-1/2-l}_{1/2+w}(cos r),
                  w = k/sqrt(K) - 1 integer, r = sqrt(K) chi,
                  M_wl = prod_{n=0..l} ((w+1)^2 - n^2); identically 0 for l > w.

All radial values come from one evaluator, `radial_table(geom, k, L, chi)`,
which returns every l <= L for every k at once; `radial` and
`conical_legendre` are slices of it.  Curved models: upward recursion in l
from the l=0 closed form, written in the scaled variable W_l = R_l / f^l
(f = sinh r or sin r), which obeys

    W'' + 2(l+1) g(r) W' + lam_l W = 0,        g = coth r | cot r,
    lam_l = w^2 + (l+1)^2  (open)  |  (w+1)^2 - (l+1)^2  (closed),

with the raising relation W_{l+1} = -W'_l / (f sqrt(lam_l)).  The recursion
amplifies roundoff like r^{-2} per step when x_eff = (w resp. w+1) * r < l
(same mechanism as upward Bessel recurrences), so below the documented
switch point  x_eff < l+2 and r < 1.5  the code instead sums the regular
power series of W_l about r = 0 (coefficients from the ODE; curvature series
of g via Bernoulli numbers).  The series terms alternate and cancel by a
factor ~exp(sqrt(lam) r), up to ~1e5 near the switch point, so the sum is
accumulated in extended precision.  The table runs that coefficient
recursion once for all (l, k), one ladder sweep storing every l, and one
Horner pass; flat models apply spherical_bessel to the (k, chi) array.
Worst measured error against 40-digit reference values is ~1e-13 for l <= 8
over the full parameter map.  Toward r = 1.5 the cancellation (~1e11 at
l = 19) and the error grow with l: 6.7e-13, 1.9e-11, 9.1e-10, 1.5e-8, 1.2e-6,
6.8e-6 of the row max at l = 8, 14, 19, 24, 28, 32 (K = -1, r in [1.3, 1.5),
k <= min(8, (l+2)/1.5)).  Outside the tested envelope accuracy is guarded by
the ODE residual certification of every (l, k) row.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import AccuracyError, DomainError
from .geometry import Geometry, Kind, f_K, surface_area  # noqa: F401 (re-export)

__all__ = [
    "wigner_d", "wigner_D", "spin_harmonic", "spin_harmonic_table", "eth_ladder",
    "eth_numeric",
    "spherical_bessel", "gegenbauer", "conical_legendre", "radial",
    "radial_table", "zonal_spherical", "f_K", "surface_area",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SERIES_R_MAX = 1.5     # the radial series serves r < 1.5 (and x_eff < l+2), the ladder the rest


# ---------------------------------------------------------------------------
# Wigner matrix elements and spin-weighted harmonics
# ---------------------------------------------------------------------------

# Largest l any harmonic entry point accepts; beyond it they raise DomainError.
# The recurrence itself stays accurate past it (d^l_{m0} within 5e-14 of scipy
# at l = 128), but synthesis takes its l range from this constant, and the
# radial table cannot yet vouch for its rows near l = 32 (module notes).
HARMONIC_L_MAX = 32


def _check_index(l: int, *ms: int):
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    if l > HARMONIC_L_MAX:
        raise DomainError(f"l={l} exceeds the harmonic ceiling l <= {HARMONIC_L_MAX}: "
                          "synthesis takes its l range from it, and radial rows "
                          "beyond it are not certified")
    for m in ms:
        if abs(m) > l:
            raise DomainError(f"index |{m}| > l={l}")


def _d_rows(n: int, L: int, ms, theta: np.ndarray) -> np.ndarray:
    """d^l_{mn}(theta) for every l <= L and every m in ms, shaped
    (L+1, len(ms), theta.size) for a 1-d theta; 0 where l < l0 = max(|m|, |n|).

    The one harmonic evaluator.  Each column starts at l0 from the one-term
    closed form (-1)^max(m-n, 0) sqrt(binom(2 l0, a)) cos^a(theta/2) sin^b(theta/2),
    a = |m+n|, b = |m-n|, and climbs with the three-term recurrence in l
    (Kostelec & Rockmore 2008, "FFTs on the rotation group"):

        l sqrt(((l+1)^2-m^2)((l+1)^2-n^2)) d^{l+1}
            = (2l+1)(l(l+1) cos theta - mn) d^l - (l+1) sqrt((l^2-m^2)(l^2-n^2)) d^{l-1}.
    """
    ms = np.asarray(ms, dtype=int)
    l0 = np.maximum(np.abs(ms), abs(n))
    out = np.zeros((L + 1, ms.size, theta.size))
    i = np.flatnonzero(l0 <= L)                  # the columns that are not all 0
    a, b = np.abs(ms[i] + n), np.abs(ms[i] - n)
    root_binom = np.sqrt([float(math.comb(2 * j, k)) for j, k in zip(l0[i].tolist(), a.tolist())])
    out[l0[i], i] = ((-1.0) ** np.maximum(ms[i] - n, 0) * root_binom)[:, None] \
        * np.cos(theta / 2.0) ** a[:, None] * np.sin(theta / 2.0) ** b[:, None]
    # the step to row l, d^l = (p cos theta - q) d^{l-1} - r d^{l-2}, is the
    # recurrence at l-1, and zero for l <= l0.  Only m = n = 0 climbs at l = 1,
    # where mn and r are 0: the divisor l-1 is kept off 0, and row -1 adds nothing.
    l = np.arange(L + 1.0)[:, None]
    root = np.sqrt(np.maximum((l * l - ms * ms) * (l * l - n * n), 0.0))
    inv_root = (l > l0) / np.where(l > l0, root, 1.0)
    lm1 = np.maximum(l - 1, 1.0)
    p = ((2 * l - 1) * l * inv_root)[..., None]
    q = ((2 * l - 1) * (ms * n) / lm1 * inv_root)[..., None]
    r = (l * np.roll(root, 1, axis=0) / lm1 * inv_root)[..., None]
    c = np.cos(theta)
    for j in range(1, L + 1):
        out[j] += (p[j] * c - q[j]) * out[j - 1] - r[j] * out[j - 2]
    return out


def _on_unique(fn, x) -> np.ndarray:
    """fn evaluated once per distinct value of x (fn maps a sorted 1-d array
    to an array of that size), gathered back to the shape of x."""
    x = np.asarray(x, dtype=float)
    xu = np.unique(x)
    return fn(xu)[np.searchsorted(xu, x)]   # cheaper than unique's argsort inverse


def spin_harmonic_table(s: int, L_max: int, theta) -> np.ndarray:
    """sY_lm(theta, 0) for every l <= L_max and |m| <= l, shaped
    (L_max+1, 2 L_max+1) + theta.shape, with entry [l, L_max + m].

    One recurrence over all l and m: sY_lm(theta, 0) = (-1)^s sqrt((2l+1)/4 pi)
    d^l_{m,-s}(theta).  At s = 0 its max |error| against
    scipy.special.sph_harm_y (all m, 181 theta in [0.01, pi - 0.01]) is
    2.7e-14 at l = 32, as for spin_harmonic, whose docstring has the full table.
    Entries with l < |s| or |m| > l are 0.
    The azimuth separates, sY_lm(theta, phi) = e^{i m phi} sY_lm(theta, 0),
    and a bulk caller passes each distinct theta once.
    L_max > HARMONIC_L_MAX raises DomainError.
    """
    _check_index(L_max)
    theta = np.asarray(theta, dtype=float)
    out = _d_rows(-s, L_max, np.arange(-L_max, L_max + 1), theta.ravel())
    out *= ((-1.0) ** s * np.sqrt((2 * np.arange(L_max + 1) + 1) / (4.0 * math.pi)))[:, None, None]
    return out.reshape(out.shape[:2] + theta.shape)


def wigner_d(l: int, m: int, n: int, theta):
    """Reduced Wigner matrix element d^l_{mn}(theta).

    The row l of the recurrence in l at this (m, n), once per distinct theta;
    d^l_{mn}(theta) = (-1)^n sqrt(4 pi/(2l+1)) {-n}Y_lm(theta, 0).

    Sign convention: d(0) is the identity, d^1_{10} = -sin(theta)/sqrt(2),
    and rows compose, d(t1) @ d(t2) = d(t1 + t2).

    Max |error| of d^l_{m0} over all m and 181 theta in [0.01, pi - 0.01],
    against sqrt(4 pi/(2l+1)) Y_lm(theta, 0) from scipy.special.sph_harm_y:

        l       8        16       24       32
        error   2.4e-15  4.6e-15  7.8e-15  1.2e-14

    l > HARMONIC_L_MAX = 32 raises DomainError.
    """
    _check_index(l, m, n)
    return _on_unique(lambda t: _d_rows(n, l, [m], t)[l, 0], theta)[()]


def wigner_D(l: int, m: int, n: int, phi, theta, psi):
    """Full matrix element D^l_{mn}(phi, theta, psi) = e^{-i(m phi + n psi)} d^l_{mn}(theta)."""
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    return np.exp(-1j * (m * phi + n * psi)) * wigner_d(l, m, n, theta)


def spin_harmonic(s: int, l: int, m: int, theta, phi):
    """Spin-weight-s spherical harmonic sY_lm(theta, phi).

        sY_lm(theta, phi) = (-1)^s sqrt((2l+1)/4 pi) d^l_{m,-s}(theta) e^{i m phi},

    that is wigner_d(l, m, -s, theta) once per distinct theta, with the
    phase once per distinct phi.

    s=0 reduces to the ordinary Y_lm with Condon-Shortley phase.  The ladder
    operators act with coefficients +sqrt((l-s)(l+s+1)) (raise) and
    -sqrt((l+s)(l-s+1)) (lower), and conjugation obeys
    conj(sY_lm) = (-1)^{s+m} {-s}Y_{l,-m}.
    Max |error| of spin_harmonic(0, l, m) over all m and 181 theta in
    [0.01, pi - 0.01], against scipy.special.sph_harm_y:

        l       8        16       24       32
        error   2.8e-15  7.3e-15  1.5e-14  2.7e-14

    l > HARMONIC_L_MAX = 32 or |s| > l raises DomainError.
    """
    d = wigner_d(l, m, -s, theta)
    return d * ((-1.0) ** s * math.sqrt((2 * l + 1) / (4.0 * math.pi))) \
        * _on_unique(lambda p: np.exp(1j * m * p), phi)


def eth_ladder(s: int, l: int, direction: str) -> float:
    """Ladder coefficient of the spin raising/lowering operator on sY_lm.

    raise: eth sY_lm = sqrt((l-s)(l+s+1)) {s+1}Y_lm
    lower: eth* sY_lm = -sqrt((l+s)(l-s+1)) {s-1}Y_lm

    Out-of-ladder rungs (target spin beyond l) give 0.
    """
    if direction == "raise":
        rad = (l - s) * (l + s + 1)
        return math.sqrt(rad) if rad > 0 else 0.0
    if direction == "lower":
        rad = (l + s) * (l - s + 1)
        return -math.sqrt(rad) if rad > 0 else 0.0
    raise DomainError(f"direction must be 'raise' or 'lower', got {direction!r}")


def eth_numeric(values: np.ndarray, s: int, theta: np.ndarray, phi: np.ndarray,
                lmax: int | None = None):
    """Finite-difference spin raising operator on a tensor (theta, phi) grid.

    eth = s cot(theta) - d/dtheta - (i/sin theta) d/dphi, applied with
    second-order central differences.  Cross-check oracle for eth_ladder;
    boundary rows use one-sided stencils and should be discarded by callers.
    """
    values = np.asarray(values)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if values.shape != (theta.size, phi.size):
        raise DomainError("values must be shaped (len(theta), len(phi))")
    if lmax is not None and (theta.size < 4 * lmax or phi.size < 4 * lmax):
        raise DomainError(
            f"grid {theta.size}x{phi.size} too coarse to resolve lmax={lmax} "
            f"(need >= {4 * lmax} points per axis)")
    dth = np.gradient(values, theta, axis=0, edge_order=2)
    dph = np.gradient(values, phi, axis=1, edge_order=2)
    cot = (np.cos(theta) / np.sin(theta))[:, None]
    inv_sin = (1.0 / np.sin(theta))[:, None]
    return s * cot * values - dth - 1j * inv_sin * dph


# ---------------------------------------------------------------------------
# Spherical Bessel and Gegenbauer recurrences
# ---------------------------------------------------------------------------

def spherical_bessel(l: int, x):
    """Spherical Bessel function j_l(x) for x >= 0.

    Upward recurrence for x >= l (stable), Miller-style downward recurrence
    with renormalization for x < l, series for very small x.
    """
    if l < 0:
        raise DomainError("l must be >= 0")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise DomainError("x must be finite and >= 0")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    # series region: term ratio x^2/(2(2l+3)) <= 0.01, so 8 terms reach
    # machine precision; x^l/(2l+1)!! >= j_l keeps the leading factor from
    # underflowing before the function itself does, unlike the downward
    # recurrence whose renormalization products span a wider range
    tiny = x * x <= 0.02 * (2 * l + 3)
    if np.any(tiny):
        xt = x[tiny]
        dfact = 1.0
        for n in range(3, 2 * l + 2, 2):
            dfact *= n
        term = np.ones_like(xt)
        acc = np.ones_like(xt)
        for j in range(1, 9):
            term = term * (-0.5 * xt * xt) / (j * (2 * l + 2 * j + 1))
            acc += term
        out[tiny] = xt ** l / dfact * acc

    up = (~tiny) & (x >= l)
    if np.any(up):
        xu = x[up]
        jm1 = np.sin(xu) / xu
        if l == 0:
            out[up] = jm1
        else:
            j = jm1 / xu - np.cos(xu) / xu
            for n in range(1, l):
                jm1, j = j, (2 * n + 1) / xu * j - jm1
            out[up] = j

    down = (~tiny) & (x < l)
    if np.any(down):
        xd = x[down]
        start = l + 40 + int(np.max(xd))
        jp1 = np.zeros_like(xd)
        j = np.full_like(xd, 1e-30)
        stored = np.zeros_like(xd)
        stored_scale = np.ones_like(xd)
        for n in range(start, 0, -1):
            jm1 = (2 * n + 1) / xd * j - jp1
            jp1, j = j, jm1
            if n - 1 == l:
                stored = j.copy()
            big = np.abs(j) > 1e250
            if np.any(big):
                fac = np.where(big, 1e-250, 1.0)
                j = j * fac
                jp1 = jp1 * fac
                if n - 1 <= l:
                    stored_scale = stored_scale * fac
        j0 = np.sin(xd) / xd
        j1 = j0 / xd - np.cos(xd) / xd
        # normalize by whichever reference is better conditioned
        use0 = np.abs(j0) >= np.abs(j1)
        ref_true = np.where(use0, j0, j1)
        ref_tilde = np.where(use0, j, jp1)
        out[down] = stored * stored_scale * (ref_true / ref_tilde)
    return out[0] if scalar else out


def gegenbauer(p: int, q: int, x):
    """Gegenbauer polynomial C^p_q(x) on [-1, 1] by the three-term recurrence

        (n+1) C_{n+1} = 2 (n+p) x C_n - (n+2p-1) C_{n-1},  C_0 = 1, C_1 = 2 p x.
    """
    if p < 1 or q < 0:
        raise DomainError("need p >= 1 and q >= 0")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise DomainError("x outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    c_prev = np.ones_like(x)
    if q == 0:
        return c_prev
    c = 2.0 * p * x
    for n in range(1, q):
        c_prev, c = c, (2.0 * (n + p) * x * c - (n + 2 * p - 1) * c_prev) / (n + 1)
    return c


# ---------------------------------------------------------------------------
# Radial eigenfunctions: one all-l table (series + scaled upward ladder)
# ---------------------------------------------------------------------------

# coth r = 1/r + sum_n G_n r^{2n-1}; cot r has (-1)^n G_n.  G_n = 4^n B_2n/(2n)!, n <= 30, as
# scipy.special.bernoulli(60) gives them (G_2 is 1.7e-12 off -1/45): exact ones move every table.
_COTH_SERIES = np.array([
    0.3333333333333333, -0.02222222222218394, 0.0021164021164019877,
    -0.00021164021164020956, 2.1377799155576894e-05, -2.1644042808063964e-06,
    2.1925947851873788e-07, -2.2214608789979695e-08, 2.2507846516809015e-09,
    -2.2805151204592207e-10, 2.3106432599002653e-11, -2.3411706819824915e-12,
    2.372101740023369e-13, -2.4034415333307743e-14, 2.4351954029183403e-15,
    -2.467368804517211e-16, 2.4999672771220844e-17, -2.5329964357406384e-18,
    2.5664619702826326e-19, -2.600369646013732e-20, 2.634725304415384e-21,
    -2.6695348641573993e-22, 2.704804322109036e-23, -2.740539754369957e-24,
    2.776747317316449e-25, -2.8134332486618855e-26, 2.850603868531298e-27,
    -2.888265580550181e-28, 2.926424872947682e-29, -2.9650883196743716e-30])


def _lam(sign: int, omega, j):
    # eigen-parameter of the scaled ODE at rung j
    return omega * omega + (j + 1) ** 2 if sign < 0 else (omega + 1.0) ** 2 - (j + 1) ** 2


def _series_table(sign: int, omega: np.ndarray, L: int):
    """Power series of every row about r = 0: W_l(r) = w0[l, q] sum_j c[j, l, q] r^{2j}.

    c is kept in extended precision: the alternating sum cancels by up to
    ~exp(sqrt(lam) r) and would lose 4-5 digits in double.  Row l keeps
    max(60, 3l+40) terms, and w0 = W_l(0) = sqrt(prod_{n<l} lam_n) / (2l+1)!!.
    """
    last = np.maximum(60, 3 * np.arange(L + 1) + 40)
    jmax = int(last[-1])
    g = _COTH_SERIES.astype(np.longdouble)
    if sign > 0:
        g = g * (-1.0) ** np.arange(1, g.size + 1)
    ls = np.arange(L + 1)[:, None]
    lam = _lam(sign, omega[None, :], ls)                      # (L+1, n_k)
    two_l1 = 2.0 * (ls + 1)
    # a[n-1, mm] = 2(l+1) g_n 2 mm, rounded in the order of the scalar recursion
    a = two_l1 * g[:, None, None, None] * 2.0 * np.arange(jmax + 1)[:, None, None]
    c = np.zeros((jmax + 1,) + lam.shape, dtype=np.longdouble)
    c[0] = 1.0
    neg_lam = -lam.astype(np.longdouble)
    for j in range(jmax):
        lo = int(np.searchsorted(last, j + 1))                # rows that keep term j+1
        n = np.arange(1, min(j, g.size) + 1)                  # mm = j+1-n >= 1
        terms = np.concatenate([(neg_lam[lo:] * c[j, lo:])[None],
                                a[n - 1, j + 1 - n, lo:] * c[j + 1 - n, lo:]])
        c[j + 1, lo:] = (np.subtract.reduce(terms, axis=0)  # sequential, as the scalar sum
                         / ((2 * j + 2) * (2 * j + 1) + two_l1[lo:] * (2 * j + 2)))
    w0 = np.sqrt(np.cumprod(np.vstack([np.ones_like(omega), lam[:-1]]), axis=0))
    for l in range(1, L + 1):
        for n in range(3, 2 * l + 2, 2):
            w0[l] /= n
    return c, w0


def _curved_table(sign: int, s: float, omega: np.ndarray, L: int, series, chi) -> np.ndarray:
    """Rows R_0..R_L, shaped (L+1, n_k, n_chi), of the open (sign=-1) or
    closed (+1) model at radii chi, which broadcast against omega[:, None]."""
    c, w0 = series
    r = np.broadcast_to(s * chi, np.broadcast_shapes(omega[:, None].shape, chi.shape))
    om = np.broadcast_to(omega[:, None], r.shape)
    fn, dfn = (np.sinh, np.cosh) if sign < 0 else (np.sin, np.cos)
    if sign > 0:
        # reflection R(pi - r) = (-1)^(omega - l) R(r); evaluate on [0, pi/2]
        refl = r > math.pi / 2.0
        r = np.where(refl, math.pi - r, r)
    a = om if sign < 0 else om + 1.0
    xeff, small = a * r, r < _SERIES_R_MAX
    out = np.empty((L + 1,) + r.shape)

    # series points (xeff < l+2, r < 1.5) only grow with l: one Horner pass
    # over row L's points serves every row
    S = (xeff < L + 2) & small
    qs = np.nonzero(S)[0]
    x = (r[S] * r[S]).astype(np.longdouble)
    acc = c[-1][:, qs] + x * 0
    for cj in c[-2::-1]:
        acc = cj[:, qs] + acc * x
    ws, fs = (w0[:, qs] * acc).astype(float), fn(r[S])

    # ladder points: all that leave the series at l = 0, swept upward once
    P = ~((xeff < 2) & small)
    rl, al, oml = r[P], a[P], om[P]
    f, df = fn(rl), dfn(rl)
    # seed: W_0 = sin(a r)/(a f(r)) and its derivative, sinc-safe at a=0
    sinc = rl * np.sinc(al * rl / math.pi)  # = sin(a r)/a
    w = sinc / f
    dw = (np.cos(al * rl) * f - sinc * df) / (f * f)
    # closed rungs past omega divide by beta = 0; those rows are zeroed below
    with np.errstate(divide="ignore", invalid="ignore"):
        for l in range(L + 1):
            if l > 0:
                beta = np.sqrt(_lam(sign, oml, l - 1))
                w_next = -dw / (f * beta)
                dw = -(2 * l + 1) * (df / f) * w_next + beta * w / f
                w = w_next
            out[l][P] = w * f ** l
            sl = (xeff < l + 2) & small
            out[l][sl] = ws[l][sl[S]] * fs[sl[S]] ** l
    if sign > 0:
        ls = np.arange(L + 1)[:, None, None]
        out = np.where(om < ls, 0.0, out * np.where(refl, (-1.0) ** (om - ls), 1.0))
    return out


def _flat_table(k: np.ndarray, L: int, chi: np.ndarray) -> np.ndarray:
    x = k[:, None] * chi
    return np.stack([_SQRT_2_OVER_PI * spherical_bessel(l, x) for l in range(L + 1)])


def _certify(geom: Geometry, k: np.ndarray, chi: np.ndarray, R: np.ndarray, table,
             cert_tol: float):
    """Helmholtz residual of every nonzero (l, k) row on 5-point stencils at
    the 0.35 and 0.75 quantiles of chi lying 4h inside the domain; else at the
    middle of that range, or its lower end when the grid is shorter; one within
    3h of the series/ladder switch moves 3h past it onto the ladder.  The
    residual is scaled by k^2 + |K| + l(l+1)/f_K^2 + 1 (|lambda| cancels near
    the turning point) times the larger of max|R| over chi and the stencil."""
    L = R.shape[0] - 1
    h = np.minimum(0.02, 0.02 / np.sqrt(k * k + abs(geom.K) + 1.0))
    if geom.kind is not Kind.FLAT:
        h = np.minimum(h, 0.02 / geom.curvature_scale)
    lo = 4.0 * h
    hi = (geom.chi_max if math.isfinite(geom.chi_max) else float(np.max(chi)) + 4.0 * h) - 4.0 * h
    q = np.quantile(chi, [0.35, 0.75])
    ok = (lo[:, None] <= q) & (q <= hi[:, None])                      # (n_k, 2)
    use = ok | (~ok.any(axis=1)[:, None] & (np.arange(2) == 0))
    chi0 = np.where(ok, q, np.maximum(0.5 * (lo + hi), lo)[:, None])
    switches = {Kind.OPEN: [(_SERIES_R_MAX, 1.0)], Kind.FLAT: [],      # (r, ladder side)
                Kind.CLOSED: [(_SERIES_R_MAX, 1.0), (math.pi - _SERIES_R_MAX, -1.0)]}
    for r_sw, side in switches[geom.kind]:
        sw, h3 = r_sw / geom.curvature_scale, 3.0 * h[:, None]
        chi0 = np.where(np.abs(chi0 - sw) < h3, sw + side * h3, chi0)
    stencil = chi0[:, :, None] + h[:, None, None] * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    probe = table(stencil.reshape(k.size, 10)).reshape(L + 1, k.size, 2, 5)
    R0, R1, R2, R3, R4 = np.moveaxis(probe, -1, 0)
    hh = h[:, None]
    d1 = (R0 - 8 * R1 + 8 * R3 - R4) / (12 * hh)
    d2 = (-R0 + 16 * R1 - 30 * R2 + 16 * R3 - R4) / (12 * hh * hh)
    fk = f_K(geom, chi0)
    dlog = {Kind.OPEN: np.cosh, Kind.CLOSED: np.cos}.get(geom.kind, np.ones_like)(
        geom.curvature_scale * chi0) / fk                                # f_K' / f_K
    ls = np.arange(L + 1)[:, None, None]
    k2, cf = (k * k)[:, None], ls * (ls + 1) / (fk * fk)          # cf: centrifugal term
    lam, terms = k2 - geom.K - cf, k2 + abs(geom.K) + cf + 1.0
    resid = np.abs(d2 + 2.0 * dlog * d1 + lam * R2)
    rmax = np.max(np.abs(R), axis=2)[:, :, None]
    # the larger of max|R| over the samples and over the stencil: a short grid
    # can sample a row only near its zeros
    scale = np.maximum(rmax, np.max(np.abs(probe), axis=3))
    # rows whose samples are all 0 (closed l > omega, l > 0 at chi = 0 alone)
    # have nothing to certify; a NaN anywhere in a row fails it
    bad = use & (rmax != 0.0) & ~(resid <= cert_tol * terms * scale)
    if np.any(bad):
        l, iq, ip = np.argwhere(bad)[0]
        raise AccuracyError(
            f"radial ODE residual {resid[l, iq, ip]:.2e} exceeds {cert_tol:.0e}*scale "
            f"at chi={chi0[iq, ip]:.4g} ({geom.kind.value}, k={k[iq]}, l={l})")


def radial_table(geom: Geometry, k, L_max: int, chi, check: bool = True,
                 cert_tol: float = 1e-6) -> np.ndarray:
    """R_kl(chi) for every l <= L_max and every k, shaped (L_max+1, k.size) + chi.shape.

    The one radial evaluator (see the module notes); closed rows with
    l > omega are exactly 0.  check=True certifies every nonzero (l, k) row:
    the Helmholtz ODE residual on probe stencils must stay below cert_tol
    times the term magnitudes k^2 + |K| + l(l+1)/f_K^2 + 1 times max|R_kl|
    (over chi and the stencil), else AccuracyError.
    """
    if L_max < 0:
        raise DomainError("l must be >= 0")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.ndim != 1 or not np.all(np.isfinite(k) & (k >= 0)):
        raise DomainError("k must be finite and >= 0")
    chi = geom.check_chi(chi)
    if geom.kind is Kind.FLAT:
        table = partial(_flat_table, k, L_max)
    else:
        sign = -1 if geom.kind is Kind.OPEN else 1
        omega = geom.omega_of_k(k)
        table = partial(_curved_table, sign, geom.curvature_scale, omega, L_max,
                        _series_table(sign, omega, L_max))
    R = table(chi.reshape(1, -1))
    if check and chi.size > 0:
        _certify(geom, k, chi.ravel(), R, table, cert_tol)
    return R.reshape(R.shape[:2] + chi.shape)


def radial(geom: Geometry, k: float, l: int, chi, check: bool = True,
           cert_tol: float = 1e-6):
    """Radial eigenfunction R_kl(chi) in the per-model normalization: the
    slice radial_table(geom, k, l, chi)[l, 0], certified with the rows below
    it when check=True.  Bulk callers should build one radial_table."""
    return radial_table(geom, k, l, chi, check, cert_tol)[l, 0][()]


def conical_legendre(omega: float, l: int, r) -> np.ndarray:
    """Associated Legendre function of the first kind on the cut,
    P^{-1/2-l}_{-1/2+i omega}(cosh r), real for real omega >= 0.

    Recovered from the normalized open-model radial eigenfunction:
    P = R_l(r) sqrt(2 sinh r / (pi prod_{n=1..l} (omega^2+n^2))).
    """
    if omega < 0 or not math.isfinite(omega):
        raise DomainError("omega must be finite and >= 0")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("r must be > 0")
    u = radial_table(Geometry.open(-1.0), omega, l, r, check=False)[l, 0]
    norm = math.prod(omega * omega + n * n for n in range(1, l + 1))
    return u * np.sqrt(2.0 * np.sinh(r) / (math.pi * norm))


# ---------------------------------------------------------------------------
# Zonal spherical functions
# ---------------------------------------------------------------------------

# Bulk callers reduce zonal tables one row block at a time; a block holds at
# most this many elements, so no (n_omega, n_r) table is ever held whole.
ZONAL_BLOCK = 1 << 16


def zonal_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices covering range(n_rows); each spans at most ZONAL_BLOCK
    elements of an n_cols-column table, and at least one row."""
    step = max(1, ZONAL_BLOCK // max(n_cols, 1))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _x_over(fn, sign: float, r: np.ndarray) -> np.ndarray:
    """r/fn(r) for fn = sinh (sign=-1) or sin (sign=+1, r in [0, pi/2]), series-safe at r=0."""
    out = np.empty_like(r)
    small = r < 1e-4
    rs = r[small]
    out[small] = 1.0 + sign * rs * rs / 6.0 + 7.0 * rs ** 4 / 360.0
    rb = r[~small]
    out[~small] = rb / fn(rb)
    return out


def _sin_over(x: np.ndarray) -> np.ndarray:
    """sin(x)/x for x >= 0, exactly 1 at x = 0; overwrites x."""
    np.maximum(x, np.finfo(float).tiny, out=x)       # sin(tiny) == tiny
    out = np.sin(x)
    out /= x
    return out


def _supplementary(tau: float, r: np.ndarray) -> np.ndarray:
    if not 0.0 < tau <= 1.0:
        raise DomainError("supplementary series needs omega = i tau, tau in (0, 1]")
    # sinh(tau r)/(tau sinh r); bounded by 1, exp-safe for large r
    return np.where(r < 1e-4,
                    1.0 + (tau * tau - 1.0) * r * r / 6.0,
                    np.exp((tau - 1.0) * r) * (1 - np.exp(-2 * tau * r))
                    / (tau * (1 - np.exp(-2 * r))))


def zonal_spherical(geom: Geometry, omega, r):
    """Zonal spherical function Phi_omega(r) on the scaled radius r.

        open   : sin(omega r)/(omega sinh r); supplementary series
                 omega = i tau, tau in (0, 1]: sinh(tau r)/(tau sinh r)
        flat   : sin(omega r)/(omega r)
        closed : sin((omega+1) r)/((omega+1) sin r), omega = 0, 1, 2, ...

    Normalized so Phi_omega(0) = 1; |Phi| <= 1 on the principal series.

    A scalar omega gives values shaped like r.  A 1-d array of real omega
    (principal or closed series) gives the table shaped (omega.size,) +
    r.shape, row i holding Phi_omega[i]; the supplementary series takes a
    scalar only.  Both use the separable form sin(a r)/(a r) * r/f(r), with
    a = omega (open, flat) or omega+1 (closed) and f = sinh, 1 or sin, so
    r/f(r) is evaluated once per call and each table entry costs one sine.
    The closed model is evaluated at min(r, pi - r) and takes the factor
    (-1)^omega past pi/2, which keeps its accuracy near the antipode.  Bulk
    callers (the sft transforms, randfield.analytic_correlation) request
    the table in zonal_blocks row blocks of at most ZONAL_BLOCK elements and
    reduce each block with a matrix product.
    """
    r = np.asarray(r, dtype=float)
    shape_r, r = r.shape, r.ravel()
    if np.any(r < 0):
        raise DomainError("r must be >= 0")
    w = np.asarray(omega)
    if w.ndim > 1:
        raise DomainError("omega must be a scalar or a 1-d array")
    if np.iscomplexobj(w):
        if geom.kind is Kind.OPEN and w.ndim == 0 and w.imag != 0.0:
            if w.real != 0.0:
                raise DomainError(
                    "omega must be real (principal) or purely imaginary (supplementary)")
            return _supplementary(float(w.imag), r).reshape(shape_r)[()]
        if np.any(w.imag != 0.0):
            raise DomainError("only the open model has a supplementary series, "
                              "at a scalar omega = i tau")
        w = w.real
    shape_w, w = w.shape, w.astype(float).ravel()
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise DomainError(f"omega must be finite and >= 0, got {omega}")

    if geom.kind is Kind.CLOSED:
        if np.any(r > math.pi * (1 + 1e-12)):
            raise DomainError("closed-model scaled radius r exceeds pi")
        wr = np.round(w)
        if np.any(np.abs(w - wr) > 1e-9):
            raise DomainError(f"closed model needs integer omega >= 0, got {omega}")
        refl = r > math.pi / 2.0
        r = np.where(refl, math.pi - r, r)
        vals = _sin_over(np.multiply.outer(wr + 1.0, r))
        vals *= _x_over(np.sin, 1.0, r)
        flip = np.ix_(wr % 2 == 1, refl)          # Phi(pi - r) = (-1)^omega Phi(r)
        vals[flip] = -vals[flip]
    else:
        vals = _sin_over(np.multiply.outer(w, r))
        if geom.kind is Kind.OPEN:
            vals *= _x_over(np.sinh, -1.0, r)
    return vals.reshape(shape_w + shape_r)[()]
