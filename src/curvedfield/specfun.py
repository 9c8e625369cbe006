"""Special functions: Wigner d/D, spin-weighted harmonics, the spin ladder,
spherical Bessel and Gegenbauer recurrences, conical Legendre values, radial
eigenfunctions for the three curvature models, and zonal spherical functions.

All harmonic values come from one three-term recurrence in l for the Wigner
d^l_{mn}(theta), seeded at l = max(|m|, |n|) by its one-term closed form and
vectorised over m: `spin_harmonic_table(s, L, theta)` takes every m at
n = -s, and `spin_harmonic` and `wigner_d` take one m.  It has no alternating
sum to cancel: d^l_{m0} stays within 5e-14 of scipy through the public
ceiling l <= HARMONIC_L_MAX = 128.

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
which returns every l <= L for every k at once; `radial`, `conical_legendre`
and `spherical_bessel` are slices of it.  Every row comes from one
three-term recurrence in l, the hyperspherical Bessel recurrence (Kosowsky
1998, astro-ph/9805173; Tram 2017, arXiv:1311.0839):

    a_{l+1} R_{l+1} = (2l+1) g R_l - a_l R_{l-1},    a_l = sqrt(w^2 - kappa l^2),

with kappa = -1 and g = coth r (open), kappa = 1, g = cot r and w + 1 for w
(closed), and kappa = 0, g = 1/r, w = 1 and r = k chi (flat), started from
the closed forms R_0 = sin(w r)/(w f) and R_1 = (g sin(w r)/w - cos(w r))/(a_1 f),
f = sinh r, sin r or r.  One estimate, shared by the models, picks each
(k, chi) column's direction: past the turning point in l the regular row
shrinks by e^-eta per rung while the other solution grows by e^eta, with
cosh eta = (2l+1) g / (2 sqrt(a_l a_{l+1})).

- Upward from R_0 and R_1 where that sweep amplifies roundoff by at most e^5
  (2 sum eta over the rungs below L, plus the cancellation in the R_1 seed).
- Otherwise Miller's downward sweep from R_{N+1} = 0, at the first rung N
  from which the other solution decays by e^40 on the way down to row L,
  normalised to the closed-form R_0, or to R_1 where |R_0| < |R_1|.  At
  large l eta tends to arccosh(coth r), so the start converges by only
  e^(2 eta) = 1.6 per rung at r = 2.1, and no fixed margin serves.  Where N
  would lie more than 4 (L + 16) rungs out, the column sweeps upward, whose
  roundoff grows as slowly.
- Closed columns sweep down from l = omega, where a_{omega+1} = 0 makes the
  start exact (or from N, if lower); rows l > omega are +0.0, and
  R(pi - r) = (-1)^(omega - l) R(r) keeps r <= pi/2.

Rows estimated to lie e^700 below R_0 read 0, and radii below the smallest
normal double count as the origin.  check=True certifies the table from
the recurrence: each column is swept again, downward from the rung where
the other solution decays by e^80, upward from seeds kicked by 2^-46 of
their size, and the two tables must agree within cert_tol of each row's max
over chi (at least 2^-20 of the largest row at each sample).  A column
whose start cannot move keeps its rows: a closed start on omega is exact,
and the addition theorem test checks it.

Max error against rows in 1700-digit arithmetic, relative to each row's max
over 16 radii (rows whose max is above 1e-290): open K = -1 and flat at 12
nodes of gauss_legendre_grid(0, 8, 24, 12) with chi in [0, 3]; closed K = 1
at omega + 1 in {1, 3, 8, 20, 41, 80, 130} with chi in [0, 3.1].

    L        32       64       128
    open     1.3e-12  2.7e-12  9.4e-14
    flat     2.6e-15  5.8e-15  1.2e-14
    closed   4.7e-14  4.7e-14  4.8e-14
"""
from __future__ import annotations

import math

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


# ---------------------------------------------------------------------------
# Wigner matrix elements and spin-weighted harmonics
# ---------------------------------------------------------------------------

# Largest l any harmonic entry point accepts, and so the largest l synthesis
# draws; beyond it they raise DomainError.
HARMONIC_L_MAX = 128


def _check_index(l: int, *ms: int):
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l}")
    if l > HARMONIC_L_MAX:
        raise DomainError(f"l={l} exceeds the harmonic ceiling l <= {HARMONIC_L_MAX}, "
                          "the l range of synthesis")
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

        l       8        16       24       32       64       128
        error   2.4e-15  4.6e-15  7.8e-15  1.2e-14  3.3e-14  5.0e-14

    l > HARMONIC_L_MAX = 128 raises DomainError.
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

        l       8        16       24       32       64       128
        error   2.8e-15  7.3e-15  1.5e-14  2.7e-14  1.0e-13  2.2e-13

    l > HARMONIC_L_MAX = 128 or |s| > l raises DomainError.
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
    """Spherical Bessel function j_l(x) for x >= 0: row l of the flat model's
    radial recurrence (module notes) at unit wavenumber, once per distinct x."""
    if l < 0:
        raise DomainError("l must be >= 0")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise DomainError("x must be finite and >= 0")
    return _on_unique(lambda xu: _rows(Kind.FLAT, np.ones(xu.size), xu, l, 1)[0][l], x)[()]


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
# Radial eigenfunctions: one three-term recurrence in l
# ---------------------------------------------------------------------------

_GAIN = 40.0       # a Miller start lies e^40 of decay of the other solution past the top row
_UP = 5.0          # a column sweeps upward while its roundoff can grow by at most e^5
_REACH = 4         # ... or while its Miller start would lie over 4 (L + 16) rungs past the top
_FLOOR = 700.0     # rows more than e^700 below R_0 are 0, under the normal range
_KICK = 2.0 ** -46  # relative seed perturbation of an upward column's second sweep
_BLOCK = 8         # rungs of the start-rung search before it extrapolates
_KAPPA = {Kind.OPEN: -1.0, Kind.FLAT: 0.0, Kind.CLOSED: 1.0}


def _eta(kappa: float, w2, g, l):
    """Log growth per rung of the recurrence at rung l, broadcast over columns
    (w2 = w^2, g) and rungs: cosh eta = (2l+1) g / (2 sqrt(a_l a_{l+1})), and
    eta = 0 where the rung oscillates.  Past the turning point the regular row
    shrinks by about e^-eta per rung while the other solution grows by e^eta.
    A closed rung l = omega has a_{l+1} = 0 and eta = inf."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = (l + 0.5) * g / np.sqrt(np.sqrt((w2 - kappa * l * l) * (w2 - kappa * (l + 1.0) ** 2)))
        c = np.maximum(c, 1.0)
        return np.log(c + np.sqrt(c * c - 1.0))     # arccosh c, in half of np.arccosh's time


def _start_rungs(kappa: float, w2, g, top, stop, gains):
    """Miller start rungs N of each column, one per gain: the first rung from
    which the other solution decays by e^gain on its way down to top, or stop
    (closed: omega) where that comes first.  Past the first _BLOCK rungs eta
    rises toward its limit, so the last of them bounds the rungs still to go.
    Also returns the estimated log growth of the row from N down to top."""
    e = _eta(kappa, w2, g, top + np.arange(_BLOCK)[:, None])
    grown = np.cumsum(e, axis=0)
    Ns, growth = [], []
    for gain in gains:
        hit = grown >= 0.5 * gain
        j, got = np.argmax(hit, axis=0), hit.any(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            N = np.where(got, top + j, top + _BLOCK + np.ceil((0.5 * gain - grown[-1]) / e[-1]))
        Ns.append(np.minimum(N, stop))
        growth.append(np.where(got & (j > 0), grown[j - 1, np.arange(top.size)], 0.5 * gain * ~got))
    return Ns, growth


def _upward(kappa: float, w2, g, R0, R1, L: int, kick: float) -> np.ndarray:
    """Rows 0..L climbed from the closed-form seeds R_0, R_1, which are first
    moved by kick (R_0, R_1) -> (R_0 - kick R_1, R_1 + kick R_0)."""
    rows = np.empty((L + 1, g.size))
    rows[0] = R0 - kick * R1
    rows[1:2] = R1 + kick * R0
    a = np.sqrt(w2 - kappa)
    for l in range(1, L):
        a_up = np.sqrt(w2 - kappa * (l + 1) ** 2)
        rows[l + 1] = ((2 * l + 1) * g * rows[l] - a * rows[l - 1]) / a_up
        a = a_up
    return rows


def _downward(kappa: float, w2, g, R0, R1, top, N, d_N, L: int):
    """Miller's sweep: R_{N+1} = 0 and R_N = e^-D_N, with D_N the estimated log
    size of R_0 / R_N (it keeps R_0 below e^300), down to row 0, normalised to
    the closed-form R_0, or to R_1 where |R_0| < |R_1|; rows above top are 0.
    Returns the rows with their columns in the order it swept them, and that order."""
    order = np.argsort(-N, kind="stable")         # the columns still sweeping are a prefix
    N, w2, g, top = N[order], w2[order], g[order], top[order]
    seed = np.exp(-np.minimum(d_N[order], 600.0))
    rows = np.zeros((L + 1, N.size))
    cur, nxt, spare, a_up = (np.zeros(N.size) for _ in range(4))
    on = 0
    for l in range(int(N[0]) if N.size else 0, 0, -1):
        new = np.searchsorted(-N, -l, side="right")
        cur[on:new] = seed[on:new]
        on = new
        if l <= L:
            rows[l, :on] = cur[:on]
        step, a = spare[:on], np.sqrt(w2[:on] - kappa * l * l)
        np.multiply(g[:on], cur[:on], out=step)
        step *= 2 * l + 1
        nxt[:on] *= a_up[:on]
        step -= nxt[:on]
        step /= a                                 # R_{l-1}
        cur, nxt, spare = spare, cur, nxt
        a_up[:on] = a
    cur[on:] = seed[on:]                          # closed omega = 0 starts on row 0
    rows[0] = cur
    R0, R1 = R0[order], R1[order]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # in the unused branch
        rows *= np.where(np.abs(R0) >= np.abs(R1), R0 / cur, R1 / nxt)
    short = np.flatnonzero(top < L)
    rows[:, short] *= np.arange(L + 1)[:, None] <= top[short]
    return rows, order


def _rows(kind: Kind, w: np.ndarray, r: np.ndarray, L: int, sweeps: int) -> list:
    """One or two tables R_0..R_L at the columns (w[i], r[i]), each shaped
    (L+1, r.size); flat rows are j_l.  The second table is swept from a higher
    start rung or from kicked seeds (module notes).

    kind sets kappa = -1, 0, 1, f = sinh, identity, sin and g = f'/f; w is
    omega (open), 1 (flat, with r = k chi) or omega + 1 (closed), and
    a_j = sqrt(w^2 - kappa j^2)."""
    kappa, closed = _KAPPA[kind], kind is Kind.CLOSED
    w_all = w
    if closed:                                    # R(pi - r) = (-1)^(omega - l) R(r)
        flip = r > math.pi / 2.0
        r = np.maximum(np.where(flip, math.pi - r, r), 0.0)
    live = np.flatnonzero(r >= np.finfo(float).tiny)  # the origin has R_0 = 1, R_l = 0 above
    w, r = w[live], r[live]
    w2 = w * w
    g = 1.0 / {Kind.OPEN: np.tanh, Kind.FLAT: np.positive, Kind.CLOSED: np.tan}[kind](r)
    s, c = r * np.sinc(w * r / math.pi), np.cos(w * r)            # sin(w r) / w, cos(w r)
    # sinh r = inf past r = 710 gives R_0 = R_1 = 0; closed omega = 0 has R_1 = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = {Kind.OPEN: np.sinh, Kind.FLAT: np.positive, Kind.CLOSED: np.sin}[kind](r)
        a1 = np.sqrt(w2 - kappa)
        R0, R1 = s / f, np.where(a1 > 0, (g * s - c) / (a1 * f), 0.0)
        cancel = np.log((np.abs(g * s) + np.abs(c)) / np.abs(g * s - c))  # in the R_1 seed
    R1_ref = np.where(cancel < 1.0, R1, 0.0)      # R_1 normalises only where it is accurate

    # D_l: log size of R_0 / R_l, rung 0 taken with a_0 = a_1; rows past D = _FLOOR are 0
    D = np.zeros((L + 1, r.size))
    D[1:] = _eta(kappa, a1 * a1, g, 0)
    D[2:] += np.cumsum(_eta(kappa, w2, g, np.arange(1, L)[:, None]), axis=0)
    top = np.count_nonzero(D <= _FLOOR, axis=0) - 1
    amplify = 2.0 * (D[-1] - D[min(L, 1)]) + (cancel if L > 0 else 0.0)
    down = np.arange(r.size) if closed else np.flatnonzero(amplify > _UP)
    stop = w[down] - 1.0 if closed else np.inf
    # the second sweep's start lies e^2_GAIN past top
    (N, N2), (d_N, d_N2) = _start_rungs(kappa, w2[down], g[down], top[down], stop,
                                        (_GAIN, 2.0 * _GAIN))
    near = N - top[down] <= (np.inf if closed else _REACH * (L + 16))
    down, d_top = down[near], D[top[down[near]], down[near]]
    del D
    starts = [(N[near].astype(int), d_top + d_N[near]), (N2[near].astype(int), d_top + d_N2[near])]
    up = np.ones(r.size, dtype=bool)
    up[down] = False

    tables = []
    for (N, d_N), kick in zip(starts[:sweeps], (0.0, _KICK)):
        if tables:                                # a start that cannot move keeps its rows
            out, moved = tables[0].copy(), N != starts[0][0]
            redo, N, d_N = down[moved], N[moved], d_N[moved]
        else:
            out, redo = np.zeros((L + 1, w_all.size)), down
            out[0] = 1.0
        rows, order = _downward(kappa, w2[redo], g[redo], R0[redo], R1_ref[redo], top[redo], N, d_N, L)
        redo = live[redo[order]]
        if closed:                                # flipped columns take (-1)^omega (-1)^l
            sign = (-1.0) ** (np.rint(w_all) - 1.0)
            flipped = np.flatnonzero(flip[redo])
            rows[:, flipped] *= np.outer((-1.0) ** np.arange(L + 1), sign[redo[flipped]])
            if not tables:
                out[0, flip] = sign[flip]         # and the origin columns: R_0(pi) = (-1)^omega
        for row, u, d in zip(out, _upward(kappa, w2[up], g[up], R0[up], R1[up], L, kick), rows):
            row[live[up]], row[redo] = u, d       # a row at a time: 2x faster
        out += 0.0                                # -0.0 (a zero row times a sign) reads +0.0
        tables.append(out)
    return tables


def radial_table(geom: Geometry, k, L_max: int, chi, check: bool = True,
                 cert_tol: float = 1e-6) -> np.ndarray:
    """R_kl(chi) for every l <= L_max and every k, shaped (L_max+1, k.size) + chi.shape.

    The one radial evaluator (see the module notes); closed rows with
    l > omega are exactly 0.  check=True sweeps every column a second time,
    from a higher start rung (downward) or from kicked seeds (upward), and
    raises AccuracyError naming the worst (l, k, chi) unless the two tables
    agree at every sample within cert_tol times the row's max |R_kl| over chi
    (at least 2^-20 of the largest row at that sample); a NaN fails.
    """
    if L_max < 0:
        raise DomainError("l must be >= 0")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.ndim != 1 or not np.all(np.isfinite(k) & (k >= 0)):
        raise DomainError("k must be finite and >= 0")
    chi = geom.check_chi(chi)
    if geom.kind is Kind.FLAT:
        w, r = np.ones(1), np.multiply.outer(k, chi.ravel())
    else:
        w = geom.omega_of_k(k) + (1.0 if geom.kind is Kind.CLOSED else 0.0)
        r = geom.curvature_scale * chi.ravel()
    w, r = (x.ravel() for x in np.broadcast_arrays(w[:, None], r))
    check = check and chi.size > 0
    R, *R2 = (T.reshape(L_max + 1, k.size, -1) for T in _rows(geom.kind, w, r, L_max, 1 + check))
    if check:
        _certify(geom, k, chi.ravel(), R, R2[0], cert_tol)
    if geom.kind is Kind.FLAT:
        R *= _SQRT_2_OVER_PI
    return R.reshape(R.shape[:2] + chi.shape)


def _certify(geom: Geometry, k, chi, R, R2, cert_tol: float):
    # a row's scale is its max over chi, but at least 2^-20 of the largest row
    # at each sample: a row that vanishes at every sample (all on its zeros)
    # is known to the rounding of its column, not to its own size.  A NaN
    # fails its own row (fmax skips it in the column).
    size = np.abs(R)
    scale = np.maximum(np.max(size, axis=2, keepdims=True),
                       2.0 ** -20 * np.fmax.reduce(size, axis=0, keepdims=True))
    del size
    gap = np.abs(np.subtract(R, R2, out=R2), out=R2)
    bad = ~(gap <= cert_tol * scale)
    if np.any(bad):
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(bad, np.nan_to_num(gap / scale, nan=np.inf), -1.0)
        l, q, p = np.unravel_index(np.argmax(rel), rel.shape)
        raise AccuracyError(
            f"radial rows swept from two starts differ by {rel[l, q, p]:.2e} of the row "
            f"scale (tolerance {cert_tol:.0e}) at chi={chi[p]:.4g} "
            f"({geom.kind.value}, k={k[q]}, l={l})")


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
