"""Special functions: Wigner d/D, spin-weighted harmonics, the spin ladder,
spherical Bessel and Gegenbauer recurrences, conical Legendre values, radial
eigenfunctions for the three curvature models, and zonal spherical functions.

All harmonics come from one recurrence in l for the Wigner d^l_{mn}(theta)
(_d_rows), vectorised over m: _spin_rows scales rows at n = -s to sY_lm for
spin callers; `wigner_d` takes one m at any n.  No alternating sum cancels:
to l = HARMONIC_L_MAX = 128, d^l_{m0} is within 5.4e-14 of scipy, and
d^128_{mn}, n = -1, -2, within 1.7e-13 of Wigner sums near the poles.

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
f = sinh r, sin r or r.  kappa, f and f/f' = tanh r, r or tan r (g = f'/f) are
the models' one table, _MODEL; one fold of the radius, _fold, reflects closed
radii past pi/2 to pi - r, reads those below the smallest normal double as the
origin and gives r/f, for the rows and the zonal functions alike.  One
estimate, shared by the models, picks each (k, chi) column's direction: past
the turning point in l the regular row shrinks by e^-eta per rung while the
other solution grows by e^eta, with cosh eta = (2l+1) g / (2 sqrt(a_l a_{l+1})).

- Upward at L = 0, and from R_0 and R_1 where that sweep amplifies roundoff by
  at most e^5 (2 sum eta over the rungs below L, bounded below by the search
  for N, so up to e^5.4 was seen; plus the cancellation in the R_1 seed).
- Otherwise Miller's downward sweep from R_{N+1} = 0, at the first rung N
  from which the other solution decays by e^40 on the way down to row L,
  normalised to the closed-form R_0 (row 0), or to R_1 where |R_0| < |R_1|.
  The search for N begins at the turning rung floor(w / sqrt(g^2 + kappa)), that
  is w sinh r, k chi or w sin r, below which the rows oscillate (eta = 0), or
  at the top row if that is higher.  At large l eta tends to arccosh(coth r),
  so the start converges by only e^(2 eta) = 1.6 per rung at r = 2.1, and no
  fixed margin serves.  Where N would lie more than 4 (L + 16) rungs out, the
  column sweeps upward, whose roundoff grows as slowly.
- Closed columns sweep down from l = omega, where a_{omega+1} = 0 makes the
  start exact (or from N, if lower); rows l > omega are +0.0, and
  R(pi - r) = (-1)^(omega - l) R(r) keeps r <= pi/2.

Rows at least e^700 below R_0 read 0 (the search from row 1 keeps all rows
above that), and radii below the smallest normal double count as the origin.
check=True certifies the table from the recurrence: every column whose start
can move is swept again, downward from the rung where the other solution
decays by e^80, upward from seeds kicked by 2^-46 of their size, and each row
of that sweep must agree with the table's within cert_tol of the row's max
over chi (at least 2^-20 of the largest row at each sample).  Both sweeps
write in place, so the scratch is that one sweep's rows.  A closed start on
omega cannot move and is exact; the addition theorem test checks it.

Max error against rows in 1700-digit arithmetic, relative to each row's max
over 16 radii (rows whose max is above 1e-290): open K = -1 and flat at 12
nodes of gauss_legendre_grid(0, 8, 24, 12) with chi in [0, 3]; closed K = 1
at omega + 1 in {1, 3, 8, 20, 41, 80, 130} with chi in [0, 3.1].

    L        32       64       128
    open     1.3e-12  3.9e-12  1.0e-13
    flat     3.5e-15  5.8e-15  1.2e-14
    closed   4.8e-14  4.7e-14  4.8e-14
"""
from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError
from .geometry import Geometry, Kind, f_K, surface_area  # noqa: F401 (re-export)

__all__ = [
    "wigner_d", "wigner_D", "spin_harmonic", "spin_harmonic_table", "eth_ladder",
    "eth_numeric", "spherical_bessel", "gegenbauer", "conical_legendre", "radial",
    "radial_table", "zonal_spherical", "f_K", "surface_area",
]

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
    ab = np.stack([a, b])[..., None].repeat(theta.size, -1)   # full size: numpy rounds x ** a
    ca, sb = np.stack([np.cos(theta / 2.0), np.sin(theta / 2.0)])[:, None] ** ab   # apart if a is broadcast
    out[l0[i], i] = ((-1.0) ** np.maximum(ms[i] - n, 0) * root_binom)[:, None] * ca * sb
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
    if not np.all(np.isfinite(x)):
        raise DomainError("angles must be finite")
    xu = np.unique(x)
    return fn(xu)[np.searchsorted(xu, x)]   # cheaper than unique's argsort inverse


def _spin_rows(s: int, L: int, ms, theta: np.ndarray) -> np.ndarray:
    """sY_lm(theta, 0) = (-1)^s sqrt((2l+1)/4 pi) d^l_{m,-s}(theta), l <= L, m in ms, shaped
    (L+1, len(ms), theta.size) for a 1-d theta; L > HARMONIC_L_MAX or theta not finite raise."""
    _check_index(L)
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta must be finite")
    out = _d_rows(-s, L, ms, theta)
    out *= ((-1.0) ** s * np.sqrt((2 * np.arange(L + 1) + 1) / (4.0 * math.pi)))[:, None, None]
    return out


def spin_harmonic_table(s: int, L_max: int, theta) -> np.ndarray:
    """sY_lm(theta, 0) for every l <= L_max and |m| <= l (_spin_rows), shaped
    (L_max+1, 2 L_max+1) + theta.shape, with entry [l, L_max + m]; 0 where l < |s|
    or |m| > l.  At s = 0 its max |error| against scipy.special.sph_harm_y (all m,
    181 theta in [0.01, pi - 0.01]) is 2.7e-14 at l = 32, as for spin_harmonic,
    whose docstring has the full table.  The azimuth separates, sY_lm(theta, phi)
    = e^{i m phi} sY_lm(theta, 0), and a bulk caller passes each distinct theta
    once.  L_max > HARMONIC_L_MAX raises DomainError."""
    theta = np.asarray(theta, dtype=float)
    out = _spin_rows(s, L_max, np.arange(-L_max, L_max + 1), theta.ravel())
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

    that is the row l of _spin_rows once per distinct theta, with the
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
    _check_index(l, m, -s)
    return _on_unique(lambda t: _spin_rows(s, l, [m], t)[l, 0], theta)[()] \
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
    if min(theta.size, phi.size) < 3:
        raise DomainError("the second-order stencils need >= 3 points per axis")
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
    return _on_unique(lambda xu: _rows(Kind.FLAT, np.ones((1, xu.size)), xu[None], l)[0][l, 0],
                      x)[()]


def gegenbauer(p: int, q: int, x):
    """Gegenbauer polynomial C^p_q(x) on [-1, 1] by the three-term recurrence

        (n+1) C_{n+1} = 2 (n+p) x C_n - (n+2p-1) C_{n-1},  C_0 = 1, C_1 = 2 p x.
    """
    if p < 1 or q < 0:
        raise DomainError("need p >= 1 and q >= 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0 + 1e-12):      # NaN fails
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
_MODEL = {Kind.OPEN: (-1.0, np.sinh, np.tanh),   # per model: kappa, f and f/f' (g = f'/f)
          Kind.FLAT: (0.0, np.positive, np.positive), Kind.CLOSED: (1.0, np.sin, np.tan)}


def _fold(kind: Kind, r: np.ndarray):
    """(r, refl, origin, r/f(r)) at the 1-d scaled radii r.  Closed radii past
    pi/2 (refl) become pi - r, where Phi takes the factor (-1)^omega and R_l
    (-1)^(omega - l); origin marks the radii below the smallest normal double;
    r/f(r) is 1 + kappa r^2/6 + 7 r^4/360 below 1e-4 (exactly 1 flat)."""
    kappa, f, _ = _MODEL[kind]
    refl = r > math.pi / 2.0 if kind is Kind.CLOSED else np.zeros(r.shape, bool)
    r = np.maximum(np.where(refl, math.pi - r, r), 0.0)
    r_over_f, small = np.empty_like(r), r < 1e-4
    rs, rb = r[small], r[~small]
    r_over_f[small] = 1.0 + kappa * rs * rs / 6.0 + 7.0 * rs ** 4 / 360.0
    with np.errstate(over="ignore"):              # sinh r = inf past r = 710: r/f = 0
        r_over_f[~small] = rb / f(rb)
    return r, refl, r < np.finfo(float).tiny, r_over_f


def _eta(kappa: float, w2, g, l):
    """Log growth per rung of the recurrence at rung l, broadcast over columns
    (w2 = w^2, g) and rungs: cosh eta = (2l+1) g / (2 sqrt(a_l a_{l+1})), and
    eta = 0 where the rung oscillates.  Past the turning point the regular row
    shrinks by about e^-eta per rung while the other solution grows by e^eta.
    A closed rung l = omega has a_{l+1} = 0 and eta = inf."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # in place: many rungs
        c = (w2 - kappa * l * l) * (w2 - kappa * (l + 1.0) ** 2)
        np.maximum(np.divide((l + 0.5) * g, np.sqrt(np.sqrt(c, out=c), out=c), out=c), 1.0, out=c)
        return np.log(np.add(c, np.sqrt(s := c * c - 1.0, out=s), out=s), out=s)   # arccosh c


def _start_rungs(kappa: float, w2, g, top, stop, gains):
    """Rungs N of each column, one per gain (scalar or per column): the first rung
    from which the other solution decays by at least e^gain on its way down to top,
    or stop (closed: omega) where that comes first.  The search starts at the turning
    rung (module notes), or at top if higher, and at most at stop - _BLOCK.  It reads
    eta at _BLOCK rungs, then at the first rung of steps of 8, 16, ... rungs, the last
    (from 8 2^(_BLOCK-1) on) without end; eta rises past the turn, so each such value
    bounds its step below.  Also returns that bound on the row's log growth N -> top."""
    first = np.array([*range(_BLOCK), *(_BLOCK << i for i in range(_BLOCK))], float)
    first = first[first <= np.max(stop - top, initial=1.0)]      # the steps stop can reach
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # turn 0/0: top
        start = np.fmax(top, np.minimum(np.floor(np.sqrt(w2 / (g * g + kappa))), stop - _BLOCK))
        e = _eta(kappa, w2, g, np.minimum(start + first[:, None], stop))
        grown = np.zeros(e.shape)                                # the bound below each step
        np.cumsum(e[:-1] * (first[1:] - first[:-1])[:, None], axis=0, out=grown[1:])
        cols, Ns, growth = np.arange(top.size), [], []
        for half in 0.5 * np.asarray(gains):
            j = (grown[1:] < half).sum(axis=0)                   # the step that reaches gain
            below, e_j = grown[j, cols], np.fmin(e[j, cols], half)
            n = np.fmax(np.ceil((half - below) / e_j) - 1.0, 0.0)   # rungs of step j below N
            Ns.append(np.minimum(start + first[j] + n, stop))
            growth.append(np.fmin(below + n * e_j, half))        # inf * 0: never reached
    return Ns, growth


def _upward(kappa: float, w2, g, R0, R1, kick: float, rows: np.ndarray):
    """Climbs rows 0..L into rows from the closed-form seeds R_0, R_1, which
    are first moved by kick (R_0, R_1) -> (R_0 - kick R_1, R_1 + kick R_0)."""
    rows[0] = R0 - kick * R1
    rows[1:2] = R1 + kick * R0
    a = np.sqrt(w2 - kappa)
    for l in range(1, rows.shape[0] - 1):
        a_up = np.sqrt(w2 - kappa * (l + 1) ** 2)
        rows[l + 1] = ((2 * l + 1) * g * rows[l] - a * rows[l - 1]) / a_up
        a = a_up


def _downward(kappa: float, w2, g, R0, R1, top, N, d_N, rows: np.ndarray):
    """Miller's sweep into rows (zeros) over columns sorted by N descending:
    R_{N+1} = 0 and R_N = e^-D_N, with D_N the estimated log size of R_0 / R_N
    (it keeps R_0 below e^300), down to row 0, normalised to the closed-form
    R_0, or to R_1 where |R_0| < |R_1|; row 0 is R_0, rows above top stay 0."""
    seed = np.exp(-np.minimum(d_N, 600.0))
    cur, nxt, spare, a_up, a = (np.zeros(N.size) for _ in range(5))
    ls = np.arange(N[0] if N.size else 0, 0, -1)
    on = 0                                        # the columns still sweeping are a prefix
    for l, new in zip(ls.tolist(), np.searchsorted(-N, -ls, side="right").tolist()):
        if new > on:
            cur[on:new], on = seed[on:new], new
        if l < rows.shape[0]:
            np.copyto(rows[l, :on], cur[:on], where=l <= top[:on])
        np.sqrt(np.subtract(w2[:on], kappa * l * l, out=a[:on]), out=a[:on])
        step = np.multiply(g[:on], cur[:on], out=spare[:on])
        step *= 2 * l + 1
        nxt[:on] *= a_up[:on]
        step -= nxt[:on]
        step /= a[:on]                            # R_{l-1}
        cur, nxt, spare, a_up, a = spare, cur, nxt, a, a_up
    cur[on:] = seed[on:]                          # closed omega = 0 starts on row 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # in the unused branch
        rows *= np.where(np.abs(R0) >= np.abs(R1), R0 / cur, R1 / nxt)
    rows[0] = R0


def _plan(kind: Kind, w, r, L: int):
    """How each column (w[i], r[i]), r > 0, is swept: the sweep order (upward, then
    Miller by start rung descending), the number upward, (w^2, g, R_0, R_1, top) in
    that order (R_1 = 0 where too inexact to normalise a Miller sweep), two starts (N, D_N)."""
    (kappa, f, f_over_df), closed = _MODEL[kind], kind is Kind.CLOSED
    w2 = w * w
    g = 1.0 / f_over_df(r)
    s, c = r * np.sinc(w * r / math.pi), np.cos(w * r)            # sin(w r) / w, cos(w r)
    # sinh r = inf past r = 710 gives R_0 = R_1 = 0; closed omega = 0 and L = 0 have R_1 = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fr = f(r)
        a1 = np.sqrt(w2 - kappa)
        R0, R1 = s / fr, np.where((a1 > 0) & (L > 0), (g * s - c) / (a1 * fr), 0.0)
        cancel = np.log((np.abs(g * s) + np.abs(c)) / np.abs(g * s - c))  # in the R_1 seed

    # D_l = log |R_0 / R_l| is 0 at l = 0 and eta_0 + S_l above (rung 0 takes a_0 = a_1, S_l
    # sums rungs 1..l-1).  A search from row 1 bounds S_l below: top >= the last row with D <=
    # _FLOOR, d_top ~ D_top <= _FLOOR, and down where 2 S_L + cancel (at L = 1 cancel) passes _UP.
    eta0 = _eta(kappa, a1 * a1, g, 0)
    (top, split), (d_top, _) = _start_rungs(kappa, w2, g, np.ones(r.size), np.minimum(
        w - 1.0, L) if closed else L, np.fmax([2.0 * (_FLOOR - eta0), _UP - cancel], 0.0))
    top, d_top = np.where(eta0 <= _FLOOR, (top, eta0 + d_top), 0.0)
    down = np.arange(r.size) if closed else np.flatnonzero((split < L) | (cancel > _UP) & (L > 0))
    seek = down[top[down] < w[down] - 1.0] if closed else down   # kept to omega: starts on it
    starts = np.array([w - 1.0, w - 1.0, 0.0 * w, 0.0 * w])      # N, N2 and their D - d_top
    starts[:, seek] = np.concatenate(_start_rungs(kappa, w2[seek], g[seek], top[seek], (
        w[seek] - 1.0) if closed else np.inf, (_GAIN, 2.0 * _GAIN)))
    N, N2, d_N, d_N2 = starts[:, down]
    near = np.flatnonzero(N - top[down] <= (np.inf if closed else _REACH * (L + 16)))
    near = near[np.argsort(-N[near], kind="stable")]
    down = down[near]
    R1[down] = np.where(cancel[down] < 1.0, R1[down], 0.0)
    order = np.concatenate([np.flatnonzero(np.bincount(down, minlength=r.size) == 0), down])
    return (order, r.size - down.size, np.array([w2, g, R0, R1, top])[:, order],
            *((M[near].astype(int), d_top[down] + d_M[near]) for M, d_M in ((N, d_N), (N2, d_N2))))


def _rows(kind: Kind, w: np.ndarray, r: np.ndarray, L: int, cert_tol: float | None = None):
    """The table R_0..R_L at the columns (w[q, p], r[q, p]) of the model kind
    (module notes), shaped (L+1,) + r.shape, and the certificate's worst
    disagreement (gap / scale, l, q, p), or None if it passes or cert_tol is None."""
    kappa = _MODEL[kind][0]
    shape, w = r.shape, w.ravel()
    r, refl, origin, _ = _fold(kind, r.ravel())   # the origin has R_0 = 1, R_l = 0 above
    sign = np.ones(r.size)                        # R(pi - r) = (-1)^(omega - l) R(r)
    sign[refl] = (-1.0) ** (np.rint(w[refl]) - 1.0)
    order, nu, P, (N, d_N), (N2, d_N2) = _plan(kind, w[~origin], r[~origin], L)
    cols = np.flatnonzero(~origin)[order]
    neg = np.where(refl[cols], -1.0, 1.0)         # a reflected column sweeps with -g
    P[1:4] *= (neg, sign[cols], sign[cols] * neg)  # from the seeds (-1)^omega (R_0, -R_1)

    # the table is swept in place, the origin columns last, then put in order
    out = np.zeros((L + 1, r.size))
    _upward(kappa, *P[:4, :nu], 0.0, out[:, :nu])
    _downward(kappa, *P[:, nu:], N, d_N, out[:, nu:cols.size])
    out[0, cols.size:] = sign[origin]             # R_0 = 1, or (-1)^omega at pi
    order = np.argsort(np.concatenate([cols, np.flatnonzero(origin)]))
    blocks = zonal_blocks(L + 1, 16 * r.size)     # a row, or all of a small table: the
    for b in blocks:                              # scratch is 1/16 of a zonal block at most
        out[b] = out[b][:, order]
    out += 0.0                                    # -0.0 (a zero row times a sign) reads +0.0
    T = out.reshape((L + 1,) + shape)
    if cert_tol is None:
        return T, None

    # The second sweep moves every start that can move, and its rows are compared
    # with the table's.  A row's scale is its max over chi, at least 2^-20 of the
    # largest row at each sample (a row on its zeros is known to its column's
    # rounding); a NaN fails its row.  Of equal gaps, the first in C order is named.
    moved = np.flatnonzero(N2 != N)[np.argsort(-N2[N2 != N], kind="stable")]
    keep = np.concatenate([np.arange(nu), nu + moved])
    P, cols, rows = P[:, keep], cols[keep], np.zeros((L + 1, keep.size))
    _upward(kappa, *P[:4, :nu], _KICK, rows[:, :nu])
    _downward(kappa, *P[:, nu:], N2[moved], d_N2[moved], rows[:, nu:])
    row_max = np.fmax(np.fmax.reduce(T, axis=2), -np.fmin.reduce(T, axis=2))[..., None]
    col_max = 2.0 ** -20 * np.fmax(np.fmax.reduce(T, axis=0), -np.fmin.reduce(T, axis=0))
    worst = (-1.0,)
    for b in blocks:
        gap = out[b] - out[b]                     # 0 where the rows did not move, if finite
        gap[:, cols] = np.subtract(out[b, cols], rows[b], out=rows[b])
        gap = np.abs(gap, out=gap).reshape((-1,) + shape)
        scale = np.maximum(row_max[b], col_max)
        if not (gap <= cert_tol * scale).all():
            bad = ~(gap <= cert_tol * scale)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(bad, np.nan_to_num(gap / scale, nan=np.inf), -1.0)
            i = np.unravel_index(np.argmax(rel), rel.shape)
            worst = max(worst, (rel[i], b.start + i[0]) + i[1:], key=lambda x: x[0])
    return T, worst if worst[0] >= 0.0 else None


def radial_table(geom: Geometry, k, L_max: int, chi, check: bool = True,
                 cert_tol: float = 1e-6) -> np.ndarray:
    """R_kl(chi) for every l <= L_max and every k, shaped (L_max+1, k.size) + chi.shape.

    The one radial evaluator (see the module notes); closed rows with l > omega
    are exactly 0.  check=True sweeps the columns again, from a higher start
    rung (downward) or from kicked seeds (upward), compares each row of that
    sweep with the table's, and raises AccuracyError naming the worst (l, k,
    chi) unless they agree at every sample within cert_tol times the row's max
    |R_kl| over chi (at least 2^-20 of the largest row there); a NaN fails.
    """
    if L_max < 0:
        raise DomainError("l must be >= 0")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.ndim != 1 or not np.all(np.isfinite(k) & (k >= 0)):
        raise DomainError("k must be finite and >= 0")
    chi = geom.check_chi(chi)
    flat = geom.kind is Kind.FLAT
    w = np.ones(1) if flat else geom.omega_of_k(k) + (1.0 if geom.kind is Kind.CLOSED else 0.0)
    r = np.multiply.outer(k, chi.ravel()) if flat else geom.curvature_scale * chi.ravel()
    R, worst = _rows(geom.kind, *np.broadcast_arrays(w[:, None], r), L_max,
                     cert_tol if check and k.size * chi.size else None)
    if worst is not None:
        rel, l, q, p = worst
        raise AccuracyError(
            f"radial rows swept from two starts differ by {rel:.2e} of the row "
            f"scale (tolerance {cert_tol:.0e}) at chi={chi.ravel()[p]:.4g} "
            f"({geom.kind.value}, k={k[q]}, l={l})")
    if flat:
        R *= math.sqrt(2.0 / math.pi)
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
    log_norm = math.fsum(math.log(omega * omega + n * n) for n in range(1, l + 1))
    return u * np.sqrt(2.0 * np.sinh(r) / math.pi) * math.exp(-0.5 * log_norm)  # no overflow


# ---------------------------------------------------------------------------
# Zonal spherical functions
# ---------------------------------------------------------------------------

# Tables reduced one row block at a time hold at most this many elements per block.
ZONAL_BLOCK = 1 << 16


def zonal_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices of range(n_rows), each at most ZONAL_BLOCK elements of n_cols, or 1 row."""
    step = max(1, ZONAL_BLOCK // max(n_cols, 1))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _supplementary(tau: float, r: np.ndarray) -> np.ndarray:
    if not 0.0 < tau <= 1.0:
        raise DomainError("supplementary series needs omega = i tau, tau in (0, 1]")
    # sinh(tau r)/(tau sinh r); bounded by 1, exp-safe for large r
    out, far = 1.0 + (tau * tau - 1.0) * r * r / 6.0, r >= 1e-4
    rf = r[far]
    out[far] = (np.exp((tau - 1.0) * rf) * (1 - np.exp(-2 * tau * rf))
                / (tau * (1 - np.exp(-2 * rf))))
    return out


def zonal_spherical(geom: Geometry, omega, r):
    """Zonal spherical function Phi_omega(r) on the scaled radius r.

        open   : sin(omega r)/(omega sinh r); supplementary series
                 omega = i tau, tau in (0, 1]: sinh(tau r)/(tau sinh r)
        flat   : sin(omega r)/(omega r)
        closed : sin((omega+1) r)/((omega+1) sin r), omega = 0, 1, 2, ...

    Normalized so Phi_omega(0) = 1; |Phi| <= 1 on the principal series.
    r must be finite and >= 0, else DomainError.  Radii below the smallest
    normal double (2.2e-308), and closed radii that close to pi, are the
    origin: Phi = 1 there, and (-1)^omega at pi, as in radial_table and the
    transforms.

    A scalar omega gives values shaped like r.  A 1-d array of real omega
    (principal or closed series) gives the table shaped (omega.size,) +
    r.shape, row i holding Phi_omega[i]; the supplementary series takes a
    scalar only.  Both use the separable form sin(a r)/(a r) * r/f(r), with
    a = omega (open, flat) or omega+1 (closed) and f = sinh, r or sin, so
    r/f(r) is evaluated once per call and each table entry costs one sine.
    The closed model is evaluated at min(r, pi - r) and takes the factor
    (-1)^omega past pi/2, which keeps its accuracy near the antipode.
    """
    r = np.asarray(r, dtype=float)
    shape_r, r = r.shape, r.ravel()
    if not np.all(np.isfinite(r) & (r >= 0)):     # NaN fails both
        raise DomainError("r must be finite and >= 0")
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
        if np.any(r > geom.curvature_scale * (geom.chi_max * (1.0 + 1e-12))):   # check_chi's chi bound, scaled
            raise DomainError("closed-model scaled radius r exceeds pi")
        if np.any(np.abs(w - np.round(w)) > 1e-9):
            raise DomainError(f"closed model needs integer omega >= 0, got {omega}")
        w = np.round(w) + 1.0                     # the closed a = omega + 1
    r, refl, _, r_over_f = _fold(geom.kind, r)
    x = np.multiply.outer(w, r)
    np.maximum(x, np.finfo(float).tiny, out=x)    # sin(x)/x is 1 at x = 0: sin(tiny) == tiny
    vals = np.sin(x)
    vals /= x
    vals *= r_over_f
    flip = np.ix_(w % 2 == 0, refl)               # closed: Phi(pi - r) = (-1)^omega Phi(r)
    vals[flip] = -vals[flip]
    return vals.reshape(shape_w + shape_r)[()]

