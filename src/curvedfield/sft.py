"""Isotropic spherical Fourier transform on the three constant-curvature models.

The monopole transform pairs a radial profile f(chi) with a spectral density
f00(k) through the zonal kernels Phi_k (zonal_spherical, Phi_k(0) = 1) and the
shell measure S(chi) dchi = 4 pi f_K(chi)^2 dchi:

    forward:  f00(k)   = (1/c) int f(chi) Phi_k(chi) S(chi) dchi
    inverse:  f(chi)   = B sum_q w_q k_q^2 f00(k_q) Phi_{k_q}(chi)

over one spectral measure in all three models (spectral_nodes): nodes k_q and
weights w_q with sum_q w_q k_q^2 g(k_q) the integral int g k^2 dk.  Open and
flat use Gauss-Legendre nodes on [0, k_max]; the closed model sums the lattice
k = sqrt(K) (w+1), w = 0, 1, ..., every weight the lattice spacing sqrt(K) (a
closed Spectrum always carries it), so the sum is K^(3/2) sum_w (w+1)^2 g(k_w).
Every integral reads its grid's stored weights, with no fallback rule on chi
or k: a RadialProfile or an open or flat Spectrum without weights can be held
but not transformed from or normed (DomainError).  The kernels obey

    int Phi_k Phi_k' S dchi = 2 pi^2 / k^2 delta(k - k')

(on the closed lattice delta(k - k') = d_ww' / sqrt(K), the measure's delta),
so one constant per model, c = 2 sqrt(pi) (open, closed) or pi sqrt(2) (flat),
gives every normalisation: inverse(forward(f)) = f needs B = c/(2 pi^2), and
Parseval reads sum w k^2 |f00|^2 = (2 pi^2/c^2) ||f||^2.  spectrum_norm2 and
parseval_constant quote the closed model per sum_w (w+1)^2, i.e. divided by
K^(3/2).

One rule, _tail_fraction (the share of sum |c| in the last eighth of the
nodes, at least 4), checks grids of every size; above tail_tol a grid is
unconverged (ConvergenceError).  It checks c = w k^2 f00 on every k grid with
the measure's weights: the inverse's, and the forward's on the closed lattice
or when given weights; and, open and flat (closed chi is compact), the forward
chi integrand of the node of largest |Phi_q| @ |w f S| (_heaviest_row).  tail_tol
is None (no monitor) or finite and > 0, else DomainError before any kernel is built.

The transforms and randfield.analytic_correlation make one pass (_zonal_pass) over
the table Phi(k, chi) without building it: every spectral_nodes grid repeats per
panel (Gauss-Legendre panels, the closed lattice), so by angle addition the table
factors through the sines and cosines of about 2 sqrt(n) anchors and offsets per
chi (_zonal_factors), at any number of radii, and each product with it is two
BLAS-3 products, a few ulps from a per-k loop.  Only a k grid that repeats fewer
than 4 times takes zonal_spherical's row blocks.  Radii that repeat by the same rule
(_period) need those sines at about 2 sqrt(n_chi) radii, other radii (closed past
pi/2, scattered lags) at each; each axis moves an argument by <= 4 eps max(a) max(r).
forward_isotropic and roundtrip_isotropic share one driver (_transform); the roundtrip
builds the factors once, with the bits of forward_isotropic then inverse_isotropic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import Geometry, Kind, surface_area
from .quadrature import gauss_legendre_grid
from .specfun import _fold, _zonal_rows, zonal_blocks, zonal_spherical

__all__ = [
    "RadialProfile", "Spectrum", "surface_area", "forward_isotropic",
    "inverse_isotropic", "roundtrip_isotropic", "closed_k_lattice", "zonal_kernel",
    "bump_profile", "profile_norm2", "spectrum_norm2", "parseval_constant",
]

_SEED_ROWS = 8     # rows the forward chi monitor's node search sums before it prunes by bound


def _as_grid(name: str, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError(f"{name} must be a non-empty 1-d array")
    if np.any(~np.isfinite(x)):
        raise DomainError(f"{name} must be finite")
    if np.any(np.diff(x) <= 0):
        raise DomainError(f"{name} must be strictly increasing")
    return x


def _set_samples(obj, grid_name: str, grid: np.ndarray):
    """Store the grid and its finite float samples (values, weights if given)."""
    object.__setattr__(obj, grid_name, grid)
    for name in ("values",) if obj.weights is None else ("values", "weights"):
        v = np.asarray(getattr(obj, name), dtype=float)
        if v.shape != grid.shape:
            raise DomainError(f"{name} must match the {grid_name} grid")
        if not np.all(np.isfinite(v)):
            raise DomainError(f"{name} must be finite")
        object.__setattr__(obj, name, v)


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial profile; weights are quadrature weights for the chi grid.

    A profile without them, as inverse_isotropic returns, cannot be transformed
    or normed.  values and weights must be finite."""

    geometry: Geometry
    chi: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        chi = _as_grid("chi", self.chi)
        self.geometry.check_chi(chi)
        _set_samples(self, "chi", chi)


@dataclass(frozen=True)
class Spectrum:
    """Monopole spectral amplitudes on a wavenumber grid.

    weights are the spectral measure's weights for the k grid (see
    spectral_nodes); an open or flat spectrum needs them to be inverted or
    normed.  For the closed model k must sit on the lattice sqrt(K) (w+1) and
    the measure is the lattice: given weights must equal sqrt(K) within 1e-12,
    and the spectrum stores sqrt(K) exactly.  values and weights must be finite.
    """

    geometry: Geometry
    k: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        k = _as_grid("k", self.k)
        if np.any(k < 0):
            raise DomainError("k must be >= 0")
        self.geometry.omega_of_k(k)  # lattice check (closed)
        _set_samples(self, "k", k)
        if self.geometry.kind is Kind.CLOSED:
            s = self.geometry.curvature_scale
            if self.weights is not None and not np.all(np.abs(self.weights - s) <= 1e-12 * s):
                raise DomainError(f"closed weights must be the lattice spacing sqrt(K) = {s!r}")
            object.__setattr__(self, "weights", np.full_like(k, s))


def closed_k_lattice(geom: Geometry, omega_max: int) -> np.ndarray:
    """Wavenumbers sqrt(K) (w+1) for w = 0..omega_max < 2^24 (k and its weights fill 0.27 GB)."""
    if geom.kind is not Kind.CLOSED:
        raise DomainError("k lattice only applies to the closed model")
    if not (0 <= omega_max < 1 << 24 and omega_max % 1 == 0):    # NaN, inf fail; no float(int)
        raise DomainError(f"omega_max must be an integer in [0, 2^24), got {omega_max}")
    return geom.curvature_scale * (np.arange(omega_max + 1) + 1.0)


def zonal_kernel(geom: Geometry, k, chi) -> np.ndarray:
    """Phi_k(chi) on physical arguments (k in 1/Mpc, chi in Mpc).

    A 1-d array of k gives the table shaped (k.size,) + chi.shape."""
    return zonal_spherical(geom, *_scaled(geom, k, chi))


def _scaled(geom: Geometry, k, chi):
    """(omega, r) of physical (k, chi): both unchanged in the flat model."""
    if geom.kind is Kind.FLAT:
        return k, chi
    return geom.omega_of_k(k), geom.curvature_scale * np.asarray(chi, dtype=float)


def spectral_nodes(geom: Geometry, k_max: float | None, panels: int, order: int,
                   omega_max: int | None):
    """The spectral measure: (k, w) with sum w k^2 g(k) = int g(k) k^2 dk.

    Open/flat: composite Gauss-Legendre nodes on [0, k_max] (panels x order).
    Closed: closed_k_lattice(geom, omega_max), every weight the lattice
    spacing sqrt(K), so the sum is K^(3/2) sum_w (w+1)^2 g(sqrt(K) (w+1)).
    The arguments of the other models are ignored.
    """
    if geom.kind is Kind.CLOSED:
        if omega_max is None:
            raise DomainError("the closed spectral measure needs omega_max")
        k = closed_k_lattice(geom, omega_max)
        return k, np.full_like(k, geom.curvature_scale)
    if k_max is None or not 0 < k_max < math.inf:      # NaN fails
        raise DomainError(f"the open/flat spectral measure needs a finite k_max > 0, got {k_max}")
    return gauss_legendre_grid(0.0, k_max, panels, order)


def _norm_const(geom: Geometry) -> float:
    """c: forward prefactor 1/c, synthesis amplitude c, Parseval 2 pi^2/c^2."""
    return math.pi * math.sqrt(2.0) if geom.kind is Kind.FLAT else 2.0 * math.sqrt(math.pi)


def _inverse_pref(geom: Geometry) -> float:
    """B = c/(2 pi^2), so that inverse(forward(f)) = f."""
    return _norm_const(geom) / (2.0 * math.pi ** 2)


def _weights(grid: RadialProfile | Spectrum, rule: str) -> np.ndarray:
    """The quadrature weights grid carries; DomainError naming the rule that makes them."""
    if grid.weights is None:
        raise DomainError(f"a {type(grid).__name__} without weights cannot be integrated: "
                          f"give it its grid's quadrature weights ({rule})")
    return grid.weights


def _tail_fraction(c: np.ndarray) -> float:
    """|sum of the last eighth of the nodes (at least 4)| / sum |c|, 0 if all vanish."""
    total = float(np.sum(np.abs(c)))
    return abs(float(np.sum(c[-max(4, c.size // 8):]))) / total if total > 0.0 else 0.0


def _check_tail(contrib: np.ndarray, tol: float | None, what: str):
    if tol is not None and (frac := _tail_fraction(contrib)) > tol:
        raise ConvergenceError(
            f"{what} tail carries {frac:.2e} of the integrand mass "
            f"(tolerance {tol:.0e}); extend or refine the grid")


def _period(x: np.ndarray):
    """s = G max(1, round(sqrt(n)/G)) for the least period G <= n/4: x[i+G] - x[i] = x[G] - x[0],
    if x[qs+h] = x[qs] + x[h] - x[0] for every qs+h < n, all within 4 eps max(x); else None."""
    n, tol = x.size, 4.0 * np.finfo(float).eps * x.max(initial=0.0)
    g = np.arange(1, n // 4 + 1)                  # i = g and n-1-g first: one vector test
    d = x[g] - x[:1]
    g = g[(np.abs(x[2 * g] - x[g] - d) <= tol) & (np.abs(x[-1:] - x[n - 1 - g] - d) <= tol)]
    for G in (g for g in g.tolist() if np.all(np.abs(x[g:] - x[:-g] - (x[g] - x[0])) <= tol)):
        h = np.arange(n) % (s := G * max(1, round(math.sqrt(n) / G)))     # the least G only
        return s if np.all(np.abs(x - x[np.arange(n) - h] - (x[h] - x[0])) <= tol) else None
    return None


def _zonal_factors(geom: Geometry, omega: np.ndarray, r: np.ndarray):
    """Angle-addition factors of zonal_spherical's table Phi_omega(r), or None.

    omega (increasing) and r are 1-d.  Let a = omega (omega+1 closed) and s = _period(a).
    Off the origin row ps + g is (sa[p] cd[g] + ca[p] sd[g]) / a, with sa, ca = sin,
    cos(a[ps] r)/f(r), sd, cd = sin, cos((a[g] - a[0]) r) and the closed sign (-1)^omega
    past pi/2 folded in: sin(a' r), |a' - a| <= 4 eps max(a).  If the folded r repeats
    (t = _period(r)), their sines and cosines at r[qt] and at r[h] - r[0] give those at r'
    = r[qt] + r[h] - r[0] by angle addition, |r' - r| <= 4 eps max(r); other radii (closed
    past pi/2, scattered lags) take them directly.  Returns
    (s, sa, ca, sd, cd, 1/a, r/f, origin, refl, (-1)^omega), 0 for 1/0; None only without a
    period of a.  The caller checks omega and r."""
    closed = geom.kind is Kind.CLOSED
    a = omega + 1.0 if closed else omega
    if (s := _period(a)) is None:
        return None
    r, refl, origin, scale = _fold(geom.kind, r)
    inv_f = np.divide(scale, r, out=np.zeros_like(r), where=~origin)   # 1/f(r), 0 at the origin
    par = np.where(closed & (omega % 2 == 1), -1.0, 1.0)     # = (-1)^omega[ps] (-1)^d_g
    u = np.concatenate([a[::s], a[:s] - a[0]])    # the rows of sa (ca), then of sd (cd)
    if (t := _period(r)) is None:
        sn, cs = np.sin(x := np.multiply.outer(u, r)), np.cos(x)
    else:                                         # (sin, cos)(u r[qt]) times the rotation by u r[h]
        sq, cq = np.sin(x := np.multiply.outer(u, r[::t])), np.cos(x)
        sh, ch = np.sin(x := np.multiply.outer(u, r[:t] - r[0])), np.cos(x)
        sn, cs = ((np.stack([sq, cq], 2) @ np.stack(v, 1)).reshape(u.size, -1)[:, :r.size]
                  for v in ((ch, sh), (-sh, ch)))
    for v in (sn, cs):                            # in place: sa (ca) times 1/f(r), then the
        v[:-s] *= inv_f                           # closed signs on reflected radii only
        v[:, refl] *= np.concatenate([par[::s], par[:s] * par[0]])[:, None]
    sa, ca, sd, cd = sn[:-s], cs[:-s], sn[-s:], cs[-s:]
    inv_a = np.divide(1.0, a, out=np.zeros_like(a), where=a > 0.0)
    return s, sa, ca, sd, cd, inv_a, scale, origin, refl, par


def _zonal_pass(geom: Geometry, k: np.ndarray, chi: np.ndarray, base=None,
                pref: float = 1.0, amp=None):
    """(fwd, inv): fwd = pref (Phi @ base) = pref/a [(sa base) @ cd^T + (ca base) @ sd^T] if
    base is given, inv = A @ Phi = sum_p sa_p (A/a @ cd)_p + ca_p (A/a @ sd)_p if amp is
    given, A = amp, or amp fwd with base; None if not asked."""
    omega, r = _scaled(geom, k, chi)
    fac = _zonal_factors(geom, omega, r)
    if fac is None:                               # no period: zonal_spherical's blocks
        fwd = None if base is None else np.empty_like(k)
        inv = None if amp is None else np.zeros_like(chi)
        for blk in zonal_blocks(k.size, chi.size):
            phi = zonal_spherical(geom, omega[blk], r)
            if base is not None:
                fwd[blk] = pref * (phi @ base)
            if amp is not None:
                inv += (amp[blk] if base is None else amp[blk] * fwd[blk]) @ phi
        return fwd, inv
    s, sa, ca, sd, cd, inv_a, scale, origin, refl, par = fac
    n, o1, o2 = k.size, origin & ~refl, origin & refl     # Phi = 1, (-1)^omega there
    fwd = inv = None
    if base is not None:                          # Phi_0 = r/f(r) exactly
        fwd = ((sa * base) @ cd.T + (ca * base) @ sd.T).ravel()[:n] * inv_a
        fwd = pref * np.where(inv_a > 0.0, fwd + base[o1].sum() + par * base[o2].sum(),
                              scale @ base)
    if amp is not None:
        A = amp if base is None else amp * fwd
        V = np.pad(A * inv_a, (0, sa.shape[0] * s - n)).reshape(-1, s)
        inv = np.sum(sa * (V @ cd), axis=0) + np.sum(ca * (V @ sd), axis=0)
        inv += A[inv_a == 0.0].sum() * scale
        inv[o1], inv[o2] = A.sum(), A @ par
    return fwd, inv


def _heaviest_row(geom: Geometry, k: np.ndarray, chi: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Phi_q(chi) of the first q of largest |Phi_q| @ ab (ab >= 0, k increasing), as a per-k
    loop: the _SEED_ROWS lowest-k rows set a floor, and only the rows past them whose bound
    (|Phi_q| <= 1/(omega_q f) off the origin, 1 on it) reaches it are summed."""
    omega, r = _scaled(geom, k, chi)
    rf, _, origin, scale = fold = _fold(geom.kind, r)     # once: every row below reads it
    inv_f = np.divide(scale, rf, out=np.zeros_like(rf), where=~origin)
    bound = (ab @ inv_f) / omega[_SEED_ROWS:] + ab[origin].sum()     # omega > 0 past row 0
    mass = np.abs(phi := _zonal_rows(geom.kind, omega[:_SEED_ROWS], fold)) @ ab
    top, top_mass = phi[i := int(np.argmax(mass))], mass[i]
    rows = _SEED_ROWS + np.flatnonzero(bound * (1.0 + 1e-12) >= top_mass)
    for blk in zonal_blocks(rows.size, r.size):
        mass = np.abs(phi := _zonal_rows(geom.kind, omega[rows[blk]], fold)) @ ab
        if mass[i := int(np.argmax(mass))] > top_mass:    # ties: the first node
            top, top_mass = phi[i], mass[i]
    return top


def _check_tail_tol(tail_tol: float | None):
    # nan or inf would turn the monitor off (frac > nan is False), 0 or less blame the grid
    if tail_tol is not None and not (math.isfinite(tail_tol) and tail_tol > 0):
        raise DomainError(f"tail_tol must be None or finite and > 0, got {tail_tol}")


def _transform(profile: RadialProfile, k, weights, tail_tol: float | None, back: bool):
    """(spectrum on k, profile back on profile.chi if back else None) from one zonal pass.

    tail_tol, then k and its weights are checked before any kernel is built;
    the chi tail (open, flat) is checked before the k tail (k with weights)."""
    _check_tail_tol(tail_tol)
    geom, chi = profile.geometry, profile.chi
    k = np.atleast_1d(np.asarray(k, dtype=float))
    grid = Spectrum(geom, k, np.zeros(k.shape), weights)
    weighted = back or grid.weights is not None        # back raises without them
    wk2 = _weights(grid, "sft.spectral_nodes") * k ** 2 if weighted else None
    base = _weights(profile, "quadrature.gauss_legendre_grid") * profile.values \
        * surface_area(geom, chi)
    fwd, inv = _zonal_pass(geom, k, chi, base, 1.0 / _norm_const(geom), wk2 if back else None)
    if geom.kind is not Kind.CLOSED and tail_tol is not None:    # closed chi is compact
        _check_tail(base * _heaviest_row(geom, k, chi, np.abs(base)), tail_tol,
                    "forward transform chi")
    if weighted:
        _check_tail(np.abs(wk2 * fwd), tail_tol, f"{'inverse' if back else 'forward'} transform k")
    return Spectrum(geom, k, fwd, grid.weights), \
        None if inv is None else RadialProfile(geom, chi, _inverse_pref(geom) * inv)


def forward_isotropic(profile: RadialProfile, k, weights=None, *,
                      tail_tol: float | None = 1e-3) -> Spectrum:
    """Transform a radial profile, with its chi weights, to amplitudes on grid k.

    The result carries weights, the spectral measure's weights on k (see
    spectral_nodes), which inverse_isotropic needs on the open and flat models.
    With them (the closed lattice always has them) its k tail is checked as
    inverse_isotropic checks it."""
    return _transform(profile, k, weights, tail_tol, False)[0]


def inverse_isotropic(spec: Spectrum, chi, *, tail_tol: float | None = 1e-3) -> RadialProfile:
    """Radial profile on grid chi (checked first: Geometry.check_chi) from spectral amplitudes."""
    _check_tail_tol(tail_tol)
    geom = spec.geometry
    chi = geom.check_chi(_as_grid("chi", np.atleast_1d(np.asarray(chi, dtype=float))))
    amp = _weights(spec, "sft.spectral_nodes") * spec.k ** 2 * spec.values
    _check_tail(np.abs(amp), tail_tol, "inverse transform k")
    return RadialProfile(geom, chi, _inverse_pref(geom) * _zonal_pass(geom, spec.k, chi, amp=amp)[1])


def roundtrip_isotropic(profile: RadialProfile, k, weights=None, *,
                        tail_tol: float | None = 1e-3) -> tuple[Spectrum, RadialProfile]:
    """forward_isotropic then inverse_isotropic back onto profile.chi, with the
    spectral measure's weights on k (required open and flat), building the
    zonal factors once.

    Returns (spectrum, profile back), bitwise equal to the two calls; the
    forward tail is checked before the inverse tail, as there."""
    return _transform(profile, k, weights, tail_tol, True)


def bump_profile(chi, center: float, halfwidth: float, amplitude: float = 1.0) -> np.ndarray:
    """Smooth compactly supported test profile A exp(-1/(1-t^2)), t=(chi-center)/halfwidth."""
    if not (math.isfinite(center) and math.isfinite(halfwidth) and halfwidth > 0):  # NaN: zeros
        raise DomainError(f"bump needs a finite center and halfwidth > 0: {center}, {halfwidth}")
    chi = np.asarray(chi, dtype=float)
    t = (chi - center) / halfwidth
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = amplitude * np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def profile_norm2(profile: RadialProfile) -> float:
    """||f||^2 = int |f|^2 S(chi) dchi on the stored grid."""
    return float(np.sum(_weights(profile, "quadrature.gauss_legendre_grid") * profile.values ** 2
                        * surface_area(profile.geometry, profile.chi)))


def spectrum_norm2(spec: Spectrum) -> float:
    """int |f00|^2 k^2 dk (open, flat) or sum (w+1)^2 |f00|^2 (closed)."""
    geom = spec.geometry
    n2 = float(np.sum(_weights(spec, "sft.spectral_nodes") * spec.k ** 2 * spec.values ** 2))
    return n2 / geom.K ** 1.5 if geom.kind is Kind.CLOSED else n2


def parseval_constant(geom: Geometry) -> float:
    """c in ||f00||^2 = c ||f||^2."""
    c = 2.0 * math.pi ** 2 / _norm_const(geom) ** 2
    return c / geom.K ** 1.5 if geom.kind is Kind.CLOSED else c
