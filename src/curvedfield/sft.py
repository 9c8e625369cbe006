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

Non-compact integrals carry a tail monitor: if the trailing nodes contribute
more than tail_tol of the total absolute mass, the grid is declared
unconverged.  tail_tol is None (no monitor) or finite and > 0; anything else
raises DomainError before any kernel block is built.

The transforms and randfield.analytic_correlation make one pass (_zonal_pass)
over the table Phi(k, chi) without building it: every spectral_nodes grid
repeats per panel (Gauss-Legendre panels, the closed lattice), so by angle
addition the table factors through the sines and cosines of about 2 sqrt(n)
anchors and offsets per chi (specfun._zonal_factors), and each product with
it is two BLAS-3 products, a few ulps from a per-k loop.  Other k grids, or
fewer radii than an anchor group has rows (a covariance's few lags), take
zonal_spherical's row blocks.  roundtrip_isotropic builds the factors once,
with the same bits as forward_isotropic followed by inverse_isotropic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import Geometry, Kind, surface_area
from .quadrature import gauss_legendre_grid, tail_fraction
from .specfun import _factor_rows, _zonal_factors, zonal_blocks, zonal_spherical

__all__ = [
    "RadialProfile", "Spectrum", "surface_area", "forward_isotropic",
    "inverse_isotropic", "roundtrip_isotropic", "closed_k_lattice", "zonal_kernel",
    "bump_profile", "profile_norm2", "spectrum_norm2", "parseval_constant",
]


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
    """Wavenumbers sqrt(K) (w+1) for w = 0..omega_max."""
    if geom.kind is not Kind.CLOSED:
        raise DomainError("k lattice only applies to the closed model")
    if omega_max < 0:
        raise DomainError("omega_max must be >= 0")
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


def _check_tail(contrib: np.ndarray, tol: float | None, what: str):
    if tol is None or contrib.size < 8:
        return
    frac = tail_fraction(contrib, max(4, contrib.size // 8))
    if frac > tol:
        raise ConvergenceError(
            f"{what} tail carries {frac:.2e} of the integrand mass "
            f"(tolerance {tol:.0e}); extend or refine the grid")


def _zonal_pass(geom: Geometry, k: np.ndarray, chi: np.ndarray, base=None,
                pref: float = 1.0, amp=None, monitor: bool = False):
    """(fwd, top, inv): fwd = pref (Phi @ base) = pref/a [(sa base) @ cd^T + (ca base) @ sd^T]
    if base is given, top = argmax |Phi| @ |base| if monitor (summed only where its bound by
    1/(a f) reaches the first anchor group's max), inv = A @ Phi = sum_p sa_p (A/a @ cd)_p +
    ca_p (A/a @ sd)_p if amp is given, A = amp, or amp fwd with base; None if not asked."""
    omega, r = _scaled(geom, k, chi)
    fac = _zonal_factors(geom, omega, r)
    if fac is None:                               # zonal_spherical's blocks
        fwd, mass = (None, None) if base is None else (np.empty_like(k), np.empty_like(k))
        inv = None if amp is None else np.zeros_like(chi)
        for blk in zonal_blocks(k.size, chi.size):
            phi = zonal_spherical(geom, omega[blk], r)
            if base is not None:
                fwd[blk] = pref * (phi @ base)
                mass[blk] = np.abs(phi) @ np.abs(base) if monitor else 0.0
            if amp is not None:
                inv += (amp[blk] if base is None else amp[blk] * fwd[blk]) @ phi
        return fwd, int(np.argmax(mass)) if monitor else None, inv
    s, sa, ca, sd, cd, inv_a, inv_f, scale, origin, refl, par = fac
    n, o1, o2 = k.size, origin & ~refl, origin & refl     # Phi = 1, (-1)^omega there
    fwd = top = inv = None
    if base is not None:                          # Phi_0 = r/f(r) exactly
        fwd = ((sa * base) @ cd.T + (ca * base) @ sd.T).ravel()[:n] * inv_a
        fwd = pref * np.where(inv_a > 0.0, fwd + base[o1].sum() + par * base[o2].sum(),
                              scale @ base)
    if monitor:                                   # a cap |Phi| <= 1 would drop no row
        ab = np.abs(base)
        bound = np.where(inv_a > 0.0, (ab @ inv_f) * inv_a + ab[origin].sum(), np.inf)
        best = np.max(np.abs(_factor_rows(fac, np.arange(s))) @ ab)
        rows = np.flatnonzero(bound * (1.0 + 1e-12) >= best)
        top = int(rows[np.argmax(np.concatenate([np.abs(_factor_rows(fac, rows[blk])) @ ab
                                                 for blk in zonal_blocks(rows.size, r.size)]))])
    if amp is not None:
        A = amp if base is None else amp * fwd
        V = np.pad(A * inv_a, (0, sa.shape[0] * s - n)).reshape(-1, s)
        inv = np.sum(sa * (V @ cd), axis=0) + np.sum(ca * (V @ sd), axis=0)
        inv += A[inv_a == 0.0].sum() * scale
        inv[o1], inv[o2] = A.sum(), A @ par
    return fwd, top, inv


def _forward(profile: RadialProfile, k: np.ndarray, tail_tol: float | None, amp=None):
    """(forward amplitudes on k, _zonal_pass's inv); the tail is checked after the pass."""
    geom, chi = profile.geometry, profile.chi
    w = _weights(profile, "quadrature.gauss_legendre_grid")
    base = w * profile.values * surface_area(geom, chi)
    monitor = geom.kind is not Kind.CLOSED and tail_tol is not None
    fwd, top, inv = _zonal_pass(geom, k, chi, base, 1.0 / _norm_const(geom), amp, monitor)
    if monitor:                        # the first node wins ties, as in a per-k loop
        _check_tail(base * zonal_kernel(geom, k[top], chi), tail_tol, "forward transform chi")
    return fwd, inv


def _check_tail_tol(tail_tol: float | None):
    # nan or inf would turn the monitor off (frac > nan is False), 0 or less blame the grid
    if tail_tol is not None and not (math.isfinite(tail_tol) and tail_tol > 0):
        raise DomainError(f"tail_tol must be None or finite and > 0, got {tail_tol}")


def _check_inverse_tail(geom: Geometry, amp: np.ndarray, tail_tol: float | None):
    if geom.kind is not Kind.CLOSED:
        _check_tail(np.abs(amp), tail_tol, "inverse transform k")


def forward_isotropic(profile: RadialProfile, k, tail_tol: float | None = 1e-3) -> Spectrum:
    """Transform a radial profile, with its chi weights, to amplitudes on grid k.

    An open or flat result has no weights: to invert it, rebuild Spectrum(geom,
    k, values, w) with spectral_nodes' weights w, or call roundtrip_isotropic."""
    _check_tail_tol(tail_tol)
    k = _as_grid("k", np.atleast_1d(np.asarray(k, dtype=float)))
    return Spectrum(profile.geometry, k, _forward(profile, k, tail_tol)[0])


def inverse_isotropic(spec: Spectrum, chi, *, tail_tol: float | None = 1e-3) -> RadialProfile:
    """Reconstruct the radial profile on grid chi from spectral amplitudes."""
    _check_tail_tol(tail_tol)
    geom = spec.geometry
    chi = _as_grid("chi", np.atleast_1d(np.asarray(chi, dtype=float)))
    pref = _inverse_pref(geom)
    amp = _weights(spec, "sft.spectral_nodes") * spec.k ** 2 * spec.values
    _check_inverse_tail(geom, amp, tail_tol)
    return RadialProfile(geom, chi, pref * _zonal_pass(geom, spec.k, chi, amp=amp)[2])


def roundtrip_isotropic(profile: RadialProfile, k, weights=None, *,
                        tail_tol: float | None = 1e-3) -> tuple[Spectrum, RadialProfile]:
    """forward_isotropic then inverse_isotropic back onto profile.chi, with the
    spectral measure's weights on k (required open and flat), building each
    zonal block once.

    Returns (spectrum, profile back), bitwise equal to the two calls; the
    forward tail is checked before the inverse tail, as there."""
    _check_tail_tol(tail_tol)
    geom = profile.geometry
    k = np.atleast_1d(np.asarray(k, dtype=float))
    grid = Spectrum(geom, k, np.zeros(k.shape), weights)    # checks k and weights first
    pref = _inverse_pref(geom)
    wk2 = _weights(grid, "sft.spectral_nodes") * grid.k ** 2
    out, vals = _forward(profile, grid.k, tail_tol, wk2)
    _check_inverse_tail(geom, wk2 * out, tail_tol)
    return (Spectrum(geom, grid.k, out, grid.weights),
            RadialProfile(geom, profile.chi, pref * vals))


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
