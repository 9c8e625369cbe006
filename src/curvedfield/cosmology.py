"""FLRW background quantities.

Friedmann equation in terms of the density parameters:

    H(z) = H0 sqrt(OmegaR (1+z)^4 + OmegaM (1+z)^3 + OmegaK (1+z)^2 + OmegaL)

with the z=0 sum rule OmegaR + OmegaM + OmegaK + OmegaL = 1.  Comoving
distance and look-back time are the line-of-sight integrals

    chi(z) = (c/H0) int_0^z du / E(u)
    t_L(z) = (1/H0) int_0^z du / ((1+u) E(u)),   E = H/H0.

With s = (1+u)^(-1/2) both become int_{s_z}^1 2 s^(2p+1) ds / sqrt(OmegaR +
OmegaM s^2 + OmegaK s^4 + OmegaL s^8), p = 0 for chi and 1 for t_L, smooth up
to s = 0 (z = inf) when OmegaR + OmegaM > 0.  One composite Gauss-Legendre rule
on [0, 1] (4 panels, order 24), mapped onto every [s_z, 1], serves all z of a
call.  The order-48 sum is returned; if the two differ by more than rtol
relative, ConvergenceError (as for the divergent z = inf integrals of de Sitter).

Units: H0 in km/s/Mpc, c in km/s, distances in Mpc.  Look-back times are
dimensionless (units of 1/H0) or Gyr via 1 Mpc = 3.0856775814913673e19 km
and 1 Gyr = 3.15576e16 s (Julian years).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import Geometry
# the name perfbench/spans.py wraps to count rule builds (two per integral)
from .quadrature import gauss_legendre_grid as quad

C_LIGHT_KMS = 299792.458
MPC_KM = 3.0856775814913673e19
GYR_S = 3.15576e16

# newtonian gravitational constant, m^3 kg^-1 s^-2
_G_SI = 6.67430e-11

_PANELS, _ORDER, _CHUNK = 4, 24, 2048   # _CHUNK z per pass keeps (z, node) arrays ~3 MB


@dataclass(frozen=True)
class CosmologyParams:
    """Density parameters and H0 (km/s/Mpc); c is fixed at 299792.458 km/s."""

    H0: float
    Omega_R: float
    Omega_M: float
    Omega_K: float
    Omega_L: float
    c: float = C_LIGHT_KMS

    def __post_init__(self):
        if not (self.H0 > 0 and math.isfinite(self.H0)):
            raise DomainError("H0 must be positive and finite")
        if not all(map(math.isfinite, (self.Omega_R, self.Omega_M, self.Omega_K, self.Omega_L))):
            raise DomainError("density parameters must be finite")
        if self.Omega_R < 0 or self.Omega_M < 0:
            raise DomainError("Omega_R and Omega_M must be >= 0")
        resid = self.Omega_R + self.Omega_M + self.Omega_K + self.Omega_L - 1.0
        if abs(resid) > 1e-9:
            raise DomainError(f"Omega sum rule violated by {resid:.3e}")

    @property
    def closure_residual(self) -> float:
        return self.Omega_R + self.Omega_M + self.Omega_K + self.Omega_L - 1.0


def make_params(H0: float, Omega_M: float, Omega_L: float, Omega_R: float = 0.0,
                Omega_K: float | None = None) -> CosmologyParams:
    """Build parameters with explicit closure handling.

    Omega_K=None solves the sum rule: Omega_K = 1 - Omega_R - Omega_M - Omega_L.
    A supplied Omega_K must already close the sum to 1e-6, else DomainError;
    the stored Omega_K is then re-solved exactly so downstream code never sees
    a sum-rule residual.
    """
    solved = 1.0 - Omega_R - Omega_M - Omega_L
    if Omega_K is not None and not abs(solved - Omega_K) <= 1e-6:     # NaN fails
        raise DomainError(
            f"Omega values do not close: 1 - OmegaR - OmegaM - OmegaL = {solved:.6g} "
            f"but Omega_K = {Omega_K:.6g} was required")
    return CosmologyParams(H0, Omega_R, Omega_M, solved, Omega_L)


def scale_factor(z) -> np.ndarray:
    """a = 1/(1+z)."""
    z = np.asarray(z, dtype=float)
    if not np.all(z > -1):
        raise DomainError("z must be > -1 and not NaN")
    return 1.0 / (1.0 + z)


def _radicand(params: CosmologyParams, x):
    """E^2 at x = 1 + z by Horner's rule from the leading nonzero term, so that
    z = inf gives inf (OmegaL for de Sitter), not 0 * inf; DomainError if < 0."""
    coef = np.trim_zeros([params.Omega_R, params.Omega_M, params.Omega_K, 0.0, params.Omega_L], "f")
    rad = np.full(np.shape(x), coef[0])
    for c in coef[1:]:
        rad = rad * x + c
    if np.any(rad < 0):
        raise DomainError(f"negative Friedmann radicand at z={np.asarray(x)[rad < 0][0] - 1:.6g}")
    return rad


def hubble(params: CosmologyParams, z):
    """H(z) in km/s/Mpc."""
    z = np.asarray(z, dtype=float)
    if not np.all(z > -1):
        raise DomainError("z must be > -1 and not NaN")
    return params.H0 * np.sqrt(_radicand(params, 1.0 + z))


def _line_of_sight(params: CosmologyParams, z, p: int, rtol: float):
    """int_0^z du / ((1+u)^p E(u)) for every z by the s rule of the module notes;
    the integrand is evaluated as 2 s^(2p-3) / E at 1 + u = s^-2, nodes s > 0."""
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0):
        raise DomainError("z must be >= 0 and not NaN")
    if not 0.0 < rtol < math.inf:
        raise DomainError(f"rtol must be finite and > 0, got {rtol}")
    rules = [quad(0.0, 1.0, _PANELS, order) for order in (_ORDER, 2 * _ORDER)]
    sz = (1.0 + z.ravel()) ** -0.5
    lo, hi = np.empty((2, sz.size))
    for i in range(0, sz.size, _CHUNK):
        span = 1.0 - sz[i:i + _CHUNK, None]
        for out, (x, w) in zip((lo, hi), rules):
            s = sz[i:i + _CHUNK, None] + span * x
            f = 2.0 * s ** (2 * p - 3) / np.sqrt(_radicand(params, 1.0 / (s * s)))
            out[i:i + _CHUNK] = span[:, 0] * (f @ w)
    bad = ~(np.abs(hi - lo) <= rtol * np.abs(hi))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConvergenceError(f"background integral did not converge at z={z.ravel()[i]}: order-"
                               f"doubling error {abs(hi[i] - lo[i]):.2e} > {rtol:.1e} * {hi[i]:.6g}")
    return hi.reshape(z.shape)[()]


def comoving_distance(params: CosmologyParams, z, rtol: float = 1e-8):
    """chi(z) in Mpc; the estimated relative error is at most rtol (module notes)."""
    return params.c / params.H0 * _line_of_sight(params, z, 0, rtol)


def lookback_time(params: CosmologyParams, z, rtol: float = 1e-8, unit: str = "H0"):
    """t_L(z); unit="H0" gives dimensionless H0*t_L, unit="Gyr" gives Gyr."""
    if unit not in ("H0", "Gyr"):
        raise DomainError(f"unknown time unit {unit!r}")
    vals = _line_of_sight(params, z, 1, rtol)
    return vals * (MPC_KM / params.H0) / GYR_S if unit == "Gyr" else vals


def critical_density(params: CosmologyParams, z=0.0):
    """rho_c(z) = 3 H(z)^2 / (8 pi G) in kg/m^3."""
    H_si = np.asarray(hubble(params, z)) * 1000.0 / (MPC_KM * 1000.0)
    return 3.0 * H_si ** 2 / (8.0 * math.pi * _G_SI)


def geometry_from_params(params: CosmologyParams) -> Geometry:
    """Spatial geometry with K = -Omega_K H0^2/c^2 in Mpc^-2.

    |Omega_K| < 1e-12 snaps to flat to avoid catastrophic cancellation in the
    curved branches.
    """
    if abs(params.Omega_K) < 1e-12:
        return Geometry.flat()
    K = -params.Omega_K * (params.H0 / params.c) ** 2
    return Geometry.closed(K) if K > 0 else Geometry.open(K)
