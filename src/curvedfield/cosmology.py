"""FLRW background quantities.

Friedmann equation in terms of the density parameters:

    H(z) = H0 sqrt(OmegaR (1+z)^4 + OmegaM (1+z)^3 + OmegaK (1+z)^2 + OmegaL)

with the z=0 sum rule OmegaR + OmegaM + OmegaK + OmegaL = 1.  Comoving
distance and look-back time are the line-of-sight integrals

    chi(z) = (c/H0) int_0^z du / E(u)
    t_L(z) = (1/H0) int_0^z du / ((1+u) E(u)),   E = H/H0.

Units: H0 in km/s/Mpc, c in km/s, distances in Mpc.  Look-back times are
dimensionless (units of 1/H0) or Gyr via 1 Mpc = 3.0856775814913673e19 km
and 1 Gyr = 3.15576e16 s (Julian years).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ConvergenceError, DomainError
from .geometry import Geometry

C_LIGHT_KMS = 299792.458
MPC_KM = 3.0856775814913673e19
GYR_S = 3.15576e16

# newtonian gravitational constant, m^3 kg^-1 s^-2
_G_SI = 6.67430e-11


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


def _efunc(params: CosmologyParams, z: float) -> float:
    zp = 1.0 + z
    rad = (params.Omega_R * zp ** 4 + params.Omega_M * zp ** 3
           + params.Omega_K * zp ** 2 + params.Omega_L)
    if rad < 0:
        raise DomainError(f"negative Friedmann radicand at z={z}")
    return math.sqrt(rad)


def hubble(params: CosmologyParams, z):
    """H(z) in km/s/Mpc."""
    z = np.asarray(z, dtype=float)
    if not np.all(z > -1):
        raise DomainError("z must be > -1 and not NaN")
    zp = 1.0 + z
    rad = (params.Omega_R * zp ** 4 + params.Omega_M * zp ** 3
           + params.Omega_K * zp ** 2 + params.Omega_L)
    if np.any(rad < 0):
        bad = float(np.asarray(z).ravel()[np.argmax(np.asarray(rad).ravel() < 0)])
        raise DomainError(f"negative Friedmann radicand at z={bad}")
    return params.H0 * np.sqrt(rad)


def _line_of_sight(params: CosmologyParams, z: float, weight, rtol: float) -> float:
    if not z >= 0:
        raise DomainError("z must be >= 0 and not NaN")
    if z == 0.0:
        return 0.0
    val, err = quad(lambda u: weight(u) / _efunc(params, u), 0.0, z,
                    epsabs=0.0, epsrel=rtol, limit=200)
    if not math.isfinite(val) or err > 10.0 * rtol * max(abs(val), 1e-300):
        raise ConvergenceError(
            f"background integral did not converge at z={z} (err={err:.2e})")
    return val


def comoving_distance(params: CosmologyParams, z, rtol: float = 1e-8):
    """chi(z) in Mpc by adaptive quadrature (relative tolerance rtol)."""
    z = np.asarray(z, dtype=float)
    pref = params.c / params.H0
    vals = np.array([_line_of_sight(params, zz, lambda u: 1.0, rtol)
                     for zz in np.atleast_1d(z)])
    return pref * (vals[0] if z.ndim == 0 else vals)


def lookback_time(params: CosmologyParams, z, rtol: float = 1e-8, unit: str = "H0"):
    """t_L(z); unit="H0" gives dimensionless H0*t_L, unit="Gyr" gives Gyr."""
    z = np.asarray(z, dtype=float)
    vals = np.array([_line_of_sight(params, zz, lambda u: 1.0 / (1.0 + u), rtol)
                     for zz in np.atleast_1d(z)])
    if unit == "H0":
        pass
    elif unit == "Gyr":
        vals = vals * (MPC_KM / params.H0) / GYR_S
    else:
        raise DomainError(f"unknown time unit {unit!r}")
    return vals[0] if z.ndim == 0 else vals


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
