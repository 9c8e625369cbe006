"""Constant-curvature spatial slices and their metric helpers.

A slice is one of the three simply connected constant-curvature 3-spaces,
selected by the sign of the curvature K (1/length^2):

    K < 0  open (hyperbolic),  f_K(chi) = sinh(sqrt(-K) chi)/sqrt(-K)
    K = 0  flat (Euclidean),   f_K(chi) = chi
    K > 0  closed (spherical), f_K(chi) = sin(sqrt(K) chi)/sqrt(K)

The comoving radius chi runs over [0, inf) for open/flat and [0, pi/sqrt(K)]
for closed.  Spectral modes are labelled by a wave number k >= 0; the closed
model only admits the discrete lattice k = (omega+1) sqrt(K), omega = 0,1,2...
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpectralLatticeError

FOUR_PI = 4.0 * math.pi


class Kind(enum.Enum):
    OPEN = "open"
    FLAT = "flat"
    CLOSED = "closed"


@dataclass(frozen=True)
class Geometry:
    """Curvature model: kind plus the curvature constant K.

    The sign of K must match the kind; use the classmethod constructors.
    """

    kind: Kind
    K: float

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise DomainError("curvature K must be finite")
        sign = {Kind.OPEN: -1, Kind.FLAT: 0, Kind.CLOSED: 1}[self.kind]
        if sign == 0 and self.K != 0.0:
            raise DomainError("flat geometry requires K = 0")
        if sign != 0 and math.copysign(1.0, self.K) * sign <= 0 or (sign != 0 and self.K == 0.0):
            raise DomainError(f"{self.kind.value} geometry requires sign(K) = {sign}")

    @classmethod
    def open(cls, K: float) -> "Geometry":
        return cls(Kind.OPEN, float(K))

    @classmethod
    def flat(cls) -> "Geometry":
        return cls(Kind.FLAT, 0.0)

    @classmethod
    def closed(cls, K: float) -> "Geometry":
        return cls(Kind.CLOSED, float(K))

    @property
    def curvature_scale(self) -> float:
        """sqrt(|K|); 0 for flat."""
        return math.sqrt(abs(self.K))

    @property
    def chi_max(self) -> float:
        """Upper end of the chi-domain (inf for open/flat)."""
        if self.kind is Kind.CLOSED:
            return math.pi / math.sqrt(self.K)
        return math.inf

    # ---- domains ---------------------------------------------------------

    def check_chi(self, chi) -> np.ndarray:
        chi = np.asarray(chi, dtype=float)
        if not np.all(np.isfinite(chi)):
            raise DomainError("chi must be finite")
        hi = self.chi_max
        # tiny cushion for roundoff at the closed-model boundary
        if np.any(chi < 0.0) or np.any(chi > hi * (1.0 + 1e-12)):
            raise DomainError(f"chi outside [0, {hi}] for {self.kind.value} geometry")
        return chi

    def omega_of_k(self, k):
        """Dimensionless spectral parameter for the curved models.

        open: omega = k/sqrt(-K); closed: omega = k/sqrt(K) - 1 (must be a
        nonnegative integer).  Flat has no rescaling; returns k unchanged.
        k may be a scalar (float result) or an array (array result); the
        closed lattice check names the first off-lattice entry.
        """
        if self.kind is Kind.OPEN:
            return k / math.sqrt(-self.K)
        if self.kind is Kind.CLOSED:
            ks = np.asarray(k, dtype=float)
            omega = ks / math.sqrt(self.K) - 1.0
            nearest = np.round(omega) + 0.0          # + 0.0 turns -0.0 into 0.0
            off = ~(nearest >= 0) | ~(np.abs(omega - nearest)
                                      <= 1e-8 * np.maximum(1.0, np.abs(omega)))
            if np.any(off):
                i = np.flatnonzero(off)[0]
                raise SpectralLatticeError(
                    f"k={ks.flat[i]} is off the closed-model lattice k=(omega+1)sqrt(K); "
                    f"omega={omega.flat[i]}")
            return float(nearest) if ks.ndim == 0 else nearest
        return k

    def k_of_omega(self, omega: float) -> float:
        if self.kind is Kind.OPEN:
            return omega * math.sqrt(-self.K)
        if self.kind is Kind.CLOSED:
            return (omega + 1.0) * math.sqrt(self.K)
        return omega


def f_K(geom: Geometry, chi):
    """Metric radius of the comoving sphere at chi (area = 4 pi f_K^2).

    Continuous in K: the flat branch is the K -> 0 limit of both curved
    branches.
    """
    chi = geom.check_chi(chi)
    s = geom.curvature_scale
    if geom.kind is Kind.OPEN:
        return np.sinh(s * chi) / s
    if geom.kind is Kind.CLOSED:
        return np.sin(s * chi) / s
    return chi


def surface_area(geom: Geometry, chi):
    """S(chi) = 4 pi f_K(chi)^2."""
    r = f_K(geom, chi)
    return FOUR_PI * r * r
