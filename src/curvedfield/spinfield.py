"""Spin-weighted random fields on spheres of constant radius.

A mean-square continuous isotropic spin-s field over (chi, n) expands as

    X(chi, n) = sum_{l >= |s|} sum_m a_{slm}(chi) sY_lm(n)

with uncorrelated coefficient processes E[a_{slm}(chi1) conj(a_{sl'm'}(chi2))]
= delta_ll' delta_mm' C_sl(chi1, chi2).  The covariance kernels C_sl must be
symmetric positive semidefinite in (chi1, chi2); the two-point function
follows from the spin addition theorem

    E[X(chi1,n1) conj(X(chi2,n2))]
        = (1/(2 sqrt(pi))) sum_l C_sl(chi1,chi2) sqrt(2l+1)
          sY_{l,-s}(beta, 0) exp(-i s (alpha + gamma))

where (alpha, beta, gamma) frame the ordered pair (n1, n2): beta is the
angular separation and alpha, gamma the bearings defined in euler_frame.

Sampling factors every kernel in one stacked symmetric eigendecomposition;
eigenvalues below -1e-12 of the kernel scale indicate an indefinite input and
raise KernelDefinitenessError naming the first such l; small negative roundoff
is clipped to zero.  Rows with zero diagonal (for instance chi = 0, where every
l >= 1 process must vanish) are zeroed in the factor so those samples are exactly 0.0.
Synthesis runs randfield._synthesize_modes with this factor in place of T_l:
per block of m, one matmul per l, then one pass over the points per m.

Kernel recovery inverts the two-point function in the polar configuration
n1 = north pole, n2 = (beta, 0), where alpha + gamma = pi exactly:

    C_sl = (-1)^s (4 pi^(3/2) / sqrt(2l+1))
           int_0^pi R(beta) sY_{l,-s}(beta, 0) sin(beta) dbeta

using that sqrt(2 pi) sY_{l,-s}(beta, 0) is orthonormal on [0, pi] with the
sin(beta) weight.  The integral is exact on a Gauss-Legendre rule in
cos(beta) with at least L_max + 1 nodes.

The lensing ladder maps simple-lens potential coefficients to the observable
multipoles through multipliers of the form sign * sqrt(integer)/2:

    kappa (s=0): -l(l+1)/2
    F     (s=1): -(l(l+1)/2) sqrt(l(l+1))
    gamma (s=2): (1/2) sqrt((l+2)!/(l-2)!)
    G     (s=3): (1/2) sqrt(l(l+1)(l-1)(l+2)(l-2)(l+3))

ladder_radicand exposes the exact integer radicands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, KernelDefinitenessError
from .quadrature import gauss_legendre_grid
from .randfield import _check_seed, _points, _synthesize_modes, mode_rng, mode_streams  # noqa: F401 (traced)
from .specfun import _check_index, _spin_rows, spin_harmonic, spin_harmonic_table  # noqa: F401 (traced by perfbench)

__all__ = [
    "SpinKernelSet", "SpinFieldRealization", "PointPairFrame",
    "LensingCoefficientSet", "euler_frame", "spin_correlation",
    "synthesize_spin", "recover_kernels", "beta_rule", "lensing_ladder",
    "lensing_coefficients", "lensing_multiplier", "ladder_radicand",
    "separable_kernels", "LENSING_SPINS",
]

_SPIN_TAG = 2


# ---------------------------------------------------------------------------
# Kernel container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinKernelSet:
    """Per-l covariance kernels C_sl on a fixed chi grid.

    ell lists the multipoles carried by the set; every entry must satisfy
    l >= |s| (spectral content below the spin weight does not exist for a
    spin-s field and is rejected as malformed input).
    """

    s: int
    ell: np.ndarray
    chi: np.ndarray
    kernels: np.ndarray   # (n_ell, n_chi, n_chi)

    def __post_init__(self):
        ell = np.asarray(self.ell, dtype=int)
        chi = np.asarray(self.chi, dtype=float)
        ker = np.asarray(self.kernels, dtype=float)
        if ell.ndim != 1 or ell.size == 0 or np.any(np.diff(ell) <= 0):
            raise DomainError("ell must be strictly increasing and non-empty")
        if np.any(ell < abs(self.s)):
            bad = int(ell[ell < abs(self.s)][0])
            raise DomainError(
                f"kernel content at l={bad} below spin weight |s|={abs(self.s)}")
        if chi.ndim != 1 or chi.size == 0 or (chi.size > 1 and np.any(np.diff(chi) <= 0)):
            raise DomainError("chi must be strictly increasing and non-empty")
        if not np.all(np.isfinite(chi)):
            raise DomainError("chi must be finite")
        if np.any(chi < 0):
            raise DomainError("chi must be >= 0")
        if ker.shape != (ell.size, chi.size, chi.size):
            raise DomainError("kernels must have shape (n_ell, n_chi, n_chi)")
        if not np.all(np.isfinite(ker)):
            raise DomainError("kernels must be finite")
        scale = np.max(np.abs(ker), axis=(1, 2), initial=0.0)
        asym = np.max(np.abs(ker - np.swapaxes(ker, 1, 2)), axis=(1, 2))
        if np.any(asym > 1e-10 * (scale + 1.0)):
            bad = int(ell[np.argmax(asym > 1e-10 * (scale + 1.0))])
            raise DomainError(f"kernel at l={bad} is not symmetric")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "kernels", ker)

    def chi_index(self, chi: float) -> int:
        i = int(np.argmin(np.abs(self.chi - chi)))
        if not math.isclose(self.chi[i], chi, rel_tol=1e-9, abs_tol=1e-12):
            raise DomainError(f"chi={chi} is not a kernel grid node")
        return i


@dataclass(frozen=True)
class SpinFieldRealization:
    """Samples X(chi_i, n_p); values has shape (n_realizations, n_chi, n_points)."""

    kernels: SpinKernelSet
    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray
    seed: int


# ---------------------------------------------------------------------------
# Pair frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointPairFrame:
    """Relative orientation (alpha, beta, gamma) of an ordered point pair.

    defined=False flags coincident or antipodal pairs, where the bearings
    alpha and gamma are individually meaningless (beta is still valid).
    """

    alpha: float
    beta: float
    gamma: float
    defined: bool


def _bearing(theta1, phi1, theta2, phi2) -> tuple[float, float]:
    """(y, x): atan2(y, x) is the initial bearing from point 1 toward point 2, hypot(y, x) = |n1 x n2|."""
    d = phi2 - phi1
    y = math.sin(theta2) * math.sin(d)
    x = math.cos(theta2) * math.sin(theta1) - math.sin(theta2) * math.cos(theta1) * math.cos(d)
    return y, x


def euler_frame(n1, n2) -> PointPairFrame:
    """Frame angles for the ordered pair of sphere points n = (theta, phi).  beta is
    atan2(|n1 x n2|, n1 . n2): acos(n1 . n2) cannot resolve beta below about 1.5e-8 and
    gave coincident pairs a frame from rounding.  defined=False within 1e-12 of beta = 0, pi."""
    t1, p1 = float(n1[0]), float(n1[1])
    t2, p2 = float(n2[0]), float(n2[1])
    for t in (t1, t2):
        if not 0.0 <= t <= math.pi:
            raise DomainError("theta must lie in [0, pi]")
    cosb = (math.cos(t1) * math.cos(t2)
            + math.sin(t1) * math.sin(t2) * math.cos(p2 - p1))
    y, x = _bearing(t1, p1, t2, p2)
    beta = math.atan2(math.hypot(y, x), cosb)
    if beta < 1e-12 or math.pi - beta < 1e-12:
        return PointPairFrame(0.0, beta, 0.0, False)
    alpha = math.atan2(y, x) % (2.0 * math.pi)
    gamma = (-math.atan2(*_bearing(t2, p2, t1, p1))) % (2.0 * math.pi)
    # a tiny negative bearing wraps to exactly 2 pi, which is 0
    alpha, gamma = (0.0 if a == 2.0 * math.pi else a for a in (alpha, gamma))
    return PointPairFrame(alpha, beta, gamma, True)


# ---------------------------------------------------------------------------
# Two-point function and recovery
# ---------------------------------------------------------------------------

def spin_correlation(kernels: SpinKernelSet, chi1: float, n1,
                     chi2: float, n2) -> complex:
    """E[X(chi1, n1) conj(X(chi2, n2))] from the kernel set."""
    c12 = kernels.kernels[:, kernels.chi_index(chi1), kernels.chi_index(chi2)]
    s, frame, L = kernels.s, euler_frame(n1, n2), int(kernels.ell[-1])
    if not frame.defined:
        # coincident/antipodal: sum the addition theorem over m directly
        lam = spin_harmonic_table(s, L, np.array([n1[0], n2[0]], dtype=float))[kernels.ell]
        phase = np.exp(1j * np.arange(-L, L + 1) * (float(n1[1]) - float(n2[1])))
        return complex(np.sum(c12[:, None] * lam[..., 0] * lam[..., 1] * phase))
    y = _spin_rows(s, L, [-s], np.array([frame.beta]))[kernels.ell, 0, 0]
    tot = np.sum(c12 * np.sqrt(2 * kernels.ell + 1) * y)
    return complex(tot * np.exp(-1j * s * (frame.alpha + frame.gamma)) / math.sqrt(4.0 * math.pi))


def beta_rule(L_max: int, extra: int = 8):
    """Gauss-Legendre nodes/weights in cos(beta), exact through degree 2 L_max."""
    n = max(L_max + 1, 2) + extra
    u, w = gauss_legendre_grid(-1.0, 1.0, 1, n)
    return np.arccos(u)[::-1], w[::-1]


def recover_kernels(R: np.ndarray, beta: np.ndarray, weights: np.ndarray,
                    s: int, L_max: int) -> np.ndarray:
    """Invert polar-configuration correlation samples to kernels C_sl.

    R holds samples R(beta_j) along the last axis, on quadrature nodes
    (beta, weights) in cos(beta) (see beta_rule).  Returns an array with the
    last axis indexed by l = 0..L_max; entries below |s| are zero.
    """
    R = np.asarray(R)
    beta = np.asarray(beta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if beta.shape != weights.shape or beta.ndim != 1:
        raise DomainError("beta and weights must be matching 1-d arrays")
    if R.shape[-1] != beta.size:
        raise DomainError("R must have one sample per beta node")
    if beta.size < L_max + 1:
        raise DomainError(
            f"need at least L_max+1 = {L_max + 1} beta nodes for exact recovery")
    y = _spin_rows(s, L_max, [-s], beta)[:, 0]   # rows l < |s| are 0
    norm = (-1.0) ** (abs(s) % 2) * 4.0 * math.pi ** 1.5 / np.sqrt(2 * np.arange(L_max + 1) + 1)
    out = np.tensordot(R, weights * y, axes=([-1], [1])) * norm
    return out if np.iscomplexobj(R) else out.real


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _factor(kernel: np.ndarray, l) -> np.ndarray:
    """Square roots of a kernel stack (..., n, n) at multipoles l from one eigh (see notes)."""
    scale = np.maximum(np.max(np.abs(kernel), axis=(-2, -1)), 1e-300)
    vals, vecs = np.linalg.eigh(kernel)
    low = np.min(vals, axis=-1)
    if np.any(bad := low < -1e-12 * scale):
        i = np.unravel_index(np.argmax(bad), bad.shape)     # the first indefinite kernel
        raise KernelDefinitenessError(
            f"kernel at l={np.asarray(l)[i]} has eigenvalue {low[i]:.3e} "
            f"below -1e-12 of its scale {scale[i]:.3e}")
    fac = vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]
    fac[np.diagonal(kernel, axis1=-2, axis2=-1) == 0.0] = 0.0   # exact zeros at zero-variance nodes
    return fac


def synthesize_spin(s: int, kernels: SpinKernelSet, theta, phi, seed: int,
                    n_realizations: int = 1) -> SpinFieldRealization:
    """Draw spin-s field realizations on the kernel chi grid x points (theta, phi)."""
    if s != kernels.s:
        raise DomainError(f"spin mismatch: s={s} but kernels carry s={kernels.s}")
    _check_seed(seed)
    theta, phi = _points(theta, phi)
    if n_realizations < 1:
        raise DomainError("n_realizations must be >= 1")
    ell, theta_u = kernels.ell.tolist(), np.unique(theta)
    _check_index(ell[-1])                       # before any kernel is factored
    fac = _factor(kernels.kernels, ell).transpose(0, 2, 1)
    vals = _synthesize_modes(fac, ell, lambda: mode_streams(seed, tag=_SPIN_TAG, spin=s), s, theta_u,
                             np.arange(kernels.chi.size)[:, None], np.searchsorted(theta_u, theta),
                             phi, (n_realizations, kernels.chi.size), real=False)
    return SpinFieldRealization(kernels, theta, phi, vals, seed)


# ---------------------------------------------------------------------------
# Lensing ladder
# ---------------------------------------------------------------------------

LENSING_SPINS = {"kappa": 0, "F": 1, "gamma": 2, "G": 3}


def ladder_radicand(kind: str, l: int) -> tuple[int, int]:
    """(sign, radicand) with multiplier = sign * sqrt(radicand) / 2, exactly."""
    if kind not in LENSING_SPINS:
        raise DomainError(f"unknown lensing observable {kind!r}")
    if l < 0:
        raise DomainError("l must be >= 0")
    if l < LENSING_SPINS[kind]:
        return 0, 0
    if kind == "kappa":
        return -1, (l * (l + 1)) ** 2
    if kind == "F":
        return -1, (l * (l + 1)) ** 3
    if kind == "gamma":
        return 1, (l - 1) * l * (l + 1) * (l + 2)
    return 1, (l - 2) * (l - 1) * l * (l + 1) * (l + 2) * (l + 3)


def lensing_multiplier(kind: str, l: int) -> float:
    sign, rad = ladder_radicand(kind, l)
    return sign * math.sqrt(rad) / 2.0


@dataclass(frozen=True)
class LensingCoefficientSet:
    """Ladder multipliers per multipole for the four lensing observables."""

    ell: np.ndarray
    kappa: np.ndarray
    F: np.ndarray
    gamma: np.ndarray
    G: np.ndarray


def lensing_coefficients(ell) -> LensingCoefficientSet:
    ell = np.asarray(ell, dtype=int)
    cols = {k: np.array([lensing_multiplier(k, int(l)) for l in ell])
            for k in LENSING_SPINS}
    return LensingCoefficientSet(ell, cols["kappa"], cols["F"],
                                 cols["gamma"], cols["G"])


def lensing_ladder(potential: SpinKernelSet, kind: str) -> SpinKernelSet:
    """Kernel set of a lensing observable from the s=0 potential kernels.

    Coefficients scale by the ladder multiplier, covariances by its square.
    Multipoles below the observable's spin weight are dropped (their
    multipliers vanish for F, gamma, G; kappa keeps l=0 with multiplier 0).
    """
    if potential.s != 0:
        raise DomainError("lensing_ladder expects s=0 potential kernels")
    s_out = LENSING_SPINS.get(kind)
    if s_out is None:
        raise DomainError(f"unknown lensing observable {kind!r}")
    keep = potential.ell >= s_out
    ell = potential.ell[keep]
    if ell.size == 0:
        # every input multipole sits on a zero rung: the observable vanishes
        # identically; represent it as a zero kernel at l = s_out
        n = potential.chi.size
        return SpinKernelSet(s_out, np.array([s_out]), potential.chi,
                             np.zeros((1, n, n)))
    mult2 = np.array([lensing_multiplier(kind, int(l)) ** 2 for l in ell])
    kernels = potential.kernels[keep] * mult2[:, None, None]
    return SpinKernelSet(s_out, ell, potential.chi, kernels)


# ---------------------------------------------------------------------------
# Built-in kernel family
# ---------------------------------------------------------------------------

def separable_kernels(s: int, ell, chi, amplitude: float = 1.0,
                      corr_length: float = 1.0,
                      ell_scale: float = 8.0) -> SpinKernelSet:
    """Smooth positive semidefinite kernel family for demos and checks.

    C_sl(chi1, chi2) = amplitude exp(-l(l+1)/ell_scale^2) m(chi1) m(chi2)
                       exp(-(chi1-chi2)^2/(2 corr_length^2))

    with m(chi) = chi/(chi + corr_length) for l >= 1 (zero variance at
    chi = 0) and m = 1 for l = 0.  Products of positive semidefinite
    factors, so each kernel is positive semidefinite.
    """
    ell = np.asarray(ell, dtype=int)
    chi = np.asarray(chi, dtype=float)
    if not (corr_length > 0 and amplitude >= 0 and ell_scale > 0):   # NaN fails
        raise DomainError("need corr_length > 0, ell_scale > 0, amplitude >= 0")
    gauss = np.exp(-0.5 * ((chi[:, None] - chi[None, :]) / corr_length) ** 2)
    m = chi / (chi + corr_length)
    kernels = np.empty((ell.size, chi.size, chi.size))
    for i, l in enumerate(ell):
        damp = amplitude * math.exp(-l * (l + 1) / ell_scale ** 2)
        if l == 0:
            kernels[i] = damp * gauss
        else:
            kernels[i] = damp * np.outer(m, m) * gauss
    return SpinKernelSet(s, ell, chi, kernels)
