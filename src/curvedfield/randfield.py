"""Isotropic Gaussian random fields via spectral synthesis.

A mean-zero isotropic field with spectral density P(k) >= 0 has covariance

    E[f(x1) conj(f(x2))] = C(d(x1, x2)),
    C(r) = sum_q w_q k_q^2 P(k_q) Phi_{k_q}(r)

over the spectral measure (k_q, w_q) of sft.spectral_nodes: Gauss-Legendre
nodes on [0, k_max] for the open and flat models, the integral
int_0^inf Phi_k(r) k^2 P(k) dk; the lattice k_w = sqrt(K)(w+1) with weight
sqrt(K) for the closed model, the sum K^(3/2) sum_w (w+1)^2 P(k_w) Phi_w(r).
The synthesis expansion over spherical modes on the same measure is

    f(chi, n) = alpha sum_lm Y_lm(n) sum_q R_{k_q l}(chi) k_q sqrt(P(k_q) w_q) xi_lm_q

with iid standard complex Gaussians xi and alpha = c, the model's constant of
sft: 2 sqrt(pi) (open, closed), pi sqrt(2) (flat).  alpha absorbs the
addition theorem constant linking the zonal kernel to the per-model radial
normalization, so the discretized expansion reproduces the measure sum of C
exactly in expectation; the closed weight sqrt(K) carries the K^(3/4) that
alpha would otherwise need.

The closed-model weight k sqrt(P w) = K^(3/4) (w+1) sqrt(P) matches the
covariance lattice sum above and keeps the fundamental mode w = 0.

Per mode the field sees xi only through a_lm = xi_lm B_l on the distinct
radii, B_l = diag(k sqrt(P w)) R_l (n_k x n_radii), of kernel C_l = B_l^T B_l.
With fewer radii than nodes, B_l = Q T_l (thin QR) and xi Q is again iid, so
eta_lm T_l draws it from n_radii Gaussians with no clipping; else T_l = B_l.
Per m, b_m = sum_l a_lm lambda_lm on the distinct (chi, theta) pairs, from one
spin_harmonic_table, is gathered to the points times e^{i m phi}; real fields
(xi_{l,-m} = (-1)^m conj(xi_lm)) are Re b_0 + 2 Re sum_{m>0} b_m e^{i m phi}.

Randomness is counter-based (Philox) with one stream per (l, m) mode keyed by
(seed, tag(l, m)), so a realization depends only on the seed, never on the
order in which the modes are drawn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Geometry, Kind
from .sft import _norm_const, _zonal_pass, spectral_nodes
from .specfun import HARMONIC_L_MAX, radial_table, spin_harmonic_table, zonal_spherical
from .specfun import radial, spin_harmonic  # noqa: F401  (perfbench/spans.py wraps them)

__all__ = [
    "PowerSpectrum", "PowerLaw", "GaussianBump", "Tabulated", "power_law_eval",
    "SynthesisConfig", "FieldRealization", "CorrelationEstimate",
    "synthesize", "analytic_correlation", "estimate_correlation",
]


# ---------------------------------------------------------------------------
# Power spectra
# ---------------------------------------------------------------------------

def power_law_eval(k, amplitude: float, index: float,
                   k_cut_low: float = 0.0, k_cut_high: float = math.inf):
    """A k^index restricted to [k_cut_low, k_cut_high], zero outside."""
    k = np.asarray(k, dtype=float)
    out = np.zeros_like(k)
    sel = (k >= k_cut_low) & (k <= k_cut_high) & (k > 0)
    out[sel] = amplitude * k[sel] ** index
    if index >= 0:
        out[(k == 0) & (k_cut_low <= 0)] = amplitude if index == 0 else 0.0
    return out


class PowerSpectrum:
    """Evaluable spectral density P(k) >= 0."""

    def __call__(self, k):  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLaw(PowerSpectrum):
    """P(k) = amplitude * k**index on [k_cut_low, k_cut_high].

    index <= -3 with k_cut_low = 0 makes int k^2 P dk diverge at the origin,
    which no isotropic field supports, so that combination is rejected here
    rather than at synthesis time.
    """

    amplitude: float
    index: float
    k_cut_low: float = 0.0
    k_cut_high: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.index)):
            raise DomainError("amplitude and index must be finite")
        if self.amplitude < 0:
            raise DomainError("amplitude must be >= 0")
        if not 0 <= self.k_cut_low <= self.k_cut_high:
            raise DomainError("need 0 <= k_cut_low <= k_cut_high")
        if self.index <= -3 and self.k_cut_low == 0:
            raise DomainError(
                f"power law k^{self.index} is not integrable against k^2 dk "
                "at k=0; set k_cut_low > 0")

    def __call__(self, k):
        return power_law_eval(k, self.amplitude, self.index,
                              self.k_cut_low, self.k_cut_high)


@dataclass(frozen=True)
class GaussianBump(PowerSpectrum):
    """P(k) = amplitude * exp(-(k - k0)^2 / (2 sigma^2))."""

    amplitude: float
    k0: float
    sigma: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.k0, self.sigma))):
            raise DomainError("amplitude, k0 and sigma must be finite")
        if self.amplitude < 0 or self.sigma <= 0 or self.k0 < 0:
            raise DomainError("need amplitude >= 0, sigma > 0, k0 >= 0")

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        return self.amplitude * np.exp(-0.5 * ((k - self.k0) / self.sigma) ** 2)


@dataclass(frozen=True)
class Tabulated(PowerSpectrum):
    """Linear interpolation of samples (k_i, P_i); zero outside the table."""

    k: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or k.size < 2 or v.shape != k.shape:
            raise DomainError("need matching 1-d arrays with >= 2 samples")
        if not (np.all(np.isfinite(k) & (k >= 0)) and np.all(np.diff(k) > 0)):   # NaN fails
            raise DomainError("k samples must be finite, >= 0 and strictly increasing")
        if np.any(v < 0) or np.any(~np.isfinite(v)):
            raise DomainError("P samples must be finite and >= 0")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "values", v)

    def __call__(self, k):
        return np.interp(np.asarray(k, dtype=float), self.k, self.values,
                         left=0.0, right=0.0)


# ---------------------------------------------------------------------------
# Synthesis configuration and outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthesisConfig:
    """Controls for the spectral synthesis.

    k_max/k_panels/k_order build the Gauss-Legendre wavenumber rule (open,
    flat); omega_max bounds the closed-model lattice.  real=True imposes the
    conjugation symmetry xi_{l,-m} = (-1)^m conj(xi_lm) so realizations are
    real valued with the same two-point function.  L_max may not exceed
    specfun.HARMONIC_L_MAX = 128.
    """

    L_max: int
    seed: int = 0
    k_max: float | None = None
    k_panels: int = 48
    k_order: int = 12
    omega_max: int | None = None
    n_realizations: int = 1
    real: bool = True

    def __post_init__(self):
        if self.L_max < 0 or self.n_realizations < 1:
            raise DomainError("L_max >= 0 and n_realizations >= 1 required")
        if self.L_max > HARMONIC_L_MAX:
            raise DomainError(f"L_max={self.L_max} exceeds the harmonic ceiling "
                              f"{HARMONIC_L_MAX} (see specfun.HARMONIC_L_MAX)")
        if self.seed < 0 or self.seed > 2 ** 63 - 1:
            raise DomainError("seed must fit in a non-negative 63-bit integer")
        if self.k_max is not None and not 0 < self.k_max < math.inf:    # NaN fails
            raise DomainError(f"k_max must be finite and > 0, got {self.k_max}")
        if self.k_panels < 1 or self.k_order < 2:
            raise DomainError("k_panels >= 1 and k_order >= 2 required")
        if self.omega_max is not None and self.omega_max < 0:
            raise DomainError("omega_max must be >= 0")


@dataclass(frozen=True)
class FieldRealization:
    """Realizations sampled at points; values has shape (n_realizations, n_points)."""

    geometry: Geometry
    chi: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray
    seed: int
    config: SynthesisConfig


@dataclass(frozen=True)
class CorrelationEstimate:
    mean: np.ndarray
    stderr: np.ndarray
    n: int


# ---------------------------------------------------------------------------
# Mode streams
# ---------------------------------------------------------------------------

_SCALAR_TAG = 1


def _mode_key(seed: int, l: int, m: int, tag: int, spin: int) -> np.ndarray:
    # exact uint64 words: a Python list with a word >= 2^63 would pass through
    # float64 and lose its low bits (the mode index)
    packed = (tag & 0xFFFF) << 48 | (spin & 0xFF) << 40 | (l * (l + 1) + m)
    return np.array([seed % (1 << 64), packed], dtype=np.uint64)


def mode_rng(seed: int, l: int, m: int, tag: int = _SCALAR_TAG,
             spin: int = 0) -> np.random.Generator:
    """Counter-based generator for mode (l, m); independent of call order."""
    return np.random.Generator(np.random.Philox(key=_mode_key(seed, l, m, tag, spin)))


def mode_streams(seed: int, tag: int = _SCALAR_TAG, spin: int = 0):
    """stream(l, m) -> the generator mode_rng(seed, l, m, tag, spin), bit for bit.

    Each call re-keys one shared Philox through its state (counter 0, empty
    buffer): a new generator would draw OS entropy for a discarded SeedSequence.
    """
    gen = mode_rng(seed, 0, 0, tag, spin)
    bitgen = gen.bit_generator
    start = bitgen.state
    key = start["state"]["key"]

    def stream(l: int, m: int) -> np.random.Generator:
        key[:] = _mode_key(seed, l, m, tag, spin)
        bitgen.state = start
        return gen
    return stream


def _draw_xi(stream, l: int, shape: tuple[int, ...], real_mode: bool) -> np.ndarray:
    """Standard complex Gaussians xi_lm of shape, m = -l..l (real field: 0..l, m = 0 real)."""
    ms = range(0 if real_mode else -l, l + 1)
    xi = np.zeros((len(ms),) + shape, dtype=complex)
    z = xi.view(float).reshape(xi.shape + (2,))         # z[..., 0] + 1j z[..., 1] is xi
    for n, m in enumerate(ms):
        if real_mode and m == 0:
            z[n, ..., 0] = stream(l, m).standard_normal(shape)
        else:
            stream(l, m).standard_normal(out=z[n])
    xi[int(real_mode):] /= math.sqrt(2.0)
    return xi


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _power(P: PowerSpectrum, k: np.ndarray) -> np.ndarray:
    pk = np.asarray(P(k), dtype=float)
    if not np.all((pk >= 0) & np.isfinite(pk)):      # NaN fails both
        raise DomainError("P(k) must be finite and >= 0")
    return pk


def _k_nodes(geom: Geometry, P: PowerSpectrum, cfg: SynthesisConfig):
    """(k nodes, per-node standard deviation weights k sqrt(P w))."""
    k, w = spectral_nodes(geom, cfg.k_max, cfg.k_panels, cfg.k_order, cfg.omega_max)
    return k, k * np.sqrt(_power(P, k) * w)


def _radial_factor(B: np.ndarray) -> np.ndarray:
    """The fewest rows T with T^T T = B^T B: QR's triangle if B is tall, else B."""
    return np.linalg.qr(B, mode="r") if B.shape[1] < B.shape[0] else B


def _points(theta, phi, *more):
    """(theta, phi, *more) as matching 1-d float arrays; theta in [0, pi], phi finite."""
    pts = [np.atleast_1d(np.asarray(x, dtype=float)) for x in (theta, phi) + more]
    if pts[0].ndim != 1 or any(x.shape != pts[0].shape for x in pts):
        raise DomainError("point coordinates must be matching 1-d arrays")
    if not (np.all((pts[0] >= 0) & (pts[0] <= math.pi)) and np.all(np.isfinite(pts[1]))):
        raise DomainError("theta must lie in [0, pi] and phi must be finite")   # NaN fails
    return pts


def _synthesize_modes(factor, ls, stream, lam, ci, ti, phi, shape, real: bool) -> np.ndarray:
    """sum_lm a_lm(chi) lam_lm(theta) e^{i m phi} at the points (its real part if
    real), shape (n_realizations,) + (ci * ti).shape, ci and ti indexing the
    distinct chi and theta: a_lm = eta_lm factor(i) for l = ls[i] (ascending),
    eta from stream (see mode_streams), m = -L..L or 0..L (lam's columns).  Per m,
    b_m = sum_l a_lm lam_lm on the distinct (chi, theta) pairs, from the chi x
    theta product only if they fill half of it, is gathered times e^{i m phi}."""
    L = ls[-1]
    a = np.zeros((len(ls), lam.shape[1]) + shape, dtype=complex)
    for i, l in enumerate(ls):      # each draw is freed with its row, before the per-m pass
        F = factor(i)
        lo, hi = (0, l + 1) if real else (L - l, L + l + 1)
        np.matmul(_draw_xi(stream, l, (shape[0], F.shape[0]), real), F, out=a[i, lo:hi])
    n_t = lam.shape[2]
    pairs, pick = np.unique(ci * n_t + ti, return_inverse=True)
    grid = 2 * pairs.size >= shape[1] * n_t          # b over chi x theta, else per pair
    pick = (pairs[pick] if grid else pick).reshape(np.broadcast(ci, ti).shape)
    cp, tp = np.divmod(pairs, n_t)
    phi_u, ip = np.unique(phi, return_inverse=True)
    out = np.zeros((shape[0],) + pick.shape, dtype=float if real else complex)
    for j, m in enumerate(range(0 if real else -L, L + 1)):
        b = ((a[:, j].reshape(len(ls), -1).T @ lam[:, j]).reshape(shape[0], -1) if grid
             else sum(a[i, j][:, cp] * lam[i, j, tp] for i in range(len(ls))))
        term = b[:, pick] * np.exp(1j * m * phi_u)[ip]
        out += term.real if real else term
    return out


def synthesize(geom: Geometry, P: PowerSpectrum, cfg: SynthesisConfig,
               chi, theta, phi) -> FieldRealization:
    """Draw Gaussian field realizations at points (chi, theta, phi)."""
    theta, phi, chi = _points(theta, phi, chi)
    geom.check_chi(chi)

    k, sd = _k_nodes(geom, P, cfg)
    (chi_u, ci), (theta_u, ti) = (np.unique(x, return_inverse=True) for x in (chi, theta))
    L = cfg.L_max
    R = radial_table(geom, k, L, chi_u)
    lam = spin_harmonic_table(0, L, theta_u)[:, L if cfg.real else 0:]
    if cfg.real:
        lam[:, 1:] *= 2.0       # Re b_0 + 2 Re sum_{m>0} b_m e^{i m phi}
    values = _synthesize_modes(lambda l: _radial_factor(sd[:, None] * R[l]), range(L + 1),
                               mode_streams(cfg.seed), lam, ci, ti, phi,
                               (cfg.n_realizations, chi_u.size), cfg.real)
    values *= _norm_const(geom)
    return FieldRealization(geom, chi, theta, phi, values, cfg.seed, cfg)


# ---------------------------------------------------------------------------
# Correlation functions
# ---------------------------------------------------------------------------

def analytic_correlation(geom: Geometry, P: PowerSpectrum, r,
                         k_max: float | None = None, panels: int = 200,
                         order: int = 12, omega_max: int | None = None,
                         atoms=()) -> np.ndarray:
    """Covariance C(r) = sum w k^2 P(k) Phi_k(r) at geodesic lags r.

    The sum runs over sft.spectral_nodes: Gauss-Legendre quadrature on
    [0, k_max] (panels x order) for the open and flat models, the exact
    lattice sum to omega_max for the closed model.  atoms adds discrete
    spectral lines sum_j c_j Phi_{omega_j}(r), c_j finite and >= 0, on every
    model; an open-model atom may sit on the supplementary series omega = i
    tau, tau in (0, 1].  The node sum is sft._zonal_pass with w k^2 P in place
    of w k^2 f00.  The result has r's shape (at least 1-d).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    geom.check_chi(r)
    if not all(0.0 <= c < math.inf for _, c in atoms):     # NaN fails
        raise DomainError(f"atom weights must be finite and >= 0, got {atoms}")
    k, w = spectral_nodes(geom, k_max, panels, order, omega_max)
    out = _zonal_pass(geom, k, r.ravel(), amp=w * k * k * _power(P, k))[2].reshape(r.shape)
    rz = r if geom.kind is Kind.FLAT else geom.curvature_scale * r
    for om, c in atoms:
        out = out + c * np.real(zonal_spherical(geom, om, rz))
    return out


def estimate_correlation(ref, lagged) -> CorrelationEstimate:
    """Monte Carlo two-point estimate E[ref conj(lagged)] with jackknife errors.

    ref has shape (N,), lagged (N, L): one reference sample and L lagged
    samples per realization.  The jackknife over realizations gives the
    standard error of the mean product; for a plain mean its variance is
    exactly sum_i |p_i - mean|^2 / (N (N-1)), computed without the
    leave-one-out means.
    """
    ref = np.asarray(ref)
    lagged = np.asarray(lagged)
    if lagged.ndim == 1:
        lagged = lagged[:, None]
    if ref.ndim != 1 or lagged.shape[0] != ref.shape[0] or ref.shape[0] < 2:
        raise DomainError("need ref (N,), lagged (N, L) with N >= 2")
    n = ref.shape[0]
    prod = ref[:, None] * np.conj(lagged)
    if not np.iscomplexobj(ref) and not np.iscomplexobj(lagged):
        prod = prod.real
    mean = prod.mean(axis=0)
    var = np.sum(np.abs(prod - mean) ** 2, axis=0) / (n * (n - 1))
    return CorrelationEstimate(mean, np.sqrt(var), n)
