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
The T_l overwrite the radial table.  m runs outermost, in blocks whose modes a_lm
(all l, 0 for l < |m|) fit _SLAB complex entries, or one m: per block and l, one
matmul with T_l; per m, b_m = sum_l a_lm lambda_lm on the distinct (chi, theta)
pairs, from the block's harmonic rows, is gathered times e^{i m phi}, so synthesis
never holds all (L+1)^2 modes or every m's harmonics.  A block's draws (l loop)
and b_m (m loop) take turns in one slot.  An m whose harmonic rows are exact
zeros at every l and theta (on the polar axis every m but -s) is dead: no draw,
product, b_m or gather, since each of its terms is a_lm times 0.  A block packs
its live m into a; live modes keep their streams, so their draws keep every bit.
Real fields (xi_{l,-m} = (-1)^m conj(xi_lm)) are Re b_0 + 2 Re sum_{m>0} b_m e^{i m phi}.
Their xi_l0 are real: m = 0 is the first block, in float64 (with no other m live nothing complex
is allocated), and b_0 is added with no phase.  A block's l come from one queue, which, when each
m = 0 draw holds _DUAL normals and 2 CPUs are free, a second thread (own Philox, slot and rows of a:
the same bits) drains too, started before the calling thread builds the T_l.  An l drawn before T
exists waits in the front of its rows of a (N n_T <= N n_radii), then passes the free slot times T_l.
On a tensor grid (phi_j = 2 pi j / n_phi on every (chi, theta) ring) b_m is added
instead into a ring table in the gather's place, one column per filled phi slot
(m mod n_phi); one product with e^{i m phi_j} after the last m makes the field.

Randomness is counter-based (Philox) with one stream per (l, m) mode keyed by
(seed, tag(l, m)), so a realization depends only on the seed, never on the
order in which the modes are drawn or on the thread.  A synthesis re-keys one Philox per mode
(mode_streams): l(l+1) + m goes under the key's fixed tag and spin bits.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Geometry, Kind
from .sft import _norm_const, _zonal_pass, spectral_nodes
from .specfun import HARMONIC_L_MAX, _spin_rows, radial_table, zonal_spherical
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
        _check_seed(self.seed)
        if self.k_max is not None and not 0 < self.k_max < math.inf:    # NaN fails
            raise DomainError(f"k_max must be finite and > 0, got {self.k_max}")
        if self.k_panels < 1 or self.k_order < 2:
            raise DomainError("k_panels >= 1 and k_order >= 2 required")
        if self.omega_max is not None and self.omega_max < 0:
            raise DomainError(f"omega_max must be >= 0, got {self.omega_max}")


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


def _check_seed(seed: int):     # the one seed rule of the samplers and the mode streams
    if not 0 <= seed <= 2 ** 63 - 1:
        raise DomainError("seed must fit in a non-negative 63-bit integer")


def _mode_key(seed: int, l: int, m: int, tag: int, spin: int) -> np.ndarray:
    # exact uint64 words: a Python list with a word >= 2^63 would pass through
    # float64 and lose its low bits (the mode index)
    packed = (tag & 0xFFFF) << 48 | (spin & 0xFF) << 40 | (l * (l + 1) + m)
    return np.array([seed, packed], dtype=np.uint64)


def mode_rng(seed: int, l: int, m: int, tag: int = _SCALAR_TAG,
             spin: int = 0) -> np.random.Generator:
    """Counter-based generator for mode (l, m), independent of call order; seeds as _check_seed."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=_mode_key(seed, l, m, tag, spin)))


def mode_streams(seed: int, tag: int = _SCALAR_TAG, spin: int = 0):
    """stream(l, m) -> the generator mode_rng(seed, l, m, tag, spin), bit for bit.

    Each call re-keys one shared Philox, key[1] = (fixed tag and spin bits) | l(l+1) + m,
    and resets its state (counter 0, empty buffer): no generator, SeedSequence or key array.
    The start state holds Python ints and lists, which numpy's setter reads faster than arrays.
    """
    gen = mode_rng(seed, 0, 0, tag, spin)
    bitgen = gen.bit_generator
    start = bitgen.state
    start.update(state={k: v.tolist() for k, v in start["state"].items()}, buffer=start["buffer"].tolist())
    high = (key := start["state"]["key"])[1]     # mode (0, 0) adds 0 to the tag and spin

    def stream(l: int, m: int) -> np.random.Generator:
        key[1] = high | (l * (l + 1) + m)
        bitgen.state = start
        return gen
    return stream


def _draw_xi(stream, l: int, ms: list[int], out: np.ndarray):
    """Standard Gaussians xi_lm into out[j] for m = ms[j], each by its stream's
    standard_normal(out=): complex (parts of variance 1/2) if out is, else real."""
    for m, row in zip(ms, out.view(float)):    # real and imaginary parts interleaved
        stream(l, m).standard_normal(out=row)
    if out.dtype.kind == "c":
        out /= math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

# One block of m holds at most this many complex modes a_lm, (len(ls), nb) + shape, or one m.
_SLAB = 1 << 19
_DUAL = 1 << 14     # normals a draw (N n_T) from which m = 0's l queue has two threads: 0.3 ms, a thread 0.13


def _cpus() -> int:                     # the CPUs this process may run on, read at each call
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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


def _synthesize_modes(factor, n_T, ls, streams, s: int, theta_u, ci, ti, phi, shape, real: bool) -> np.ndarray:
    """sum_lm a_lm(chi) sY_lm(theta, 0) e^{i m phi} at the points (its real part if
    real), shape (n_realizations,) + (ci * ti).shape, ci and ti indexing the distinct
    chi and theta_u: a_lm = eta_lm T[i] for l = ls[i] (ascending), T = factor() (n_T rows
    per l), eta from a stream streams() (mode_streams), m = -L..L or 0..L in blocks of nb,
    less each dead m (computed rows exactly 0 at every l and theta); b_m is formed over the
    chi x theta product if the pairs fill half of it, else per pair, then folded into the ring
    table on a tensor grid, else gathered (module notes).  One allocation holds the block's
    modes a (at most max(_SLAB, len(ls) N n_chi) complex entries for N realizations; a partly
    live block fills its front), one slot for its draws, then each m's b, and the gather or
    ring table (at most 2 N n_points, as is E): never (L+1)^2 N n_chi modes, nor a buffer
    trimmed and faulted back per call.  Each block drains one l queue (draw, product), then per
    m one contraction and placement; a real field's m = 0 is the first block, in the float64
    fronts of a, slot and b, whose queue a second thread may share before T exists (notes)."""
    L, (N, n_chi), n_l, n_t, stream, T = ls[-1], shape, len(ls), theta_u.size, streams(), None
    pairs, pick = np.unique(ci * n_t + ti, return_inverse=True)
    grid = 2 * pairs.size >= n_chi * n_t          # b over chi x theta, else per pair
    pick = (pairs[pick] if grid else pick).reshape(np.broadcast(ci, ti).shape)
    cp, tp = np.divmod(pairs, n_t)
    ms = np.arange(0 if real else -L, L + 1)
    nb = min(ms.size, max(1, _SLAB // max(1, n_l * N * n_chi)))
    nr = nb * max(1, _SLAB // max(1, n_l * nb * n_t))   # m per _spin_rows call: at least a block

    def rows(j0):                       # from ms[j0]: the harmonic rows of nr m, and which are live
        lam = _spin_rows(s, L, ms[j0:j0 + nr], theta_u)[slice(None) if n_l > L else ls]  # ls may skip an l
        if real:
            lam[:, int(j0 == 0):] *= 2.0    # Re b_0 + 2 Re sum_{m>0} b_m e^{i m phi}
        return j0, lam, lam.any(axis=(0, 2))    # dead m: rows exactly 0 at every l and theta

    def fill(draw, x):                  # a_lm = eta_lm T_l for each l = ls[i] the block's queue yields
        try:
            for i in todo:
                lo, hi = lohi[i]
                ab[i, :lo] = ab[i, hi:mb.size] = 0.0
                if lo < hi and (t := T) is None:    # no T yet: eta waits in the front of its rows of a
                    _draw_xi(draw, ls[i], mb[lo:hi].tolist(), early[i])
                    late.append(i)
                elif lo < hi:           # T_l is read once per block that has modes at l
                    _draw_xi(draw, ls[i], mb[lo:hi].tolist(), x[lo:hi])
                    np.matmul(x[lo:hi], t[i], out=ab[i, lo:hi])
        except BaseException as e:      # raised again by the calling thread
            err.append(e)

    def catch_up():                     # the draws made before T, times T_l through the free slot
        while late:                     # only the calling thread pops
            xb[:1] = early[i := late.pop()]
            np.matmul(xb[:1], T[i], out=ab[i])

    def contract(am, lam_m, b, m):      # b_m = sum_l a_lm lam_m[l], on the pairs
        if grid:
            return np.matmul(am.reshape(n_l, -1).T, lam_m, out=b)
        b[...] = 0.0                    # rows l < |m| would only add exact zeros to this +0
        for i in range(np.searchsorted(ls, abs(m)), n_l):
            b += am[i][:, cp] * lam_m[i, tp]
        return b

    def gather(x, c):                   # columns c of x (N, -1) in out's shape; no copy if c = 0, 1, ...
        return (x if np.array_equal(c, np.arange(x.shape[1])) else x[:, c]).reshape(out.shape)
    r0, lam, live = rows(0)
    cx = not real or nr < ms.size or live[1:].any()     # a complex mode may be live
    phi_u, ip = np.unique(phi, return_inverse=True)
    n_f, n_s = phi_u.size, min(phi_u.size, ms.size)    # n_s ring table columns: the filled phi slots
    ring = cx and grid and 0 < n_chi * n_t * n_f <= 2 * pick.size and n_s <= N * n_chi * n_t  # E <= field
    ring = ring and np.max(np.abs(phi_u - np.arange(n_f) * (2 * math.pi / n_f))) <= 4e-15   # 4.5 ulp
    shapes = [(n_l, nb if cx else 1) + shape, (nb if cx else 1, N, n_T), (N * n_chi, n_t) if grid
              else (N, pairs.size), ((N * n_chi * n_t, n_s) if ring else (N,) + pick.shape) if cx else (0,)]
    n = [math.prod(x) for x in shapes]
    at = [0, n[0], n[0], n[0] + max(n[1], n[2])]      # xi and b share one slot
    buf = np.empty(at[3] + n[3], complex if cx else float)
    a, xi, b, g = (buf[i:i + m].reshape(x) for i, m, x in zip(at, n, shapes))
    f64 = [x.reshape(-1).view(float)[:math.prod(sh)].reshape(sh)       # a real m = 0: float64 fronts
           for x, sh in ((a, a[:, :1].shape), (xi, xi[:1].shape), (b, b.shape))]
    out = np.zeros((N,) + pick.shape, dtype=float if real else complex)
    if ring:
        g[...] = 0.0                    # the ring table starts empty
    edges = [0, *range(1 if real else nb, ms.size, nb), ms.size]     # a real field's m = 0 alone
    for j0, j1 in zip(edges, edges[1:]):
        if j1 > r0 + nr:
            r0, lam, live = rows(j0)
        jb = np.flatnonzero(live[j0 - r0:j1 - r0])     # the block's live m, packed in a
        if jb.size == 0:
            continue
        mb, m0 = ms[j0 + jb], real and j0 == 0
        ab, xb, bb = f64 if m0 else (a, xi, b)
        lohi = np.searchsorted(mb, np.multiply.outer(ls, (-1, 1)) + (0, 1)).tolist()   # |m| <= l
        todo, late, err = iter(range(n_l)), [], []      # one l queue for the block's threads
        if dual := m0 and N * n_T >= _DUAL and _cpus() > 1:     # a second thread, with its own
            early = ab.reshape(n_l, -1)[:, :N * n_T].reshape(n_l, 1, N, n_T)    # m = 0, live at every l
            worker = threading.Thread(target=fill, args=(streams(), np.empty_like(xb)))   # stream and slot
            worker.start()              # draws while this one builds T
        try:
            T = factor() if T is None else T
            fill(stream, xb)
            catch_up()                  # while the worker may still draw
        finally:
            if dual:
                worker.join()
        if err:
            raise err[0]
        catch_up()
        for j, (jj, m) in enumerate(zip(jb.tolist(), mb.tolist())):
            contract(ab[:, j], lam[:, j0 - r0 + jj], bb, m)
            if ring:
                g[:, (j0 + jj) % n_s] += bb.reshape(-1)   # column c = m - ms[0] mod n_s, slot ms[c]
            elif m0:                    # a float64 b_0, with no phase
                out += gather(bb.reshape(N, -1), pick.ravel())
            else:
                np.take(bb.reshape(N, -1), pick, axis=1, out=g, mode="clip")
                g *= np.exp(1j * m * phi_u)[ip]
                out += g.real if real else g
    if ring:                            # field = table E, E_cj = e^{i ms[c] phi_j} = e^{i phi_(ms[c] j mod n_f)}
        f = g if n_f == 1 else g @ np.exp(1j * phi_u)[np.outer(ms[:n_s], np.arange(n_f)) % n_f]
        out[...] = gather((f.real if real else f).reshape(N, -1), (pick * n_f + ip).ravel())
    return out


def synthesize(geom: Geometry, P: PowerSpectrum, cfg: SynthesisConfig,
               chi, theta, phi) -> FieldRealization:
    """Draw Gaussian field realizations at points (chi, theta, phi)."""
    theta, phi, chi = _points(theta, phi, chi)
    geom.check_chi(chi)

    k, sd = _k_nodes(geom, P, cfg)
    (chi_u, ci), (theta_u, ti) = (np.unique(x, return_inverse=True) for x in (chi, theta))

    def factor():                       # built while the first draws run (_synthesize_modes)
        R = radial_table(geom, k, cfg.L_max, chi_u)
        R *= sd[:, None]                # B_l, in place
        T = R[:, :min(R.shape[1:])]     # T_l over B_l's first rows (all of them if B_l is not tall)
        for B, F in zip(R, T):
            F[...] = _radial_factor(B)
        return T
    values = _synthesize_modes(factor, min(k.size, chi_u.size), range(cfg.L_max + 1),
                               lambda: mode_streams(cfg.seed), 0, theta_u, ci, ti, phi,
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
    out = _zonal_pass(geom, k, r.ravel(), amp=w * k * k * _power(P, k))[1].reshape(r.shape)
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
    prod = ref[:, None] * (np.conj(lagged) if np.iscomplexobj(lagged) else lagged)
    mean = prod.mean(axis=0)
    prod = (np.square(np.subtract(prod, mean, out=prod), out=prod) if prod.dtype.kind == "f"
            else np.abs(prod - mean) ** 2)      # real: centred and squared in place, same bits
    var = np.sum(prod, axis=0) / (n * (n - 1))
    return CorrelationEstimate(mean, np.sqrt(var), n)
