import functools
import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedfield import randfield, sft, specfun
from curvedfield.errors import AccuracyError, DomainError
from curvedfield.geometry import Geometry
from curvedfield.quadrature import gauss_legendre_grid
from curvedfield.randfield import (CorrelationEstimate, GaussianBump,
                                   PowerLaw, PowerSpectrum, SynthesisConfig,
                                   Tabulated, analytic_correlation,
                                   estimate_correlation, mode_rng, mode_streams,
                                   power_law_eval, synthesize)
from curvedfield.sft import spectral_nodes
from curvedfield.specfun import zonal_spherical

G_OPEN = Geometry.open(-1.0)
G_FLAT = Geometry.flat()
G_CLOSED = Geometry.closed(1.0)


# ---------------------------------------------------------------------------
# Power spectra
# ---------------------------------------------------------------------------

def test_power_law_cuts():
    k = np.array([0.0, 0.2, 1.0, 3.0, 10.0])
    got = power_law_eval(k, 2.0, -1.0, k_cut_low=0.5, k_cut_high=5.0)
    np.testing.assert_allclose(got, [0.0, 0.0, 2.0, 2.0 / 3.0, 0.0])
    # flat spectrum includes k = 0
    assert power_law_eval(np.array([0.0]), 3.0, 0.0)[0] == 3.0
    assert power_law_eval(np.array([0.0]), 3.0, 2.0)[0] == 0.0


def test_power_law_validation():
    with pytest.raises(DomainError):
        PowerLaw(1.0, -3.0)          # not integrable against k^2 dk
    PowerLaw(1.0, -3.0, k_cut_low=0.5)
    with pytest.raises(DomainError):
        PowerLaw(-1.0, 0.0)
    with pytest.raises(DomainError):
        PowerLaw(1.0, 0.0, k_cut_low=2.0, k_cut_high=1.0)


def test_spectra_reject_non_finite_parameters():
    nan, inf = math.nan, math.inf
    for cls, args in ((PowerLaw, (nan, 0.0)), (PowerLaw, (1.0, nan)), (PowerLaw, (inf, 0.0)),
                      (PowerLaw, (1.0, 0.0, nan)), (GaussianBump, (nan, 3.0, 0.8)),
                      (GaussianBump, (1.0, nan, 0.8)), (GaussianBump, (1.0, 3.0, nan)),
                      (GaussianBump, (inf, 3.0, 0.8))):
        with pytest.raises(DomainError):
            cls(*args)
    PowerLaw(1.0, -1.0, k_cut_low=0.5, k_cut_high=math.inf)


def test_non_finite_spectrum_values_rejected():
    class Spiked(PowerSpectrum):
        def __init__(self, bad):
            self.bad = bad

        def __call__(self, k):
            out = np.ones_like(np.asarray(k, dtype=float))
            out[3] = self.bad
            return out
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match=r"P\(k\) must be finite and >= 0"):
            synthesize(G_FLAT, Spiked(bad), small_cfg(), *POINTS)
        with pytest.raises(DomainError, match=r"P\(k\) must be finite and >= 0"):
            analytic_correlation(G_FLAT, Spiked(bad), [0.3], k_max=4.0)


def test_gaussian_bump_eval():
    P = GaussianBump(2.0, 3.0, 0.5)
    k = np.array([2.0, 3.0, 4.5])
    np.testing.assert_allclose(P(k), 2.0 * np.exp(-0.5 * ((k - 3.0) / 0.5) ** 2))
    with pytest.raises(DomainError):
        GaussianBump(1.0, 3.0, 0.0)


def test_tabulated_interp_and_validation():
    P = Tabulated(np.array([1.0, 2.0, 4.0]), np.array([1.0, 3.0, 0.0]))
    assert P(1.5) == 2.0
    assert P(0.5) == 0.0 and P(5.0) == 0.0
    with pytest.raises(DomainError):
        Tabulated(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        Tabulated(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        Tabulated(np.array([1.0]), np.array([1.0]))
    for bad in (np.nan, np.inf):      # NaN compares False both ways, so k must be checked finite
        with pytest.raises(DomainError, match="k samples"):
            Tabulated(np.array([0.0, bad, 2.0, 4.0]), np.array([1.0, 5.0, 1.0, 0.0]))
    with pytest.raises(DomainError, match="k samples"):
        Tabulated(np.array([0.0, 2.0, np.inf]), np.array([1.0, 5.0, 1.0]))


# ---------------------------------------------------------------------------
# Mode streams
# ---------------------------------------------------------------------------

def test_mode_rng_reproducible_and_distinct():
    a = mode_rng(11, 3, 1).standard_normal(4)
    b = mode_rng(11, 3, 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    for other in (mode_rng(11, 3, 2), mode_rng(11, 4, 1), mode_rng(12, 3, 1),
                  mode_rng(11, 3, 1, tag=2), mode_rng(11, 3, 1, spin=2)):
        assert not np.array_equal(a, other.standard_normal(4))


def test_mode_streams_are_mode_rng_bit_for_bit():
    for seed, tag, spin in ((0, 1, 0), (11, 2, 2), (2 ** 63 - 1, 2, -2), (7, 0xFFFF, 3)):
        stream = mode_streams(seed, tag=tag, spin=spin)
        modes = [(0, 0), (3, -3), (3, 3), (24, -17), (32, 32), (3, -3)]
        for (l, m), shape in zip(modes, [(5,), (2, 3, 2), (1,), (4, 16, 2), (7, 1), (2, 3, 2)]):
            ref = mode_rng(seed, l, m, tag=tag, spin=spin).standard_normal(shape)
            got = stream(l, m).standard_normal(shape)
            assert got.tobytes() == ref.tobytes(), (seed, tag, spin, l, m)
            # a part-used stream restarts from its first draw
            stream(l, m).standard_normal(3)
            out = np.empty(shape)
            stream(l, m).standard_normal(out=out)
            assert out.tobytes() == ref.tobytes()
    # tags past 0x7FFF fill the top bit of the key word, which once rounded
    # away the mode index
    assert not np.array_equal(mode_rng(7, 3, -3, tag=0xFFFF).standard_normal(3),
                              mode_rng(7, 3, -2, tag=0xFFFF).standard_normal(3))


def test_mode_streams_take_the_sampler_seed_rule():
    # the stream key once took any seed mod 2^64, so -1 and 2^64 - 1 drew the same numbers
    for seed in (-1, 2 ** 64 - 1, 2 ** 63):
        with pytest.raises(DomainError, match="non-negative 63-bit"):
            mode_rng(seed, 2, 1)
        with pytest.raises(DomainError, match="non-negative 63-bit"):
            mode_streams(seed)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def small_cfg(**kw):
    base = dict(L_max=3, seed=5, k_max=6.0, k_panels=8, k_order=6,
                n_realizations=4)
    base.update(kw)
    return SynthesisConfig(**base)


POINTS = (np.array([0.0, 0.7, 1.4]), np.array([0.5, 1.2, 2.0]),
          np.array([0.0, 2.2, 4.4]))


def test_synthesize_reproducible_real_dtype_shape():
    P = GaussianBump(1.0, 2.0, 0.7)
    f1 = synthesize(G_FLAT, P, small_cfg(), *POINTS)
    f2 = synthesize(G_FLAT, P, small_cfg(), *POINTS)
    np.testing.assert_array_equal(f1.values, f2.values)
    assert f1.values.shape == (4, 3)
    assert f1.values.dtype == np.float64
    fc = synthesize(G_FLAT, P, small_cfg(real=False), *POINTS)
    assert fc.values.dtype == np.complex128


def test_radial_factor_keeps_the_kernel():
    # T_l^T T_l = B_l^T B_l: eta T_l has the law of xi B_l with fewer draws
    P = GaussianBump(1.0, 2.0, 0.7)
    cfg = small_cfg()
    k, sd = randfield._k_nodes(G_OPEN, P, cfg)
    chi = np.unique(POINTS[0])
    R = specfun.radial_table(G_OPEN, k, cfg.L_max, chi)
    for l in range(cfg.L_max + 1):
        B = sd[:, None] * R[l]
        T = randfield._radial_factor(B)
        assert T.shape == (chi.size, chi.size) and chi.size < k.size
        C = B.T @ B
        np.testing.assert_allclose(T.T @ T, C, rtol=0, atol=1e-12 * np.max(np.abs(C)))
    # more radii than nodes: B_l itself, so the draws are those of xi B_l
    B = sd[:2, None] * R[1, :2]
    assert randfield._radial_factor(B) is B


def test_scattered_points_match_per_mode_sum():
    # every point has its own chi and theta: b_m is formed pair by pair, never as
    # the n_chi x n_theta product (64 MB here), and equals the per-mode sum
    import tracemalloc
    n = 2000
    rng = np.random.default_rng(11)
    chi, theta, phi = rng.uniform(0, 1.5, n), rng.uniform(0, math.pi, n), rng.uniform(0, 6, n)
    P = GaussianBump(1.0, 2.0, 0.7)
    for real in (True, False):
        cfg = SynthesisConfig(L_max=2, seed=9, k_max=6.0, k_panels=2, k_order=4, real=real)
        tracemalloc.start()
        f = synthesize(G_OPEN, P, cfg, chi, theta, phi).values[0]
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16e6, peak
        k, sd = randfield._k_nodes(G_OPEN, P, cfg)
        order = np.argsort(chi)
        R = specfun.radial_table(G_OPEN, k, cfg.L_max, chi[order])
        ref, a = np.zeros(n, dtype=complex), np.empty(n, dtype=complex)
        for l in range(cfg.L_max + 1):
            T = randfield._radial_factor(sd[:, None] * R[l])
            for m in range(0 if real else -l, l + 1):
                # xi_lm straight from its stream: real at m = 0 of a real field, else
                # (x + i y)/sqrt(2) from interleaved pairs
                rng = mode_rng(cfg.seed, l, m)
                if real and m == 0:
                    xi = rng.standard_normal((1, T.shape[0]))
                else:
                    z = rng.standard_normal((1, T.shape[0], 2))
                    xi = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
                a[order] = (xi @ T)[0]
                y = specfun.spin_harmonic(0, l, m, theta, phi)
                ref += a * y * (2.0 if real and m > 0 else 1.0)
        ref = (ref.real if real else ref) * randfield._norm_const(G_OPEN)
        np.testing.assert_allclose(f, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def _synthesis_peak(geom, P, cfg, chi, theta, phi) -> int:
    # one small synthesis first, so first-use imports (numpy.random and
    # numpy.polynomial, about 1.4 MB) never count, whatever ran before; its one
    # point is one ring, so it gathers nothing where a test forbids np.take
    import tracemalloc
    synthesize(G_FLAT, GaussianBump(1.0, 3.0, 0.8), small_cfg(), [0.7], [1.2], [0.0])
    tracemalloc.start()
    try:
        synthesize(geom, P, cfg, chi, theta, phi)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("real", [True, False])
def test_many_realizations_hold_one_m_of_modes(real):
    # synthesis runs over blocks of m: with this many realizations a block is
    # one m, (L+1) N n_chi complex modes, not the (L+1) (L+1 or 2L+1) of all
    # modes at once, which peak at 4.5 (real) and 6.7 (complex) such units
    L, N, chi = 2, 10000, np.linspace(0.0, 2.0, 9)
    cfg = SynthesisConfig(L_max=L, seed=1, k_max=8.0, k_panels=4, k_order=6,
                          n_realizations=N, real=real)
    peak = _synthesis_peak(G_FLAT, GaussianBump(1.0, 3.0, 0.8), cfg, chi,
                           np.full(chi.size, 0.5 * math.pi), np.zeros(chi.size))
    unit = (L + 1) * N * chi.size * 16
    assert peak <= 3 * unit, peak / unit


def test_draws_and_b_share_one_slot():
    # a block's draws (read in its l loop) and each m's b (in its m loop) take
    # turns in one slot: here one block holds every m, and the peak fell from
    # 5.01 to 4.68 units
    L, N, chi = 2, 4000, np.linspace(0.0, 2.0, 9)
    P, pts = GaussianBump(1.0, 3.0, 0.8), (chi, np.full(chi.size, 0.5 * math.pi), np.zeros(chi.size))
    cfg = SynthesisConfig(L_max=L, seed=1, k_max=8.0, k_panels=4, k_order=6, n_realizations=N)
    peak = _synthesis_peak(G_FLAT, P, cfg, *pts)
    unit = (L + 1) * N * chi.size * 16
    assert peak <= 4.8 * unit, peak / unit


@pytest.mark.parametrize("real", [True, False])
def test_large_l_scattered_peak_grows_as_l_times_points(real):
    # the radial table is (L+1) n_k n, and a block of modes and its harmonic
    # rows fit randfield._SLAB: every m's modes and harmonics, (L+1)^2 n, peak
    # at 4.3 (real) and 5.8 (complex) tables here
    L, n, omega_max = 64, 500, 80
    rng = np.random.default_rng(3)
    chi, theta, phi = rng.uniform(0.1, 3.0, n), rng.uniform(0, math.pi, n), rng.uniform(0, 6, n)
    cfg = SynthesisConfig(L_max=L, seed=1, omega_max=omega_max, real=real)
    peak = _synthesis_peak(G_CLOSED, GaussianBump(1.0, 20.0, 8.0), cfg, chi, theta, phi)
    table = (L + 1) * (omega_max + 1) * n * 8
    assert peak <= 2.5 * table, peak / table


@pytest.mark.parametrize("real", [True, False])
def test_blocks_and_row_chunks_keep_every_bit(monkeypatch, real):
    # Each m's draws, product, harmonic rows and contraction are its own, so the
    # m blocks and harmonic-row chunks that randfield._SLAB sizes move no bit.
    # Small slabs give blocks of 1-3 m and chunks of 1-6 m; with a real
    # field's m = 0 block alone, the other blocks run past a chunk's end.
    P = GaussianBump(1.0, 3.0, 0.8)
    cfg = SynthesisConfig(L_max=6, seed=3, k_max=8.0, k_panels=2, k_order=6, n_realizations=2, real=real)
    rng = np.random.default_rng(5)
    scattered = rng.uniform(0.1, 2.0, 12), rng.uniform(0.0, math.pi, 12), rng.uniform(0.0, 6.0, 12)
    grids = [scattered, _tensor_points(np.array([0.4, 0.9]), 3, 8)]
    refs = [synthesize(G_OPEN, P, cfg, *pts).values for pts in grids]
    for slab in (1, 42, 168, 336, 504):
        monkeypatch.setattr(randfield, "_SLAB", slab)
        for pts, ref in zip(grids, refs):
            assert np.array_equal(synthesize(G_OPEN, P, cfg, *pts).values, ref), slab


def test_no_points_give_empty_fields():
    # the m blocks are sized from the point counts, which may be 0
    from curvedfield.spinfield import separable_kernels, synthesize_spin
    for real in (True, False):
        cfg = SynthesisConfig(L_max=2, k_max=6.0, k_panels=2, k_order=4, real=real)
        assert synthesize(G_FLAT, GaussianBump(1.0, 3.0, 0.8), cfg, [], [], []).values.shape == (1, 0)
    kernels = separable_kernels(2, [2, 3], [0.0, 1.0])
    assert synthesize_spin(2, kernels, [], [], seed=1).values.shape == (1, 2, 0)


def test_synthesize_validation():
    P = GaussianBump(1.0, 2.0, 0.7)
    with pytest.raises(DomainError):
        synthesize(G_FLAT, P, small_cfg(), POINTS[0], POINTS[1][:2], POINTS[2])
    with pytest.raises(DomainError):
        synthesize(G_FLAT, P, small_cfg(),
                   POINTS[0], np.array([0.5, 1.2, 3.5]), POINTS[2])
    with pytest.raises(DomainError):
        synthesize(G_CLOSED, P, small_cfg(omega_max=None),
                   POINTS[0], POINTS[1], POINTS[2])
    with pytest.raises(DomainError):
        synthesize(G_FLAT, P, small_cfg(k_max=None), *POINTS)
    # NaN fails every comparison, so a range check alone would pass it
    cfg = SynthesisConfig(L_max=2, k_max=6.0, k_panels=2, k_order=4)
    for theta, phi in (([math.nan, 1.0], [0.0, 0.0]), ([0.5, 1.0], [0.0, math.nan]),
                       ([0.5, 1.0], [math.inf, 0.0])):
        with pytest.raises(DomainError):
            synthesize(G_FLAT, GaussianBump(1, 3, 0.8), cfg, [0.5, 1.0], theta, phi)


def test_config_validation():
    with pytest.raises(DomainError):
        small_cfg(L_max=-1)
    with pytest.raises(DomainError):
        small_cfg(seed=-1)
    with pytest.raises(DomainError):
        small_cfg(seed=2 ** 63)
    with pytest.raises(DomainError):
        small_cfg(k_order=1)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="k_max"):
            small_cfg(k_max=bad)
        with pytest.raises(DomainError, match="k_max"):
            spectral_nodes(G_FLAT, bad, 4, 6, None)
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (1.0, 1.0)):
        with pytest.raises(DomainError, match="finite integration interval"):
            gauss_legendre_grid(a, b, 4, 6)
    with pytest.raises(TypeError):          # synthesis runs on one thread
        small_cfg(threads=2)
    for value in ("plancherel", "printed"):   # one closed measure: k sqrt(P w), w+1 kept
        with pytest.raises(TypeError):
            small_cfg(closed_weight=value)


@pytest.mark.parametrize("omega_max", [2.5, math.nan, math.inf])
def test_non_integer_omega_max_rejected(omega_max):
    # 2.5 once drew and correlated as omega_max = 3; NaN and inf passed the config
    with pytest.raises(DomainError, match="omega_max must be an integer"):
        SynthesisConfig(L_max=1, omega_max=omega_max)
    with pytest.raises(DomainError, match="omega_max must be an integer"):
        analytic_correlation(G_CLOSED, GaussianBump(1.0, 3.0, 0.8), [0.5], omega_max=omega_max)
    assert SynthesisConfig(L_max=1, omega_max=3.0).omega_max == 3.0


# ---------------------------------------------------------------------------
# Statistics against the analytic covariance
# ---------------------------------------------------------------------------

def test_flat_zonal_correlation_within_errors():
    # the reference point sits at the origin, where only l = 0 contributes,
    # so the product estimator is unbiased at any L_max
    P = GaussianBump(1.0, 3.0, 0.8)
    lags = np.array([0.3, 0.6, 1.0])
    cfg = SynthesisConfig(L_max=4, seed=42, k_max=8.0, k_panels=24,
                          k_order=10, n_realizations=600)
    pts = np.concatenate([[0.0], lags])
    f = synthesize(G_FLAT, P, cfg, pts, np.full(4, math.pi / 2), np.zeros(4))
    est = estimate_correlation(f.values[:, 0], f.values[:, 1:])
    ref = analytic_correlation(G_FLAT, P, lags, k_max=8.0)
    z = np.abs(est.mean - ref) / est.stderr
    assert np.all(z < 5.0), z


def test_closed_origin_variance_matches_lattice_sum():
    # P = 1/(sqrt(K) k^2) on the lattice makes
    # C(0) = sum K^(3/2) (w+1)^2 P = omega_max + 1
    for geom in (G_CLOSED, Geometry.closed(4.0)):
        s = geom.curvature_scale
        kk = s * np.arange(1.0, 10.0)
        P = Tabulated(kk, 1.0 / (s * kk ** 2))
        n = 6000
        cfg = SynthesisConfig(L_max=0, seed=7, omega_max=8, n_realizations=n)
        f = synthesize(geom, P, cfg, np.array([0.0]), np.array([1.0]),
                       np.array([0.0]))
        var = float(np.mean(f.values[:, 0] ** 2))
        expect = analytic_correlation(geom, P, np.array([0.0]),
                                      omega_max=8)[0]
        assert abs(expect - 9.0) < 1e-12
        stderr = expect * math.sqrt(2.0 / n)
        assert abs(var - expect) < 5.0 * stderr


def test_origin_couples_only_to_monopole():
    kk = np.arange(1.0, 10.0)
    P = Tabulated(kk, 1.0 / kk ** 2)
    pt = (np.array([0.0]), np.array([0.7]), np.array([0.3]))
    a = synthesize(G_CLOSED, P, SynthesisConfig(
        L_max=5, seed=7, omega_max=8, n_realizations=20), *pt)
    b = synthesize(G_CLOSED, P, SynthesisConfig(
        L_max=0, seed=7, omega_max=8, n_realizations=20), *pt)
    np.testing.assert_array_equal(a.values, b.values)


def test_config_rejects_l_max_past_harmonic_ceiling():
    SynthesisConfig(L_max=128)
    with pytest.raises(DomainError, match="harmonic ceiling"):
        SynthesisConfig(L_max=129)


# ---------------------------------------------------------------------------
# Analytic covariance
# ---------------------------------------------------------------------------

def test_analytic_correlation_against_quad():
    P = GaussianBump(1.0, 2.0, 0.6)
    for geom, phi_of in ((G_FLAT, lambda k, r: np.sinc(k * r / math.pi)),
                         (G_OPEN, lambda k, r:
                          np.sin(k * r) / (k * np.sinh(r)))):
        for r in (0.4, 1.3, 2.6):
            got = analytic_correlation(geom, P, np.array([r]),
                                       k_max=8.0)[0]
            ref, err = scipy.integrate.quad(
                lambda k: k * k * float(P(k)) * float(phi_of(k, r)),
                0.0, 8.0, epsabs=0.0, epsrel=1e-11, limit=200)
            assert abs(got - ref) < 1e-8 * max(abs(ref), 1e-6)


def test_analytic_correlation_closed_is_lattice_sum():
    kk = np.arange(1.0, 8.0)
    P = Tabulated(kk, 1.0 / kk ** 2)
    r = np.array([0.5, 1.1])
    got = analytic_correlation(G_CLOSED, P, r, omega_max=6)
    ref = np.zeros_like(r)
    for w in range(7):
        ref += (w + 1.0) ** 2 * float(P(w + 1.0)) * zonal_spherical(
            G_CLOSED, w, r)
    np.testing.assert_allclose(got, ref, rtol=1e-13)


N_LAGS = 600
ROWS = specfun.ZONAL_BLOCK // N_LAGS              # rows per block at N_LAGS lags


@pytest.mark.parametrize("n_nodes", [1, ROWS, ROWS + 1, 2 * ROWS + 1])
@pytest.mark.parametrize("name", ["open", "flat", "closed"])
def test_analytic_correlation_matches_per_k_loop(name, n_nodes):
    # lags from 0 (closed: past pi/2); the band cut zeroes the first nodes,
    # which add exact zeros to the blocked sum where the loop skipped them
    geom = {"open": G_OPEN, "flat": G_FLAT, "closed": G_CLOSED}[name]
    P = PowerLaw(1.0, -1.0, k_cut_low=0.05 if name != "closed" else 3.0)
    if name == "closed":
        r = np.linspace(0.0, math.pi, N_LAGS)
        got = analytic_correlation(geom, P, r, omega_max=n_nodes - 1)
        omega = np.arange(n_nodes, dtype=float)
        amp = (omega + 1.0) ** 2 * P(omega + 1.0)
    else:
        r = np.linspace(0.0, 5.0, N_LAGS)
        got = analytic_correlation(geom, P, r, k_max=12.0, panels=n_nodes, order=1)
        omega, w = gauss_legendre_grid(0.0, 12.0, n_nodes, 1)
        amp = w * omega ** 2 * P(omega)
    terms = np.array([a * zonal_spherical(geom, float(om), r)
                      for a, om in zip(amp, omega) if a != 0.0]).reshape(-1, r.size)
    np.testing.assert_array_less(np.abs(got - terms.sum(axis=0)),
                                 1e-13 * np.abs(terms).sum(axis=0) + 1e-300)


def test_analytic_correlation_takes_the_transforms_blocks(monkeypatch):
    # one pass (sft._zonal_pass) with every node in it (a band cut adds zero
    # rows), and no zonal table of its own: at 600 lags and at 8, fewer than an
    # anchor group has rows, the transforms' angle-addition factors, once, and
    # no table
    factors, tables = [], []
    build, table = sft._zonal_factors, sft.zonal_spherical

    def counted_factors(*a):
        fac = build(*a)
        factors.append(fac is not None)
        return fac

    def no_table(*a):
        raise AssertionError("analytic_correlation built its own table")

    monkeypatch.setattr(sft, "_zonal_factors", counted_factors)
    monkeypatch.setattr(sft, "zonal_spherical",
                        lambda g, w, r: (tables.append((np.size(w), np.size(r))), table(g, w, r))[1])
    monkeypatch.setattr(randfield, "zonal_spherical", no_table)
    P = PowerLaw(1.0, -1.0, k_cut_low=0.05)
    n_nodes = 2 * ROWS + 1
    for n_lags in (N_LAGS, 8):
        factors.clear()
        tables.clear()
        r = np.linspace(0.0, 5.0, n_lags)
        got = analytic_correlation(G_OPEN, P, r, k_max=12.0, panels=n_nodes, order=1)
        assert factors == [True]
        assert tables == []
        assert np.all(np.isfinite(got))


def test_analytic_correlation_keeps_the_shape_of_r():
    # a 2-d r once raised numpy's bare ValueError from the node sum
    P = GaussianBump(1.0, 2.0, 0.6)
    for n_lags in (6, N_LAGS):                  # the factors, on few lags and on many
        r = np.linspace(0.1, 3.0, n_lags)
        flat = analytic_correlation(G_OPEN, P, r, k_max=6.0, atoms=((0.5j, 2.0),))
        got = analytic_correlation(G_OPEN, P, r.reshape(2, 3, -1), k_max=6.0,
                                   atoms=((0.5j, 2.0),))
        assert got.shape == (2, 3, n_lags // 6)
        np.testing.assert_array_equal(got.ravel(), flat)
    assert analytic_correlation(G_OPEN, P, 1.0, k_max=6.0).shape == (1,)


def test_analytic_correlation_rejects_bad_atom_weights():
    # a spectral line of negative mass is no covariance: (2, -5) gave C(0) = 14.3
    P = GaussianBump(1.0, 3.0, 0.8)
    r = np.array([0.0, 1.0])
    for c in (-5.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="atom weights"):
            analytic_correlation(G_FLAT, P, r, k_max=8.0, atoms=((1.0, 1.0), (2.0, c)))
    analytic_correlation(G_FLAT, P, r, k_max=8.0, atoms=((2.0, 0.0),))


def test_analytic_correlation_atoms_and_errors():
    P = GaussianBump(1.0, 2.0, 0.6)
    r = np.array([0.0, 0.5, 1.5])                 # lag 0 once divided 0 by 0 in the atom
    base = analytic_correlation(G_OPEN, P, r, k_max=6.0)
    plus = analytic_correlation(G_OPEN, P, r, k_max=6.0,
                                atoms=((0.5j, 2.0),))
    np.testing.assert_allclose(plus - base,
                               2.0 * zonal_spherical(G_OPEN, 0.5j, r),
                               rtol=1e-12)
    with pytest.raises(DomainError):
        analytic_correlation(G_CLOSED, P, r)       # needs omega_max
    with pytest.raises(DomainError):
        analytic_correlation(G_OPEN, P, r)         # needs k_max


@pytest.mark.parametrize("name", ["open", "flat", "closed"])
def test_analytic_correlation_reads_subnormal_lags_as_the_origin(name):
    # the angle-addition factors' 1/f(r) overflowed at a subnormal lag (inf
    # open and flat, NaN closed) where the table read r = 0; two lags take the
    # factors too
    geom = {"open": G_OPEN, "flat": G_FLAT, "closed": G_CLOSED}[name]
    kw = {"omega_max": 60} if name == "closed" else {"k_max": 8.0}
    r = np.concatenate([[0.0, 1e-310], np.linspace(0.1, 2.0, 60)])
    k, _ = spectral_nodes(geom, kw.get("k_max"), 200, 12, kw.get("omega_max"))
    assert sft._zonal_factors(geom, *sft._scaled(geom, k, r)) is not None
    P = GaussianBump(1.0, 3.0, 0.8)
    got = analytic_correlation(geom, P, r, **kw)
    assert np.isfinite(got[0]) and got[0] == got[1]
    table = analytic_correlation(geom, P, r[:2], **kw)
    assert table[0] == table[1]
    np.testing.assert_allclose(table, got[:2], rtol=1e-14)


def test_closed_analytic_correlation_applies_atoms():
    # the closed model used to return before adding its atoms
    P = PowerLaw(1.0, -1.0, k_cut_low=0.5)
    r = np.array([0.3, 1.0])
    base = analytic_correlation(G_CLOSED, P, r, omega_max=3)
    plus = analytic_correlation(G_CLOSED, P, r, omega_max=3, atoms=((2, 5.0),))
    np.testing.assert_allclose(plus - base, 5.0 * zonal_spherical(G_CLOSED, 2, r),
                               rtol=1e-12)


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------

def test_estimate_correlation_reduces_to_stderr_of_mean():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(50)
    lag = rng.standard_normal((50, 3))
    est = estimate_correlation(ref, lag)
    prod = ref[:, None] * lag
    np.testing.assert_allclose(est.mean, prod.mean(axis=0), rtol=1e-13)
    np.testing.assert_allclose(est.stderr,
                               prod.std(axis=0, ddof=1) / math.sqrt(50),
                               rtol=1e-10)
    assert est.n == 50


def test_estimate_correlation_complex_and_validation():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    lag = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    est = estimate_correlation(ref, lag)
    np.testing.assert_allclose(est.mean,
                               (ref[:, None] * np.conj(lag)).mean(axis=0))
    assert np.iscomplexobj(est.mean)
    # the explicit leave-one-out jackknife
    prod = ref[:, None] * np.conj(lag)
    loo = (prod.sum(axis=0) - prod) / 19
    var = 19 / 20 * np.sum(np.abs(loo - loo.mean(axis=0)) ** 2, axis=0)
    assert not np.iscomplexobj(est.stderr)
    np.testing.assert_allclose(est.stderr, np.sqrt(var), rtol=1e-12)
    single = estimate_correlation(ref, lag[:, 0])
    np.testing.assert_allclose(single.mean, est.mean[:1])
    with pytest.raises(DomainError):
        estimate_correlation(ref[:1], lag[:1])
    with pytest.raises(DomainError):
        estimate_correlation(ref, lag[:10])


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=200))
def test_synthesized_variance_positive_scaling(seed):
    # doubling the spectrum amplitude doubles the covariance: field scales
    # by sqrt(2) exactly for matched draws
    P1 = GaussianBump(1.0, 2.0, 0.7)
    P2 = GaussianBump(2.0, 2.0, 0.7)
    a = synthesize(G_FLAT, P1, small_cfg(seed=seed), *POINTS)
    b = synthesize(G_FLAT, P2, small_cfg(seed=seed), *POINTS)
    np.testing.assert_allclose(b.values, math.sqrt(2.0) * a.values,
                               rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# The law off the origin: the exact covariance of the synthesis map
# ---------------------------------------------------------------------------

class _UnitDraws:
    """mode_streams stand-in: the d-th standard normal the synthesis draws is 1
    in realization d and 0 in every other, so realization d is the field's
    response to draw d, and sum_d f_d(x1) conj(f_d(x2)) is its covariance."""

    def __init__(self):
        self.drawn, self.modes = 0, []

    def __call__(self, l, m):
        self.modes.append((l, m))
        return self

    def standard_normal(self, shape=None, out=None):
        a = np.zeros(shape) if out is None else out
        a[...] = 0.0
        unit = a.reshape(a.shape[0], -1)          # the realization axis leads
        n = unit.shape[1]
        unit[self.drawn + np.arange(n), np.arange(n)] = 1.0
        self.drawn += n
        return a


def _geodesic_chi(geom, p1, p2):
    # distance between (chi, theta, phi) points, in chi units
    (chi1, th1, ph1), (chi2, th2, ph2) = p1, p2
    cg = math.cos(th1) * math.cos(th2) + math.sin(th1) * math.sin(th2) * math.cos(ph1 - ph2)
    s = geom.curvature_scale
    r1, r2 = s * chi1, s * chi2
    if geom.kind.value == "open":
        return math.acosh(max(1.0, math.cosh(r1) * math.cosh(r2)
                              - math.sinh(r1) * math.sinh(r2) * cg)) / s
    return math.acos(min(1.0, math.cos(r1) * math.cos(r2) + math.sin(r1) * math.sin(r2) * cg)) / s


# open: truncated in l at L = 18 to 2e-11; closed: rows l > omega_max vanish
EXACT_CASES = [
    (Geometry.open(-0.5), GaussianBump(1.0, 3.0, 0.8), dict(k_max=6.0, k_panels=4, k_order=8),
     18, 1e-9),
    (G_CLOSED, Tabulated(np.arange(1.0, 10.0), 1.0 / np.arange(1.0, 10.0) ** 2),
     dict(omega_max=8), 8, 1e-12),
]


def _exact_covariance(monkeypatch, geom, P, spec, L, tol, real, pts, n):
    # the covariance of the synthesis map at pts, from n unit draws, against
    # analytic_correlation at the geodesic distances; returns the modes drawn
    chi, theta, phi = (np.array(x) for x in zip(*pts))
    draws = _UnitDraws()
    monkeypatch.setattr(randfield, "mode_streams", lambda seed: draws)
    cfg = SynthesisConfig(L_max=L, real=real, n_realizations=n, **spec)
    f = synthesize(geom, P, cfg, chi, theta, phi).values
    assert draws.drawn == n
    cov = f.T @ f.conj()
    d = [_geodesic_chi(geom, p1, p2) for p1 in pts for p2 in pts]
    ref = analytic_correlation(geom, P, d, k_max=spec.get("k_max"), panels=spec.get("k_panels", 200),
                               order=spec.get("k_order", 12), omega_max=spec.get("omega_max"))
    np.testing.assert_allclose(cov, ref.reshape(cov.shape), rtol=0, atol=tol * np.max(np.abs(ref)))
    return draws.modes


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("geom, P, spec, L, tol", EXACT_CASES)
def test_exact_covariance_off_origin(monkeypatch, geom, P, spec, L, tol, real):
    # Every point is off the origin, at several polar and azimuthal
    # separations, so every radial row l <= L, the QR factor, the harmonic
    # table, the per-m phase and the real field's doubling enter.  This fails
    # with rows 1 and 2 swapped, with the factor 2 of a real field dropped,
    # and with the phase e^{i |m| phi}.  Negating every phase reflects the
    # field, and no law can see a reflection.
    pts = [(0.5, 0.7, 0.3), (1.1, 2.0, 2.6), (0.5, 1.4, -1.9), (1.1, 0.4, 5.0)]
    n = 2 * (L + 1) ** 2 * (1 if real else 2)     # 2 radii < k-nodes: 2 draws per (l, m)
    _exact_covariance(monkeypatch, geom, P, spec, L, tol, real, pts, n)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("geom, P, spec, L, tol", EXACT_CASES)
def test_exact_covariance_on_polar_ray(monkeypatch, geom, P, spec, L, tol, real):
    # The ray estimate samples: theta = 0 at the origin and two radii, at any
    # phi.  The rows of every m but 0 are exact zeros there, so only the L + 1
    # modes m = 0 are drawn, and they alone carry the law along the ray.
    pts = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.3), (1.1, 0.0, 2.6), (0.5, 0.0, -1.9)]
    n = 3 * (L + 1) * (1 if real else 2)          # 3 radii < k-nodes: 3 draws per l
    modes = _exact_covariance(monkeypatch, geom, P, spec, L, tol, real, pts, n)
    assert modes == [(l, 0) for l in range(L + 1)]


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("geom, P, spec, L", [
    (Geometry.open(-0.5), GaussianBump(1.0, 3.0, 0.8), dict(k_max=6.0, k_panels=4, k_order=8), 18),
    (G_CLOSED, Tabulated(np.arange(1.0, 10.0), 1.0 / np.arange(1.0, 10.0) ** 2),
     dict(omega_max=8), 8),
])
def test_monte_carlo_off_origin(geom, P, spec, L, real):
    # The law of the drawn field, not only of the synthesis map: z-scores of
    # the Monte Carlo covariance against analytic_correlation at the geodesic
    # distance, with the reference and every lagged point off the origin (the
    # reference itself, polar and azimuthal separations, other radii).  This
    # fails with radial rows 1 and 2 swapped (max z 11-14) and, for a real
    # field, with its factor 2 dropped (max z 18-29).
    pts = [(0.4, 1.1, 0.4), (0.4, 1.1, 0.4), (0.4, 2.1, 0.4), (0.4, 1.1, 2.4),
           (0.25, 1.1, -1.5), (1.0, 2.0, 2.5), (0.25, 0.3, 4.0)]
    chi, theta, phi = (np.array(x) for x in zip(*pts))
    cfg = SynthesisConfig(L_max=L, real=real, seed=11, n_realizations=4000, **spec)
    f = synthesize(geom, P, cfg, chi, theta, phi).values
    est = estimate_correlation(f[:, 0], f[:, 1:])
    d = [_geodesic_chi(geom, pts[0], p) for p in pts[1:]]
    ref = analytic_correlation(geom, P, d, k_max=spec.get("k_max"), panels=spec.get("k_panels", 200),
                               order=spec.get("k_order", 12), omega_max=spec.get("omega_max"))
    z = np.abs(est.mean - ref) / est.stderr
    assert np.max(z) < 5.0, z


# ---------------------------------------------------------------------------
# Ring synthesis on tensor grids
# ---------------------------------------------------------------------------

def _tensor_points(chi, n_theta, n_phi):
    # the (chi, theta, phi) product in that order, phi_j = 2 pi j / n_phi as the CLI builds it
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    return [x.ravel() for x in np.meshgrid(chi, theta, phi, indexing="ij")]


def _no_gather(*args, **kwargs):
    raise AssertionError("the ring path gathered per m")


def test_ring_path_matches_per_m_gather():
    # One extra point with an existing chi and theta and phi = 0.123 sends the
    # synthesis down the per-m gather; it leaves the distinct chi and theta, so
    # the draws and T_l, unchanged.  L exceeds n_phi / 2, so several m fold onto
    # one phi slot, and the ring path never calls np.take.
    from curvedfield.spinfield import separable_kernels, synthesize_spin
    chi = np.array([0.0, 0.4, 1.1, 1.7])
    kernels = separable_kernels(2, np.arange(2, 15), chi)
    P = GaussianBump(1.0, 3.0, 0.8)

    def scalar(real, chi, theta, phi):
        cfg = SynthesisConfig(L_max=8, seed=4, k_max=6.0, k_panels=2, k_order=6,
                              n_realizations=3, real=real)
        return synthesize(G_OPEN, P, cfg, chi, theta, phi).values

    def spin(chi, theta, phi):          # the kernels' chi times the (theta, phi) directions
        return synthesize_spin(2, kernels, theta, phi, seed=4, n_realizations=2).values

    cases = [(functools.partial(scalar, real), _tensor_points(chi, 5, 12)) for real in (True, False)]
    cases.append((spin, _tensor_points([0.0], 5, 12)))
    for run, (c, t, p) in cases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "take", _no_gather)
            ring = run(c, t, p)
        gathered = run(np.append(c, c[37]), np.append(t, t[37]), np.append(p, 0.123))[..., :-1]
        rms = np.sqrt(np.mean(np.abs(gathered) ** 2))
        assert np.max(np.abs(ring - gathered)) <= 1e-13 * rms
    assert np.all(ring[:, 0] == 0.0)             # the spin chi = 0 shell, through the ring path
    c, t, p = _tensor_points(chi, 5, 12)
    perm = np.random.default_rng(1).permutation(c.size)     # out of (chi, theta, phi) order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "take", _no_gather)
        np.testing.assert_array_equal(scalar(False, c[perm], t[perm], p[perm]),
                                      scalar(False, c, t, p)[:, perm])


def test_one_point_per_ring_keeps_the_gather():
    # every (chi, theta) ring of a 20 x 25 product holds one point, and the 500
    # phi are 2 pi j / 500: the ring table would be 500 x 500 (4 MB, and as
    # much again for the DFT matrix) for 500 points, so the per-m gather runs
    c, t = (x.ravel() for x in np.meshgrid(np.linspace(0.1, 1.5, 20), np.linspace(0.1, 3.0, 25),
                                           indexing="ij"))
    cfg = SynthesisConfig(L_max=2, seed=9, k_max=6.0, k_panels=2, k_order=4)
    peak = _synthesis_peak(G_OPEN, GaussianBump(1.0, 2.0, 0.7), cfg, c, t,
                           np.arange(c.size) * 2.0 * math.pi / c.size)
    assert peak < 4e6, peak


@pytest.mark.parametrize("real", [True, False])
def test_exact_covariance_on_tensor_grid(monkeypatch, real):
    # test_exact_covariance_off_origin on a full tensor grid with uniform phi: the
    # per-m sums fold onto 5 phi slots (m up to 8 alias) and one DFT over phi
    # makes the field, with no per-m gather
    P, L = Tabulated(np.arange(1.0, 10.0), 1.0 / np.arange(1.0, 10.0) ** 2), 8
    chi, theta, phi = _tensor_points(np.array([0.5, 1.1]), 2, 5)
    n = 2 * (L + 1) ** 2 * (1 if real else 2)     # 2 radii < k-nodes: 2 draws per (l, m)
    draws = _UnitDraws()
    monkeypatch.setattr(randfield, "mode_streams", lambda seed: draws)
    cfg = SynthesisConfig(L_max=L, real=real, n_realizations=n, omega_max=8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "take", _no_gather)
        f = synthesize(G_CLOSED, P, cfg, chi, theta, phi).values
    assert draws.drawn == n
    cov = f.T @ f.conj()
    pts = list(zip(chi, theta, phi))
    d = [_geodesic_chi(G_CLOSED, p1, p2) for p1 in pts for p2 in pts]
    ref = analytic_correlation(G_CLOSED, P, d, omega_max=8)
    np.testing.assert_allclose(cov, ref.reshape(cov.shape), rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("chi, L", [([0.7], 32), ([0.3, 0.7], 4)])
def test_fine_rings_at_small_l_hold_no_n_phi_squared_table(chi, L):
    # 1,024 uniform phi on 1 or 2 x 4 (chi, theta) rings: the ring table and E
    # hold only the L + 1 filled phi slots (E is (L + 1) x 1,024), never
    # 1,024 x 1,024 (17 MB, and half as much again for its index table); one
    # ring keeps the per-m gather, as E would be 33 times the field there
    c, t, p = _tensor_points(np.array(chi), 4 if len(chi) > 1 else 1, 1024)
    cfg = SynthesisConfig(L_max=L, seed=2, k_max=6.0, k_panels=2, k_order=4)
    with pytest.MonkeyPatch.context() as mp:
        if len(chi) > 1:
            mp.setattr(np, "take", _no_gather)
        peak = _synthesis_peak(G_OPEN, GaussianBump(1.0, 2.0, 0.7), cfg, c, t, p)
    assert peak < 20 * 16 * c.size, peak / (16 * c.size)


# ---------------------------------------------------------------------------
# Dead m: harmonic rows that are exact zeros draw nothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("real", [True, False])
def test_polar_axis_draws_only_m_0(monkeypatch, real):
    # on the axis every row of m != 0 is an exact 0, so the synthesis draws the
    # L + 1 modes m = 0 only; at the south pole those rows are about 1e-17, not
    # 0, so there every mode is drawn
    L, chi = 4, np.array([0.3, 0.8, 1.4])
    for theta, ms in ((0.0, [0]), (math.pi, range(0 if real else -L, L + 1))):
        modes = [(l, m) for m in ms for l in range(abs(m), L + 1)]
        n = sum(3 * (1 if real and m == 0 else 2) for _, m in modes)
        draws = _UnitDraws()
        monkeypatch.setattr(randfield, "mode_streams", lambda seed: draws)
        cfg = SynthesisConfig(L_max=L, real=real, n_realizations=n, k_max=6.0, k_panels=2, k_order=4)
        synthesize(G_OPEN, GaussianBump(1.0, 2.0, 0.7), cfg, chi, np.full(3, theta), [0.0, 1.0, 2.0])
        assert sorted(draws.modes) == sorted(modes) and draws.drawn == n


def test_spin_polar_axis_draws_only_m_minus_s(monkeypatch):
    # sY_lm(0, phi) is 0 unless m = -s: a spin-2 synthesis on the axis draws m = -2 alone
    from curvedfield import spinfield
    kernels = spinfield.separable_kernels(2, np.arange(2, 7), [0.0, 0.5, 1.2])
    draws = _UnitDraws()
    monkeypatch.setattr(spinfield, "mode_streams", lambda seed, tag, spin: draws)
    n = 5 * 3 * 2                               # 5 multipoles, 3 shells, complex draws
    spinfield.synthesize_spin(2, kernels, [0.0, 0.0], [0.0, 1.0], seed=1, n_realizations=n)
    assert draws.modes == [(l, -2) for l in range(2, 7)] and draws.drawn == n


def test_polar_axis_matches_all_live_synthesis(monkeypatch):
    # One extra point off the axis, at an existing chi, makes every m live; it
    # leaves the distinct chi, so the draws of m = -s and T_l, unchanged.  The
    # axis values agree with it within 1e-13 of the rms, and draw m = -s alone.
    from curvedfield import spinfield
    chi = np.array([0.0, 0.4, 1.1, 1.7])
    kernels = spinfield.separable_kernels(2, np.arange(2, 15), chi)
    P, streams, drawn = GaussianBump(1.0, 3.0, 0.8), mode_streams, set()

    def recorded(*args, **kwargs):
        stream = streams(*args, **kwargs)
        return lambda l, m: (drawn.add(m), stream(l, m))[1]
    monkeypatch.setattr(randfield, "mode_streams", recorded)
    monkeypatch.setattr(spinfield, "mode_streams", recorded)

    def scalar(real, theta, phi):       # chi times the (theta, phi) directions, as spin
        cfg = SynthesisConfig(L_max=8, seed=4, k_max=6.0, k_panels=2, k_order=6,
                              n_realizations=3, real=real)
        pts = np.repeat(chi, theta.size), np.tile(theta, chi.size), np.tile(phi, chi.size)
        return synthesize(G_OPEN, P, cfg, *pts).values.reshape(3, chi.size, -1)

    def spin(theta, phi):
        return spinfield.synthesize_spin(2, kernels, theta, phi, seed=4, n_realizations=2).values

    axis = np.zeros(8), np.arange(8) * 2.0 * math.pi / 8     # one ring per chi: the ring path
    for run, s in [(functools.partial(scalar, True), 0), (functools.partial(scalar, False), 0),
                   (spin, 2)]:
        drawn.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "take", _no_gather)
            on_axis = run(*axis)
        assert drawn == {-s}
        live = run(*(np.append(x, y) for x, y in zip(axis, (0.9, 0.123))))[..., :-1]
        assert len(drawn) > 1
        rms = np.sqrt(np.mean(np.abs(live) ** 2))
        assert np.max(np.abs(on_axis - live)) <= 1e-13 * rms


# ---------------------------------------------------------------------------
# A real field's m = 0 in float64
# ---------------------------------------------------------------------------

def test_real_polar_ray_allocates_nothing_complex():
    # On the polar ray every m > 0 is dead, so a real field's synthesis is its
    # m = 0 alone: float64 draws, products and b_0, with no complex block, ring
    # table or phase product.  Its peak was 4.01 float units with m = 0 carried
    # in complex storage; it reads 1.67 here.
    L, N, chi = 2, 10000, np.linspace(0.0, 2.0, 9)
    cfg = SynthesisConfig(L_max=L, seed=1, k_max=8.0, k_panels=4, k_order=6, n_realizations=N)
    peak = _synthesis_peak(G_FLAT, GaussianBump(1.0, 3.0, 0.8), cfg, chi,
                           np.zeros(chi.size), np.zeros(chi.size))
    unit = (L + 1) * N * chi.size * 8
    assert peak <= 2.5 * unit, peak / unit


@pytest.mark.parametrize("real", [True, False])
def test_live_draws_are_mode_rng_bit_for_bit(monkeypatch, real):
    # A real field's m = 0 is drawn into a float64 slot and every other m into a
    # complex one, each by standard_normal(out=): the normals of every live mode
    # are those of mode_rng(seed, l, m), on a grid where every m is live.
    seen, draw = [], randfield._draw_xi

    def recorded(stream, l, ms, out):
        draw(stream, l, ms, out)
        seen.extend((l, m, x.copy()) for m, x in zip(ms, out))
    monkeypatch.setattr(randfield, "_draw_xi", recorded)
    L, seed = 3, 5
    cfg = SynthesisConfig(L_max=L, seed=seed, k_max=6.0, k_panels=2, k_order=4,
                          n_realizations=3, real=real)
    synthesize(G_OPEN, GaussianBump(1.0, 2.0, 0.7), cfg, *_tensor_points(np.array([0.4, 0.9]), 3, 4))
    assert sorted((l, m) for l, m, _ in seen) == [
        (l, m) for l in range(L + 1) for m in range(0 if real else -l, l + 1)]
    for l, m, x in seen:
        rng = mode_rng(seed, l, m)
        if x.dtype.kind == "f":
            assert real and m == 0
            ref = rng.standard_normal(x.shape)
        else:
            ref = rng.standard_normal(x.shape[:-1] + (2 * x.shape[-1],)).view(complex) / math.sqrt(2.0)
        assert np.array_equal(x, ref), (l, m)


def test_estimate_correlation_real_in_place_keeps_the_bits():
    # Real inputs are centred and squared in place: mean and stderr are those of
    # the formula with conj and |.|^2 temporaries, bit for bit, and the inputs,
    # a strided view as cmd_estimate passes it, come back unmodified.
    rng = np.random.default_rng(4)
    values = rng.standard_normal((12000, 9))
    kept = values.copy()
    ref, lagged = values[:, 0], values[:, 1:]
    n, est = ref.size, estimate_correlation(ref, lagged)
    prod = ref[:, None] * np.conj(lagged)
    mean = prod.mean(axis=0)
    stderr = np.sqrt(np.sum(np.abs(prod - mean) ** 2, axis=0) / (n * (n - 1)))
    assert np.array_equal(est.mean, mean) and np.array_equal(est.stderr, stderr)
    assert np.array_equal(values, kept) and not np.iscomplexobj(est.mean)
    # complex inputs keep that formula, and their bits
    zref, zlag = ref + 1j * values[:, 1], lagged - 0.5j * values[:, :8]
    est = estimate_correlation(zref, zlag)
    prod = zref[:, None] * np.conj(zlag)
    mean = prod.mean(axis=0)
    stderr = np.sqrt(np.sum(np.abs(prod - mean) ** 2, axis=0) / (n * (n - 1)))
    assert np.array_equal(est.mean, mean) and np.array_equal(est.stderr, stderr)
    assert np.array_equal(values, kept)


# ---------------------------------------------------------------------------
# A real field's m = 0 drawn on two threads
# ---------------------------------------------------------------------------

def _drawing_threads(monkeypatch) -> list:
    # the thread of each _draw_xi call, in call order
    seen, draw = [], randfield._draw_xi

    def recorded(stream, l, ms, out):
        seen.append(threading.get_ident())
        draw(stream, l, ms, out)
    monkeypatch.setattr(randfield, "_draw_xi", recorded)
    return seen


@pytest.mark.parametrize("theta, N, split", [(0.0, 10000, True), (0.5 * math.pi, 10000, True),
                                             (0.0, 1000, False), ("scattered", 10000, True)])
def test_two_threads_keep_every_bit(monkeypatch, theta, N, split):
    # At N = 10,000 each m = 0 draw holds N n_T = 90,000 normals, past
    # randfield._DUAL: with two CPUs a second thread pulls l from the block's
    # queue and draws them, with its own stream, into its own rows of a, which
    # the calling thread multiplies; with one CPU, or at N = 1,000, every l is
    # drawn here.  The payloads are equal bit for
    # bit, on the polar ray (m = 0 alone), at theta = pi/2 (the m > 0 on
    # one thread after) and on 9 radii each with its own theta and phi (the
    # per-pair contraction and the per-m gather), with thread switches forced
    # every microsecond.  The stream of (2, 0) waits 20 ms, so a worker not
    # joined would still run.  A second thread's draws wait for the calling
    # thread's first, so the worker cannot drain the queue alone while the
    # calling thread builds the radial factor.
    streams, chi, main, first = mode_streams, np.linspace(0.0, 2.0, 9), threading.get_ident(), threading.Event()

    def slow(seed):
        stream = streams(seed)

        def draw(l, m):
            if threading.get_ident() == main:
                first.set()
            else:
                first.wait(10.0)
            if (l, m) == (2, 0):
                time.sleep(0.02)
            return stream(l, m)
        return draw
    monkeypatch.setattr(randfield, "mode_streams", slow)
    cfg = SynthesisConfig(L_max=2, seed=1, k_max=8.0, k_panels=4, k_order=6, n_realizations=N)
    rng = np.random.default_rng(2)
    pts = (rng.permutation(chi), rng.uniform(0.0, math.pi, chi.size), rng.uniform(0.0, 6.0, chi.size)) \
        if theta == "scattered" else (chi, np.full(chi.size, theta), np.zeros(chi.size))
    seen, payload = _drawing_threads(monkeypatch), {}
    interval, before = sys.getswitchinterval(), threading.active_count()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2):
            monkeypatch.setattr(randfield, "_cpus", lambda: cpus)
            seen.clear(), first.clear()
            payload[cpus] = synthesize(G_FLAT, GaussianBump(1.0, 3.0, 0.8), cfg, *pts).values
            assert len(set(seen[:3])) == (2 if split and cpus == 2 else 1)    # m = 0 draws first
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(payload[1], payload[2])


@pytest.mark.parametrize("bad", ["worker", "caller"])
def test_a_failed_draw_is_raised_after_the_join(monkeypatch, bad):
    # The first draw of the second thread, or of the calling one, raises:
    # synthesize raises it once the worker has joined, and leaves no thread
    # behind.  The other thread's draws wait for the failing one, so neither
    # drains the block's l queue alone.
    class Broken(Exception):
        pass
    streams, raised_on, failed, main = mode_streams, [], threading.Event(), threading.get_ident()

    def broken(seed):
        stream = streams(seed)

        def draw(l, m):
            if (threading.get_ident() == main) == (bad == "caller") and not failed.is_set():
                raised_on.append(threading.get_ident())
                failed.set()
                raise Broken(l)
            failed.wait(10.0)
            return stream(l, m)
        return draw
    monkeypatch.setattr(randfield, "mode_streams", broken)
    monkeypatch.setattr(randfield, "_cpus", lambda: 2)
    chi, before = np.linspace(0.0, 2.0, 9), threading.active_count()
    cfg = SynthesisConfig(L_max=2, seed=1, k_max=8.0, k_panels=4, k_order=6, n_realizations=10000)
    with pytest.raises(Broken):
        synthesize(G_FLAT, GaussianBump(1.0, 3.0, 0.8), cfg, chi, np.zeros(chi.size), np.zeros(chi.size))
    assert threading.active_count() == before
    assert len(raised_on) == 1 and (raised_on[0] == main) == (bad == "caller")


def test_a_failed_factor_is_raised_after_the_join(monkeypatch):
    # The radial table fails its certification while the second thread draws:
    # synthesize raises the AccuracyError once that thread has drained the
    # block's l queue alone and joined, and leaves no thread behind.
    started, drawn, draw, main = threading.Event(), [], randfield._draw_xi, threading.get_ident()

    def recorded(stream, l, ms, out):
        if threading.get_ident() != main:
            started.set()
        draw(stream, l, ms, out)
        drawn.append((l, threading.get_ident() != main))

    def failing(*args, **kwargs):
        assert started.wait(10.0)
        raise AccuracyError("radial table: residual above tolerance")
    monkeypatch.setattr(randfield, "_draw_xi", recorded)
    monkeypatch.setattr(randfield, "radial_table", failing)
    monkeypatch.setattr(randfield, "_cpus", lambda: 2)
    chi, before = np.linspace(0.0, 2.0, 9), threading.active_count()
    cfg = SynthesisConfig(L_max=2, seed=1, k_max=8.0, k_panels=4, k_order=6, n_realizations=10000)
    with pytest.raises(AccuracyError, match="residual above tolerance"):
        synthesize(G_FLAT, GaussianBump(1.0, 3.0, 0.8), cfg, chi, np.zeros(chi.size), np.zeros(chi.size))
    assert threading.active_count() == before
    assert drawn == [(0, True), (1, True), (2, True)]


@pytest.mark.parametrize("wait", [False, True])
def test_bits_do_not_follow_the_drawing_thread(monkeypatch, wait):
    # With two CPUs a real field's m = 0 draws start before the radial factor
    # exists, and both threads pull l from one queue: an l the second thread
    # draws waits in the front of its rows of a, before the factor exists or
    # after, and the calling thread multiplies it once its own draws are done,
    # before the join or after it.
    # A factor built at once, or one that waits until the second thread has
    # drained the queue (every product deferred; the last l is handed over
    # only once the join has begun), gives the one-CPU payload bit for bit; on
    # one CPU no thread starts.
    L, chi, P = 2, np.linspace(0.0, 2.0, 9), GaussianBump(1.0, 3.0, 0.8)
    cfg = SynthesisConfig(L_max=L, seed=1, k_max=8.0, k_panels=4, k_order=6, n_realizations=10000)
    pts = chi, np.zeros(chi.size), np.zeros(chi.size)
    drained, joining, main = threading.Event(), threading.Event(), threading.get_ident()
    table, draw = randfield.radial_table, randfield._draw_xi
    start, join = threading.Thread.start, threading.Thread.join
    on_worker, started = [], []

    def recorded(stream, l, ms, out):
        draw(stream, l, ms, out)
        if threading.get_ident() != main:
            on_worker.append(l)
            if wait and len(on_worker) == L + 1:
                drained.set()
                assert joining.wait(10.0)

    def factor_table(*args, **kwargs):
        if wait:
            assert drained.wait(10.0)
        return table(*args, **kwargs)

    def counted(thread):
        started.append(thread)
        start(thread)

    def joined(thread, *args):
        joining.set()
        join(thread, *args)
    monkeypatch.setattr(threading.Thread, "start", counted)
    monkeypatch.setattr(threading.Thread, "join", joined)
    monkeypatch.setattr(randfield, "_cpus", lambda: 1)
    one = synthesize(G_FLAT, P, cfg, *pts).values
    assert started == []
    monkeypatch.setattr(randfield, "_draw_xi", recorded)
    monkeypatch.setattr(randfield, "radial_table", factor_table)
    monkeypatch.setattr(randfield, "_cpus", lambda: 2)
    before = threading.active_count()
    two = synthesize(G_FLAT, P, cfg, *pts).values
    assert len(started) == 1 and threading.active_count() == before
    assert on_worker == [0, 1, 2] or not wait
    assert np.array_equal(one, two)


def _polar_ray_job():
    # a real polar-ray synthesis whose m = 0 draws (N n_T = 90,000) take two threads
    chi = np.linspace(0.0, 2.0, 9)
    cfg = SynthesisConfig(L_max=2, seed=1, k_max=8.0, k_panels=4, k_order=6, n_realizations=10000)
    return G_FLAT, GaussianBump(1.0, 3.0, 0.8), cfg, chi, np.zeros(chi.size), np.zeros(chi.size)


def test_the_worker_draws_only_into_its_rows_of_a(monkeypatch):
    # The second thread only draws, into the front of its own rows of a: no
    # draw of it lands in memory that a draw of the calling thread uses (its
    # slot).  Each thread's first draw waits until the other has entered one,
    # so both draw, whatever the timing.
    main, draw, outs = threading.get_ident(), randfield._draw_xi, {True: [], False: []}
    entered = {True: threading.Event(), False: threading.Event()}

    def recorded(stream, l, ms, out):
        caller = threading.get_ident() == main
        outs[caller].append(out)
        entered[caller].set()
        assert entered[not caller].wait(10.0)
        draw(stream, l, ms, out)
    monkeypatch.setattr(randfield, "_cpus", lambda: 1)
    one = synthesize(*_polar_ray_job()).values
    monkeypatch.setattr(randfield, "_draw_xi", recorded)
    monkeypatch.setattr(randfield, "_cpus", lambda: 2)
    two = synthesize(*_polar_ray_job()).values
    assert outs[True] and outs[False] and len(outs[True]) + len(outs[False]) == 3
    assert not any(np.shares_memory(w, c) for w in outs[False] for c in outs[True])
    assert np.array_equal(one, two)


def test_a_worker_draw_is_listed_once_complete(monkeypatch):
    # Each draw of the second thread starts only once the join has begun, so
    # the calling thread has drawn and multiplied its own l and run its pass
    # before the join: an l listed before its draw is complete would be
    # multiplied there unfilled, and one drawn during the join needs the pass
    # after it.  The payload is the one-CPU payload bit for bit.
    main, draw = threading.get_ident(), randfield._draw_xi
    entered, joining, join, on_worker = threading.Event(), threading.Event(), threading.Thread.join, []

    def recorded(stream, l, ms, out):
        if threading.get_ident() == main:
            assert entered.wait(10.0)           # the worker holds an l
        else:
            on_worker.append(l)
            entered.set()
            assert joining.wait(10.0)
        draw(stream, l, ms, out)

    def joined(thread, *args):
        joining.set()
        join(thread, *args)
    monkeypatch.setattr(randfield, "_cpus", lambda: 1)
    one = synthesize(*_polar_ray_job()).values
    monkeypatch.setattr(randfield, "_draw_xi", recorded)
    monkeypatch.setattr(threading.Thread, "join", joined)
    monkeypatch.setattr(randfield, "_cpus", lambda: 2)
    two = synthesize(*_polar_ray_job()).values
    assert len(on_worker) == 1
    assert np.array_equal(one, two)


def test_a_second_thread_adds_no_slot(monkeypatch):
    # With two CPUs the second thread draws into rows of a that the block
    # holds anyway: the traced peak of a synthesis whose m = 0 draws take two
    # threads stays within 64 kB of the one-CPU peak.  A slot of its own,
    # N n_T = 90,000 float64 (720 kB), would exceed that.
    peaks = {}
    for cpus in (1, 2):
        monkeypatch.setattr(randfield, "_cpus", lambda: cpus)
        peaks[cpus] = _synthesis_peak(*_polar_ray_job())
    assert peaks[2] <= peaks[1] + 65536, peaks


# ---------------------------------------------------------------------------
# The flat limit: open payloads tend to the flat payload linearly in K
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("where", ["grid", "ray"])
def test_open_payloads_tend_to_flat(where, real):
    # With the same seed and k nodes the open payload is within 2|K| of the flat
    # payload's rms (measured: 0.98-1.27|K| on the grid, 0.92-1.14|K| on the ray):
    # a defect in one model's branch leaves a gap that does not shrink with K.
    # The models share the synthesis, so the ray also anchors the flat payload:
    # its variance at the origin, where only l = 0 couples, is C(0) (max |z| 1.3).
    # Doubling a real field's b_0 passes the first check and fails the second.
    P = GaussianBump(1.0, 3.0, 0.8)
    if where == "grid":
        L, N, pts = 4, 1, _tensor_points(np.linspace(0.0, 2.0, 6), 4, 8)
    else:
        chi = np.linspace(0.0, 2.0, 9)
        L, N, pts = 2, 500, (chi, np.zeros(chi.size), np.zeros(chi.size))
    cfg = SynthesisConfig(L_max=L, seed=3, k_max=8.0, k_panels=2, k_order=6,
                          n_realizations=N, real=real)
    flat = synthesize(G_FLAT, P, cfg, *pts).values
    rms = np.sqrt(np.mean(np.abs(flat) ** 2))
    for K in (-1e-6, -1e-8):
        gap = np.max(np.abs(synthesize(Geometry.open(K), P, cfg, *pts).values - flat))
        assert gap <= 2.0 * abs(K) * rms, (K, gap / (abs(K) * rms))
    if where == "ray":
        est = estimate_correlation(flat[:, 0], flat[:, 0])
        c0 = analytic_correlation(G_FLAT, P, 0.0, k_max=8.0, panels=2, order=6)[0]
        assert abs(est.mean[0] - c0) < 5.0 * est.stderr[0], (est.mean[0], c0)


@pytest.mark.parametrize("K", [-1e-4, -1e-6, -1e-8, 1e-4, 1e-6])
def test_analytic_correlation_tends_to_flat(K):
    # C(r) of the open and closed models is within 0.06|K| C(0) of flat's
    # (measured: 0.0396-0.0402|K| C(0), 0.76-0.78|K| here, the largest near
    # r = 1.5), at nine lags on [0, 2]; the closed lattice runs to k = 8 as
    # flat's rule does.  A defect in one model's branch leaves a gap that does
    # not shrink with K.
    P, r = GaussianBump(1.0, 3.0, 0.8), np.linspace(0.0, 2.0, 9)
    flat = analytic_correlation(G_FLAT, P, r, k_max=8.0)
    geom = Geometry.open(K) if K < 0 else Geometry.closed(K)
    curved = analytic_correlation(geom, P, r, k_max=8.0, omega_max=round(8.0 / math.sqrt(abs(K))))
    gap = np.max(np.abs(curved - flat))
    assert gap <= 0.06 * abs(K) * flat[0], gap / (abs(K) * flat[0])
