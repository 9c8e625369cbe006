import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedfield import randfield, sft, specfun
from curvedfield.errors import DomainError
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
        stream, ref = mode_streams(cfg.seed), np.zeros(n, dtype=complex)
        for l in range(cfg.L_max + 1):
            T = randfield._radial_factor(sd[:, None] * R[l])
            a = np.empty((l + 1 if real else 2 * l + 1, n), dtype=complex)
            a[:, order] = (randfield._draw_xi(stream, l, (1, T.shape[0]), real) @ T)[:, 0]
            for i, m in enumerate(range(0 if real else -l, l + 1)):
                y = specfun.spin_harmonic(0, l, m, theta, phi)
                ref += a[i] * y * (2.0 if real and m > 0 else 1.0)
        ref = (ref.real if real else ref) * randfield._norm_const(G_OPEN)
        np.testing.assert_allclose(f, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


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
    # rows), and no zonal table of its own: at 600 lags the transforms'
    # angle-addition factors, once, and no table; at 8 lags, fewer than an
    # anchor group has rows, zonal_spherical's blocks
    factors, rows, tables = [], [], []
    build, factor_rows, table = sft._zonal_factors, sft._factor_rows, sft.zonal_spherical

    def counted_factors(*a):
        fac = build(*a)
        factors.append(fac is not None)
        return fac

    def no_table(*a):
        raise AssertionError("analytic_correlation built its own table")

    monkeypatch.setattr(sft, "_zonal_factors", counted_factors)
    monkeypatch.setattr(sft, "_factor_rows", lambda *a: (rows.append(a), factor_rows(*a))[1])
    monkeypatch.setattr(sft, "zonal_spherical",
                        lambda g, w, r: (tables.append((np.size(w), np.size(r))), table(g, w, r))[1])
    monkeypatch.setattr(randfield, "zonal_spherical", no_table)
    P = PowerLaw(1.0, -1.0, k_cut_low=0.05)
    n_nodes = 2 * ROWS + 1
    for n_lags, blocks in ((N_LAGS, []), (8, specfun.zonal_blocks(n_nodes, 8))):
        factors.clear()
        tables.clear()
        r = np.linspace(0.0, 5.0, n_lags)
        got = analytic_correlation(G_OPEN, P, r, k_max=12.0, panels=n_nodes, order=1)
        assert factors == [not blocks]
        assert tables == [(len(range(n_nodes)[b]), n_lags) for b in blocks]
        assert rows == []
        assert np.all(np.isfinite(got))


def test_analytic_correlation_keeps_the_shape_of_r():
    # a 2-d r once raised numpy's bare ValueError from the node sum
    P = GaussianBump(1.0, 2.0, 0.6)
    for n_lags in (6, N_LAGS):                  # the direct table, and the factors
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
    # enough lags for the angle-addition factors, whose 1/f(r) overflowed at a
    # subnormal lag (inf open and flat, NaN closed) where the table read r = 0;
    # two lags take zonal_spherical's table
    geom = {"open": G_OPEN, "flat": G_FLAT, "closed": G_CLOSED}[name]
    kw = {"omega_max": 60} if name == "closed" else {"k_max": 8.0}
    r = np.concatenate([[0.0, 1e-310], np.linspace(0.1, 2.0, 60)])
    k, _ = spectral_nodes(geom, kw.get("k_max"), 200, 12, kw.get("omega_max"))
    assert specfun._zonal_factors(geom, *sft._scaled(geom, k, r)) is not None
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
        self.drawn = 0

    def __call__(self, l, m):
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


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("geom, P, spec, L, tol", [
    # open: truncated in l at L = 18 to 2e-11; closed: rows l > omega_max vanish
    (Geometry.open(-0.5), GaussianBump(1.0, 3.0, 0.8), dict(k_max=6.0, k_panels=4, k_order=8),
     18, 1e-9),
    (G_CLOSED, Tabulated(np.arange(1.0, 10.0), 1.0 / np.arange(1.0, 10.0) ** 2),
     dict(omega_max=8), 8, 1e-12),
])
def test_exact_covariance_off_origin(monkeypatch, geom, P, spec, L, tol, real):
    # Every point is off the origin, at several polar and azimuthal
    # separations, so every radial row l <= L, the QR factor, the harmonic
    # table, the per-m phase and the real field's doubling enter.  This fails
    # with rows 1 and 2 swapped, with the factor 2 of a real field dropped,
    # and with the phase e^{i |m| phi}.  Negating every phase reflects the
    # field, and no law can see a reflection.
    pts = [(0.5, 0.7, 0.3), (1.1, 2.0, 2.6), (0.5, 1.4, -1.9), (1.1, 0.4, 5.0)]
    chi, theta, phi = (np.array(x) for x in zip(*pts))
    n = 2 * (L + 1) ** 2 * (1 if real else 2)     # 2 radii < k-nodes: 2 draws per (l, m)
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
