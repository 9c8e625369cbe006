import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedfield import sft, specfun
from curvedfield.errors import (ConvergenceError, DomainError,
                                SpectralLatticeError)
from curvedfield.geometry import Geometry, Kind, surface_area
from curvedfield.quadrature import gauss_legendre_grid
from curvedfield.sft import (RadialProfile, Spectrum, bump_profile,
                             closed_k_lattice, forward_isotropic,
                             inverse_isotropic, parseval_constant,
                             profile_norm2, roundtrip_isotropic,
                             spectrum_norm2, zonal_kernel)
from curvedfield.specfun import zonal_spherical

G_OPEN = Geometry.open(-1.0)
G_FLAT = Geometry.flat()
G_CLOSED = Geometry.closed(1.0)

# transform grids follow the resolution rule: about 8 radians of kernel
# phase per quadrature panel at the largest wavenumber
ROUNDTRIP = {
    "open": (G_OPEN, 4.0, 200.0, 2.0, 1.8),
    "flat": (G_FLAT, 4.0, 150.0, 2.0, 1.8),
    "closed": (G_CLOSED, math.pi, 200, 1.5, 1.4),
    # K = 4: every power of sqrt(K) differs from 1; the same shape in units of 1/sqrt(K)
    "closed4": (Geometry.closed(4.0), math.pi / 2, 200, 0.75, 0.7),
}


def transform_setup(geom, chi_max, k_top, center, halfwidth, order=12):
    if geom.kind.value == "closed":
        panels = max(4, math.ceil((k_top + 1) * geom.curvature_scale * chi_max / 8))
        chi, wchi = gauss_legendre_grid(1e-9, chi_max, panels, order)
        k, wk = closed_k_lattice(geom, k_top), None
    else:
        panels = max(4, math.ceil(k_top * chi_max / 8))
        chi, wchi = gauss_legendre_grid(1e-9, chi_max, panels, order)
        k, wk = gauss_legendre_grid(1e-9, k_top, panels, order)
    prof = RadialProfile(geom, chi, bump_profile(chi, center, halfwidth), wchi)
    return prof, k, wk


@pytest.mark.parametrize("name", sorted(ROUNDTRIP))
def test_roundtrip_recovers_profile(name):
    geom, chi_max, k_top, center, hw = ROUNDTRIP[name]
    prof, k, wk = transform_setup(geom, chi_max, k_top, center, hw)
    spec = forward_isotropic(prof, k, tail_tol=None)
    if wk is not None:
        spec = Spectrum(geom, k, spec.values, wk)
    back = inverse_isotropic(spec, prof.chi, tail_tol=None)
    err = np.max(np.abs(back.values - prof.values)) / np.max(np.abs(prof.values))
    assert err < 1e-6, err


@pytest.mark.parametrize("name", sorted(ROUNDTRIP))
def test_parseval(name):
    geom, chi_max, k_top, center, hw = ROUNDTRIP[name]
    prof, k, wk = transform_setup(geom, chi_max, k_top, center, hw)
    spec = forward_isotropic(prof, k, tail_tol=None)
    if wk is not None:
        spec = Spectrum(geom, k, spec.values, wk)
    lhs = spectrum_norm2(spec)
    rhs = parseval_constant(geom) * profile_norm2(prof)
    assert abs(lhs - rhs) < 1e-6 * rhs
    if geom.kind is Kind.CLOSED:
        # the closed norms are quoted per lattice sum, not per K^(3/2) of it
        wp1 = np.arange(k.size) + 1.0
        assert lhs == pytest.approx(np.sum(wp1 ** 2 * spec.values ** 2), rel=1e-14)
        assert parseval_constant(geom) == pytest.approx(math.pi / (2 * geom.K ** 1.5),
                                                        rel=1e-15)


def test_one_inverse_constant_per_model():
    # B = c/(2 pi^2) is the only inverse prefactor, and tail_tol is keyword-only:
    # a normalization passed in its old place raises
    for name in ("open", "flat", "closed", "closed4"):
        geom = ROUNDTRIP[name][0]
        assert sft._inverse_pref(geom) == sft._norm_const(geom) / (2.0 * math.pi ** 2)
    geom, chi_max, k_top, center, hw = ROUNDTRIP["open"]
    prof, k, wk = transform_setup(geom, chi_max, k_top, center, hw, order=6)
    spec = Spectrum(geom, k, forward_isotropic(prof, k, tail_tol=None).values, wk)
    for norm in ("consistent", "printed"):
        with pytest.raises(TypeError):
            inverse_isotropic(spec, prof.chi, norm)
        with pytest.raises(TypeError):
            roundtrip_isotropic(prof, k, wk, norm)
        with pytest.raises(TypeError):
            inverse_isotropic(spec, prof.chi, normalization=norm)
        with pytest.raises(TypeError):
            roundtrip_isotropic(prof, k, wk, normalization=norm)


def test_closed_kernel_orthogonality():
    # int Phi_w Phi_w' S(chi) dchi = 2 pi^2 / (K^{3/2} (w+1)^2) delta_{ww'}
    geom = Geometry.closed(1.0)
    wmax = 12
    chi, w = gauss_legendre_grid(1e-9, math.pi, max(4, 2 * (wmax + 1)), 12)
    S = surface_area(geom, chi)
    kern = np.array([zonal_kernel(geom, float(kk), chi)
                     for kk in closed_k_lattice(geom, wmax)])
    gram = (kern * S * w) @ kern.T
    expect = np.diag([2 * math.pi ** 2 / (om + 1.0) ** 2
                      for om in range(wmax + 1)])
    np.testing.assert_allclose(gram, expect, atol=1e-10)


def test_forward_tail_monitor():
    chi, w = gauss_legendre_grid(1e-9, 4.0, 24, 8)
    prof = RadialProfile(G_FLAT, chi, np.ones_like(chi), w)
    with pytest.raises(ConvergenceError) as two_call:
        forward_isotropic(prof, np.array([0.1, 1.0]))
    forward_isotropic(prof, np.array([0.1, 1.0]), tail_tol=None)
    # the fused roundtrip raises the same error
    with pytest.raises(ConvergenceError, match=re.escape(str(two_call.value))):
        roundtrip_isotropic(prof, np.array([0.1, 1.0]), np.array([0.45, 0.45]))
    # compact support well inside the grid passes the default monitor
    prof2 = RadialProfile(G_FLAT, chi, bump_profile(chi, 1.5, 0.8), w)
    forward_isotropic(prof2, np.array([0.1, 1.0]))


def test_tail_tol_is_none_or_finite_and_positive(monkeypatch):
    # nan once switched both monitors off (frac > nan is False), so this
    # unconverged grid passed; 0 and below raised a ConvergenceError that
    # blamed the grid
    chi, w = gauss_legendre_grid(0.0, 4.0, 32, 8)
    prof = RadialProfile(G_FLAT, chi, bump_profile(chi, 3.0, 2.0, 1.0), w)
    k, wk = sft.spectral_nodes(G_FLAT, 20.0, 16, 8, -1)
    with pytest.raises(ConvergenceError):
        forward_isotropic(prof, k, tail_tol=1e-9)
    spec = forward_isotropic(prof, k, tail_tol=None)

    def no_block(*args):
        raise AssertionError("a zonal block was built")

    monkeypatch.setattr(sft, "zonal_kernel", no_block)
    monkeypatch.setattr(sft, "zonal_spherical", no_block)
    monkeypatch.setattr(sft, "_zonal_factors", no_block)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
        for call in (lambda: forward_isotropic(prof, k, tail_tol=bad),
                     lambda: inverse_isotropic(spec, chi, tail_tol=bad),
                     lambda: roundtrip_isotropic(prof, k, wk, tail_tol=bad)):
            with pytest.raises(DomainError, match="tail_tol"):
                call()


def test_inverse_checks_chi_before_any_zonal_work(monkeypatch):
    # chi was checked only in the returned profile, after the zonal pass, which
    # reported a negative or past-antipode node as a bad scaled radius r
    specs = {}
    for geom in (G_OPEN, G_FLAT, G_CLOSED):
        k, wk = sft.spectral_nodes(geom, 20.0, 4, 8, 40)
        specs[geom] = Spectrum(geom, k, np.exp(-k ** 2), wk)

    def no_block(*args):
        raise AssertionError("a zonal block was built")

    for attr in ("_zonal_factors", "zonal_spherical", "zonal_kernel"):
        monkeypatch.setattr(sft, attr, no_block)
    cases = [(geom, [-0.5, 0.5, 1.0]) for geom in specs]
    cases.append((G_CLOSED, [0.5, 1.0, G_CLOSED.chi_max * (1 + 1e-9)]))
    for geom, chi in cases:
        with pytest.raises(DomainError, match="chi outside"):
            inverse_isotropic(specs[geom], chi)


def test_closed_radius_bound_is_check_chi_bound():
    # zonal_spherical bounded the scaled radius r = sqrt(K) chi by pi (1 + 1e-12),
    # one rounding off check_chi's chi <= chi_max (1 + 1e-12): a one-node grid at
    # chi_max (1 + 1e-12) raised "closed-model scaled radius r exceeds pi" for 59
    # of these 500 curvatures
    for K in np.random.default_rng(0).uniform(0.01, 10.0, 500):
        geom = Geometry.closed(float(K))
        k, wk = sft.spectral_nodes(geom, None, 1, 2, 12)
        spec = Spectrum(geom, k, np.exp(-np.arange(13.0)), wk)
        assert np.isfinite(inverse_isotropic(spec, [geom.chi_max * (1 + 1e-12)], tail_tol=None).values).all()
        with pytest.raises(DomainError, match="chi outside"):
            inverse_isotropic(spec, [geom.chi_max * (1 + 4e-12)], tail_tol=None)


def test_inverse_tail_monitor():
    k, wk = gauss_legendre_grid(1e-9, 30.0, 24, 8)
    spec = Spectrum(G_FLAT, k, np.ones_like(k), wk)
    with pytest.raises(ConvergenceError):
        inverse_isotropic(spec, np.array([0.5, 1.0]))
    inverse_isotropic(spec, np.array([0.5, 1.0]), tail_tol=None)
    # bumps whose spectra are cut short: flat at k = 3, and the closed lattice
    # once went unchecked - the CI closed profile on 16 chi panels (k tail 0.515,
    # roundtrip error 2.35) and on 64 panels cut at omega_max 30 (k tail 4.6e-3,
    # error 6.2e-3), and lattices of under 8 points (omega_max 6 on 100 panels:
    # k tail 0.156, error 0.177; 4 or fewer points are all tail); the fused
    # roundtrip raises the inverse error of the two calls, and the forward, its
    # spectrum carrying the measure's weights, raises first
    chi, w = gauss_legendre_grid(1e-9, 4.0, 24, 8)
    cases = [(RadialProfile(G_FLAT, chi, bump_profile(chi, 1.5, 0.8), w),
              gauss_legendre_grid(1e-9, 3.0, 8, 8))]
    for panels, omega_max in ((16, 300), (64, 30), (100, 6), (100, 3)):
        chi, w = gauss_legendre_grid(0.0, math.pi, panels, 12)
        cases.append((RadialProfile(G_CLOSED, chi, bump_profile(chi, 1.5, 1.4), w),
                      sft.spectral_nodes(G_CLOSED, None, panels, 12, omega_max)))
    for prof, (k, wk) in cases:
        with pytest.raises(ConvergenceError, match="forward transform k"):
            forward_isotropic(prof, k, wk)
        spec = forward_isotropic(prof, k, wk, tail_tol=None)
        frac = sft._tail_fraction(np.abs(spec.weights * k ** 2 * spec.values))
        assert frac == 1.0 if k.size <= 4 else frac > 1e-3
        with pytest.raises(ConvergenceError, match="inverse transform k") as two_call:
            inverse_isotropic(spec, prof.chi)
        with pytest.raises(ConvergenceError, match=re.escape(str(two_call.value))):
            roundtrip_isotropic(prof, k, wk)


def test_closed_lattice_construction_and_rejection():
    geom = Geometry.closed(4.0)   # curvature scale 2
    np.testing.assert_allclose(closed_k_lattice(geom, 3),
                               [2.0, 4.0, 6.0, 8.0])
    with pytest.raises(DomainError):
        closed_k_lattice(G_FLAT, 3)
    with pytest.raises(DomainError):
        closed_k_lattice(geom, -1)
    with pytest.raises(SpectralLatticeError):
        Spectrum(geom, np.array([2.0, 5.0]), np.zeros(2))


def test_zonal_kernel_physical_arguments():
    geom = Geometry.open(-4.0)   # curvature scale 2
    chi = np.array([0.2, 0.9, 1.7])
    got = zonal_kernel(geom, 3.0, chi)
    ref = zonal_spherical(geom, 1.5, 2.0 * chi)
    np.testing.assert_allclose(got, ref, rtol=1e-14)


def test_grid_validation():
    with pytest.raises(DomainError):
        RadialProfile(G_FLAT, np.array([0.1, 0.1, 0.2]), np.zeros(3))
    with pytest.raises(DomainError):
        RadialProfile(G_FLAT, np.array([[0.1, 0.2]]), np.zeros((1, 2)))
    with pytest.raises(DomainError):
        RadialProfile(G_FLAT, np.array([0.1, 0.2]), np.zeros(3))
    with pytest.raises(DomainError):
        RadialProfile(G_FLAT, np.array([0.1, 0.2]), np.zeros(2),
                      np.zeros(3))
    with pytest.raises(DomainError):
        Spectrum(G_FLAT, np.array([-0.5, 1.0]), np.zeros(2))
    with pytest.raises(DomainError):
        Spectrum(G_FLAT, np.array([0.5, np.nan]), np.zeros(2))
    with pytest.raises(DomainError):
        RadialProfile(G_CLOSED, np.array([0.5, 4.0]), np.zeros(2))


def test_containers_reject_non_finite_samples():
    # a NaN sample used to reach the transforms, whose tail monitor reads a
    # NaN mass as converged: forward_isotropic returned all-NaN amplitudes
    chi, w = gauss_legendre_grid(0.0, 4.0, 24, 8)
    f = np.ones_like(chi)
    f[5] = np.nan
    with pytest.raises(DomainError):
        RadialProfile(G_FLAT, chi, f, w)
    w[3] = np.inf
    with pytest.raises(DomainError):
        RadialProfile(G_FLAT, chi, np.ones_like(chi), w)
    k = np.array([0.5, 1.0, 2.0])
    with pytest.raises(DomainError):
        Spectrum(G_FLAT, k, np.array([1.0, np.nan, 1.0]))
    with pytest.raises(DomainError):
        Spectrum(G_FLAT, k, np.ones(3), np.array([0.1, -np.inf, 0.1]))


def test_bump_profile_support():
    chi = np.linspace(0.0, 4.0, 101)
    f = bump_profile(chi, 2.0, 1.0, amplitude=3.0)
    assert np.all(f[np.abs(chi - 2.0) >= 1.0] == 0.0)
    assert abs(np.max(f) - 3.0 * math.exp(-1.0)) < 1e-12
    with pytest.raises(DomainError):
        bump_profile(chi, 2.0, 0.0)
    # NaN compares False everywhere, so it once gave an all-zero profile
    for center, halfwidth in ((math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan),
                              (2.0, math.inf), (-math.inf, math.nan)):
        with pytest.raises(DomainError, match="finite"):
            bump_profile(chi, center, halfwidth)


@settings(max_examples=25)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_forward_linearity(a, b):
    chi, w = gauss_legendre_grid(1e-9, 4.0, 8, 6)
    k = np.array([0.3, 1.1, 2.6])
    f = bump_profile(chi, 1.5, 0.7)
    g = bump_profile(chi, 2.5, 0.9)
    lhs = forward_isotropic(RadialProfile(G_OPEN, chi, a * f + b * g, w), k,
                            tail_tol=None).values
    rhs = a * forward_isotropic(RadialProfile(G_OPEN, chi, f, w), k,
                                tail_tol=None).values \
        + b * forward_isotropic(RadialProfile(G_OPEN, chi, g, w), k,
                                tail_tol=None).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


# ---------------------------------------------------------------------------
# Blocked zonal tables against the per-k kernel loop
# ---------------------------------------------------------------------------

FORWARD_A = {"open": 1.0 / (2.0 * math.sqrt(math.pi)),
             "flat": 1.0 / (math.pi * math.sqrt(2.0)),
             "closed": 1.0 / (2.0 * math.sqrt(math.pi))}
INVERSE_B = {"open": math.pi ** -1.5, "flat": 1.0 / (math.pi * math.sqrt(2.0)),
             "closed": math.pi ** -1.5}          # closed at K = 1
N_CHI = 600
ROWS = specfun.ZONAL_BLOCK // N_CHI              # rows per block at N_CHI columns


def blocked_setup(name, n_k):
    """chi from 0 (past pi/2 for closed), k from 0 (closed: omega from 0).

    "open-gl" and "flat-gl" take composite Gauss-Legendre k nodes, the kind
    spectral_nodes makes, shifted so that the first is k = 0; "-few" takes
    them too (closed: the lattice) on 20 radii; "-glchi" too, on 83 x 12
    Gauss-Legendre radii shifted to start at 0; "-rand" too, on sorted
    random radii from 0, which do not repeat."""
    kind, _, grid = name.partition("-")
    geom = {"open": G_OPEN, "flat": G_FLAT, "closed": G_CLOSED}[kind]
    if kind == "closed":
        chi = np.linspace(0.0, math.pi, 20 if grid == "few" else N_CHI)
        k = closed_k_lattice(geom, n_k - 1)
    else:
        chi = np.linspace(0.0, 4.0, 20 if grid == "few" else N_CHI)
        k = np.linspace(0.0, 30.0, n_k)
    if grid == "glchi":
        chi = gauss_legendre_grid(0.0, 4.0, 83, 12)[0]
        chi -= chi[0]
    elif grid == "rand":
        chi = np.sort(np.random.default_rng(3).uniform(0.0, 4.0, N_CHI))
        chi[0] = 0.0
    if grid and kind != "closed":
        k = gauss_legendre_grid(0.0, 30.0, -(-n_k // 12), 12)[0][:n_k]
        k -= k[0]
    f = bump_profile(chi, 1.6, 1.4) + 0.1 * np.cos(3.0 * chi)
    return geom, chi, RadialProfile(geom, chi, f, trapezoid_weights(chi)), k


def trapezoid_weights(x):
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0], w[-1] = 0.5 * (x[1] - x[0]), 0.5 * (x[-1] - x[-2])
    return w


def trapezoid_base(prof):
    return trapezoid_weights(prof.chi) * prof.values * surface_area(prof.geometry, prof.chi)


def loop_forward(prof, k):
    base = trapezoid_base(prof)
    terms = np.array([base * zonal_kernel(prof.geometry, float(kk), prof.chi)
                      for kk in k])
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


BLOCKED = ["open", "flat", "closed", "open-gl", "flat-gl"]


@pytest.mark.parametrize("n_k", [1, ROWS, ROWS + 1, 2 * ROWS + 1])
@pytest.mark.parametrize("name", BLOCKED)
def test_forward_matches_per_k_loop(name, n_k):
    geom, chi, prof, k = blocked_setup(name, n_k)
    got = forward_isotropic(prof, k, tail_tol=None).values
    ref, mass = loop_forward(prof, k)
    A = FORWARD_A[geom.kind.value]
    # a reordered sum moves by a few ulps of the summed absolute mass
    np.testing.assert_array_less(np.abs(got - A * ref), 1e-13 * A * mass + 1e-300)


@pytest.mark.parametrize("n_k", [1, ROWS, ROWS + 1, 2 * ROWS + 1])
@pytest.mark.parametrize("name", BLOCKED)
def test_inverse_matches_per_k_loop(name, n_k):
    geom, chi, prof, k = blocked_setup(name, n_k)
    f00 = np.random.default_rng(n_k).standard_normal(k.size)
    if name == "closed":
        spec = Spectrum(geom, k, f00)
        amp = (np.arange(k.size) + 1.0) ** 2 * f00
    else:
        wk = np.full(k.size, 0.25)
        spec = Spectrum(geom, k, f00, wk)
        amp = wk * k ** 2 * f00
    got = inverse_isotropic(spec, chi, tail_tol=None).values
    terms = np.array([a * zonal_kernel(geom, float(kk), chi) for a, kk in zip(amp, k)])
    B = INVERSE_B[geom.kind.value]
    np.testing.assert_array_less(np.abs(got - B * terms.sum(axis=0)),
                                 1e-13 * B * np.abs(terms).sum(axis=0) + 1e-300)


def test_single_row_blocks_match_per_k_loop(monkeypatch):
    # a block budget below one row still takes one row per block
    monkeypatch.setattr(specfun, "ZONAL_BLOCK", 100)
    for name in ("open", "closed"):
        geom, chi, prof, k = blocked_setup(name, 5)
        ref, mass = loop_forward(prof, k)
        got = forward_isotropic(prof, k, tail_tol=None).values
        np.testing.assert_array_less(np.abs(got - FORWARD_A[name] * ref),
                                     1e-13 * FORWARD_A[name] * mass)


@pytest.mark.parametrize("name", BLOCKED)
def test_periodic_k_grids_build_blocks_by_angle_addition(monkeypatch, name):
    # zonal_spherical sees no row: the arguments are checked without one, and no block
    rows, table = [], sft.zonal_spherical
    monkeypatch.setattr(sft, "zonal_spherical",
                        lambda g, w, r: (rows.append(np.size(w)), table(g, w, r))[1])
    geom, chi, prof, k = blocked_setup(name, 2 * ROWS + 1)
    forward_isotropic(prof, k, tail_tol=None)
    assert rows == []


@pytest.mark.parametrize("name", ["open", "flat"])
def test_aperiodic_k_grid_gives_the_zonal_table_products(name):
    geom, chi, prof, _ = blocked_setup(name, 1)
    k = np.sort(np.random.default_rng(3).uniform(0.0, 30.0, 2 * ROWS + 1))
    blocks = specfun.zonal_blocks(k.size, chi.size)
    base = trapezoid_base(prof)
    ref = np.concatenate([FORWARD_A[name] * (zonal_kernel(geom, k[b], chi) @ base)
                          for b in blocks])
    np.testing.assert_array_equal(forward_isotropic(prof, k, tail_tol=None).values, ref)
    spec = Spectrum(geom, k, ref, np.full(k.size, 0.1))
    vals = np.zeros_like(chi)
    for b in blocks:
        vals += (0.1 * k[b] ** 2 * ref[b]) @ zonal_kernel(geom, k[b], chi)
    np.testing.assert_array_equal(inverse_isotropic(spec, chi, tail_tol=None).values,
                                  sft._inverse_pref(geom) * vals)


def test_split_table_matches_long_double_sums():
    # the open acceptance-4 grid, f00 against the same sums in long double
    geom, chi_max, k_top, center, hw = ROUNDTRIP["open"]
    prof, k, _ = transform_setup(geom, chi_max, k_top, center, hw)
    got = forward_isotropic(prof, k, tail_tol=None).values
    ld = np.longdouble
    chi = prof.chi.astype(ld)
    base = (prof.weights * prof.values * surface_area(geom, prof.chi)).astype(ld)
    base *= chi / np.sinh(chi)
    ref = np.empty(k.size, dtype=ld)
    for i in range(0, k.size, 200):
        x = np.multiply.outer(k[i:i + 200].astype(ld), chi)
        ref[i:i + 200] = (np.sin(x) / x) @ base
    ref /= 2 * np.sqrt(ld(math.pi))
    err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert err < 1e-15, err


def two_call_roundtrip(prof, k, wk, tail_tol):
    spec = Spectrum(prof.geometry, k,
                    forward_isotropic(prof, k, tail_tol=tail_tol).values, wk)
    return spec, inverse_isotropic(spec, prof.chi, tail_tol=tail_tol)


@pytest.mark.parametrize("name", ["open", "flat", "closed"])
def test_roundtrip_equals_two_calls(monkeypatch, name):
    # tail_tol=1.0 runs both monitors (a tail fraction never exceeds 1), so the
    # in-place monitor work on each block is exercised without raising
    for block in (specfun.ZONAL_BLOCK, 100):       # 100: one row per block
        monkeypatch.setattr(specfun, "ZONAL_BLOCK", block)
        geom, chi, prof, k = blocked_setup(name, 2 * ROWS + 1)
        wk = None if name == "closed" else np.full(k.size, 30.0 / (k.size - 1))
        spec, back = roundtrip_isotropic(prof, k, wk, tail_tol=1.0)
        ref_spec, ref_back = two_call_roundtrip(prof, k, wk, 1.0)
        np.testing.assert_array_equal(spec.k, ref_spec.k)
        np.testing.assert_array_equal(spec.values, ref_spec.values)
        np.testing.assert_array_equal(spec.weights, np.full(k.size, geom.curvature_scale)
                                      if wk is None else wk)
        np.testing.assert_array_equal(back.chi, ref_back.chi)
        np.testing.assert_array_equal(back.values, ref_back.values)


@pytest.mark.parametrize("name", ["open", "flat", "closed"])
def test_roundtrip_builds_each_block_once(monkeypatch, name):
    # the angle-addition factors stand in for the table's blocks: a roundtrip
    # builds them once, two calls twice, and neither builds a table; the forward
    # monitor's search sums |Phi| exactly on the lowest-k seed rows, here with
    # no row past them whose bound reaches their max, and checks its heaviest
    # row as it stands, with no kernel rebuilt
    calls, tables = [], []
    factors, table = sft._zonal_factors, sft.zonal_spherical

    def no_kernel(*args):
        raise AssertionError("the monitor rebuilt a kernel row")

    monkeypatch.setattr(sft, "_zonal_factors", lambda *a: (calls.append(a), factors(*a))[1])
    monkeypatch.setattr(sft, "zonal_spherical",
                        lambda g, w, r: (tables.append(np.size(w)), table(g, w, r))[1])
    monkeypatch.setattr(sft, "zonal_kernel", no_kernel)
    geom, chi, prof, k = blocked_setup(name, 2 * ROWS + 1)
    assert len(specfun.zonal_blocks(k.size, chi.size)) == 3     # a table's blocks
    monitor = name != "closed"
    wk = trapezoid_weights(k) if monitor else None
    for call, n_factors in ((lambda: roundtrip_isotropic(prof, k, wk, tail_tol=1.0), 1),
                            (lambda: two_call_roundtrip(prof, k, wk, 1.0), 2)):
        for seen in (calls, tables):
            seen.clear()
        call()
        assert len(calls) == n_factors
        assert tables == [sft._SEED_ROWS] * monitor


@pytest.mark.parametrize("name", BLOCKED + ["open-few", "flat-few", "closed-few", "open-glchi",
                                  "flat-glchi", "open-rand", "flat-rand"])
def test_factored_pass_matches_the_zonal_table(name):
    # chi from 0 (closed: through the antipode pi, where Phi = (-1)^omega) and k
    # from 0 (open, flat: Phi_0 = r/f(r)), the factors' exact rows and columns;
    # base is not 0 at the antipode, as a profile's w f S is; the factors' rows
    # are the pass's products e_q @ Phi with the unit vectors.  "-few": 600
    # nodes on 20 radii, fewer than the 24 rows of one anchor group.  Open and
    # flat radii that repeat (linspace, "-glchi": 996 radii, the last block of 36
    # partial) take the sines at about 2 sqrt(n_chi) radii; "-rand" and the
    # closed radii folded past pi/2 take them directly
    kind, _, grid = name.partition("-")
    geom, chi, prof, k = blocked_setup(name, 600 if grid == "few" else 2 * ROWS + 1)
    omega, r = sft._scaled(geom, k, chi)
    assert sft._zonal_factors(geom, omega, r) is not None
    t = sft._period(specfun._fold(geom.kind, r)[0])
    assert (t is not None) == (kind != "closed" and grid != "rand")
    assert grid != "glchi" or (t, chi.size % t) == (36, 24)
    phi = zonal_kernel(geom, k, chi)
    rows = np.array([sft._zonal_pass(geom, k, chi, amp=e)[1] for e in np.eye(k.size)])
    assert np.max(np.abs(rows - phi)) < 1e-13
    ends = (chi == 0.0) | (chi == math.pi) if kind == "closed" else chi == 0.0
    assert np.count_nonzero(ends) == (2 if kind == "closed" else 1)
    np.testing.assert_array_equal(rows[:, ends], phi[:, ends])
    if kind != "closed":
        np.testing.assert_array_equal(rows[0], phi[0])
    rng = np.random.default_rng(5)
    b, amp = rng.standard_normal(chi.size), rng.standard_normal(k.size)
    fwd, _ = sft._zonal_pass(geom, k, chi, b)
    np.testing.assert_array_less(np.abs(fwd - phi @ b), 1e-13 * (np.abs(phi) @ np.abs(b)))
    np.testing.assert_array_equal(sft._heaviest_row(geom, k, chi, np.abs(b)),
                                  phi[np.argmax(np.abs(phi) @ np.abs(b))])
    inv = sft._zonal_pass(geom, k, chi, amp=amp)[1]
    np.testing.assert_array_less(np.abs(inv - amp @ phi), 1e-13 * (np.abs(amp) @ np.abs(phi)))


def test_radius_period():
    # the one period rule of both axes: Gauss-Legendre panels and linspace repeat,
    # and then every x[qt + h] is x[qt] + x[h] - x[0] within 4 eps max(x)
    for x, t in ((gauss_legendre_grid(0.0, 4.5, 85, 12)[0], 36),
                 (gauss_legendre_grid(0.0, 4.0, 83, 12)[0], 36),
                 (gauss_legendre_grid(0.0, 30.0, 50, 12)[0] + 2.5, 24),
                 (np.linspace(0.0, 4.0, 600), 24), (np.linspace(0.25, 2.0, 8), 3)):
        assert sft._period(x) == t
        h = np.arange(x.size) % t
        assert np.max(np.abs(x - x[np.arange(x.size) - h] - (x[h] - x[0]))) <= \
            4.0 * np.finfo(float).eps * x.max()
    # one node moved by 1e-12 of the span, scattered radii, too few radii, and a
    # spacing that drifts by less than the tolerance per step but more than it
    # over a block: no period
    x = gauss_legendre_grid(0.0, 4.0, 83, 12)[0]
    x[500] += 4e-12
    i = np.arange(900.0)
    for x in (x, np.sort(np.random.default_rng(3).uniform(0.0, 4.0, 600)),
              np.array([0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0]), np.array([]),
              np.linspace(0.0, 1.0, 3), i + 3e-16 * i * i):
        assert sft._period(x) is None
    assert sft._period(i) == 30


@pytest.mark.parametrize("kind", ["open", "flat", "closed"])
def test_spectral_nodes_grids_take_the_factors_at_any_number_of_radii(monkeypatch, kind):
    # no radius count picks the route: the pass builds no zonal_spherical row
    def no_table(*args):
        raise AssertionError("the pass built zonal_spherical's rows")

    monkeypatch.setattr(sft, "zonal_spherical", no_table)
    geom = {"open": G_OPEN, "flat": G_FLAT, "closed": G_CLOSED}[kind]
    k = sft.spectral_nodes(geom, 30.0, 50, 12, 599)[0]
    for n in (0, 1, 2, 8, 20):
        chi = np.linspace(0.0, 3.0, n)
        fwd, inv = sft._zonal_pass(geom, k, chi, np.ones(n), 1.0, np.ones(k.size))
        assert fwd.shape == k.shape and inv.shape == chi.shape
        assert np.all(np.isfinite(fwd)) and np.all(np.isfinite(inv))


def _random_monitor_case(seed):
    """(profile, k): narrow bumps of either sign on a random chi grid, some
    reaching the grid's end; k a spectral_nodes grid mostly shifted off 0 (the
    heaviest node then mostly lies past the seed rows), or, from seed 12,
    sorted uniform nodes, with no period for the factors."""
    rng = np.random.default_rng(seed)
    geom = (G_OPEN, G_FLAT, Geometry.open(-0.3))[seed % 3]
    chi, w = gauss_legendre_grid(0.0, rng.uniform(3.0, 6.0), int(rng.integers(16, 40)), 8)
    f = sum(rng.normal() * bump_profile(chi, rng.uniform(1.5, chi[-1]), rng.uniform(0.05, 0.4))
            for _ in range(2)) + (seed % 4 == 0) * rng.normal()
    k_max = rng.uniform(2.0, 12.0)
    if seed < 12:
        k = sft.spectral_nodes(geom, k_max, int(rng.integers(4, 30)), int(rng.integers(4, 13)),
                               None)[0] + (seed % 6 > 0) * rng.uniform(0.5, 8.0)
    else:
        k = np.unique(rng.uniform(0.0, k_max, int(rng.integers(16, 400))))
    return RadialProfile(geom, chi, f, w), k


@pytest.mark.parametrize("seed", range(24))
def test_bounded_monitor_picks_the_full_tables_node(seed):
    # random profiles on random grids, on the factors (seeds 0-11) and on
    # zonal_spherical's blocks (aperiodic k, seeds 12-23): the bounded search
    # returns the full table's row of largest |Phi| @ |b| as it stands, and the
    # monitor raises that node's ConvergenceError, word for word
    prof, k = _random_monitor_case(seed)
    geom, chi = prof.geometry, prof.chi
    periodic = sft._zonal_factors(geom, *sft._scaled(geom, k, chi)) is not None
    assert periodic == (seed < 12)
    _check_monitor_node(prof, k)


def test_bounded_monitor_on_fewer_radii_than_an_anchor_group():
    # a periodic Gauss-Legendre k grid of 600 nodes on 20 radii, fewer than the
    # 24 rows of one anchor group, takes the angle-addition factors too; the
    # profile is a narrow off-centre bump, and a wide one
    k = gauss_legendre_grid(0.0, 30.0, 50, 12)[0] + 2.5
    for geom in (G_OPEN, G_FLAT):
        for halfwidth in (0.3, 1.8):
            chi, w = gauss_legendre_grid(0.0, 4.0, 5, 4)
            prof = RadialProfile(geom, chi, bump_profile(chi, 3.0, halfwidth), w)
            assert sft._zonal_factors(geom, *sft._scaled(geom, k, chi)) is not None
            _check_monitor_node(prof, k)


def _check_monitor_node(prof, k):
    geom, chi = prof.geometry, prof.chi
    base = prof.weights * prof.values * surface_area(geom, chi)
    # a profile's base is 0 at the origin, so the search also runs with the
    # origin prepended to chi and given mass, which its bound must count
    ab = np.abs(base)
    for r, mass in ((np.concatenate([[0.0], chi]), np.concatenate([[ab.max()], ab])), (chi, ab)):
        phi = zonal_kernel(geom, k, r)
        top = phi[np.argmax(np.abs(phi) @ mass)]
        np.testing.assert_array_equal(sft._heaviest_row(geom, k, r, mass), top)
    try:
        sft._check_tail(base * top, 1e-6, "forward transform chi")
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError, match=re.escape(str(exc))):
            forward_isotropic(prof, k, tail_tol=1e-6)
    else:
        forward_isotropic(prof, k, tail_tol=1e-6)


def test_roundtrip_checks_its_arguments_first():
    geom, chi, prof, k = blocked_setup("flat", 5)
    with pytest.raises(DomainError, match="weights"):
        roundtrip_isotropic(prof, k, np.ones(4))
    with pytest.raises(SpectralLatticeError):
        roundtrip_isotropic(blocked_setup("closed", 5)[2], np.array([1.0, 2.5]))


# the open and flat grids of the transform-background bench workload
BENCH_TRANSFORM = {"open": (G_OPEN, 200.0), "flat": (G_FLAT, 150.0)}


@pytest.mark.parametrize("name", sorted(BENCH_TRANSFORM))
def test_open_flat_spectra_need_their_measure_weights(monkeypatch, name):
    # without weights the trapezoid rule on k once gave these grids back with a
    # 5.6-5.8% error and no exception; spectral_nodes' weights give the roundtrip
    geom, k_max = BENCH_TRANSFORM[name]
    chi, wchi = gauss_legendre_grid(0.0, 4.5, 85, 12)
    prof = RadialProfile(geom, chi, bump_profile(chi, 2.0, 1.8), wchi)
    k, wk = sft.spectral_nodes(geom, k_max, 85, 12, None)
    f00 = forward_isotropic(prof, k).values
    bare = Spectrum(geom, k, f00)
    for call in (lambda: inverse_isotropic(bare, chi), lambda: spectrum_norm2(bare)):
        with pytest.raises(DomainError, match=re.escape("sft.spectral_nodes")):
            call()
    spec, back = roundtrip_isotropic(prof, k, wk)
    np.testing.assert_array_equal(spec.values, f00)
    np.testing.assert_array_equal(back.values,
                                  inverse_isotropic(Spectrum(geom, k, f00, wk), chi).values)
    assert np.max(np.abs(back.values - prof.values)) < 1e-6 * np.max(prof.values)

    def no_block(*args):
        raise AssertionError("a zonal block was built")

    for attr in ("zonal_kernel", "zonal_spherical", "_zonal_factors"):
        monkeypatch.setattr(sft, attr, no_block)
    with pytest.raises(DomainError, match=re.escape("sft.spectral_nodes")):
        roundtrip_isotropic(prof, k)


@pytest.mark.parametrize("name", sorted(BENCH_TRANSFORM))
def test_forward_spectrum_carries_its_weights(monkeypatch, name):
    # forward_isotropic stores the measure's weights, so the two-call roundtrip
    # needs no rebuilt Spectrum, and gives roundtrip_isotropic's bits
    geom, k_max = BENCH_TRANSFORM[name]
    chi, wchi = gauss_legendre_grid(0.0, 4.5, 85, 12)
    prof = RadialProfile(geom, chi, bump_profile(chi, 2.0, 1.8), wchi)
    k, wk = sft.spectral_nodes(geom, k_max, 85, 12, None)
    spec = forward_isotropic(prof, k, wk)
    np.testing.assert_array_equal(spec.weights, wk)
    back = inverse_isotropic(spec, chi)
    ref_spec, ref_back = roundtrip_isotropic(prof, k, wk)
    np.testing.assert_array_equal(spec.values, ref_spec.values)
    np.testing.assert_array_equal(back.values, ref_back.values)
    assert np.max(np.abs(back.values - prof.values)) < 1e-6 * np.max(prof.values)
    assert forward_isotropic(prof, k).weights is None

    def no_block(*args):
        raise AssertionError("a zonal block was built")

    # weights that do not fit the k grid raise before any zonal factor is built
    for attr in ("zonal_kernel", "zonal_spherical", "_zonal_factors"):
        monkeypatch.setattr(sft, attr, no_block)
    for bad in (wk[:-1], np.full(k.size, np.nan)):
        with pytest.raises(DomainError, match="weights must"):
            forward_isotropic(prof, k, bad)


def test_closed_weights_are_the_lattice_spacing():
    # closed weights were once ignored: spectrum_norm2 read the same with
    # weights 0.1 as with none
    geom = Geometry.closed(4.0)   # curvature scale 2
    k, wk = sft.spectral_nodes(geom, None, 1, 2, 5)
    f00 = np.linspace(1.0, 2.0, k.size)
    ref = spectrum_norm2(Spectrum(geom, k, f00))
    assert spectrum_norm2(Spectrum(geom, k, f00, wk)) == ref
    assert spectrum_norm2(Spectrum(geom, k, f00, wk * (1.0 + 1e-13))) == ref
    for bad in (np.full(k.size, 0.1), wk * (1.0 + 1e-11), np.ones(k.size)):
        with pytest.raises(DomainError, match=re.escape("sqrt(K)")):
            Spectrum(geom, k, f00, bad)
    prof = blocked_setup("closed", 5)[2]
    with pytest.raises(DomainError, match=re.escape("sqrt(K)")):
        roundtrip_isotropic(prof, prof.geometry.curvature_scale * np.arange(1.0, 6.0),
                            np.full(5, 0.1))


def test_every_grid_carries_its_weights(monkeypatch):
    # a closed spectrum once held None and its integrals filled sqrt(K) in, so
    # a closed forward result is now inverted as it stands; omega_max 80 puts
    # 3.4e-4 of the mass in the lattice's tail (omega_max 6: 0.158, and 13% off)
    for K in (1.0, 2.0, 4.0):
        geom, s = Geometry.closed(K), math.sqrt(K)
        k = closed_k_lattice(geom, 80)
        for given in (None, np.full(k.size, s * (1.0 + 1e-13))):
            assert np.all(Spectrum(geom, k, np.ones(k.size), given).weights == s)
        chi, wchi = gauss_legendre_grid(0.0, math.pi / s, 16, 12)
        prof = RadialProfile(geom, chi, bump_profile(chi, 0.5 * math.pi / s, 0.4 * math.pi / s),
                             wchi)
        fwd = forward_isotropic(prof, k)
        assert np.all(fwd.weights == s)
        np.testing.assert_array_equal(inverse_isotropic(fwd, chi).values,
                                      roundtrip_isotropic(prof, k)[1].values)
    # chi once fell back to the trapezoid rule: on the open bench transform grid
    # a weightless profile came back with a 2.1e-2 roundtrip error, not 3.5e-8;
    # such a profile is legal to hold, and inverse_isotropic returns one
    geom, k_max = BENCH_TRANSFORM["open"]
    chi, wchi = gauss_legendre_grid(0.0, 4.5, 85, 12)
    bare = RadialProfile(geom, chi, bump_profile(chi, 2.0, 1.8))
    k, wk = sft.spectral_nodes(geom, k_max, 85, 12, None)
    spec = roundtrip_isotropic(RadialProfile(geom, chi, bare.values, wchi), k, wk)[0]
    assert inverse_isotropic(spec, chi).weights is None

    def no_block(*args):
        raise AssertionError("a zonal factor or block was built")

    for attr in ("_zonal_factors", "zonal_spherical", "zonal_kernel"):
        monkeypatch.setattr(sft, attr, no_block)
    for call in (lambda: forward_isotropic(bare, k), lambda: roundtrip_isotropic(bare, k, wk),
                 lambda: profile_norm2(bare)):
        with pytest.raises(DomainError, match=re.escape("quadrature.gauss_legendre_grid")):
            call()


@pytest.mark.parametrize("name, panels, converged", [
    ("flat", 6, False), ("flat", 16, False), ("flat", 32, True), ("flat", 64, True),
    ("open", 6, False), ("open", 16, False), ("open", 32, False), ("open", 64, True),
    ("open", 128, True)])
def test_weighted_forward_checks_its_k_tail(name, panels, converged):
    # the bench profile on a 64x12-node k grid: amplitudes aliased by a coarse
    # chi grid do not decay (k tails 0.40 and 0.67 flat, 0.18, 0.78 and 1.08e-3
    # open) and once came back unchecked; without the measure's weights there
    # is no k sum to check
    geom, k_max = BENCH_TRANSFORM[name]
    chi, w = gauss_legendre_grid(0.0, 4.5, panels, 12)
    prof = RadialProfile(geom, chi, bump_profile(chi, 2.0, 1.8), w)
    k, wk = gauss_legendre_grid(0.0, k_max, 64, 12)
    bare = forward_isotropic(prof, k)
    if converged:
        np.testing.assert_array_equal(forward_isotropic(prof, k, wk).values, bare.values)
    else:
        with pytest.raises(ConvergenceError, match="forward transform k tail"):
            forward_isotropic(prof, k, wk)


@pytest.mark.parametrize("panels, order", [(0, 8), (3, 0)])
def test_gauss_legendre_grid_needs_a_node(panels, order):
    with pytest.raises(DomainError, match="panels and order must be >= 1"):
        gauss_legendre_grid(0.0, 1.0, panels, order)


@pytest.mark.parametrize("name", ["open", "flat", "closed"])
def test_zonal_table_equals_stacked_scalar_calls(name):
    geom = {"open": G_OPEN, "flat": G_FLAT, "closed": G_CLOSED}[name]
    r = np.array([0.0, 1e-6, 0.3, 1.2, math.pi / 2, 2.0, 3.0, math.pi])
    omega = np.arange(0.0, 40.0) if name == "closed" else np.linspace(0.0, 60.0, 41)
    table = zonal_spherical(geom, omega, r)
    assert table.shape == (omega.size, r.size)
    np.testing.assert_array_equal(table, np.stack([zonal_spherical(geom, om, r)
                                                   for om in omega]))
    np.testing.assert_array_equal(table[:, 0], 1.0)
    # scalar r gives a column, 2-d r keeps its shape per row
    np.testing.assert_array_equal(zonal_spherical(geom, omega, 1.2), table[:, 3])
    assert zonal_spherical(geom, omega, r.reshape(2, 4)).shape == (omega.size, 2, 4)
    np.testing.assert_array_equal(zonal_kernel(geom, geom.k_of_omega(omega[3]), r),
                                  zonal_kernel(geom, geom.k_of_omega(omega), r)[3])


def test_zonal_table_rejects_bad_omega():
    with pytest.raises(DomainError):
        zonal_spherical(G_OPEN, np.array([0.5j, 1.0]), 0.3)    # supplementary: scalar only
    with pytest.raises(DomainError):
        zonal_spherical(G_CLOSED, np.array([1.0, 2.5]), 0.3)
    with pytest.raises(DomainError):
        zonal_spherical(G_FLAT, np.array([1.0, -2.0]), 0.3)
    with pytest.raises(DomainError):
        zonal_spherical(G_FLAT, np.array([1.0, np.inf]), 0.3)
    with pytest.raises(DomainError):
        zonal_spherical(G_FLAT, np.ones((2, 2)), 0.3)
    for r in (math.nan, math.inf):              # before any sine: no RuntimeWarning
        for geom, omega in ((G_OPEN, np.array([0.0, 1.5])), (G_FLAT, np.array([1.0])),
                            (G_CLOSED, np.array([0.0, 3.0]))):
            with pytest.raises(DomainError, match="finite"):
                zonal_spherical(geom, omega, np.array([0.3, r]))
            with pytest.raises(DomainError, match="finite"):
                zonal_kernel(geom, geom.k_of_omega(omega), r)
        with pytest.raises(DomainError, match="finite"):
            zonal_kernel(G_OPEN, 0.5j, np.array([r, 0.3]))     # supplementary series


@pytest.mark.parametrize("block", [specfun.ZONAL_BLOCK, 5 * 192])
def test_forward_tail_monitor_checks_the_loop_node(monkeypatch, block):
    # the monitor checks the node with the largest sum |contrib| over all k,
    # as the per-k loop did; 5-row blocks put that node past the first block
    monkeypatch.setattr(specfun, "ZONAL_BLOCK", block)
    seen = []
    check = sft._check_tail
    monkeypatch.setattr(sft, "_check_tail",
                        lambda c, tol, what: (seen.append(c.copy()), check(c, tol, what)))
    chi, w = gauss_legendre_grid(1e-9, 4.0, 24, 8)

    def loop_node(prof, k):
        base = w * prof.values * surface_area(G_FLAT, chi)
        contribs = [base * zonal_kernel(G_FLAT, float(kk), chi) for kk in k]
        return contribs, int(np.argmax([np.sum(np.abs(c)) for c in contribs]))

    # the unconverged inputs of test_forward_tail_monitor still raise
    prof = RadialProfile(G_FLAT, chi, np.ones_like(chi), w)
    k = np.array([0.1, 1.0])
    with pytest.raises(ConvergenceError):
        forward_isotropic(prof, k)
    contribs, best = loop_node(prof, k)
    np.testing.assert_array_equal(seen[-1], contribs[best])

    # a narrow bump at chi = 2 whose first side lobe (k chi = 4.49) is the
    # heaviest node of this k range, in a middle block
    prof = RadialProfile(G_FLAT, chi, bump_profile(chi, 2.0, 0.3), w)
    k = np.linspace(1.6, 2.9, 23)
    forward_isotropic(prof, k, tail_tol=1.0)
    contribs, best = loop_node(prof, k)
    assert 5 <= best < 20
    np.testing.assert_array_equal(seen[-1], contribs[best])


@pytest.mark.parametrize("K", [-1e-6, -1e-8])
def test_open_forward_amplitudes_tend_to_flat(K):
    # The flat limit of the forward transform: on flat's k nodes the open
    # amplitudes tend to sqrt(pi/2) (the ratio of the models' sft._norm_const)
    # times flat's, within 2|K| of flat's largest (measured: 1.34|K| from
    # K = -1e-4 to -1e-10), for the bench's open profile.  A defect in one
    # model's branch, or its constant off by 1e-6, leaves a gap that does not
    # shrink with K.
    chi, wchi = gauss_legendre_grid(0.0, 4.5, 85, 12)
    f = bump_profile(chi, 2.0, 1.8)
    k, wk = sft.spectral_nodes(G_FLAT, 60.0, 85, 12, None)
    flat = forward_isotropic(RadialProfile(G_FLAT, chi, f, wchi), k, wk).values
    curved = forward_isotropic(RadialProfile(Geometry.open(K), chi, f, wchi), k, wk).values
    gap = np.max(np.abs(curved - math.sqrt(math.pi / 2.0) * flat))
    scale = np.max(np.abs(flat))
    assert gap <= 2.0 * abs(K) * scale, gap / (abs(K) * scale)
