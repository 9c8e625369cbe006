import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given
from hypothesis import strategies as st

from curvedfield import quadrature
from curvedfield.cosmology import (CosmologyParams, comoving_distance,
                                   critical_density, geometry_from_params,
                                   hubble, lookback_time, make_params,
                                   scale_factor)
from curvedfield.errors import ConvergenceError, DomainError
from curvedfield.geometry import Kind

from oracles import EDS_LOOKBACK

EDS = make_params(70.0, 1.0, 0.0)


def eds_chi(params, z):
    return 2.0 * params.c / params.H0 * (1.0 - 1.0 / np.sqrt(1.0 + z))


def test_eds_comoving_distance_closed_form():
    z = np.array([0.0, 0.1, 0.5, 1.0, 5.0, 20.0, 100.0])
    np.testing.assert_allclose(comoving_distance(EDS, z), eds_chi(EDS, z),
                               rtol=1e-10, atol=1e-12)


def test_eds_lookback_frozen_values():
    for z, t_h0, t_gyr in EDS_LOOKBACK:
        assert math.isclose(float(lookback_time(EDS, z)), t_h0, rel_tol=1e-10)
        assert math.isclose(float(lookback_time(EDS, z, unit="Gyr")), t_gyr,
                            rel_tol=1e-10)
    with pytest.raises(DomainError):
        lookback_time(EDS, 1.0, unit="fortnights")


def test_sum_rule_solver_and_exact_requirement():
    # stated omega_k off by ~9.5e-4 from the solved value must be rejected
    with pytest.raises(DomainError):
        make_params(67.80, 0.315, 0.685, 4.9e-5, Omega_K=-0.0010)
    p = make_params(67.80, 0.315, 0.685, 4.9e-5)
    assert math.isclose(p.Omega_K, -4.9e-5, rel_tol=1e-9)
    assert abs(p.closure_residual) < 1e-15
    # a stated value matching the solved one within 1e-6 is accepted
    q = make_params(70.0, 0.3, 0.7, 0.0, Omega_K=1e-8)
    assert q.Omega_K == 0.0


def test_params_validation():
    with pytest.raises(DomainError):
        CosmologyParams(70.0, 0.0, 0.3, 0.0, 0.6)   # sum rule broken
    with pytest.raises(DomainError):
        CosmologyParams(-70.0, 0.0, 0.3, 0.0, 0.7)
    with pytest.raises(DomainError):
        CosmologyParams(70.0, 0.0, -0.3, 0.0, 1.3)


def test_non_finite_input_rejected():
    nan = math.nan
    for omegas in ((nan, 0.3, 0.0, 0.7), (0.0, 0.3, nan, 0.7), (0.0, 0.3, 0.0, nan),
                   (0.0, 0.3, math.inf, -math.inf)):
        with pytest.raises(DomainError):
            CosmologyParams(70.0, *omegas)
    with pytest.raises(DomainError):
        make_params(70.0, 0.3, 0.7, 0.0, Omega_K=nan)
    p = make_params(70.0, 0.3, 0.7)
    for fn in (scale_factor, lambda z: hubble(p, z), lambda z: comoving_distance(p, z),
               lambda z: lookback_time(p, z)):
        for z in (nan, [0.5, nan]):
            with pytest.raises(DomainError):
                fn(z)
    # z = inf is a valid redshift: the look-back time to it is the flat LCDM age
    age = 2.0 / (3.0 * math.sqrt(0.7)) * math.asinh(math.sqrt(0.7 / 0.3))
    assert math.isclose(float(lookback_time(p, math.inf)), age, rel_tol=1e-8)
    assert math.isfinite(float(comoving_distance(p, math.inf)))


def test_geometry_from_params_signs_and_flat_snap():
    p = make_params(67.80, 0.315, 0.685, 4.9e-5)    # omega_k < 0: closed
    g = geometry_from_params(p)
    assert g.kind is Kind.CLOSED
    assert math.isclose(g.K, -p.Omega_K * (p.H0 / p.c) ** 2, rel_tol=1e-14)
    assert geometry_from_params(make_params(70.0, 0.3, 0.7)).kind is Kind.FLAT
    popen = make_params(70.0, 0.3, 0.65)
    assert geometry_from_params(popen).kind is Kind.OPEN


def test_hubble_negative_radicand_reports_z():
    p = CosmologyParams(70.0, 0.0, 0.1, -1.6, 2.5)
    with pytest.raises(DomainError, match="z="):
        hubble(p, 3.0)


def test_hubble_values_and_scale_factor():
    p = make_params(70.0, 0.3, 0.7)
    assert math.isclose(float(hubble(p, 0.0)), 70.0, rel_tol=1e-15)
    assert math.isclose(float(hubble(p, 1.0)),
                        70.0 * math.sqrt(0.3 * 8 + 0.7), rel_tol=1e-14)
    assert scale_factor(1.0) == 0.5
    with pytest.raises(DomainError):
        scale_factor(-1.0)


def test_critical_density_present_day():
    # 3 H0^2/(8 pi G) with H0 = 70 km/s/Mpc is about 9.2e-27 kg/m^3
    rho = float(critical_density(make_params(70.0, 0.3, 0.7)))
    assert math.isclose(rho, 9.20387e-27, rel_tol=1e-4)


def test_domain_errors():
    with pytest.raises(DomainError):
        comoving_distance(EDS, -0.5)
    with pytest.raises(DomainError):
        hubble(EDS, -1.0)


@given(st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=0.0, max_value=30.0))
def test_comoving_distance_monotone(z1, z2):
    lo, hi = sorted((z1, z2))
    assert comoving_distance(EDS, lo) <= comoving_distance(EDS, hi) + 1e-12


def test_vector_and_scalar_agree():
    z = np.array([0.2, 1.4])
    vec = comoving_distance(EDS, z)
    assert vec.shape == (2,)
    assert math.isclose(vec[1], float(comoving_distance(EDS, 1.4)), rel_tol=1e-14)


def test_hubble_at_infinite_redshift():
    with np.errstate(all="raise"):
        assert hubble(make_params(70.0, 0.3, 0.7), math.inf) == math.inf
        assert hubble(make_params(70.0, 0.4, 0.8, 8e-5), math.inf) == math.inf   # closed
        assert hubble(make_params(70.0, 0.0, 1.0), math.inf) == 70.0            # de Sitter
        np.testing.assert_array_equal(hubble(make_params(70.0, 0.0, 0.7), [0.0, math.inf]),
                                      [70.0, math.inf])
    # curvature alone outgrows OmegaL with the wrong sign: negative radicand
    with pytest.raises(DomainError, match="z=inf"):
        hubble(CosmologyParams(70.0, 0.0, 0.0, -0.5, 1.5), math.inf)


def _quad_line_of_sight(p, z, power):
    """scipy.integrate.quad over [0, z] in u, split at decades; written in
    x = 1/(1+u) so the z = inf tail cannot overflow."""
    def f(u):
        x = 1.0 / (1.0 + u)
        return x ** (2 + power) / math.sqrt(p.Omega_R + p.Omega_M * x + p.Omega_K * x * x
                                            + p.Omega_L * x ** 4)
    edges = [0.0] + [e for e in (1.0, 10.0, 100.0, 1e3, 1e4) if e < z] + [z]
    return sum(scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


def test_line_of_sight_matches_scipy_quad():
    z = np.concatenate([np.linspace(0.0, 4.0, 9), [10.0, 100.0, 1e3, 1e4, math.inf]])
    for p in (make_params(67.8, 0.315, 0.685, 4.9e-5),    # Planck-like with radiation
              make_params(70.0, 0.3, 0.5),                 # open
              make_params(70.0, 0.4, 0.8, 8e-5)):          # closed
        chi, t_l = comoving_distance(p, z), lookback_time(p, z)
        np.testing.assert_allclose(chi, [p.c / p.H0 * _quad_line_of_sight(p, zz, 0) for zz in z],
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(t_l, [_quad_line_of_sight(p, zz, 1) for zz in z],
                                   rtol=1e-10, atol=0)


@pytest.mark.parametrize("model, z", [
    ((70.0, 0.0, 1.0, 0.0), 1e4),               # de Sitter
    ((70.0, 0.0, 0.0, 0.0), 1e5),               # Milne
    ((70.0, 0.3, 0.7 - 1e-5, 1e-5), 1e6),       # OmegaR = 1e-5: steep near s = 0
    ((70.0, 0.3, 0.7 - 1e-5, 1e-5), math.inf),
])
def test_line_of_sight_steep_near_s0_matches_scipy_quad(model, z):
    # finite integrals whose integrand is steep near s = 0; equal panels in s
    # raised ConvergenceError on each of them
    p = make_params(*model)
    assert math.isclose(float(comoving_distance(p, z)),
                        p.c / p.H0 * _quad_line_of_sight(p, z, 0), rel_tol=1e-8)
    assert math.isclose(float(lookback_time(p, z)), _quad_line_of_sight(p, z, 1),
                        rel_tol=1e-8)


def test_legendre_rule_is_cached_read_only():
    xg, wg = quadrature._legendre_rule(24)
    assert quadrature._legendre_rule(24)[0] is xg
    for a in (xg, wg):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # grids are fresh, writable arrays, identical on every call
    x1, w1 = quadrature.gauss_legendre_grid(0.0, 2.0, 3, 24)
    x2, w2 = quadrature.gauss_legendre_grid(0.0, 2.0, 3, 24)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(w1, w2)
    x1[0] = w1[0] = -1.0
    assert x2[0] != -1.0 and w2[0] != -1.0
    np.testing.assert_array_equal(quadrature._legendre_rule(24)[0],
                                  np.polynomial.legendre.leggauss(24)[0])


def test_line_of_sight_never_returns_garbage():
    desitter = make_params(70.0, 0.0, 1.0)
    for fn in (comoving_distance, lookback_time):
        with pytest.raises(ConvergenceError, match="z=inf"):   # the integral diverges
            fn(desitter, [1.0, math.inf])
    p = make_params(70.0, 0.3, 0.7, 8e-5)
    for rtol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="rtol"):
            comoving_distance(p, 1.0, rtol=rtol)
    # roundoff alone exceeds 1e-300 relative somewhere on the grid
    with pytest.raises(ConvergenceError, match="order-doubling"):
        lookback_time(p, np.linspace(0.0, 4.0, 33), rtol=1e-300)
