import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
