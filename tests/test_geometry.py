import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvedfield.errors import DomainError, SpectralLatticeError
from curvedfield.geometry import FOUR_PI, Geometry, Kind, f_K, surface_area


def test_constructors_enforce_curvature_sign():
    assert Geometry.open(-2.0).K == -2.0
    assert Geometry.flat().K == 0.0
    assert Geometry.closed(0.5).K == 0.5
    with pytest.raises(DomainError):
        Geometry.open(1.0)
    with pytest.raises(DomainError):
        Geometry.closed(-1.0)
    with pytest.raises(DomainError):
        Geometry(Kind.FLAT, 0.1)
    with pytest.raises(DomainError):
        Geometry.open(0.0)


def test_f_K_matches_elementary_forms():
    chi = np.linspace(0.0, 2.0, 7)
    assert np.allclose(f_K(Geometry.flat(), chi), chi, rtol=0, atol=0)
    K = 0.7
    np.testing.assert_allclose(f_K(Geometry.open(-K), chi),
                               np.sinh(math.sqrt(K) * chi) / math.sqrt(K), rtol=1e-15)
    np.testing.assert_allclose(f_K(Geometry.closed(K), chi),
                               np.sin(math.sqrt(K) * chi) / math.sqrt(K), rtol=1e-15)


def test_surface_area_flat_sphere():
    chi = np.array([0.0, 1.0, 3.5])
    np.testing.assert_allclose(surface_area(Geometry.flat(), chi),
                               FOUR_PI * chi ** 2, rtol=1e-15)


def test_closed_chi_domain():
    g = Geometry.closed(4.0)          # chi_max = pi/2
    assert math.isclose(g.chi_max, math.pi / 2.0)
    g.check_chi(np.array([0.0, g.chi_max]))
    with pytest.raises(DomainError):
        g.check_chi(g.chi_max * 1.01)
    with pytest.raises(DomainError):
        g.check_chi(-0.1)


def test_closed_lattice_rejects_off_lattice_k():
    g = Geometry.closed(1.0)
    assert g.omega_of_k(3.0) == 2
    with pytest.raises(SpectralLatticeError):
        g.omega_of_k(2.5)
    with pytest.raises(SpectralLatticeError):
        g.omega_of_k(0.5)              # omega would be -0.5


@given(st.integers(min_value=0, max_value=200),
       st.floats(min_value=0.05, max_value=30.0))
def test_closed_lattice_roundtrip(omega, K):
    g = Geometry.closed(K)
    assert g.omega_of_k(g.k_of_omega(omega)) == omega


@given(st.floats(min_value=1e-6, max_value=50.0),
       st.floats(min_value=0.05, max_value=20.0))
def test_open_omega_k_roundtrip(k, K):
    g = Geometry.open(-K)
    assert math.isclose(g.k_of_omega(g.omega_of_k(k)), k, rel_tol=1e-12)


@given(st.floats(min_value=0.0, max_value=5.0))
def test_f_K_small_chi_limit(chi):
    # both curved models deviate from chi by the K chi^3/6 expansion term
    for g in (Geometry.open(-1e-8), Geometry.closed(1e-8)):
        bound = 1e-8 * chi ** 3 / 6.0 + 1e-12
        assert abs(float(f_K(g, chi)) - chi) <= 1.01 * bound


@pytest.mark.parametrize("call, message", [
    (lambda: Geometry.open(-math.inf), "curvature K must be finite"),
    (lambda: Geometry.closed(math.nan), "curvature K must be finite"),
    (lambda: Geometry.closed(1.0).check_chi([0.5, math.nan]), "chi must be finite"),
])
def test_geometry_input_checks(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
