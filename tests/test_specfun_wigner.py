import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvedfield.errors import DomainError
from curvedfield.specfun import (HARMONIC_L_MAX, eth_ladder, gegenbauer,
                                 spherical_bessel, spin_harmonic, spin_harmonic_table,
                                 wigner_D, wigner_d)
from oracles import WIGNER_D_128

ANGLES = np.array([0.0, 0.17, 0.8, math.pi / 2, 2.4, math.pi - 0.05, math.pi])


def d_matrix(l, theta):
    return np.array([[wigner_d(l, m, n, theta) for n in range(-l, l + 1)]
                     for m in range(-l, l + 1)])


def test_d1_elementary_forms():
    for t in ANGLES:
        c, s = math.cos(t), math.sin(t)
        assert math.isclose(wigner_d(1, 0, 0, t), c, abs_tol=1e-14)
        assert math.isclose(wigner_d(1, 1, 1, t), (1 + c) / 2, abs_tol=1e-14)
        assert math.isclose(wigner_d(1, -1, -1, t), (1 + c) / 2, abs_tol=1e-14)
        assert math.isclose(wigner_d(1, 1, -1, t), (1 - c) / 2, abs_tol=1e-14)
        # sign convention fixed by the m-n = +1 entry
        assert math.isclose(wigner_d(1, 1, 0, t), -s / math.sqrt(2), abs_tol=1e-14)
        assert math.isclose(wigner_d(1, 0, 1, t), s / math.sqrt(2), abs_tol=1e-14)


def test_d_l00_is_legendre():
    for l in range(0, 12):
        for t in ANGLES:
            P = np.polynomial.legendre.Legendre.basis(l)(math.cos(t))
            assert math.isclose(wigner_d(l, 0, 0, t), P, abs_tol=1e-12)


def test_d_matrix_orthogonality():
    rng = np.random.default_rng(5)
    for l in range(0, 9):
        t = rng.uniform(0.05, math.pi - 0.05)
        d = d_matrix(l, t)
        np.testing.assert_allclose(d @ d.T, np.eye(2 * l + 1), atol=1e-12)


def test_d_composition_and_identity():
    t1, t2 = 0.5, 0.9
    for l in (1, 2, 5):
        np.testing.assert_allclose(d_matrix(l, 0.0), np.eye(2 * l + 1),
                                   atol=1e-14)
        np.testing.assert_allclose(d_matrix(l, t1) @ d_matrix(l, t2),
                                   d_matrix(l, t1 + t2), atol=1e-12)


def test_spin_harmonic_matches_wigner_d_route():
    # sY_lm(t, p) = (-1)^s sqrt((2l+1)/4pi) d^l_{m,-s}(t) e^{i m p}
    for (s, l) in ((0, 4), (1, 3), (2, 5), (3, 3)):
        for m in range(-l, l + 1):
            for t in (0.3, 1.4, 2.8):
                lhs = spin_harmonic(s, l, m, t, 0.0)
                rhs = (-1.0) ** s * math.sqrt((2 * l + 1) / (4 * math.pi)) \
                    * wigner_d(l, m, -s, t)
                assert abs(lhs - rhs) < 1e-12


def test_wigner_D_unitary_and_phases():
    rng = np.random.default_rng(6)
    for l in (1, 3, 8):
        phi, theta, psi = rng.uniform(0, 2 * math.pi, 3)
        D = np.array([[wigner_D(l, m, n, phi, theta, psi)
                       for n in range(-l, l + 1)] for m in range(-l, l + 1)])
        np.testing.assert_allclose(D @ D.conj().T, np.eye(2 * l + 1), atol=1e-12)
        assert np.iscomplexobj(D)


def test_index_validation():
    with pytest.raises(DomainError):
        wigner_d(2, 3, 0, 0.3)
    with pytest.raises(DomainError):
        spin_harmonic(3, 2, 0, 0.3, 0.0)
    with pytest.raises(DomainError):
        spin_harmonic(0, -1, 0, 0.3, 0.0)
    nan = math.nan                              # non-finite angles and arguments
    for call in (lambda: wigner_d(2, 1, 0, nan),
                 lambda: wigner_d(2, 1, 0, [0.3, math.inf]),
                 lambda: spin_harmonic(0, 2, 1, nan, 0.0),
                 lambda: spin_harmonic(0, 2, 1, 1.0, nan),
                 lambda: spin_harmonic_table(0, 2, [nan]),
                 lambda: gegenbauer(1, 3, nan),
                 lambda: gegenbauer(1, 3, [0.5, nan])):
        with pytest.raises(DomainError):
            call()


def test_harmonic_ceiling_l128_passes_l129_raises():
    theta = np.linspace(0.01, math.pi - 0.01, 61)
    for m in (-128, -77, -7, 0, 15, 128):
        np.testing.assert_allclose(spin_harmonic(0, 128, m, theta, 0.4),
                                   _scipy_ylm(128, m, theta, 0.4), rtol=0, atol=1e-12)
        # d^l_{m0}(theta) = sqrt(4 pi/(2l+1)) Y_lm(theta, 0)
        np.testing.assert_allclose(wigner_d(128, m, 0, theta),
                                   math.sqrt(4 * math.pi / 257)
                                   * _scipy_ylm(128, m, theta, 0.0).real, rtol=0, atol=1e-12)
    for call in (lambda: spin_harmonic(0, 129, 0, 0.3, 0.0),
                 lambda: spin_harmonic(2, 129, 1, 0.3, 0.0),
                 lambda: wigner_d(129, 0, 0, 0.3),
                 lambda: wigner_D(129, 1, -1, 0.1, 0.3, 0.2),
                 lambda: spin_harmonic_table(0, 129, theta)):
        with pytest.raises(DomainError, match="l=129 exceeds the harmonic ceiling"):
            call()
    assert HARMONIC_L_MAX == 128


def test_spin_harmonic_table_matches_scipy_through_l32():
    theta = np.linspace(0.01, math.pi - 0.01, 61)
    T = spin_harmonic_table(0, 32, theta)
    assert T.shape == (33, 65, 61)
    for l in range(33):
        ref = np.array([_scipy_ylm(l, m, theta, 0.0).real for m in range(-l, l + 1)])
        np.testing.assert_allclose(T[l, 32 - l:33 + l], ref, rtol=0, atol=1e-12)
        assert np.all(T[l, :32 - l] == 0.0) and np.all(T[l, 33 + l:] == 0.0)


def test_spin_harmonic_table_orthonormal_through_l32():
    # 2 pi sum_j w_j sY_lm sY_l'm = delta_ll' for l, l' >= max(|m|, |s|): each
    # product is a polynomial of degree <= 64 in cos(theta), exact on 48 nodes
    x, w = np.polynomial.legendre.leggauss(48)
    ls = np.arange(33)
    for s in range(-3, 4):
        T = spin_harmonic_table(s, 32, np.arccos(x))
        gram = 2 * math.pi * np.einsum("lmj,kmj,j->mlk", T, T, w)
        for m in range(-32, 33):
            expect = np.diag((ls >= max(abs(m), abs(s))).astype(float))
            np.testing.assert_allclose(gram[32 + m], expect, rtol=0, atol=1e-12)


def test_spin_harmonic_and_wigner_d_are_table_slices():
    # d^l_{mn}(theta) = (-1)^n sqrt(4 pi/(2l+1)) {-n}Y_lm(theta, 0)
    theta = np.array([[0.0, 0.4], [2.0, math.pi]])
    for s in (-3, 0, 2):
        T = spin_harmonic_table(s, 12, theta)
        assert T.shape == (13, 25, 2, 2)
        assert np.all(T[:abs(s)] == 0.0)
        for l in range(abs(s), 13):
            for m in range(-l, l + 1):
                y = spin_harmonic(s, l, m, theta, 0.7)
                np.testing.assert_allclose(y, T[l, 12 + m] * np.exp(0.7j * m),
                                           rtol=0, atol=1e-13)
                d = (-1) ** s * math.sqrt(4 * math.pi / (2 * l + 1)) * T[l, 12 + m]
                np.testing.assert_allclose(wigner_d(l, m, -s, theta), d, rtol=0, atol=1e-13)


def test_harmonic_columns_do_not_depend_on_their_call_group():
    # numpy rounds x ** a on another path when the exponent a is broadcast (one
    # column, one theta) than when it is full size: 2.7e-15 here if the seeds differ
    from curvedfield.specfun import _spin_rows
    from curvedfield.spinfield import beta_rule
    b = beta_rule(128)[0]
    assert np.array_equal(_spin_rows(1, 128, [-1], b)[:, 0],
                          spin_harmonic_table(1, 128, b)[:, 128 - 1])
    assert np.array_equal(_spin_rows(1, 128, [-1, 5], b[:1])[:, :, 0],
                          spin_harmonic_table(1, 128, b)[:, [128 - 1, 128 + 5], 0])


def test_d_rows_at_l128_with_n_nonzero_near_the_poles():
    # the rows spin callers read (n = -s != 0) at the ceiling, against 250-digit
    # Wigner sums: worst 1.66e-13 (n = -1, m = 1) and 1.68e-13 (n = -2, m = 2),
    # both at theta = 3.13
    from curvedfield.specfun import _d_rows
    for (n, theta), ref in WIGNER_D_128.items():
        got = _d_rows(n, 128, np.arange(-10, 11), np.array([theta]))[128, :, 0]
        np.testing.assert_allclose(got, ref, rtol=0, atol=3e-13, err_msg=f"n={n} theta={theta}")


def _scipy_ylm(l, m, theta, phi):
    if hasattr(sps, "sph_harm_y"):
        return sps.sph_harm_y(l, m, theta, phi)
    return sps.sph_harm(m, l, phi, theta)


def test_spin0_matches_scipy_spherical_harmonics():
    rng = np.random.default_rng(7)
    for _ in range(30):
        l = int(rng.integers(0, 11))
        m = int(rng.integers(-l, l + 1))
        t = rng.uniform(0.01, math.pi - 0.01)
        p = rng.uniform(0, 2 * math.pi)
        ours = spin_harmonic(0, l, m, t, p)
        ref = complex(_scipy_ylm(l, m, t, p))
        assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref))


def test_spin2_quadrupole_closed_forms():
    # 2Y_22 = (1/8) sqrt(5/pi) (1 - cos t)^2 e^{2 i p}; flipping the spin
    # sign swaps (1 - cos) for (1 + cos)
    for t in ANGLES:
        for p in (0.0, 1.1, 4.0):
            base = math.sqrt(5.0 / math.pi) / 8.0 * np.exp(2j * p)
            assert abs(spin_harmonic(2, 2, 2, t, p)
                       - base * (1 - math.cos(t)) ** 2) < 1e-13
            assert abs(spin_harmonic(-2, 2, 2, t, p)
                       - base * (1 + math.cos(t)) ** 2) < 1e-13


@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=10),
       st.integers(min_value=-10, max_value=10),
       st.floats(min_value=0.01, max_value=math.pi - 0.01),
       st.floats(min_value=0.0, max_value=2 * math.pi))
def test_spin_conjugation_symmetry(s, l, m, theta, phi):
    assume(l >= s and abs(m) <= l)
    lhs = np.conj(spin_harmonic(s, l, m, theta, phi))
    rhs = (-1.0) ** (s + m) * spin_harmonic(-s, l, -m, theta, phi)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_spin_harmonic_phase_rotation_law():
    # shifting phi multiplies by e^{i m dphi}
    s, l, m = 2, 5, 3
    t, p, dp = 1.0, 0.7, 0.9
    lhs = spin_harmonic(s, l, m, t, p + dp)
    rhs = spin_harmonic(s, l, m, t, p) * np.exp(1j * m * dp)
    assert abs(lhs - rhs) < 1e-13


def test_eth_ladder_values():
    assert math.isclose(eth_ladder(0, 1, "raise"), math.sqrt(2.0))
    assert math.isclose(eth_ladder(0, 1, "lower"), -math.sqrt(2.0))
    assert math.isclose(eth_ladder(1, 3, "raise"), math.sqrt(2.0 * 5.0))
    assert eth_ladder(3, 3, "raise") == 0.0      # cannot raise past l
    assert eth_ladder(-3, 3, "lower") == 0.0
    with pytest.raises(DomainError):
        eth_ladder(0, 1, "sideways")


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=60),
       st.floats(min_value=1e-8, max_value=120.0))
def test_spherical_bessel_matches_scipy(l, x):
    ours = float(spherical_bessel(l, x))
    ref = float(sps.spherical_jn(l, x))
    assert abs(ours - ref) <= 1e-11 * max(abs(ref), 1e-280)


def test_spherical_bessel_tiny_argument_series():
    # j_l(x) ~ x^l/(2l+1)!! below the series switch
    x = 1e-8
    for l in range(0, 6):
        dfact = math.prod(range(1, 2 * l + 2, 2))
        assert math.isclose(float(spherical_bessel(l, x)), x ** l / dfact,
                            rel_tol=1e-12)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=30),
       st.integers(min_value=1, max_value=10),
       st.floats(min_value=-1.0, max_value=1.0))
def test_gegenbauer_matches_scipy(degree, order, x):
    ours = float(gegenbauer(order, degree, x))
    ref = float(sps.eval_gegenbauer(degree, order, x))
    assert abs(ours - ref) < 1e-9 * max(1.0, abs(ref))
