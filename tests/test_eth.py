import math

import numpy as np
import pytest

from curvedfield.errors import DomainError
from curvedfield.specfun import eth_ladder, eth_numeric, spin_harmonic

CASES = [(0, 3, 1), (1, 4, -2), (-2, 3, 1), (2, 5, 3)]


def grid(n):
    theta = np.linspace(0.3, math.pi - 0.3, n)
    phi = np.linspace(0.0, 2 * math.pi, 2 * n, endpoint=False)
    return theta, phi


def raise_error(s, l, m, n):
    """Relative L2 error of the finite-difference raising operator against
    the exact ladder action, on the interior 80% of the theta band."""
    theta, phi = grid(n)
    T, P = theta[:, None], phi[None, :]
    f = spin_harmonic(s, l, m, T, P)
    got = eth_numeric(f, s, theta, phi)
    ref = eth_ladder(s, l, "raise") * spin_harmonic(s + 1, l, m, T, P)
    cut = max(3, n // 10)
    g, r = got[cut:-cut, cut:-cut], ref[cut:-cut, cut:-cut]
    scale = math.sqrt(float(np.mean(np.abs(r) ** 2)))
    return math.sqrt(float(np.mean(np.abs(g - r) ** 2))) / scale


@pytest.mark.parametrize("s,l,m", CASES)
def test_raising_matches_ladder(s, l, m):
    assert raise_error(s, l, m, 192) < 5e-4


@pytest.mark.parametrize("s,l,m", CASES)
def test_raising_is_second_order(s, l, m):
    e1, e2 = raise_error(s, l, m, 128), raise_error(s, l, m, 256)
    order = math.log2(e1 / e2)
    assert order > 1.9, (e1, e2, order)


def test_top_rung_annihilated():
    # eth on sY_ll with s = l lands outside the ladder: coefficient is 0
    theta, phi = grid(96)
    T, P = theta[:, None], phi[None, :]
    f = spin_harmonic(3, 3, 2, T, P)
    got = eth_numeric(f, 3, theta, phi)
    cut = 10
    assert np.max(np.abs(got[cut:-cut, cut:-cut])) < 2e-2 * np.max(np.abs(f))
    assert eth_ladder(3, 3, "raise") == 0.0


def test_shape_and_resolution_guards():
    theta, phi = grid(16)
    f = np.zeros((theta.size, phi.size + 1))
    with pytest.raises(DomainError):
        eth_numeric(f, 0, theta, phi)
    with pytest.raises(DomainError):
        eth_numeric(np.zeros((theta.size, phi.size)), 0, theta, phi, lmax=8)
    for nt, nphi in ((2, 16), (16, 2), (1, 1)):     # second-order stencils need 3 points
        with pytest.raises(DomainError, match="3 points"):
            eth_numeric(np.zeros((nt, nphi)), 0, theta[:nt], phi[:nphi])
