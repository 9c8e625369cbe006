import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvedfield import spinfield
from curvedfield.errors import DomainError, KernelDefinitenessError
from curvedfield.randfield import SynthesisConfig, estimate_correlation, mode_rng
from curvedfield.specfun import spin_harmonic
from curvedfield.spinfield import (LENSING_SPINS, SpinKernelSet, beta_rule,
                                   euler_frame, ladder_radicand,
                                   lensing_coefficients, lensing_ladder,
                                   lensing_multiplier, recover_kernels,
                                   separable_kernels, spin_correlation,
                                   synthesize_spin)

CHI = np.array([0.0, 0.8, 1.6])


# ---------------------------------------------------------------------------
# Point-pair frames
# ---------------------------------------------------------------------------

angle = st.tuples(st.floats(min_value=0.05, max_value=math.pi - 0.05),
                  st.floats(min_value=0.0, max_value=2 * math.pi))


@settings(max_examples=60)
@given(angle, angle)
# a bearing of -tiny wraps to exactly 2 pi under % (alpha, then gamma)
@example(n1=(2.0, 2.2e-311), n2=(1.0, 0.0))
@example(n1=(1.0, 2.2e-311), n2=(2.0, 0.0))
def test_euler_frame_properties(n1, n2):
    f = euler_frame(n1, n2)
    cosb = (math.cos(n1[0]) * math.cos(n2[0])
            + math.sin(n1[0]) * math.sin(n2[0]) * math.cos(n2[1] - n1[1]))
    assert abs(math.cos(f.beta) - cosb) < 1e-12
    if f.defined:
        assert 0.0 <= f.alpha < 2 * math.pi
        assert 0.0 <= f.gamma < 2 * math.pi
        g = euler_frame(n2, n1)
        assert abs(g.beta - f.beta) < 1e-12
        # reversing the pair swaps and negates the bearings
        assert abs((g.alpha + f.gamma) % (2 * math.pi)) < 1e-9 \
            or abs((g.alpha + f.gamma) % (2 * math.pi) - 2 * math.pi) < 1e-9
        assert abs((g.gamma + f.alpha) % (2 * math.pi)) < 1e-9 \
            or abs((g.gamma + f.alpha) % (2 * math.pi) - 2 * math.pi) < 1e-9


def test_euler_frame_degenerate_pairs():
    # beta = atan2(|n1 x n2|, n1 . n2) is 0 for identical points; acos(n1 . n2) put
    # (1.6, 4.1) 1.49e-8 from itself, above the cut, with a frame from rounding
    for n in ((0.7, 1.1), (1.6, 4.1), (2.9, 0.3)):
        same = euler_frame(n, n)
        assert not same.defined and same.beta < 1e-12, n
    anti = euler_frame((0.7, 1.1), (math.pi - 0.7, 1.1 + math.pi))
    assert not anti.defined and abs(anti.beta - math.pi) < 1e-12
    with pytest.raises(DomainError):
        euler_frame((-0.1, 0.0), (0.5, 0.0))


def test_polar_configuration_phase_is_exact():
    # pole to (beta, 0): alpha + gamma = pi exactly, so the spin phase is
    # the constant (-1)^s
    for b in (0.2, 1.0, 2.5):
        f = euler_frame((0.0, 0.0), (b, 0.0))
        assert f.defined
        assert f.alpha + f.gamma == math.pi
        assert f.beta == pytest.approx(b, abs=1e-15)


# ---------------------------------------------------------------------------
# Two-point function
# ---------------------------------------------------------------------------

def test_spin_correlation_matches_mode_sum():
    kern = separable_kernels(2, np.arange(2, 7), CHI, amplitude=1.3,
                             corr_length=0.9)
    rng = np.random.default_rng(3)
    for _ in range(6):
        n1 = (rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi))
        n2 = (rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi))
        got = spin_correlation(kern, 0.8, n1, 1.6, n2)
        ref = 0.0 + 0.0j
        for idx, l in enumerate(kern.ell):
            c = kern.kernels[idx, 1, 2]
            for m in range(-l, l + 1):
                ref += c * spin_harmonic(2, int(l), m, *n1) \
                    * np.conj(spin_harmonic(2, int(l), m, *n2))
        assert abs(got - ref) < 1e-13 * max(1.0, abs(ref))


def test_spin_correlation_coincident_pair_uses_addition_theorem():
    # at (1.6, 4.1) a coincident pair once had a frame from rounding, and odd s read -C
    for s in (1, 3):
        kern = separable_kernels(s, np.arange(s, 6), CHI)
        ref = sum(kern.kernels[i, 1, 1] * (2 * int(l) + 1) / (4 * math.pi)
                  for i, l in enumerate(kern.ell))
        for n in ((0.9, 0.4), (1.6, 4.1), (2.9, 0.3)):
            got = spin_correlation(kern, 0.8, n, 0.8, n)
            assert abs(got - ref) < 1e-13, (s, n)


def destination(n1, bearing, dist):
    """Point at angular distance dist from n1 along the given bearing."""
    t1, p1 = n1
    ct2 = math.cos(t1) * math.cos(dist) \
        + math.sin(t1) * math.sin(dist) * math.cos(bearing)
    t2 = math.acos(min(1.0, max(-1.0, ct2)))
    p2 = p1 + math.atan2(math.sin(bearing) * math.sin(dist) * math.sin(t1),
                         math.cos(dist) - math.cos(t1) * ct2)
    return (t2, p2 % (2 * math.pi))


def test_s0_correlation_depends_only_on_separation():
    kern = separable_kernels(0, np.arange(0, 7), CHI)
    pairs = [((0.4, 0.0), (1.1, 0.0)),
             ((math.pi / 2, 1.0), (math.pi / 2, 1.7)),
             ((0.9, 5.2), destination((0.9, 5.2), 2.3, 0.7))]
    vals = []
    for n1, n2 in pairs:
        f = euler_frame(n1, n2)
        assert abs(f.beta - 0.7) < 1e-9, f.beta
        vals.append(spin_correlation(kern, 0.8, n1, 1.6, n2))
    assert abs(vals[0] - vals[1]) < 1e-10
    assert abs(vals[0] - vals[2]) < 1e-10
    assert abs(vals[0].imag) < 1e-14


def test_spin_correlation_modulus_is_isotropic():
    kern = separable_kernels(2, np.arange(2, 7), CHI)
    pairs = [((0.4, 0.0), (1.1, 0.0)),
             ((math.pi / 2, 1.0), (math.pi / 2, 1.7))]
    mods = []
    for n1, n2 in pairs:
        f = euler_frame(n1, n2)
        assert abs(f.beta - 0.7) < 1e-9
        mods.append(abs(spin_correlation(kern, 0.8, n1, 1.6, n2)))
    assert abs(mods[0] - mods[1]) < 1e-10


# ---------------------------------------------------------------------------
# Kernel recovery from the polar configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_recover_kernels_roundtrip(s):
    L_max = 6
    kern = separable_kernels(s, np.arange(max(s, 0), L_max + 1), CHI,
                             amplitude=1.3, corr_length=0.9)
    beta, w = beta_rule(L_max)
    R = np.empty((CHI.size, CHI.size, beta.size))
    for i in range(CHI.size):
        for j in range(CHI.size):
            R[i, j, :] = [spin_correlation(kern, CHI[i], (0.0, 0.0),
                                           CHI[j], (b, 0.0)).real
                          for b in beta]
    rec = recover_kernels(R, beta, w, s, L_max)
    assert rec.shape == (CHI.size, CHI.size, L_max + 1)
    assert not np.iscomplexobj(rec)
    for idx, l in enumerate(kern.ell):
        np.testing.assert_allclose(rec[..., int(l)], kern.kernels[idx],
                                   atol=1e-8)
    if s > 0:
        assert np.all(rec[..., :s] == 0.0)


def test_recover_kernels_validation():
    beta, w = beta_rule(4)
    with pytest.raises(DomainError):
        recover_kernels(np.zeros(beta.size - 1), beta, w, 0, 4)
    with pytest.raises(DomainError):
        recover_kernels(np.zeros(3), np.zeros(3), np.zeros(3), 0, 4)


def test_beta_rule_is_exact_for_legendre_products():
    beta, w = beta_rule(5)
    # integrates P_a(cos b) P_c(cos b) over cos b exactly
    for a in range(6):
        pa = np.polynomial.legendre.Legendre.basis(a)(np.cos(beta))
        for c in range(6):
            pc = np.polynomial.legendre.Legendre.basis(c)(np.cos(beta))
            got = float(np.sum(w * pa * pc))
            ref = 2.0 / (2 * a + 1) if a == c else 0.0
            assert abs(got - ref) < 1e-13


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_synthesize_spin_reproducible_and_zero_at_origin():
    kern = separable_kernels(2, np.arange(2, 6), CHI)
    theta = np.array([0.4, 1.2, 2.1])
    phi = np.array([0.0, 2.0, 4.0])
    f1 = synthesize_spin(2, kern, theta, phi, seed=9, n_realizations=3)
    f2 = synthesize_spin(2, kern, theta, phi, seed=9, n_realizations=3)
    np.testing.assert_array_equal(f1.values, f2.values)
    assert f1.values.shape == (3, CHI.size, theta.size)
    # m(0) = 0 for l >= 1 makes the chi = 0 slice identically zero
    assert np.all(f1.values[:, 0, :] == 0.0)
    assert np.all(f1.values[:, 1:, :] != 0.0)


def _per_mode_synthesis(s, kernels, theta, phi, seed, n):
    # oracle: one stream, one contraction and one harmonic per (l, m) mode
    vals = np.zeros((n, kernels.chi.size, theta.size), dtype=complex)
    for kernel, l in zip(kernels.kernels, kernels.ell.tolist()):
        fac = spinfield._factor(kernel, l)
        for m in range(-l, l + 1):
            z = mode_rng(seed, l, m, tag=spinfield._SPIN_TAG, spin=s).standard_normal(
                (n, kernels.chi.size, 2))
            a = ((z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)) @ fac.T
            vals += a[:, :, None] * spin_harmonic(s, l, m, theta, phi)
    return vals


@pytest.mark.parametrize("s", [0, 2, -2, 3])
def test_synthesize_spin_matches_per_mode_sum(s):
    rng = np.random.default_rng(40 + s)
    theta = rng.uniform(0.0, math.pi, 13)
    phi = rng.uniform(0.0, 2 * math.pi, 13)
    theta[[4, 9]] = theta[1]               # repeated theta, unsorted
    phi[[2, 7, 12]] = phi[5]               # repeated phi
    theta[3], theta[6] = 0.0, math.pi      # the poles
    ell = np.array([3, 4, 7, 9])           # gaps
    kern = separable_kernels(s, ell, np.array([0.0, 0.5, 1.2, 2.0]), 1.3, 0.8)
    got = synthesize_spin(s, kern, theta, phi, seed=21, n_realizations=3).values
    ref = _per_mode_synthesis(s, kern, theta, phi, 21, 3)
    assert got.shape == ref.shape == (3, 4, 13)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.all(got[:, 0] == 0.0)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_spin_draws_follow_the_two_point_law(s):
    # Monte Carlo check of synthesize_spin's draws against spin_correlation at
    # every pair of 3 radii x 6 directions, the poles and coincident pairs among
    # them.  Measured over seeds 0-2 and 11: max |z| 1.8-2.8; with coincident pairs
    # given a frame from rounding, odd s read 178-180.
    chi = np.array([0.4, 0.9, 1.5])
    kern = separable_kernels(s, np.arange(s, 9), chi)
    dirs = [(0.0, 0.0), (math.pi, 0.0), (1.6, 4.1), (0.7, 1.1), (2.2, 5.3), (1.0, 0.2)]
    theta, phi = np.array(dirs).T
    n = 8000
    x = synthesize_spin(s, kern, theta, phi, seed=11, n_realizations=n).values.reshape(n, -1)
    pts = [(c, d) for c in chi for d in dirs]       # the order of values' last two axes
    z = []
    for i, (c1, n1) in enumerate(pts):
        est = estimate_correlation(x[:, i], x)
        exact = np.array([spin_correlation(kern, c1, n1, c2, n2) for c2, n2 in pts])
        z.extend(np.abs(est.mean - exact) / est.stderr)
    assert max(z) < 5.0, max(z)


def test_harmonic_ceiling_at_every_spin_entry_point():
    chi = np.array([0.5, 1.0])
    kern = separable_kernels(2, [2, 129], chi)
    beta, w = beta_rule(129)
    for call in (lambda: synthesize_spin(2, kern, [0.3], [0.0], seed=1),
                 lambda: spin_correlation(kern, 0.5, (0.3, 0.0), 1.0, (1.1, 0.4)),
                 lambda: spin_correlation(kern, 0.5, (0.3, 0.0), 1.0, (0.3, 0.0)),
                 lambda: recover_kernels(np.zeros(beta.size), beta, w, 2, 129),
                 lambda: SynthesisConfig(L_max=129)):
        with pytest.raises(DomainError, match="exceeds the harmonic ceiling"):
            call()


def test_non_finite_spin_kernels_rejected():
    chi = np.array([0.0, 0.8, 1.6])
    for kw in ({"amplitude": math.nan}, {"corr_length": math.nan}, {"ell_scale": math.nan}):
        with pytest.raises(DomainError):
            separable_kernels(2, np.arange(2, 5), chi, **kw)
    good = separable_kernels(2, np.arange(2, 5), chi).kernels
    for bad in (math.nan, math.inf):
        ker = good.copy()
        ker[1, 1, 1] = bad
        with pytest.raises(DomainError, match="kernels must be finite"):
            SpinKernelSet(2, np.arange(2, 5), chi, ker)
        with pytest.raises(DomainError, match="chi must be finite"):
            SpinKernelSet(2, np.arange(2, 5), np.array([0.0, 0.8, bad]), good)


def test_synthesize_spin_validation():
    kern = separable_kernels(2, np.arange(2, 6), CHI)
    with pytest.raises(DomainError):
        synthesize_spin(1, kern, [0.3], [0.0], seed=1)
    with pytest.raises(DomainError):
        synthesize_spin(2, kern, [0.3, 0.4], [0.0], seed=1)
    with pytest.raises(DomainError):
        synthesize_spin(2, kern, [3.5], [0.0], seed=1)
    for theta, phi in (([math.nan], [0.0]), ([0.3], [math.nan]), ([0.3], [math.inf])):
        with pytest.raises(DomainError):
            synthesize_spin(2, kern, theta, phi, seed=1)
    with pytest.raises(DomainError):
        synthesize_spin(2, kern, [0.3], [0.0], seed=1, n_realizations=0)


def test_synthesize_spin_takes_the_synthesis_seed_rule():
    # any integer once passed and was reduced mod 2^64, so seeds -1 and 2^64 - 1
    # drew the same field under different recorded seeds
    kern = separable_kernels(2, np.arange(2, 6), CHI)
    for seed in (-1, 2 ** 63, 2 ** 64 - 1):
        for call in (lambda: synthesize_spin(2, kern, [0.3], [0.0], seed=seed),
                     lambda: SynthesisConfig(L_max=2, seed=seed)):
            with pytest.raises(DomainError, match="seed must fit in a non-negative 63-bit integer"):
                call()
    for seed in (0, 2 ** 63 - 1):
        assert synthesize_spin(2, kern, [0.3], [0.0], seed=seed).seed == seed


def test_indefinite_kernel_rejected_naming_multipole():
    bad = np.array([[[1.0, 2.0], [2.0, 1.0]]])   # eigenvalues 3, -1
    kern = SpinKernelSet(2, np.array([2]), np.array([0.5, 1.0]), bad)
    with pytest.raises(KernelDefinitenessError, match="l=2"):
        synthesize_spin(2, kern, [0.5], [0.0], seed=1)
    # one eigh factors the whole stack; the first indefinite kernel is named
    ok = np.eye(2)
    kern = SpinKernelSet(2, np.array([2, 3, 5]), np.array([0.5, 1.0]), np.stack([ok, bad[0], 2 * bad[0]]))
    with pytest.raises(KernelDefinitenessError, match=r"l=3 has eigenvalue -1\.000e\+00 .* scale 2\.000e\+00"):
        synthesize_spin(2, kern, [0.5], [0.0], seed=1)


def test_kernel_set_validation():
    good = np.zeros((1, 2, 2))
    with pytest.raises(DomainError, match="below spin weight"):
        SpinKernelSet(2, np.array([1]), np.array([0.5, 1.0]), good)
    with pytest.raises(DomainError):
        SpinKernelSet(0, np.array([2, 2]), np.array([0.5, 1.0]),
                      np.zeros((2, 2, 2)))
    asym = np.array([[[1.0, 0.5], [0.0, 1.0]]])
    with pytest.raises(DomainError):
        SpinKernelSet(0, np.array([0]), np.array([0.5, 1.0]), asym)
    kern = separable_kernels(0, np.arange(3), CHI)
    with pytest.raises(DomainError):
        kern.chi_index(0.4)   # not a grid node


# ---------------------------------------------------------------------------
# Lensing ladder
# ---------------------------------------------------------------------------

def test_ladder_radicands_exact_integers():
    assert ladder_radicand("kappa", 0) == (-1, 0)
    assert ladder_radicand("kappa", 2) == (-1, 36)
    assert ladder_radicand("F", 0) == (0, 0)
    assert ladder_radicand("F", 1) == (-1, 8)
    assert ladder_radicand("F", 3) == (-1, 1728)
    assert ladder_radicand("gamma", 1) == (0, 0)
    assert ladder_radicand("gamma", 2) == (1, 24)
    assert ladder_radicand("gamma", 5) == (1, 840)
    assert ladder_radicand("G", 2) == (0, 0)
    assert ladder_radicand("G", 3) == (1, 720)
    assert ladder_radicand("G", 4) == (1, 5040)
    with pytest.raises(DomainError):
        ladder_radicand("psi", 2)
    with pytest.raises(DomainError):
        ladder_radicand("kappa", -1)


def test_lensing_multiplier_and_coefficients():
    assert lensing_multiplier("kappa", 2) == -3.0
    assert lensing_multiplier("gamma", 2) == math.sqrt(24.0) / 2.0
    coef = lensing_coefficients(np.arange(0, 5))
    assert coef.kappa[2] == -3.0
    assert coef.G[2] == 0.0 and coef.G[3] == math.sqrt(720.0) / 2.0
    assert np.all(coef.F[1:] < 0) and coef.F[0] == 0.0


def test_lensing_ladder_scales_covariances():
    pot = separable_kernels(0, np.arange(0, 7), CHI)
    sh = lensing_ladder(pot, "gamma")
    assert sh.s == 2
    np.testing.assert_array_equal(sh.ell, np.arange(2, 7))
    for i, l in enumerate(sh.ell):
        mult = lensing_multiplier("gamma", int(l))
        j = int(np.where(pot.ell == l)[0][0])
        np.testing.assert_allclose(sh.kernels[i],
                                   mult ** 2 * pot.kernels[j], rtol=1e-14)
    conv = lensing_ladder(pot, "kappa")
    assert conv.s == 0 and conv.ell[0] == 0
    assert np.all(conv.kernels[0] == 0.0)    # l = 0 rung is zero
    with pytest.raises(DomainError):
        lensing_ladder(sh, "kappa")           # input must be s = 0


def test_lensing_ladder_identically_zero_observable():
    # a pure l = 2 potential has no flexion-G content at all
    pot = separable_kernels(0, np.array([2]), CHI)
    g = lensing_ladder(pot, "G")
    assert g.s == 3
    np.testing.assert_array_equal(g.ell, [3])
    assert np.all(g.kernels == 0.0)
    f = synthesize_spin(3, g, [0.5], [0.0], seed=2, n_realizations=4)
    assert np.all(f.values == 0.0)
    assert spin_correlation(g, 0.8, (0.5, 0.0), 0.8, (1.0, 1.0)) == 0.0


def test_separable_kernels_validation():
    with pytest.raises(DomainError):
        separable_kernels(0, np.arange(3), CHI, corr_length=0.0)
    with pytest.raises(DomainError):
        separable_kernels(0, np.arange(3), CHI, amplitude=-1.0)


_ELL, _CHI = np.array([2, 3]), np.array([0.5, 1.0])
_KER = np.broadcast_to(np.eye(2), (2, 2, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: SpinKernelSet(2, _ELL, [1.0, 0.5], _KER),
     "chi must be strictly increasing and non-empty"),
    (lambda: SpinKernelSet(2, _ELL, [-0.5, 1.0], _KER), "chi must be >= 0"),
    (lambda: SpinKernelSet(2, _ELL, _CHI, _KER[:1]),
     "kernels must have shape (n_ell, n_chi, n_chi)"),
    (lambda: recover_kernels(np.zeros(12), beta_rule(3)[0], beta_rule(3)[1][:-1], 2, 3),
     "beta and weights must be matching 1-d arrays"),
    (lambda: lensing_ladder(SpinKernelSet(0, _ELL, _CHI, _KER), "shear"),
     "unknown lensing observable 'shear'"),
])
def test_spinfield_input_checks(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
