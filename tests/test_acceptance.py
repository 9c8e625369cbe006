"""Acceptance gate: one test per shipped guarantee.

Every check here goes through an independent route (finite-difference
stencils, elementary closed forms, factorial integer arithmetic, Monte
Carlo error bars, byte comparison) rather than trusting the library's
own internals. Tolerances are pinned, not derived.
"""

import math
import time

import numpy as np
import pytest

from curvedfield.cli import main
from curvedfield.cosmology import (comoving_distance, lookback_time,
                                   make_params)
from curvedfield.errors import DomainError
from curvedfield.fieldfile import HEADER_BYTES
from curvedfield.geometry import Geometry
from curvedfield.quadrature import gauss_legendre_grid
from curvedfield.randfield import (GaussianBump, SynthesisConfig, Tabulated,
                                   analytic_correlation, estimate_correlation,
                                   synthesize)
from curvedfield.sft import (RadialProfile, Spectrum, bump_profile,
                             closed_k_lattice, forward_isotropic,
                             inverse_isotropic)
from curvedfield.specfun import (eth_ladder, eth_numeric, f_K, radial,
                                 spin_harmonic, spin_harmonic_table, wigner_D)
from curvedfield.spinfield import (beta_rule, ladder_radicand,
                                   lensing_multiplier, recover_kernels,
                                   separable_kernels, spin_correlation,
                                   synthesize_spin)

G_OPEN = Geometry.open(-1.0)
G_FLAT = Geometry.flat()
G_CLOSED = Geometry.closed(1.0)


# ---------------------------------------------------------------------------
# 1. Radial eigenfunctions satisfy their defining equation
# ---------------------------------------------------------------------------

def _helmholtz_residual(geom, k, l, lo, hi, h, npts=300):
    """Max residual of (1/f^2)(f^2 R')' + (k^2 - K - l(l+1)/f^2) R via
    fourth-order central differences with step h, independent of the
    library's own certification stencils. Returns (max residual, max |R|)."""
    pts = np.linspace(lo + 2 * h, hi - 2 * h, npts)
    off = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    grid = pts[None, :] + off[:, None]
    R = radial(geom, k, l, grid.ravel(), check=False).reshape(5, npts)
    d1 = (R[0] - 8 * R[1] + 8 * R[3] - R[4]) / (12 * h)
    d2 = (-R[0] + 16 * R[1] - 30 * R[2] + 16 * R[3] - R[4]) / (12 * h * h)
    f = f_K(geom, pts)
    fp = {"open": np.cosh, "flat": np.ones_like,
          "closed": np.cos}[geom.kind.value](pts)
    lam = k * k - geom.K - l * (l + 1) / f ** 2
    res = d2 + 2.0 * (fp / f) * d1 + lam * R[2]
    return float(np.max(np.abs(res))), float(np.max(np.abs(R)))


def test_radial_ode_residuals():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    for geom in (G_OPEN, G_FLAT, G_CLOSED):
        hi = math.pi - 0.05 if geom.kind.value == "closed" else 5.0
        for _ in range(20):
            l = int(rng.integers(0, 9))
            if geom.kind.value == "closed":
                k = float(l + int(rng.integers(0, 8)) + 1)
            else:
                k = float(rng.uniform(0.5, 10.0))
            # a true eigenfunction passes at any step; two steps keep the
            # h^4 truncation and the 1/h^2 roundoff amplification apart
            rel = min(res / scale for res, scale in
                      (_helmholtz_residual(geom, k, l, 0.05, hi, h)
                       for h in (0.002, 0.004)))
            assert rel < 1e-6, (geom.kind.value, k, l, rel)
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 2. Elementary closed forms at l = 0
# ---------------------------------------------------------------------------

def test_elementary_radial_closed_forms():
    chi = np.linspace(0.05, 4.0, 160)
    for k in (0.7, 3.0, 9.5):
        got = radial(G_FLAT, k, 0, chi, check=False)
        ref = math.sqrt(2.0 / math.pi) * np.sin(k * chi) / (k * chi)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    for om in (0.9, 2.5, 7.0):
        got = radial(G_OPEN, om, 0, chi, check=False)
        ref = np.sin(om * chi) / (om * np.sinh(chi))
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    r = np.linspace(0.05, math.pi - 0.05, 160)
    for om in (0, 3, 9):
        got = radial(G_CLOSED, float(om + 1), 0, r, check=False)
        ref = np.sin((om + 1) * r) / ((om + 1) * np.sin(r))
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# 3. Harmonic algebra: unitarity, orthonormality, ladder consistency
# ---------------------------------------------------------------------------

def _eth_error(s, l, m, n):
    theta = np.linspace(0.3, math.pi - 0.3, n)
    phi = np.linspace(0.0, 2 * math.pi, 2 * n, endpoint=False)
    T, P = theta[:, None], phi[None, :]
    field = spin_harmonic(s, l, m, T, P)
    got = eth_numeric(field, s, theta, phi)
    ref = eth_ladder(s, l, "raise") * spin_harmonic(s + 1, l, m, T, P)
    cut = max(3, n // 10)
    g, r = got[cut:-cut, cut:-cut], ref[cut:-cut, cut:-cut]
    scale = math.sqrt(float(np.mean(np.abs(r) ** 2)))
    return math.sqrt(float(np.mean(np.abs(g - r) ** 2))) / scale


def test_harmonic_algebra():
    # rotation matrices are unitary
    phi_e, theta_e, psi_e = 0.7, 1.1, -0.4
    for l in range(9):
        mm = np.arange(-l, l + 1)
        D = np.array([[wigner_D(l, int(m), int(n), phi_e, theta_e, psi_e)
                       for n in mm] for m in mm])
        err = np.max(np.abs(D @ D.conj().T - np.eye(2 * l + 1)))
        assert err < 1e-10, (l, err)

    # spin harmonics are orthonormal on the sphere, all |s| <= 3, l <= 16;
    # Gauss-Legendre in cos(theta) is exact for these integrands, the
    # uniform phi grid resolves every e^{i(m-m')phi}
    L = 16
    x, wx = np.polynomial.legendre.leggauss(2 * L + 8)
    theta = np.arccos(x)
    nphi = 4 * L + 4
    phi = np.linspace(0.0, 2 * math.pi, nphi, endpoint=False)
    w2d = np.repeat(wx, nphi) * (2 * math.pi / nphi)
    T, P = theta[:, None], phi[None, :]
    for s in range(-3, 4):
        modes = [(l, m) for l in range(abs(s), L + 1)
                 for m in range(-l, l + 1)]
        V = np.empty((theta.size * nphi, len(modes)), dtype=complex)
        for j, (l, m) in enumerate(modes):
            V[:, j] = spin_harmonic(s, l, m, T, P).ravel()
        gram = (V.conj().T * w2d) @ V
        err = np.max(np.abs(gram - np.eye(len(modes))))
        assert err < 1e-10, (s, err)

    # at the ceiling l = 128: D^128 = diag(e^{-im phi}) d^128 diag(e^{-in psi}) is
    # unitary, and each m's spin harmonics are orthonormal over theta (the
    # products are polynomials of degree <= 256 in cos(theta), exact on 136 nodes)
    L = 128
    ms = np.arange(-L, L + 1)
    d = np.array([(-1.0) ** n * math.sqrt(4 * math.pi / (2 * L + 1))
                  * spin_harmonic_table(-n, L, theta_e)[L] for n in ms]).T
    D = np.exp(-1j * ms * phi_e)[:, None] * d * np.exp(-1j * ms * psi_e)[None, :]
    assert np.max(np.abs(D @ D.conj().T - np.eye(2 * L + 1))) < 1e-10
    assert abs(D[L + 5, L - 3] - wigner_D(L, 5, -3, phi_e, theta_e, psi_e)) < 1e-13
    x, wx = np.polynomial.legendre.leggauss(136)
    for s in (0, 2):
        A = np.ascontiguousarray(spin_harmonic_table(s, L, np.arccos(x)).transpose(1, 0, 2))
        gram = 2 * math.pi * (A * wx) @ A.transpose(0, 2, 1)          # [m, l, l']
        keep = (np.arange(L + 1) >= np.maximum(np.abs(ms), abs(s))[:, None]).astype(float)
        assert np.max(np.abs(gram - keep[:, :, None] * np.eye(L + 1))) < 1e-10, s

    # numeric raising operator converges at second order to the ladder
    for s, l, m in ((1, 4, -2), (2, 5, 3)):
        e1, e2 = _eth_error(s, l, m, 128), _eth_error(s, l, m, 256)
        assert math.log2(e1 / e2) >= 1.9, (s, l, m, e1, e2)


# ---------------------------------------------------------------------------
# 4. Transform roundtrip with quadrature-order convergence
# ---------------------------------------------------------------------------

def _roundtrip_error(geom, chi_max, k_top, center, halfwidth, order):
    if geom.kind.value == "closed":
        panels = max(4, math.ceil((k_top + 1) * chi_max / 8))
        chi, wchi = gauss_legendre_grid(1e-9, chi_max, panels, order)
        k, wk = closed_k_lattice(geom, k_top), None
    else:
        panels = max(4, math.ceil(k_top * chi_max / 8))
        chi, wchi = gauss_legendre_grid(1e-9, chi_max, panels, order)
        k, wk = gauss_legendre_grid(1e-9, k_top, panels, order)
    prof = RadialProfile(geom, chi, bump_profile(chi, center, halfwidth), wchi)
    spec = forward_isotropic(prof, k, tail_tol=None)
    if wk is not None:
        spec = Spectrum(geom, k, spec.values, wk)
    back = inverse_isotropic(spec, prof.chi, tail_tol=None)
    return float(np.max(np.abs(back.values - prof.values))
                 / np.max(np.abs(prof.values)))


def test_transform_roundtrip_convergence():
    setups = {
        "open": (G_OPEN, 4.0, 200.0, 2.0, 1.8),
        "flat": (G_FLAT, 4.0, 150.0, 2.0, 1.8),
        "closed": (G_CLOSED, math.pi, 200, 1.5, 1.4),
    }
    for name, (geom, chi_max, k_top, center, hw) in setups.items():
        errs = [_roundtrip_error(geom, chi_max, k_top, center, hw, order)
                for order in (4, 6, 8, 12)]
        # visible convergence as the panel order refines, then the target
        assert errs[0] > errs[1] > errs[2], (name, errs)
        assert errs[2] < 1e-2 * errs[0], (name, errs)
        assert errs[3] < 1e-6, (name, errs)


# ---------------------------------------------------------------------------
# 5. Monte Carlo synthesis reproduces the analytic zonal correlation
# ---------------------------------------------------------------------------

def test_monte_carlo_zonal_correlation():
    start = time.perf_counter()
    lags = np.array([0.3, 0.6, 1.0, 1.5, 2.2])
    pts = np.concatenate([[0.0], lags])
    theta = np.full(pts.size, math.pi / 2)
    phi = np.zeros(pts.size)

    # flat model, smooth bump spectrum
    P = GaussianBump(1.0, 3.0, 0.8)
    cfg = SynthesisConfig(L_max=4, seed=42, k_max=8.0, k_panels=24,
                          k_order=10, n_realizations=2000)
    field = synthesize(G_FLAT, P, cfg, pts, theta, phi)
    est = estimate_correlation(field.values[:, 0], field.values[:, 1:])
    ref = analytic_correlation(G_FLAT, P, lags, k_max=8.0)
    z = np.abs(est.mean - ref) / est.stderr
    assert np.all(z < 5.0), ("flat", z)

    # closed model with an exactly truncated spectrum: the analytic
    # correlation is a finite lattice sum, no quadrature involved
    kk = np.arange(1.0, 10.0)
    Pc = Tabulated(kk, 1.0 / kk ** 2)
    cfgc = SynthesisConfig(L_max=4, seed=7, omega_max=8, n_realizations=2000)
    fieldc = synthesize(G_CLOSED, Pc, cfgc, pts, theta, phi)
    estc = estimate_correlation(fieldc.values[:, 0], fieldc.values[:, 1:])
    refc = analytic_correlation(G_CLOSED, Pc, lags, omega_max=8)
    zc = np.abs(estc.mean - refc) / estc.stderr
    assert np.all(zc < 5.0), ("closed", zc)

    # open model: 6 radii against 240 k-nodes, so the coefficients are
    # drawn in the smaller radial basis
    fieldo = synthesize(G_OPEN, P, cfg, pts, theta, phi)
    esto = estimate_correlation(fieldo.values[:, 0], fieldo.values[:, 1:])
    refo = analytic_correlation(G_OPEN, P, lags, k_max=8.0)
    zo = np.abs(esto.mean - refo) / esto.stderr
    assert np.all(zo < 5.0), ("open", zo)

    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# 6. Spin kernel recovery roundtrip and the origin boundary condition
# ---------------------------------------------------------------------------

def test_spin_kernel_recovery_roundtrip():
    chi = np.array([0.0, 0.8, 1.6])
    L_max = 6
    for s in (0, 1, 2, 3):
        kern = separable_kernels(s, np.arange(max(s, 1), L_max + 1), chi,
                                 amplitude=1.3, corr_length=0.9)
        beta, w = beta_rule(L_max)
        R = np.empty((chi.size, chi.size, beta.size))
        for i in range(chi.size):
            for j in range(chi.size):
                R[i, j, :] = [spin_correlation(kern, chi[i], (0.0, 0.0),
                                               chi[j], (b, 0.0)).real
                              for b in beta]
        rec = recover_kernels(R, beta, w, s, L_max)
        err = max(float(np.max(np.abs(rec[..., int(l)] - kern.kernels[idx])))
                  for idx, l in enumerate(kern.ell))
        assert err < 1e-8, (s, err)

        # coefficient processes with l != 0 have zero variance at the
        # origin; synthesis honors that exactly, not just approximately
        field = synthesize_spin(s, kern, np.array([0.4, 1.2]),
                                np.array([0.0, 2.0]), seed=5,
                                n_realizations=3)
        assert np.all(field.values[:, 0, :] == 0.0)
        assert np.any(field.values[:, 1:, :] != 0.0)


# ---------------------------------------------------------------------------
# 7. Lensing ladder multipliers against factorial integer arithmetic
# ---------------------------------------------------------------------------

def test_lensing_multiplier_integer_oracle():
    fact = math.factorial

    def oracle(kind, l):
        if kind == "kappa":
            return (-1, (fact(l + 1) // fact(l - 1)) ** 2) if l >= 1 \
                else (-1, 0)
        if kind == "F":
            return (-1, (fact(l + 1) // fact(l - 1)) ** 3) if l >= 1 \
                else (0, 0)
        if kind == "gamma":
            return (1, fact(l + 2) // fact(l - 2)) if l >= 2 else (0, 0)
        return (1, fact(l + 3) // fact(l - 3)) if l >= 3 else (0, 0)

    for kind in ("kappa", "gamma", "F", "G"):
        for l in range(33):
            sign, rad = ladder_radicand(kind, l)
            osign, orad = oracle(kind, l)
            assert rad == orad, (kind, l, rad, orad)
            if rad:
                assert sign == osign, (kind, l)
                assert lensing_multiplier(kind, l) == \
                    sign * math.sqrt(rad) / 2.0
            else:
                assert lensing_multiplier(kind, l) == 0.0


# ---------------------------------------------------------------------------
# 8. Background arithmetic: sum rule reporting and dust-universe forms
# ---------------------------------------------------------------------------

def test_background_sum_rule_and_dust_forms():
    # published parameter row: the stated curvature misses the sum rule
    # by 9.51e-4, far beyond the 1e-6 gate, and the error says by how much
    solved = 1.0 - 4.9e-5 - 0.315 - 0.685
    residual = -0.0010 - solved
    assert abs(residual) > 1e-6
    with pytest.raises(DomainError, match="do not close"):
        make_params(67.80, 0.315, 0.685, 4.9e-5, Omega_K=-0.0010)
    p = make_params(67.80, 0.315, 0.685, 4.9e-5)
    assert abs(p.closure_residual) < 1e-15
    assert math.isclose(p.Omega_K, solved, rel_tol=1e-12)

    # matter-only universe: distances and lookback have elementary forms
    eds = make_params(67.80, 1.0, 0.0)
    z = np.concatenate([[0.0], np.logspace(-2, 2, 25)])
    chi_ref = 2.0 * eds.c / eds.H0 * (1.0 - 1.0 / np.sqrt(1.0 + z))
    np.testing.assert_allclose(comoving_distance(eds, z), chi_ref,
                               rtol=1e-10, atol=1e-12)
    t_ref = (2.0 / 3.0) * (1.0 - (1.0 + z) ** (-1.5))
    np.testing.assert_allclose(lookback_time(eds, z), t_ref,
                               rtol=1e-10, atol=1e-14)


# ---------------------------------------------------------------------------
# 9. Synthesis payloads are identical across thread counts
# ---------------------------------------------------------------------------

SYN_CFG = """
geometry.kind = flat
spectrum.form = gaussian_bump
spectrum.amplitude = 1.0
spectrum.k0 = 3.0
spectrum.sigma = 0.8
synthesis.l_max = 6
synthesis.k_max = 8.0
synthesis.k_panels = 12
synthesis.k_order = 8
grid.n_chi = 3
grid.chi_max = 2.0
grid.n_theta = 4
grid.n_phi = 6
"""


def test_synthesis_thread_determinism(tmp_path):
    cfg = tmp_path / "syn.cfg"
    cfg.write_text(SYN_CFG)
    payloads = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"t{threads}.cfd"
        code = main(["synthesize", "--config", str(cfg), "--out", str(out),
                     "--seed", "3", "--threads", threads])
        assert code == 0
        payloads.append(out.read_bytes()[HEADER_BYTES:])
    assert payloads[0] == payloads[1] == payloads[2]
