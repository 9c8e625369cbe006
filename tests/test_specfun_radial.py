import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedfield import randfield, specfun
from curvedfield.errors import AccuracyError, DomainError, SpectralLatticeError
from curvedfield.geometry import Geometry
from curvedfield.quadrature import gauss_legendre_grid
from curvedfield.randfield import GaussianBump, SynthesisConfig, synthesize
from curvedfield.sft import spectral_nodes
from curvedfield.specfun import conical_legendre, radial, radial_table, zonal_spherical
from oracles import (CLOSED_RADIAL, CLOSED_RADIAL_ROWS, CLOSED_RADIAL_ROWS_CHI, CONICAL_LEGENDRE,
                     FLAT_RADIAL, OPEN_RADIAL, OPEN_RADIAL_HIGH_L, OPEN_RADIAL_ROWS)

G_OPEN = Geometry.open(-1.0)
G_FLAT = Geometry.flat()
G_CLOSED = Geometry.closed(1.0)


# ---------------------------------------------------------------------------
# Frozen high-precision tables (independent arbitrary-precision route)
# ---------------------------------------------------------------------------

def test_open_radial_against_frozen_table():
    for omega, l, r, ref in OPEN_RADIAL:
        got = float(radial(G_OPEN, omega, l, r, check=False))
        assert abs(got - ref) < 1e-11 * max(abs(ref), 1e-12), (omega, l, r)


def test_closed_radial_against_frozen_table():
    for omega, l, r, ref in CLOSED_RADIAL:
        got = float(radial(G_CLOSED, float(omega + 1), l, r, check=False))
        assert abs(got - ref) < 1e-11 * max(abs(ref), 1e-12), (omega, l, r)


def test_closed_rows_near_origin_and_antipode_at_large_omega():
    # Miller's start search once began L + 8 rungs up, where these columns
    # still oscillate: it assumed e^20 of growth from omega down, and the rows
    # overflowed to NaN (AccuracyError with check=True)
    omegas = list(CLOSED_RADIAL_ROWS)
    T = radial_table(G_CLOSED, [w + 1.0 for w in omegas], 8, np.array(CLOSED_RADIAL_ROWS_CHI))
    for q, w in enumerate(omegas):
        for l, ref in enumerate(np.array(CLOSED_RADIAL_ROWS[w])):
            np.testing.assert_allclose(T[l, q], ref, rtol=0, atol=1e-11 * np.max(np.abs(ref)),
                                       err_msg=f"omega={w}, l={l}")
    assert np.all(np.isfinite(radial_table(G_CLOSED, [401.0], 8, [0.05], check=False)))


def test_closed_sweep_to_omega_1500_certifies():
    # every lattice k = 1..1500 near the origin, the equator and the antipode
    chi = np.array([0.0, 1e-3, 0.05, 0.14, 0.5, 1.0, 1.5, 3.0, math.pi - 0.01, math.pi])
    T = radial_table(G_CLOSED, np.arange(1.0, 1501.0), 8, chi)
    assert np.all(np.isfinite(T))


# ---------------------------------------------------------------------------
# Dual routes through scipy
# ---------------------------------------------------------------------------

def test_flat_radial_is_scaled_spherical_bessel():
    chi = np.linspace(0.01, 40.0, 300)
    for k in (0.3, 1.0, 7.7):
        for l in (0, 1, 4, 9):
            got = radial(G_FLAT, k, l, chi)
            ref = math.sqrt(2.0 / math.pi) * sps.spherical_jn(l, k * chi)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-300)


def closed_radial_reference(omega, l, r):
    # 2^l l! sqrt((omega-l)! / ((omega+l+1)! (omega+1))) sin^l(r)
    #   * C^{l+1}_{omega-l}(cos r)
    ln = l * math.log(2.0) + math.lgamma(l + 1) + 0.5 * (
        math.lgamma(omega - l + 1) - math.lgamma(omega + l + 2)
        - math.log(omega + 1.0))
    return math.exp(ln) * np.sin(r) ** l * sps.eval_gegenbauer(
        omega - l, l + 1, np.cos(r))


def test_closed_radial_gegenbauer_route():
    r = np.array([0.05, 0.8, 1.4, 2.2, 3.0])
    for omega in (1, 3, 5, 8, 12, 20):
        for l in (0, 1, 3, 5, 8):
            if l > omega:
                continue
            got = radial(G_CLOSED, float(omega + 1), l, r, check=False)
            ref = closed_radial_reference(omega, l, r)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)


def test_open_l0_elementary_form():
    r = np.array([0.1, 0.7, 2.0, 8.0])
    for omega in (0.4, 1.0, 3.3):
        got = radial(G_OPEN, omega, 0, r, check=False)
        ref = np.sin(omega * r) / (omega * np.sinh(r))
        np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_conical_legendre_l0_identity():
    # P^{-1/2}_{-1/2+i w}(cosh r) = sqrt(2/(pi sinh r)) sin(w r)/w
    r = np.array([0.05, 0.4, 1.5, 5.0])
    for omega in (0.5, 1.7, 4.0):
        got = conical_legendre(omega, 0, r)
        ref = np.sqrt(2.0 / (math.pi * np.sinh(r))) * np.sin(omega * r) / omega
        np.testing.assert_allclose(got, ref, rtol=1e-11)


def test_conical_legendre_against_mpmath():
    # prod_{n<=l} (omega^2 + n^2) overflows at omega = 100, l = 128 (and at
    # omega = 30), where the values are still normal doubles, not zeros
    for omega, l, r, ref in CONICAL_LEGENDRE:
        got = float(conical_legendre(omega, l, r))
        assert abs(got - ref) <= 1e-11 * abs(ref), (omega, l, r, got)


# ---------------------------------------------------------------------------
# Structure: normalization, lattices, degenerate rows
# ---------------------------------------------------------------------------

def test_radial_origin_limits():
    # l = 0 modes are 1 at the origin in every geometry, l > 0 vanish
    for geom, k in ((G_OPEN, 1.3), (G_FLAT, 1.3), (G_CLOSED, 3.0)):
        assert abs(float(radial(geom, k, 0, 1e-8, check=False))
                   - (1.0 if geom.kind.value != "flat"
                      else math.sqrt(2.0 / math.pi))) < 1e-6
        assert abs(float(radial(geom, k, 3, 1e-8, check=False))) < 1e-20


def test_closed_degenerate_multipoles_are_zero():
    # no closed mode content for l > omega
    vals = radial(G_CLOSED, 2.0, 5, np.array([0.3, 1.0, 2.0]))
    assert np.all(vals == 0.0)


def test_closed_off_lattice_wavenumber_rejected():
    with pytest.raises(SpectralLatticeError):
        radial(G_CLOSED, 2.5, 0, 0.5)
    with pytest.raises(SpectralLatticeError):
        radial(G_CLOSED, 0.5, 0, 0.5)


def test_radial_argument_validation():
    with pytest.raises(DomainError):
        radial(G_FLAT, -1.0, 0, 0.5)
    with pytest.raises(DomainError):
        radial(G_FLAT, math.nan, 0, 0.5)
    with pytest.raises(DomainError):
        radial(G_FLAT, 1.0, -1, 0.5)
    with pytest.raises(DomainError):
        radial(G_CLOSED, 2.0, 0, 4.0)   # beyond antipode


def test_certification_raises_on_impossible_tolerance():
    chi = np.linspace(0.05, 3.0, 64)
    with pytest.raises(AccuracyError):
        radial(G_OPEN, 2.0, 2, chi, check=True, cert_tol=1e-300)
    # and passes at the documented default
    radial(G_OPEN, 2.0, 2, chi, check=True)
    radial(G_CLOSED, 6.0, 3, np.linspace(0.05, 3.0, 64), check=True)
    radial(G_FLAT, 2.0, 2, chi, check=True)


@settings(max_examples=30)
@given(st.floats(min_value=0.1, max_value=20.0),
       st.integers(min_value=0, max_value=8),
       st.floats(min_value=0.2, max_value=5.0))
def test_flat_radial_scale_invariance(k, l, a):
    # flat modes depend on k*chi only
    chi = np.linspace(0.1, 6.0, 17)
    lhs = radial(G_FLAT, k, l, chi, check=False)
    rhs = radial(G_FLAT, k * a, l, chi / a, check=False)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-290)


# ---------------------------------------------------------------------------
# The all-l radial table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("geom, table, k_of", [
    (G_OPEN, OPEN_RADIAL, lambda omega: omega),
    (G_FLAT, FLAT_RADIAL, lambda k: k),
    (G_CLOSED, CLOSED_RADIAL, lambda omega: omega + 1.0),
])
def test_radial_table_slices_match_oracles(geom, table, k_of):
    ks = sorted({row[0] for row in table})
    ls = sorted({row[1] for row in table})
    chis = sorted({row[2] for row in table})
    T = radial_table(geom, [k_of(k) for k in ks], max(ls), np.array(chis))
    assert T.shape == (max(ls) + 1, len(ks), len(chis))
    for k, l, chi, ref in table:
        got = T[l, ks.index(k), chis.index(chi)]
        assert abs(got - ref) < 1e-11 * max(abs(ref), 1e-12), (geom.kind, k, l, chi)


def test_radial_table_closed_rows_above_omega_are_zero():
    omega = np.arange(6)
    chi = np.linspace(0.0, math.pi, 25)
    T = radial_table(G_CLOSED, omega + 1.0, 8, chi)
    for q, w in enumerate(omega):
        assert np.all(T[w + 1:, q] == 0.0)
        assert not np.any(np.signbit(T[w + 1:, q]))
        assert np.all(np.any(T[:w + 1, q] != 0.0, axis=-1))


def test_radial_table_on_the_origin_alone():
    # l = 0 is 1 at chi = 0 (sqrt(2/pi) flat), every l > 0 vanishes
    for geom, k, r0 in ((G_OPEN, [0.5, 3.0], 1.0), (G_FLAT, [0.5, 3.0], math.sqrt(2 / math.pi)),
                        (G_CLOSED, [1.0, 4.0], 1.0)):
        T = radial_table(geom, k, 4, np.array([0.0]))
        np.testing.assert_allclose(T[0, :, 0], r0, rtol=1e-15)
        assert np.all(T[1:] == 0.0)
    # the closed antipode: R_0(pi) = (-1)^omega
    T = radial_table(G_CLOSED, np.arange(1.0, 9.0), 4, np.array([math.pi]))
    assert np.array_equal(T[:, :, 0], np.vstack([(-1.0) ** np.arange(8), np.zeros((4, 8))]))
    cfg = SynthesisConfig(L_max=3, k_max=6.0, k_panels=2, k_order=4)
    f = synthesize(Geometry.open(-0.5), GaussianBump(1.0, 3.0, 0.8), cfg,
                   np.array([0.0]), np.array([1.0]), np.array([0.0]))
    assert np.all(np.isfinite(f.values))


def test_radial_table_without_columns():
    # no k or no chi: an empty table, certified or not
    for k, chi in (([], np.linspace(0.0, 2.0, 5)), ([1.0, 2.0], np.array([]))):
        for check in (True, False):
            assert radial_table(G_OPEN, k, 4, chi, check=check).shape == (5, len(k), chi.size)


def test_radial_table_certifies_every_row(monkeypatch):
    ks = np.linspace(0.3, 6.0, 12)
    chi = np.linspace(0.0, 3.0, 16)
    radial_table(G_OPEN, ks, 4, chi)
    # a Miller start too close to the top row leaves it wrong by ~e^-gain, and
    # the second sweep, started twice as far out, disagrees with it
    with monkeypatch.context() as m:
        m.setattr(specfun, "_GAIN", 4.0)
        with pytest.raises(AccuracyError, match=r"differ by .* \(open, k=.*, l=4\)"):
            radial_table(G_OPEN, ks, 4, chi)
    good = specfun._downward

    def poison(where):
        # NaN in the table's first Miller column; the second sweep, which
        # certifies it, runs clean
        def sweep(*args):
            good(*args)
            args[-1][where] = np.nan
            monkeypatch.setattr(specfun, "_downward", good)
        monkeypatch.setattr(specfun, "_downward", sweep)

    poison((3, 0))                                # one sample, in row 3
    with pytest.raises(AccuracyError, match=r"l=3\)"):
        radial_table(G_OPEN, ks, 4, chi)
    # a whole NaN column once made every row's scale NaN, so the message named
    # the first sample in C order, chi = 0 and l = 0, whose rows are exact
    poison((slice(None), 0))
    (q, p), = np.argwhere(np.isnan(radial_table(G_OPEN, ks, 4, chi, check=False)[0]))
    poison((slice(None), 0))
    named = re.escape(f"at chi={chi[p]:.4g} (open, k={ks[q]}, l=0)")
    with pytest.raises(AccuracyError, match=named):
        radial_table(G_OPEN, ks, 4, chi)


@pytest.mark.parametrize("geom, k, chi", [
    (G_CLOSED, np.arange(1.0, 62.0), np.linspace(0.0, 3.1, 200)),
    (Geometry.open(-0.5), spectral_nodes(Geometry.open(-0.5), 8.0, 8, 12, None)[0],
     np.linspace(0.0, 3.0, 100)),
])
def test_radial_table_scratch_is_bounded(geom, k, chi):
    # both sweeps write in place, so a certified table's peak is the table, one
    # second sweep's rows and per-column scratch
    tracemalloc.start()
    try:
        T = radial_table(geom, k, 64, chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * T.nbytes, peak / T.nbytes


def _check_rows(name, k=None):
    # every oracle row of the set, to 1e-10 of its max over the chi grid
    K, L, chi, rows = OPEN_RADIAL_ROWS[name]
    if k is None:
        k, _ = gauss_legendre_grid(0.0, 8.0, 24, 12)
    T = radial_table(Geometry.open(K), k, L, np.array(chi))
    for (kk, l), ref in rows.items():
        ref = np.array(ref)
        got = T[l, np.flatnonzero(np.asarray(k) == kk)[0]]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * np.max(np.abs(ref)),
                                   err_msg=f"{name}: k={kk}, l={l}")


def test_open_high_l_rows_certify_near_the_switch():
    # on this K = -1 grid lambda cancels near the turning point at l = 14,
    # chi = 1.5 (a row accurate to 5e-13), where a series once met a ladder
    k, _ = gauss_legendre_grid(0.0, 8.0, 24, 12)
    chi = np.linspace(0.0, 2.0, 8)
    T = radial_table(G_OPEN, k, 20, chi)
    rows = {}
    for kk, l, x, ref in OPEN_RADIAL_HIGH_L:
        rows.setdefault((kk, l), []).append(ref)
    for (kk, l), ref in rows.items():
        got = T[l, np.flatnonzero(k == kk)[0], 1:]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9 * np.max(np.abs(ref)),
                                   err_msg=f"k={kk}, l={l}")
    # rows l = 24..32 certify, at K = -1 on chi in [0, 2] and K = -0.5 on
    # [0, 3], where the series and ladder lost up to 1e-4 of them
    _check_rows("chi2")
    _check_rows("chi3")


@pytest.mark.parametrize("name", ["l64", "l128"])
def test_high_l_rows_match_250_digit_rows(name):
    # L = 64 on K = -0.5 and chi in [0, 3]: Miller sweeps; L = 128 at
    # r = 5 and 8: upward sweeps, whose amplification stays small there
    _check_rows(name)


def test_rows_between_the_probes_are_accurate():
    # certification once sampled two quantiles of chi and passed this grid
    # with row 32 at k = 5.598 off by 4.1e-4 of its max
    _check_rows("chi149")
    _check_rows("chi149b")


def test_steep_accurate_rows_certify():
    # rows growing like chi^18 once failed a 5-point stencil's truncation error
    _check_rows("probe", k=[0.5, 2.0, 4.0])


def test_rows_on_the_zeros_of_r0():
    # Miller's sweep normalises to R_1 where R_0 is near a zero; x = n pi
    # puts j_0 on its zeros, and rows that vanish at every sample certify
    x = np.array([math.pi, 2 * math.pi, 3 * math.pi])
    np.testing.assert_allclose(specfun.spherical_bessel(20, x), sps.spherical_jn(20, x),
                               rtol=1e-12)
    T = radial_table(G_OPEN, [1.0, 2.0], 24, [math.pi / 2, math.pi])
    assert np.max(np.abs(T[0, 1])) < 1e-16


def test_flat_two_point_grid_is_certified():
    # k = 5.76 sits on the first zero of j_2 at chi = 1, so the samples alone
    # give that exact row a scale of 1e-4 against 0.2 at the chi = 0.35 probe
    k, _ = spectral_nodes(G_FLAT, 8.0, 8, 8, None)
    chi = np.array([0.0, 1.0])
    T = radial_table(G_FLAT, k, 2, chi)
    for l in range(3):
        np.testing.assert_allclose(T[l], math.sqrt(2 / math.pi) * sps.spherical_jn(
            l, np.outer(k, chi)), rtol=0, atol=1e-15)


def _per_rung_plan(kind, w, r, L):
    # the exact pass the plan's bounds replace: D_l = eta_0 + S_l is the log size of
    # R_0 / R_l, S_l the sum of eta over the rungs 1..l-1 in order; the exact top is the
    # last row with D <= _FLOOR (closed rows above omega are 0), and an upward sweep
    # amplifies roundoff by 2 S_L + cancel (nothing at L = 0, which has no row 1)
    kappa, _, f_over_df = specfun._MODEL[kind]
    g = 1.0 / f_over_df(r)
    s, c = r * np.sinc(w * r / math.pi), np.cos(w * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        a1 = np.sqrt(w * w - kappa)
        cancel = np.log((np.abs(g * s) + np.abs(c)) / np.abs(g * s - c))
    eta0 = specfun._eta(kappa, a1 * a1, g, 0)
    S = np.zeros((max(L, 1), r.size))
    for l in range(2, L + 1):
        S[l - 1] = S[l - 2] + specfun._eta(kappa, w * w, g, l - 1.0)
    top = np.count_nonzero(eta0 + S[:L] <= specfun._FLOOR, axis=0)
    if kind.value == "closed":
        top = np.minimum(top, w - 1.0)
    return top, np.where(L > 0, 2.0 * S[-1] + cancel, 0.0)


def _plan_sample(kind, rng, n=1500):
    # (w, r) columns as _plan takes them, with radii at the subnormal origin's edge
    if kind.value == "closed":
        w = rng.integers(0, 200, n) + 1.0
        w[:40] = 1.0                              # omega = 0
        r = rng.uniform(1e-9, math.pi / 2, n)
    elif kind.value == "flat":
        w, r = np.ones(n), np.exp(rng.uniform(math.log(1e-3), math.log(300.0), n))
    else:
        w = np.exp(rng.uniform(math.log(0.01), math.log(100.0), n))
        w[:40] = 0.0
        r = np.exp(rng.uniform(math.log(1e-3), math.log(20.0), n))
        r[60:62] = (720.0, 800.0)                 # sinh r overflows
    r[np.arange(0, n, 7)[:6] + 3] = (2.3e-308, 1e-307, 1e-305, 1e-300, 1e-200, 1e-30)
    return w, r


@pytest.mark.parametrize("L", [0, 1, 2, 3, 8, 12, 64, 128])
@pytest.mark.parametrize("geom", [G_OPEN, G_FLAT, G_CLOSED], ids=lambda g: g.kind.value)
def test_plan_bounds_the_per_rung_pass(geom, L):
    # The certificate cannot see a top that is too low: both of its sweeps zero the
    # rows above the same top.  So the plan's bounds are checked against the exact pass.
    kind = geom.kind
    rng = np.random.default_rng(sum(map(ord, kind.value)) + L)
    w, r = _plan_sample(kind, rng)
    order, nu, P, *_ = specfun._plan(kind, w, r, L)
    top = np.empty(r.size)
    top[order] = P[4]
    exact_top, amplify = _per_rung_plan(kind, w, r, L)
    if kind.value == "closed":
        top = np.minimum(top, w - 1.0)
    assert np.all(top >= exact_top), np.flatnonzero(top < exact_top)
    # every upward column amplifies roundoff by at most e^8 (the split is e^5), except
    # those sent up because their Miller start lies past the reach
    up = order[:nu]
    kappa, _, f_over_df = specfun._MODEL[kind]
    (N,), _ = specfun._start_rungs(kappa, w[up] ** 2, 1.0 / f_over_df(r[up]), top[up], np.inf,
                                   (specfun._GAIN,))
    split = up[N - top[up] <= specfun._REACH * (L + 16)]
    assert np.all(amplify[split] <= 8.0), amplify[split].max()
    # and the table certifies, also at L = 0 on the subnormal origin's edge
    T, worst = specfun._rows(kind, w[None], r[None], L, 1e-6)
    assert worst is None and np.all(np.isfinite(T)), worst


def test_radial_table_certification_reaches_synthesis(monkeypatch):
    monkeypatch.setattr(randfield, "radial_table",
                        functools.partial(radial_table, cert_tol=1e-300))
    cfg = SynthesisConfig(L_max=2, k_max=6.0, k_panels=2, k_order=4)
    pts = np.array([0.2, 0.9, 1.7])
    with pytest.raises(AccuracyError):
        synthesize(Geometry.open(-0.5), GaussianBump(1.0, 3.0, 0.8), cfg,
                   pts, np.full(3, 1.0), np.zeros(3))


# ---------------------------------------------------------------------------
# Addition theorem
# ---------------------------------------------------------------------------

def _geodesic(geom, chi1, chi2, gamma):
    # scaled geodesic distance between two points at polar separation gamma
    if geom.kind.value == "open":
        return math.acosh(math.cosh(chi1) * math.cosh(chi2)
                          - math.sinh(chi1) * math.sinh(chi2) * math.cos(gamma))
    if geom.kind.value == "closed":
        return math.acos(math.cos(chi1) * math.cos(chi2)
                         + math.sin(chi1) * math.sin(chi2) * math.cos(gamma))
    return math.sqrt(chi1 * chi1 + chi2 * chi2 - 2.0 * chi1 * chi2 * math.cos(gamma))


@pytest.mark.parametrize("geom, ks", [(G_OPEN, [0.5, 2.0, 4.0]), (G_FLAT, [0.5, 2.0, 4.0]),
                                      (G_CLOSED, [3.0, 6.0, 11.0])])
def test_addition_theorem(geom, ks):
    # sum_l (2l+1) R_kl(chi1) R_kl(chi2) P_l(cos gamma) = Phi_k(d), with d the
    # geodesic distance and 2/pi on the flat side (R = sqrt(2/pi) j_l): every
    # row enters, so it checks rows l >= 1 that vanish at the origin.  Closed
    # sums end at l = omega and are exact; the others are converged at L = 40.
    omega = np.asarray(geom.omega_of_k(np.array(ks)))
    for chi1, chi2, gamma in ((0.7, 1.1, 0.9), (0.3, 2.0, 2.5), (1.5, 1.5, 0.2), (2.5, 0.4, 3.0)):
        T = radial_table(geom, ks, 40, [chi1, chi2], check=False)   # the theorem is the check
        coef = (2 * np.arange(41) + 1)[:, None] * T[:, :, 0] * T[:, :, 1]
        lhs = np.polynomial.legendre.legval(math.cos(gamma), coef)
        rhs = zonal_spherical(geom, omega, _geodesic(geom, chi1, chi2, gamma))
        if geom.kind.value == "flat":
            rhs = rhs * (2.0 / math.pi)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13, err_msg=str((chi1, chi2, gamma)))


@pytest.mark.parametrize("K", [1e-4, 1e-6])
def test_curved_rows_tend_to_flat(K):
    # The flat limit: at fixed k, open and closed rows tend to sqrt(pi/2) times
    # the flat rows (the ratio of the models' normalizations) within |K|
    # (measured: 0.561|K|), on closed-lattice nodes in [0.5, 8].  A defect in
    # one model's branch leaves a gap that does not shrink with K.  Near k =
    # sqrt(K) the models differ by O(sqrt K): closed rows l > omega vanish there.
    from curvedfield.sft import closed_k_lattice
    closed, chi = Geometry.closed(K), np.linspace(0.0, 2.0, 9)
    k = closed_k_lattice(closed, 8000)[np.unique(np.rint(np.linspace(0.5, 8.0, 40) / math.sqrt(K))
                                                  .astype(int)) - 1]
    flat = math.sqrt(0.5 * math.pi) * radial_table(G_FLAT, k, 6, chi)
    for geom in (closed, Geometry.open(-K)):
        gap = np.max(np.abs(radial_table(geom, k, 6, chi) - flat))
        assert gap <= K, (geom.kind.value, gap / K)


def test_open_synthesis_bytes_reproducible():
    n = 6
    chi, theta, phi = (a.ravel() for a in np.meshgrid(
        np.linspace(0.0, 2.0, n), np.linspace(0.1, 3.0, n), np.linspace(0.0, 6.0, 2 * n),
        indexing="ij"))
    cfg = SynthesisConfig(L_max=12, seed=11, k_max=8.0, k_panels=3, k_order=6)
    payloads = [synthesize(Geometry.open(-0.5), GaussianBump(1.0, 3.0, 0.8), cfg,
                           chi, theta, phi).values.tobytes() for _ in range(2)]
    assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------------
# Zonal spherical functions
# ---------------------------------------------------------------------------

def test_zonal_unit_at_origin_and_bounded():
    r = np.linspace(0.0, 10.0, 200)
    rc = np.linspace(0.0, math.pi, 200)
    for geom, omegas, rr in ((G_OPEN, (0.3, 1.0, 6.0), r),
                             (G_FLAT, (0.3, 1.0, 6.0), r),
                             (G_CLOSED, (0, 1, 5, 12), rc)):
        for om in omegas:
            vals = zonal_spherical(geom, om, rr)
            assert abs(vals[0] - 1.0) < 1e-12
            assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_zonal_elementary_forms():
    r = np.array([0.3, 1.1, 2.5])
    np.testing.assert_allclose(zonal_spherical(G_OPEN, 2.0, r),
                               np.sin(2 * r) / (2 * np.sinh(r)), rtol=1e-13)
    np.testing.assert_allclose(zonal_spherical(G_FLAT, 2.0, r),
                               np.sin(2 * r) / (2 * r), rtol=1e-13)
    np.testing.assert_allclose(zonal_spherical(G_CLOSED, 3, r),
                               np.sin(4 * r) / (4 * np.sin(r)), rtol=1e-13)


def test_zonal_closed_antipodal_parity():
    r = np.linspace(0.05, math.pi / 2, 40)
    for om in (0, 1, 4, 9):
        lhs = zonal_spherical(G_CLOSED, om, math.pi - r)
        rhs = (-1.0) ** om * zonal_spherical(G_CLOSED, om, r)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-13)


def test_zonal_supplementary_series():
    r = np.array([0.01, 1.0, 30.0, 700.0])
    tau = 0.4
    vals = zonal_spherical(G_OPEN, 1j * tau, r)
    assert np.all(np.isfinite(vals))
    # exact form on moderate radii
    ref = np.sinh(tau * 1.0) / (tau * np.sinh(1.0))
    assert abs(vals[1] - ref) < 1e-12
    # tau = 1 is the constant function
    ones = zonal_spherical(G_OPEN, 1j, r)
    np.testing.assert_allclose(ones, 1.0, rtol=1e-12)
    # the exp form, once evaluated at r = 0 too, divided 0 by 0 there
    assert zonal_spherical(G_OPEN, 1j * tau, 0.0) == 1.0


def test_zonal_domain_errors():
    with pytest.raises(DomainError):
        zonal_spherical(G_CLOSED, 2.5, 0.3)
    with pytest.raises(DomainError):
        zonal_spherical(G_CLOSED, 2, 3.5)
    with pytest.raises(DomainError):
        zonal_spherical(G_OPEN, 1 + 1j, 0.3)
    with pytest.raises(DomainError):
        zonal_spherical(G_OPEN, 1.7j, 0.3)
    with pytest.raises(DomainError):
        zonal_spherical(G_OPEN, 1.0, -0.5)
    for r in (math.nan, math.inf, -math.inf):   # before any sine: no RuntimeWarning
        for geom, omega in ((G_OPEN, 1.0), (G_OPEN, 0.4j), (G_CLOSED, 2)):
            with pytest.raises(DomainError, match="finite"):
                zonal_spherical(geom, omega, r)


@pytest.mark.parametrize("call, message", [
    (lambda: specfun.spherical_bessel(-1, 0.5), "l must be >= 0"),
    (lambda: specfun.spherical_bessel(2, [0.5, -0.1]), "x must be finite and >= 0"),
    (lambda: specfun.spherical_bessel(2, [0.5, math.nan]), "x must be finite and >= 0"),
    (lambda: specfun.gegenbauer(0, 2, 0.5), "need p >= 1 and q >= 0"),
    (lambda: conical_legendre(-0.5, 1, 0.5), "omega must be finite and >= 0"),
    (lambda: conical_legendre(2.0, 1, [0.5, 0.0]), "r must be > 0"),
    (lambda: conical_legendre(2.0, 1, [-0.5]), "r must be > 0"),
])
def test_specfun_input_checks(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("geom", [Geometry.open(-1.0), Geometry.flat(), Geometry.closed(1.0)])
def test_zonal_spherical_reads_a_real_complex_omega_as_real(geom):
    r = np.array([0.0, 0.4, 1.3, 2.9])
    omega = np.array([0.0, 1.0, 3.0])
    np.testing.assert_array_equal(zonal_spherical(geom, omega + 0j, r),
                                  zonal_spherical(geom, omega, r))
    np.testing.assert_array_equal(zonal_spherical(geom, np.complex128(2.0), r),
                                  zonal_spherical(geom, 2.0, r))
