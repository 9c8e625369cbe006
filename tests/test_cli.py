import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvedfield
from curvedfield import __version__, cli
from curvedfield.cli import _write_table, main
from curvedfield.config import config_hash
from curvedfield.cosmology import (comoving_distance, hubble, lookback_time,
                                   make_params)
from curvedfield.fieldfile import HEADER_BYTES, read_field
from curvedfield.geometry import Geometry
from curvedfield.quadrature import gauss_legendre_grid
from curvedfield.randfield import PowerLaw, SynthesisConfig, Tabulated, synthesize
from curvedfield.sft import RadialProfile, bump_profile, forward_isotropic, spectral_nodes

BG_CFG = """
cosmology.h0 = 67.8
cosmology.omega_m = 0.315
cosmology.omega_l = 0.685
cosmology.omega_r = 4.9e-5
cosmology.omega_k = solve
grid.z_max = 4.0
grid.n_z = 9
"""

SYN_CFG = """
geometry.kind = flat
spectrum.form = gaussian_bump
spectrum.amplitude = 1.0
spectrum.k0 = 3.0
spectrum.sigma = 0.8
synthesis.l_max = 5
synthesis.k_max = 8.0
synthesis.k_panels = 12
synthesis.k_order = 8
grid.n_chi = 3
grid.chi_max = 2.0
grid.n_theta = 4
grid.n_phi = 6
"""

# the synthesis config without its grid, as an estimate config
EST_CFG = "".join(line + "\n" for line in SYN_CFG.splitlines() if not line.startswith("grid.")) \
    + "estimate.n_realizations = 50\nestimate.lags = 0.3\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_table(path):
    notes, header, rows = [], None, []
    for line in open(path, encoding="utf-8"):
        line = line.strip()
        if line.startswith("#"):
            notes.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    return notes, {name: data[:, i] for i, name in enumerate(header)}


def test_background_matches_library(tmp_path):
    cfg = write(tmp_path, "bg.cfg", BG_CFG)
    out = str(tmp_path / "bg.csv")
    assert main(["background", "--config", cfg, "--out", out]) == 0
    notes, cols = read_table(out)
    assert any(n.startswith("# curvedfield ") for n in notes)
    assert any("config sha256:" in n for n in notes)
    params = make_params(67.8, 0.315, 0.685, 4.9e-5)
    z = np.linspace(0.0, 4.0, 9)
    np.testing.assert_allclose(cols["z"], z, atol=1e-14)
    np.testing.assert_allclose(cols["hubble_km_s_mpc"], hubble(params, z),
                               rtol=1e-12)
    np.testing.assert_allclose(cols["comoving_distance_mpc"],
                               comoving_distance(params, z), rtol=1e-7)
    np.testing.assert_allclose(cols["lookback_gyr"],
                               lookback_time(params, z, unit="Gyr"),
                               rtol=1e-7)
    # one look-back integral serves both columns, with lookback_time's conversion
    np.testing.assert_array_equal(cols["lookback_gyr"],
                                  lookback_time(params, cols["z"], unit="Gyr"))


def test_background_stdout(tmp_path, capsys):
    cfg = write(tmp_path, "bg.cfg", BG_CFG)
    assert main(["background", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# curvedfield ")
    assert "z,hubble_km_s_mpc" in out


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", BG_CFG + "cosmo.h0 = 1\n")
    assert main(["background", "--config", cfg]) == 2
    assert "cosmo.h0" in capsys.readouterr().err


def test_duplicate_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "dup.cfg", BG_CFG + "cosmology.h0 = 70\n")
    assert main(["background", "--config", cfg]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["background", "--config", str(tmp_path / "none.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_background_bad_redshift_grid(tmp_path, capsys):
    for n_z in ("0", "-1"):
        cfg = write(tmp_path, "nz.cfg", BG_CFG.replace("grid.n_z = 9", f"grid.n_z = {n_z}"))
        assert main(["background", "--config", cfg]) == 2
        assert "grid.n_z" in capsys.readouterr().err
    cfg = write(tmp_path, "nan.cfg", BG_CFG.replace("grid.z_max = 4.0", "grid.z_max = nan"))
    out = tmp_path / "bg.csv"
    assert main(["background", "--config", cfg, "--out", str(out)]) == 3
    assert "NaN" in capsys.readouterr().err
    assert not out.exists()


# the closed profile and grid of the CI smoke step (k tail 6.3e-8)
TR_CLOSED_CFG = """
geometry.kind = closed
geometry.k = 1.0
profile.center = 1.5
profile.halfwidth = 1.4
grid.chi_max = 3.141592653589793
grid.panels = 100
spectral.omega_max = 300
"""


def test_transform_roundtrip_note(tmp_path):
    flat = """
geometry.kind = flat
transform.mode = roundtrip
profile.center = 2.0
profile.halfwidth = 1.8
grid.chi_max = 4.5
grid.panels = 85
grid.order = 12
spectral.k_max = 150.0
"""
    for text in (flat, TR_CLOSED_CFG):
        cfg = write(tmp_path, "tr.cfg", text)
        out = str(tmp_path / "tr.csv")
        assert main(["transform", "--config", cfg, "--out", out]) == 0
        notes, cols = read_table(out)
        err_note = [n for n in notes if "roundtrip error" in n]
        assert err_note
        err = float(err_note[0].split(":")[1])
        assert err < 1e-6
        np.testing.assert_allclose(cols["f_back"], cols["f_in"],
                                   atol=1e-6 * np.max(np.abs(cols["f_in"])))


def test_transform_convergence_failure_exits_4(tmp_path, capsys):
    # bump support spills past the chi grid: the tail monitor must trip
    cfg = write(tmp_path, "tr.cfg", """
geometry.kind = flat
transform.mode = forward
profile.center = 3.0
profile.halfwidth = 2.0
grid.chi_max = 4.0
grid.panels = 32
grid.order = 8
spectral.k_max = 20.0
""")
    assert main(["transform", "--config", cfg, "--tolerance", "1e-9"]) == 4
    assert "tail" in capsys.readouterr().err
    # the closed lattice's k tail went unchecked, and these exited 0: 16 chi panels
    # (k tail 0.515, roundtrip error 2.35), omega_max 30 on 64 (4.6e-3, 6.2e-3), a
    # lattice of 7 points (0.156, 0.177) or of 4 (all tail), and any forward
    for side, panels, omega_max, frac in (
            ("inverse", 16, 300, "5.15e-01"), ("inverse", 64, 30, "4.60e-03"),
            ("inverse", 100, 6, "1.56e-01"), ("inverse", 100, 3, "1.00e+00"),
            ("forward", 16, 300, "5.15e-01")):
        cfg = write(tmp_path, "tr.cfg", TR_CLOSED_CFG.replace(
            "grid.panels = 100", f"grid.panels = {panels}").replace(
            "spectral.omega_max = 300", f"spectral.omega_max = {omega_max}")
            + ("transform.mode = forward\n" if side == "forward" else ""))
        out = tmp_path / "tr.csv"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 4
        assert f"{side} transform k tail carries {frac}" in capsys.readouterr().err
        assert not out.exists()


def test_transform_forward_table_is_the_library_forward(tmp_path):
    # the CI flat forward config (k tail 7.3e-6)
    cfg = write(tmp_path, "tr.cfg", """
geometry.kind = flat
profile.center = 2.0
profile.halfwidth = 1.8
grid.chi_max = 4.5
grid.panels = 64
spectral.k_max = 150
transform.mode = forward
""")
    out = str(tmp_path / "tr.csv")
    assert main(["transform", "--config", cfg, "--out", out]) == 0
    notes, cols = read_table(out)
    assert list(cols) == ["k", "f00"] and not [n for n in notes if "roundtrip" in n]
    geom = Geometry.flat()
    chi, wchi = gauss_legendre_grid(0.0, 4.5, 64, 12)
    k, wk = spectral_nodes(geom, 150.0, 64, 12, None)
    spec = forward_isotropic(RadialProfile(geom, chi, bump_profile(chi, 2.0, 1.8), wchi), k, wk)
    np.testing.assert_array_equal(cols["k"], spec.k)
    np.testing.assert_array_equal(cols["f00"], spec.values)


def test_transform_without_spectral_grid_exits_2(tmp_path, capsys):
    # the closed model needs spectral.omega_max, open and flat spectral.k_max
    body = """
transform.mode = forward
profile.center = 1.0
profile.halfwidth = 0.5
grid.chi_max = 2.0
grid.panels = 8
"""
    for head, missing in (
            ("geometry.kind = closed\ngeometry.k = 0.5\nspectral.k_max = 10.0",
             "spectral.omega_max"),
            ("geometry.kind = open\ngeometry.k = -1.0\nspectral.omega_max = 8",
             "spectral.k_max")):
        cfg = write(tmp_path, "tr.cfg", head + body)
        assert main(["transform", "--config", cfg]) == 2
        assert missing in capsys.readouterr().err


def test_missing_synthesis_measure_key_exits_2(tmp_path, capsys):
    # the sampler once reported the missing key as a domain error (exit 3)
    closed = SYN_CFG.replace("geometry.kind = flat", "geometry.kind = closed\ngeometry.k = 1.0")
    open_est = EST_CFG.replace("geometry.kind = flat", "geometry.kind = open\ngeometry.k = -1.0")
    for command, text, missing in (
            ("synthesize", closed, "synthesis.omega_max"),
            ("estimate", open_est.replace("synthesis.k_max = 8.0\n", ""), "synthesis.k_max")):
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, "m.cfg", text), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert missing in captured.err, captured.err
        assert captured.out == "" and not out.exists()


def test_domain_error_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", SYN_CFG.replace(
        "geometry.kind = flat", "geometry.kind = closed\ngeometry.k = -1.0"))
    out = str(tmp_path / "f.cfd")
    assert main(["synthesize", "--config", cfg, "--out", out]) == 3
    assert "domain error" in capsys.readouterr().err


def test_nan_spectrum_and_kernel_amplitudes_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, "nan.cfg", SYN_CFG.replace("spectrum.amplitude = 1.0",
                                                     "spectrum.amplitude = nan"))
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "f.out")]) == 3
    assert "domain error" in capsys.readouterr().err
    cfg = write(tmp_path, "spin.cfg", """
spin.s = 2
spin.l_max = 4
kernel.amplitude = nan
grid.chi_max = 2.0
""")
    assert main(["spin", "--config", cfg, "--out", str(tmp_path / "g.cfd")]) == 3
    assert "domain error" in capsys.readouterr().err
    assert not (tmp_path / "f.out").exists() and not (tmp_path / "g.cfd").exists()


def test_non_finite_k_max_exits_3(tmp_path, capsys):
    # inf once became NaN nodes, two RuntimeWarnings (errors in this suite) and
    # "P(k) must be finite"
    cases = [("synthesize", SYN_CFG, "synthesis.k_max = 8.0", "synthesis.k_max = inf"),
             ("synthesize", SYN_CFG, "synthesis.k_max = 8.0", "synthesis.k_max = nan"),
             ("estimate", EST_CFG, "synthesis.k_max = 8.0",
              "synthesis.k_max = 8.0\nanalytic.k_max = inf"),
             ("transform", TR_CFG, "spectral.k_max = 40.0", "spectral.k_max = inf")]
    for command, text, old, new in cases:
        cfg = write(tmp_path, "k.cfg", text.replace(old, new))
        out = tmp_path / "k.out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert "k_max" in capsys.readouterr().err
        assert not out.exists()


def test_estimate_checks_analytic_before_synthesis(tmp_path, capsys, monkeypatch):
    # a bad analytic.* once surfaced only after the Monte Carlo synthesis had run,
    # and so did one realization, as "need ref (N,), lagged (N, L) with N >= 2",
    # which names no key
    calls = []
    monkeypatch.setattr(cli, "synthesize", lambda *a: calls.append(a))
    one = EST_CFG.replace("estimate.n_realizations = 50", "estimate.n_realizations = 1")
    for text, err in [(EST_CFG + "analytic.k_max = inf\n", "k_max"),
                      (one, "estimate.n_realizations must be >= 2, got 1")]:
        cfg = write(tmp_path, "est.cfg", text)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 3
        assert err in capsys.readouterr().err
        assert calls == [] and not out.exists()


def test_explicit_invalid_grid_values_exit_3(tmp_path, capsys):
    # 0 and -1 once read as absent: analytic.k_max = 0 fell back to the synthesis
    # k_max and exited 0, synthesis.k_max = 0 reported "got None", and the
    # transform's spectral.k_max = 0 and spectral.omega_max = -1 exited 2
    closed = SYN_CFG.replace("geometry.kind = flat", "geometry.kind = closed\ngeometry.k = 1.0")
    cases = [("estimate", EST_CFG + "analytic.k_max = 0\n", "k_max", "got 0.0"),
             ("synthesize", SYN_CFG.replace("synthesis.k_max = 8.0", "synthesis.k_max = 0"),
              "k_max", "got 0.0"),
             ("synthesize", closed + "synthesis.omega_max = -1\n", "omega_max", "got -1"),
             ("transform", TR_CFG.replace("spectral.k_max = 40.0", "spectral.k_max = 0"),
              "k_max", "got 0.0"),
             ("transform", TR_CLOSED_CFG.replace("spectral.omega_max = 300",
                                                 "spectral.omega_max = -1"), "omega_max", "got -1")]
    for command, text, key, value in cases:
        out = tmp_path / "out"
        assert main([command, "--config", write(tmp_path, "v.cfg", text), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert key in err and value in err, err
        assert not out.exists()


def test_synthesize_container_and_thread_invariance(tmp_path, capsys):
    cfg = write(tmp_path, "syn.cfg", SYN_CFG)
    paths = [str(tmp_path / f"f{i}.cfd") for i in range(3)]
    for path, threads in zip(paths, ("1", "2", "8")):
        assert main(["synthesize", "--config", cfg, "--out", path,
                     "--seed", "11", "--threads", threads]) == 0
    payloads = [open(p, "rb").read()[HEADER_BYTES:] for p in paths]
    assert payloads[0] == payloads[1] == payloads[2]
    ff = read_field(paths[0])
    assert ff.spin == 0 and ff.seed == 11
    assert ff.values.shape == (3, 4, 6)
    assert ff.config_hash != "-"
    assert np.all(np.isfinite(ff.values))
    assert "sha256=" in capsys.readouterr().out


def test_synthesize_prints_the_rms_of_the_container(tmp_path, capsys):
    # a complex field's rms is sqrt(mean |z|^2); the printed Re sqrt(mean z^2)
    # came with a ComplexWarning, which the suite raises as an error
    for real in ("true", "false"):
        cfg = write(tmp_path, "syn.cfg", SYN_CFG + f"synthesis.real = {real}\n")
        out = str(tmp_path / f"{real}.cfd")
        assert main(["synthesize", "--config", cfg, "--out", out, "--seed", "4"]) == 0
        values = read_field(out).values
        assert np.iscomplexobj(values) == (real == "false")
        rms = float(np.sqrt(np.mean(np.abs(values) ** 2)))
        assert capsys.readouterr().out.split()[-1] == f"rms={rms:.6g}"


def test_synthesize_requires_out(tmp_path):
    cfg = write(tmp_path, "syn.cfg", SYN_CFG)
    assert main(["synthesize", "--config", cfg]) == 2


def test_threads_flag_is_ignored(tmp_path):
    cfg = write(tmp_path, "syn.cfg", SYN_CFG)
    a = str(tmp_path / "a.cfd")
    b = str(tmp_path / "b.cfd")
    assert main(["synthesize", "--config", cfg, "--out", a,
                 "--threads", "2"]) == 0
    assert main(["synthesize", "--config", cfg, "--out", b]) == 0
    assert open(a, "rb").read()[HEADER_BYTES:] == \
        open(b, "rb").read()[HEADER_BYTES:]


def test_estimate_reports_z_scores(tmp_path):
    cfg = write(tmp_path, "est.cfg", """
geometry.kind = flat
spectrum.form = gaussian_bump
spectrum.k0 = 3.0
spectrum.sigma = 0.8
synthesis.l_max = 4
synthesis.k_max = 8.0
synthesis.k_panels = 12
synthesis.k_order = 8
estimate.n_realizations = 300
estimate.lags = 0.3, 0.8
""")
    out = str(tmp_path / "est.csv")
    assert main(["estimate", "--config", cfg, "--out", out,
                 "--seed", "42"]) == 0
    notes, cols = read_table(out)
    assert any("max |z|" in n for n in notes)
    assert any("# seed: 42" in n for n in notes)
    assert cols["lag"].tolist() == [0.3, 0.8]
    assert np.all(np.isfinite(cols["z"]))
    assert np.all(cols["z"] < 6.0)
    assert np.all(cols["stderr"] > 0)


def test_spin_writes_complex_container(tmp_path, capsys):
    cfg = write(tmp_path, "spin.cfg", """
spin.s = 2
spin.l_max = 6
lensing.observable = gamma
grid.n_chi = 3
grid.chi_max = 2.0
grid.n_theta = 4
grid.n_phi = 6
""")
    out = str(tmp_path / "g.cfd")
    assert main(["spin", "--config", cfg, "--out", out, "--seed", "5"]) == 0
    assert "multipoles l=2..6" in capsys.readouterr().out
    ff = read_field(out)
    assert ff.spin == 2
    assert ff.values.dtype == np.complex128
    assert ff.values.shape == (3, 4, 6)
    # zero variance at the chi = 0 shell
    assert np.all(ff.values[0] == 0.0)
    assert np.all(ff.values[1:] != 0.0)


def test_spin_mismatched_observable_exits_2(tmp_path):
    cfg = write(tmp_path, "spin.cfg", """
spin.s = 1
spin.l_max = 4
lensing.observable = gamma
grid.chi_max = 2.0
""")
    assert main(["spin", "--config", cfg, "--out",
                 str(tmp_path / "x.cfd")]) == 2


def test_spin_l_max_past_harmonic_ceiling_exits_3(tmp_path, capsys):
    cfg = write(tmp_path, "spin.cfg", """
spin.s = 0
spin.l_max = 129
grid.chi_max = 2.0
""")
    assert main(["spin", "--config", cfg, "--out", str(tmp_path / "x.cfd")]) == 3
    assert "harmonic ceiling" in capsys.readouterr().err
    assert not (tmp_path / "x.cfd").exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551615"])
def test_spin_seed_outside_63_bits_exits_3(tmp_path, capsys, seed):
    # both once exited 0 and wrote the same field under different recorded seeds
    cfg = write(tmp_path, "spin.cfg", """
spin.s = 2
spin.l_max = 4
lensing.observable = gamma
grid.n_chi = 3
grid.chi_max = 2.0
""")
    out = tmp_path / "x.cfd"
    assert main(["spin", "--config", cfg, "--out", str(out), "--seed", seed]) == 3
    assert "non-negative 63-bit integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["spin", "background"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    # an --out in a missing directory once raised FileNotFoundError: a traceback, exit 1
    text = {"spin": "spin.s = 2\nspin.l_max = 4\nlensing.observable = gamma\ngrid.chi_max = 2.0\n",
            "background": BG_CFG}[command]
    out = tmp_path / "missing" / "x.out"
    assert main([command, "--config", write(tmp_path, "run.cfg", text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.parent.exists()


def test_csv_rows_match_per_value_formatting(tmp_path):
    # the one-pass table format must print what f"{v:.17g}" printed per value
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                        1e-310, 0.1, 1.0 / 3.0, -2.5e-17, 1e16, 12345678901234567.0,
                        1.7976931348623157e308, 123456789.12345678, -1.0000000000000002])
    cplx = np.empty(special.size, dtype=complex)
    cplx.real, cplx.imag = special, special[::-1]
    columns = {"a": special, "b": special[::-1] * -1.0, "n": np.arange(special.size),
               "c": cplx}
    out = tmp_path / "t.csv"
    _write_table(argparse.Namespace(out=str(out), command="test"), {"x": "1"}, columns,
                 notes=["note"])
    expect = ["# curvedfield %s test" % __version__, "# config sha256: %s" % config_hash({"x": "1"}),
              "# note", "a,b,n,c"]
    expect += [",".join(f"{v:.17g}" for v in row) for row in zip(*columns.values())]
    assert out.read_text(encoding="utf-8") == "\n".join(expect) + "\n"
    # a table without rows is its header alone
    _write_table(argparse.Namespace(out=str(out), command="test"), {"x": "1"},
                 {"a": special[:0], "c": cplx[:0]})
    assert out.read_text(encoding="utf-8") == "\n".join(expect[:2] + ["a,c"]) + "\n"


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert "curvedfield" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["unknown-command"]) == 2


def test_main_runs_again_in_one_process(tmp_path, capsys):
    # one parser per process, and one re-keyed Philox per synthesis
    assert cli.build_parser() is cli.build_parser()
    syn = write(tmp_path, "syn.cfg", SYN_CFG)
    out = tmp_path / "syn.cfd"
    assert main(["synthesize", "--config", syn, "--out", str(out), "--bogus"]) == 2
    assert main(["--version"]) == 0
    assert f"curvedfield {__version__}" in capsys.readouterr().out
    assert main(["synthesize", "--config", syn, "--out", str(out), "--seed", "5"]) == 0
    assert read_field(out).seed == 5
    assert main(["synthesize", "--config", syn, "--out", str(out)]) == 0
    assert read_field(out).seed == 0
    spin = write(tmp_path, "spin.cfg", SPIN_CFG + "lensing.observable = gamma\n")
    payloads = []
    for name in ("a.cfd", "b.cfd"):
        assert main(["spin", "--config", spin, "--out", str(tmp_path / name), "--seed", "7"]) == 0
        payloads.append((tmp_path / name).read_bytes()[HEADER_BYTES:])
    assert payloads[0] == payloads[1]
    assert np.any(read_field(tmp_path / "a.cfd").values != 0.0)


def test_background_config_errors_exit_2(tmp_path, capsys):
    for old, new, key in (("omega_k = solve", "omega_k = abc", "cosmology.omega_k"),
                          ("z_max = 4.0", "z_max = inf", "grid.z_max"),
                          ("z_max = 4.0", "z_max = -1", "grid.z_max")):
        cfg = write(tmp_path, "bad.cfg", BG_CFG.replace(old, new))
        assert main(["background", "--config", cfg]) == 2
        assert key in capsys.readouterr().err


def test_background_tolerance_is_checked(tmp_path, capsys):
    cfg = write(tmp_path, "bg.cfg", BG_CFG)
    for tol in ("0", "-1", "nan", "inf"):
        assert main(["background", "--config", cfg, "--tolerance", tol]) == 3
        assert "rtol" in capsys.readouterr().err
    assert main(["background", "--config", cfg, "--tolerance", "1e-300"]) == 4
    assert "did not converge" in capsys.readouterr().err


TR_CFG = """
geometry.kind = flat
profile.center = 2.0
profile.halfwidth = 1.8
grid.chi_max = 4.5
grid.panels = 16
spectral.k_max = 40.0
"""


def test_transform_tolerance_is_checked(tmp_path, capsys):
    cfg = write(tmp_path, "tr.cfg", TR_CFG)
    for tol in ("0", "-1", "nan", "inf"):
        assert main(["transform", "--config", cfg, "--tolerance", tol]) == 3
        assert "tolerance must be finite and > 0" in capsys.readouterr().err
    # a tiny positive tolerance still reaches the tail monitor
    assert main(["transform", "--config", cfg, "--tolerance", "1e-300"]) == 4
    assert "tail" in capsys.readouterr().err


def test_transform_non_finite_profile_exits_3(tmp_path, capsys):
    # a NaN center once wrote an all-zero table with roundtrip error 0
    for key in ("profile.center", "profile.halfwidth"):
        cfg = write(tmp_path, "tr.cfg", "\n".join(
            f"{key} = nan" if line.startswith(key) else line for line in TR_CFG.splitlines()))
        out = tmp_path / "tr.csv"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 3
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_removed_measure_keys_exit_2(tmp_path, capsys):
    # one closed weight and one inverse constant per model: the keys that chose
    # the printed forms are unknown in every mode
    cases = [("synthesize", SYN_CFG, "synthesis.closed_weight", v) for v in ("plancherel",
                                                                             "printed")]
    cases += [("transform", TR_CFG + f"transform.mode = {mode}\n", "transform.normalization", v)
              for mode in ("forward", "inverse", "roundtrip") for v in ("consistent", "printed")]
    # the k grid is the chi grid's panels and order, the profile amplitude 1, and
    # the analytic order the library's 12
    cases += [("transform", TR_CFG, key, v) for key, v in (
        ("spectral.panels", 16), ("spectral.order", 8), ("profile.amplitude", 2.0))]
    cases += [("estimate", EST_CFG, "analytic.order", 12)]
    for command, text, key, value in cases:
        cfg = write(tmp_path, "old.cfg", text + f"{key} = {value}\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"unknown config key(s): {key}" in capsys.readouterr().err
        assert not out.exists()


def test_transform_inverse_mode_exits_2(tmp_path, capsys):
    # the inverse mode ran the roundtrip and dropped its f_in column
    cfg = write(tmp_path, "tr.cfg", TR_CFG + "transform.mode = inverse\n")
    out = tmp_path / "tr.csv"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "transform.mode must be forward or roundtrip" in err and not out.exists()


def tabulated_cfg(tmp_path, rows):
    """A synthesize config reading P(k) from a table of rows (None: no table file)."""
    table = tmp_path / "P.csv"
    if rows is None:
        table.unlink(missing_ok=True)
    else:
        table.write_text(rows)
    return write(tmp_path, "tab.cfg", SYN_CFG.replace(
        "spectrum.form = gaussian_bump", f"spectrum.form = tabulated\nspectrum.file = {table}"))


def test_tabulated_spectrum_synthesizes_as_the_library(tmp_path):
    k = np.array([0.0, 1.5, 3.0, 5.0, 8.0])
    P = np.array([0.0, 0.4, 1.0, 0.3, 0.0])
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(k.tolist(), P.tolist()))
    cfg = tabulated_cfg(tmp_path, rows)
    out = str(tmp_path / "tab.cfd")
    assert main(["synthesize", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    chi = np.linspace(0.0, 2.0, 3)
    theta = (np.arange(4) + 0.5) * math.pi / 4
    phi = np.arange(6) * 2.0 * math.pi / 6
    cc, tt, pp = np.meshgrid(chi, theta, phi, indexing="ij")
    ref = synthesize(Geometry.flat(), Tabulated(k, P),
                     SynthesisConfig(L_max=5, seed=3, k_max=8.0, k_panels=12, k_order=8),
                     cc.ravel(), tt.ravel(), pp.ravel())
    np.testing.assert_array_equal(read_field(out).values, ref.values[0].reshape(3, 4, 6))


def test_power_law_spectrum_synthesizes_as_the_library(tmp_path):
    cfg = write(tmp_path, "pl.cfg", SYN_CFG.replace("spectrum.form = gaussian_bump", """\
spectrum.form = power_law
spectrum.index = -1.5
spectrum.k_cut_low = 0.5
spectrum.k_cut_high = 6.0"""))
    out = str(tmp_path / "pl.cfd")
    assert main(["synthesize", "--config", cfg, "--out", out, "--seed", "3"]) == 0
    chi = np.linspace(0.0, 2.0, 3)
    theta = (np.arange(4) + 0.5) * math.pi / 4
    phi = np.arange(6) * 2.0 * math.pi / 6
    cc, tt, pp = np.meshgrid(chi, theta, phi, indexing="ij")
    ref = synthesize(Geometry.flat(), PowerLaw(1.0, -1.5, 0.5, 6.0),
                     SynthesisConfig(L_max=5, seed=3, k_max=8.0, k_panels=12, k_order=8),
                     cc.ravel(), tt.ravel(), pp.ravel())
    np.testing.assert_array_equal(read_field(out).values, ref.values[0].reshape(3, 4, 6))


SPIN_CFG = """
spin.s = 2
spin.l_max = 4
grid.n_chi = 3
grid.chi_max = 2.0
"""


@pytest.mark.parametrize("command, text, out, message", [
    ("synthesize", SYN_CFG.replace("kind = flat", "kind = spherical"), True,
     "geometry.kind must be open, flat or closed, not 'spherical'"),
    ("synthesize", SYN_CFG.replace("gaussian_bump", "lognormal"), True,
     "unknown spectrum.form 'lognormal'"),
    ("synthesize", SYN_CFG.replace("grid.n_chi = 3", "grid.n_chi = 0"), True,
     "grid sizes must be >= 1"),
    ("synthesize", SYN_CFG.replace("grid.n_theta = 4", "grid.n_theta = 0"), True,
     "grid sizes must be >= 1"),
    ("spin", SPIN_CFG + "grid.n_phi = -1\n", True, "grid sizes must be >= 1"),
    ("estimate", EST_CFG.replace("lags = 0.3", "lags = 0.3, near"), False,
     "estimate.lags must be comma-separated floats, got '0.3, near'"),
    ("estimate", EST_CFG.replace("lags = 0.3", "lags = ,"), False, "estimate.lags is empty"),
    ("spin", SPIN_CFG, False, "spin needs --out for the field container"),
    ("spin", SPIN_CFG + "lensing.observable = shear\n", True,
     "lensing.observable must be one of ['F', 'G', 'gamma', 'kappa'], not 'shear'"),
])
def test_config_errors_exit_2(tmp_path, capsys, command, text, out, message):
    path = tmp_path / "out"
    argv = [command, "--config", write(tmp_path, "bad.cfg", text)]
    assert main(argv + ["--out", str(path)] * out) == 2
    assert message in capsys.readouterr().err
    assert not path.exists()


def test_tabulated_spectrum_errors(tmp_path, capsys):
    # a one-row table was read as a 1-d array and blamed on its columns
    out = tmp_path / "tab.cfd"
    cfg = write(tmp_path, "none.cfg", SYN_CFG.replace("gaussian_bump", "tabulated"))
    assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 2
    assert "needs spectrum.file" in capsys.readouterr().err
    for rows, code, message in ((None, 2, "cannot read spectrum table"),
                                ("0\n1\n2\n", 2, "two columns"),
                                ("0,0\n", 3, ">= 2 samples"),
                                ("0,1\n1,-1\n", 3, "P samples must be finite and >= 0"),
                                ("1,1\n1,2\n", 3, "strictly increasing")):
        cfg = tabulated_cfg(tmp_path, rows)
        assert main(["synthesize", "--config", cfg, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_cli_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(curvedfield.__file__).parents[1])}
    code = "import sys, curvedfield.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
