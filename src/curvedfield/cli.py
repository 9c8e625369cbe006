"""Command line interface.

    curvedfield background  --config run.cfg [--out table.csv] [--tolerance T]
    curvedfield transform   --config run.cfg [--out table.csv] [--tolerance T]
    curvedfield synthesize  --config run.cfg --out field.cfd [--seed S]
    curvedfield estimate    --config run.cfg [--out table.csv] [--seed S]
    curvedfield spin        --config run.cfg --out field.cfd [--seed S]

Configs are flat key=value files (see config module).  Exit codes: 0 success, 2
configuration, usage or I/O error, 3 invalid domain or malformed data, 4 failed
convergence or accuracy certification.  CSV outputs carry provenance comments (library
version, command, config hash, seed); binary outputs use the field container (see
fieldfile module).  --threads is parsed and ignored so existing command lines still run:
the draw size and the free CPUs set the threads (see randfield), never the bits.  The
parser is built once per process, on first use (not at import), and shared by later calls.
"""
from __future__ import annotations

import argparse
import math
import sys
from functools import cache

import numpy as np

from . import __version__
from .config import Option, _coerce, apply_schema, config_hash, load_config
from .cosmology import (comoving_distance, geometry_from_params, hubble, lookback_time,
                        make_params, to_gyr)
from .errors import (AccuracyError, ConfigError, ConvergenceError, DomainError,
                     FieldFileError, KernelDefinitenessError)
from .fieldfile import FieldFile, write_field
from .geometry import Geometry, Kind
from .quadrature import gauss_legendre_grid
from .randfield import (GaussianBump, PowerLaw, SynthesisConfig, Tabulated,
                        analytic_correlation, estimate_correlation, synthesize)
from .sft import (RadialProfile, bump_profile, forward_isotropic,
                  roundtrip_isotropic, spectral_nodes)
from .sft import inverse_isotropic  # noqa: F401  (unused; perfbench/spans.py wraps it)
from .specfun import HARMONIC_L_MAX
from .spinfield import LENSING_SPINS, lensing_ladder, separable_kernels, synthesize_spin


def _provenance(args, raw) -> list[str]:
    lines = [f"# curvedfield {__version__} {args.command}",
             f"# config sha256: {config_hash(raw)}"]
    if getattr(args, "seed", None) is not None:
        lines.append(f"# seed: {args.seed}")
    return lines


def _write_table(args, raw, columns: dict[str, np.ndarray], notes=()):
    lines = _provenance(args, raw) + [f"# {n}" for n in notes]
    lines.append(",".join(columns))
    # one %-format over the whole table prints real values exactly as f"{v:.17g}";
    # %-formatting has no complex conversion, so complex columns (estimates
    # of a complex field) are formatted up front
    cols, fmts = [], []
    for v in columns.values():
        v = np.atleast_1d(np.asarray(v))
        if np.iscomplexobj(v):
            cols.append([f"{x:.17g}" for x in v.tolist()])
            fmts.append("%s")
        else:
            cols.append(v.tolist())
            fmts.append("%.17g")
    cells = tuple([x for row in zip(*cols) for x in row])
    text = "\n".join(lines) + "\n" + (",".join(fmts) + "\n") * (len(cells) // len(fmts)) % cells
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _geometry(cfg, prefix="geometry") -> Geometry:
    kind = cfg[f"{prefix}.kind"]
    K = cfg[f"{prefix}.k"]
    if kind == "flat":
        return Geometry.flat()
    if kind == "open":
        return Geometry.open(K)
    if kind == "closed":
        return Geometry.closed(K)
    raise ConfigError(f"{prefix}.kind must be open, flat or closed, not {kind!r}")


def _check_measure(cfg, geom: Geometry, section: str):
    """ConfigError unless cfg sets <section>.omega_max (closed) or <section>.k_max (open, flat)."""
    if cfg[key := f"{section}.{'omega_max' if geom.kind is Kind.CLOSED else 'k_max'}"] is None:
        raise ConfigError(f"the {geom.kind.value} spectral measure needs {key}")


_GEOM_SCHEMA = {
    "geometry.kind": Option("str"),
    "geometry.k": Option("float", 0.0),
}

_SPECTRUM_SCHEMA = {
    "spectrum.form": Option("str"),
    "spectrum.amplitude": Option("float", 1.0),
    "spectrum.index": Option("float", 0.0),
    "spectrum.k_cut_low": Option("float", 0.0),
    "spectrum.k_cut_high": Option("float", math.inf),
    "spectrum.k0": Option("float", 1.0),
    "spectrum.sigma": Option("float", 0.5),
    "spectrum.file": Option("str", ""),
}

_SYNTH_SCHEMA = {
    "synthesis.l_max": Option("int"),
    "synthesis.k_max": Option("float", None),
    "synthesis.k_panels": Option("int", 48),
    "synthesis.k_order": Option("int", 12),
    "synthesis.omega_max": Option("int", None),
    "synthesis.real": Option("bool", True),
}


def _spectrum(cfg):
    form = cfg["spectrum.form"]
    if form == "power_law":
        return PowerLaw(cfg["spectrum.amplitude"], cfg["spectrum.index"],
                        cfg["spectrum.k_cut_low"], cfg["spectrum.k_cut_high"])
    if form == "gaussian_bump":
        return GaussianBump(cfg["spectrum.amplitude"], cfg["spectrum.k0"],
                            cfg["spectrum.sigma"])
    if form == "tabulated":
        path = cfg["spectrum.file"]
        if not path:
            raise ConfigError("spectrum.form=tabulated needs spectrum.file")
        try:
            table = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read spectrum table {path}: {exc}") from None
        if table.shape[1] != 2:
            raise ConfigError("spectrum table must have two columns: k, P")
        return Tabulated(table[:, 0], table[:, 1])
    raise ConfigError(f"unknown spectrum.form {form!r}")


def _synth_config(cfg, seed, n_realizations=1) -> SynthesisConfig:
    return SynthesisConfig(
        L_max=cfg["synthesis.l_max"], seed=seed,
        k_max=cfg["synthesis.k_max"],
        k_panels=cfg["synthesis.k_panels"], k_order=cfg["synthesis.k_order"],
        omega_max=cfg["synthesis.omega_max"],
        n_realizations=n_realizations, real=cfg["synthesis.real"])


def _tensor_grid(cfg):
    nchi, ntheta, nphi = cfg["grid.n_chi"], cfg["grid.n_theta"], cfg["grid.n_phi"]
    if min(nchi, ntheta, nphi) < 1:
        raise ConfigError("grid sizes must be >= 1")
    chi = np.linspace(cfg["grid.chi_min"], cfg["grid.chi_max"], nchi)
    theta = (np.arange(ntheta) + 0.5) * math.pi / ntheta
    phi = np.arange(nphi) * 2.0 * math.pi / nphi
    return chi, theta, phi


_GRID_SCHEMA = {
    "grid.n_chi": Option("int", 8),
    "grid.chi_min": Option("float", 0.0),
    "grid.chi_max": Option("float"),
    "grid.n_theta": Option("int", 8),
    "grid.n_phi": Option("int", 16),
}


# ---------------------------------------------------------------------------
# background
# ---------------------------------------------------------------------------

def cmd_background(args) -> int:
    raw = load_config(args.config)
    cfg = apply_schema(raw, {
        "cosmology.h0": Option("float"),
        "cosmology.omega_m": Option("float"),
        "cosmology.omega_l": Option("float"),
        "cosmology.omega_r": Option("float", 0.0),
        "cosmology.omega_k": Option("str", ""),
        "grid.z_max": Option("float", 10.0),
        "grid.n_z": Option("int", 65),
    })
    omega_k = cfg["cosmology.omega_k"]
    omega_k = None if omega_k in ("", "solve") else _coerce("cosmology.omega_k", omega_k, "float")
    params = make_params(cfg["cosmology.h0"], cfg["cosmology.omega_m"],
                         cfg["cosmology.omega_l"], cfg["cosmology.omega_r"], omega_k)
    geom = geometry_from_params(params)
    rtol = 1e-8 if args.tolerance is None else args.tolerance
    if cfg["grid.n_z"] < 1:
        raise ConfigError("grid.n_z must be >= 1")
    if math.isinf(cfg["grid.z_max"]) or cfg["grid.z_max"] < 0:    # NaN stays a DomainError
        raise ConfigError("grid.z_max must be finite and >= 0")
    z = np.linspace(0.0, cfg["grid.z_max"], cfg["grid.n_z"])
    lookback = lookback_time(params, z, rtol=rtol)
    table = {
        "z": z,
        "hubble_km_s_mpc": hubble(params, z),
        "comoving_distance_mpc": comoving_distance(params, z, rtol=rtol),
        "lookback_h0": lookback,
        "lookback_gyr": to_gyr(params, lookback),
    }
    notes = [
        f"omega_k: {params.Omega_K:.17g} (closure residual {params.closure_residual:.3e})",
        f"geometry: {geom.kind.value} K={geom.K:.17g} Mpc^-2",
    ]
    _write_table(args, raw, table, notes)
    return 0


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def cmd_transform(args) -> int:
    raw = load_config(args.config)
    cfg = apply_schema(raw, {
        **_GEOM_SCHEMA,
        "transform.mode": Option("str", "roundtrip"),
        "profile.center": Option("float"),
        "profile.halfwidth": Option("float"),
        "grid.chi_max": Option("float"),
        "grid.panels": Option("int", 64),
        "grid.order": Option("int", 12),
        "spectral.k_max": Option("float", None),
        "spectral.omega_max": Option("int", None),
    })
    geom = _geometry(cfg)
    mode = cfg["transform.mode"]
    if mode not in ("forward", "roundtrip"):
        raise ConfigError(f"transform.mode must be forward or roundtrip, not {mode!r}")
    tail_tol = 1e-3 if args.tolerance is None else args.tolerance
    if not 0.0 < tail_tol < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {tail_tol}")
    panels, order = cfg["grid.panels"], cfg["grid.order"]
    chi, wchi = gauss_legendre_grid(0.0, cfg["grid.chi_max"], panels, order)
    f = bump_profile(chi, cfg["profile.center"], cfg["profile.halfwidth"])
    profile = RadialProfile(geom, chi, f, wchi)
    _check_measure(cfg, geom, "spectral")
    k, wk = spectral_nodes(geom, cfg["spectral.k_max"], panels, order, cfg["spectral.omega_max"])
    if mode == "forward":
        spec = forward_isotropic(profile, k, wk, tail_tol=tail_tol)
        _write_table(args, raw, {"k": spec.k, "f00": spec.values})
        return 0
    _, back = roundtrip_isotropic(profile, k, wk, tail_tol=tail_tol)
    scale = float(np.max(np.abs(f))) or 1.0
    err = float(np.max(np.abs(back.values - f))) / scale
    _write_table(args, raw, {"chi": chi, "f_in": f, "f_back": back.values},
                 [f"max relative roundtrip error: {err:.6e}"])
    return 0


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def cmd_synthesize(args) -> int:
    raw = load_config(args.config)
    cfg = apply_schema(raw, {**_GEOM_SCHEMA, **_SPECTRUM_SCHEMA,
                             **_SYNTH_SCHEMA, **_GRID_SCHEMA})
    if not args.out:
        raise ConfigError("synthesize needs --out for the field container")
    geom = _geometry(cfg)
    _check_measure(cfg, geom, "synthesis")
    P = _spectrum(cfg)
    scfg = _synth_config(cfg, args.seed)
    chi, theta, phi = _tensor_grid(cfg)
    cc, tt, pp = np.meshgrid(chi, theta, phi, indexing="ij")
    field = synthesize(geom, P, scfg, cc.ravel(), tt.ravel(), pp.ravel())
    values = field.values[0].reshape(chi.size, theta.size, phi.size)
    digest = write_field(args.out, FieldFile(
        geom, 0, args.seed, chi, theta, phi, values, config_hash(raw)))
    print(f"wrote {args.out} sha256={digest} "
          f"rms={float(np.sqrt(np.mean(np.abs(values) ** 2))):.6g}")
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def cmd_estimate(args) -> int:
    raw = load_config(args.config)
    cfg = apply_schema(raw, {
        **_GEOM_SCHEMA, **_SPECTRUM_SCHEMA, **_SYNTH_SCHEMA,
        "estimate.n_realizations": Option("int", 2000),
        "estimate.lags": Option("str"),
        "analytic.k_max": Option("float", None),
        "analytic.panels": Option("int", 200),
    })
    geom = _geometry(cfg)
    _check_measure(cfg, geom, "synthesis")
    P = _spectrum(cfg)
    try:
        lags = np.array([float(tok) for tok in cfg["estimate.lags"].split(",") if tok.strip()])
    except ValueError:
        raise ConfigError(f"estimate.lags must be comma-separated floats, got "
                          f"{cfg['estimate.lags']!r}") from None
    if lags.size == 0:
        raise ConfigError("estimate.lags is empty")
    if (n := cfg["estimate.n_realizations"]) < 2:      # the jackknife needs two; checked before any draw
        raise DomainError(f"estimate.n_realizations must be >= 2, got {n}")
    scfg = _synth_config(cfg, args.seed, n_realizations=n)
    chi = np.concatenate([[0.0], lags])
    k_max = scfg.k_max if cfg["analytic.k_max"] is None else cfg["analytic.k_max"]
    ana = analytic_correlation(geom, P, lags, k_max=k_max, panels=cfg["analytic.panels"],
                               omega_max=scfg.omega_max)    # checks analytic.* first
    # the law is the same on every ray; on the polar axis (theta = 0) the rows of every
    # m but 0 are exact zeros, so the synthesis draws L + 1 modes, not (L + 1)^2
    field = synthesize(geom, P, scfg, chi, np.zeros_like(chi), np.zeros_like(chi))
    est = estimate_correlation(field.values[:, 0], field.values[:, 1:])
    z = np.abs(est.mean - ana) / np.where(est.stderr > 0, est.stderr, np.inf)
    notes = [f"realizations: {est.n}", f"max |z|: {float(np.max(z)):.3f}"]
    _write_table(args, raw, {"lag": lags, "estimate": est.mean,
                             "stderr": est.stderr, "analytic": ana, "z": z}, notes)
    return 0


# ---------------------------------------------------------------------------
# spin
# ---------------------------------------------------------------------------

def cmd_spin(args) -> int:
    raw = load_config(args.config)
    cfg = apply_schema(raw, {
        "spin.s": Option("int"),
        "spin.l_max": Option("int"),
        "kernel.amplitude": Option("float", 1.0),
        "kernel.corr_length": Option("float", 1.0),
        "kernel.ell_scale": Option("float", 8.0),
        "lensing.observable": Option("str", ""),
        **_GRID_SCHEMA,
    })
    if not args.out:
        raise ConfigError("spin needs --out for the field container")
    s, L = cfg["spin.s"], cfg["spin.l_max"]
    if L > HARMONIC_L_MAX:
        raise DomainError(f"spin.l_max={L} exceeds the harmonic ceiling {HARMONIC_L_MAX}")
    chi, theta, phi = _tensor_grid(cfg)
    observable = cfg["lensing.observable"]
    if observable:
        if observable not in LENSING_SPINS:
            raise ConfigError(f"lensing.observable must be one of "
                              f"{sorted(LENSING_SPINS)}, not {observable!r}")
        if s != LENSING_SPINS[observable]:
            raise ConfigError(f"spin.s={s} does not match {observable} "
                              f"(s={LENSING_SPINS[observable]})")
    s0 = 0 if observable else s                   # a lensing observable ladders the s=0 potential
    kernels = separable_kernels(s0, np.arange(abs(s0), L + 1), chi, cfg["kernel.amplitude"],
                                cfg["kernel.corr_length"], cfg["kernel.ell_scale"])
    if observable:
        kernels = lensing_ladder(kernels, observable)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    field = synthesize_spin(s, kernels, tt.ravel(), pp.ravel(), args.seed)
    values = field.values[0].reshape(chi.size, theta.size, phi.size)
    geom = Geometry.flat()   # container geometry tag; spin sampling is per-shell
    digest = write_field(args.out, FieldFile(
        geom, s, args.seed, chi, theta, phi, values, config_hash(raw)))
    print(f"wrote {args.out} sha256={digest} multipoles l={kernels.ell.min()}"
          f"..{kernels.ell.max()}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedfield",
        description="Spectral tools for fields on constant-curvature backgrounds.")
    parser.add_argument("--version", action="version",
                        version=f"curvedfield {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, seed=False, threads=False, tolerance=False):
        p = subs.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
        if threads:
            p.add_argument("--threads", type=int, default=None,
                           help="ignored; kept so existing command lines still run")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=None,
                           help="numerical tolerance override")
        p.set_defaults(func=func)
        return p

    add("background", cmd_background, "FLRW background table", tolerance=True)
    add("transform", cmd_transform, "isotropic transform of a built-in profile",
        tolerance=True)
    add("synthesize", cmd_synthesize, "draw a Gaussian field realization",
        seed=True, threads=True)
    add("estimate", cmd_estimate, "Monte Carlo check of the two-point function",
        seed=True, threads=True)
    add("spin", cmd_spin, "draw a spin-weighted field realization", seed=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except OSError as exc:                      # an unwritable --out
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, KernelDefinitenessError, FieldFileError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, AccuracyError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
