"""Span tracing at the package's module boundaries, from outside the package.

`Tracer.install()` replaces the names that a calling module looks up (for
example `curvedfield.randfield.radial`, the name `_synth_l` resolves) with
wrappers that record one span per call: layer name, start, end, parent span
and job id.  Wrapping the caller's name, not the definition, keeps calls made
inside a layer (such as certification's own `radial(check=False)` probes)
inside the caller's span, so nothing is counted twice.  Spans and counters
stay in memory; `per_layer` derives the layer metrics from them afterwards.

Counts are exact.  The contraction flops and bytes are computed from the
array shapes `synthesize` receives, not measured: no hardware counters are
read.
"""
from __future__ import annotations

import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

import curvedfield.cli as cli
import curvedfield.cosmology as cosmology
import curvedfield.randfield as randfield
import curvedfield.sft as sft
import curvedfield.spinfield as spinfield

# (module, attribute the module looks up, layer span name)
WRAPPED = [
    (cli, "load_config", "config"),
    (cli, "apply_schema", "config"),
    (cli, "config_hash", "config"),
    (cli, "synthesize", "randfield.synthesize"),
    (cli, "analytic_correlation", "randfield.analytic_correlation"),
    (cli, "estimate_correlation", "randfield.estimate_correlation"),
    (cli, "forward_isotropic", "sft.forward"),
    (cli, "inverse_isotropic", "sft.inverse"),
    (cli, "make_params", "cosmology"),
    (cli, "geometry_from_params", "cosmology"),
    (cli, "hubble", "cosmology"),
    (cli, "comoving_distance", "cosmology"),
    (cli, "lookback_time", "cosmology"),
    (cosmology, "quad", "cosmology.quad"),
    (cli, "write_field", "fieldfile.write"),
    (cli, "separable_kernels", "spinfield.kernels"),
    (cli, "lensing_ladder", "spinfield.kernels"),
    (cli, "synthesize_spin", "spinfield.synthesize_spin"),
    (randfield, "radial", "specfun.radial"),
    (randfield, "spin_harmonic", "specfun.spin_harmonic"),
    (spinfield, "spin_harmonic", "specfun.spin_harmonic"),
    (randfield, "zonal_spherical", "specfun.zonal_spherical"),
    (sft, "zonal_spherical", "specfun.zonal_spherical"),
    (sft, "zonal_kernel", "sft.zonal_kernel"),
    (randfield, "mode_rng", "randfield.rng"),
    (spinfield, "mode_rng", "randfield.rng"),
    (randfield, "_draw_xi", "randfield.rng"),
]

# layer spans whose self time may dominate a job; cosmology.quad is folded
# into cosmology
SELF_LAYERS = ["cli.main", "config", "randfield.synthesize", "randfield.rng",
               "randfield.analytic_correlation", "randfield.estimate_correlation",
               "specfun.radial", "specfun.spin_harmonic", "specfun.zonal_spherical",
               "spinfield.synthesize_spin", "spinfield.kernels", "sft.forward",
               "sft.inverse", "sft.zonal_kernel", "cosmology", "fieldfile.write"]


def _size(x) -> int:
    return int(np.size(x))


class _TracedGenerator:
    """Generator proxy that records a span and the draw count per draw call."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.call("randfield.rng", self._gen.standard_normal, args, kwargs)
        self._tracer.cur["randfield.rng.draws"] += out.size
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, job)
        self.counts: dict[int, defaultdict] = {}     # job -> counter -> value
        self.job = -1
        self.cur = defaultdict(float)  # counters of the current job
        self._stack: list[int] = []
        self._unique: dict = {}
        self._saved: list = []

    # -- recording ----------------------------------------------------------

    def start_job(self, job: int):
        self.job = job
        self.cur = self.counts.setdefault(job, defaultdict(float))
        self._unique.clear()

    def call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.job)

    def _wrapper(self, name, fn, counter):
        call = self.call

        def traced(*args, **kwargs):
            out = call(name, fn, args, kwargs)
            if counter is not None:
                counter(args, kwargs)
            return out
        traced.__wrapped__ = fn
        return traced

    # counters, run after the span has ended

    def _radial(self, args, kwargs):
        cur = self.cur
        cur["specfun.radial.calls"] += 1
        cur["specfun.radial.certified"] += bool(kwargs.get("check", args[4] if len(args) > 4
                                                          else True))
        cur["specfun.radial.values"] += _size(args[3])

    def _spin_harmonic(self, args, kwargs):
        theta, phi = args[3], args[4]
        key = (id(theta), id(phi))
        if key not in self._unique:      # arrays are kept alive until the job ends
            pairs = np.stack([np.ravel(theta), np.ravel(phi)], axis=1)
            self._unique[key] = (theta, phi, np.unique(pairs, axis=0).shape[0])
        cur = self.cur
        cur["specfun.spin_harmonic.calls"] += 1
        cur["specfun.spin_harmonic.points"] += _size(theta)
        cur["specfun.spin_harmonic.distinct"] += self._unique[key][2]

    def _zonal_spherical(self, args, kwargs):
        cur = self.cur
        cur["specfun.zonal_spherical.calls"] += 1
        cur["specfun.zonal_spherical.points"] += _size(args[2])

    def _zonal_kernel(self, args, kwargs):
        self.cur["sft.zonal_kernel.calls"] += 1

    def _quad(self, args, kwargs):
        self.cur["cosmology.quad_calls"] += 1

    def _write(self, args, kwargs):
        self.cur["fieldfile.write.bytes"] += os.path.getsize(args[0])

    def _streams(self, args, kwargs):
        self.cur["randfield.rng.streams"] += 1

    def _synthesize(self, args, kwargs):
        """Computed cost of the per-l expanded radial matrix and its products."""
        geom, _, cfg, chi = args[:4]
        if geom.kind.value == "closed":
            n_k = cfg.omega_max + 1
        else:
            n_k = cfg.k_panels * cfg.k_order
        n_pts = _size(chi)
        n_l = cfg.L_max + 1
        cur = self.cur
        # one complex (n_real x n_k) @ (n_k x n_pts) product per (l, m) mode,
        # 8 real flops per complex multiply-add
        cur["randfield.contraction.flops"] += 8.0 * cfg.n_realizations * n_k * n_pts * n_l * n_l
        cur["randfield.contraction.bytes"] += 8.0 * n_k * n_pts * n_l
        cur["randfield.contraction.points"] += n_pts
        cur["randfield.contraction.radii"] += np.unique(np.asarray(chi)).size

    # -- installation -------------------------------------------------------

    def install(self):
        counters = {"radial": self._radial, "spin_harmonic": self._spin_harmonic,
                    "zonal_spherical": self._zonal_spherical,
                    "zonal_kernel": self._zonal_kernel, "quad": self._quad,
                    "write_field": self._write, "synthesize": self._synthesize,
                    "mode_rng": self._streams}
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            traced = self._wrapper(name, fn, counters.get(attr))
            if attr == "mode_rng":
                traced = self._rng_wrapper(traced)
            setattr(module, attr, traced)

    def _rng_wrapper(self, traced):
        def mode_rng(*args, **kwargs):
            return _TracedGenerator(self, traced(*args, **kwargs))
        return mode_rng

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def main(self, argv) -> int:
        """cli.main under a root span."""
        return self.call("cli.main", cli.main, (argv,), {})

    # -- derived metrics ----------------------------------------------------

    def job_tables(self):
        """Per job: layer time (outermost spans of a layer) and self time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, job in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer = defaultdict(lambda: defaultdict(float))
        self_t = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, job) in enumerate(spans):
            dur = end - start
            if parent < 0 or spans[parent][0] != name:
                layer[job][name] += dur
            fold = "cosmology" if name == "cosmology.quad" else name
            self_t[job][fold] += dur - child_time[i]
        return layer, self_t


def unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_frac", "_reuse", "_speedup")):
        return "ratio"
    return "count"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(tracer: Tracer, jobs: list[int]) -> tuple[dict, dict]:
    """Per-job medians of every layer metric, and median self time per layer."""
    layer, self_t = tracer.job_tables()

    def med(fn):
        return _median([fn(j) for j in jobs])

    def lt(name):
        return med(lambda j: layer[j].get(name, 0.0))

    def st(name):
        return med(lambda j: self_t[j].get(name, 0.0))

    counts = {j: tracer.counts.get(j, {}) for j in jobs}

    def cnt(key):
        return med(lambda j: counts[j].get(key, 0.0))

    def ratio(num, den):
        return med(lambda j: counts[j].get(num, 0.0) / counts[j][den]
                   if counts[j].get(den) else 0.0)

    m = {
        "specfun.radial.calls": cnt("specfun.radial.calls"),
        "specfun.radial.certified": cnt("specfun.radial.certified"),
        "specfun.radial.values": cnt("specfun.radial.values"),
        "specfun.radial.s": lt("specfun.radial"),
        "specfun.spin_harmonic.calls": cnt("specfun.spin_harmonic.calls"),
        "specfun.spin_harmonic.points": cnt("specfun.spin_harmonic.points"),
        "specfun.spin_harmonic.s": lt("specfun.spin_harmonic"),
        "specfun.spin_harmonic.unique_frac": ratio("specfun.spin_harmonic.distinct",
                                                   "specfun.spin_harmonic.points"),
        "specfun.zonal_spherical.calls": cnt("specfun.zonal_spherical.calls"),
        "specfun.zonal_spherical.points": cnt("specfun.zonal_spherical.points"),
        "specfun.zonal_spherical.s": lt("specfun.zonal_spherical"),
        "randfield.synthesize.s": lt("randfield.synthesize"),
        "randfield.synthesize.self_s": st("randfield.synthesize"),
        "randfield.contraction.flops": cnt("randfield.contraction.flops"),
        "randfield.contraction.bytes": cnt("randfield.contraction.bytes"),
        "randfield.radial_reuse": ratio("randfield.contraction.points",
                                        "randfield.contraction.radii"),
        "randfield.rng.streams": cnt("randfield.rng.streams"),
        "randfield.rng.draws": cnt("randfield.rng.draws"),
        "randfield.rng.s": lt("randfield.rng"),
        "randfield.analytic_correlation.s": lt("randfield.analytic_correlation"),
        "randfield.estimate_correlation.s": lt("randfield.estimate_correlation"),
        "spinfield.synthesize_spin.s": lt("spinfield.synthesize_spin"),
        "spinfield.synthesize_spin.self_s": st("spinfield.synthesize_spin"),
        "spinfield.kernels.s": lt("spinfield.kernels"),
        "sft.forward.s": lt("sft.forward"),
        "sft.inverse.s": lt("sft.inverse"),
        "sft.zonal_kernel.calls": cnt("sft.zonal_kernel.calls"),
        "cosmology.s": lt("cosmology"),
        "cosmology.quad_calls": cnt("cosmology.quad_calls"),
        "fieldfile.write.s": lt("fieldfile.write"),
        "fieldfile.write.bytes": cnt("fieldfile.write.bytes"),
        "config.s": lt("config"),
        "cli.main.s": lt("cli.main"),
        "cli.self_s": st("cli.main"),
    }
    selfs = {name: st(name) for name in SELF_LAYERS}
    return m, selfs
