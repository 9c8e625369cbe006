"""The four benchmark workloads: config files, CLI invocations and output checks.

Every workload writes its config files once, from the run seed, and then
repeats one job.  A job is a fixed list of `curvedfield` CLI invocations;
`check` verifies the job's outputs and raises on any defect, and `corrupt`
damages them (used only by the self-test, to show that defects are caught).
The sizes are chosen so that a job takes 0.1-0.4 s on a 2-core x86 machine,
which leaves enough jobs in one run for a tail percentile with at least ten
samples beyond it, while each workload keeps the dominant layer it was chosen
for.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from curvedfield.config import config_hash, parse_config_text
from curvedfield.fieldfile import HEADER_BYTES, FieldFile, read_field, write_field

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEEDS = 32       # synth-open-grid job seeds cycle through this pool
Z_BOUND = 5.0              # acceptance 5
ROUNDTRIP_BOUND = 1e-6     # acceptance 4


class CheckFailure(Exception):
    """A job's output is wrong."""


def _require(ok, message: str):
    if not ok:
        raise CheckFailure(message)


def _cfg_text(entries: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV table; provenance comment lines are skipped."""
    rows, header = [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    _require(header is not None and rows, f"{path.name}: no table")
    data = np.array(rows, dtype=float)
    return {name: data[:, i] for i, name in enumerate(header)}


def _flip_payload_byte(path: Path):
    raw = bytearray(path.read_bytes())
    raw[HEADER_BYTES + (len(raw) - HEADER_BYTES) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


class Workload:
    """One workload: `argvs(j)` lists job j's CLI invocations."""

    name = ""
    tail_pct = 90          # fixed per workload so that runs compare

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed

    def _write(self, name: str, entries: dict) -> Path:
        path = self.dir / name
        path.write_text(_cfg_text(entries), encoding="utf-8")
        return path

    def job_seed(self, j: int) -> int:
        return (self.seed * 100_003 + j) % (1 << 62)

    def argvs(self, j: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, j: int):
        raise NotImplementedError

    def corrupt(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------

class SynthOpenGrid(Workload):
    name = "synth-open-grid"

    def __init__(self, workdir, seed, tiny=False):
        super().__init__(workdir, seed)
        self.entries = synth_open_grid_config(tiny)
        self.cfg = self._write("synth.cfg", self.entries)
        self.out = self.dir / "synth.cfd"
        self.shape = tuple(int(self.entries[f"grid.n_{a}"]) for a in ("chi", "theta", "phi"))
        self.reference = load_reference(self.entries)

    def job_seed(self, j):
        # a small pool of seeds, so that every job has recorded reference values
        return (self.seed + j) % REFERENCE_SEEDS

    def argvs(self, j, threads: int = 1):
        return [["synthesize", "--config", str(self.cfg), "--out", str(self.out),
                 "--seed", str(self.job_seed(j)), "--threads", str(threads)]]

    def check(self, j):
        ff = read_field(self.out, verify=True)
        vals = ff.values
        _require(vals.shape == self.shape, f"grid shape {vals.shape}")
        _require(ff.seed == self.job_seed(j), "seed not recorded")
        _require(np.all(np.isfinite(vals)), "non-finite values")
        _require(float(np.max(np.abs(vals))) > 0.0, "field is identically zero")
        if self.reference is not None:
            ref = self.reference["seeds"][str(self.job_seed(j))]
            got = fingerprint(vals, self.reference["indices"])
            tol = self.reference["tolerance"] * ref["rms"]
            _require(abs(got["rms"] - ref["rms"]) <= tol, "rms differs from reference")
            diff = np.max(np.abs(np.array(got["values"]) - np.array(ref["values"])))
            _require(diff <= tol, f"values differ from reference by {diff:.3e}")

    def corrupt(self):
        _flip_payload_byte(self.out)


def synth_open_grid_config(tiny: bool) -> dict:
    size = (dict(l_max=2, panels=2, order=4, n_chi=3, n_theta=4, n_phi=8) if tiny else
            dict(l_max=4, panels=2, order=6, n_chi=12, n_theta=16, n_phi=32))
    return {
        "geometry.kind": "open", "geometry.k": -0.5,
        "spectrum.form": "gaussian_bump", "spectrum.amplitude": 1.0,
        "spectrum.k0": 3.0, "spectrum.sigma": 0.8,
        "synthesis.l_max": size["l_max"], "synthesis.k_max": 8.0,
        "synthesis.k_panels": size["panels"], "synthesis.k_order": size["order"],
        "grid.n_chi": size["n_chi"], "grid.chi_max": 2.0,
        "grid.n_theta": size["n_theta"], "grid.n_phi": size["n_phi"],
    }


def config_sha(entries: dict) -> str:
    return config_hash(parse_config_text(_cfg_text(entries)))


def fingerprint(values: np.ndarray, indices) -> dict:
    flat = values.ravel()
    return {"rms": float(np.sqrt(np.mean(flat ** 2))),
            "values": [float(flat[i]) for i in indices]}


def load_reference(entries: dict):
    """Recorded fingerprints for this config, or None if none were recorded."""
    try:
        ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return ref if ref["config_sha256"] == config_sha(entries) else None


# ---------------------------------------------------------------------------

class McFlatLags(Workload):
    name = "mc-flat-lags"
    lags = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

    def __init__(self, workdir, seed, tiny=False):
        super().__init__(workdir, seed)
        self.k_max, self.k0, self.sigma = 8.0, 3.0, 0.8
        self.cfg = self._write("mc.cfg", {
            "geometry.kind": "flat",
            "spectrum.form": "gaussian_bump", "spectrum.amplitude": 1.0,
            "spectrum.k0": self.k0, "spectrum.sigma": self.sigma,
            "synthesis.l_max": 1 if tiny else 2, "synthesis.k_max": self.k_max,
            "synthesis.k_panels": 2 if tiny else 4, "synthesis.k_order": 6,
            "estimate.n_realizations": 3000 if tiny else 12000,
            "estimate.lags": ",".join(str(r) for r in self.lags),
            "analytic.panels": 50,
        })
        self.out = self.dir / "mc.csv"
        self.expected = self._correlation(np.array(self.lags))

    def _correlation(self, r: np.ndarray) -> np.ndarray:
        """C(r) = int_0^k_max k^2 P(k) sin(kr)/(kr) dk, by an independent rule."""
        x, w = np.polynomial.legendre.leggauss(400)
        k = 0.5 * self.k_max * (x + 1.0)
        w = 0.5 * self.k_max * w
        pk = np.exp(-0.5 * ((k - self.k0) / self.sigma) ** 2)
        return np.array([np.sum(w * k * k * pk * np.sinc(k * rr / math.pi)) for rr in r])

    def argvs(self, j):
        return [["estimate", "--config", str(self.cfg), "--out", str(self.out),
                 "--seed", str(self.job_seed(j)), "--threads", "1"]]

    def check(self, j):
        cols = read_table(self.out)
        _require(np.array_equal(cols["lag"], np.array(self.lags)), "lags differ")
        scale = float(np.max(np.abs(self.expected)))
        _require(np.max(np.abs(cols["analytic"] - self.expected)) <= 1e-9 * scale,
                 "analytic correlation differs from the independent quadrature")
        stderr = cols["stderr"]
        _require(np.all(np.isfinite(stderr)) and np.all(stderr > 0), "bad stderr")
        z = np.abs(cols["estimate"] - self.expected) / stderr
        _require(float(np.max(z)) < Z_BOUND, f"max |z| = {float(np.max(z)):.2f}")

    def corrupt(self):
        # push the first lag's estimate 12 standard errors away
        lines = self.out.read_text(encoding="utf-8").splitlines()
        i = next(n for n, line in enumerate(lines) if not line.startswith("#")) + 1
        vals = [float(v) for v in lines[i].split(",")]
        vals[1] += 12.0 * vals[2]
        lines[i] = ",".join(f"{v:.17g}" for v in vals)
        self.out.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------

class SpinShear(Workload):
    name = "spin-shear"

    def __init__(self, workdir, seed, tiny=False):
        super().__init__(workdir, seed)
        self.shape = (4, 6, 12) if tiny else (16, 12, 24)
        self.cfg = self._write("spin.cfg", {
            "spin.s": 2, "spin.l_max": 6 if tiny else 24,
            "lensing.observable": "gamma",
            "grid.n_chi": self.shape[0], "grid.chi_max": 3.0,
            "grid.n_theta": self.shape[1], "grid.n_phi": self.shape[2],
        })
        self.out = self.dir / "spin.cfd"

    def argvs(self, j):
        return [["spin", "--config", str(self.cfg), "--out", str(self.out),
                 "--seed", str(self.job_seed(j))]]

    def check(self, j):
        ff = read_field(self.out, verify=True)
        vals = ff.values
        _require(ff.spin == 2 and vals.shape == self.shape, "spin or grid shape")
        _require(ff.chi[0] == 0.0, "first shell is not chi = 0")
        _require(np.all(np.isfinite(vals)), "non-finite values")
        _require(np.all(vals[0] == 0.0), "chi = 0 shell is not exactly zero")
        _require(np.any(vals[1:] != 0.0), "field is identically zero")

    def corrupt(self):
        # a well-formed container whose chi = 0 shell is not zero
        ff = read_field(self.out, verify=True)
        vals = ff.values.copy()
        vals[0, 0, 0] = 1e-3
        write_field(self.out, FieldFile(ff.geometry, ff.spin, ff.seed, ff.chi, ff.theta,
                                        ff.phi, vals, ff.config_hash, ff.created))


# ---------------------------------------------------------------------------

class TransformBackground(Workload):
    name = "transform-background"
    tail_pct = 80          # about 70 jobs per 20 s run

    def __init__(self, workdir, seed, tiny=False):
        # tiny keeps the full size: the roundtrip bound needs this resolution
        super().__init__(workdir, seed)
        # the roundtrip error moves with where the bump's edges fall between
        # quadrature nodes, up to 1e-6 for nearby profiles, so the profiles are
        # the acceptance-4 ones and the seed varies only the background model
        common = {"transform.mode": "roundtrip", "grid.order": 12,
                  "profile.center": 2.0, "profile.halfwidth": 1.8, "grid.chi_max": 4.5,
                  "grid.panels": 85}
        self.cfgs = {
            "open": self._write("tr_open.cfg", {
                "geometry.kind": "open", "geometry.k": -1.0, **common,
                "spectral.k_max": 200.0}),
            "flat": self._write("tr_flat.cfg", {
                "geometry.kind": "flat", **common, "spectral.k_max": 150.0}),
            "closed": self._write("tr_closed.cfg", {
                "geometry.kind": "closed", "geometry.k": 1.0, **common,
                "profile.center": 1.5, "profile.halfwidth": 1.4,
                "grid.chi_max": math.pi, "grid.panels": 79, "spectral.omega_max": 200}),
        }
        u = np.random.default_rng(seed).uniform(size=3)
        self.h0 = 67.8 + 4.0 * (u[0] - 0.5)
        self.om = 0.315 + 0.02 * (u[1] - 0.5)
        self.ol = 0.685 + 0.02 * (u[2] - 0.5)
        self.orad = 4.9e-5
        self.bg_cfg = self._write("bg.cfg", {
            "cosmology.h0": self.h0, "cosmology.omega_m": self.om,
            "cosmology.omega_l": self.ol, "cosmology.omega_r": self.orad,
            "cosmology.omega_k": "solve", "grid.z_max": 4.0, "grid.n_z": 33})

    def argvs(self, j):
        out = [["transform", "--config", str(cfg), "--out", str(self.dir / f"tr_{kind}.csv")]
               for kind, cfg in self.cfgs.items()]
        out.append(["background", "--config", str(self.bg_cfg),
                    "--out", str(self.dir / "bg.csv")])
        return out

    def check(self, j):
        for kind in self.cfgs:
            cols = read_table(self.dir / f"tr_{kind}.csv")
            f_in = cols["f_in"]
            err = np.max(np.abs(cols["f_back"] - f_in)) / np.max(np.abs(f_in))
            _require(err < ROUNDTRIP_BOUND, f"{kind} roundtrip error {err:.3e}")
        cols = read_table(self.dir / "bg.csv")
        x, w = np.polynomial.legendre.leggauss(64)
        for i, z in enumerate(cols["z"]):
            u = 0.5 * z * (x + 1.0)
            chi = 299792.458 / self.h0 * 0.5 * z * np.sum(w / self._efunc(u))
            t_l = 0.5 * z * np.sum(w / ((1 + u) * self._efunc(u)))
            _require(math.isclose(cols["comoving_distance_mpc"][i], chi, rel_tol=1e-7,
                                  abs_tol=1e-9), f"comoving distance at z={z}")
            _require(math.isclose(cols["lookback_h0"][i], t_l, rel_tol=1e-7,
                                  abs_tol=1e-12), f"lookback time at z={z}")
            _require(math.isclose(cols["hubble_km_s_mpc"][i], self.h0 * self._efunc(z),
                                  rel_tol=1e-12), f"hubble rate at z={z}")

    def _efunc(self, z):
        """H(z)/H0 with Omega_K solved from the sum rule."""
        ok = 1.0 - self.orad - self.om - self.ol
        zp = 1.0 + np.asarray(z)
        return np.sqrt(self.orad * zp ** 4 + self.om * zp ** 3 + ok * zp ** 2 + self.ol)

    def corrupt(self):
        path = self.dir / "tr_open.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        i = len(lines) // 2
        vals = [float(v) for v in lines[i].split(",")]
        vals[2] += 1e-3
        lines[i] = ",".join(f"{v:.17g}" for v in vals)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


WORKLOADS = {w.name: w for w in (SynthOpenGrid, McFlatLags, SpinShear, TransformBackground)}
