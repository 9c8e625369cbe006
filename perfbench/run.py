"""Outside-in benchmark of the curvedfield CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

Run from the root of a checkout; the package is imported from `src/`.  One
process runs one workload, closed loop: a single client calls
`curvedfield.cli.main([...])` in-process with `--threads 1` and starts the next
job when the previous one has returned and its outputs have been checked.
BLAS keeps its default thread count.

--trace 0 prints the end-to-end metrics, measured without tracing:
  job_s        median wall time of one warm job (the warm-up job is excluded)
  job_s_tail   the workload's tail percentile of job wall time (p90, or p80
               for transform-background), which keeps at least ten samples
               beyond it; the detail line names the percentile and the count
  peak_rss_mb  peak resident set of this process, which runs one workload
  setup_s      median over 5 fresh interpreters of the time to import
               curvedfield.cli and build its parser
Failed jobs (an exception, a nonzero exit code or a failed output check) are
counted in `failed`; fail_frac is failed / attempted.

Job times are in reference seconds.  On a shared 2-vCPU machine the speed of
the CPU itself drifts by 20% over minutes, which no in-process control
removes.  So a fixed calibration kernel (pure Python, numpy ufuncs and a 4 MB
streaming pass; no curvedfield code) is timed right after each job, and each
job time is reported as its wall time times CAL_REF_S / calibration time: the
time the job would take on a machine on which the kernel takes CAL_REF_S.  A
change to curvedfield moves these values in proportion to its wall time; the
raw wall-clock medians are in the detail line.  setup_s stays raw wall time:
import time does not track the kernel, and scaling it made it noisier.

--trace 1 runs half the time untraced and half traced (see spans.py) and
prints the per-layer metrics, trace.overhead_frac (traced cli.main time over
untraced job time, minus 1) and randfield.threads2_speedup: the
synth-open-grid job time at --threads 1 over --threads 2, whose payloads must
be byte-identical.

The last stdout line is the result object; the line before it is a detail
object (percentile, sample counts, self times, machine).  Both are also
written to .perfbench/ in the checkout, with the spans of a traced run.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SPAWNS = 5
TAIL_SAMPLES = 10
PROBE_PAIRS = 5
CAL_REF_S = 0.010
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import curvedfield.cli as c; "
              "c.build_parser(); sys.stdout.write('ready\\n'); sys.stdout.flush()")


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def calibrate() -> float:
    """Wall time of a fixed Python and numpy kernel: the machine-speed yardstick."""
    import numpy as np
    start = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(100):
        a = np.sin(a) + 0.5
    b = np.ones(1 << 19)
    for _ in range(6):
        b += b.sum() * 1e-12
    return time.perf_counter() - start


def measure_setup() -> list[float]:
    """Wall times from spawning a fresh interpreter until its CLI parser is built."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise SystemExit("setup child failed to import curvedfield.cli")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return times


def machine_info() -> dict:
    import numpy
    import scipy
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor() or None,
            "llc": None,
            "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": None, "blas_threads": None,
            "commit": None,
            "note": "no hardware counters or machine settings are used; flop and byte "
                    "counts are computed from array shapes"}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError, ValueError):
        caches = {int(Path(d, "level").read_text()): Path(d, "size").read_text().strip()
                  for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")}
        info["llc"] = caches[max(caches)] if caches else None
    with contextlib.suppress(OSError, AttributeError, IndexError, KeyError):
        info["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        lib = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                     "numpy.libs", "*openblas*"))[0]
        get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        get.restype = ctypes.c_int
        info["blas_threads"] = get()
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        info["commit"] = head
    return info


class Runner:
    """Runs jobs of one workload and counts the failures."""

    def __init__(self, workload, main):
        self.wl = workload
        self.main = main
        self.on_job = None
        self.next_job = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def job(self, j: int, argvs=None, corrupt: bool = False) -> float | None:
        """Wall time of job j's CLI invocations, or None if the job failed."""
        self.attempted += 1
        err = io.StringIO()
        elapsed = 0.0
        try:
            with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
                for argv in argvs or self.wl.argvs(j):
                    start = time.perf_counter()
                    code = self.main(argv)
                    elapsed += time.perf_counter() - start
                    if code != 0:
                        raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
            if corrupt:
                self.wl.corrupt()
            self.wl.check(j)
        except Exception as exc:        # every failure counts, a bare ValueError too
            self.fail(f"job {j}: {type(exc).__name__}: {exc}")
            return None
        return elapsed

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def loop(self, seconds: float) -> tuple[list[float], list[float], list[int]]:
        """Closed loop for `seconds`: wall times, calibration times and ids of
        the jobs that passed."""
        times, cals, jobs = [], [], []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            j = self.next_job
            self.next_job += 1
            if self.on_job:
                self.on_job(j)
            t = self.job(j)
            c = calibrate()
            if t is not None:
                times.append(t)
                cals.append(c)
                jobs.append(j)
        return times, cals, jobs


def reference_seconds(times: list[float], cals: list[float]) -> list[float]:
    return [t * CAL_REF_S / c for t, c in zip(times, cals)]


def tail(times: list[float], pct: int) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) at the workload's tail percentile.

    The percentile is fixed per workload so that runs compare; a run too short
    to leave TAIL_SAMPLES beyond it falls back to a lower one.
    """
    ordered = sorted(times)
    n = len(ordered)
    for p in (pct, 80, 75, 50):
        rank = -(-p * n // 100)          # ceil(p n / 100), 1-based
        if p <= pct and n - rank >= TAIL_SAMPLES:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def thread_probe(synth, main) -> tuple[Runner, float]:
    """synth-open-grid job time at --threads 1 over --threads 2, same payloads."""
    from curvedfield.fieldfile import HEADER_BYTES
    runner = Runner(synth, main)
    times = {1: [], 2: []}
    for i in range(PROBE_PAIRS + 1):
        payload = {}
        for threads in ((1, 2) if i % 2 else (2, 1)):
            t = runner.job(i, synth.argvs(i, threads=threads))
            if t is not None:
                payload[threads] = synth.out.read_bytes()[HEADER_BYTES:]
                if i:                       # the first pair is a warm-up
                    times[threads].append(t)
        if len(payload) == 2 and payload[1] != payload[2]:
            runner.fail(f"probe job {i}: payloads differ between --threads 1 and 2")
    if not (times[1] and times[2]):
        return runner, 0.0
    return runner, statistics.median(times[1]) / statistics.median(times[2])


def end_to_end(runner, wl, seconds, setup, detail) -> dict:
    wall, cals, _ = runner.loop(seconds)
    if not wall:
        return {}
    ref = reference_seconds(wall, cals)
    value, pct, beyond = tail(ref, wl.tail_pct)
    detail.update(jobs=len(ref), tail_percentile=pct, tail_samples_beyond=beyond,
                  job_wall_s=statistics.median(wall), job_wall_tail_s=tail(wall, pct)[0],
                  calibration_s=statistics.median(cals), setup_samples_s=setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"job_s": {"value": statistics.median(ref), "unit": "s"},
            "job_s_tail": {"value": value, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"}}


def traced(runner, wl, seconds, work, main, detail, spans_path) -> dict:
    import workloads
    from spans import Tracer, per_layer, unit

    plain = reference_seconds(*runner.loop(seconds / 2.0)[:2])
    tracer = Tracer()
    runner.main, runner.on_job = tracer.main, tracer.start_job
    tracer.install()
    try:
        wall, cals, jobs = runner.loop(seconds / 2.0)
    finally:
        tracer.uninstall()
        runner.main, runner.on_job = main, None
    if not (plain and jobs):
        return {}
    layer, selfs = per_layer(tracer, jobs)
    # the traced job time is the traced cli.main time plus the root span's cost
    traced_ref = reference_seconds(wall, cals)
    layer["trace.overhead_frac"] = statistics.median(traced_ref) / statistics.median(plain) - 1.0

    probe_dir = work / "probe"
    probe_dir.mkdir()
    probe, layer["randfield.threads2_speedup"] = thread_probe(
        workloads.SynthOpenGrid(probe_dir, wl.seed), main)
    runner.attempted += probe.attempted
    runner.failed += probe.failed
    runner.errors = (runner.errors + probe.errors)[:5]

    detail.update(untraced_jobs=len(plain), traced_jobs=len(jobs), spans=len(tracer.spans),
                  self_s=selfs, dominant_self=max(selfs, key=selfs.get))
    with gzip.open(spans_path, "wt") as fh:
        fh.write("# name, start, end, parent index, job\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {name: {"value": float(v), "unit": unit(name)} for name, v in layer.items()}


def check_sources():
    if not (SRC / "curvedfield" / "cli.py").is_file():
        raise SystemExit(f"no curvedfield sources under {SRC}")


def import_package():
    """Import curvedfield from this checkout's src/, never from elsewhere."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import curvedfield.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"curvedfield was imported from {cli.__file__}, not {SRC}")
    return cli


def run(args) -> int:
    check_sources()
    setup = None if args.trace else measure_setup()
    cli = import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        runner = Runner(wl, cli.main)
        runner.job(runner.next_job)                 # warm-up, not timed
        runner.next_job += 1
        if args.trace:
            metrics = traced(runner, wl, args.seconds, work, cli.main, detail,
                             OUT_DIR / f"{stem}.spans.jsonl.gz")
        else:
            metrics = end_to_end(runner, wl, args.seconds, setup, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print(f"no job passed: {runner.errors}", file=sys.stderr)
        return 1

    detail["errors"] = runner.errors
    detail["machine"] = machine_info()
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result},
                                                     indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def self_test() -> int:
    """Tiny-size smoke run of every workload, plus corrupted outputs that must fail."""
    cli = import_package()
    import workloads
    from spans import Tracer, per_layer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    work = OUT_DIR / f"self-test-{os.getpid()}"
    report, ok = {}, True
    try:
        for name, cls in workloads.WORKLOADS.items():
            d = work / name
            d.mkdir(parents=True)
            wl = cls(d, seed=0, tiny=True)
            runner = Runner(wl, cli.main)
            passed = [runner.job(j) is not None for j in range(2)]
            corrupted = runner.job(2, corrupt=True) is None
            tracer = Tracer()
            runner.main, runner.on_job = tracer.main, tracer.start_job
            tracer.install()
            try:
                runner.on_job(3)
                passed.append(runner.job(3) is not None)
            finally:
                tracer.uninstall()
            names = set(per_layer(tracer, [3])[0]) | {"trace.overhead_frac",
                                                      "randfield.threads2_speedup"}
            entry = {"good_jobs_pass": all(passed), "corrupted_job_fails": corrupted,
                     "fail_frac": runner.failed / runner.attempted,
                     "per_layer_names_match": names == declared, "errors": runner.errors}
            if name == "synth-open-grid":
                # a damaged header number raises a bare ValueError in read_field
                def bad_header(path=wl.out):
                    raw = path.read_bytes()
                    path.write_bytes(raw.replace(b"K=-0.5", b"K=-0.x", 1))
                wl.corrupt = bad_header
                entry["bad_header_fails"] = runner.job(4, corrupt=True) is None
                probe, speedup = thread_probe(wl, cli.main)
                entry["threads_payload_identical"] = probe.failed == 0 and speedup > 0
            ok = ok and all(v for k, v in entry.items() if k not in ("fail_frac", "errors"))
            report[name] = entry
        names = {m["name"] for m in spec["workloads"]}
        ok = ok and names == set(workloads.WORKLOADS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"self_test": "pass" if ok else "fail", "workloads": report}, indent=1))
    return 0 if ok else 1


def record_reference() -> int:
    """Write reference.json: synth-open-grid fingerprints for every pooled seed."""
    cli = import_package()
    import numpy as np
    import workloads
    from curvedfield.fieldfile import read_field

    work = OUT_DIR / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.SynthOpenGrid(work, seed=0)
        n = int(np.prod(wl.shape))
        indices = [int(i) for i in np.linspace(0, n - 1, 48).astype(int)]
        seeds = {}
        for j in range(workloads.REFERENCE_SEEDS):
            with contextlib.redirect_stdout(_Discard()):
                if cli.main(wl.argvs(j)[0]) != 0:
                    raise SystemExit(f"synthesize failed for seed {j}")
            values = read_field(wl.out, verify=True).values
            seeds[str(wl.job_seed(j))] = workloads.fingerprint(values, indices)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref = {"workload": wl.name, "config_sha256": workloads.config_sha(wl.entries),
           "tolerance": 1e-9, "indices": indices, "seeds": seeds}
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE} ({len(seeds)} seeds)")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.record_reference:
        return record_reference()
    if not args.workload:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
