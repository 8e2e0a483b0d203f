"""Benchmark of the `majorana` command line, run as users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # one summary line each

Run from the root of a source checkout; the program is loaded from `src/`.
Each CLI command is one fresh process, one at a time (a closed loop with a
single client), with BLAS pinned to one thread.  The workload's config is
generated from the seed; the CLI sees only that config.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: the median
wall time of a CLI invocation scaled to a fixed CPU speed (probe.py samples
the speed of the CPU the CLI runs on, while it runs), the median set-up time
(a fresh interpreter importing `majorana.cli` and the submodules the command
loads), and the median peak RSS.  --trace 1 adds one invocation under
perfbench/tracer.py and reports the per-layer metrics from its spans.  Every
invocation's outputs are checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import TARGETS
from workloads import WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
PINNED_THREADS = {var: "1" for var in (
    "MAJORANA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Set-up launches are spread over the run, a few after every invocation, so
# their median does not hang on one stretch of a noisy machine.
SETUP_PER_CYCLE = 2
MIN_INVOCATIONS = 2       # untraced + traced; verify (~12 s each) gets only these
# wall_norm_s scales each invocation's wall time by the CPU's speed during it,
# as probe.py measures it: wall * PROBE_NOMINAL_S / (median probe kernel time
# during the invocation).  setup_s scales the median set-up launch the same
# way, by the median kernel time over all set-up launches of the run.  PROBE_NOMINAL_S is the kernel's time on an idle
# CPU of the 2-vCPU machine the benchmark was tuned on, so both read as
# seconds on that machine when nothing else loads its host.
PROBE_NOMINAL_S = 5.8e-4
MIN_PROBE_SAMPLES = 10    # per invocation
RUN_DEADLINE_S = 170.0    # stop launching and kill what runs past this
LAYERS = ("fourier", "hankel", "spherical", "io", "verify")
VERIFY_SUITES = ("clifford", "lorentz", "fourier", "angular", "hankel")
VERIFY_CHECKS_TIMED = ("hankel.eigen-relation", "fourier.completeness",
                       "angular.omega-relations")


class Probe:
    """probe.py, sampling the CPU's speed for the whole run."""

    def __init__(self, env: dict, path: Path):
        self.path = path
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"),
                                      str(path)], env=env,
                                     stdout=subprocess.DEVNULL)

    def stop(self) -> list:
        """Stop the probe and return its (time, duration) samples."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            return json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            return []


class Launcher:
    """Starts one child at a time and measures its wall time and peak RSS."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_THREADS)

    def run(self, argv: list, stdout: Path | None = None) -> tuple:
        """Return (exit code, wall seconds, peak RSS in MB)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        sink = open(stdout, "wb") if stdout else subprocess.DEVNULL
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=sink, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdout:
                sink.close()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


# -------------------------------------------------------------- per layer

def _self_times(spans: list) -> list:
    """Span duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(trace: dict, traced_wall: float, walls: list,
                  probe_kernel: float, reads, failed_frac: float) -> dict:
    spans = trace["spans"]
    own = _self_times(spans)
    m = {}
    for layer, metric, _, _ in TARGETS:
        m[f"{layer}.{metric}.self_s"] = 0.0
        m[f"{layer}.{metric}.calls"] = 0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for s, t in zip(spans, own):
        m[s["name"] + ".self_s"] += t
        m[s["name"] + ".calls"] += 1
        m[s["name"].split(".")[0] + ".self_s"] += t
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m["cli.self_s"] = traced_wall - roots
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - _median(walls)
    m["untraced.wall_median_s"] = _median(walls)
    m["probe.kernel_s"] = probe_kernel
    m["trace.absent"] = len(trace["absent"])

    counters = trace["counters"]
    for table in ("omegas", "jt"):
        m[f"hankel.{table}.mb"] = counters.get(f"hankel.{table}.mb", 0.0)
    for kind, writers in (("csv", ("write_field_csv", "write_spherical_csv",
                                   "write_spectrum_csv", "write_hankel_csv")),
                          ("bin", ("write_maj1", "write_majs"))):
        nbytes = counters.get(f"io.{kind}.bytes", 0)
        busy = sum(m[f"io.{w}.self_s"] for w in writers)
        m[f"io.{kind}.bytes"] = int(nbytes)
        m[f"io.{kind}.mb_per_s"] = nbytes / 1e6 / busy if busy > 0 else 0.0
    for reader in ("read_maj1", "read_majs"):
        m[f"io.{reader}.self_s"] = reads.read_s.get(reader, 0.0)
        m[f"io.{reader}.calls"] = reads.read_calls.get(reader, 0)

    # verify: time each check from the progress callback, in landing order
    starts = [s["start"] for s in spans if s["name"] == "verify.run_suite"]
    prev = starts[0] if starts else 0.0
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.s"] = 0.0
    for check in VERIFY_CHECKS_TIMED:
        m[f"verify.{check}.s"] = 0.0
    failed = 0
    for t, test_id, passed in trace["check_marks"]:
        suite = test_id.split(".")[0]
        if suite in VERIFY_SUITES:
            m[f"verify.{suite}.s"] += t - prev
        if test_id in VERIFY_CHECKS_TIMED:
            m[f"verify.{test_id}.s"] = t - prev
        failed += not passed
        prev = t
    m["verify.checks.failed"] = failed
    m["checks.failed_frac"] = failed_frac
    return m


# --------------------------------------------------------------- the run

def environment(root: Path, env: dict, seed: int) -> dict:
    probe = subprocess.run([sys.executable, str(HERE / "check.py"), "--env"],
                           env=env, capture_output=True, text=True, timeout=60)
    try:
        versions = json.loads(probe.stdout)
    except json.JSONDecodeError:
        versions = {"numpy": "unknown", "blas": "unknown"}
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or "unknown"
        except OSError:
            commit = "unknown (no git)"
    return {"nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **versions, "threads": PINNED_THREADS, "commit": commit, "seed": seed}


class WorkloadRun:
    """One workload, one seed: set-up launches, CLI invocations, checks."""

    def __init__(self, root: Path, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.wl = WORKLOADS[name]
        self.cfg = self.wl.make_config(random.Random(f"{name}/{seed}"))
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=1))
        self.out = work / "out"
        self.cli_args = [self.wl.command, "--config", str(self.cfg_path),
                         "--out", str(self.out), "--quiet"]
        self.launcher = Launcher(root, time.monotonic() + RUN_DEADLINE_S)
        self.checks = Checks()
        imports = ", ".join(f"majorana.{m}" for m in ("cli",) + self.wl.imports)
        self.setup_argv = [sys.executable, "-c", f"import {imports}"]
        self.setup: list = []
        self.walls: list = []
        self.rss: list = []
        self.windows: list = []   # (start, end) of each untraced invocation
        self.setup_windows: list = []

    def measure_setup(self) -> None:
        """Launch the set-up import a few times."""
        for _ in range(SETUP_PER_CYCLE):
            start = time.monotonic()
            self.setup.append(self.launcher.run(self.setup_argv))
            self.setup_windows.append((start, start + self.setup[-1][1]))

    def kernel_time(self, windows: list) -> float:
        """Median probe kernel time over the samples inside the windows."""
        return _median([d for t, d in self.probe
                        if any(t0 <= t <= t1 for t0, t1 in windows)])

    def check_outputs(self, log: Path):
        """Run check.py on the invocation's outputs (see check.py for why)."""
        argv = [sys.executable, str(HERE / "check.py"), self.name,
                str(self.cfg_path), str(self.out), str(log)]
        timeout = max(1.0, self.launcher.deadline - time.monotonic())
        try:
            proc = subprocess.run(argv, env=self.launcher.env, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return Checks(results=[("output checks ran", False, "timed out")])
        try:
            return Checks(**json.loads(proc.stdout.splitlines()[-1]))
        except (json.JSONDecodeError, IndexError):
            return Checks(results=[("output checks ran", False, proc.stderr[-500:])])

    def invoke(self, traced: bool = False):
        """Run the CLI once and check its outputs.

        Returns (wall, peak RSS, the invocation's checks, trace or None)."""
        shutil.rmtree(self.out, ignore_errors=True)
        log = self.work / "stdout.txt"
        spans = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans),
                    f"{self.name}-{self.seed}", "--"] + self.cli_args
        else:
            argv = [sys.executable, "-m", "majorana.cli"] + self.cli_args
        start = time.monotonic()
        code, wall, rss = self.launcher.run(argv, stdout=log)
        if not traced:
            self.windows.append((start, start + wall))
        chk = self.check_outputs(log)
        chk.add("exit code 0", lambda: code == 0)
        trace = None
        if traced:
            try:
                trace = json.loads(spans.read_text())
            except (OSError, json.JSONDecodeError):
                pass
            chk.add("traced run wrote its spans", lambda: trace is not None)
        self.checks.results.extend(chk.results)
        shutil.rmtree(self.out, ignore_errors=True)
        return wall, rss, chk, trace

    def measure(self, seconds: float, trace: bool):
        """Invoke the CLI until the run has taken `seconds`, counting
        everything: invocations, their checks and the set-up launches.
        Returns the traced invocation."""
        start = time.monotonic()
        probe = Probe(self.launcher.env, self.work / "probe.json")
        try:
            self.launcher.run(self.setup_argv)  # writes bytecode caches
            self.measure_setup()
            traced = self.invoke(traced=True) if trace else None
            cycles = []
            while (len(self.walls) + bool(traced) < MIN_INVOCATIONS
                   or time.monotonic() - start + _median(cycles) <= seconds) \
                    and time.monotonic() + _median(cycles) < self.launcher.deadline:
                t = time.monotonic()
                wall, peak, _, _ = self.invoke()
                self.walls.append(wall)
                self.rss.append(peak)
                self.measure_setup()
                cycles.append(time.monotonic() - t)
        finally:
            self.probe = probe.stop()
        self.speeds = [self.kernel_time([w]) for w in self.windows]
        self.setup_kernel = self.kernel_time(self.setup_windows)
        self.checks.add("set-up imports exit 0",
                        lambda: all(code == 0 for code, _, _ in self.setup))
        self.checks.add("probe sampled every invocation", lambda: all(
            sum(t0 <= t <= t1 for t, _ in self.probe) >= MIN_PROBE_SAMPLES
            for t0, t1 in self.windows))
        self.checks.add("probe sampled the set-up launches", lambda: sum(
            any(t0 <= t <= t1 for t0, t1 in self.setup_windows)
            for t, _ in self.probe) >= MIN_PROBE_SAMPLES)
        return traced

    def report(self, bench: dict, traced) -> tuple:
        """Summary lines and the JSON result."""
        attempted = len(self.checks.results)
        failed = len(self.checks.failed)
        wall = _median(self.walls)
        kernel = _median(self.speeds)
        kernel_min = min((d for _, d in self.probe), default=0.0)
        setup = _median([w for _, w, _ in self.setup])
        values = {"wall_norm_s": _median([w * PROBE_NOMINAL_S / k for w, k in
                                          zip(self.walls, self.speeds) if k > 0]),
                  "setup_s": (setup * PROBE_NOMINAL_S / self.setup_kernel
                              if self.setup_kernel > 0 else 0.0),
                  "peak_rss_mb": _median(self.rss)}
        lines = [f"{self.name} seed {self.seed}: {len(self.walls)} untraced "
                 f"invocations, {attempted} output checks",
                 f"  wall_norm_s  {values['wall_norm_s']:.4f} s   (median; "
                 f"wall time at the probe's nominal CPU speed)",
                 f"  wall_s       {wall:.4f} s   (median; min "
                 f"{min(self.walls):.3f}, max {max(self.walls):.3f})",
                 f"  probe        {kernel * 1e3:.4f} ms   (median kernel time "
                 f"during invocations; {kernel_min * 1e3:.4f} ms fastest of "
                 f"{len(self.probe)})",
                 f"  setup_s      {values['setup_s']:.4f} s   (median of "
                 f"{len(self.setup)} launches, at the probe's nominal CPU "
                 f"speed; raw {setup:.4f} s, probe {self.setup_kernel * 1e3:.4f} ms)",
                 f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
                 f"  failed_frac  {failed / attempted:.4g}   "
                 f"({failed} of {attempted} checks failed)"]
        lines += [f"  FAILED {n}{': ' + d if d else ''}"
                  for n, _, d in self.checks.failed]
        section = "end_to_end"
        if traced:
            traced_wall, _, reads, trace = traced
            trace = trace or {"spans": [], "counters": {}, "check_marks": [],
                              "absent": []}
            values = layer_metrics(trace, traced_wall, self.walls, kernel, reads,
                                   failed / attempted)
            values["untraced.setup_median_s"] = setup
            shares = sorted(((values[f"{k}.self_s"] / traced_wall, k)
                             for k in LAYERS + ("cli",)), reverse=True)
            lines.append("  self time share of traced wall: "
                         + ", ".join(f"{k} {v:.1%}" for v, k in shares))
            if trace["absent"]:
                lines.append(f"  absent: {', '.join(trace['absent'])}")
            section = "per_layer"
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench[section]}
        return lines, {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}


def run_workload(root: Path, bench: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> tuple:
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = WorkloadRun(root, name, seed, work)
        traced = run.measure(seconds, trace)
        return run.report(bench, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Everything runs on one CPU, so the probe samples the CPU the CLI runs on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    root = Path.cwd()
    bench_path = root / "BENCHMARK.json"
    if not bench_path.is_file() or not (root / "src" / "majorana" / "cli.py").is_file():
        print("error: run from the root of a majorana checkout "
              "(BENCHMARK.json and src/majorana are required)", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    env = Launcher(root, time.monotonic() + RUN_DEADLINE_S).env
    print("env " + json.dumps(environment(root, env, args.seed)), flush=True)
    results = {}
    for name in (names if args.workload == "all" else [args.workload]):
        lines, results[name] = run_workload(root, bench, name, args.seed,
                                            seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
