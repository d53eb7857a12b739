#!/usr/bin/env python3
"""Benchmark of the hyposym CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each command runs in a fresh interpreter
(``perfbench/child.py``) with ``PYTHONPATH=src``, one at a time: a closed
loop with one client.  ``--trace 0`` repeats the workload's command for about
S seconds, at least MIN_REPS times, with set-up probes between the
repetitions, and reports the end-to-end metrics (medians over the samples);
``--trace 1`` runs the command traced between two untraced runs, checks that
the traced outputs are byte-identical to the untraced ones, adds the
fixed-seed kernel table, and reports the per-layer metrics.  The metric
names and units are those of ``BENCHMARK.json``.  Every run's outputs go
through the correctness gate of ``perfbench/gate.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Mismatch, Reference, sha256
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
# Repetitions of the command in a --trace 0 run, however long they take.
MIN_REPS = 3
# Set-up-only processes before each repetition of the command.
SETUP_PROBES_PER_REP = 3
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list) -> dict:
    """Run perfbench/child.py to completion; return its JSON plus resource use.

    ``setup_s`` runs from just before the process is started to the moment
    the child had parsed its config.  ``cpu_s`` and ``rss_mb`` are the
    child's user + sys time and peak resident set, from wait4.
    """
    log = WORK / "child.out"
    with log.open("w+") as stdout:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                stdout=stdout, env=_child_env(), cwd=ROOT)
        deadline = start + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchError(f"child {args[0]} ran past {CHILD_TIMEOUT_S} s")
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        lines = stdout.read().splitlines()
    result = {"status": proc.returncode, "cpu_s": usage.ru_utime + usage.ru_stime,
              "rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and lines:
        result.update(json.loads(lines[-1]))
        if "ready" in result:
            result["setup_s"] = result["ready"] - start
    return result


def spawn_or_fail(args: list) -> dict:
    result = spawn(args)
    if result["status"] != 0:
        raise BenchError(f"child {' '.join(args)} exited with {result['status']}")
    return result


def _blas_threads():
    """OpenBLAS thread count of numpy's bundled BLAS, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _cache_sizes() -> dict:
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0].lower()] = int(parts[1])
    return sizes


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "caches": _cache_sizes(),
    }


class BenchRun:
    """One benchmark run of one workload: set-up samples, command reps, gate."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = Reference(workload.name)
        self.config = WORK / "config.json"
        self.config.write_text(json.dumps(workload.config_for(seed)))
        self.setup_s: list = []
        self.reps: list = []
        self.failures: list = []
        self.deviations: list = []

    def child_args(self, mode: str, out: Path) -> list:
        return [mode, str(self.config), self.workload.command, str(out)]

    def warm_up(self):
        """One untimed set-up process: byte-compiles hyposym, warms the file cache."""
        spawn_or_fail(self.child_args("setup", WORK / "out"))

    def probe_setup(self):
        self.setup_s.append(spawn_or_fail(self.child_args("setup", WORK / "out"))["setup_s"])

    def command(self, out: Path, spans: Path | None = None) -> dict:
        """One gated run of the workload's command; outputs stay in ``out``."""
        shutil.rmtree(out, ignore_errors=True)
        args = self.child_args("run", out) + (["--trace", str(spans)] if spans else [])
        result = spawn(args)
        if "setup_s" in result:
            self.setup_s.append(result["setup_s"])
        try:
            if result["status"] != 0:
                raise Mismatch(f"the command process exited with {result['status']}")
            self.deviations.append(self.reference.deviation(out, result["exit"], self.seed))
            result["passed"] = True
        except Mismatch as exc:
            self.fail(str(exc))
            result["passed"] = False
        return result

    def fail(self, message: str):
        self.failures.append(message)
        print(f"gate: {self.workload.name} seed {self.seed}: {message}", file=sys.stderr)

    def repeat(self, seconds: float):
        """Repeat set-up probes and the command MIN_REPS times, then while the
        next repetition is expected to end in time."""
        start = time.monotonic()
        durations = []
        while True:
            t0 = time.monotonic()
            for _ in range(SETUP_PROBES_PER_REP):
                self.probe_setup()
            result = self.command(WORK / "out")
            durations.append(time.monotonic() - t0)
            if "run_s" in result:
                self.reps.append(result)
            if (len(durations) >= MIN_REPS
                    and time.monotonic() - start + statistics.mean(durations) > seconds):
                break

    def attempted(self) -> int:
        return len(self.deviations) + len(self.failures)

    def end_to_end(self) -> dict:
        if not self.reps:
            raise BenchError("no run of the command completed")
        return {
            "setup_s": statistics.median(self.setup_s),
            "run_s": statistics.median(r["run_s"] for r in self.reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in self.reps),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in self.reps),
            "success_rate": (self.attempted() - len(self.failures)) / self.attempted(),
        }

    def traced(self) -> dict:
        """Traced run of the command between two untraced ones, then the kernel table.

        The overhead is the traced ``run_s`` minus the mean of the untraced
        runs before and after it, which cancels a steady drift of the machine.
        """
        from layers import layer_metrics  # imports numpy; only the traced run needs it

        plain_out, traced_out = WORK / "out", WORK / "out-traced"
        spans = WORK / "spans.json"
        plain = self.command(plain_out)
        traced = self.command(traced_out, spans)
        if plain["status"] != 0 or traced["status"] != 0:
            raise BenchError("the command did not complete; no trace to report")
        plain_hashes = {p.name: sha256(p) for p in plain_out.iterdir()}
        traced_hashes = {p.name: sha256(p) for p in traced_out.iterdir()}
        if plain_hashes != traced_hashes:
            # Tracing changed the program: the traced run fails even if it passed the gate.
            if traced["passed"]:
                self.deviations.pop()
                self.fail("traced outputs differ from untraced outputs")
        plain_after = self.command(WORK / "out-after")
        if plain_after["status"] != 0:
            raise BenchError("the command did not complete; no trace to report")
        kernels = spawn_or_fail(["kernels"])
        del kernels["status"], kernels["cpu_s"], kernels["rss_mb"]
        metrics = layer_metrics(json.loads(spans.read_text())["spans"], traced_out)
        metrics["trace.run_s"] = traced["run_s"]
        metrics["trace.overhead_s"] = traced["run_s"] - (plain["run_s"] + plain_after["run_s"]) / 2
        # The gate's deviation (gate.py), 0 for bitwise-equal outputs; 1 if a run failed.
        metrics["result_max_rel_dev"] = max(self.deviations + [1.0] * bool(self.failures))
        metrics.update(kernels)
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "hyposym" / "cli.py").is_file():
        print(f"error: no hyposym sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        bench = BenchRun(WORKLOADS[args.workload], args.seed)
        bench.warm_up()
        if args.trace:
            values = bench.traced()
        else:
            bench.repeat(args.seconds)
            values = bench.end_to_end()
        if values.keys() != units.keys():
            raise BenchError(f"metrics {sorted(values.keys() ^ units.keys())} are not "
                             "both measured and listed in BENCHMARK.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("# machine: " + json.dumps(machine(), sort_keys=True))
    print("# samples: " + json.dumps({"setup_s": bench.setup_s, "reps": bench.reps,
                                      "failures": bench.failures}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted(),
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
