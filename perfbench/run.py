"""Benchmark entry point.

    python3 perfbench/run.py --workload backgrounds --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Spawns fresh interpreters running
worker.py against the checkout's src/, each with its own empty
LOGGAS_CACHE_DIR under .perfbench_tmp/, and prints every metric by name
with its unit, a line of machine facts, and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.  Exits non-zero without
a result when the checkout has no loggas sources or a worker fails.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("backgrounds", "sweeps", "tables")
# set-up is sampled at least this many times (the worker is one sample),
# and more while the samples taken sum to under MIN_SETUP_TOTAL_S
MIN_SETUPS = 3
MAX_SETUPS = 7
MIN_SETUP_TOTAL_S = 2.0
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


class Worker:
    """A worker.py process whose stdout lines are read with arrival times."""

    def __init__(self, args: list, env: dict, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def expect(self, prefix: str):
        """(arrival time, line) of the next line starting with prefix."""
        while True:
            try:
                t, line = self.lines.get(timeout=max(self.deadline - time.perf_counter(), 0.01))
            except queue.Empty:
                raise WorkerFailed("worker timed out")
            if line is None:
                raise WorkerFailed(f"worker ended before {prefix!r}")
            if line.startswith(prefix):
                return t, line[len(prefix):]

    def close(self) -> None:
        """Wait for the worker to exit (killing it past the deadline)."""
        try:
            self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 0.01))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=5)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise WorkerFailed(f"worker exited with {self.proc.returncode}")


def calibration_ms() -> float:
    """Median time of a fixed pure-Python probe (Fraction arithmetic).

    Reported as a fact about host speed; never used to rescale a metric."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(10_000):
            q = Fraction(i % 7 + 1, i % 5 + 1) * Fraction(i % 3 + 1, i % 11 + 1)
            acc += q.numerator
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts() -> dict:
    digest = hashlib.sha256()
    for f in sorted((SRC / "loggas").glob("*.py")):
        digest.update(f.name.encode() + f.read_bytes())
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if sha:
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest()[:16],
        "calibration_ms": calibration_ms(),
    }


def run(args) -> dict:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("LOGGAS_CACHE_DIR", None)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []

    def probe():
        # a fresh interpreter on its own empty cache, timed to "READY"
        probe_dir = run_dir / f"probe{len(setups)}"
        probe_dir.mkdir()
        w = Worker([*common, "--seconds", "0", "--run-dir", str(probe_dir), "--setup-only"], env, deadline)
        try:
            t, _ = w.expect("READY")
            setups.append(t - w.started)
        finally:
            w.close()

    try:
        if not args.trace:
            probe()
        main_dir = run_dir / "main"
        main_dir.mkdir()
        w = Worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--run-dir", str(main_dir)],
            env, deadline,
        )
        try:
            t, _ = w.expect("READY")
            setups.append(t - w.started)
            _, payload = w.expect("RESULT ")
        finally:
            w.close()
        # the rest of the set-up samples come after the run, so that the
        # samples span it rather than one moment of the host's speed
        while not args.trace and (len(setups) < MIN_SETUPS or (
            sum(setups) < MIN_SETUP_TOTAL_S and len(setups) < MAX_SETUPS
        )):
            probe()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()  # only when no other run is using it
        except OSError:
            pass
    result = json.loads(payload)
    result["setups_s"] = setups
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "loggas" / "cli.py").is_file():
        print(f"error: no loggas sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "loggas"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    facts = machine_facts()
    try:
        result = run(args)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    facts.update(scalar_backend=result["scalar_backend"], numpy=result["numpy"],
                 setups_s=result["setups_s"])
    if args.trace:
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        metrics = dict(result["metrics"], **{"host.calibration_ms": facts["calibration_ms"]})
        correct = result["failed"] == 0 and result["counts_repeat"]
    else:
        units = END_TO_END_UNITS
        metrics = dict(result["metrics"], setup_s=statistics.median(result["setups_s"]))
        correct = result["failed"] == 0
    for line in result["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    rounds = f"{result['passes']} traced passes" if args.trace else f"{result['cycles']} cycles"
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} jobs in {rounds}, {result['failed']} failed")
    for name, unit in units.items():
        print(f"  {name:<52} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_frac':<52} {result['failed'] / result['attempted']:>16.6g} frac")
    print("facts " + json.dumps(facts))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
