"""One workload process: import loggas.cli, warm up, then run jobs.

Started by run.py in a fresh interpreter with its own empty
LOGGAS_CACHE_DIR.  Prints "READY" once import and warm-up are done (the
parent times that as set-up), then runs the closed loop and prints one
"RESULT <json>" line.  With --setup-only it exits after "READY".
"""
from __future__ import annotations

import argparse
import sys

import loggas.cli as cli  # the import is part of set-up

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

from loggas.exterior import ModelShape, blade_weights
from loggas.spine import CACHE_ENV, epsilon, structure_table

import spans
from checks import Checker
from jobs import MOMENTS_FILE, WORKLOADS

# p90 is reported only with at least ten samples beyond it
MIN_JOBS = 100
# stop a run that has slowed down badly instead of overrunning its budget
MAX_LOOP_S = 120.0
MAX_FAILURES_SHOWN = 5


def warm_up(workload, warm_dir: str) -> None:
    """Fill blade_weights and epsilon for the shapes the jobs touch and
    write the tables they read."""
    os.environ[CACHE_ENV] = warm_dir
    for L, M in workload.shapes:
        shape = ModelShape(L, M)
        for p in range(-shape.K, shape.K + 1):
            epsilon(p, shape)
    for L, M in workload.table_shapes:
        shape = ModelShape(L, M)
        blade_weights(shape)
        structure_table(shape)


@dataclass
class Outcome:
    wall_s: float
    ok: bool


class Runner:
    """Runs jobs one after another through loggas.cli.main, in process."""

    def __init__(self, run_dir: str, warm_dir: str, checker: Checker):
        self.run_dir = run_dir
        self.warm_dir = warm_dir
        self.checker = checker
        self.tracer = None  # set by trace_loop for traced passes
        self.failures: list = []

    def run(self, job) -> Outcome:
        argv = list(job.argv)
        if MOMENTS_FILE in argv:
            path = os.path.join(self.run_dir, "moments.json")
            with open(path, "w") as fh:
                json.dump({"scale": None, "moments": job.moments}, fh)
            argv[argv.index(MOMENTS_FILE)] = path
        cache = os.path.join(self.run_dir, "cold") if job.cold else self.warm_dir
        os.makedirs(cache, exist_ok=True)
        os.environ[CACHE_ENV] = cache
        out, err = io.StringIO(), io.StringIO()
        # start every job from an empty young generation, so that collector
        # pauses land on the job whose allocations cause them
        gc.collect()
        tr = self.tracer
        if tr:
            tr.job, tr.enabled = job.index, True
        cpu0 = os.times()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            error = "" if rc == 0 else f"exit {rc}: {err.getvalue().strip()[:200]}"
        except SystemExit as e:  # argparse usage errors
            error = f"exit {e.code}"
        except Exception as e:  # a crash is a failed job, not a failed run
            error = f"raised {e!r}"[:300]
        wall = time.perf_counter() - t0
        cpu1 = os.times()
        if tr:
            tr.enabled = False
            text = out.getvalue()
            tr.add("cli.out_bytes", len(text.encode()))
            tr.add("cli.exit_nonzero", int(error.startswith("exit")))
            if job.command.startswith("verify-"):
                tr.add("cli.sweep.wall_s", wall)
                tr.add("cli.sweep.cpu_s", sum(cpu1[:4]) - sum(cpu0[:4]))
        if job.cold:
            shutil.rmtree(cache)
        if not error:
            try:
                self.checker.check(job, out.getvalue())
            except Exception as e:  # a check that raises counts as failed
                error = f"check: {e!r}"[:300]
        if error and len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(f"{' '.join(job.argv)}: {error}")
        return Outcome(wall, not error)


def percentile(values: list, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timed_loop(workload, runner: Runner, seed: int, seconds: float, min_jobs: int = MIN_JOBS) -> dict:
    """Whole cycles until at least `seconds` of job time and min_jobs jobs."""
    lat, failed, timed, c = [], 0, 0.0, 0
    start = time.perf_counter()
    while timed < seconds or len(lat) < min_jobs:
        for job in workload.cycle(seed, c):
            job.index = len(lat)
            r = runner.run(job)
            lat.append(r.wall_s)
            failed += not r.ok
            timed += r.wall_s
        c += 1
        if time.perf_counter() - start > MAX_LOOP_S:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "attempted": len(lat),
        "failed": failed,
        "cycles": c,
        "metrics": {
            "jobs_per_s": len(lat) / timed,
            "job_ms_p50": statistics.median(lat) * 1e3,
            "job_ms_p90": percentile(lat, 0.9) * 1e3,
            "ok_frac": 1 - failed / len(lat),
            "peak_rss_mb": rss_mb,
        },
    }


def trace_loop(workload, runner: Runner, tracer, seed: int, seconds: float) -> dict:
    """Cycle 0 untraced, then traced, repeated while another pair still
    ends within `seconds` (at least once).

    Counts come from the first traced pass and every later traced pass
    must repeat them exactly; times are medians over traced passes."""
    jobs = workload.cycle(seed, 0)
    for i, job in enumerate(jobs):
        job.index = i
    passes, untraced, traced, failed, attempted = [], [], [], 0, 0
    start = time.perf_counter()
    pair_s = 0.0
    while not passes or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        for tracing in (False, True):
            tracer.reset()
            restore = spans.instrument(tracer) if tracing else None
            runner.tracer = tracer if tracing else None
            wall = 0.0
            try:
                for job in jobs:
                    r = runner.run(job)
                    wall += r.wall_s
                    failed += not r.ok
                    attempted += 1
            finally:
                runner.tracer = None
                if restore:
                    restore()
            (traced if tracing else untraced).append(wall)
        passes.append(spans.layer_metrics(tracer))
        pair_s = time.perf_counter() - pair_start
    first = passes[0]
    repeats = all(p[k] == first[k] for p in passes for k in spans.COUNTS if k in first)
    metrics = {
        k: (v if k in spans.COUNTS else statistics.median(p[k] for p in passes))
        for k, v in first.items()
    }
    u, t = statistics.median(untraced), statistics.median(traced)
    metrics.update({
        "trace.jobs": len(jobs),
        "trace.untraced_s": u,
        "trace.traced_s": t,
        "trace.overhead_frac": t / u - 1,
    })
    return {"attempted": attempted, "failed": failed, "passes": len(passes),
            "counts_repeat": repeats, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    warm_dir = os.path.join(args.run_dir, "warm")
    warm_up(workload, warm_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    checker = Checker(args.seed, warm_dir, workload.table_shapes)
    runner = Runner(args.run_dir, warm_dir, checker)
    if args.trace:
        result = trace_loop(workload, runner, spans.Tracer(), args.seed, args.seconds)
    else:
        result = timed_loop(workload, runner, args.seed, args.seconds)
    result["failures"] = runner.failures
    result["scalar_backend"] = sys.modules["loggas.scalars"]._mpq.__module__
    result["numpy"] = sys.modules["numpy"].__version__
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
