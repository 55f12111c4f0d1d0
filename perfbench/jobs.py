"""Seeded job streams for the benchmark workloads.

A workload is a closed loop of `loggas.cli.main(argv)` jobs issued by one
client: the next job starts only when the previous one has returned.
Each cycle runs every template of the workload exactly once, in an order
shuffled by the seed, so every cycle carries the same mix of commands,
shapes and weight kinds.  The seed draws every numeric input (moments,
uniform endpoints, points, verify seeds, which tables jobs run cold), so
the inputs are a function of (workload, seed, cycle) alone.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Stands in for the moments-file path in argv; the runner writes the file.
# Values that may be negative are passed as --opt=value: argparse reads a
# separate "-1/3" as an option name.
MOMENTS_FILE = "<moments-file>"

KINDS = ("file", "uniform", "gaussian")

# Shapes (L, M).  (4,4) is left out: one Z there takes ~13 s.
BACKGROUND_SHAPES = [(2, 3), (2, 4), (2, 5), (2, 6), (4, 2), (4, 3), (6, 2)]
# psi / transport-spectrum need the (L, M+1) system; psi_plus at (4,3)
# runs in (4,4), so they stay where L*(M+1) <= 12.
PSI_SHAPES = [(2, 3), (2, 4), (2, 5), (4, 2)]
# One verify-adjunction trial takes 1.6 s at (2,5), 7.8 s at (4,3) and
# 42 s at (2,6) (adjunction_expansion enumerates ordered tuples).
ADJUNCTION_SHAPES = [(2, 3), (2, 4), (4, 2), (6, 2)]
SWEEP_SHAPES = [(2, 4), (2, 5), (2, 6), (4, 3), (6, 2)]
# Full --j-max M takes 37 s at (2,5); j = 3 is kept where it is cheap.
HIGHER_PLUCKER_SHAPES = [(2, 3), (2, 4), (2, 5)]
# Trials per sweep job (default: 2 confluent, 1 Toeplitz).  The heaviest
# sweep jobs are sized alike (1.1-1.4 s here) so that the 90th percentile
# falls inside that group rather than on the edge between two costs.
SWEEP_TRIALS = {
    ("verify-confluent", (4, 3)): 3,
    ("verify-confluent", (2, 6)): 5,
    ("verify-toeplitz", (2, 6)): 6,
}
ORACLE_SHAPES = [(2, 2), (2, 3)]
# Only these weights have hand-derived closed forms (oracle.CLOSED_FORMS).
ORACLE_WEIGHTS = ({"kind": "uniform", "a": "0", "b": "1"}, {"kind": "gaussian"})
# (2,7) is left out: its table takes ~5.6 s to build, which every set-up
# sample would pay, and a 3.9 MB load per job.
TABLE_SHAPES = [(2, 4), (2, 5), (2, 6), (4, 3), (6, 2), (8, 2)]

UNIFORM_NUMERATORS = (5, 7, 11, 13)
MC_BUDGET = 400_000
MC_R1_BUDGET = 300_000
THREADS = "2"


@dataclass
class Job:
    """One CLI invocation and what its check needs to know."""

    command: str  # template name, e.g. "partition-float"
    shape: tuple
    argv: list
    spec: dict = field(default_factory=dict)
    cold: bool = False  # run on an emptied structure-table cache
    index: int = 0  # position in the run; the span job id

    @property
    def moments(self):
        w = self.spec.get("weight", {})
        return w.get("moments") if w.get("kind") == "file" else None


@dataclass(frozen=True)
class Workload:
    name: str
    # (command, shape, parameter): the parameter is a weight kind, a trial
    # count, a --j-max, or an index into ORACLE_WEIGHTS, by command
    templates: tuple
    shapes: tuple  # shapes whose momentum modes warm-up fills
    table_shapes: tuple  # shapes whose tables warm-up writes

    def cycle(self, seed: int, c: int) -> list:
        """The jobs of cycle c: every template once, seeded order and inputs."""
        rng = random.Random(f"{self.name}:{seed}:{c}")
        order = list(self.templates)
        rng.shuffle(order)
        jobs = [_make(t, rng) for t in order]
        if self.name == "tables":
            _choose_cold(jobs, rng)
        return jobs


def rand_rational(rng: random.Random) -> str:
    return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _moments(rng: random.Random, D: int) -> list:
    """D+1 nonzero rationals.  Numerators and denominators are seeded
    shuffles of fixed multisets, with seeded signs, so the size of the
    numbers, and so the cost of a job, is alike from seed to seed."""
    nums = [1 + i % 9 for i in range(D + 1)]
    dens = [1 + (i * 4) % 9 for i in range(D + 1)]
    rng.shuffle(nums)
    rng.shuffle(dens)
    return [f"{rng.choice(('', '-'))}{n}/{d}" for n, d in zip(nums, dens)]


def _weight(kind: str, rng: random.Random, D: int) -> dict:
    if kind == "file":
        return {"kind": "file", "moments": _moments(rng, D)}
    if kind == "uniform":
        # endpoints of alike size and never symmetric (which zeroes the odd
        # moments) keep the cost of a job alike from seed to seed
        p, q = rng.sample(UNIFORM_NUMERATORS, 2)
        return {"kind": "uniform", "a": f"-{p}/8", "b": f"{q}/8"}
    return {"kind": "gaussian"}


def _weight_args(w: dict) -> list:
    if w["kind"] == "file":
        return ["--moments-file", MOMENTS_FILE]
    if w["kind"] == "uniform":
        return ["--weight", f"uniform:{w['a']},{w['b']}"]
    return ["--weight", "gaussian"]


def _points(w: dict, m: int, rng: random.Random) -> list:
    """m distinct nonzero rational points (omega(0) is sparse, so a zero
    point makes a job far cheaper); inside [a, b] for a uniform weight so
    that the weight factor is 1, not 0."""
    if w["kind"] == "uniform":
        a, b = Fraction(w["a"]), Fraction(w["b"])
        return [_frac(a + (b - a) * Fraction(t, 10)) for t in rng.sample(range(1, 10), m)]
    return [_frac(Fraction(t - 5, 5)) for t in rng.sample([1, 2, 3, 4, 6, 7, 8, 9], m)]


def _K(L: int, M: int) -> int:
    return L * L * (M - 1) // 2


def _make(template: tuple, rng: random.Random) -> Job:
    command, (L, M), kind = template
    shape = ["--L", str(L), "--M", str(M)]
    K = _K(L, M)
    if command in ("partition", "partition-float", "partition-poly", "tau", "tau-float"):
        w = _weight(kind, rng, 2 * K)
        cli = command.split("-")[0]
        argv = [cli, *shape, *_weight_args(w)]
        if command == "partition-float":
            # the float route-equality flag compares floats bit for bit, so
            # float jobs take one route and are checked against exact Z
            argv += ["--route", "hyperpfaffian", "--mode", "float"]
        elif command == "partition-poly":
            argv += ["--route", "structure_poly"]
        elif command == "tau-float":
            argv += ["--mode", "float"]
        return Job(command, (L, M), argv, {"weight": w})
    if command in ("correlate-1", "correlate-M"):
        w = _weight(kind, rng, 2 * K)
        points = _points(w, 1 if command == "correlate-1" else M, rng)
        argv = ["correlate", *shape, *_weight_args(w), "--points=" + ",".join(points)]
        weightless = w["kind"] != "uniform"  # no exact pointwise weight
        if weightless:
            argv.append("--weightless")
        return Job(command, (L, M), argv, {"weight": w, "points": points, "weightless": weightless})
    if command in ("psi", "transport-spectrum"):
        w = _weight(kind, rng, 2 * K + 2 * _K(L, M + 1))
        return Job(command, (L, M), [command, *shape, *_weight_args(w)], {"weight": w})
    if command == "verify-adjunction":
        seed = rng.randrange(10**6)
        argv = [command, *shape, "--trials", "1", "--seed", str(seed)]
        return Job(command, (L, M), argv, {"trials": 1})
    if command in ("verify-confluent", "verify-toeplitz"):
        argv = [command, *shape, "--trials", str(kind), "--seed", str(rng.randrange(10**6)), "--threads", THREADS]
        return Job(command, (L, M), argv, {"trials": kind})
    if command == "verify-plucker":
        j_max = kind
        argv = [command, *shape, "--j-max", str(j_max), "--threads", THREADS]
        return Job(command, (L, M), argv, {"j_max": j_max})
    if command in ("oracle-mc", "oracle-mc-r1"):
        w = ORACLE_WEIGHTS[kind]
        budget = MC_BUDGET if command == "oracle-mc" else MC_R1_BUDGET
        argv = ["oracle", *shape, *_weight_args(w), "--method", "monte_carlo",
                "--budget", str(budget), "--seed", str(rng.randrange(10**6)), "--threads", THREADS]
        spec = {"weight": w, "budget": budget}
        if command == "oracle-mc-r1":
            spec["x"] = _points(w, 1, rng)[0]
            argv += ["--which", "r1", "--x=" + spec["x"]]
        return Job(command, (L, M), argv, spec)
    if command in ("oracle-tq", "oracle-tq-r1"):
        w = _weight(kind, rng, 2 * K)
        argv = ["oracle", *shape, *_weight_args(w), "--method", "tensor_quadrature", "--threads", THREADS]
        spec = {"weight": w}
        if command == "oracle-tq-r1":
            spec["x"] = _points(w, 1, rng)[0]
            argv += ["--which", "r1", "--x=" + spec["x"]]
        return Job(command, (L, M), argv, spec)
    if command == "structure":
        return Job(command, (L, M), [command, *shape], {})
    raise ValueError(f"unknown template {command!r}")


def _choose_cold(jobs: list, rng: random.Random) -> None:
    """Exactly one of the two structure jobs per shape runs cold; the
    seed picks which.  Cold jobs are all of one command so that every
    cycle costs about the same."""
    by_shape: dict = {}
    for j in jobs:
        if j.command == "structure":
            by_shape.setdefault(j.shape, []).append(j)
    for shape in sorted(by_shape):
        rng.choice(by_shape[shape]).cold = True


def _background_templates() -> list:
    out = []
    for i, s in enumerate(BACKGROUND_SHAPES):
        out += [("partition", s, k) for k in KINDS]
        # uniform weights are left out of float mode: see README
        out.append(("partition-float", s, ("file", "gaussian")[i % 2]))
        out.append(("tau", s, KINDS[i % 3]))
        out.append(("tau-float", s, ("gaussian", "file")[i % 2]))
        out.append(("correlate-1", s, KINDS[(i + 1) % 3]))
        out.append(("correlate-M", s, KINDS[(i + 2) % 3]))
        if s in PSI_SHAPES:
            out.append(("psi", s, KINDS[i % 3]))
            out.append(("transport-spectrum", s, KINDS[(i + 1) % 3]))
        if s in ADJUNCTION_SHAPES:
            out.append(("verify-adjunction", s, None))
    return out


def _sweep_templates() -> list:
    out = []
    for s in SWEEP_SHAPES:
        out.append(("verify-confluent", s, SWEEP_TRIALS.get(("verify-confluent", s), 2)))
        out.append(("verify-plucker", s, 2))
        out.append(("verify-toeplitz", s, SWEEP_TRIALS.get(("verify-toeplitz", s), 1)))
    out += [("verify-plucker", s, 3) for s in HIGHER_PLUCKER_SHAPES]
    for s in ORACLE_SHAPES:
        for i in range(len(ORACLE_WEIGHTS)):
            out.append(("oracle-mc", s, i))
            out.append(("oracle-mc-r1", s, i))
        out.append(("oracle-tq", s, "uniform"))
        out.append(("oracle-tq", s, "gaussian"))
        out.append(("oracle-tq-r1", s, "uniform"))
        out.append(("oracle-tq-r1", s, "gaussian"))
    return out


def _table_templates() -> list:
    out = []
    for i, s in enumerate(TABLE_SHAPES):
        out += [("structure", s, None)] * 2
        out += [("partition-poly", s, KINDS[(i + r) % 3]) for r in range(2)]
    return out


def _plus(shapes) -> list:
    return [(L, M + 1) for L, M in shapes]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "backgrounds",
            tuple(_background_templates()),
            tuple(sorted(set(BACKGROUND_SHAPES) | set(_plus(PSI_SHAPES)))),
            tuple(BACKGROUND_SHAPES),
        ),
        Workload(
            "sweeps",
            tuple(_sweep_templates()),
            tuple(sorted(set(SWEEP_SHAPES) | set(HIGHER_PLUCKER_SHAPES))),
            (),
        ),
        Workload(
            "tables",
            tuple(_table_templates()),
            (),  # no job here uses a momentum mode
            tuple(TABLE_SHAPES),
        ),
    )
}
