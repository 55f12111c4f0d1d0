"""Tests of the benchmark itself: seeded inputs, non-vacuous checks and
repeatable per-layer counts.

    python3 -m pytest perfbench/tests -q

They run reduced cycles (small shapes only) in process.
"""
from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import loggas.cli  # noqa: E402
from loggas import (  # noqa: E402
    ModelShape, MomentSequence, NamedWeight, partition_function, structure_table,
)
from loggas.spine import adjunction_expansion  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from checks import Checker, adjunction_values, norm, z_poly  # noqa: E402
from jobs import WORKLOADS, rand_rational  # noqa: E402

SMALL = {(2, 2), (2, 3), (2, 4), (4, 2)}


def small(name: str):
    """The workload restricted to templates on small shapes."""
    w = WORKLOADS[name]
    templates = tuple(t for t in w.templates if t[1] in SMALL)
    return dataclasses.replace(
        w,
        templates=templates,
        shapes=tuple(s for s in w.shapes if s in SMALL | {(2, 5), (4, 3)}),
        table_shapes=tuple(s for s in w.table_shapes if s in SMALL),
    )


@pytest.fixture(autouse=True)
def own_cache(tmp_path, monkeypatch):
    # the runner points LOGGAS_CACHE_DIR at each job's cache; restore it
    monkeypatch.setenv("LOGGAS_CACHE_DIR", str(tmp_path / "cache"))


def make_runner(tmp_path, workload, seed=1):
    warm = str(tmp_path / "warm")
    worker.warm_up(workload, warm)
    return worker.Runner(str(tmp_path), warm, Checker(seed, warm, workload.table_shapes))


def loop(runner, workload, seed=1):
    return worker.timed_loop(workload, runner, seed, seconds=0, min_jobs=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    w = WORKLOADS[name]
    flat = lambda jobs: [(j.argv, j.spec, j.cold) for j in jobs]  # noqa: E731
    assert flat(w.cycle(7, 0)) == flat(w.cycle(7, 0))
    assert flat(w.cycle(7, 0)) != flat(w.cycle(8, 0))
    assert flat(w.cycle(7, 0)) != flat(w.cycle(7, 1))
    # every cycle runs every template once
    assert sorted(j.command for j in w.cycle(3, 2)) == sorted(t[0] for t in w.templates)


@pytest.mark.parametrize("name", ["backgrounds", "sweeps", "tables"])
def test_correct_outputs_pass(tmp_path, name):
    w = small(name)
    result = loop(make_runner(tmp_path, w), w)
    assert result["attempted"] == len(w.templates) > 0
    assert result["failed"] == 0


def test_wrong_value_in_one_layer_counts_as_failed(tmp_path, monkeypatch):
    w = small("backgrounds")
    runner = make_runner(tmp_path, w)
    tau_module = sys.modules["loggas.tau"]  # the package exports a function named tau
    original = tau_module._star_against
    monkeypatch.setattr(tau_module, "_star_against", lambda a, b: original(a, b) + 1)
    result = loop(runner, w)
    assert result["metrics"]["ok_frac"] < 1
    failed_commands = {f.split()[0] for f in runner.failures}
    # psi, transport-spectrum and extraction_evaluate pair through _star_against
    assert failed_commands <= {"psi", "transport-spectrum", "verify-adjunction"} and failed_commands
    assert result["failed"] < result["attempted"]


def test_vacuous_sweep_counts_as_failed(tmp_path, monkeypatch):
    # every verify-* report keeps passed: true but holds no checks
    w = small("sweeps")
    runner = make_runner(tmp_path, w)
    monkeypatch.setattr(loggas.cli, "_map_ordered", lambda fn, items, threads: [])
    result = loop(runner, w)
    sweeps = sum(t[0].startswith("verify-") for t in w.templates)
    assert sweeps and result["failed"] == sweeps


@pytest.mark.parametrize("outcome", ["exit 1", "raise"])
def test_exit_code_and_crash_count_as_failed(tmp_path, monkeypatch, outcome):
    w = small("backgrounds")
    runner = make_runner(tmp_path, w)

    def broken(args):
        if outcome == "raise":
            raise RuntimeError("boom")
        return 1

    monkeypatch.setattr(loggas.cli, "cmd_tau", broken)
    result = loop(runner, w)
    taus = sum(t[0].startswith("tau") for t in w.templates)
    assert taus and result["failed"] == taus


def test_monte_carlo_check_is_not_vacuous(tmp_path, monkeypatch):
    # a 5% bias is many standard errors at the benchmark's sample budgets
    w = small("sweeps")
    runner = make_runner(tmp_path, w)
    original = loggas.cli.integrate_partition

    def biased(*args, **kwargs):
        r = original(*args, **kwargs)
        if args[2] == "monte_carlo":
            r = dataclasses.replace(r, estimate=r.estimate * 1.05)
        return r

    monkeypatch.setattr(loggas.cli, "integrate_partition", biased)
    result = loop(runner, w)
    mc = sum(t[0] == "oracle-mc" for t in w.templates)
    assert mc and result["failed"] == mc


@pytest.mark.parametrize("name", ["backgrounds", "sweeps", "tables"])
def test_traced_counts_repeat(tmp_path, name):
    w = small(name)
    runner = make_runner(tmp_path, w)
    first = worker.trace_loop(w, runner, spans.Tracer(), seed=5, seconds=0)
    second = worker.trace_loop(w, runner, spans.Tracer(), seed=5, seconds=0)
    assert first["failed"] == second["failed"] == 0
    assert first["counts_repeat"] and second["counts_repeat"]
    for key in spans.COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    m = first["metrics"]
    assert m["cli.main.calls"] == len(w.templates)
    assert m["cli.out_bytes"] > 0
    if name == "sweeps":
        assert m["oracle.mc.samples"] > 0 and m["exterior.wedge.pairs"] > 0
        assert m["exterior.divided_wedge_power.calls"] == 0
    elif name == "tables":
        assert m["spine.structure_table.misses"] > 0 and m["spine.structure_table.bytes_written"] > 0
        assert m["spine.structure_table.hits"] > 0 and m["spine.structure_table.bytes_read"] > 0
        assert m["oracle.mc.samples"] == 0
    else:
        assert m["exterior.divided_wedge_power.calls"] > 0 and m["oracle.mc.samples"] == 0


def test_instrument_restores_the_modules():
    before = {k: getattr(sys.modules[f"loggas.{k[0]}"], k[1]) for k in spans.TARGETS}
    restore = spans.instrument(spans.Tracer())
    assert loggas.cli.wedge is not before[("exterior", "wedge")]
    restore()
    after = {k: getattr(sys.modules[f"loggas.{k[0]}"], k[1]) for k in spans.TARGETS}
    assert after == before and loggas.cli.wedge is before[("exterior", "wedge")]


@pytest.mark.parametrize("L,M", [(2, 2), (2, 3), (4, 2), (2, 4), (6, 2)])
def test_table_side_values_match_the_library(L, M):
    shape = ModelShape(L, M)
    table = structure_table(shape, cache=False)
    rng = random.Random(f"{L},{M}")
    for moments in (
        MomentSequence([rand_rational(rng) for _ in range(2 * shape.K + 1)]),
        NamedWeight.gaussian().moments(2 * shape.K),
        NamedWeight.uniform(-1, "3/4").moments(2 * shape.K),
    ):
        assert norm(z_poly(table, moments)) == norm(partition_function(moments, shape, "structure_poly"))
        A = adjunction_values(table, moments)
        for q in range(-shape.K, shape.K + 1):
            assert norm(A.get(q, 0)) == norm(adjunction_expansion(q, moments, shape, table))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
