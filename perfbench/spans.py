"""Spans and counts recorded from outside the program.

`instrument()` replaces public functions of the loggas modules, in every
loggas module namespace that holds them, with wrappers that record a span
(name, start, end, parent, job id) and counts at that boundary.  Spans stay
in memory; `layer_metrics()` turns them into per-layer figures.  Per-element
helpers (merge_sign, mask_to_degrees, blade_momentum, the scalars module)
get no span: wrapping operations that run millions of times per job would
distort what is measured; their cost shows as the caller's self time.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) -> span name; None keeps "<module>.<attribute>".
TARGETS = {
    ("cli", "main"): None,
    ("ensemble", "gram_form"): None,
    ("ensemble", "partition_function"): None,  # named by route, see _span_name
    ("ensemble", "correlation"): None,
    ("ensemble", "r1_normalization"): None,
    ("exterior", "wedge"): None,
    ("exterior", "star"): None,
    ("exterior", "divided_wedge_power"): None,
    ("exterior", "hyperpfaffian"): None,
    ("exterior", "omega"): None,
    ("exterior", "fermion_vector"): None,
    ("exterior", "blade_weights"): None,
    ("exterior", "pfaffian_classical"): None,
    ("spine", "epsilon"): None,
    ("spine", "momentum_project"): None,
    ("spine", "structure_table"): None,
    ("spine", "_build_structure_table"): "spine.structure_table.build",
    ("spine", "adjunction_expansion"): None,
    ("spine", "plucker_residual"): None,
    ("spine", "higher_plucker_residual"): None,
    ("spine", "toeplitz_residual"): None,
    ("tau", "tau"): None,
    ("tau", "psi_minus"): None,
    ("tau", "psi_plus"): None,
    ("tau", "extraction_evaluate"): None,
    ("tau", "hirota_residual"): None,
    ("tau", "transport_spectrum"): None,
    ("tau", "miwa_negative_moments"): None,
    ("oracle", "direct_interaction"): None,
    ("oracle", "integrate_partition"): None,
    ("oracle", "integrate_R1"): None,
    ("oracle", "_mc_mean"): "oracle.mc",
}


class Tracer:
    """In-memory spans and counts.  Records only while `enabled` is set,
    so checks run between jobs leave no trace."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans: list = []  # [name, start, end, parent index, job id]
        self.counts: dict = defaultdict(int)
        self._root = None  # the span that started the current job
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        self.spans, self.counts = [], defaultdict(int)

    def begin(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            # a span opened on an empty stack of a pool thread belongs to
            # the job's root span
            parent = stack[-1] if stack else self._root
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.job])
            if parent is None:
                self._root = idx
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()
        if idx == self._root:
            self._root = None

    def add(self, key: str, n) -> None:
        with self._lock:
            self.counts[key] += n


def _span_name(base: str, args, kwargs) -> str:
    if base == "ensemble.partition_function":
        route = args[2] if len(args) > 2 else kwargs.get("route", "hyperpfaffian")
        return f"{base}.{route}"
    return base


def _hooks(tracer: Tracer, modules: dict) -> dict:
    """Counters taken at a boundary: name -> fn(args, kwargs) -> after(result)."""

    def wedge(args, kwargs):
        a, b = args[0], args[1]
        tracer.add("exterior.wedge.pairs", len(a.terms) * len(b.terms))
        return lambda result: tracer.add("exterior.wedge.terms_out", len(result.terms))

    def structure_table(args, kwargs):
        shape = args[0]
        cache = args[1] if len(args) > 1 else kwargs.get("cache", True)
        path = modules["spine"].cache_directory() / f"structure_L{shape.L}_M{shape.M}.json"
        size = path.stat().st_size if cache and path.is_file() else 0
        builds = tracer.counts["spine.structure_table.misses"]

        def after(result):
            if tracer.counts["spine.structure_table.misses"] == builds:
                tracer.add("spine.structure_table.hits", 1)
                tracer.add("spine.structure_table.bytes_read", size)
            elif cache and path.is_file():
                tracer.add("spine.structure_table.bytes_written", path.stat().st_size)

        return after

    def build(args, kwargs):
        tracer.add("spine.structure_table.misses", 1)
        return None

    def mc(args, kwargs):
        cpu = time.process_time()

        def after(result):
            tracer.add("oracle.mc.samples", result[2])
            tracer.add("oracle.mc.cpu_s", time.process_time() - cpu)

        return after

    return {
        "exterior.wedge": wedge,
        "spine.structure_table": structure_table,
        "spine.structure_table.build": build,
        "oracle.mc": mc,
    }


def _wrap(tracer: Tracer, fn, base: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        after = hook(args, kwargs) if hook else None
        idx = tracer.begin(_span_name(base, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after:
            after(result)
        return result

    return wrapper


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them."""
    modules = {name: sys.modules[f"loggas.{name}"] for name, _ in TARGETS}
    hooks = _hooks(tracer, modules)
    replaced = []
    for (mod, attr), name in TARGETS.items():
        original = getattr(modules[mod], attr)
        base = name or f"{mod}.{attr}"
        wrapper = _wrap(tracer, original, base, hooks.get(base))
        for mname, m in list(sys.modules.items()):
            if mname == "loggas" or mname.startswith("loggas."):
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        replaced.append((m, key, original))

    def restore():
        for m, key, original in replaced:
            setattr(m, key, original)

    return restore


# ----------------------------------------------------------------- metrics


def _self_times(spans: list) -> list:
    """Duration minus the part of it covered by child spans (children may
    run in parallel threads, so covered time is the union)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cur_s, cur_e = 0.0, None, None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(end - start - covered)
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# per-layer metric -> (unit, better); the order is the order printed
PER_LAYER = {
    "exterior.divided_wedge_power.calls": ("count", "lower"),
    "exterior.divided_wedge_power.ms": ("ms", "lower"),
    "exterior.hyperpfaffian.calls": ("count", "lower"),
    "exterior.hyperpfaffian.self_ms": ("ms", "lower"),
    "exterior.wedge.calls": ("count", "lower"),
    "exterior.wedge.self_ms": ("ms", "lower"),
    "exterior.wedge.pairs": ("count", "lower"),
    "exterior.wedge.terms_out": ("count", "lower"),
    "exterior.wedge.out_per_pair": ("ratio", "higher"),
    "exterior.omega.calls": ("count", "lower"),
    "exterior.omega.ms": ("ms", "lower"),
    "tau.psi_minus.self_ms": ("ms", "lower"),
    "tau.psi_plus.self_ms": ("ms", "lower"),
    "tau.extraction_evaluate.calls": ("count", "lower"),
    "tau.extraction_evaluate.self_ms": ("ms", "lower"),
    "tau.transport_spectrum.self_ms": ("ms", "lower"),
    "ensemble.gram_form.calls": ("count", "lower"),
    "ensemble.gram_form.ms": ("ms", "lower"),
    "ensemble.partition_function.hyperpfaffian.self_ms": ("ms", "lower"),
    "ensemble.partition_function.structure_poly.self_ms": ("ms", "lower"),
    "ensemble.correlation.self_ms": ("ms", "lower"),
    "spine.structure_table.hits": ("count", "higher"),
    "spine.structure_table.misses": ("count", "lower"),
    "spine.structure_table.load_ms": ("ms", "lower"),
    "spine.structure_table.build_ms": ("ms", "lower"),
    "spine.structure_table.bytes_read": ("B", "lower"),
    "spine.structure_table.bytes_written": ("B", "lower"),
    "spine.adjunction_expansion.calls": ("count", "lower"),
    "spine.adjunction_expansion.ms": ("ms", "lower"),
    "spine.epsilon.calls": ("count", "lower"),
    "spine.epsilon.ms": ("ms", "lower"),
    "spine.plucker_residual.ms": ("ms", "lower"),
    "spine.higher_plucker_residual.ms": ("ms", "lower"),
    "spine.toeplitz_residual.ms": ("ms", "lower"),
    "oracle.direct_interaction.calls": ("count", "lower"),
    "oracle.direct_interaction.ms": ("ms", "lower"),
    "oracle.integrate_partition.ms": ("ms", "lower"),
    "oracle.integrate_R1.ms": ("ms", "lower"),
    "oracle.mc.samples": ("count", "higher"),
    "oracle.mc.samples_per_s": ("1/s", "higher"),
    "oracle.mc.cpu_per_wall": ("ratio", "higher"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "cli.exit_nonzero": ("count", "lower"),
    "cli.sweep.cpu_per_wall": ("ratio", "higher"),
    "trace.jobs": ("count", "higher"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "host.calibration_ms": ("ms", "lower"),
}

# metrics that are exact counts of work and must repeat for one seed
COUNTS = [k for k, (unit, _) in PER_LAYER.items() if unit in ("count", "B")]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass (the trace.* and host.*
    entries are added by the caller)."""
    spans, counts = tracer.spans, tracer.counts
    selfs = _self_times(spans)
    calls, ms, self_ms = defaultdict(int), defaultdict(float), defaultdict(float)
    built = {s[3] for s in spans if s[0] == "spine.structure_table.build"}
    load_ms = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        ms[name] += (end - start) * 1e3
        self_ms[name] += selfs[i] * 1e3
        if name == "spine.structure_table" and i not in built:
            load_ms += (end - start) * 1e3
    mc_wall_s = ms["oracle.mc"] / 1e3
    out = {}
    for key in PER_LAYER:
        layer, _, what = key.rpartition(".")
        if what == "calls":
            out[key] = calls[layer]
        elif what == "ms":
            out[key] = ms[layer]
        elif what == "self_ms":
            out[key] = self_ms[layer]
    out.update({
        "exterior.wedge.pairs": counts["exterior.wedge.pairs"],
        "exterior.wedge.terms_out": counts["exterior.wedge.terms_out"],
        "exterior.wedge.out_per_pair": _ratio(counts["exterior.wedge.terms_out"], counts["exterior.wedge.pairs"]),
        "spine.structure_table.hits": counts["spine.structure_table.hits"],
        "spine.structure_table.misses": counts["spine.structure_table.misses"],
        "spine.structure_table.load_ms": load_ms,
        "spine.structure_table.build_ms": ms["spine.structure_table.build"],
        "spine.structure_table.bytes_read": counts["spine.structure_table.bytes_read"],
        "spine.structure_table.bytes_written": counts["spine.structure_table.bytes_written"],
        "oracle.mc.samples": counts["oracle.mc.samples"],
        "oracle.mc.samples_per_s": _ratio(counts["oracle.mc.samples"], mc_wall_s),
        "oracle.mc.cpu_per_wall": _ratio(counts["oracle.mc.cpu_s"], mc_wall_s),
        "cli.out_bytes": counts["cli.out_bytes"],
        "cli.exit_nonzero": counts["cli.exit_nonzero"],
        "cli.sweep.cpu_per_wall": _ratio(counts["cli.sweep.cpu_s"], counts["cli.sweep.wall_s"]),
    })
    return {k: v for k, v in out.items() if k in PER_LAYER}
