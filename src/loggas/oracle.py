"""Independent brute-force and numeric verification.

Nothing here touches the exterior algebra: interactions are evaluated
as literal products, integrals by closed forms, tensor Gauss rules, or
Monte Carlo over the base measure.  Agreement with the algebraic
engine is what the acceptance suite checks.
"""
from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ensemble import NamedWeight
from .exterior import ModelShape
from .scalars import Tagged, as_float, rational

# Hand-derived partition values (Selberg / Mehta integrals):
#   uniform[0,1], L=2: M=2 -> 1/30, M=3 -> 1/132300
#   gaussian,     L=2: M=2 -> (3/2) pi, M=3 -> (45/4) pi^{3/2}
CLOSED_FORMS = {
    ("uniform:0,1", 2, 2): rational("1/30"),
    ("uniform:0,1", 2, 3): rational("1/132300"),
    ("gaussian", 2, 2): Tagged("3/2", 2),
    ("gaussian", 2, 3): Tagged("45/4", 3),
}

MC_SHARDS = 64
# Most coordinates one Monte Carlo shard or tensor grid may hold (32 MiB
# of float64): larger jobs are refused before numpy is asked for them.
MAX_COORDINATES = 2**22


@dataclass(frozen=True)
class IntegrationReport:
    estimate: float
    std_error: float
    samples_or_nodes: int
    method: str
    seed: int | None = None
    budget: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "budget": self.budget,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "samples_or_nodes": self.samples_or_nodes,
        }


def direct_interaction(points, L: int):
    """prod_{i<k} (x_k - x_i)^{L^2}, evaluated literally."""
    L2 = L * L
    float_mode = any(isinstance(x, float) for x in points)
    xs = [float(x) if float_mode else rational(x) for x in points]
    total = 1.0 if float_mode else rational(1)
    for i in range(len(xs)):
        for k in range(i + 1, len(xs)):
            total = total * (xs[k] - xs[i]) ** L2
    return total


def _interaction_array(X: np.ndarray, L2: int) -> np.ndarray:
    n, M = X.shape
    out = np.ones(n)
    for i in range(M):
        for k in range(i + 1, M):
            out *= (X[:, k] - X[:, i]) ** L2
    return out


def _sample_base(weight: NamedWeight, rng: np.random.Generator, n: int, dims: int):
    """i.i.d. proposal draws X and the pointwise ratio prod_j w/q.

    The uniform proposal is the base measure itself (constant ratio
    (b-a)^dims).  The Gaussian proposal is the standard normal, wider
    than e^{-x^2}: the exact ratio sqrt(2 pi) e^{-x^2/2} per coordinate
    keeps the estimator unbiased while taming the heavy tails of the
    interaction product.
    """
    if weight.kind == "uniform":
        a, b = float(weight.a), float(weight.b)
        X = a + (b - a) * rng.random((n, dims))
        return X, np.full(n, float(b - a) ** dims)
    if weight.kind == "gaussian":
        X = rng.standard_normal((n, dims))
        ratio = (2.0 * math.pi) ** (dims / 2.0) * np.exp(-0.5 * (X * X).sum(axis=1))
        return X, ratio
    raise ValueError(f"weight {weight.kind!r} has no sampler")


def _mc_mean(weight, dims, budget, seed, seed_tag, threads, f_of_points):
    """(mean, std_error, samples) of f * prod w/q over `budget` base-measure
    draws in MC_SHARDS seeded shards.  The shard sums are added exactly
    (math.fsum), so the result does not depend on `threads`."""
    base, extra = divmod(budget, MC_SHARDS)

    def run(shard: int):
        rng = np.random.default_rng(np.random.SeedSequence((seed, seed_tag, shard)))
        X, ratio = _sample_base(weight, rng, base + (shard < extra), dims)
        f = f_of_points(X) * ratio
        return float(f.sum()), float((f * f).sum())

    with ThreadPoolExecutor(max_workers=threads) as pool:
        sums = list(pool.map(run, range(MC_SHARDS)))
    total = math.fsum(s for s, _ in sums)
    total_sq = math.fsum(q for _, q in sums)
    var = max(total_sq - total * total / budget, 0.0) / (budget - 1)
    return total / budget, math.sqrt(var / budget), budget


def _axis_rule(weight: NamedWeight, nodes: int):
    if weight.kind == "uniform":
        t, w = np.polynomial.legendre.leggauss(nodes)
        a, b = float(weight.a), float(weight.b)
        return (a + b) / 2 + (b - a) / 2 * t, (b - a) / 2 * w
    if weight.kind == "gaussian":
        return np.polynomial.hermite.hermgauss(nodes)
    raise ValueError(f"weight {weight.kind!r} has no quadrature rule")


def _tensor_nodes(weight: NamedWeight, nodes: int, dims: int):
    x, w = _axis_rule(weight, nodes)
    grids = np.meshgrid(*([x] * dims), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    W = w
    for _ in range(dims - 1):
        W = np.multiply.outer(W, w)
    return X, W.ravel()


def _check_size(rows: int, dims: int, what: str) -> None:
    if rows * dims > MAX_COORDINATES:
        raise ValueError(
            f"{what} asks for {rows} x {dims} coordinates in one array; "
            f"the limit is {MAX_COORDINATES} (2**22)"
        )


def _integrate(weight, shape, dims, f, method, budget, seed, seed_tag, threads, nodes):
    """(value, std_error, samples_or_nodes) of (1/dims!) int f prod_j w(x_j) dx
    over `dims` coordinates, by the tensor Gauss rule (by default exact for
    the degree of `shape`) or by the sharded Monte Carlo."""
    if method == "tensor_quadrature":
        # integrand degree per axis is L^2 (M-1); Gauss-n is exact to 2n-1
        n = nodes if nodes is not None else shape.L * shape.L * (shape.M - 1) // 2 + 1
        _check_size(n**dims, dims, "--nodes")
        X, W = _tensor_nodes(weight, n, dims)
        return float(W @ f(X)) / math.factorial(dims), 0.0, n**dims
    if method == "monte_carlo":
        _check_size(-(-budget // MC_SHARDS), dims, "--budget")
        mean, se, n = _mc_mean(weight, dims, budget, seed, seed_tag, threads, f)
        scale = 1.0 / math.factorial(dims)
        return scale * mean, scale * se, n
    raise ValueError(f"unknown method {method!r}")


def integrate_partition(
    weight: NamedWeight,
    shape: ModelShape,
    method: str = "monte_carlo",
    budget: int = 10**6,
    seed: int = 0,
    threads: int = 1,
    nodes: int | None = None,
) -> IntegrationReport:
    """Estimate Z = (1/M!) int prod(x_k-x_i)^{L^2} prod w(x_i) dx."""
    if method == "closed_form":
        key = (weight.label(), shape.L, shape.M)
        if key not in CLOSED_FORMS:
            raise ValueError(f"no closed form recorded for {key}")
        return IntegrationReport(as_float(CLOSED_FORMS[key]), 0.0, 0, method)
    f = partial(_interaction_array, L2=shape.L * shape.L)
    result = _integrate(weight, shape, shape.M, f, method, budget, seed, 1, threads, nodes)
    if method == "monte_carlo":
        return IntegrationReport(*result, method, seed, budget)
    return IntegrationReport(*result, method)


def integrate_R1(
    weight: NamedWeight,
    shape: ModelShape,
    x: float,
    method: str = "monte_carlo",
    budget: int = 10**6,
    seed: int = 0,
    threads: int = 1,
    nodes: int | None = None,
) -> IntegrationReport:
    """Estimate R_1(x) from its defining (M-1)-fold integral over Z, both
    by `method`."""
    if method == "closed_form":
        raise ValueError("no closed form for R_1")
    x = float(x)
    L2 = shape.L * shape.L
    wx = weight.density_float(x)
    zrep = integrate_partition(weight, shape, method, budget, seed, threads, nodes)
    if shape.M == 1:
        # R_1 = w(x)/m_0, so the estimate of m_0 carries the relative error
        est = wx / zrep.estimate
        return dataclasses.replace(zrep, estimate=est, std_error=abs(est) * zrep.std_error / zrep.estimate)

    def f_insert(Y: np.ndarray) -> np.ndarray:
        out = _interaction_array(Y, L2)
        for j in range(shape.M - 1):
            out *= (x - Y[:, j]) ** L2
        return out

    numer, numer_se, count = _integrate(
        weight, shape, shape.M - 1, f_insert, method, budget, seed, 2, threads, nodes
    )
    est = wx * numer / zrep.estimate
    rel = 0.0
    if numer != 0.0:
        rel = math.sqrt((numer_se / numer) ** 2 + (zrep.std_error / zrep.estimate) ** 2)
    return dataclasses.replace(zrep, estimate=est, std_error=abs(est) * rel, samples_or_nodes=count)
