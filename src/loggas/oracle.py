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

import numpy as np

from .ensemble import MomentSequence, NamedWeight
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


def _shard_budgets(budget: int) -> list:
    base, extra = divmod(budget, MC_SHARDS)
    return [base + (1 if s < extra else 0) for s in range(MC_SHARDS)]


def _pairwise_sum(values: list) -> float:
    # fixed-tree reduction: result independent of thread scheduling
    vals = list(values)
    while len(vals) > 1:
        vals = [
            vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
            for i in range(0, len(vals), 2)
        ]
    return vals[0]


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


def _mc_moments(weight, dims, budgets, seed, seed_tag, threads, f_of_points):
    """Per-shard (sum, sumsq, count) of f over base-measure samples,
    reduced in fixed shard order."""

    def run(shard: int):
        n = budgets[shard]
        if n == 0:
            return (0.0, 0.0, 0)
        rng = np.random.default_rng(np.random.SeedSequence((seed, seed_tag, shard)))
        X, ratio = _sample_base(weight, rng, n, dims)
        f = f_of_points(X) * ratio
        return (float(f.sum()), float((f * f).sum()), n)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, range(MC_SHARDS)))
    else:
        results = [run(s) for s in range(MC_SHARDS)]
    total = _pairwise_sum([r[0] for r in results])
    total_sq = _pairwise_sum([r[1] for r in results])
    count = sum(r[2] for r in results)
    return total, total_sq, count


def _mc_mean(weight, dims, budget, seed, seed_tag, threads, f_of_points):
    total, total_sq, n = _mc_moments(
        weight, dims, _shard_budgets(budget), seed, seed_tag, threads, f_of_points
    )
    mean = total / n
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return mean, math.sqrt(var / n), n


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


def _gauss_nodes_for(shape: ModelShape) -> int:
    # integrand degree per axis is L^2 (M-1); Gauss-n is exact to 2n-1
    return shape.L * shape.L * (shape.M - 1) // 2 + 1


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
    L2 = shape.L * shape.L
    M = shape.M
    if method == "closed_form":
        key = (weight.label(), shape.L, shape.M)
        if key not in CLOSED_FORMS:
            raise ValueError(f"no closed form recorded for {key}")
        return IntegrationReport(
            estimate=as_float(CLOSED_FORMS[key]),
            std_error=0.0,
            samples_or_nodes=0,
            method="closed_form",
        )
    if method == "tensor_quadrature":
        n = nodes if nodes is not None else _gauss_nodes_for(shape)
        X, W = _tensor_nodes(weight, n, M)
        est = float(W @ _interaction_array(X, L2)) / math.factorial(M)
        return IntegrationReport(
            estimate=est,
            std_error=0.0,
            samples_or_nodes=n**M,
            method="tensor_quadrature",
        )
    if method == "monte_carlo":
        mean, se, n = _mc_mean(
            weight, M, budget, seed, 1, threads, lambda X: _interaction_array(X, L2)
        )
        scale = 1.0 / math.factorial(M)
        return IntegrationReport(
            estimate=scale * mean,
            std_error=scale * se,
            samples_or_nodes=n,
            method="monte_carlo",
            seed=seed,
            budget=budget,
        )
    raise ValueError(f"unknown method {method!r}")


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
    """Estimate R_1(x) from its defining (M-1)-fold integral."""
    if method not in ("tensor_quadrature", "monte_carlo"):
        raise ValueError("no closed form for R_1" if method == "closed_form" else f"unknown method {method!r}")
    x = float(x)
    L2 = shape.L * shape.L
    M = shape.M
    wx = weight.density_float(x)
    if M == 1:
        # R_1 = w(x)/m_0, so the estimate of m_0 carries the relative error
        m0 = integrate_partition(weight, shape, method, budget, seed, threads, nodes)
        est = wx / m0.estimate
        return dataclasses.replace(m0, estimate=est, std_error=abs(est) * m0.std_error / m0.estimate)

    def f_insert(Y: np.ndarray) -> np.ndarray:
        out = _interaction_array(Y, L2)
        for j in range(M - 1):
            out *= (x - Y[:, j]) ** L2
        return out

    if method == "tensor_quadrature":
        n = nodes if nodes is not None else _gauss_nodes_for(shape)
        Y, W = _tensor_nodes(weight, n, M - 1)
        numer = float(W @ f_insert(Y)) / math.factorial(M - 1)
        Z = integrate_partition(weight, shape, "tensor_quadrature", nodes=n).estimate
        return IntegrationReport(
            estimate=wx * numer / Z,
            std_error=0.0,
            samples_or_nodes=n ** (M - 1),
            method=method,
        )
    mean_n, se_n, n1 = _mc_mean(weight, M - 1, budget, seed, 2, threads, f_insert)
    numer = mean_n / math.factorial(M - 1)
    numer_se = se_n / math.factorial(M - 1)
    zrep = integrate_partition(weight, shape, "monte_carlo", budget, seed, threads)
    est = wx * numer / zrep.estimate
    rel = 0.0
    if numer != 0.0:
        rel = math.sqrt(
            (numer_se / numer) ** 2 + (zrep.std_error / zrep.estimate) ** 2
        )
    return IntegrationReport(
        estimate=est,
        std_error=abs(est) * rel,
        samples_or_nodes=n1,
        method=method,
        seed=seed,
        budget=budget,
    )


def time_vector_moments(
    times, degree: int, budget: int | None = None, support=None
) -> MomentSequence:
    """Numeric moments of w(t; x) = exp(sum_i t_i x^i).

    Without a compact support override the weight must decay: the
    highest active time index must be even with a negative coefficient.
    """
    from scipy.integrate import quad

    active = {int(i): float(t) for i, t in dict(times).items() if float(t) != 0.0}
    if support is None:
        if not active:
            raise ValueError("constant weight on the whole line is not integrable")
        imax = max(active)
        if imax % 2 or active[imax] >= 0:
            raise ValueError(
                "non-integrable time vector: highest active even time must be negative"
            )
        lo, hi = -np.inf, np.inf
    else:
        lo, hi = float(support[0]), float(support[1])

    def w(x: float) -> float:
        return math.exp(sum(t * x**i for i, t in active.items()))

    limit = budget if budget is not None else 200
    vals = []
    for k in range(degree + 1):
        val, _ = quad(lambda x: x**k * w(x), lo, hi, limit=limit)
        vals.append(float(val))
    return MomentSequence(vals)
