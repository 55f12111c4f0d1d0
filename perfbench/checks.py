"""Independent checks of each job's output, run outside the timed interval.

Exact values are recomputed from the structure table (the momentum-polynomial
route), never from the exterior-algebra route a job itself takes.  Each table
is verified once per run against the exterior route (divided powers, then a
complement pairing written here) on one seeded random background, so a wrong
table cannot vouch for a wrong answer.  Float outputs must lie within 1e-9
relative of the exact value; Monte Carlo estimates within 3 standard errors
plus 1% of a closed form, with the standard error itself under 2%.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

from loggas.ensemble import MomentSequence, NamedWeight, gram_form
from loggas.exterior import ModelShape, divided_wedge_power, merge_sign
from loggas.oracle import CLOSED_FORMS, direct_interaction
from loggas.scalars import Tagged, as_float
from loggas.spine import CACHE_ENV, structure_table

from jobs import rand_rational

FLOAT_RTOL = 1e-9
MC_SIGMAS = 3
MC_SLACK = 0.01
MC_MAX_REL_SE = 0.02


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ------------------------------------------------------------ scalar forms


def norm(x):
    """Exact scalar -> (Fraction, sqrt_pi power); zero has power 0."""
    if isinstance(x, Tagged):
        v, p = x.value, x.power
    else:
        v, p = x, 0
    v = Fraction(int(v.numerator), int(v.denominator))
    return (v, p) if v else (Fraction(0), 0)


def parse(x):
    """JSON scalar from the CLI -> the form norm() gives, or a float."""
    if isinstance(x, float):
        return x
    if isinstance(x, dict):
        v = Fraction(x["rational"])
        require(x["symbol"] == "sqrt_pi", f"unknown symbol {x['symbol']!r}")
        return (v, int(x["power"])) if v else (Fraction(0), 0)
    require(isinstance(x, str), f"unexpected scalar {x!r}")
    return (Fraction(x), 0)


def same_exact(expected, got, what: str) -> None:
    require(norm(expected) == parse(got), f"{what}: expected {expected!r}, got {got!r}")


def close(expected: float, got, rtol: float, what: str) -> None:
    require(isinstance(got, float), f"{what}: expected a float, got {got!r}")
    require(abs(got - expected) <= rtol * abs(expected), f"{what}: {got!r} vs {expected!r}")


def laurent_same(expected: dict, got: dict, what: str) -> None:
    want = {str(e): norm(c) for e, c in expected.items() if norm(c)[0]}
    have = {e: parse(c) for e, c in got.items()}
    require(want == have, f"{what}: coefficients differ")


# ------------------------------------------------------ table-side values


def _mult(key) -> int:
    """Product of factorials of the multiplicities in a sorted tuple."""
    out, run = 1, 1
    for i in range(1, len(key)):
        run = run + 1 if key[i] == key[i - 1] else 1
        out *= run
    return out


def _integer_moments(moments: MomentSequence, K: int):
    """mhat_p = N[p] / D * sqrt_pi^s for |p| <= K, with integer N[p] and D,
    so the table sums below run on plain integers."""
    vals = {p: Fraction(moments.values[p + K]) for p in range(-K, K + 1)}
    D = math.lcm(*(v.denominator for v in vals.values()))
    N = {p: v.numerator * (D // v.denominator) for p, v in vals.items()}
    return N, D, 1 if moments.scale_symbol else 0


def _scalar(num: int, den: int, power: int):
    v = Fraction(num, den)
    return Tagged(v, power) if power else v


def z_poly(table, moments: MomentSequence):
    """Z = sum over canonical keys P of C_P prod mhat_p / mult(P)."""
    K, M = table.shape.K, table.shape.M
    N, D, s = _integer_moments(moments, K)
    fM = math.factorial(M)
    total = 0
    for key, C in table.entries.items():
        prod = C * (fM // _mult(key))
        for p in key:
            prod *= N[p]
        total += prod
    return _scalar(total, D**M * fM, s * M)


def adjunction_values(table, moments: MomentSequence) -> dict:
    """A_q = star(eps_q ^ gamma^(M-1)/(M-1)!) for every q, from the table.

    The same sum as spine.adjunction_expansion, grouped by the multiset R
    of the other M-1 momenta: A_q = sum over keys P containing q of
    C_P prod_{r in R} mhat_r / mult(R).  One pass gives every q.
    """
    K, M = table.shape.K, table.shape.M
    N, D, s = _integer_moments(moments, K)
    f = math.factorial(M - 1)
    A: dict = {}
    for key, C in table.entries.items():
        for q in set(key):
            rest = list(key)
            rest.remove(q)
            prod = C * (f // _mult(rest))
            for p in rest:
                prod *= N[p]
            A[q] = A.get(q, 0) + prod
    return {q: _scalar(a, D ** (M - 1) * f, s * (M - 1)) for q, a in A.items()}


def z_exterior(moments: MomentSequence, shape: ModelShape):
    """Z = star(gamma ^ gamma^(M-1)/(M-1)!)/M by complement pairing."""
    gamma = gram_form(moments, shape)
    rest = divided_wedge_power(gamma, shape.M - 1)
    vol = shape.volume_mask
    total = 0
    for mask, c in gamma.terms.items():
        d = rest.terms.get(vol ^ mask)
        if d is not None:
            total = total + c * d * merge_sign(mask, vol ^ mask)
    return total / shape.M


def weight_of(spec: dict) -> NamedWeight:
    if spec["kind"] == "file":
        return NamedWeight.from_moments(MomentSequence(spec["moments"]))
    if spec["kind"] == "uniform":
        return NamedWeight.uniform(Fraction(spec["a"]), Fraction(spec["b"]))
    return NamedWeight.gaussian()


# ------------------------------------------------------------------ checker


class Checker:
    """Checks job outputs; verified tables are kept for the whole run."""

    def __init__(self, seed: int, warm_dir: str, warm_shapes):
        self.seed = seed
        self.warm_dir = warm_dir
        self.warm_shapes = set(warm_shapes)
        self.tables: dict = {}
        self.verified_outputs: set = set()

    def table(self, shape: tuple):
        """The structure table at shape, verified against the exterior route.

        Tables the workload warmed are loaded from its warm cache; others
        are built in memory."""
        if shape not in self.tables:
            s = ModelShape(*shape)
            old = os.environ.get(CACHE_ENV)
            os.environ[CACHE_ENV] = self.warm_dir
            try:
                t = structure_table(s, cache=shape in self.warm_shapes)
            finally:
                if old is None:
                    del os.environ[CACHE_ENV]
                else:
                    os.environ[CACHE_ENV] = old
            rng = random.Random(f"verify-table:{self.seed}:{shape}")
            ms = MomentSequence([rand_rational(rng) for _ in range(2 * s.K + 1)])
            require(z_poly(t, ms) == z_exterior(ms, s), f"table {shape} disagrees with the hyperpfaffian")
            self.tables[shape] = t
        return self.tables[shape]

    def check(self, job, text: str) -> None:
        """Raise CheckFailed unless the job's stdout is correct."""
        if job.command == "structure":
            # a table prints identically every time; verify each text once
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest not in self.verified_outputs:
                self._structure(job, json.loads(text))
                self.verified_outputs.add(digest)
            return
        handler = getattr(self, "_" + job.command.replace("-", "_"))
        handler(job, json.loads(text))

    # -- backgrounds / tables ---------------------------------------------

    def _exact_z(self, job):
        shape = ModelShape(*job.shape)
        ms = weight_of(job.spec["weight"]).moments(2 * shape.K)
        return z_poly(self.table(job.shape), ms)

    def _partition(self, job, out):
        require(out.get("routes_agree") is True, "routes disagree")
        z = self._exact_z(job)
        same_exact(z, out["Z"], "Z")
        same_exact(z, out["Z_structure_poly"], "Z_structure_poly")

    def _partition_poly(self, job, out):
        same_exact(self._exact_z(job), out["Z_structure_poly"], "Z_structure_poly")

    def _partition_float(self, job, out):
        close(as_float(self._exact_z(job)), out["Z"], FLOAT_RTOL, "Z")

    def _tau(self, job, out):
        same_exact(self._exact_z(job), out["tau"], "tau")

    def _tau_float(self, job, out):
        close(as_float(self._exact_z(job)), out["tau"], FLOAT_RTOL, "tau")

    def _correlate_1(self, job, out):
        # R_1(x) Z = w(x) sum_p x^(p+K) A_p
        shape = ModelShape(*job.shape)
        w = weight_of(job.spec["weight"])
        ms = w.moments(2 * shape.K)
        table = self.table(job.shape)
        A = adjunction_values(table, ms)
        x = Fraction(job.spec["points"][0])
        total = 0
        for p, a in A.items():
            total = total + a * x ** (p + shape.K)
        if not job.spec["weightless"]:
            total = total * w.density_exact(x)
        same_exact(total / z_poly(table, ms), out["R"], "R_1")

    def _correlate_M(self, job, out):
        # R_M = prod w(x_i) * prod_{i<k}(x_k - x_i)^(L^2) / Z
        shape = ModelShape(*job.shape)
        w = weight_of(job.spec["weight"])
        xs = [Fraction(p) for p in job.spec["points"]]
        value = direct_interaction(xs, shape.L)
        if not job.spec["weightless"]:
            for x in xs:
                value = value * w.density_exact(x)
        same_exact(value / self._exact_z(job), out["R"], "R_M")

    def _wave_pair(self, job):
        """Expected psi- and psi+ coefficients, keyed by power of z."""
        shape = ModelShape(*job.shape)
        plus = ModelShape(shape.L, shape.M + 1)
        w = weight_of(job.spec["weight"])
        K, Kp = shape.K, plus.K
        k_cut = max(2 * K, 1)
        A = adjunction_values(self.table(job.shape), w.moments(2 * K))
        minus = {p + K: A.get(p, 0) for p in range(-K, K + 1)}
        msp = w.moments(k_cut + 2 * Kp)
        Ap = adjunction_values(self.table((plus.L, plus.M)), msp)
        L2 = shape.L * shape.L
        plus_c = {}
        for k in range(1, k_cut + 1):
            total = 0
            for p, a in Ap.items():
                total = total + msp.mhat(k + p, Kp) * a
            plus_c[-k] = math.comb(L2 + k - 1, k) * total
        return minus, plus_c

    def _psi(self, job, out):
        minus, plus_c = self._wave_pair(job)
        laurent_same(minus, out["psi_minus"], "psi_minus")
        laurent_same(plus_c, out["psi_plus"], "psi_plus")

    def _transport_spectrum(self, job, out):
        minus, plus_c = self._wave_pair(job)
        prod: dict = {}
        for e1, c1 in minus.items():
            for e2, c2 in plus_c.items():
                prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
        laurent_same(prod, out["spectrum"], "spectrum")
        same_exact(prod.get(0, Fraction(0)), out["z0"], "z0")

    def _structure(self, job, out):
        t = self.table(job.shape)
        require((out["L"], out["M"], out["K"]) == (t.shape.L, t.shape.M, t.shape.K), "shape fields")
        entries = {tuple(k): int(v) for k, v in out["entries"]}
        require(len(entries) == len(out["entries"]), "repeated keys")
        require(entries == t.entries, "entries differ from the verified table")

    # -- verification sweeps ----------------------------------------------

    def _report(self, out, name: str, count: int) -> list:
        """A verify report must name its sweep, hold the asked-for number
        of checks, and pass each of them."""
        checks = out.get("checks")
        require(out.get("verify") == name, "wrong sweep name")
        require(isinstance(checks, list) and len(checks) == count, f"expected {count} checks")
        require(count > 0 and out.get("passed") is True, "sweep did not pass")
        require(all(c.get("ok") is True for c in checks), "a check is not ok")
        return checks

    def _verify_confluent(self, job, out):
        checks = self._report(out, "confluent", job.spec["trials"])
        require(all(c["actual"] == c["expected"] for c in checks), "actual != expected")

    def _verify_plucker(self, job, out):
        K = ModelShape(*job.shape).K
        count = (4 * K + 1) + sum(2 * j * K + 1 for j in range(3, job.spec["j_max"] + 1))
        checks = self._report(out, "plucker", count)
        require(all(c["actual_terms"] == 0 for c in checks), "nonzero residual")

    def _verify_toeplitz(self, job, out):
        checks = self._report(out, "toeplitz", job.spec["trials"])
        require(all(c["nonzero_at"] == [] for c in checks), "nonzero residual")

    def _verify_adjunction(self, job, out):
        checks = self._report(out, "adjunction", job.spec["trials"])
        require(all(c["mismatch_at"] == [] for c in checks), "mismatch")

    # -- numeric oracles --------------------------------------------------

    def _exact_r1(self, job) -> float:
        shape = ModelShape(*job.shape)
        w = weight_of(job.spec["weight"])
        ms = w.moments(2 * shape.K)
        table = self.table(job.shape)
        x = Fraction(job.spec["x"])
        total = 0
        for p, a in adjunction_values(table, ms).items():
            total = total + a * x ** (p + shape.K)
        return w.density_float(float(x)) * as_float(total / z_poly(table, ms))

    def _mc(self, out, exact: float, budget: int) -> None:
        require(out["method"] == "monte_carlo" and out["samples_or_nodes"] == budget, "sample count")
        se, est = out["std_error"], out["estimate"]
        require(0 < se <= MC_MAX_REL_SE * abs(exact), f"standard error {se!r} too large")
        require(abs(est - exact) <= MC_SIGMAS * se + MC_SLACK * abs(exact), f"estimate {est!r} vs {exact!r}")

    def _oracle_mc(self, job, out):
        w = job.spec["weight"]
        label = "gaussian" if w["kind"] == "gaussian" else f"uniform:{w['a']},{w['b']}"
        self._mc(out, as_float(CLOSED_FORMS[(label, *job.shape)]), job.spec["budget"])

    def _oracle_mc_r1(self, job, out):
        self._mc(out, self._exact_r1(job), job.spec["budget"])

    def _oracle_tq(self, job, out):
        require(out["method"] == "tensor_quadrature", "method")
        close(as_float(self._exact_z(job)), out["estimate"], FLOAT_RTOL, "Z")

    def _oracle_tq_r1(self, job, out):
        require(out["method"] == "tensor_quadrature", "method")
        close(self._exact_r1(job), out["estimate"], FLOAT_RTOL, "R_1")
