"""Momentum algebra: modes eps_p, projections, structure coefficients,
and the Plucker / Toeplitz residual family.

The structure table for a shape is universal (independent of the
weight), so it is computed once per (L, M) and persisted as JSON under
a cache directory (env LOGGAS_CACHE_DIR, default ~/.cache/loggas).
"""
from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .exterior import (
    ModelShape,
    Multivector,
    blade_momentum,
    blade_weights,
    parity_mask,
    scalar_multivector,
    wedge,
    wedge_into,
    zero_multivector,
)
from .scalars import rational, read_scaled

CACHE_ENV = "LOGGAS_CACHE_DIR"


@lru_cache(maxsize=None)
def epsilon(p: int, shape: ModelShape) -> Multivector:
    """The p-th momentum mode: all L-blades of momentum p with their
    renormalized Vandermonde weights.  Zero for |p| > K."""
    terms = {mask: w for mask, (w, q) in blade_weights(shape).items() if q == p}
    return Multivector(shape, terms, shape.L)


def momentum_project(a: Multivector, m: int, p: int) -> Multivector:
    """Projection onto the m-particle, momentum-p sector."""
    grade = m * a.shape.L
    terms = {
        mask: c
        for mask, c in a.terms.items()
        if mask.bit_count() == grade and blade_momentum(mask, a.shape) == p
    }
    return Multivector(a.shape, terms, grade if terms else None)


class StructureTable:
    """Canonical keys are weakly increasing zero-sum M-tuples over
    [-K, K]; zero coefficients are omitted, lookups default to 0."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: ModelShape, entries: dict):
        self.shape = shape
        self.entries = dict(sorted(entries.items()))

    def lookup(self, P) -> int:
        key = tuple(sorted(P))
        return self.entries.get(key, 0)

    def evaluate(self, moments):
        """Z = star(gamma^M/M!) = sum over keys P of C_P prod_{p in P} mhat_p / mult(P),
        tagged by its degree M."""
        return self._moment_pass(moments, gradient=False)[None]

    def adjunction(self, moments) -> dict:
        """{q: A_q} for |q| <= K, A_q = star(eps_q ^ gamma^{M-1}/(M-1)!) = dZ/d mhat_q,
        each tagged by its degree M-1."""
        return self._moment_pass(moments, gradient=True)

    def _moment_pass(self, moments, gradient: bool) -> dict:
        """Z (key None) or every A_q on Python ints: with the plain mhat_p read
        as integer numerators num[p] over one denominator den (read_scaled),
        C_P (M-k)!/mult(P) (times count_q(P) for A_q, k = 1) is an integer.
        Each total is divided once by den^(M-k) (M-k)! and tagged by its degree
        M-k (MomentSequence.tagged); the caller rounds it through
        MomentSequence.result."""
        K, M = self.shape.K, self.shape.M
        nums, den = read_scaled(moments.plain(K))
        num = dict(zip(range(-K, K + 1), nums))
        k = 1 if gradient else 0
        f = math.factorial(M - k)
        sums = dict.fromkeys(range(-K, K + 1) if gradient else (None,), 0)
        for key, C in self.entries.items():
            c, mult = C * f, _multiplicity_factor(key)
            if gradient:
                for q in set(key):
                    i = key.index(q)
                    rest = key[:i] + key[i + 1 :]
                    sums[q] += math.prod((num[p] for p in rest), start=c * key.count(q) // mult)
            else:
                sums[None] += math.prod((num[p] for p in key), start=c // mult)
        den = den ** (M - k) * f
        return {q: moments.tagged(Fraction(total, den), M - k) for q, total in sums.items()}

    def __eq__(self, other):
        if not isinstance(other, StructureTable):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def to_json_dict(self) -> dict:
        return {
            "L": self.shape.L,
            "M": self.shape.M,
            "K": self.shape.K,
            "entries": [[list(key), str(val)] for key, val in self.entries.items()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StructureTable":
        shape = ModelShape(int(data["L"]), int(data["M"]))
        if int(data["K"]) != shape.K:
            raise ValueError("inconsistent K in structure-table file")
        entries = {}
        for key, val in data["entries"]:
            P = tuple(int(p) for p in key)
            if len(P) != shape.M or sum(P) != 0 or any(abs(p) > shape.K for p in P):
                raise ValueError(f"invalid structure key {P}")
            if tuple(sorted(P)) != P:
                raise ValueError(f"non-canonical structure key {P}")
            entries[P] = int(val)
        return cls(shape, entries)


def _build_structure_table(shape: ModelShape) -> StructureTable:
    """Lowest-slot expansion over the partitions of the slots into
    L-blocks, memoized by slot bitmask: T(S) maps the sorted block momenta
    of each partition of S to its summed sign * prod w_B."""
    L, inv = shape.L, shape.L * (shape.L - 1) // 2  # C(L, 2), the inversions inside one block
    weights = blade_weights(shape)
    by_low: dict = {}  # lowest slot bit -> [(block, w_B, p_B)]
    for mask, (w, p) in weights.items():
        by_low.setdefault(mask & -mask, []).append((mask, w, p))
    memo: dict = {}

    def T(S: int) -> dict:
        if S.bit_count() == L:
            w, p = weights[S]
            return {(p,): w}
        if S not in memo:
            acc, ps = {}, parity_mask(S)
            for B, w, p in by_low[S & -S]:
                if B & S != B:
                    continue
                # e_B ^ e_R = e_R ^ e_B at even grade, of sign merge_sign(S ^ B, B)
                c = -w if ((ps & B).bit_count() + inv) & 1 else w
                for key, v in T(S ^ B).items():
                    key = tuple(sorted(key + (p,)))
                    acc[key] = acc.get(key, 0) + c * v
            memo[S] = acc
        return memo[S]

    # an unordered partition stands for several ordered block sequences
    # of equal contribution (L even); the ordered star value needs the
    # product of multiplicity factorials of the repeated momenta
    entries = {key: v * _multiplicity_factor(key) for key, v in T(shape.volume_mask).items() if v}
    return StructureTable(shape, entries)


def _multiplicity_factor(key) -> int:
    out = 1
    run = 1
    for i in range(1, len(key)):
        if key[i] == key[i - 1]:
            run += 1
            out *= run
        else:
            run = 1
    return out


def cache_directory() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "loggas"


def structure_table(shape: ModelShape, cache: bool = True) -> StructureTable:
    """Build (or load) the table of C_P = star(eps_{p_1} ^ .. ^ eps_{p_M})."""
    path = cache_directory() / f"structure_L{shape.L}_M{shape.M}.json"
    if cache and path.is_file():
        try:
            table = StructureTable.from_json_dict(json.loads(path.read_text()))
            if table.shape != shape:
                raise ValueError(f"it holds the table of {table.shape}")
            return table
        except (OSError, TypeError, ValueError, KeyError) as e:
            print(f"rebuilt stale table {path}: {e}", file=sys.stderr)
    table = _build_structure_table(shape)
    if cache:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(table.to_json_dict(), fh, indent=1)
            os.replace(tmp, path)
        except OSError as e:  # the cache is best-effort; the table is still returned
            print(f"cache write failed: {e}", file=sys.stderr)
    return table


def _top_grade_mask(shape: ModelShape) -> int | None:
    """The volume mask when two grade-L blades fill all N slots (M = 2), for
    wedge_into's complement lookup; None otherwise."""
    return shape.volume_mask if shape.M == 2 else None


def plucker_residual(n: int, shape: ModelShape) -> Multivector:
    """r_n = sum_{p+q=n} eps_p ^ eps_q, summed in one int map.  Identically zero."""
    K, acc, full = shape.K, {}, _top_grade_mask(shape)
    for p in range(max(-K, n - K), min(K, n + K) + 1):
        wedge_into(acc, epsilon(p, shape).terms, epsilon(n - p, shape).terms, full=full)
    return Multivector(shape, acc)


def higher_plucker_residual(n: int, j: int, shape: ModelShape) -> Multivector:
    """sum over p_1+..+p_j = n of eps_{p_1} ^ .. ^ eps_{p_j}."""
    if not 2 <= j <= shape.M:
        raise ValueError(f"fold count j must lie in [2, M], got {j}")
    K = shape.K

    def rec(partial: Multivector, depth: int, remaining: int) -> Multivector:
        if depth == j - 1:
            if abs(remaining) > K:
                return zero_multivector(shape)
            return wedge(partial, epsilon(remaining, shape))
        acc = zero_multivector(shape)
        lo = max(-K, remaining - (j - 1 - depth) * K)
        hi = min(K, remaining + (j - 1 - depth) * K)
        for p in range(lo, hi + 1):
            nxt = wedge(partial, epsilon(p, shape))
            if nxt.is_zero():
                continue
            acc = acc + rec(nxt, depth + 1, remaining - p)
        return acc

    return rec(scalar_multivector(shape, 1), 0, n)


@dataclass(frozen=True)
class ToeplitzOperator:
    """Finite band T_k; acts on the spine by eps_q -> sum_j T_{q-j} eps_j."""

    band: tuple  # tuple of (offset, scalar) pairs, offsets distinct

    @classmethod
    def from_dict(cls, band: dict) -> "ToeplitzOperator":
        items = tuple(sorted((int(k), rational(v)) for k, v in band.items()))
        return cls(items)

    @classmethod
    def identity(cls) -> "ToeplitzOperator":
        return cls(((0, rational(1)),))

    @classmethod
    def shift(cls, k: int) -> "ToeplitzOperator":
        return cls(((k, rational(1)),))

    def apply(self, q: int, shape: ModelShape) -> Multivector:
        out = zero_multivector(shape)
        for offset, t in self.band:
            j = q - offset
            if abs(j) <= shape.K and t != 0:
                out = out + epsilon(j, shape).scale(t)
        return out


def adjunction_expansion(q: int, moments, shape: ModelShape, table: StructureTable | None = None):
    """star(eps_q ^ gamma^{^(M-1)}/(M-1)!) via the structure table:

        (1/(M-1)!) sum over ordered (p_1..p_{M-1}), sum p_i = -q,
                   of C_{(q, p_1..p_{M-1})} prod mhat_{p_i}

    read from the table's integer pass (StructureTable.adjunction), tagged
    by its degree M-1.  Independent of the exterior-algebra evaluation
    route by construction.
    """
    return (table or structure_table(shape)).adjunction(moments).get(q, rational(0))


def toeplitz_residual(T: ToeplitzOperator, n: int, shape: ModelShape) -> Multivector:
    """r_{n,T} = sum_{p+q=n} eps_p ^ (T eps_q) = sum_k t_k sum_p eps_p ^ eps_{n-k-p},
    summed in one int map over the band's common denominator.  Identically zero."""
    K, acc, full = shape.K, {}, _top_grade_mask(shape)
    nums, den = read_scaled(t for _, t in T.band)
    for (offset, _), t in zip(T.band, nums):
        if not t:
            continue
        m = n - offset
        for p in range(max(-K, m - K), min(K, m + K) + 1):
            wedge_into(acc, epsilon(p, shape).terms, epsilon(m - p, shape).terms, t, full)
    return Multivector(shape, {mask: Fraction(c, den) for mask, c in acc.items() if c})
