"""Analytic inputs and ensemble observables.

Moments are the primary representation: every formula downstream
consumes only m_k (or the shifted m-hat), so exactness survives even
for weights like the Gaussian whose moments carry a sqrt(pi) tag.  The
exact cores read the plain moments, and each entry point tags its value
by its degree in the moments, in MomentSequence.tagged.
Pointwise weight values exist only for named weights; explicit moment
lists support all the algebra but only weightless correlation factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exterior import ModelShape, Multivector, blade_weights, omega, star_pairing
from .scalars import SCALE_FLOATS, Tagged, as_float, format_rational, rational, tagged
from .spine import structure_table


class MomentRangeError(IndexError):
    """Moment index outside the stored range (an error, never zero)."""


class MomentSequence:
    """m_0 .. m_D, exact rationals with an optional common scale tag.

    The one numeric input, and the only code that knows a value was a
    float or carries the tag: the cores read plain(), and tagged() puts
    symbol^degree on what they return.  Each float (oracle output, a JSON
    number) is read once, as the dyadic rational it is; a non-finite float
    or a bool raises ValueError.
    A sequence read from floats records that (floats), and result() rounds
    a value derived from it once.  Shifted access mhat(p, K) = m_{p+K} is
    legal for p in [-K, D-K] and raises outside that window.
    """

    __slots__ = ("values", "scale_symbol", "floats")

    def __init__(self, values, scale_symbol: str | None = None):
        vals, floats = [], False
        for v in values:
            if isinstance(v, bool):
                raise ValueError(f"boolean moment {v!r}")
            if isinstance(v, float):
                if not math.isfinite(v):
                    raise ValueError(f"non-finite moment {v!r}")
                v, floats = Fraction(v), True
            vals.append(rational(v))
        if not vals:
            raise ValueError("empty moment sequence")
        if scale_symbol is not None and scale_symbol not in SCALE_FLOATS:
            raise ValueError(f"unknown scale symbol {scale_symbol!r}")
        self.values = tuple(vals)
        self.scale_symbol = scale_symbol
        self.floats = floats

    @property
    def D(self) -> int:
        return len(self.values) - 1

    def m(self, k: int):
        if not 0 <= k <= self.D:
            raise MomentRangeError(f"m_{k} outside stored range 0..{self.D}")
        v = self.values[k]
        return v if self.scale_symbol is None else Tagged(v, 1, self.scale_symbol)

    def mhat(self, p: int, K: int):
        if not -K <= p <= self.D - K:
            raise MomentRangeError(
                f"mhat_{p} outside shifted range [{-K}, {self.D - K}]"
            )
        return self.m(p + K)

    def plain(self, K: int) -> tuple:
        """The untagged mhat_{-K} .. mhat_K, i.e. m_0 .. m_{2K}."""
        if self.D < 2 * K:
            raise MomentRangeError(f"need moments through m_{2 * K}, have D={self.D}")
        return self.values[: 2 * K + 1]

    def tagged(self, value, degree: int):
        """value * symbol^degree for a value homogeneous of that degree in
        these moments but computed from the plain ones; a zero stays a
        plain 0."""
        return tagged(value, degree, self.scale_symbol) if self.scale_symbol and value else value

    def result(self, value):
        """A value computed exactly from these moments, as it is returned:
        rounded once to a float when they were read from floats."""
        return as_float(value) if self.floats else value

    def derived(self, values) -> "MomentSequence":
        """Exact values computed from this sequence, as a sequence of the
        same scale, rounded to floats when this one was read from floats."""
        return MomentSequence([as_float(v) for v in values] if self.floats else values, self.scale_symbol)

    def scaled(self, c) -> "MomentSequence":
        c = rational(c)
        return self.derived([v * c for v in self.values])

    def as_float(self) -> "MomentSequence":
        scale = SCALE_FLOATS[self.scale_symbol] if self.scale_symbol else 1.0
        return MomentSequence([float(v) * scale for v in self.values], None)

    def __eq__(self, other):
        if not isinstance(other, MomentSequence):
            return NotImplemented
        return (self.values, self.scale_symbol, self.floats) == (other.values, other.scale_symbol, other.floats)

    def to_json_dict(self) -> dict:
        scale = None
        if self.scale_symbol is not None:
            scale = {"symbol": self.scale_symbol, "float": SCALE_FLOATS[self.scale_symbol]}
        write = float if self.floats else format_rational
        return {"scale": scale, "moments": [write(v) for v in self.values]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MomentSequence":
        if not isinstance(data, dict):
            raise ValueError(f"a moments file holds a JSON object, not {type(data).__name__}")
        moments, scale = data["moments"], data.get("scale")
        if not isinstance(moments, list):
            raise ValueError(f'"moments" holds a JSON list, not {type(moments).__name__}')
        return cls(moments, scale["symbol"] if scale else None)


def double_factorial_odd(k: int) -> int:
    """(2k-1)!! with the empty-product convention at k = 0."""
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out


@dataclass(frozen=True)
class NamedWeight:
    """uniform on [a, b], Gaussian exp(-x^2), or an explicit list."""

    kind: str  # "uniform" | "gaussian" | "explicit"
    a: object = None
    b: object = None
    explicit: MomentSequence | None = None

    @classmethod
    def uniform(cls, a, b) -> "NamedWeight":
        a, b = rational(a), rational(b)
        if not b > a:
            raise ValueError("uniform weight needs a < b")
        return cls("uniform", a, b)

    @classmethod
    def gaussian(cls) -> "NamedWeight":
        return cls("gaussian")

    @classmethod
    def from_moments(cls, moments: MomentSequence) -> "NamedWeight":
        return cls("explicit", explicit=moments)

    def moments(self, D: int) -> MomentSequence:
        if self.kind == "uniform":
            vals = [
                (self.b ** (k + 1) - self.a ** (k + 1)) / (k + 1) for k in range(D + 1)
            ]
            return MomentSequence(vals)
        if self.kind == "gaussian":
            vals = []
            for k in range(D + 1):
                if k % 2:
                    vals.append(rational(0))
                else:
                    h = k // 2
                    vals.append(rational(double_factorial_odd(h)) / 2**h)
            return MomentSequence(vals, "sqrt_pi")
        if self.explicit.D < D:
            raise MomentRangeError(
                f"explicit moments stop at D={self.explicit.D}, need {D}"
            )
        return self.explicit

    def density_exact(self, x):
        """Pointwise weight at rational x, or None when that value is
        irrational (Gaussian) or unknown (explicit moments)."""
        if self.kind == "uniform":
            x = rational(x)
            return rational(1) if self.a <= x <= self.b else rational(0)
        return None

    def density_float(self, x: float) -> float:
        if self.kind == "uniform":
            return 1.0 if float(self.a) <= x <= float(self.b) else 0.0
        if self.kind == "gaussian":
            return math.exp(-x * x)
        raise ValueError("explicit-moment weights have no pointwise density")

    def label(self) -> str:
        if self.kind == "uniform":
            return f"uniform:{format_rational(self.a)},{format_rational(self.b)}"
        return self.kind


def gram_form(moments: MomentSequence, shape: ModelShape) -> Multivector:
    """gamma = sum_p mhat_p eps_p: coefficient w_J * mhat_{p_J} on each
    L-blade J, over the plain (untagged) moments.  Exact: a float sequence
    gives the dyadic values it was read as."""
    mhat, K = moments.plain(shape.K), shape.K
    terms = {mask: w * mhat[p + K] for mask, (w, p) in blade_weights(shape).items()}
    return Multivector(shape, terms, shape.L)


def partition_function(moments: MomentSequence, shape: ModelShape, route: str = "hyperpfaffian"):
    """Z by either the hyperpfaffian of gamma or the structure-table
    polynomial; the two must agree exactly.  Z, of degree M, is computed
    exactly and returned through moments.result."""
    if route == "hyperpfaffian":
        return moments.result(moments.tagged(star_pairing(gram_form(moments, shape))(()), shape.M))
    if route == "structure_poly":
        return moments.result(structure_table(shape).evaluate(moments))
    raise ValueError(f"unknown partition route {route!r}")


def correlation(
    points,
    weight: NamedWeight,
    shape: ModelShape,
    weightless: bool = False,
    mode: str = "exact",
):
    """R_m(x_1..x_m) = (prod w(x_i)/Z) * star(omega(x_1)^..^omega(x_m)^Gamma)
    with the background Gamma = gamma^{M-m}/(M-m)!.

    weightless=True omits the prod w(x_i) prefactor (the only option
    for explicit-moment weights).  The weightless ratio, of degree -m, is
    always exact (a float point is the dyadic rational it is); float mode
    converts it once and multiplies by the float weight values.  Z = 0
    raises ValueError.
    """
    m = len(points)
    if not 1 <= m <= shape.M:
        raise ValueError(f"need 1..{shape.M} points, got {m}")
    xs = [rational(Fraction(x) if isinstance(x, float) else x) for x in points]
    if mode == "float":
        w = 1.0 if weightless else math.prod(weight.density_float(float(x)) for x in xs)
    else:
        w = rational(1)
        for x in () if weightless else xs:
            d = weight.density_exact(x)
            if d is None:
                raise ValueError("no exact pointwise weight; use weightless=True or float mode")
            w = w * d
    moments = weight.moments(2 * shape.K)
    pair = star_pairing(gram_form(moments, shape))
    ratio = moments.result(moments.tagged(pair(tuple(omega(x, shape) for x in xs)) / _nonzero_z(pair), -m))
    return w * as_float(ratio) if mode == "float" else w * ratio


def r1_normalization(moments: MomentSequence, shape: ModelShape):
    """Exact moment-integration of R_1: star(gamma ^ gamma^{M-1}/(M-1)!)/Z.

    Integrating omega(x) against the weight turns it into gamma, so
    this is the x-integral of the unnormalized density; must equal M, a
    plain value (degree 0).  Z = 0 raises ValueError.
    """
    gamma = gram_form(moments, shape)
    pair = star_pairing(gamma)
    return moments.result(pair((gamma,)) / _nonzero_z(pair))


def _nonzero_z(pair):
    """The untagged Z of a star_pairing, which a ratio divides by."""
    if not (Z := pair(())):
        raise ValueError("Z = 0 for these moments: the density ratio is undefined")
    return Z
