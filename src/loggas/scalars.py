"""Exact scalar arithmetic.

Inputs and results are arbitrary-precision rationals, fractions.Fraction.
Weights such as exp(-x^2) have moments that are rational multiples of
one irrational constant; those are carried symbolically as Tagged values

    rational * symbol**power

so Gaussian computations stay exact.  Tags combine multiplicatively.
Adding two nonzero scalars with different tag powers is an error: every
observable computed here is homogeneous in the moments, so a mismatch
means a formula was assembled wrong, not that rounding is needed.

The exact cores never see a tag: they sum plain ints, read_scaled turns
their rational inputs into integer numerators over one denominator, and
each core divides its integer total by that denominator once.  The tag is
attached afterwards, by the value's degree in the moments, in
ensemble.MomentSequence.tagged.  read_scaled refuses a float and a Tagged:
floats are read, and a derived value rounded, at the one numeric input,
ensemble.MomentSequence.
"""
from __future__ import annotations

import math
from fractions import Fraction

_mpq = Fraction  # the one rational type; the benchmark reports its module as the scalar backend

# Named positive constants usable as scale tags.
SCALE_FLOATS = {"sqrt_pi": math.sqrt(math.pi)}


class ScaleMismatchError(ArithmeticError):
    """Raised when exact scalars with different scale powers are added."""


def rational(x):
    """Coerce x to the exact rational type.  Floats are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    if isinstance(x, Tagged):
        raise TypeError("tagged scalar where a plain rational is required")
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


def format_rational(q) -> str:
    """Render as 'num/den', or 'num' when the denominator is one."""
    q = rational(q)
    num, den = q.numerator, q.denominator
    return f"{num}" if den == 1 else f"{num}/{den}"


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


class Tagged:
    """rational * symbol**power with power != 0.

    Instances are immutable.  A Tagged with value 0 keeps its power so
    that homogeneous sequences (e.g. Gaussian moments, where the odd
    moments vanish) stay uniformly tagged; zero is neutral for addition
    regardless of power.
    """

    __slots__ = ("value", "symbol", "power")

    def __init__(self, value, power: int, symbol: str = "sqrt_pi"):
        if power == 0:
            raise ValueError("power 0 would be a plain rational; use tagged()")
        if symbol not in SCALE_FLOATS:
            raise ValueError(f"unknown scale symbol {symbol!r}")
        object.__setattr__(self, "value", rational(value))
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "power", int(power))

    def __setattr__(self, *a):
        raise AttributeError("Tagged is immutable")

    # -- predicates -------------------------------------------------
    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Tagged):
            if self.value == 0 and other.value == 0:
                return True
            return (self.value, self.symbol, self.power) == (
                other.value,
                other.symbol,
                other.power,
            )
        if is_rational(other):
            return self.value == 0 and other == 0
        return NotImplemented

    def __hash__(self):
        if self.value == 0:
            return hash(0)
        return hash((str(self.value), self.symbol, self.power))

    # -- ring operations --------------------------------------------
    def _check(self, other):
        if other.symbol != self.symbol:
            raise ScaleMismatchError(
                f"scale symbols differ: {self.symbol} vs {other.symbol}"
            )

    def __add__(self, other):
        if isinstance(other, Tagged):
            self._check(other)
            if self.value == 0:
                return other
            if other.value == 0:
                return self
            if self.power != other.power:
                raise ScaleMismatchError(
                    f"cannot add {self.symbol}^{self.power} to {self.symbol}^{other.power}"
                )
            return Tagged(self.value + other.value, self.power, self.symbol)
        if is_rational(other):
            if other == 0:
                return self
            if self.value == 0:
                return rational(other)
            raise ScaleMismatchError(
                f"cannot add plain rational to {self.symbol}^{self.power}"
            )
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tagged):
            self._check(other)
            return tagged(self.value * other.value, self.power + other.power, self.symbol)
        if is_rational(other):
            return Tagged(self.value * rational(other), self.power, self.symbol)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tagged):
            self._check(other)
            return tagged(self.value / other.value, self.power - other.power, self.symbol)
        if is_rational(other):
            return Tagged(self.value / rational(other), self.power, self.symbol)
        return NotImplemented

    def __rtruediv__(self, other):
        if is_rational(other):
            return tagged(rational(other) / self.value, -self.power, self.symbol)
        return NotImplemented

    def __pow__(self, k):
        k = int(k)
        if k == 0:
            return rational(1)
        return tagged(self.value**k, self.power * k, self.symbol)

    def __float__(self):
        return float(self.value) * SCALE_FLOATS[self.symbol] ** self.power

    def __repr__(self):
        return f"{format_rational(self.value)}*{self.symbol}^{self.power}"


def tagged(value, power: int, symbol: str = "sqrt_pi"):
    """Tagged constructor that collapses power 0 to a plain rational."""
    if power == 0:
        return rational(value)
    return Tagged(value, power, symbol)


def as_float(x) -> float:
    """Numeric value of a rational, Tagged, or float scalar."""
    return float(x)


def scalar_json(x):
    """JSON-ready form: rational string, tagged object, or float."""
    if isinstance(x, float):
        return x
    if isinstance(x, Tagged):
        return {
            "rational": format_rational(x.value),
            "symbol": x.symbol,
            "power": x.power,
        }
    return format_rational(x)


def scalar_is_zero(x) -> bool:
    if isinstance(x, Tagged):
        return x.value == 0
    return x == 0


def read_scaled(values) -> tuple:
    """(nums, den) with values[i] == nums[i]/den and every nums[i] a plain
    int.  The values are exact rationals: a float or a Tagged raises
    TypeError (a tag is attached by degree, after the sum)."""
    values = list(values)
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"{type(v).__name__} {v!r} in an exact sum; read floats and tags in MomentSequence")
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den
