"""Sparse exact exterior algebra over N = L*M fermionic slots.

Blades are subsets of {0, .., N-1} stored as int bitmasks.  A Multivector
is a sparse map from blades to scalars, kept in canonical (lexicographic
on the degree tuple) order so that serialized output is unique for a
given value regardless of how it was assembled.

Slot r carries monomial degree r.  The centered index of a slot, used
only for display, is 2r - (N-1) (doubled so it stays an integer).  The
momentum of an L-blade J is sum(J) - L(N-1)/2.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .scalars import is_rational, rational, scalar_is_zero, scalar_json


@dataclass(frozen=True)
class ModelShape:
    """L: particle charge (even, >= 2).  M: particle count (>= 1)."""

    L: int
    M: int

    def __post_init__(self):
        if self.L < 2 or self.L % 2 != 0:
            raise ValueError(f"charge L must be even and >= 2, got {self.L}")
        if self.M < 1:
            raise ValueError(f"particle count M must be >= 1, got {self.M}")

    @property
    def N(self) -> int:
        return self.L * self.M

    @property
    def K(self) -> int:
        # momentum radius; L even makes this an integer
        return self.L * self.L * (self.M - 1) // 2

    @property
    def volume_mask(self) -> int:
        return (1 << self.N) - 1

    def centered_display(self, r: int) -> int:
        return 2 * r - (self.N - 1)


def superfactorial(L: int) -> int:
    """prod_{l < L} l! — the Wronskian renormalization for charge L."""
    out, f = 1, 1
    for ell in range(1, L):
        f *= ell
        out *= f
    return out


def mask_to_degrees(mask: int) -> tuple:
    out = []
    r = 0
    while mask:
        if mask & 1:
            out.append(r)
        mask >>= 1
        r += 1
    return tuple(out)


def degrees_to_mask(degrees) -> int:
    mask = 0
    for r in degrees:
        bit = 1 << r
        if mask & bit:
            raise ValueError(f"repeated degree {r} in blade")
        mask |= bit
    return mask


def merge_sign(a: int, b: int) -> int:
    """Parity of merging two disjoint sorted blades a, b into one."""
    inv = 0
    bb = b
    while bb:
        low = bb & -bb
        inv += (a >> low.bit_length()).bit_count()
        bb ^= low
    return -1 if inv & 1 else 1


def blade_momentum(mask: int, shape: ModelShape) -> int:
    """Centered degree sum of a blade.  Integer whenever the grade is
    even (the only grades the momentum algebra uses)."""
    degsum = sum(mask_to_degrees(mask))
    grade = mask.bit_count()
    twice = 2 * degsum - grade * (shape.N - 1)
    if twice % 2:
        raise ValueError(f"half-integer momentum at grade {grade}")
    return twice // 2


def _zero_like(terms: dict):
    for c in terms.values():
        if isinstance(c, float):
            return 0.0
        break
    return rational(0)


class Multivector:
    """Sparse element of the exterior algebra.

    terms: dict blade-mask -> scalar, no zeros, canonically ordered.
    grade: common cardinality of the stored blades when they agree
    (None for the zero element and for mixed-grade sums).  A grade
    passed to the constructor is a cross-check, not an override.
    """

    __slots__ = ("shape", "terms", "grade")

    def __init__(self, shape: ModelShape, terms: dict, grade: int | None = None):
        clean = {}
        seen: int | None = None
        mixed = False
        for mask, coeff in sorted(terms.items(), key=lambda kv: mask_to_degrees(kv[0])):
            if scalar_is_zero(coeff):
                continue
            if mask >> shape.N:
                raise ValueError(f"blade {mask_to_degrees(mask)} outside {shape.N} slots")
            g = mask.bit_count()
            if seen is None:
                seen = g
            elif g != seen:
                mixed = True
            clean[mask] = coeff
        actual = None if mixed else seen
        if grade is not None and clean and actual != grade:
            raise ValueError(f"grade annotation {grade} does not match content {actual}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "grade", actual)

    def __setattr__(self, *a):
        raise AttributeError("Multivector is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __hash__(self):
        return hash((self.shape, tuple(self.terms)))

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        acc = dict(self.terms)
        for mask, c in other.terms.items():
            acc[mask] = acc[mask] + c if mask in acc else c
        return Multivector(self.shape, acc)

    def __neg__(self):
        return Multivector(self.shape, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if scalar_is_zero(c):
            return Multivector(self.shape, {})
        return Multivector(self.shape, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return f"Multivector({self.shape.L},{self.shape.M}; 0)"
        parts = [f"{c!r}*e{mask_to_degrees(m)}" for m, c in list(self.terms.items())[:6]]
        more = "" if len(self.terms) <= 6 else f" +{len(self.terms) - 6} terms"
        return f"Multivector({self.shape.L},{self.shape.M}; " + " + ".join(parts) + more + ")"

    def to_json_dict(self) -> dict:
        out = {}
        for mask, c in self.terms.items():
            key = ",".join(str(r) for r in mask_to_degrees(mask))
            out[key] = scalar_json(c)
        return out


def zero_multivector(shape: ModelShape) -> Multivector:
    return Multivector(shape, {})


def scalar_multivector(shape: ModelShape, c) -> Multivector:
    return Multivector(shape, {0: c})


def basis_blade(shape: ModelShape, degrees, coeff=1) -> Multivector:
    if is_rational(coeff):
        coeff = rational(coeff)
    return Multivector(shape, {degrees_to_mask(degrees): coeff})


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear alternating product.  Disjoint blades merge with the
    parity sign of the interleave; overlapping blades vanish."""
    if a.shape != b.shape:
        raise ValueError("wedge of multivectors over different shapes")
    acc: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            term = ca * cb
            if merge_sign(ma, mb) < 0:
                term = -term
            key = ma | mb
            acc[key] = acc[key] + term if key in acc else term
    grade = None
    if a.grade is not None and b.grade is not None:
        grade = a.grade + b.grade
    return Multivector(a.shape, acc, grade if acc else None)


def star(a: Multivector):
    """Coefficient of the volume blade e_I; zero for everything else."""
    vol = a.shape.volume_mask
    if vol in a.terms:
        return a.terms[vol]
    return _zero_like(a.terms)


def divided_wedge_power(a: Multivector, k: int) -> Multivector:
    """a^{wedge k}/k!, built as D_j = (D_{j-1} ^ a)/j to keep exact
    coefficients small at every step.

    The definitional reference for the divided-power background; the
    evaluation paths use star_pairing instead."""
    if k < 0:
        raise ValueError("negative wedge power")
    one = 1.0 if any(isinstance(c, float) for c in a.terms.values()) else rational(1)
    if a.is_zero():
        return scalar_multivector(a.shape, one) if k == 0 else a
    if a.grade is None or a.grade % 2 != 0:
        raise ValueError("divided powers need a homogeneous even grade")
    out = scalar_multivector(a.shape, one)
    for j in range(1, k + 1):
        nxt = wedge(out, a)
        out = Multivector(
            a.shape,
            {m: c / j for m, c in nxt.terms.items()},
            nxt.grade,
        )
        if out.is_zero():
            return out
    return out


def _exact_terms(a: Multivector) -> dict:
    """a.terms with each float read as the dyadic rational it is."""
    return {m: rational(Fraction(c)) if isinstance(c, float) else c for m, c in a.terms.items()}


def star_pairing(gamma: Multivector):
    """pair(forms) = star(forms[0] ^ .. ^ forms[k-1] ^ gamma^{M-k}/(M-k)!)
    for a grade-L background gamma and k <= M grade-L forms.

    One recursion over the free slot set S places the forms in order,
    then expands gamma^{|S|/L}/(|S|/L)! over the gamma blocks holding
    the lowest slot of S (the set-partition form of the hyperpfaffian),
    memoized by slot bitmask and shared by every pair() call.  Rational
    and Tagged scalars keep their type.  Float coefficients are read as
    the dyadic rationals they are and the value is rounded once: a float
    sum here cancels away every digit on ill-conditioned backgrounds.
    """
    shape = gamma.shape
    L, N, full = shape.L, shape.N, shape.volume_mask
    if not gamma.is_zero() and gamma.grade != L:
        raise ValueError(f"the background needs grade {L}, got {gamma.grade}")
    float_gamma = any(isinstance(c, float) for c in gamma.terms.values())
    blocks = _exact_terms(gamma)
    by_low: dict = {}  # lowest slot bit -> [(blade, coeff)]
    for mask, c in blocks.items():
        by_low.setdefault(mask & -mask, []).append((mask, c))
    background: dict = {}  # slot set -> coefficient, None for zero

    def expand(S: int, blocks, inner):
        """Sum over the blocks B inside S of sign * c_B * inner(S ^ B)."""
        total = None
        for B, c in blocks:
            if B & S != B or (rest := inner(S ^ B)) is None:
                continue
            # even grade: e_B ^ e_R = e_R ^ e_B, and merge_sign loops over B's bits
            term = c * rest if merge_sign(S ^ B, B) > 0 else -(c * rest)
            total = term if total is None else total + term
        return total

    def bg(S: int):
        if S not in background:
            if S.bit_count() == L:
                background[S] = blocks.get(S)
            else:
                background[S] = expand(S, by_low.get(S & -S, ()), bg)
        return background[S]

    def pair(forms):
        k = len(forms)
        if k > shape.M:
            raise ValueError(f"at most {shape.M} forms, got {k}")
        for f in forms:
            if f.shape != shape or not (f.is_zero() or f.grade == L):
                raise ValueError(f"star_pairing needs grade-{L} forms over {shape}")
        terms = [_exact_terms(f) for f in forms]
        blades = [list(t.items()) for t in terms]
        memo: dict = {}

        def rec(S: int):
            j = (N - S.bit_count()) // L  # forms already placed
            if j >= k:
                return bg(S)
            if S not in memo:
                if S.bit_count() == L:
                    memo[S] = terms[j].get(S)
                else:
                    memo[S] = expand(S, blades[j], rec)
            return memo[S]

        value = rec(full)
        floats = float_gamma or any(isinstance(c, float) for f in forms for c in f.terms.values())
        if value is None or scalar_is_zero(value):
            return 0.0 if floats else rational(0)
        return float(value) if floats else value

    return pair


def hyperpfaffian(a: Multivector):
    """star(a^{wedge M}/M!) for a grade-L form over its own shape."""
    return star_pairing(a)(())


def pfaffian_classical(A):
    """Classical Pfaffian of an antisymmetric even-dimensional array by
    recursive first-row expansion, memoized over index subsets.

    Serves as the independent L = 2 oracle for the hyperpfaffian.
    """
    n = len(A)
    if n % 2 != 0:
        raise ValueError("Pfaffian needs even dimension")
    float_mode = any(isinstance(A[i][j], float) for i in range(n) for j in range(n))
    for i in range(n):
        if len(A[i]) != n:
            raise ValueError("ragged array")
        for j in range(n):
            if float_mode:
                scale = max(abs(A[i][j]), abs(A[j][i]), 1.0)
                if abs(A[i][j] + A[j][i]) > 1e-12 * scale:
                    raise ValueError(f"not antisymmetric at ({i},{j})")
            else:
                if rational(A[i][j]) != -rational(A[j][i]):
                    raise ValueError(f"not antisymmetric at ({i},{j})")
    if n == 0:
        return 1.0 if float_mode else rational(1)

    entries = [[A[i][j] if float_mode else rational(A[i][j]) for j in range(n)] for i in range(n)]
    memo: dict = {}

    def pf(mask: int):
        if mask == 0:
            return 1.0 if float_mode else rational(1)
        if mask in memo:
            return memo[mask]
        idx = mask_to_degrees(mask)
        i = idx[0]
        total = 0.0 if float_mode else rational(0)
        sign = 1
        for t in range(1, len(idx)):
            j = idx[t]
            sub = mask & ~(1 << i) & ~(1 << j)
            term = entries[i][j] * pf(sub)
            total = total + term if sign > 0 else total - term
            sign = -sign
        memo[mask] = total
        return total

    return pf((1 << n) - 1)


def fermion_vector(x, shape: ModelShape) -> Multivector:
    """Grade-1 vector with coefficient x^r on slot r."""
    if not isinstance(x, float):
        x = rational(x)
    terms = {}
    power = x**0
    for r in range(shape.N):
        terms[1 << r] = power
        power = power * x
    return Multivector(shape, terms, 1)


@lru_cache(maxsize=None)
def blade_weights(shape: ModelShape) -> dict:
    """mask -> (w_J, degsum) over all L-subsets of the slots, where
    w_J = prod_{i<k}(r_k - r_i)/sf(L).  The division is exact: the
    product is sf(L) times a product of binomial coefficients."""
    sf = superfactorial(shape.L)
    table = {}
    for J in combinations(range(shape.N), shape.L):
        prod = 1
        for i in range(shape.L):
            for k in range(i + 1, shape.L):
                prod *= J[k] - J[i]
        if prod % sf:
            raise AssertionError(f"non-integer renormalized weight on {J}")
        table[degrees_to_mask(J)] = (prod // sf, sum(J))
    return table


def omega(x, shape: ModelShape) -> Multivector:
    """The charge-L particle at location x: grade-L form with
    coefficient w_J * x^{sum(J) - L(L-1)/2} on blade J."""
    base_shift = shape.L * (shape.L - 1) // 2
    float_mode = isinstance(x, float)
    if not float_mode:
        x = rational(x)
    terms = {}
    # powers of x up to the largest degree sum, computed once
    max_e = shape.L * shape.N - shape.L * (shape.L + 1) // 2 - base_shift
    powers = [x**0]
    for _ in range(max_e):
        powers.append(powers[-1] * x)
    for mask, (w, degsum) in blade_weights(shape).items():
        e = degsum - base_shift
        c = w * powers[e]
        if not scalar_is_zero(c):
            terms[mask] = c
    return Multivector(shape, terms, shape.L)
