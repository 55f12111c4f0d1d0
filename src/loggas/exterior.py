"""Sparse exact exterior algebra over N = L*M fermionic slots.

Blades are subsets of {0, .., N-1} stored as int bitmasks.  A Multivector
is a sparse map from blades to scalars in no particular order; its
serialized form and repr list blades in canonical (lexicographic on the
degree tuple) order, so they are unique for a given value regardless of
how it was assembled.

Slot r carries monomial degree r.  The momentum of an L-blade J is
sum(J) - L(N-1)/2; blade_weights tabulates it beside the blade's weight.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .scalars import Scale, is_rational, rational, read_scaled, rebuild, scalar_is_zero, scalar_json


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
    """Parity of merging two disjoint sorted blades a, b into one, bit by
    bit: the reference for parity_mask."""
    inv = 0
    bb = b
    while bb:
        low = bb & -bb
        inv += (a >> low.bit_length()).bit_count()
        bb ^= low
    return -1 if inv & 1 else 1


def parity_mask(S: int) -> int:
    """P(S), the slots below an odd number of S-bits, by shift-xor doubling:
    merge_sign(a, b) = (-1)^popcount(P(a) & b) for disjoint a, b, and, P being
    xor-linear, merge_sign(S ^ B, B) = (-1)^(popcount(P(S) & B) + C(|B|, 2))."""
    y = S >> 1
    shift, n = 1, y.bit_length()
    while shift < n:
        y ^= y >> shift
        shift <<= 1
    return y


def blade_momentum(mask: int, shape: ModelShape) -> int:
    """Centered degree sum of a blade, at any grade.  Integer whenever the
    grade is even (the only grades the momentum algebra uses).  The
    reference for the L-blade momenta stored by blade_weights."""
    degsum = sum(mask_to_degrees(mask))
    grade = mask.bit_count()
    twice = 2 * degsum - grade * (shape.N - 1)
    if twice % 2:
        raise ValueError(f"half-integer momentum at grade {grade}")
    return twice // 2


class Multivector:
    """Sparse element of the exterior algebra.

    terms: dict blade-mask -> scalar, no zeros, in insertion order.
    grade: common cardinality of the stored blades when they agree
    (None for the zero element and for mixed-grade sums).  A grade
    passed to the constructor is a cross-check, not an override.
    """

    __slots__ = ("shape", "terms", "grade")

    def __init__(self, shape: ModelShape, terms: dict, grade: int | None = None):
        clean = {mask: c for mask, c in terms.items() if not scalar_is_zero(c)}
        for mask in clean:
            if mask >> shape.N:
                raise ValueError(f"blade {mask_to_degrees(mask)} outside {shape.N} slots")
        grades = {mask.bit_count() for mask in clean}
        actual = grades.pop() if len(grades) == 1 else None
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
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self):
        return hash((self.shape, frozenset(self.terms)))

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
        return Multivector(self.shape, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return f"Multivector({self.shape.L},{self.shape.M}; 0)"
        parts = [f"{c!r}*e{degrees}" for degrees, c in self._canonical()[:6]]
        more = "" if len(self.terms) <= 6 else f" +{len(self.terms) - 6} terms"
        return f"Multivector({self.shape.L},{self.shape.M}; " + " + ".join(parts) + more + ")"

    def _canonical(self) -> list:
        """[(degree tuple, coefficient)] in canonical order."""
        return sorted((mask_to_degrees(m), c) for m, c in self.terms.items())

    def to_json_dict(self) -> dict:
        return {",".join(map(str, degrees)): scalar_json(c) for degrees, c in self._canonical()}


def zero_multivector(shape: ModelShape) -> Multivector:
    return Multivector(shape, {})


def scalar_multivector(shape: ModelShape, c) -> Multivector:
    return Multivector(shape, {0: c})


def basis_blade(shape: ModelShape, degrees, coeff=1) -> Multivector:
    if is_rational(coeff):
        coeff = rational(coeff)
    return Multivector(shape, {degrees_to_mask(degrees): coeff})


def wedge_into(acc: dict, a: dict, b: dict, c: int = 1) -> dict:
    """acc += c * (a ^ b) for maps blade -> int; returns acc."""
    for ma, ca in a.items():
        pa, ca = parity_mask(ma), c * ca
        for mb, cb in b.items():
            if not ma & mb:
                key = ma | mb
                acc[key] = acc.get(key, 0) + (-(ca * cb) if (pa & mb).bit_count() & 1 else ca * cb)
    return acc


def _integer_terms(a: Multivector) -> tuple:
    """(blade -> int numerator, scale), scale None if all coefficients are ints."""
    if all(type(c) is int for c in a.terms.values()):
        return a.terms, None
    nums, scale = read_scaled(a.terms.values())
    return dict(zip(a.terms, nums)), scale


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear alternating product.  Disjoint blades merge with the
    parity sign of the interleave; overlapping blades vanish.  Sums plain
    ints (wedge_into) and rebuilds each output coefficient once; a float
    coefficient raises TypeError."""
    if a.shape != b.shape:
        raise ValueError("wedge of multivectors over different shapes")
    (ta, sa), (tb, sb) = _integer_terms(a), _integer_terms(b)
    acc = wedge_into({}, ta, tb)
    if sa is not None or sb is not None:
        scale = (sa or Scale()) * (sb or Scale())
        acc = {m: rebuild(t, scale) for m, t in acc.items() if t}
    return Multivector(a.shape, acc)


def star(a: Multivector):
    """Coefficient of the volume blade e_I; zero for everything else."""
    return a.terms.get(a.shape.volume_mask, rational(0))


def divided_wedge_power(a: Multivector, k: int) -> Multivector:
    """a^{wedge k}/k!, built as D_j = (D_{j-1} ^ a)/j to keep exact
    coefficients small at every step.

    The definitional reference for the divided-power background; the
    evaluation paths use star_pairing instead."""
    if k < 0:
        raise ValueError("negative wedge power")
    if a.is_zero():
        return scalar_multivector(a.shape, rational(1)) if k == 0 else a
    if a.grade is None or a.grade % 2 != 0:
        raise ValueError("divided powers need a homogeneous even grade")
    out = scalar_multivector(a.shape, rational(1))
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


def star_pairing(gamma: Multivector):
    """pair(forms) = star(forms[0] ^ .. ^ forms[k-1] ^ gamma^{M-k}/(M-k)!)
    for a grade-L background gamma and k <= M grade-L forms.

    One recursion over the free slot set S places the forms in order,
    then expands gamma^{|S|/L}/(|S|/L)! over the gamma blocks holding
    the lowest slot of S (the set-partition form of the hyperpfaffian),
    memoized by slot bitmask and shared by every pair() call.  It sums
    plain ints: gamma and each form are read as integer numerators over
    one scale (read_scaled), and the value, whose scale is gamma's to the
    power M-k times each form's, is rebuilt once (rebuild).
    """
    shape = gamma.shape
    L, N, full = shape.L, shape.N, shape.volume_mask
    if not gamma.is_zero() and gamma.grade != L:
        raise ValueError(f"the background needs grade {L}, got {gamma.grade}")
    nums, gamma_scale = read_scaled(gamma.terms.values())
    blocks = dict(zip(gamma.terms, nums))
    by_low: dict = {}  # lowest slot bit -> [(blade, coeff)]
    for mask, c in blocks.items():
        by_low.setdefault(mask & -mask, []).append((mask, c))
    background: dict = {}  # slot set -> coefficient
    inv = L * (L - 1) // 2  # C(L, 2), the inversions inside one block

    def expand(S: int, blocks, inner) -> int:
        """Sum over the blocks B inside S of sign * c_B * inner(S ^ B)."""
        total, ps = 0, parity_mask(S)
        for B, c in blocks:
            if B & S != B or not (rest := inner(S ^ B)):
                continue
            # even grade: e_B ^ e_R = e_R ^ e_B, of sign merge_sign(S ^ B, B)
            total += -(c * rest) if ((ps & B).bit_count() + inv) & 1 else c * rest
        return total

    def bg(S: int) -> int:
        if S not in background:
            if S.bit_count() == L:
                background[S] = blocks.get(S, 0)
            else:
                background[S] = expand(S, by_low.get(S & -S, ()), bg)
        return background[S]

    def pair(forms):
        k = len(forms)
        if k > shape.M:
            raise ValueError(f"at most {shape.M} forms, got {k}")
        scale = gamma_scale ** (shape.M - k)
        terms = []
        for f in forms:
            if f.shape != shape or not (f.is_zero() or f.grade == L):
                raise ValueError(f"star_pairing needs grade-{L} forms over {shape}")
            nums, f_scale = read_scaled(f.terms.values())
            terms.append(dict(zip(f.terms, nums)))
            scale = scale * f_scale
        blades = [list(t.items()) for t in terms]
        memo: dict = {}

        def rec(S: int) -> int:
            j = (N - S.bit_count()) // L  # forms already placed
            if j >= k:
                return bg(S)
            if S not in memo:
                if S.bit_count() == L:
                    memo[S] = terms[j].get(S, 0)
                else:
                    memo[S] = expand(S, blades[j], rec)
            return memo[S]

        return rebuild(rec(full), scale)

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
    if any(len(row) != n for row in A):
        raise ValueError("ragged array")
    entries = [[rational(a) for a in row] for row in A]
    for i in range(n):
        for j in range(n):
            if entries[i][j] != -entries[j][i]:
                raise ValueError(f"not antisymmetric at ({i},{j})")
    memo: dict = {}

    def pf(mask: int):
        if mask == 0:
            return rational(1)
        if mask in memo:
            return memo[mask]
        idx = mask_to_degrees(mask)
        i = idx[0]
        total = rational(0)
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
    x = rational(x)
    terms = {}
    power = rational(1)
    for r in range(shape.N):
        terms[1 << r] = power
        power = power * x
    return Multivector(shape, terms, 1)


@lru_cache(maxsize=None)
def blade_weights(shape: ModelShape) -> dict:
    """The momentum grading: mask -> (w_J, p_J) over all L-subsets J of
    the slots, with w_J = prod_{i<k}(r_k - r_i)/sf(L) and momentum
    p_J = sum(J) - L(N-1)/2 in [-K, K].  The division is exact: the
    product is sf(L) times a product of binomial coefficients."""
    sf = superfactorial(shape.L)
    shift = shape.L * (shape.N - 1) // 2  # an integer: L is even
    table = {}
    for J in combinations(range(shape.N), shape.L):
        prod = 1
        for i in range(shape.L):
            for k in range(i + 1, shape.L):
                prod *= J[k] - J[i]
        if prod % sf:
            raise AssertionError(f"non-integer renormalized weight on {J}")
        table[degrees_to_mask(J)] = (prod // sf, sum(J) - shift)
    return table


def omega(x, shape: ModelShape) -> Multivector:
    """The charge-L particle at location x, sum_p x^{p+K} eps_p: grade-L
    form with coefficient w_J * x^{p_J+K} on blade J."""
    x = rational(x)
    powers = [rational(1)]  # x^0 .. x^{2K}, computed once
    for _ in range(2 * shape.K):
        powers.append(powers[-1] * x)
    # Multivector drops the zero coefficients (x = 0)
    terms = {mask: w * powers[p + shape.K] for mask, (w, p) in blade_weights(shape).items()}
    return Multivector(shape, terms, shape.L)
