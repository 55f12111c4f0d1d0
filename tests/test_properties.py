"""Property-based checks of the algebraic invariants."""
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from loggas.ensemble import MomentSequence, partition_function
from loggas.exterior import (
    ModelShape,
    Multivector,
    basis_blade,
    divided_wedge_power,
    merge_sign,
    omega,
    parity_mask,
    star,
    star_pairing,
    wedge,
    zero_multivector,
)
from loggas.scalars import rational
from loggas.spine import (
    adjunction_expansion,
    epsilon,
    momentum_project,
    structure_table,
)
from loggas.tau import extraction_evaluate

S22 = ModelShape(2, 2)
S23 = ModelShape(2, 3)
S24 = ModelShape(2, 4)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)
small_ints = st.integers(min_value=-4, max_value=4)


def vector(coeffs, shape):
    out = zero_multivector(shape)
    for r, c in enumerate(coeffs):
        out = out + basis_blade(shape, [r], rational(Fraction(c)))
    return out


@settings(deadline=None, max_examples=40)
@given(st.lists(rationals, min_size=4, max_size=4), st.lists(rationals, min_size=4, max_size=4))
def test_wedge_antisymmetry_grade1(aa, bb):
    a, b = vector(aa, S22), vector(bb, S22)
    assert wedge(a, b) == wedge(b, a).scale(rational(-1))
    assert wedge(a, a).is_zero()


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
)
def test_graded_commutation(da, db):
    a, b = basis_blade(S23, da), basis_blade(S23, db)
    lhs = wedge(a, b)
    sign = (-1) ** (len(da) * len(db))
    assert lhs == wedge(b, a).scale(rational(sign))


@settings(deadline=None, max_examples=30)
@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
)
def test_wedge_associativity(aa, bb, cc):
    a, b, c = (vector(x, S22) for x in (aa, bb, cc))
    ab = wedge(a, b)
    assert wedge(ab, c) == wedge(a, wedge(b, c))


@settings(deadline=None, max_examples=30)
@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), small_ints, max_size=5))
def test_divided_power_integrality(pairs):
    # integer grade-2 input keeps integer divided powers at every order
    a = zero_multivector(S23)
    for (i, j), c in pairs.items():
        if i == j or c == 0:
            continue
        a = a + basis_blade(S23, sorted({i, j}), rational(c))
    for k in range(4):
        d = divided_wedge_power(a, k)
        for coeff in d.terms.values():
            assert coeff.denominator == 1, (k, coeff)


@settings(deadline=None, max_examples=25)
@given(rationals)
def test_mode_completeness(xf):
    x = rational(Fraction(xf))
    for shape in (S22, S23):
        acc = zero_multivector(shape)
        for p in range(-shape.K, shape.K + 1):
            acc = acc + epsilon(p, shape).scale(x ** (shape.K + p))
        assert acc == omega(x, shape)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.integers(-2, 2), rationals), max_size=4))
def test_momentum_projections_partition(parts):
    a = zero_multivector(S22)
    for p, c in parts:
        a = a + epsilon(p, S22).scale(rational(Fraction(c)))
    back = zero_multivector(S22)
    for p in range(-S22.K, S22.K + 1):
        piece = momentum_project(a, 1, p)
        for mask in piece.terms:
            assert bin(mask).count("1") == S22.L
        back = back + piece
    assert back == a


@settings(deadline=None, max_examples=20)
@given(st.lists(rationals, min_size=5, max_size=5))
def test_partition_routes_agree(vals):
    mom = MomentSequence([rational(Fraction(v)) for v in vals])
    lhs = partition_function(mom, S22, route="hyperpfaffian")
    rhs = partition_function(mom, S22, route="structure_poly")
    assert lhs == rhs


@settings(deadline=None, max_examples=20)
@given(st.lists(rationals, min_size=5, max_size=5), rationals)
def test_partition_homogeneity(vals, cf):
    c = rational(Fraction(cf))
    mom = MomentSequence([rational(Fraction(v)) for v in vals])
    assert partition_function(mom.scaled(c), S22) == c**S22.M * partition_function(mom, S22)


@settings(deadline=None, max_examples=15)
@given(st.lists(rationals, min_size=5, max_size=5), st.integers(-3, 3))
def test_extraction_matches_expansion(vals, q):
    mom = MomentSequence([rational(Fraction(v)) for v in vals])
    table = structure_table(S22, cache=False)
    assert extraction_evaluate(q, mom, S22) == adjunction_expansion(q, mom, S22, table)


@settings(deadline=None, max_examples=20)
@given(st.sampled_from([S23, S24, ModelShape(4, 2)]), st.lists(rationals, min_size=25, max_size=25))
def test_table_euler_identity(shape, vals):
    # Z is homogeneous of degree M in mhat and A_q = dZ/d mhat_q, so
    # sum_q mhat_q A_q = M Z; a wrong multiplicity in the gradient breaks it
    mom = MomentSequence([rational(Fraction(v)) for v in vals[: 2 * shape.K + 1]])
    table = structure_table(shape, cache=False)
    A = table.adjunction(mom)
    total = sum((mom.mhat(q, shape.K) * a for q, a in A.items()), rational(0))
    assert total == shape.M * table.evaluate(mom)


@settings(deadline=None, max_examples=30)
@given(st.integers(-12, 12))
def test_epsilon_vanishes_out_of_band(p):
    for shape in (S22, S23):
        mode = epsilon(p, shape)
        assert mode.is_zero() == (abs(p) > shape.K)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
       st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))
def test_merge_sign_is_permutation_sign(da, db):
    if set(da) & set(db):
        return
    a = sum(1 << r for r in da)
    b = sum(1 << r for r in db)
    inversions = sum(1 for x in da for y in db if x > y)
    assert merge_sign(a, b) == (-1) ** inversions


@settings(deadline=None, max_examples=200)
@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
def test_parity_mask_sign_is_merge_sign(x, b):
    a = x & ~b  # disjoint from b
    assert (-1) ** (parity_mask(a) & b).bit_count() == merge_sign(a, b)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([2, 4, 6]), st.data())
def test_parity_mask_lowest_slot_sign(L, data):
    # B holds the lowest slot of S and L - 1 others, as in the lowest-slot
    # expansions of star_pairing and the structure-table build
    slots = data.draw(st.lists(st.integers(0, 15), min_size=L, max_size=16, unique=True))
    low, *rest = sorted(slots)
    others = data.draw(st.permutations(rest))[: L - 1]
    S = sum(1 << r for r in slots)
    B = sum(1 << r for r in (low, *others))
    assert (-1) ** ((parity_mask(S) & B).bit_count() + L * (L - 1) // 2) == merge_sign(S ^ B, B)


@settings(deadline=None, max_examples=20)
@given(st.lists(rationals, min_size=2, max_size=2))
def test_confluent_two_points(xs):
    x1, x2 = (rational(Fraction(v)) for v in xs)
    form = wedge(omega(x1, S22), omega(x2, S22))
    assert star(form) == (x2 - x1) ** 4


def random_form(shape, rnd, density):
    terms = {}
    for J in combinations(range(shape.N), shape.L):
        if rnd.random() < density:
            terms[sum(1 << r for r in J)] = rational(Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)))
    return Multivector(shape, terms, shape.L)


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from([ModelShape(2, 3), ModelShape(4, 2), ModelShape(6, 2)]),
    st.sampled_from(["none", "one", "all"]),
    st.randoms(use_true_random=False),
)
def test_star_pairing_matches_divided_powers(shape, leading, rnd):
    # the subset-memo pairing against the definitional divided power
    density = 0.3 if shape.L == 6 else 0.7
    gamma = random_form(shape, rnd, density)
    k = {"none": 0, "one": 1, "all": shape.M}[leading]
    forms = [random_form(shape, rnd, density) for _ in range(k)]
    product = divided_wedge_power(gamma, shape.M - k)
    for f in reversed(forms):
        product = wedge(f, product)
    assert star_pairing(gamma)(tuple(forms)) == star(product)
