import json
import math
import random
from fractions import Fraction

import pytest

from loggas.exterior import (
    ModelShape,
    Multivector,
    basis_blade,
    blade_momentum,
    blade_weights,
    divided_wedge_power,
    degrees_to_mask,
    fermion_vector,
    hyperpfaffian,
    mask_to_degrees,
    merge_sign,
    omega,
    pfaffian_classical,
    star,
    star_pairing,
    superfactorial,
    wedge,
    wedge_into,
    zero_multivector,
)
from loggas.scalars import Tagged, rational
from loggas.spine import ToeplitzOperator, epsilon, plucker_residual, toeplitz_residual

S22 = ModelShape(2, 2)


def test_shape_validation():
    with pytest.raises(ValueError):
        ModelShape(3, 2)  # odd charge
    with pytest.raises(ValueError):
        ModelShape(0, 2)
    with pytest.raises(ValueError):
        ModelShape(2, 0)
    assert ModelShape(2, 3).N == 6
    assert ModelShape(2, 3).K == 4
    assert ModelShape(4, 3).K == 16


def test_superfactorial():
    assert superfactorial(2) == 1
    assert superfactorial(4) == 12


def test_mask_roundtrip():
    assert mask_to_degrees(degrees_to_mask([0, 3, 5])) == (0, 3, 5)
    with pytest.raises(ValueError):
        degrees_to_mask([1, 1])


def test_merge_sign():
    assert merge_sign(0b0001, 0b0010) == 1  # e0 ^ e1
    assert merge_sign(0b0010, 0b0001) == -1  # e1 ^ e0
    assert merge_sign(0b1001, 0b0110) == 1  # {0,3} before {1,2}: two crossings


def test_wedge_spec_examples():
    e0 = basis_blade(S22, [0])
    e1 = basis_blade(S22, [1])
    assert wedge(e0, e1) == basis_blade(S22, [0, 1])
    assert wedge(e1, e0) == basis_blade(S22, [0, 1], -1)
    a = e0 + e1
    b = e0 - e1
    assert wedge(a, b) == basis_blade(S22, [0, 1], -2)


def oracle_wedge(a: Multivector, b: Multivector) -> Multivector:
    """The pairwise definition of the wedge: each product of coefficients,
    signed by merge_sign, added into its blade.  The reference for wedge."""
    acc: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if not ma & mb:
                term = ca * cb if merge_sign(ma, mb) > 0 else -(ca * cb)
                acc[ma | mb] = acc[ma | mb] + term if ma | mb in acc else term
    return Multivector(a.shape, acc)


COEFFS = {
    "int": lambda rng: rng.randint(-9, 9),
    "fraction": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    "tagged": lambda rng: Tagged(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 1),
    "mixed": lambda rng: rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))]),
}


def random_multivector(rng, shape, coeff, terms=16):
    """Blades of every grade up to N/2, so that many pairs are disjoint."""
    blades = {}
    for _ in range(terms):
        slots = rng.sample(range(shape.N), rng.randint(0, shape.N // 2))
        blades[degrees_to_mask(slots)] = coeff(rng)
    return Multivector(shape, blades)


@pytest.mark.parametrize("L,M", [(2, 3), (4, 2), (6, 2)])
@pytest.mark.parametrize("kind", COEFFS)
def test_wedge_matches_oracle(L, M, kind):
    sh, rng = ModelShape(L, M), random.Random(f"{L}{M}{kind}")
    for _ in range(20):
        a, b = (random_multivector(rng, sh, COEFFS[kind]) for _ in range(2))
        if kind == "tagged":  # the tag is attached by degree, outside the cores
            with pytest.raises(TypeError):
                wedge(a, b)
            with pytest.raises(TypeError):
                wedge(epsilon(0, sh), b)
            continue
        product = wedge(a, b)
        assert product == oracle_wedge(a, b) and not product.is_zero()
        if kind == "int":  # integer inputs stay integer
            assert all(type(c) is int for c in product.terms.values())
    x, y = rational("3/7"), rational(-2)
    assert wedge(omega(x, sh), omega(y, sh)) == oracle_wedge(omega(x, sh), omega(y, sh))


def _fraction_blades(rng, shape, masks):
    """Nonzero Fraction coefficients on the given blades."""
    return Multivector(
        shape, {m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for m in masks}
    )


def _random_masks(rng, shape, grade, count):
    return {degrees_to_mask(rng.sample(range(shape.N), grade)) for _ in range(count)}


@pytest.fixture
def top_grade_calls(monkeypatch):
    """The `full` argument of every wedge_into call that wedge makes."""
    seen = []

    def spy(acc, a, b, c=1, full=None):
        seen.append(full)
        return wedge_into(acc, a, b, c, full)

    monkeypatch.setattr("loggas.exterior.wedge_into", spy)
    return seen


@pytest.mark.parametrize("L,M,ga", [(2, 2, 2), (2, 3, 4), (4, 2, 4), (6, 2, 6)])
def test_wedge_top_grade_matches_oracle(top_grade_calls, L, M, ga):
    sh, rng = ModelShape(L, M), random.Random(f"top{L}{M}{ga}")
    full, gb, zero_products = sh.volume_mask, sh.N - ga, 0
    for _ in range(10):
        a_masks = _random_masks(rng, sh, ga, 12)
        hits = set(list(a_masks)[: len(a_masks) // 2])
        # half of a's blades meet their complement in b; the others meet none
        b_masks = {full ^ m for m in hits} | {m for m in _random_masks(rng, sh, gb, 12) if full ^ m not in a_masks}
        a, b = _fraction_blades(rng, sh, a_masks), _fraction_blades(rng, sh, b_masks)
        assert wedge(a, b) == oracle_wedge(a, b)
        assert wedge(b, a) == oracle_wedge(b, a)
        assert not oracle_wedge(a, b).is_zero()
        # no blade of b is the complement of one of a: the product is zero
        misses = _fraction_blades(rng, sh, b_masks - {full ^ m for m in hits})
        if not misses.is_zero():
            zero_products += 1
            assert wedge(a, misses).is_zero() and oracle_wedge(a, misses).is_zero()
    assert zero_products and set(top_grade_calls) == {full}


def test_wedge_mixed_grade_takes_the_general_loop(top_grade_calls):
    sh, rng = ModelShape(2, 3), random.Random("mixed-top")
    # grade 4 with grade 2 fills N = 6, while grade 2 with grade 2 does not
    a = _fraction_blades(rng, sh, _random_masks(rng, sh, 4, 8) | _random_masks(rng, sh, 2, 8))
    b = _fraction_blades(rng, sh, _random_masks(rng, sh, 2, 8))
    assert a.grade is None and b.grade == 2
    product = wedge(a, b)
    assert product == oracle_wedge(a, b)
    assert {m.bit_count() for m in product.terms} == {4, 6}
    assert top_grade_calls == [None]


def test_wedge_refuses_floats():
    floats = Multivector(S22, {0b0011: 2.0})
    with pytest.raises(TypeError):
        wedge(floats, epsilon(0, S22))
    with pytest.raises(TypeError):
        wedge(epsilon(0, S22), floats)


@pytest.mark.parametrize("L,M", [(2, 3), (4, 2), (6, 2)])
def test_residuals_match_their_definitional_sums(L, M):
    # both residuals vanish; the oracle's partial terms do not, so each
    # comparison checks a real cancellation
    sh, rng = ModelShape(L, M), random.Random(L * M)
    K = sh.K
    for n in range(-2 * K, 2 * K + 1):
        terms = [oracle_wedge(epsilon(p, sh), epsilon(n - p, sh)) for p in range(-K, K + 1)]
        assert plucker_residual(n, sh) == sum(terms, zero_multivector(sh)), n
        assert n != 0 or any(not t.is_zero() for t in terms)
    for _ in range(3):
        band = {k: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for k in (-1, 0, 1)}
        T = ToeplitzOperator.from_dict(band)
        for n in (-1, 0, 1):  # T eps_{n-p} holds eps_{-p}: eps_p ^ eps_{-p} is nonzero
            terms = [oracle_wedge(epsilon(p, sh), T.apply(n - p, sh)) for p in range(-K, K + 1)]
            assert toeplitz_residual(T, n, sh) == sum(terms, zero_multivector(sh)), n
            assert any(not t.is_zero() for t in terms)


def test_wedge_shape_mismatch():
    with pytest.raises(ValueError):
        wedge(basis_blade(S22, [0]), basis_blade(ModelShape(2, 3), [0]))


def test_star():
    eI = basis_blade(S22, [0, 1, 2, 3])
    assert star(eI) == rational(1)
    assert star(basis_blade(S22, [0, 1, 2])) == rational(0)
    mixed = basis_blade(S22, [0, 1, 2, 3], rational("7/3"))
    assert star(mixed) == rational("7/3")


def test_multivector_normalization():
    # zero coefficients dropped; uniform grade inferred
    mv = Multivector(S22, {0b0011: rational(0), 0b0101: rational(2)})
    assert list(mv.terms) == [0b0101]
    assert mv.grade == 2
    mixed = Multivector(S22, {0b0001: rational(1), 0b0011: rational(1)})
    assert mixed.grade is None
    with pytest.raises(ValueError):
        Multivector(S22, {0b0011: rational(1)}, grade=3)


def test_multivector_canonical_order():
    # serialized lexicographic on degree tuples: {0,3} before {1,2}
    mv = Multivector(S22, {degrees_to_mask([1, 2]): rational(1), degrees_to_mask([0, 3]): rational(3)})
    assert list(mv.to_json_dict()) == ["0,3", "1,2"]


def test_multivector_order_free_hash_and_json():
    terms = {degrees_to_mask(d): rational(c) for d, c in (([2, 3], 5), ([0, 1], 2), ([1, 3], -1))}
    a = Multivector(S22, terms)
    b = Multivector(S22, dict(reversed(terms.items())))
    assert a == b and hash(a) == hash(b)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_multivector_immutable():
    mv = basis_blade(S22, [0])
    with pytest.raises(AttributeError):
        mv.terms = {}


def test_divided_wedge_power():
    d0 = divided_wedge_power(basis_blade(S22, [0, 1]), 0)
    assert d0.grade == 0 and d0.terms[0] == rational(1)
    a = basis_blade(S22, [0, 1]) + basis_blade(S22, [2, 3])
    assert divided_wedge_power(a, 2) == basis_blade(S22, [0, 1, 2, 3])
    # divided square of eps_0 is C_{(0,0)}/2! on the volume blade
    assert divided_wedge_power(epsilon(0, S22), 2) == basis_blade(S22, [0, 1, 2, 3], 3)


def test_divided_wedge_power_rejects_odd_grade():
    with pytest.raises(ValueError):
        divided_wedge_power(basis_blade(S22, [0]), 2)


def test_hyperpfaffian_grade_check():
    with pytest.raises(ValueError):
        hyperpfaffian(basis_blade(S22, [0]))


def test_hyperpfaffian_simple():
    a = basis_blade(S22, [0, 1]) + basis_blade(S22, [2, 3])
    assert hyperpfaffian(a) == rational(1)
    # single particle: total mass
    s21 = ModelShape(2, 1)
    gamma = basis_blade(s21, [0, 1], rational("5/7"))
    assert hyperpfaffian(gamma) == rational("5/7")


def test_star_pairing_keeps_scalar_types():
    # the core pairs plain rationals: the sqrt(pi) tag is refused like a
    # float (tags are attached by degree in MomentSequence, floats read
    # there), and a vanishing value is a plain zero
    tagged = basis_blade(S22, [0, 1], Tagged(2, 1)) + basis_blade(S22, [2, 3], Tagged(3, 1))
    with pytest.raises(TypeError):
        star_pairing(tagged)
    with pytest.raises(TypeError):
        star_pairing(epsilon(0, S22))((tagged,))
    plain = basis_blade(S22, [0, 1], rational(2)) + basis_blade(S22, [2, 3], rational(3))
    assert star_pairing(plain)(()) == 6
    floats = Multivector(S22, {0b0011: 2.0, 0b1100: 3.0})
    with pytest.raises(TypeError):
        star_pairing(floats)
    with pytest.raises(TypeError):
        star_pairing(epsilon(0, S22))((floats,))
    zero = star_pairing(plain)((basis_blade(S22, [0, 2]),))
    assert zero == 0 and not isinstance(zero, (Tagged, float))


def test_star_pairing_rejects_bad_forms():
    pair = star_pairing(epsilon(0, S22))
    with pytest.raises(ValueError):
        pair((basis_blade(S22, [0]),))
    with pytest.raises(ValueError):
        pair((epsilon(0, S22),) * 3)


def test_star_pairing_rejects_mixed_scales():
    # e_{0,1} meets no block of eps_0, so no sum ever adds the two terms:
    # the coefficients are read, and the tagged one refused, before the
    # recursion runs
    mixed = basis_blade(S22, [0, 3], Tagged(2, 1)) + basis_blade(S22, [0, 1])
    with pytest.raises(TypeError):
        star_pairing(epsilon(0, S22))((mixed,))
    with pytest.raises(TypeError):
        star_pairing(mixed)(())


def test_pfaffian_classical():
    a = rational("3/2")
    assert pfaffian_classical([[0, a], [-a, 0]]) == a
    # block diagonal of two 2x2 blocks
    b = rational(5)
    A = [
        [0, a, 0, 0],
        [-a, 0, 0, 0],
        [0, 0, 0, b],
        [0, 0, -b, 0],
    ]
    assert pfaffian_classical(A) == a * b


def test_pfaffian_classical_gram_example():
    # A_{ij} = (j-i) m_{i+j-1} with uniform moments -> 1/30
    m = [rational(f"1/{k + 1}") for k in range(7)]
    A = [[rational(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            A[i][j] = (j - i) * m[i + j - 1]
            A[j][i] = -A[i][j]
    assert pfaffian_classical(A) == rational("1/30")


def _pfaffian_by_matchings(A):
    """Pf as the definition: the sum over perfect matchings of the signed
    product, the sign (-1)^(number of crossing pairs of edges)."""

    def matchings(idx):
        if not idx:
            yield []
            return
        for t in range(1, len(idx)):
            for rest in matchings(idx[1:t] + idx[t + 1 :]):
                yield [(idx[0], idx[t])] + rest

    total = Fraction(0)
    for m in matchings(list(range(len(A)))):
        crossings = sum(1 for (i, j) in m for (k, l) in m if i < k < j < l)
        total += (-1) ** crossings * math.prod((A[i][j] for i, j in m), start=Fraction(1))
    return total


def test_pfaffian_classical_zero_pivots_match_definition():
    rng = random.Random(11)
    for n in (2, 4, 6, 8):
        for _ in range(15):
            A = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    # the leading pivots A[k][k+1] are zero, so swaps are forced
                    if j != i + 1 and rng.random() < 0.6:
                        A[i][j] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        A[j][i] = -A[i][j]
            assert pfaffian_classical(A) == _pfaffian_by_matchings(A), A
    # one nested matching: Pf = a03 a12, reached by a swap at the first pivot
    A = [[0, 0, 0, 2], [0, 0, 3, 0], [0, -3, 0, 0], [-2, 0, 0, 0]]
    assert pfaffian_classical(A) == _pfaffian_by_matchings(A) == 6


def test_pfaffian_classical_errors():
    with pytest.raises(ValueError):
        pfaffian_classical([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])  # odd dim
    with pytest.raises(ValueError):
        pfaffian_classical([[0, 1], [1, 0]])  # not antisymmetric


def test_fermion_vector():
    v0 = fermion_vector(0, S22)
    assert v0 == basis_blade(S22, [0])
    v1 = fermion_vector(1, S22)
    assert v1.terms == {1 << r: rational(1) for r in range(4)}
    chain = fermion_vector(1, S22)
    for x in (2, 3, 4):
        chain = wedge(chain, fermion_vector(x, S22))
    assert star(chain) == rational(12)


def test_omega_coefficients():
    o = omega(2, S22)
    expect = {"0,1": "1", "0,2": "4", "0,3": "12", "1,2": "4", "1,3": "16", "2,3": "16"}
    assert o.to_json_dict() == expect


def test_omega_confluent_pair():
    assert star(wedge(omega(0, S22), omega(1, S22))) == rational(1)
    x = rational("3/7")
    assert star(wedge(omega(x, S22), omega(x, S22))) == rational(0)


def test_omega_self_annihilates():
    sh = ModelShape(4, 2)
    x = rational("2/3")
    assert wedge(omega(x, sh), omega(x, sh)).is_zero()


def test_blade_weights_integrality():
    # renormalized Wronskian weights are integers for L=4
    for w, _ in blade_weights(ModelShape(4, 2)).values():
        assert isinstance(w, int)


@pytest.mark.parametrize("L,M", [(2, 3), (4, 2), (4, 3), (6, 2)])
def test_blade_weights_carry_momentum(L, M):
    # the table's grading is the general-grade reference's, inside [-K, K]
    sh = ModelShape(L, M)
    table = blade_weights(sh)
    assert len(table) == math.comb(sh.N, L)
    for mask, (_, p) in table.items():
        assert p == blade_momentum(mask, sh)
        assert -sh.K <= p <= sh.K


def test_confluent_l4_exact():
    sh = ModelShape(4, 2)
    x1, x2 = rational("1/3"), rational("-5/2")
    lhs = star(wedge(omega(x1, sh), omega(x2, sh)))
    assert lhs == (x2 - x1) ** 16


def test_zero_multivector():
    z = zero_multivector(S22)
    assert z.is_zero() and star(z) == rational(0)
