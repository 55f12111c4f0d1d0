import json
import math
import random

import pytest

from loggas.ensemble import MomentSequence, NamedWeight
from loggas.exterior import ModelShape, basis_blade, omega, star, wedge
from loggas.scalars import Tagged, rational
from loggas.spine import (
    StructureTable,
    ToeplitzOperator,
    adjunction_expansion,
    epsilon,
    higher_plucker_residual,
    momentum_project,
    plucker_residual,
    structure_table,
    toeplitz_residual,
)
from loggas.tau import extraction_evaluate, psi_minus

S22 = ModelShape(2, 2)
S23 = ModelShape(2, 3)


def test_epsilon_examples():
    assert epsilon(2, S22) == basis_blade(S22, [2, 3])
    assert epsilon(0, S22) == basis_blade(S22, [0, 3], 3) + basis_blade(S22, [1, 2])
    assert epsilon(3, S22).is_zero()
    assert epsilon(-5, S23).is_zero()


def test_momentum_project():
    a = wedge(epsilon(2, S22), epsilon(-2, S22))
    assert momentum_project(a, 2, 0) == a
    assert momentum_project(a, 2, 1).is_zero()
    mixed = epsilon(1, S23) + wedge(epsilon(0, S23), epsilon(-1, S23)) * rational(1)
    # grade/momentum separation (built over one shape to allow the sum)
    assert momentum_project(mixed, 1, 1) == epsilon(1, S23)
    assert momentum_project(mixed, 2, -1) == wedge(epsilon(0, S23), epsilon(-1, S23))


def test_structure_table_2_2():
    table = structure_table(S22, cache=False)
    assert table.entries == {(-2, 2): 1, (-1, 1): -4, (0, 0): 6}
    assert table.lookup((2, -2)) == 1  # permutation invariant lookup
    assert table.lookup((1, 1)) == 0


@pytest.mark.parametrize("L,M,other_key", [(2, 3, (2, 2, -4)), (2, 4, (6, -5, 5, -6))], ids=["2-3", "2-4"])
def test_structure_table_matches_direct_star(L, M, other_key):
    shape = ModelShape(L, M)
    table = structure_table(shape, cache=False)

    def direct(key):
        form = epsilon(key[0], shape)
        for p in key[1:]:
            form = wedge(form, epsilon(p, shape))
        return star(form)

    for key, C in table.entries.items():
        assert direct(key) == rational(C), key
    # a key out of canonical order reads the same entry, and a key the
    # table omits really is zero
    assert direct(other_key) == rational(table.lookup(other_key))
    assert tuple(sorted(other_key)) in table.entries or direct(other_key) == 0


def test_structure_table_4_2_binomials():
    table = structure_table(ModelShape(4, 2), cache=False)
    for p in range(0, 9):
        assert table.lookup((-p, p)) == (-1) ** p * math.comb(16, 8 + p)
    assert all(sum(k) == 0 for k in table.entries)


def test_structure_table_keys_canonical():
    table = structure_table(S23, cache=False)
    for key in table.entries:
        assert tuple(sorted(key)) == key
        assert all(abs(p) <= S23.K for p in key)


def test_plucker_residual_zero():
    for n in range(-2 * S22.K, 2 * S22.K + 1):
        assert plucker_residual(n, S22).is_zero(), n
    assert plucker_residual(1, S23).is_zero()
    assert plucker_residual(2 * S22.K + 1, S22).is_zero()  # empty sum


def test_plucker_top_blade_cancellation():
    # the individual wedge terms are nonzero; cancellation is exact
    table = structure_table(S22, cache=False)
    total = table.lookup((0, 0)) + 2 * table.lookup((-1, 1)) + 2 * table.lookup((-2, 2))
    assert total == 0


def test_higher_plucker_residual():
    for n in range(-3 * S23.K, 3 * S23.K + 1):
        assert higher_plucker_residual(n, 3, S23).is_zero(), n
    assert higher_plucker_residual(0, 2, S23) == plucker_residual(0, S23)
    with pytest.raises(ValueError):
        higher_plucker_residual(0, 4, S23)
    with pytest.raises(ValueError):
        higher_plucker_residual(0, 1, S23)


def test_toeplitz_identity_and_shift():
    ident = ToeplitzOperator.identity()
    assert ident.apply(1, S22) == epsilon(1, S22)
    for n in range(-5, 6):
        assert toeplitz_residual(ident, n, S22).is_zero()
    shift = ToeplitzOperator.shift(1)
    # T eps_q = eps_{q-1}; residual equals r_{n-1} = 0
    assert shift.apply(0, S22) == epsilon(-1, S22)
    for n in range(-5, 6):
        assert toeplitz_residual(shift, n, S22).is_zero()


def test_toeplitz_random_band():
    T = ToeplitzOperator.from_dict({-1: "2/3", 0: "-5", 1: "7/2"})
    for n in range(-2 * S23.K - 2, 2 * S23.K + 3):
        assert toeplitz_residual(T, n, S23).is_zero(), n


def test_mode_completeness():
    # sum_p x^{K+p} eps_p = omega(x)
    for sh in (S23, ModelShape(4, 2)):
        for x in (rational("2/5"), rational("-7/3"), rational(-3), rational(0)):
            acc = None
            for p in range(-sh.K, sh.K + 1):
                piece = epsilon(p, sh).scale(x ** (sh.K + p))
                acc = piece if acc is None else acc + piece
            assert acc == omega(x, sh), (sh, x)


def test_zero_sum_saturation():
    # every full-grade blade carries total momentum zero
    from loggas.exterior import blade_momentum

    assert blade_momentum(S23.volume_mask, S23) == 0
    assert blade_momentum(S22.volume_mask, S22) == 0


def test_momentum_selection():
    a = wedge(epsilon(1, S23), epsilon(0, S23))
    b = epsilon(2, S23)
    # p + q != 0 pairs off the determinantal line
    assert star(wedge(momentum_project(a, 2, 1), momentum_project(b, 1, 2))) == rational(0)
    gamma_like = epsilon(-1, S23) + epsilon(1, S23)
    for p in range(-2, 3):
        for q in range(-2, 3):
            if p + q == 0:
                continue
            prod = wedge(
                momentum_project(wedge(gamma_like, gamma_like), 2, p),
                momentum_project(gamma_like, 1, q),
            )
            assert star(prod) == rational(0)


def test_adjunction_expansion_matches_exterior_route():
    moments = MomentSequence(["1", "1/2", "1/3", "1/4", "1/5"])
    table = structure_table(S22, cache=False)
    for q in range(-S22.K, S22.K + 1):
        lhs = extraction_evaluate(q, moments, S22)
        rhs = adjunction_expansion(q, moments, S22, table)
        assert lhs == rhs, q


@pytest.mark.parametrize("L,M", [(2, 5), (4, 3), (6, 2)])
def test_table_adjunction_matches_psi_minus(L, M):
    # one table pass gives every A_q; psi_minus pairs on the exterior side
    shape = ModelShape(L, M)
    rng = random.Random(f"{L},{M}")
    table = structure_table(shape, cache=False)
    for moments in (
        MomentSequence([f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(2 * shape.K + 1)]),
        NamedWeight.gaussian().moments(2 * shape.K),
    ):
        minus = psi_minus(moments, shape)
        A = table.adjunction(moments)
        assert sorted(A) == list(range(-shape.K, shape.K + 1))
        for q, a in A.items():
            assert a == minus.coefficient(q + shape.K), q
            if moments.scale_symbol and a:
                assert isinstance(a, Tagged) and a.power == M - 1, q
            else:  # zero is a plain 0 whatever the moments' scale
                assert not isinstance(a, Tagged), q
        assert adjunction_expansion(0, moments, shape, table) == A[0]


def test_structure_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("LOGGAS_CACHE_DIR", str(tmp_path))
    t1 = structure_table(S22)
    cache_file = tmp_path / "structure_L2_M2.json"
    assert cache_file.is_file()
    data = json.loads(cache_file.read_text())
    assert data["L"] == 2 and data["M"] == 2 and data["K"] == 2
    t2 = structure_table(S22)  # loads from disk
    assert t1 == t2


def test_structure_cache_corruption_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv("LOGGAS_CACHE_DIR", str(tmp_path))
    cache_file = tmp_path / "structure_L2_M2.json"
    cache_file.write_text("{not json")
    table = structure_table(S22)
    assert table.entries[(0, 0)] == 6
    # rebuilt file replaces the corrupt one
    assert json.loads(cache_file.read_text())["L"] == 2


def test_structure_table_json_validation():
    good = structure_table(S22, cache=False).to_json_dict()
    assert StructureTable.from_json_dict(good).entries[(0, 0)] == 6
    bad = dict(good, entries=[[[0, 1], "6"]])  # nonzero sum
    with pytest.raises(ValueError):
        StructureTable.from_json_dict(bad)
    bad = dict(good, entries=[[[1, -1], "6"]])  # not weakly increasing
    with pytest.raises(ValueError):
        StructureTable.from_json_dict(bad)
    bad = dict(good, K=7)
    with pytest.raises(ValueError):
        StructureTable.from_json_dict(bad)


def test_structure_ceiling(monkeypatch):
    import loggas.spine as spine

    monkeypatch.setattr(spine, "STRUCTURE_CEILING", 3)
    with pytest.raises(ValueError):
        spine._build_structure_table(S22)


def test_partition_polynomial_route_uniform():
    # Z through the table: 1/3 - 1/2 + 1/5 = 1/30
    w = NamedWeight.uniform(0, 1)
    table = structure_table(S22, cache=False)
    mom = w.moments(4)
    total = rational(0)
    from loggas.spine import _multiplicity_factor

    for key, C in table.entries.items():
        prod = rational(C)
        for p in key:
            prod = prod * mom.mhat(p, S22.K)
        total = total + prod / _multiplicity_factor(key)
    assert total == rational("1/30")
