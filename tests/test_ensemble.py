import math
from fractions import Fraction

import pytest

from loggas.ensemble import (
    MomentRangeError,
    MomentSequence,
    NamedWeight,
    correlation,
    gram_form,
    partition_function,
    r1_normalization,
)
from loggas.exterior import ModelShape, mask_to_degrees
from loggas.scalars import Tagged, as_float, rational
from loggas.spine import epsilon
from loggas.tau import extraction_evaluate, psi_minus, psi_plus

S22 = ModelShape(2, 2)
S23 = ModelShape(2, 3)
UNIFORM = NamedWeight.uniform(0, 1)
GAUSS = NamedWeight.gaussian()


def test_moment_sequence_range():
    seq = MomentSequence(["1", "1/2", "1/3"])
    assert seq.D == 2
    assert seq.m(0) == rational(1)
    with pytest.raises(MomentRangeError):
        seq.m(3)
    with pytest.raises(MomentRangeError):
        seq.m(-1)
    # shifted window [-K, D-K]
    assert seq.mhat(-1, 1) == rational(1)
    assert seq.mhat(1, 1) == rational("1/3")
    with pytest.raises(MomentRangeError):
        seq.mhat(2, 1)
    with pytest.raises(MomentRangeError):
        seq.mhat(-2, 1)


def test_moment_sequence_empty_rejected():
    with pytest.raises(ValueError):
        MomentSequence([])


def test_uniform_moments():
    mom = UNIFORM.moments(4)
    assert [mom.m(k) for k in range(5)] == [rational(f"1/{k + 1}") for k in range(5)]
    shifted = NamedWeight.uniform("-1/2", "1/2").moments(2)
    assert shifted.m(0) == rational(1)
    assert shifted.m(1) == rational(0)
    assert shifted.m(2) == rational("1/12")


def test_gaussian_moments():
    mom = GAUSS.moments(6)
    assert mom.m(0) == Tagged(1, 1)
    assert mom.m(1) == Tagged(0, 1)
    assert mom.m(2) == Tagged("1/2", 1)
    assert mom.m(4) == Tagged("3/4", 1)
    assert mom.m(6) == Tagged("15/8", 1)
    assert math.isclose(as_float(mom.m(0)), math.sqrt(math.pi))


def test_moment_json_roundtrip():
    mom = GAUSS.moments(3)
    data = mom.to_json_dict()
    assert data["scale"]["symbol"] == "sqrt_pi"
    assert data["moments"] == ["1", "0", "1/2", "0"]
    back = MomentSequence.from_json_dict(data)
    assert back == mom


def test_float_moment_file_roundtrip():
    data = {"scale": None, "moments": [1.0, 0.1, 1e-300, -2.5, 3.0]}
    assert MomentSequence.from_json_dict(data).to_json_dict() == data


def test_float_sequence_is_not_its_dyadic_twin():
    # the float record is part of the value: the twin's results are exact
    floats = MomentSequence([1.0, 0.5, 0.25])
    twin = MomentSequence([Fraction(v) for v in floats.values])
    assert floats.values == twin.values and floats != twin
    assert floats == MomentSequence([1.0, 0.5, 0.25])


def test_gram_form_blade_values():
    gamma = gram_form(UNIFORM.moments(4), S22)
    expect = {
        (0, 1): "1",
        (0, 2): "1",
        (0, 3): "1",
        (1, 2): "1/3",
        (1, 3): "1/2",
        (2, 3): "1/5",
    }
    got = {mask_to_degrees(m): c for m, c in gamma.terms.items()}
    assert {k: str(v) for k, v in got.items()} == expect


def gram_by_modes(moments, shape):
    """The Gram oracle: gamma = sum_p mhat_p eps_p, mode by mode, over the
    plain (untagged) moments, as the cores read them."""
    out = None
    for p in range(-shape.K, shape.K + 1):
        piece = epsilon(p, shape).scale(moments.values[p + shape.K])
        out = piece if out is None else out + piece
    return out


def test_gram_form_routes_agree():
    mom = MomentSequence(["2", "-1/3", "4", "1/7", "-5"])
    assert gram_form(mom, S22) == gram_by_modes(mom, S22)
    gm = GAUSS.moments(4)
    assert gram_form(gm, S22) == gram_by_modes(gm, S22)


def test_gram_form_range_guard():
    with pytest.raises(MomentRangeError):
        gram_form(MomentSequence(["1", "1"]), S22)


def test_partition_uniform():
    mom = UNIFORM.moments(4)
    assert partition_function(mom, S22, "hyperpfaffian") == rational("1/30")
    assert partition_function(mom, S22, "structure_poly") == rational("1/30")


def test_partition_gaussian_tagged():
    mom = GAUSS.moments(4)
    Z = partition_function(mom, S22)
    assert Z == Tagged("3/2", 2)
    assert abs(as_float(Z) - 4.71238898038469) < 1e-12
    assert partition_function(mom, S22, "structure_poly") == Z


def test_partition_single_particle():
    s21 = ModelShape(2, 1)
    mom = MomentSequence(["7/9"])
    assert partition_function(mom, s21) == rational("7/9")


def test_partition_float_mode():
    mom = UNIFORM.moments(4).as_float()
    Z = partition_function(mom, S22)
    assert isinstance(Z, float)
    assert abs(Z - 1 / 30) < 1e-15


def test_float_moments_are_summed_exactly():
    # (2,5) on uniform[0,1], where a float sum of the pairing loses every
    # digit: floats are read as dyadic rationals and the value rounded once
    shape = ModelShape(2, 5)
    exact = UNIFORM.moments(2 * shape.K)
    Z = partition_function(exact.as_float(), shape)
    assert isinstance(Z, float)
    assert Z == pytest.approx(as_float(partition_function(exact, shape)), rel=1e-6, abs=0)


@pytest.mark.parametrize("L,M", [(2, 5), (4, 3)])
def test_float_moments_give_one_float_on_both_routes(L, M):
    # each route reads the float moments exactly and rounds once, so the
    # two floats are the same correctly rounded value
    shape = ModelShape(L, M)
    moments = UNIFORM.moments(2 * shape.K).as_float()
    z = partition_function(moments, shape, "hyperpfaffian")
    assert isinstance(z, float) and z == partition_function(moments, shape, "structure_poly")
    exact = [Fraction(v) for v in moments.values]
    assert z == as_float(partition_function(MomentSequence(exact), shape))


def test_partition_homogeneity():
    mom = MomentSequence(["1", "1/2", "1/3", "1/4", "1/5"])
    Z = partition_function(mom, S22)
    Z3 = partition_function(mom.scaled(3), S22)
    assert Z3 == 9 * Z


def test_route_equality_random():
    import random

    rng = random.Random(7)
    for _ in range(10):
        vals = [f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(9)]
        mom = MomentSequence(vals)
        assert partition_function(mom, S23, "hyperpfaffian") == partition_function(
            mom, S23, "structure_poly"
        )


def test_correlation_single_particle_density():
    s21 = ModelShape(2, 1)
    R = correlation([rational("1/4")], UNIFORM, s21)
    assert R == rational(1)  # w(x)/m_0 = 1/1
    half = NamedWeight.uniform(0, "1/2")
    assert correlation([rational("1/4")], half, s21) == rational(2)


def test_correlation_worked_value():
    assert correlation([rational("1/2")], UNIFORM, S22) == rational("3/8")


def test_correlation_outside_support():
    assert correlation([rational(2)], UNIFORM, S22) == rational(0)


def test_correlation_point_count_guard():
    with pytest.raises(ValueError):
        correlation([rational(1)] * 3, UNIFORM, S22)
    with pytest.raises(ValueError):
        correlation([], UNIFORM, S22)


def test_correlation_weightless_flag():
    # weightless factor omits w(x); equal on the support interior for uniform
    a = correlation([rational("1/3")], UNIFORM, S22)
    b = correlation([rational("1/3")], UNIFORM, S22, weightless=True)
    assert a == b
    moments_only = NamedWeight.from_moments(UNIFORM.moments(4))
    c = correlation([rational("1/3")], moments_only, S22, weightless=True)
    assert c == a
    with pytest.raises(ValueError):
        correlation([rational("1/3")], moments_only, S22)


def test_correlation_gaussian_needs_float_or_weightless():
    with pytest.raises(ValueError):
        correlation([rational(0)], GAUSS, S22)
    val = correlation([0.0], GAUSS, S22, mode="float")
    assert isinstance(val, float) and val > 0


def test_correlation_two_point_diagonal_vanishes():
    assert correlation([rational("1/3"), rational("1/3")], UNIFORM, S22) == rational(0)


def test_correlation_float_matches_exact():
    exact = correlation([rational("1/2")], UNIFORM, S22)
    approx = correlation([0.5], UNIFORM, S22, mode="float")
    assert abs(approx - float(exact)) < 1e-12


def test_correlation_float_is_the_exact_value_converted():
    # (2,5) on uniform[0,1]: float moments would lose every digit of R_1
    shape = ModelShape(2, 5)
    exact = correlation([rational("1/8")], UNIFORM, shape)
    approx = correlation([0.125], UNIFORM, shape, mode="float")
    assert approx == pytest.approx(float(exact), rel=1e-12, abs=0)


def test_r1_normalization_is_M():
    for shape in (S22, S23, ModelShape(4, 2)):
        mom = NamedWeight.uniform(0, 1).moments(2 * shape.K)
        assert r1_normalization(mom, shape) == rational(shape.M), shape
    gm = GAUSS.moments(4)
    assert r1_normalization(gm, S22) == rational(2)


def test_explicit_weight_needs_enough_moments():
    w = NamedWeight.from_moments(MomentSequence(["1", "1/2"]))
    with pytest.raises(MomentRangeError):
        w.moments(4)


def test_uniform_validation():
    with pytest.raises(ValueError):
        NamedWeight.uniform(1, 0)
    with pytest.raises(ValueError):
        NamedWeight.uniform(2, 2)


@pytest.mark.parametrize("L,M", [(4, 3), (2, 5)])
def test_float_moments_are_read_exactly_by_every_pairing(L, M):
    # gram_form rounds w_J * m_k on float moments; every entry point pairs
    # the dyadic moments instead and rounds each value once
    shape, plus = ModelShape(L, M), ModelShape(L, M + 1)
    floats = UNIFORM.moments(2 * shape.K + 2 * plus.K).as_float()
    dyadic = MomentSequence([Fraction(v) for v in floats.values])

    def close(got, exact):
        assert isinstance(got, float) and got == pytest.approx(as_float(exact), rel=1e-12, abs=0)

    close(partition_function(floats, shape), partition_function(dyadic, shape))
    close(r1_normalization(floats, shape), r1_normalization(dyadic, shape))
    for q in (-shape.K, 1, shape.K):
        close(extraction_evaluate(q, floats, shape), extraction_evaluate(q, dyadic, shape))
    x = Fraction(1, M + 3)
    close(
        correlation([x], NamedWeight.from_moments(floats), shape, weightless=True),
        correlation([x], NamedWeight.from_moments(dyadic), shape, weightless=True),
    )
    for got, exact in ((psi_minus(floats, shape), psi_minus(dyadic, shape)), (psi_plus(floats, shape), psi_plus(dyadic, shape))):
        assert got.coeffs.keys() == exact.coeffs.keys()
        for e, c in exact.coeffs.items():
            close(got.coefficient(e), c)
