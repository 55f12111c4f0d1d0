import random

import pytest

from loggas.ensemble import MomentRangeError, MomentSequence, NamedWeight
from loggas.exterior import ModelShape
from loggas.scalars import Tagged, rational, scalar_is_zero
from loggas.tau import (
    LaurentPolynomial,
    extraction_evaluate,
    hirota_residual,
    miwa_negative_moments,
    psi_minus,
    psi_plus,
    tau,
    transport_spectrum,
)

S22 = ModelShape(2, 2)
S23 = ModelShape(2, 3)
UNIFORM = NamedWeight.uniform(0, 1)


def random_moments(rng, D):
    return MomentSequence([f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(D + 1)])


def test_laurent_basics():
    p = LaurentPolynomial({2: rational(3), -1: rational("1/2"), 0: rational(0)})
    assert p.coefficient(2) == rational(3)
    assert p.coefficient(0) == rational(0)
    assert list(p.coeffs) == [-1, 2]
    q = LaurentPolynomial({1: rational(1)})
    assert (p * q).coefficient(3) == rational(3)
    assert (p + q).coefficient(1) == rational(1)
    assert p.evaluate(rational(2)) == rational(3) * 4 + rational("1/2") / 2
    assert LaurentPolynomial({}).is_zero()


def test_laurent_json():
    p = LaurentPolynomial({-1: rational("2/15"), 3: Tagged(1, 2)})
    assert p.to_json_dict() == {
        "-1": "2/15",
        "3": {"rational": "1", "symbol": "sqrt_pi", "power": 2},
    }


def test_tau_is_partition_function():
    mom = UNIFORM.moments(4)
    assert tau(mom, S22) == rational("1/30")
    s21 = ModelShape(2, 1)
    assert tau(MomentSequence(["4/7"]), s21) == rational("4/7")


def test_tau_homogeneity():
    mom = UNIFORM.moments(4)
    assert tau(mom.scaled(5), S22) == 25 * tau(mom, S22)


def test_miwa_negative_moments_worked_value():
    shifted = miwa_negative_moments(UNIFORM.moments(8), 2, S22)
    assert shifted.values[0] == rational("31/80")
    assert shifted.D == 4


def test_miwa_zero_measure():
    zero = MomentSequence([rational(0)] * 9)
    shifted = miwa_negative_moments(zero, 3, S22)
    assert all(v == 0 for v in shifted.values)


def test_miwa_large_z_leading_term():
    # z^{-L^2} binomial sum tends to m_k coefficientwise as z grows
    mom = UNIFORM.moments(8)
    big = miwa_negative_moments(mom, 10**9, S22)
    for k in range(big.D + 1):
        assert abs(float(big.values[k]) - float(mom.values[k])) < 1e-6


def test_miwa_errors():
    with pytest.raises(ValueError):
        miwa_negative_moments(UNIFORM.moments(8), 0, S22)
    with pytest.raises(MomentRangeError):
        miwa_negative_moments(UNIFORM.moments(2), 2, S22)


def test_miwa_preserves_scale_tag():
    g = NamedWeight.gaussian().moments(8)
    shifted = miwa_negative_moments(g, 3, S22)
    assert shifted.scale_symbol == "sqrt_pi"


def test_psi_minus_single_particle():
    s21 = ModelShape(2, 1)
    p = psi_minus(MomentSequence(["9/2"]), s21)
    assert p.coeffs == {0: rational(1)}


def test_psi_minus_worked_polynomial():
    p = psi_minus(UNIFORM.moments(4), S22)
    assert p.to_json_dict() == {"0": "1/5", "1": "-1", "2": "2", "3": "-2", "4": "1"}


def test_psi_minus_coefficients_from_table():
    # A_p = mhat_{-p} C_{(p,-p)} at M = 2
    from loggas.spine import structure_table

    rng = random.Random(3)
    mom = random_moments(rng, 4)
    table = structure_table(S22, cache=False)
    p = psi_minus(mom, S22)
    for q in range(-2, 3):
        assert p.coefficient(q + 2) == mom.mhat(-q, 2) * table.lookup((q, -q))


def test_negative_miwa_identity():
    # psi_minus(z) = z^{2K} tau_{M-1}(shifted moments), exactly
    rng = random.Random(11)
    for shape in (S22, S23, ModelShape(4, 2)):
        mom = random_moments(rng, 2 * shape.K + shape.L**2)
        poly = psi_minus(mom, shape)
        lower = ModelShape(shape.L, shape.M - 1) if shape.M > 1 else None
        for _ in range(4):
            z = rational(f"{rng.choice([-3, -2, -1, 1, 2, 3, 5])}/{rng.randint(1, 4)}")
            shifted = miwa_negative_moments(mom, z, shape)
            t = tau(shifted, lower) if lower else rational(1)
            assert poly.evaluate(z) == z ** (2 * shape.K) * t, (shape, z)


def test_negative_miwa_identity_worked_value():
    z = rational(3)
    shifted = miwa_negative_moments(UNIFORM.moments(8), z, S22)
    lhs = z**4 * tau(shifted, ModelShape(2, 1))
    assert lhs == rational("211/5")
    assert psi_minus(UNIFORM.moments(4), S22).evaluate(z) == rational("211/5")


def test_psi_plus_worked_value():
    s21 = ModelShape(2, 1)
    p = psi_plus(UNIFORM.moments(5), s21, k_cut=1)
    assert p.coeffs == {-1: rational("2/15")}
    # at M = 1 (K = 0) the default k_cut is 1, as for hirota_residual
    assert psi_plus(UNIFORM.moments(5), s21) == p


def test_psi_plus_range_guards():
    with pytest.raises(ValueError):
        psi_plus(UNIFORM.moments(10), S22, k_cut=0)
    # needs k_cut + 2K' moments, never a silent zero
    with pytest.raises(MomentRangeError):
        psi_plus(UNIFORM.moments(6), S22, k_cut=4)


def test_psi_plus_homogeneity():
    mom = UNIFORM.moments(4 + 2 * ModelShape(2, 3).K)
    p1 = psi_plus(mom, S22, k_cut=4)
    p3 = psi_plus(mom.scaled(3), S22, k_cut=4)
    for k in range(1, 5):
        assert p3.coefficient(-k) == 27 * p1.coefficient(-k)  # degree M+1 = 3


def test_extraction_evaluate():
    assert extraction_evaluate(0, MomentSequence(["5"]), ModelShape(2, 1)) == rational(1)
    mom = UNIFORM.moments(4)
    assert extraction_evaluate(2, mom, S22) == rational(1)  # mhat_{-2} C_{(2,-2)} = m_0
    assert extraction_evaluate(7, mom, S22) == rational(0)  # out of range


def test_extraction_matches_psi_minus_coefficients():
    rng = random.Random(5)
    mom = random_moments(rng, 2 * S23.K)
    poly = psi_minus(mom, S23)
    for q in range(-S23.K, S23.K + 1):
        assert extraction_evaluate(q, mom, S23) == poly.coefficient(q + S23.K)


def test_hirota_single_particle_vanishes():
    s21 = ModelShape(2, 1)
    rng = random.Random(1)
    t = random_moments(rng, 0)
    tp = random_moments(rng, 1 + 2 * S22.K)
    assert hirota_residual(t, tp, s21) == rational(0)


def test_hirota_residual_is_generically_nonzero():
    # The bilinear residue does not vanish: pinned regression values on
    # the uniform background, reproduced independently of this module
    # by a direct expansion when first observed.
    mom = UNIFORM.moments(4)
    momp = UNIFORM.moments(4 + 2 * ModelShape(2, 3).K)
    res = hirota_residual(mom, momp, S22)
    assert res == rational("7307/113513400")


def test_hirota_truncation_stability():
    # k_cut beyond 2K only adds terms that pair to zero
    rng = random.Random(9)
    K3 = ModelShape(2, 4).K
    t = random_moments(rng, 2 * S23.K)
    tp = random_moments(rng, (2 * S23.K + 4) + 2 * K3)
    r1 = hirota_residual(t, tp, S23, k_cut=2 * S23.K)
    r2 = hirota_residual(t, tp, S23, k_cut=2 * S23.K + 4)
    assert r1 == r2
    assert not scalar_is_zero(r1)


def test_hirota_homogeneity():
    rng = random.Random(13)
    t = random_moments(rng, 2 * S22.K)
    tp = random_moments(rng, 2 * S22.K + 2 * ModelShape(2, 3).K)
    r = hirota_residual(t, tp, S22)
    r3 = hirota_residual(t, tp.scaled(3), S22)
    assert r3 == 27 * r  # B_k homogeneous of degree M+1


def test_transport_spectrum_z0_is_hirota():
    rng = random.Random(21)
    t = random_moments(rng, 2 * S22.K)
    tp = random_moments(rng, 2 * S22.K + 2 * ModelShape(2, 3).K)
    spec = transport_spectrum(t, tp, S22)
    assert spec.coefficient(0) == hirota_residual(t, tp, S22)


def test_transport_spectrum_single_particle_no_z0():
    s21 = ModelShape(2, 1)
    t = MomentSequence(["3"])
    tp = UNIFORM.moments(1 + 2 * S22.K)
    spec = transport_spectrum(t, tp, s21)
    assert spec.coefficient(0) == rational(0)
    assert all(e < 0 for e in spec.coeffs)


def test_gaussian_wave_pair_tags():
    g = NamedWeight.gaussian()
    t = g.moments(4)
    tp = g.moments(4 + 2 * ModelShape(2, 3).K)
    # A_p carries scale^(M-1), B_k scale^(M+1)
    a = psi_minus(t, S22).coefficient(2)
    b = psi_plus(tp, S22).coefficient(-2)
    assert isinstance(a, Tagged) and a.power == 1
    assert isinstance(b, Tagged) and b.power == 3
    res = hirota_residual(t, tp, S22)
    assert isinstance(res, Tagged) and res.power == 4
