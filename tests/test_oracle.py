import math

import pytest

from loggas.ensemble import NamedWeight, partition_function
from loggas.exterior import ModelShape
from loggas.oracle import (
    CLOSED_FORMS,
    IntegrationReport,
    direct_interaction,
    integrate_R1,
    integrate_partition,
)
from loggas.scalars import as_float, rational

S22 = ModelShape(2, 2)
S23 = ModelShape(2, 3)
UNIFORM = NamedWeight.uniform(0, 1)
GAUSS = NamedWeight.gaussian()


def test_direct_interaction_exact():
    assert direct_interaction(["0", "1/2"], 2) == rational("1/16")
    assert direct_interaction(["0", "1", "2"], 2) == rational(16)
    assert direct_interaction(["1/3"], 2) == rational(1)
    # antisymmetric pieces come back squared, so order never matters
    assert direct_interaction(["2", "0", "1"], 2) == rational(16)


def test_direct_interaction_float():
    v = direct_interaction([0.0, 0.5], 2)
    assert isinstance(v, float)
    assert v == pytest.approx(1 / 16)


def test_direct_interaction_L4():
    assert direct_interaction(["0", "1/2"], 4) == rational(f"1/{2**16}")


def test_closed_forms_match_engine():
    # every frozen closed form agrees with the exact algebraic engine
    for (label, L, M), value in CLOSED_FORMS.items():
        shape = ModelShape(L, M)
        w = UNIFORM if label.startswith("uniform") else GAUSS
        z = partition_function(w.moments(2 * shape.K), shape)
        assert z == value, (label, L, M)


def test_quadrature_matches_closed_forms():
    for (label, L, M), value in CLOSED_FORMS.items():
        w = UNIFORM if label.startswith("uniform") else GAUSS
        rep = integrate_partition(w, ModelShape(L, M), method="tensor_quadrature")
        assert rep.estimate == pytest.approx(as_float(value), rel=1e-12)
        assert rep.std_error == 0.0


def test_quadrature_node_default_is_exact():
    # the default rule is already polynomial-exact; doubling changes nothing
    lo = integrate_partition(UNIFORM, S23, method="tensor_quadrature")
    hi = integrate_partition(UNIFORM, S23, method="tensor_quadrature", nodes=12)
    assert lo.estimate == pytest.approx(hi.estimate, rel=1e-13)


def test_closed_form_method():
    rep = integrate_partition(UNIFORM, S22, method="closed_form")
    assert rep.estimate == pytest.approx(1 / 30)
    with pytest.raises(ValueError):
        integrate_partition(NamedWeight.uniform(0, 2), S22, method="closed_form")


def test_monte_carlo_brackets_truth():
    rep = integrate_partition(UNIFORM, S22, method="monte_carlo", budget=200_000, seed=7)
    assert rep.std_error > 0
    assert abs(rep.estimate - 1 / 30) < 4 * rep.std_error
    grep = integrate_partition(GAUSS, S22, method="monte_carlo", budget=200_000, seed=7)
    truth = 1.5 * math.pi
    assert abs(grep.estimate - truth) < 4 * grep.std_error


def test_monte_carlo_deterministic_across_threads():
    reps = [
        integrate_partition(UNIFORM, S23, method="monte_carlo", budget=50_000, seed=3, threads=t)
        for t in (1, 4, 8)
    ]
    assert reps[0].estimate == reps[1].estimate == reps[2].estimate
    assert reps[0].std_error == reps[1].std_error == reps[2].std_error


def test_monte_carlo_R1_deterministic_across_threads():
    reps = [
        integrate_R1(GAUSS, S23, 0.5, method="monte_carlo", budget=20_001, seed=3, threads=t)
        for t in (1, 2, 4, 8)
    ]
    assert len({(r.estimate, r.std_error, r.samples_or_nodes) for r in reps}) == 1


@pytest.mark.parametrize(
    "method, kwargs",
    [("monte_carlo", {"budget": 10**12}), ("tensor_quadrature", {"nodes": 3000})],
)
def test_coordinate_limit_refuses_huge_jobs(method, kwargs):
    with pytest.raises(ValueError, match=r"limit is 4194304"):
        integrate_partition(UNIFORM, S22, method=method, **kwargs)
    with pytest.raises(ValueError, match=r"limit is 4194304"):
        integrate_R1(UNIFORM, S23, 0.5, method=method, **kwargs)


def test_monte_carlo_seed_sensitivity():
    a = integrate_partition(UNIFORM, S22, method="monte_carlo", budget=10_000, seed=1)
    b = integrate_partition(UNIFORM, S22, method="monte_carlo", budget=10_000, seed=2)
    assert a.estimate != b.estimate


def test_integrate_R1_quadrature_worked_value():
    rep = integrate_R1(UNIFORM, S22, 0.5, method="tensor_quadrature")
    assert rep.estimate == pytest.approx(3 / 8, rel=1e-12)


def test_integrate_R1_outside_support():
    rep = integrate_R1(UNIFORM, S22, 2.0, method="tensor_quadrature")
    assert rep.estimate == 0.0


def test_integrate_R1_single_particle():
    rep = integrate_R1(UNIFORM, ModelShape(2, 1), 0.25, method="tensor_quadrature")
    assert rep.estimate == pytest.approx(1.0)


def test_integrate_R1_monte_carlo():
    rep = integrate_R1(UNIFORM, S22, 0.5, method="monte_carlo", budget=400_000, seed=11)
    assert abs(rep.estimate - 3 / 8) < 4 * rep.std_error
    assert rep.std_error < 0.05


def test_report_json_field_order():
    rep = IntegrationReport(1.5, 0.1, 100, "monte_carlo", seed=4, budget=100)
    assert list(rep.to_json_dict()) == [
        "method",
        "seed",
        "budget",
        "estimate",
        "std_error",
        "samples_or_nodes",
    ]


def test_tagged_closed_form_floats():
    assert as_float(CLOSED_FORMS[("gaussian", 2, 2)]) == pytest.approx(1.5 * math.pi)
    assert as_float(CLOSED_FORMS[("gaussian", 2, 3)]) == pytest.approx(
        11.25 * math.pi**1.5
    )
