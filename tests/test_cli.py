import json
import math
from fractions import Fraction

import pytest

from loggas.cli import main
from loggas.ensemble import NamedWeight
from loggas.exterior import ModelShape


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_partition_uniform(capsys):
    code, out, _ = run(
        capsys, "partition", "--L", "2", "--M", "2", "--weight", "uniform:0,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["Z"] == "1/30"
    assert doc["Z_structure_poly"] == "1/30"
    assert doc["routes_agree"] is True
    assert doc["weight"] == "uniform:0,1"


def test_partition_gaussian_tagged(capsys):
    code, out, _ = run(
        capsys, "partition", "--L", "2", "--M", "2", "--weight", "gaussian",
        "--route", "hyperpfaffian",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["Z"] == {"rational": "3/2", "symbol": "sqrt_pi", "power": 2}
    assert "Z_structure_poly" not in doc


def test_partition_float_mode(capsys):
    code, out, _ = run(
        capsys, "partition", "--L", "2", "--M", "2", "--weight", "gaussian",
        "--mode", "float", "--route", "hyperpfaffian",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["Z"] == pytest.approx(4.71238898038469, abs=1e-12)


@pytest.mark.parametrize("M", [3, 5])
def test_partition_float_moments_file_routes_agree(capsys, tmp_path, M):
    # both routes read the float moments exactly and round Z once
    path = tmp_path / "moments.json"
    moments = NamedWeight.uniform(0, 1).moments(2 * ModelShape(2, M).K).as_float()
    path.write_text(json.dumps(moments.to_json_dict()))
    code, out, _ = run(capsys, "partition", "--L", "2", "--M", str(M), "--moments-file", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["routes_agree"] is True
    assert isinstance(doc["Z"], float) and doc["Z"] > 0


def test_partition_tagged_zero_routes_agree(capsys, tmp_path):
    # a tagged moment file whose Z vanishes: both routes print a plain 0
    path = tmp_path / "moments.json"
    scale = {"symbol": "sqrt_pi", "float": 1.77}
    path.write_text(json.dumps({"scale": scale, "moments": ["1", "0", "0", "0", "0"]}))
    code, out, _ = run(capsys, "partition", "--L", "2", "--M", "2", "--moments-file", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["routes_agree"] is True
    assert doc["Z"] == doc["Z_structure_poly"] == "0"


def test_partition_tagged_float_file_routes_agree(capsys, tmp_path):
    # float moments under a sqrt_pi scale are tagged alike on both routes:
    # Z = 3/2 * sqrt_pi^2, rounded once
    path = tmp_path / "moments.json"
    scale = {"symbol": "sqrt_pi", "float": 1.77}
    path.write_text(json.dumps({"scale": scale, "moments": [1.0, 0.0, 0.5, 0.0, 0.75]}))
    code, out, _ = run(capsys, "partition", "--L", "2", "--M", "2", "--moments-file", str(path))
    doc = json.loads(out)
    assert code == 0 and doc["routes_agree"] is True
    assert doc["Z"] == doc["Z_structure_poly"] == 4.712388980384689


def test_partition_float_mode_converts_exact_value(capsys):
    # (2,5) on uniform[0,1]: summing float moments loses ~3% here, so the
    # float result must be the exact Z converted once
    argv = ["partition", "--L", "2", "--M", "5", "--weight", "uniform:0,1", "--route", "hyperpfaffian"]
    _, out, _ = run(capsys, *argv)
    num, _, den = json.loads(out)["Z"].partition("/")
    exact = Fraction(int(num), int(den or 1))
    code, out, _ = run(capsys, *argv, "--mode", "float")
    assert code == 0
    assert json.loads(out)["Z"] == pytest.approx(float(exact), rel=1e-12, abs=0)


def test_correlate_float_mode_converts_exact_value(capsys):
    argv = ["correlate", "--L", "2", "--M", "5", "--weight", "uniform:0,1", "--points", "1/8"]
    _, out, _ = run(capsys, *argv)
    num, _, den = json.loads(out)["R"].partition("/")
    code, out, _ = run(capsys, *argv, "--mode", "float")
    assert code == 0
    assert json.loads(out)["R"] == pytest.approx(int(num) / int(den or 1), rel=1e-12, abs=0)


def test_partition_moments_file(capsys, tmp_path):
    path = tmp_path / "mom.json"
    path.write_text(json.dumps(
        {"scale": None, "moments": ["1", "1/2", "1/3", "1/4", "1/5"]}
    ))
    code, out, _ = run(
        capsys, "partition", "--L", "2", "--M", "2", "--moments-file", str(path)
    )
    assert code == 0
    assert json.loads(out)["Z"] == "1/30"


def test_structure_table(capsys):
    code, out, _ = run(capsys, "structure", "--L", "2", "--M", "2", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert doc["L"] == 2 and doc["M"] == 2 and doc["K"] == 2
    entries = {tuple(k): v for k, v in doc["entries"]}
    assert entries[(-2, 2)] == "1"
    assert entries[(-1, 1)] == "-4"
    assert entries[(0, 0)] == "6"


def test_structure_cache_faults_are_reported(capsys, tmp_path, monkeypatch):
    # a corrupt table is rebuilt and an unwritable cache is skipped, each
    # named on stderr; stdout and the exit code are those of --no-cache
    _, expected, _ = run(capsys, "structure", "--L", "2", "--M", "2", "--no-cache")
    cache = tmp_path / "cache"
    cache.mkdir(exist_ok=True)
    stale = cache / "structure_L2_M2.json"
    # the last two fail to load with TypeError rather than ValueError
    for text in ('{"L": 2, "M": 2, "K": 2, "entries": "x"}',
                 '{"L": 2, "M": 2, "K": 2, "entries": 5}',
                 "[2]"):
        stale.write_text(text)
        code, out, err = run(capsys, "structure", "--L", "2", "--M", "2")
        assert (code, out) == (0, expected), text
        assert f"rebuilt stale table {stale}" in err
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    monkeypatch.setenv("LOGGAS_CACHE_DIR", str(blocked))
    code, out, err = run(capsys, "structure", "--L", "2", "--M", "2")
    assert (code, out) == (0, expected)
    assert "cache write failed" in err


def test_epsilon(capsys):
    code, out, _ = run(capsys, "epsilon", "--L", "2", "--M", "2", "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] == {"2,3": "1"}


def test_correlate_worked_value(capsys):
    code, out, _ = run(
        capsys, "correlate", "--L", "2", "--M", "2", "--weight", "uniform:0,1",
        "--points", "1/2",
    )
    assert code == 0
    assert json.loads(out)["R"] == "3/8"


def test_tau(capsys):
    code, out, _ = run(capsys, "tau", "--L", "2", "--M", "2", "--weight", "uniform:0,1")
    assert code == 0
    assert json.loads(out)["tau"] == "1/30"


def test_psi(capsys):
    code, out, _ = run(capsys, "psi", "--L", "2", "--M", "1", "--weight", "uniform:0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["k_cut"] == 1
    assert doc["psi_minus"] == {"0": "1"}
    assert doc["psi_plus"] == {"-1": "2/15"}


def test_verify_plucker_passes(capsys):
    code, out, _ = run(capsys, "verify-plucker", "--L", "2", "--M", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["ok"] for c in doc["checks"])


def test_verify_confluent_passes(capsys):
    code, out, _ = run(
        capsys, "verify-confluent", "--L", "2", "--M", "2", "--trials", "5", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_toeplitz_passes(capsys):
    code, out, _ = run(
        capsys, "verify-toeplitz", "--L", "2", "--M", "2", "--trials", "3", "--seed", "2"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_adjunction_passes(capsys):
    code, out, _ = run(
        capsys, "verify-adjunction", "--L", "2", "--M", "2", "--trials", "3",
        "--seed", "4", "--no-cache",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_hirota_fails_honestly(capsys):
    code, out, _ = run(
        capsys, "verify-hirota", "--L", "2", "--M", "2", "--trials", "2", "--seed", "1"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert any(c["actual"] != "0" for c in doc["checks"])


def test_transport_spectrum(capsys):
    code, out, _ = run(
        capsys, "transport-spectrum", "--L", "2", "--M", "2", "--weight", "uniform:0,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["z0"] == doc["spectrum"]["0"] == "7307/113513400"


def test_oracle_closed_form(capsys):
    code, out, _ = run(
        capsys, "oracle", "--L", "2", "--M", "2", "--weight", "uniform:0,1",
        "--method", "closed_form",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"] == pytest.approx(1 / 30)
    assert doc["method"] == "closed_form"


@pytest.mark.parametrize("M", [1, 2])
def test_oracle_r1_has_no_closed_form(capsys, M):
    code, out, err = run(
        capsys, "oracle", "--L", "2", "--M", str(M), "--weight", "uniform:0,1",
        "--which", "r1", "--method", "closed_form", "--x", "1/2",
    )
    assert code == 2 and out == ""
    assert "no closed form for R_1" in err


def test_oracle_r1_requires_x(capsys):
    code, _, err = run(
        capsys, "oracle", "--L", "2", "--M", "2", "--weight", "uniform:0,1",
        "--which", "r1", "--method", "tensor_quadrature",
    )
    assert code == 2
    assert "--x" in err


def test_oracle_r1_quadrature(capsys):
    code, out, _ = run(
        capsys, "oracle", "--L", "2", "--M", "2", "--weight", "uniform:0,1",
        "--which", "r1", "--method", "tensor_quadrature", "--x", "1/2",
    )
    assert code == 0
    assert json.loads(out)["estimate"] == pytest.approx(3 / 8, rel=1e-12)


def test_oracle_r1_monte_carlo_one_particle(capsys):
    # at M = 1, R_1 = w(x)/m_0 with m_0 estimated by the asked-for method
    code, out, _ = run(
        capsys, "oracle", "--L", "2", "--M", "1", "--weight", "gaussian",
        "--which", "r1", "--method", "monte_carlo", "--budget", "1000", "--x", "1/2",
    )
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "monte_carlo"
    assert doc["samples_or_nodes"] == doc["budget"] == 1000
    exact = math.exp(-0.25) / math.sqrt(math.pi)
    assert 0 < doc["std_error"] and abs(doc["estimate"] - exact) < 5 * doc["std_error"]


def test_usage_error_bad_weight(capsys):
    code, _, err = run(
        capsys, "partition", "--L", "2", "--M", "2", "--weight", "lorentzian"
    )
    assert code == 2
    assert "unknown weight" in err


def test_usage_error_missing_weight(capsys):
    code, _, err = run(capsys, "partition", "--L", "2", "--M", "2")
    assert code == 2
    assert "weight is required" in err


def test_usage_error_odd_L(capsys):
    code, _, err = run(
        capsys, "partition", "--L", "3", "--M", "2", "--weight", "uniform:0,1"
    )
    assert code == 2
    assert "error:" in err


def test_usage_error_weight_and_moments_file(capsys, tmp_path):
    path = tmp_path / "mom.json"
    path.write_text(json.dumps({"scale": None, "moments": ["1"]}))
    code, _, err = run(
        capsys, "partition", "--L", "2", "--M", "2",
        "--weight", "gaussian", "--moments-file", str(path),
    )
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["correlate", "--L", "2", "--M", "2", "--weight", "uniform:0,1", "--points", "1/0"],
        ["partition", "--L", "2", "--M", "2", "--moments-file", "{dir}/missing.json"],
        ["partition", "--L", "2", "--M", "2", "--moments-file", "{dir}/Infinity.json"],
        ["partition", "--L", "2", "--M", "2", "--moments-file", "{dir}/-Infinity.json"],
        ["partition", "--L", "2", "--M", "2", "--moments-file", "{dir}/NaN.json"],
        ["partition", "--L", "2", "--M", "2", "--moments-file", "{dir}/list.json"],
        ["partition", "--L", "2", "--M", "2", "--moments-file", "{dir}/null.json"],
        ["partition", "--L", "2", "--M", "2", "--moments-file", "{dir}/bool.json"],
        ["partition", "--L", "2", "--M", "2", "--moments-file", "{dir}/string.json"],
        ["oracle", "--L", "2", "--M", "2", "--weight", "uniform:0,1", "--budget", "1"],
        ["verify-confluent", "--L", "2", "--M", "2", "--trials", "0"],
        ["verify-toeplitz", "--L", "2", "--M", "2", "--threads", "0"],
        ["verify-plucker", "--L", "2", "--M", "2", "--j-max", "1"],
        ["verify-plucker", "--L", "2", "--M", "2", "--j-max", "0"],
        ["correlate", "--L", "2", "--M", "2", "--moments-file", "{dir}/point-mass.json", "--points=1/3", "--weightless"],
        ["oracle", "--L", "2", "--M", "2", "--weight", "uniform:0,1", "--which", "r1", "--x", "1/0"],
        # refused by the coordinate limit before any sample is drawn
        ["oracle", "--L", "2", "--M", "2", "--weight", "uniform:0,1", "--budget", "1000000000000"],
        ["oracle", "--L", "2", "--M", "2", "--weight", "uniform:0,1", "--method", "tensor_quadrature", "--nodes", "3000"],
        # C(64, 8) blades: refused before enumeration
        ["epsilon", "--L", "8", "--M", "8", "--p", "0"],
    ],
    ids=[
        "points-zero-denominator", "missing-moments-file", "infinite-moment", "negative-infinite-moment",
        "nan-moment", "list-moments-file", "null-moments-file", "bool-moment", "string-moments", "budget-1",
        "trials-0", "threads-0", "j-max-1", "j-max-0", "point-mass-moments", "r1-x-zero-denominator",
        "budget-huge", "nodes-huge", "epsilon-blade-ceiling",
    ],
)
def test_usage_error_bad_input(capsys, tmp_path, argv):
    for m0 in ("Infinity", "-Infinity", "NaN"):
        (tmp_path / f"{m0}.json").write_text('{"scale": null, "moments": [%s, 0.0, 0.5, 0.0, 0.75]}' % m0)
    (tmp_path / "list.json").write_text("[1, 0, 1, 0, 1]")
    (tmp_path / "null.json").write_text("null")
    (tmp_path / "bool.json").write_text('{"scale": null, "moments": [true, 0, 1, 0, 1]}')
    (tmp_path / "string.json").write_text('{"scale": null, "moments": "10101"}')
    # a point mass at 1/2: Z = 0, so R_m = (...)/Z is undefined
    (tmp_path / "point-mass.json").write_text('{"scale": null, "moments": ["1", "1/2", "1/4", "1/8", "1/16"]}')
    argv = [a.format(dir=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects the value itself
        code = e.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "Traceback" not in out.err


@pytest.mark.parametrize("nodes", ["0", "-3"])
@pytest.mark.parametrize("method", ["tensor_quadrature", "monte_carlo"])
def test_oracle_nodes_lower_bound(capsys, method, nodes):
    argv = ["oracle", "--L", "2", "--M", "2", "--weight", "uniform:0,1", "--method", method, "--nodes", nodes]
    with pytest.raises(SystemExit) as e:
        main(argv)
    out = capsys.readouterr()
    assert e.value.code == 2
    assert out.out == ""
    assert any("error:" in line and "--nodes" in line for line in out.err.splitlines())


def test_out_file(capsys, tmp_path):
    target = tmp_path / "z.json"
    code, out, _ = run(
        capsys, "partition", "--L", "2", "--M", "2", "--weight", "uniform:0,1",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["Z"] == "1/30"


def test_thread_determinism_bytes(capsys, tmp_path):
    files = []
    for t in ("1", "4"):
        target = tmp_path / f"r{t}.json"
        code, _, _ = run(
            capsys, "verify-confluent", "--L", "2", "--M", "3",
            "--trials", "8", "--seed", "5", "--threads", t, "--out", str(target),
        )
        assert code == 0
        files.append(target.read_bytes())
    assert files[0] == files[1]


def test_oracle_thread_determinism_bytes(capsys, tmp_path):
    files = []
    for t in ("1", "4"):
        target = tmp_path / f"mc{t}.json"
        code, _, _ = run(
            capsys, "oracle", "--L", "2", "--M", "2", "--weight", "uniform:0,1",
            "--method", "monte_carlo", "--budget", "20000", "--seed", "9",
            "--threads", t, "--out", str(target),
        )
        assert code == 0
        files.append(target.read_bytes())
    assert files[0] == files[1]
