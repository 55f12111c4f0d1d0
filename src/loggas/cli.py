"""Batch command-line front end with JSON output.

Every subcommand is a thin adapter over the library; no algebra lives
here.  Exit codes: 0 success, 1 failed verification, 2 usage error.
Output is deterministic for a fixed seed: reports carry no timestamps
or host info, exact sweeps run serially (their --threads has no effect),
and the oracle's --threads only sizes its Monte Carlo worker pool, so
JSON bytes are identical at any --threads value.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .ensemble import (
    MomentRangeError,
    MomentSequence,
    NamedWeight,
    correlation,
    partition_function,
)
# wedge is not used here; the benchmark's tests check that tracing
# replaces and restores it on this module
from .exterior import ModelShape, omega, star_pairing, wedge, zero_multivector  # noqa: F401
from .oracle import direct_interaction, integrate_partition, integrate_R1
from .scalars import as_float, format_rational, rational, scalar_is_zero, scalar_json
from .spine import (
    ToeplitzOperator,
    epsilon,
    higher_plucker_residual,
    plucker_residual,
    structure_table,
    toeplitz_residual,
)
from .tau import (
    default_k_cut,
    hirota_residual,
    psi_minus,
    psi_plus,
    tau,
    transport_spectrum,
)


class UsageError(Exception):
    pass


def _parse_weight(args) -> NamedWeight:
    if getattr(args, "moments_file", None):
        if getattr(args, "weight", None):
            raise UsageError("give either --weight or --moments-file, not both")
        try:
            with open(args.moments_file) as fh:
                return NamedWeight.from_moments(MomentSequence.from_json_dict(json.load(fh)))
        except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise UsageError(f"bad moments file {args.moments_file!r}: {e}")
    spec = getattr(args, "weight", None)
    if not spec:
        raise UsageError("a weight is required: --weight uniform:a,b | gaussian, or --moments-file")
    return _weight_from_string(spec)


def _weight_from_string(spec: str) -> NamedWeight:
    if spec == "gaussian":
        return NamedWeight.gaussian()
    if spec.startswith("uniform:"):
        try:
            a, b = spec[len("uniform:") :].split(",")
            return NamedWeight.uniform(rational(a), rational(b))
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError(f"bad uniform endpoints in {spec!r}: {e}")
    raise UsageError(f"unknown weight {spec!r}")


def _emit(obj: dict, args) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _shape(args) -> ModelShape:
    try:
        return ModelShape(args.L, args.M)
    except ValueError as e:
        raise UsageError(str(e))


def _scalar_out(x, mode: str):
    """JSON form of an exact result; float mode converts it once, here."""
    return as_float(x) if mode == "float" else scalar_json(x)


def _random_rational(rng: random.Random):
    return rational(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}")


def _random_moments(rng: random.Random, D: int) -> MomentSequence:
    return MomentSequence([_random_rational(rng) for _ in range(D + 1)])


# ----------------------------------------------------------------- commands


def cmd_partition(args) -> int:
    shape = _shape(args)
    weight = _parse_weight(args)
    moments = weight.moments(2 * shape.K)
    out = {"L": shape.L, "M": shape.M, "weight": weight.label(), "mode": args.mode}
    if args.route in ("hyperpfaffian", "both"):
        out["Z"] = _scalar_out(partition_function(moments, shape, "hyperpfaffian"), args.mode)
    if args.route in ("structure_poly", "both"):
        out["Z_structure_poly"] = _scalar_out(
            partition_function(moments, shape, "structure_poly"), args.mode
        )
    if args.route == "both":
        out["routes_agree"] = out["Z"] == out["Z_structure_poly"]
    _emit(out, args)
    if args.route == "both" and not out["routes_agree"]:
        return 1
    return 0


def cmd_structure(args) -> int:
    shape = _shape(args)
    table = structure_table(shape, cache=not args.no_cache)
    _emit(table.to_json_dict(), args)
    return 0


def cmd_epsilon(args) -> int:
    shape = _shape(args)
    mode = epsilon(args.p, shape)
    _emit(
        {"L": shape.L, "M": shape.M, "p": args.p, "epsilon": mode.to_json_dict()},
        args,
    )
    return 0


def cmd_correlate(args) -> int:
    shape = _shape(args)
    weight = _parse_weight(args)
    parse = Fraction if args.mode == "float" else rational  # float mode reads decimals exactly
    try:
        points = [parse(s) for s in args.points.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --points {args.points!r}: {e}")
    R = correlation(points, weight, shape, weightless=args.weightless, mode=args.mode)
    _emit(
        {
            "L": shape.L,
            "M": shape.M,
            "weight": weight.label(),
            "points": args.points.split(","),
            "weightless": args.weightless,
            "R": scalar_json(R),
        },
        args,
    )
    return 0


def cmd_tau(args) -> int:
    shape = _shape(args)
    weight = _parse_weight(args)
    moments = weight.moments(2 * shape.K)
    _emit(
        {"L": shape.L, "M": shape.M, "weight": weight.label(), "tau": _scalar_out(tau(moments, shape), args.mode)},
        args,
    )
    return 0


def _wave_inputs(args, shape: ModelShape):
    """Report header, t and t' moments, and k_cut of psi and transport-spectrum."""
    weight = _parse_weight(args)
    weight_plus = _weight_from_string(args.weight_plus) if args.weight_plus else weight
    k_cut = args.k_cut if args.k_cut is not None else default_k_cut(shape)
    plus_K = ModelShape(shape.L, shape.M + 1).K
    header = {
        "L": shape.L,
        "M": shape.M,
        "weight": weight.label(),
        "weight_plus": weight_plus.label(),
        "k_cut": k_cut,
    }
    return header, weight.moments(2 * shape.K), weight_plus.moments(k_cut + 2 * plus_K), k_cut


def cmd_psi(args) -> int:
    shape = _shape(args)
    header, moments, moments_plus, k_cut = _wave_inputs(args, shape)
    minus = psi_minus(moments, shape)
    plus = psi_plus(moments_plus, shape, k_cut)
    _emit({**header, "psi_minus": minus.to_json_dict(), "psi_plus": plus.to_json_dict()}, args)
    return 0


def _map_ordered(fn, items, threads: int) -> list:
    """The checks of a verify-* sweep, in order.  Serial whatever --threads
    says: exact arithmetic holds the GIL, so a pool only adds overhead."""
    return [fn(x) for x in items]


def cmd_verify_confluent(args) -> int:
    shape = _shape(args)
    rng = random.Random(args.seed)
    tuples = [[_random_rational(rng) for _ in range(shape.M)] for _ in range(args.trials)]
    # with M forms the background never enters the pairing
    pair = star_pairing(zero_multivector(shape))

    def check(xs):
        lhs = pair(tuple(omega(x, shape) for x in xs))
        rhs = direct_interaction(xs, shape.L)
        points = [format_rational(x) for x in xs]
        return {"points": points, "expected": scalar_json(rhs), "actual": scalar_json(lhs), "ok": lhs == rhs}

    return _verdict(args, "confluent", shape, _map_ordered(check, tuples, args.threads))


def cmd_verify_plucker(args) -> int:
    shape = _shape(args)
    j_max = args.j_max if args.j_max is not None else shape.M
    if j_max < 2:
        raise UsageError(f"--j-max must be at least 2, got {j_max}")
    jobs = [(j, n) for j in range(2, j_max + 1) for n in range(-j * shape.K, j * shape.K + 1)]

    def check(job):
        j, n = job
        res = plucker_residual(n, shape) if j == 2 else higher_plucker_residual(n, j, shape)
        return {"j": j, "n": n, "expected": "0", "actual_terms": len(res.terms), "ok": res.is_zero()}

    return _verdict(args, "plucker", shape, _map_ordered(check, jobs, args.threads))


def cmd_verify_toeplitz(args) -> int:
    shape = _shape(args)
    rng = random.Random(args.seed)
    bands = [{k: _random_rational(rng) for k in (-1, 0, 1)} for _ in range(args.trials)]

    def check(band):
        T = ToeplitzOperator.from_dict(band)
        bad = [
            n for n in range(-2 * shape.K - 2, 2 * shape.K + 3)
            if not toeplitz_residual(T, n, shape).is_zero()
        ]
        band = {str(k): format_rational(v) for k, v in sorted(band.items())}
        return {"band": band, "expected": "0 at every n", "nonzero_at": bad, "ok": not bad}

    return _verdict(args, "toeplitz", shape, _map_ordered(check, bands, args.threads))


def cmd_verify_adjunction(args) -> int:
    shape = _shape(args)
    rng = random.Random(args.seed)
    seqs = [_random_moments(rng, 2 * shape.K) for _ in range(args.trials)]
    table = structure_table(shape, cache=not args.no_cache)

    def check(item):
        # the adjunction value at q is the z^{q+K} coefficient of psi_minus
        idx, moments = item
        minus, expansion = psi_minus(moments, shape), table.adjunction(moments)
        bad = [q for q, A in expansion.items() if minus.coefficient(q + shape.K) != A]
        return {"trial": idx, "expected": "adjunction = table expansion for all q", "mismatch_at": bad, "ok": not bad}

    return _verdict(args, "adjunction", shape, _map_ordered(check, list(enumerate(seqs)), args.threads))


def cmd_verify_hirota(args) -> int:
    shape = _shape(args)
    rng = random.Random(args.seed)
    k_cut = args.k_cut if args.k_cut is not None else default_k_cut(shape)
    plus_shape = ModelShape(shape.L, shape.M + 1)
    pairs = [
        (_random_moments(rng, 2 * shape.K), _random_moments(rng, k_cut + 2 * plus_shape.K))
        for _ in range(args.trials)
    ]

    def check(item):
        idx, (t, tp) = item
        res = hirota_residual(t, tp, shape, k_cut)
        return {"trial": idx, "expected": "0", "actual": scalar_json(res), "ok": scalar_is_zero(res)}

    checks = _map_ordered(check, list(enumerate(pairs)), args.threads)
    return _verdict(args, "hirota", shape, checks, extra={"k_cut": k_cut})


def cmd_transport_spectrum(args) -> int:
    shape = _shape(args)
    header, moments, moments_plus, k_cut = _wave_inputs(args, shape)
    spec = transport_spectrum(moments, moments_plus, shape, k_cut)
    _emit({**header, "z0": scalar_json(spec.coefficient(0)), "spectrum": spec.to_json_dict()}, args)
    return 0


def cmd_oracle(args) -> int:
    shape = _shape(args)
    weight = _parse_weight(args)
    if args.which == "partition":
        report = integrate_partition(
            weight, shape, args.method, args.budget, args.seed, args.threads, args.nodes
        )
    else:
        if args.x is None:
            raise UsageError("--x is required for the r1 oracle")
        try:
            x = float(rational(args.x))
        except (ValueError, ZeroDivisionError) as e:
            raise UsageError(f"bad --x {args.x!r}: {e}")
        report = integrate_R1(weight, shape, x, args.method, args.budget, args.seed, args.threads, args.nodes)
    _emit({"which": args.which, "L": shape.L, "M": shape.M, "weight": weight.label(), **report.to_json_dict()}, args)
    return 0


def _verdict(args, name: str, shape: ModelShape, checks: list, extra: dict | None = None) -> int:
    passed = all(c["ok"] for c in checks)
    report = {
        "verify": name,
        "L": shape.L,
        "M": shape.M,
        "seed": getattr(args, "seed", None),
        "checks": checks,
        "passed": passed,
    }
    if extra:
        report.update(extra)
    _emit(report, args)
    return 0 if passed else 1


# -------------------------------------------------------------------- main


SWEEP_THREADS = "accepted for compatibility: exact sweeps run serially, so it has no effect"


def _add_common(p, weight=False, seed=False, trials=None, threads=None):
    p.add_argument("--L", type=int, required=True, help="particle charge (even)")
    p.add_argument("--M", type=int, required=True, help="particle count")
    p.add_argument("--out", help="write JSON here instead of stdout")
    if threads:
        p.add_argument("--threads", type=int, default=1, help=threads)
    if weight:
        p.add_argument("--weight", help="uniform:a,b or gaussian")
        p.add_argument("--moments-file", help="JSON moment-sequence file")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if trials is not None:
        p.add_argument("--trials", type=int, default=trials)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loggas",
        description="Exact engine for charge-L log-gas ensembles (beta = L^2).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition function Z")
    _add_common(p, weight=True)
    p.add_argument("--route", choices=["hyperpfaffian", "structure_poly", "both"], default="both")
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("structure", help="structure-coefficient table")
    _add_common(p)
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("epsilon", help="momentum mode as a multivector")
    _add_common(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=cmd_epsilon)

    p = sub.add_parser("correlate", help="correlation density R_m")
    _add_common(p, weight=True)
    p.add_argument("--points", required=True, help="comma-separated points")
    p.add_argument("--weightless", action="store_true")
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("tau", help="tau function of a background")
    _add_common(p, weight=True)
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("psi", help="Baker-Akhiezer wave pair")
    _add_common(p, weight=True)
    p.add_argument("--weight-plus", help="weight for the t' background (default: same)")
    p.add_argument("--k-cut", type=int, default=None)
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("verify-confluent", help="confluent Vandermonde identity")
    _add_common(p, seed=True, trials=20, threads=SWEEP_THREADS)
    p.set_defaults(fn=cmd_verify_confluent)

    p = sub.add_parser("verify-plucker", help="momentum Plucker residuals")
    _add_common(p, threads=SWEEP_THREADS)
    p.add_argument("--j-max", type=int, default=None, help="highest fold count (default M)")
    p.set_defaults(fn=cmd_verify_plucker)

    p = sub.add_parser("verify-toeplitz", help="Toeplitz-substituted residuals")
    _add_common(p, seed=True, trials=20, threads=SWEEP_THREADS)
    p.set_defaults(fn=cmd_verify_toeplitz)

    p = sub.add_parser("verify-adjunction", help="extraction vs table expansion")
    _add_common(p, seed=True, trials=20, threads=SWEEP_THREADS)
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(fn=cmd_verify_adjunction)

    p = sub.add_parser("verify-hirota", help="bilinear residue [z^0] psi- psi+")
    _add_common(p, seed=True, trials=50, threads=SWEEP_THREADS)
    p.add_argument("--k-cut", type=int, default=None)
    p.set_defaults(fn=cmd_verify_hirota)

    p = sub.add_parser("transport-spectrum", help="full psi- psi+ Laurent spectrum")
    _add_common(p, weight=True)
    p.add_argument("--weight-plus", help="weight for the t' background (default: same)")
    p.add_argument("--k-cut", type=int, default=None)
    p.set_defaults(fn=cmd_transport_spectrum)

    p = sub.add_parser("oracle", help="numeric integration oracles")
    _add_common(p, weight=True, seed=True, threads="worker pool size of the Monte Carlo shards")
    p.add_argument("--which", choices=["partition", "r1"], default="partition")
    p.add_argument(
        "--method",
        choices=["closed_form", "tensor_quadrature", "monte_carlo"],
        default="monte_carlo",
    )
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--x", help="evaluation point for r1")
    p.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    for name, low in (("threads", 1), ("trials", 1), ("budget", 2), ("nodes", 1)):
        value = getattr(args, name, None)  # None: not this command's option, or --nodes unset
        if value is not None and value < low:
            ap.error(f"--{name} must be at least {low}")
    try:
        return args.fn(args)
    except (UsageError, MomentRangeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
