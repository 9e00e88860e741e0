"""Command-line front end.

Four batch subcommands: ``analyze`` a state file, ``sample`` an ensemble into
a CSV of per-state measures, ``param`` to generate a state from orbit
parameters, and ``verify`` to run the property suite.  Everything is
deterministic given the flags and seed, and numbers are printed at full
double precision so outputs diff cleanly across runs.

Exit codes: 0 success, 1 property failure (including a residual inside a
state's decomposition above its bound), 2 input validation, 3 unsupported
input (rank deficient with --no-fallback), 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import coset, oracle, states, tolerances, verify
from .numerics import NonHermitianInput, NonSymmetricInput, NumericalFailure
from .robustness import RankDeficient, robustness

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_IO = 4

_FALLBACK_BUDGET = 20

_EPILOG = """\
sample CSV columns:
  seed_index, concurrence, K1, K2, K3, K4, min_pair_sum, s_formula, s_bisection
  [+ k_agreement for --ensemble coset: max |closed-form K - direct Gram K|]
  [+ s_best, gap for --oracle: best direction found and s_formula - s_best]
  Rows hold repr'd doubles (17 significant digits); rank-deficient states
  produce nan in the closed-form columns.

environment:
  QROBUST_TOL   positive factor rescaling every tolerance in the master
                record (default 1.0; 0 makes every check exact).
"""


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _emit_json(payload: dict, path) -> None:
    text = json.dumps(_jsonify(payload), indent=1)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _fmt(value) -> str:
    return repr(float(value))


def _analysis_report(rho: states.DensityMatrix, *, run_oracle: bool, no_fallback: bool,
                     seed: int, tol: tolerances.Tolerances) -> tuple[dict, int]:
    try:
        cert = robustness(rho, tol)
    except RankDeficient as exc:
        report = {"decomposition": exc.decomposition.to_report()}
        if no_fallback:
            print(f"error: {exc}", file=sys.stderr)
            return report, EXIT_UNSUPPORTED
        result = oracle.minimize_absolute_robustness(rho, _FALLBACK_BUDGET, seed, tolerances=tol)
        report["method"] = "oracle_estimate"
        report["oracle"] = {
            "s_best": result.s_best,
            "s_direction": result.s_direction,
            "evaluations": result.evaluations,
            "note": str(exc),
        }
        return report, EXIT_OK
    report = {"decomposition": cert.decomposition.to_report(), "method": "closed_form",
              "certificate": cert.to_report()}
    if run_oracle:
        report["verification"] = oracle.verify_certificate(
            rho, cert, oracle_budget=_FALLBACK_BUDGET, seed=seed, tolerances=tol)
    return report, EXIT_OK


def cmd_analyze(args, tol) -> int:
    try:
        rho = states.read_state(args.in_path, tol)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (states.ParseError, states.ValidationError) as exc:
        print(f"error: {args.in_path}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report, code = _analysis_report(rho, run_oracle=args.oracle, no_fallback=args.no_fallback,
                                    seed=args.seed, tol=tol)
    if code != EXIT_OK:
        return code
    report = {"input": args.in_path, **report}
    _emit_json(report, args.out)
    return EXIT_OK


def _sample_rows(args, tol):
    ensemble = args.ensemble
    header = ["seed_index", "concurrence", "K1", "K2", "K3", "K4",
              "min_pair_sum", "s_formula", "s_bisection"]
    if ensemble == "coset":
        header.append("k_agreement")
    if args.oracle:
        header += ["s_best", "gap"]
    yield header

    for i in range(args.n):
        seed = args.seed + i
        k_agreement = None
        if ensemble == "coset":
            params = coset.sample_params(np.random.default_rng(seed))
            rho = coset.density_from_params(params, tol)
            direct = np.sum(np.abs(coset.build_X(params)) ** 2, axis=0)
            k_agreement = float(np.max(np.abs(coset.k_closed_form(params) - direct)))
        else:
            rho = states.sample_state(ensemble, seed, tol)
        try:
            cert = robustness(rho, tol)
            decomp, s_formula = cert.decomposition, cert.s
            s_bisection = oracle.bisect_relative_robustness(rho, cert.rho_pp, tolerances=tol)
        except RankDeficient as exc:
            decomp, s_formula, s_bisection = exc.decomposition, math.nan, math.nan
        k = decomp.k_norm
        min_pair = float(min(k[1] + k[2], k[1] + k[3], k[2] + k[3]))
        row = [str(i), _fmt(decomp.concurrence), _fmt(k[0]), _fmt(k[1]), _fmt(k[2]), _fmt(k[3]),
               _fmt(min_pair), _fmt(s_formula), _fmt(s_bisection)]
        if ensemble == "coset":
            row.append(_fmt(k_agreement))
        if args.oracle:
            result = oracle.minimize_absolute_robustness(rho, _FALLBACK_BUDGET, seed, tolerances=tol)
            row += [_fmt(result.s_best), _fmt(result.gap_to_formula)]
        yield row


def cmd_sample(args, tol) -> int:
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            for row in _sample_rows(args, tol):
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_param(args, tol) -> int:
    try:
        lam = [float(x) for x in args.lambdas.split(",")]
        if len(lam) != 4:
            raise ValueError
    except ValueError:
        print(f"error: --lambda needs four comma-separated numbers, got {args.lambdas!r}",
              file=sys.stderr)
        return EXIT_VALIDATION
    try:
        params = coset.CosetParams(
            theta1=args.theta1, theta2=args.theta2, xi1=args.xi1, xi2=args.xi2,
            phi1=args.phi1, phi2=args.phi2, lam=np.array(lam),
        )
        rho = coset.density_from_params(params, tol)
    except (ValueError, coset.DegenerateInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        states.write_state(rho, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    y = coset.build_Y(params)
    x = coset.build_X(params)
    res_y = float(np.max(np.abs(y.T @ y - np.eye(4))))
    res_x = float(np.max(np.abs(x.T @ states.SIGMA_YY @ x - np.eye(4))))
    print(f"Y orthogonality residual: {res_y!r}")
    print(f"X identity residual: {res_x!r}")
    report, code = _analysis_report(rho, run_oracle=args.oracle, no_fallback=False,
                                    seed=args.seed, tol=tol)
    if code != EXIT_OK:
        return code
    report = {"params": params.to_dict(), "state_file": args.out, **report}
    _emit_json(report, args.out + ".analysis.json")
    return EXIT_OK


def cmd_verify(args, tol) -> int:
    results = verify.run_all(corpus=args.corpus, seed=args.seed, tolerances=tol)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} property groups passed")
    return EXIT_PROPERTY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrobust",
        description="Entanglement measures of two-qubit states: decomposition, "
                    "concurrence, robustness certificates, and a PPT oracle.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one state file")
    p.add_argument("--in", dest="in_path", required=True, help="input state JSON")
    p.add_argument("--oracle", action="store_true", help="add bisection/search verification")
    p.add_argument("--no-fallback", action="store_true",
                   help="fail (exit 3) on rank-deficient states instead of using the oracle")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sample", help="sample an ensemble and emit per-state measures as CSV")
    p.add_argument("--ensemble", required=True,
                   choices=["ginibre", "bures", "bell_diagonal", "coset"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true", help="add the absolute-robustness search columns")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("param", help="generate a state from six angles and four weights")
    for name in ("theta1", "theta2", "xi1", "xi2", "phi1", "phi2"):
        p.add_argument(f"--{name}", type=float, required=True)
    p.add_argument("--lambda", dest="lambdas", required=True, metavar="F,F,F,F",
                   help="four comma-separated weights, descending")
    p.add_argument("--out", required=True, help="state file to write")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("verify", help="run the full property suite")
    p.add_argument("--corpus", type=int, default=200, help="states per corpus group")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = tolerances.from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if getattr(args, "n", 1) < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args, tol)
    except (NumericalFailure, NonHermitianInput, NonSymmetricInput) as exc:
        # a residual inside the decomposition of an already validated state
        # exceeded its bound; the message names both
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
