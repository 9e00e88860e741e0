"""Command-line front end.

Four batch subcommands: ``analyze`` a state file, ``sample`` an ensemble into
a CSV of per-state measures, ``param`` to generate a state from orbit
parameters, and ``verify`` to run the property suite.  Everything is
deterministic given the flags and seed, and numbers are printed at full
double precision so outputs diff cleanly across runs.  ``qrobust --help``
lists the exit codes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import coset, oracle, states, tolerances, verify
from .numerics import NonHermitianInput, NonSymmetricInput, NumericalFailure
from .robustness import RankDeficient, _min_pair, robustness_stack

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_VALIDATION = 2
EXIT_IO = 4

_SAMPLE_CHUNK = 256   # rows computed together by ``sample``; bounds the stacked arrays at large --n

_EPILOG = """\
sample CSV columns:
  seed_index, concurrence, K1, K2, K3, K4, min_pair_sum, s_formula, s_bisection
  [+ k_agreement for --ensemble coset: max |closed-form K - direct Gram K|]
  [+ s_best, gap for --oracle: crossing along the SDP direction and s_formula - s_best]
  min_pair_sum is K_i + K_j of the pair the tie rule picks, within 1e-12 relative of
  the smallest.  Rows hold repr'd doubles (17 significant digits); rank-deficient
  states produce nan in min_pair_sum and the closed-form columns.

exit codes:
  0  success
  1  property failure: a verify group, a residual inside a state's
     decomposition above its bound, a state generated by sample or a
     mixture along a certificate's direction that fails its own validation,
     or a PPT crossing along a certificate's direction that fails (one
     error: line)
  2  input validation: a malformed or invalid state file or flag
  4  I/O

environment:
  QROBUST_TOL   finite nonnegative factor rescaling every check bound in
                the tolerance record (default 1.0; 0 makes every check exact).
                It changes verdicts, not values: every sample column is the
                same at any factor at which the run passes.  It does not
                move the algorithm constants:
                  numerics.TAKAGI_CLUSTER 1e-6  Takagi cluster gap
                  wootters.RANK_CUT       1e-13 rank cut, relative to rho's largest eigenvalue
                  wootters.TIE            1e-12 ties of lambdas, K_i, pair sums
                  oracle.CROSSING_WIDTH   1e-10 crossing bracket width
                  oracle.PPT_CUT          1e-11 PPT cut of each located crossing
                  oracle.SDP_GAP          1e-9  SDP stop width, relative to 1 + s_upper
                Library constructors that take no record (BellWeights,
                werner) check at the default bounds.
"""


def _emit_json(payload: dict, path) -> int:
    """Print the report, or write it to ``path``; the exit code: ``EXIT_IO``,
    after one error: line, when the file cannot be written."""
    text = json.dumps(payload, indent=1)
    if path is None:
        print(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _fmt(value) -> str:
    return repr(float(value))


def _analysis_report(rho: states.DensityMatrix, *, run_oracle: bool, tol: tolerances.Tolerances) -> dict:
    """A rank-deficient state's oracle estimate, or a full-rank state's certificate read from
    one ``verify.certificate_checks`` run, with the SDP and the audit under ``run_oracle``."""
    certs = robustness_stack(rho.matrix[None], tol)
    error = certs.errors[0]
    if isinstance(error, RankDeficient):
        _, (result,), (failure,) = oracle.oracle_pass(rho.matrix[None], certs, with_sdp=True)
        if failure is not None:
            raise failure
        return {"decomposition": error.decomposition.to_report(), "method": "oracle_estimate",
                "oracle": {**result.to_report(), "note": str(error)}}
    cert = certs.entry(0)   # raises any other error
    run = verify.certificate_checks(rho.matrix[None], certs, tol, with_sdp=run_oracle)
    res = {name: float(values[0]) for name, (values, _) in run[0].items()}
    residuals = {"pseudomixture": res["pseudomixture"], "plane": res["plane"],
                 "ppt_min_eig_rho_p": -res["rho_p_separable"], "ppt_min_eig_rho_pp": -res["rho_pp_separable"]}
    report = {"decomposition": cert.decomposition.to_report(), "method": "closed_form",
              "certificate": {**cert.to_report(), "residuals": residuals}}
    if run_oracle:   # the audit raises the run's first error; the plain report does not read them
        report["verification"] = verify._audit_report(cert.s, run, tol)
    return report


def cmd_analyze(args, tol) -> int:
    try:
        rho = states.read_state(args.in_path, tol)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (states.ParseError, states.ValidationError) as exc:
        print(f"error: {args.in_path}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = {"input": args.in_path, **_analysis_report(rho, run_oracle=args.oracle, tol=tol)}
    return _emit_json(report, args.out)


def _sample_rows(args, tol):
    header = ["seed_index", "concurrence", "K1", "K2", "K3", "K4",
              "min_pair_sum", "s_formula", "s_bisection"]
    if args.ensemble == "coset":
        header.append("k_agreement")
    if args.oracle:
        header += ["s_best", "gap"]
    yield header
    for start in range(0, args.n, _SAMPLE_CHUNK):
        yield from _sample_chunk(args, tol, range(start, min(start + _SAMPLE_CHUNK, args.n)))


def _sample_chunk(args, tol, indices):
    """Rows for ``indices``: the states drawn as one stack, each from its own
    seed, then one stacked certificate and one ``oracle.oracle_pass``, with
    the SDP under ``--oracle``, for the whole chunk.  Rows before an entry
    that fails are still yielded; the pass's error of that entry is raised
    then (a rank-deficient entry has none and writes its nan row)."""
    drawn = states.sample_stack(args.ensemble, [args.seed + i for i in indices], tol)
    matrices = drawn.matrices
    certs = robustness_stack(matrices, tol)
    decomp = certs.decomposition
    s_bisection, found, errors = oracle.oracle_pass(matrices, certs, with_sdp=args.oracle)
    min_pair = _min_pair(decomp.k_norm)[1]   # nan where a pair holds an undefined K_i
    for j, i in enumerate(indices[:len(matrices)]):
        if errors[j] is not None:
            raise errors[j]
        k = decomp.k_norm[j]
        row = [str(i), _fmt(decomp.concurrence[j]), _fmt(k[0]), _fmt(k[1]), _fmt(k[2]), _fmt(k[3]),
               _fmt(min_pair[j]), _fmt(certs.s[j]), _fmt(s_bisection[j])]
        if drawn.k_agreement is not None:
            row.append(_fmt(drawn.k_agreement[j]))
        if args.oracle:
            row += [_fmt(found[j].s_best), _fmt(found[j].gap_to_formula)]
        yield row
    if drawn.error is not None:
        raise states.ValidationError(f"seed {args.seed + indices[len(matrices)]}: "
                                     f"generated state failed validation: {drawn.error}")


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
    report = {"params": params.to_dict(), "state_file": args.out,
              **_analysis_report(rho, run_oracle=args.oracle, tol=tol)}
    return _emit_json(report, args.out + ".analysis.json")


def cmd_verify(args, tol) -> int:
    results = verify.run_all(corpus=args.corpus, seed=args.seed, tolerances=tol)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} property groups passed")
    return EXIT_PROPERTY if failed else EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged.  It
    names each command and holds no function: ``main`` looks the command up
    when it runs it."""
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
    p.add_argument("--oracle", action="store_true", help="add bisection and SDP verification")
    p.add_argument("--out", default=None, help="report path (default: stdout)")

    p = sub.add_parser("sample", help="sample an ensemble and emit per-state measures as CSV")
    p.add_argument("--ensemble", required=True,
                   choices=states._ENSEMBLES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true", help="add the absolute-robustness columns")
    p.add_argument("--out", required=True)

    p = sub.add_parser("param", help="generate a state from six angles and four weights")
    for name in ("theta1", "theta2", "xi1", "xi2", "phi1", "phi2"):
        p.add_argument(f"--{name}", type=float, required=True)
    p.add_argument("--lambda", dest="lambdas", required=True, metavar="F,F,F,F",
                   help="four comma-separated weights, descending")
    p.add_argument("--out", required=True, help="state file to write")
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("verify", help="run the full property suite")
    p.add_argument("--corpus", type=int, default=200, help="states per corpus group")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        tol = tolerances.from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for flag, least in (("n", 1), ("corpus", 1), ("seed", 0)):
        if getattr(args, flag, least) < least:
            print(f"error: --{flag} must be at least {least}", file=sys.stderr)
            return EXIT_VALIDATION
    commands = {"analyze": cmd_analyze, "sample": cmd_sample, "param": cmd_param, "verify": cmd_verify}
    try:
        return commands[args.command](args, tol)
    except (NumericalFailure, NonHermitianInput, NonSymmetricInput, states.ValidationError,
            oracle.NotSeparableDirection, oracle.ImproperDirection) as exc:
        # a residual inside the decomposition of an already validated state,
        # a check of a state the program generated (input states are checked
        # before), or the PPT crossing along a certificate's direction failed
        # its bound; the message names it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
