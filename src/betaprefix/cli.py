"""Command-line surface.

Subcommands: ``roots``, ``count``, ``generate``, ``bounds``, ``growth``,
``bernoulli``.  Every subcommand supports ``--format {table,csv,records}``;
tables go to stdout, diagnostics to stderr.  Base and point arguments accept
decimal strings or the symbolic forms ``omega:M`` / ``lambda:M``, which
resolve through the root finder so threshold cases are exact to its
tolerance.  Exit codes: 0 success, 2 argument or validation problems,
3 violated mathematical invariants (reported as a JSON diagnostic record).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from mpmath import mpf, workprec

from . import bernoulli as bl
from . import bounds as bd
from . import generators as gn
from . import prefixes as pf
from . import records as rc
from .errors import (BetaPrefixError, CapExceeded, ContainmentViolation,
                     DepthExceeded, InvalidPoint, MemoryGuard, NoRootFound,
                     NoSteeringWord, OutOfDomain, Unreachable)
from .numeric import (DEFAULT_PRECISION_BITS, BetaContext, PolynomialFamily,
                      lambda_threshold, omega_threshold, polynomial_spec,
                      polynomial_string)

PRECISION_ENV = "BETAPREFIX_PRECISION"
TABLE_M_VALUES = (1, 2, 3, 10, 100)

_VALIDATION_ERRORS = (ValueError, InvalidPoint, CapExceeded, OutOfDomain,
                      DepthExceeded, MemoryGuard)
_INVARIANT_ERRORS = (ContainmentViolation, NoSteeringWord, Unreachable,
                     NoRootFound)


class OracleMismatch(BetaPrefixError):
    """Branching and direct enumeration disagreed."""


def _default_precision() -> int:
    env = os.environ.get(PRECISION_ENV)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{PRECISION_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_PRECISION_BITS


def parse_scalar(text: str, precision_bits: int, abs_tol: float = 1e-9):
    """Decimal string or ``omega:M`` / ``lambda:M`` symbolic form."""
    text = text.strip()
    if ":" in text:
        name, _, mtxt = text.partition(":")
        m = int(mtxt)
        if name == "omega":
            return omega_threshold(m, abs_tol)
        if name == "lambda":
            return lambda_threshold(m, abs_tol)
        raise ValueError(f"unknown symbolic scalar {text!r}")
    with workprec(precision_bits):
        return mpf(text)


def _emit_records(recs):
    sys.stdout.write(rc.to_jsonl(recs))


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ------------------------------------------------------------------- roots

def _table_rows(m_values, abs_tol):
    omega_rows = []
    lambda_rows = []
    for m in m_values:
        polys = [polynomial_spec(f, m) for f in (PolynomialFamily.OMEGA_1,
                                                 PolynomialFamily.OMEGA_2,
                                                 PolynomialFamily.OMEGA_3)]
        omega_rows.append((m, float(omega_threshold(m, abs_tol)),
                           [polynomial_string(p) for p in polys]))
        lam = polynomial_spec(PolynomialFamily.LAMBDA, m)
        lambda_rows.append((m, float(lambda_threshold(m, abs_tol)),
                            polynomial_string(lam)))
    return omega_rows, lambda_rows


def cmd_roots(args) -> int:
    m_values = tuple(args.m) if args.m else TABLE_M_VALUES
    if args.reproduce_tables:
        m_values = TABLE_M_VALUES
    omega_rows, lambda_rows = _table_rows(m_values, args.abs_tol)
    if args.format == "records":
        recs = []
        for (m, val, polys) in omega_rows:
            recs.append({"kind": "root", "sequence": "omega", "m": m,
                         "value": f"{val:.5f}", "polynomials": polys})
        for (m, val, poly) in lambda_rows:
            recs.append({"kind": "root", "sequence": "lambda", "m": m,
                         "value": f"{val:.5f}", "polynomials": [poly]})
        _emit_records(recs)
        return 0
    if args.format == "csv":
        rows = []
        for (m, val, polys) in omega_rows:
            for p in polys:
                rows.append(["omega", m, f"{val:.5f}", p])
        for (m, val, poly) in lambda_rows:
            rows.append(["lambda", m, f"{val:.5f}", poly])
        _emit_csv(["sequence", "m", "value", "polynomial"], rows)
        return 0
    out = io.StringIO()
    out.write("majority-block thresholds (omega)\n")
    out.write(f"{'m':>4}  {'value':>9}  defining polynomials\n")
    for m, val, polys in omega_rows:
        out.write(f"{m:>4}  {val:>9.5f}  {polys[0]}\n")
        for p in polys[1:]:
            out.write(f"{'':>4}  {'':>9}  {p}\n")
    out.write("\nsteered-pair thresholds (lambda)\n")
    out.write(f"{'m':>4}  {'value':>9}  defining polynomial\n")
    for m, val, poly in lambda_rows:
        out.write(f"{m:>4}  {val:>9.5f}  {poly}\n")
    sys.stdout.write(out.getvalue())
    return 0


# ------------------------------------------------------------------- count

def cmd_count(args) -> int:
    ctx = BetaContext(parse_scalar(args.beta, args.precision_bits),
                      args.precision_bits, args.tolerance)
    x = parse_scalar(args.x, args.precision_bits)
    ps = pf.enumerate_prefixes_branching(ctx, x, args.k)
    oracle_ok = None
    oracle_count = None
    if args.oracle:
        direct = pf.enumerate_prefixes_direct(ctx, x, args.k)
        oracle_count = direct.count
        oracle_ok = direct.words == ps.words
        if not oracle_ok:
            missing = set(direct.words) - set(ps.words)
            extra = set(ps.words) - set(direct.words)
            raise OracleMismatch(
                f"branching and direct enumerations disagree at k={args.k}: "
                f"{len(missing)} missing, {len(extra)} extra")
    if args.format == "records":
        recs = rc.prefix_set_records(ps, args.precision_bits)
        recs.append({"kind": "count", "beta": args.beta, "x": args.x,
                     "k": args.k, "count": ps.count,
                     "oracle_count": oracle_count})
        _emit_records(recs)
    elif args.format == "csv":
        _emit_csv(["word", "orbit_value"],
                  [[w, rc.real_repr(ps.orbit_values[w], args.precision_bits)]
                   for w in ps.words])
    else:
        sys.stdout.write(f"count = {ps.count}\n")
        if args.oracle:
            sys.stdout.write(f"oracle count = {oracle_count} (word sets match)\n")
    return 0


# ----------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    ctx = BetaContext(parse_scalar(args.beta, args.precision_bits),
                      args.precision_bits, args.tolerance)
    x = parse_scalar(args.x, args.precision_bits)
    run_fn = gn.run_generator_m if args.mode == gn.MODE_MAJORITY else gn.run_generator_s3
    run = run_fn(ctx, args.m, x, args.blocks)
    if args.format == "records":
        _emit_records(rc.generator_run_records(run, ctx.beta,
                                               args.precision_bits))
    elif args.format == "csv":
        rows = []
        for s, stage in enumerate(run.stages):
            values = [v for _, v in stage]
            rows.append([s, len(stage), len(stage[0][0]),
                         rc.real_repr(min(values), args.precision_bits),
                         rc.real_repr(max(values), args.precision_bits)])
        _emit_csv(["stage", "count", "word_length", "orbit_min", "orbit_max"],
                  rows)
    else:
        sys.stdout.write(
            f"mode={run.mode} m={run.m} entry_steps={run.entry_steps} "
            f"block_length={run.block_length}\n")
        for s, stage in enumerate(run.stages):
            sys.stdout.write(
                f"stage {s}: {len(stage)} words of length {len(stage[0][0])}, "
                f"orbits inside steering interval\n")
    return 0


# ------------------------------------------------------------------- bounds

def cmd_bounds(args) -> int:
    ctx = BetaContext(parse_scalar(args.beta, args.precision_bits),
                      args.precision_bits, args.tolerance)
    report = bd.bound_report(ctx, args.m_max)
    if args.format == "records":
        _emit_records(rc.bound_report_records(report, args.precision_bits))
    elif args.format == "csv":
        rows = [["kappa", "", report.kappa if report.kappa is not None else ""]]
        if report.omega_bound:
            rows.append(["omega_lower", report.omega_bound[0], report.omega_bound[1]])
        if report.lambda_bound:
            rows.append(["lambda_lower", report.lambda_bound[0], report.lambda_bound[1]])
        for m, value, threshold in report.upper_bounds:
            rows.append(["upper_rate", m, value])
        for cand in report.local_dim_upper:
            rows.append([f"local_dim_{cand.source}", cand.m if cand.m else "",
                         cand.value])
        _emit_csv(["bound", "m", "value"], rows)
    else:
        sys.stdout.write(rc.bound_report_table(report, args.precision_bits))
    return 0


# ------------------------------------------------------------------- growth

def cmd_growth(args) -> int:
    ctx = BetaContext(parse_scalar(args.beta, args.precision_bits),
                      args.precision_bits, args.tolerance)
    x = parse_scalar(args.x, args.precision_bits)
    est = pf.growth_estimate(ctx, x, args.k_min, args.k_max)
    report = bd.bound_report(ctx, args.m_max)
    beta_f = float(ctx.beta)
    expected = math.log2(2.0 / beta_f) if beta_f < math.sqrt(2) else None
    if args.format == "records":
        recs = rc.growth_records(est)
        recs.append({"kind": "growth_bounds",
                     "best_lower": report.best_lower,
                     "min_upper": min((v for _, v, _ in report.upper_bounds),
                                      default=None),
                     "expected_typical_slope": expected})
        _emit_records(recs)
    elif args.format == "csv":
        _emit_csv(["k", "log2_count", "slope"],
                  [[k, f"{lc:.10f}", f"{lc / k:.10f}"]
                   for k, lc in zip(est.k_values, est.log2_counts)])
    else:
        for k, lc in zip(est.k_values, est.log2_counts):
            sys.stdout.write(f"k={k:>3}  log2 N_k={lc:>12.6f}  slope={lc / k:.6f}\n")
        sys.stdout.write(f"lower slope = {est.lower_slope:.6f}\n")
        sys.stdout.write(f"upper slope = {est.upper_slope:.6f}\n")
        if report.best_lower is not None:
            sys.stdout.write(f"best lower bound = {report.best_lower:.6f}\n")
        uppers = [v for _, v, _ in report.upper_bounds]
        if uppers:
            sys.stdout.write(f"min upper bound = {min(uppers):.6f}\n")
        if expected is not None:
            sys.stdout.write(
                f"almost-every-base expected slope log2(2/beta) = {expected:.6f}\n")
    return 0


# ---------------------------------------------------------------- bernoulli

def cmd_bernoulli(args) -> int:
    ctx = BetaContext(parse_scalar(args.beta, args.precision_bits),
                      args.precision_bits, args.tolerance)
    x = parse_scalar(args.x, args.precision_bits)
    k_min, sep, k_max = args.radii.partition(":")
    if not sep:
        raise ValueError(f"--radii {args.radii!r}: expected KMIN:KMAX, e.g. 8:14")
    est = bl.local_dimension(ctx, x, int(k_min), int(k_max),
                             method=args.method, depth=args.depth,
                             samples=args.samples, seed=args.seed)
    _, dim_min = bd.local_dim_upper(ctx)
    if args.format == "records":
        recs = [{"kind": "local_dim", "x": float(est.x),
                 "slope_lower": est.slope_lower,
                 "slope_upper": est.slope_upper,
                 "unstable": est.unstable,
                 "bound_min": dim_min}]
        recs += [{"kind": "local_dim_point", "radius": r, "log_measure": lm}
                 for r, lm in zip(est.radii, est.log_measures)]
        _emit_records(recs)
    elif args.format == "csv":
        _emit_csv(["radius", "log_measure"],
                  [[f"{r:.12g}", f"{lm:.10f}"]
                   for r, lm in zip(est.radii, est.log_measures)])
    else:
        for r, lm in zip(est.radii, est.log_measures):
            sys.stdout.write(f"r={r:.10g}  log mu={lm:.6f}\n")
        sys.stdout.write(f"slope range [{est.slope_lower:.6f}, {est.slope_upper:.6f}]"
                         f"{'  (unstable)' if est.unstable else ''}\n")
        if dim_min is not None:
            sys.stdout.write(f"local dim upper bound = {dim_min:.6f}\n")
    return 0


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int,
                        default=_default_precision(),
                        help=f"working mantissa width (default from ${PRECISION_ENV} or "
                             f"{DEFAULT_PRECISION_BITS})")
    common.add_argument("--tolerance", type=str, default=None,
                        help="comparison tolerance for boundary classification")
    common.add_argument("--format", choices=("table", "csv", "records"),
                        default="table")

    parser = argparse.ArgumentParser(
        prog="betaprefix",
        description="Prefix enumeration, generators and growth bounds for "
                    "binary expansions in bases beta in (1,2).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common],
                       help="omega/lambda thresholds with their polynomials")
    p.add_argument("m", nargs="*", type=int, help="indices (default 1 2 3 10 100)")
    p.add_argument("--reproduce-tables", action="store_true",
                   help="emit the published threshold tables layout")
    p.add_argument("--abs-tol", type=float, default=1e-9)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("count", parents=[common], help="count k-prefixes")
    p.add_argument("beta")
    p.add_argument("x")
    p.add_argument("k", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the direct enumeration")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("generate", parents=[common], help="run a generator")
    p.add_argument("beta")
    p.add_argument("x")
    p.add_argument("m", type=int)
    p.add_argument("blocks", type=int)
    p.add_argument("--mode", choices=(gn.MODE_MAJORITY, gn.MODE_STEERED_PAIR),
                   default=gn.MODE_MAJORITY)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("bounds", parents=[common], help="full bound report")
    p.add_argument("beta")
    p.add_argument("--m-max", type=int, default=bd.DEFAULT_M_MAX)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("growth", parents=[common],
                       help="finite-depth growth estimate vs bounds")
    p.add_argument("beta")
    p.add_argument("x")
    p.add_argument("k_max", type=int)
    p.add_argument("--k-min", type=int, default=8)
    p.add_argument("--m-max", type=int, default=bd.DEFAULT_M_MAX)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("bernoulli", parents=[common],
                       help="local dimension estimate vs bounds")
    p.add_argument("beta")
    p.add_argument("x")
    p.add_argument("--radii", default="8:18", metavar="KMIN:KMAX",
                   help="radius exponents, radii are beta^-k")
    p.add_argument("--method", choices=(bl.METHOD_RECURSION,
                                        bl.METHOD_MONTE_CARLO),
                   default=bl.METHOD_MONTE_CARLO)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--samples", type=int, default=1 << 21)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bernoulli)
    return parser


def _diagnostic(exc: Exception) -> str:
    return json.dumps({"kind": "diagnostic", "error": type(exc).__name__,
                       "message": str(exc)}, sort_keys=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OracleMismatch as exc:
        sys.stderr.write(_diagnostic(exc) + "\n")
        return 3
    except _INVARIANT_ERRORS as exc:
        sys.stderr.write(_diagnostic(exc) + "\n")
        return 3
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(_diagnostic(exc) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
