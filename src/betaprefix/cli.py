"""Command-line surface.

Subcommands: ``roots``, ``count``, ``generate``, ``bounds``, ``growth``,
``bernoulli``.  Every subcommand supports ``--format {table,csv,records}``:
its ``cmd_*`` function builds the list of records once, and ``main`` writes
that list as JSON lines or hands it to the subcommand's csv or table
renderer, which reads nothing else.  Output goes to stdout, diagnostics to
stderr.  Base and point arguments accept decimal strings or the symbolic
forms ``omega:M`` / ``lambda:M``, which resolve to the lower end of the
root finder's bracket, ``DEFAULT_ROOT_TOL`` wide.  Exit codes: 0 success, 2
argument or validation problems (``errors.InputError`` or ``ValueError``),
3 violated mathematical invariants (``errors.InvariantError``); either
failure is reported on stderr as a JSON diagnostic record.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from mpmath import mpf, workprec

from . import bernoulli as bl
from . import bounds as bd
from . import generators as gn
from . import prefixes as pf
from . import records as rc
from .errors import InputError, InvariantError, OracleMismatch
from .numeric import (DEFAULT_PRECISION_BITS, DEFAULT_ROOT_TOL, BetaContext,
                      PolynomialFamily, lambda_threshold, omega_threshold,
                      polynomial_spec, polynomial_string)

TABLE_M_VALUES = (1, 2, 3, 10, 100)


def parse_scalar(text: str, precision_bits: int):
    """Decimal string or ``omega:M`` / ``lambda:M`` symbolic form."""
    text = text.strip()
    if ":" in text:
        name, _, mtxt = text.partition(":")
        m = int(mtxt)
        if name == "omega":
            return omega_threshold(m)
        if name == "lambda":
            return lambda_threshold(m)
        raise ValueError(f"unknown symbolic scalar {text!r}")
    with workprec(precision_bits):
        return mpf(text)


def _context(args) -> BetaContext:
    """The base context of a subcommand's ``beta`` argument."""
    return BetaContext(parse_scalar(args.beta, args.precision_bits),
                       args.precision_bits, args.tolerance)


# ------------------------------------------------------------------- roots

def cmd_roots(args) -> list:
    m_values = TABLE_M_VALUES if args.reproduce_tables or not args.m else args.m
    omega_recs, lambda_recs = [], []
    for m in m_values:
        polys = [polynomial_string(polynomial_spec(f, m))
                 for f in (PolynomialFamily.OMEGA_1, PolynomialFamily.OMEGA_2,
                           PolynomialFamily.OMEGA_3)]
        omega_recs.append({"kind": "root", "sequence": "omega", "m": m,
                           "value": f"{float(omega_threshold(m, args.abs_tol)):.5f}",
                           "polynomials": polys})
        lam = polynomial_string(polynomial_spec(PolynomialFamily.LAMBDA, m))
        lambda_recs.append({"kind": "root", "sequence": "lambda", "m": m,
                            "value": f"{float(lambda_threshold(m, args.abs_tol)):.5f}",
                            "polynomials": [lam]})
    return omega_recs + lambda_recs


def roots_csv(recs) -> list:
    return [["sequence", "m", "value", "polynomial"]] + [
        [r["sequence"], r["m"], r["value"], p] for r in recs for p in r["polynomials"]]


def roots_table(recs) -> str:
    out = ["majority-block thresholds (omega)\n",
           f"{'m':>4}  {'value':>9}  defining polynomials\n"]
    for r in recs:
        if r["sequence"] == "omega":
            first, *rest = r["polynomials"]
            out.append(f"{r['m']:>4}  {r['value']:>9}  {first}\n")
            out += [f"{'':>4}  {'':>9}  {p}\n" for p in rest]
    out += ["\nsteered-pair thresholds (lambda)\n",
            f"{'m':>4}  {'value':>9}  defining polynomial\n"]
    out += [f"{r['m']:>4}  {r['value']:>9}  {r['polynomials'][0]}\n"
            for r in recs if r["sequence"] == "lambda"]
    return "".join(out)


# ------------------------------------------------------------------- count

def cmd_count(args) -> list:
    ctx = _context(args)
    x = parse_scalar(args.x, args.precision_bits)
    ps = pf.enumerate_prefixes_branching(ctx, x, args.k)
    oracle_count = None
    if args.oracle:
        direct = pf.enumerate_prefixes_direct(ctx, x, args.k)
        oracle_count = direct.count
        if direct.words != ps.words:
            missing = set(direct.words) - set(ps.words)
            extra = set(ps.words) - set(direct.words)
            raise OracleMismatch(
                f"branching and direct enumerations disagree at k={args.k}: "
                f"{len(missing)} missing, {len(extra)} extra")
    # the table prints only the count; skip the per-word records for it
    recs = ([] if args.format == "table"
            else rc.prefix_set_records(ps, args.precision_bits))
    recs.append({"kind": "count", "beta": args.beta, "x": args.x,
                 "k": args.k, "count": ps.count, "oracle_count": oracle_count})
    return recs


def count_csv(recs) -> list:
    return [["word", "orbit_value"]] + [
        [r["word"], r["orbit_value"]] for r in recs if r["kind"] == "prefix"]


def count_table(recs) -> str:
    summary = recs[-1]
    out = f"count = {summary['count']}\n"
    if summary["oracle_count"] is not None:
        out += f"oracle count = {summary['oracle_count']} (word sets match)\n"
    return out


# ----------------------------------------------------------------- generate

def cmd_generate(args) -> list:
    ctx = _context(args)
    x = parse_scalar(args.x, args.precision_bits)
    run_fn = gn.run_generator_m if args.mode == gn.MODE_MAJORITY else gn.run_generator_s3
    run = run_fn(ctx, args.m, x, args.blocks)
    return rc.generator_run_records(run, ctx.beta, args.precision_bits,
                                    include_words=args.format == "records")


def generate_csv(recs) -> list:
    return [["stage", "count", "word_length", "orbit_min", "orbit_max"]] + [
        [r["index"], r["count"], r["word_length"], r["orbit_min"], r["orbit_max"]]
        for r in recs if r["kind"] == "stage"]


def generate_table(recs) -> str:
    run = recs[0]
    out = [f"mode={run['mode']} m={run['m']} entry_steps={run['entry_steps']} "
           f"block_length={run['block_length']}\n"]
    out += [f"stage {r['index']}: {r['count']} words of length {r['word_length']}, "
            f"orbits inside steering interval\n"
            for r in recs if r["kind"] == "stage"]
    return "".join(out)


# ------------------------------------------------------------------- bounds

def cmd_bounds(args) -> list:
    return rc.bound_report_records(bd.bound_report(_context(args), args.m_max),
                                   args.precision_bits)


def bounds_csv(recs) -> list:
    head = recs[0]  # csv writes None as an empty field
    rows = [["bound", "m", "value"], ["kappa", "", head["kappa"]]]
    for name in ("omega", "lambda"):
        if head[f"{name}_bound_m"] is not None:
            rows.append([f"{name}_lower", head[f"{name}_bound_m"],
                         head[f"{name}_bound"]])
    rows += [["upper_rate", r["m"], r["value"]]
             for r in recs if r["kind"] == "upper_bound"]
    rows += [[f"local_dim_{r['source']}", r["m"], r["value"]]
             for r in recs if r["kind"] == "local_dim_bound"]
    return rows


def bounds_table(recs) -> str:
    head = recs[0]
    lines = [f"beta = {head['beta']}"]
    if head["kappa"] is not None:
        lines.append(f"kappa lower bound          {head['kappa']:.6f}")
    if head["omega_bound_m"] is not None:
        lines.append(f"majority-generator bound   {head['omega_bound']:.6f}  "
                     f"(m={head['omega_bound_m']})")
    if head["lambda_bound_m"] is not None:
        lines.append(f"pair-generator bound       {head['lambda_bound']:.6f}  "
                     f"(m={head['lambda_bound_m']})")
    if head["best_lower"] is not None:
        lines.append(f"best lower bound           {head['best_lower']:.6f}")
    else:
        lines.append("best lower bound           (none applicable)")
    for r in recs:
        if r["kind"] == "upper_bound":
            lines.append(f"upper rate bound           {r['value']:.6f}  "
                         f"(m={r['m']}, valid for beta > {r['threshold']:.6f})")
        elif r["kind"] == "local_dim_bound":
            mtxt = f", m={r['m']}" if r["m"] is not None else ""
            lines.append(f"local dim upper bound      {r['value']:.6f}  "
                         f"({r['source']}{mtxt})")
    if head["local_dim_min"] is not None:
        lines.append(f"local dim best upper       {head['local_dim_min']:.6f}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- growth

def cmd_growth(args) -> list:
    ctx = _context(args)
    x = parse_scalar(args.x, args.precision_bits)
    est = pf.growth_estimate(ctx, x, args.k_min, args.k_max)
    report = bd.bound_report(ctx, args.m_max)
    beta_f = float(ctx.beta)
    expected = math.log2(2.0 / beta_f) if beta_f < math.sqrt(2) else None
    recs = rc.growth_records(est)
    recs.append({"kind": "growth_bounds",
                 "best_lower": report.best_lower,
                 "min_upper": min((v for _, v, _ in report.upper_bounds),
                                  default=None),
                 "expected_typical_slope": expected})
    return recs


def growth_csv(recs) -> list:
    return [["k", "log2_count", "slope"]] + [
        [r["k"], f"{r['log2_count']:.10f}", f"{r['slope']:.10f}"]
        for r in recs if r["kind"] == "growth_point"]


def growth_table(recs) -> str:
    *points, summary, bounds = recs
    out = [f"k={r['k']:>3}  log2 N_k={r['log2_count']:>12.6f}  slope={r['slope']:.6f}\n"
           for r in points]
    out.append(f"lower slope = {summary['lower_slope']:.6f}\n")
    out.append(f"upper slope = {summary['upper_slope']:.6f}\n")
    if bounds["best_lower"] is not None:
        out.append(f"best lower bound = {bounds['best_lower']:.6f}\n")
    if bounds["min_upper"] is not None:
        out.append(f"min upper bound = {bounds['min_upper']:.6f}\n")
    if bounds["expected_typical_slope"] is not None:
        out.append("almost-every-base expected slope log2(2/beta) = "
                   f"{bounds['expected_typical_slope']:.6f}\n")
    return "".join(out)


# ---------------------------------------------------------------- bernoulli

def cmd_bernoulli(args) -> list:
    ctx = _context(args)
    x = parse_scalar(args.x, args.precision_bits)
    k_min, sep, k_max = args.radii.partition(":")
    if not sep:
        raise ValueError(f"--radii {args.radii!r}: expected KMIN:KMAX, e.g. 8:14")
    est = bl.local_dimension(ctx, x, int(k_min), int(k_max),
                             method=args.method, depth=args.depth,
                             samples=args.samples, seed=args.seed)
    _, dim_min = bd.local_dim_upper(ctx)
    recs = [{"kind": "local_dim", "x": float(est.x),
             "method": est.method, "depth": est.depth,
             "slope_lower": est.slope_lower,
             "slope_upper": est.slope_upper,
             "unstable": est.unstable,
             "bound_min": dim_min}]
    recs += [{"kind": "local_dim_point", "radius": r, "log_measure": lm}
             for r, lm in zip(est.radii, est.log_measures)]
    return recs


def bernoulli_csv(recs) -> list:
    return [["radius", "log_measure"]] + [
        [f"{r['radius']:.12g}", f"{r['log_measure']:.10f}"] for r in recs[1:]]


def bernoulli_table(recs) -> str:
    head, *points = recs
    out = [f"r={r['radius']:.10g}  log mu={r['log_measure']:.6f}\n" for r in points]
    out.append(f"slope range [{head['slope_lower']:.6f}, {head['slope_upper']:.6f}]"
               f"{'  (unstable)' if head['unstable'] else ''}\n")
    if head["bound_min"] is not None:
        out.append(f"local dim upper bound = {head['bound_min']:.6f}\n")
    return "".join(out)


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int,
                        default=DEFAULT_PRECISION_BITS,
                        help=f"working mantissa width (default {DEFAULT_PRECISION_BITS})")
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
    p.add_argument("--abs-tol", type=float, default=DEFAULT_ROOT_TOL)
    p.set_defaults(fn=cmd_roots, csv=roots_csv, table=roots_table)

    p = sub.add_parser("count", parents=[common], help="count k-prefixes")
    p.add_argument("beta")
    p.add_argument("x")
    p.add_argument("k", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the direct enumeration")
    p.set_defaults(fn=cmd_count, csv=count_csv, table=count_table)

    p = sub.add_parser("generate", parents=[common], help="run a generator")
    p.add_argument("beta")
    p.add_argument("x")
    p.add_argument("m", type=int)
    p.add_argument("blocks", type=int)
    p.add_argument("--mode", choices=(gn.MODE_MAJORITY, gn.MODE_STEERED_PAIR),
                   default=gn.MODE_MAJORITY)
    p.set_defaults(fn=cmd_generate, csv=generate_csv, table=generate_table)

    p = sub.add_parser("bounds", parents=[common], help="full bound report")
    p.add_argument("beta")
    p.add_argument("--m-max", type=int, default=bd.DEFAULT_M_MAX)
    p.set_defaults(fn=cmd_bounds, csv=bounds_csv, table=bounds_table)

    p = sub.add_parser("growth", parents=[common],
                       help="finite-depth growth estimate vs bounds")
    p.add_argument("beta")
    p.add_argument("x")
    p.add_argument("k_max", type=int)
    p.add_argument("--k-min", type=int, default=8)
    p.add_argument("--m-max", type=int, default=bd.DEFAULT_M_MAX)
    p.set_defaults(fn=cmd_growth, csv=growth_csv, table=growth_table)

    p = sub.add_parser("bernoulli", parents=[common],
                       help="local dimension estimate vs bounds")
    p.add_argument("beta")
    p.add_argument("x")
    p.add_argument("--radii", default="8:18", metavar="KMIN:KMAX",
                   help="radius exponents, radii are beta^-k")
    p.add_argument("--method", choices=(bl.METHOD_RECURSION,
                                        bl.METHOD_MONTE_CARLO),
                   default=bl.METHOD_RECURSION,
                   help="exact cylinder count (recursion, the default) or "
                        "seeded sampling (monte-carlo)")
    p.add_argument("--depth", type=int, default=None,
                   help="digit depth, either method (default KMAX+14 for "
                        "recursion, KMAX+22 for monte-carlo, at most 48)")
    p.add_argument("--samples", type=int, default=1 << 21,
                   help="monte-carlo only: digit sums drawn (default 2^21)")
    p.add_argument("--seed", type=int, default=0,
                   help="monte-carlo only: random seed")
    p.set_defaults(fn=cmd_bernoulli, csv=bernoulli_csv, table=bernoulli_table)
    return parser


def _diagnostic(exc: Exception) -> str:
    return json.dumps({"kind": "diagnostic", "error": type(exc).__name__,
                       "message": str(exc)}, sort_keys=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        recs = args.fn(args)
        if args.format == "records":
            sys.stdout.write(rc.to_jsonl(recs))
        elif args.format == "csv":
            csv.writer(sys.stdout, lineterminator="\n").writerows(args.csv(recs))
        else:
            sys.stdout.write(args.table(recs))
    except InvariantError as exc:
        sys.stderr.write(_diagnostic(exc) + "\n")
        return 3
    except (InputError, ValueError) as exc:
        sys.stderr.write(_diagnostic(exc) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
