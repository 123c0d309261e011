"""CLI behaviour: subcommands, formats, symbolic scalars and exit codes."""

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

import betaprefix.cli as cli
import betaprefix.prefixes as pf
from betaprefix import PrefixSet
from betaprefix.records import parse_prefix_set_records


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRoots:
    def test_reproduce_tables_values(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--reproduce-tables")
        assert code == 0
        assert "majority-block thresholds" in out
        assert "steered-pair thresholds" in out
        # spot values computed from the defining polynomials
        assert "1.07445" in out and "1.02838" in out and "1.01492" in out
        assert "1.32472" in out and "1.61575" in out
        assert "x^7-x^4-x^3-x^2+x+1" in out
        assert "x^13-x^12-x^11+1" in out

    def test_byte_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "roots", "--reproduce-tables")
        _, out2, _ = run_cli(capsys, "roots", "--reproduce-tables")
        assert out1 == out2

    # SHA-256 of the table and records output, frozen from the linear root
    # scan that the certified search replaced: no printed digit may drift.
    @pytest.mark.parametrize("fmt, digest", [
        ("table", "739efeefd5ce39fade7155b0f05dc0549e3c965a715c3111c8fb18534864349a"),
        ("records", "3a6f3ac8832253477e249f538fdcc30b67f34e4b03854c096677981dd7166ce2"),
    ])
    def test_reproduce_tables_are_pinned(self, capsys, fmt, digest):
        code, out, _ = run_cli(capsys, "roots", "--reproduce-tables", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_rejects_bad_abs_tol(self, capsys, tol):
        code, out, err = run_cli(capsys, "roots", "1", "--abs-tol", tol)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_root_below_the_scan_grid(self, capsys):
        # the omega_1 root for m = 15000 lies in (1, 1 + 1e-9), left of the
        # first grid point
        code, out, err = run_cli(capsys, "roots", "15000", "--format", "records")
        assert code == 0 and err == ""
        omega = json.loads(out.splitlines()[0])
        assert (omega["sequence"], omega["value"]) == ("omega", "1.00000")

    def test_records_format(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "1", "2", "--format", "records")
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        omegas = [r for r in recs if r["sequence"] == "omega"]
        assert [r["m"] for r in omegas] == [1, 2]
        assert omegas[0]["value"] == "1.07445"
        assert len(omegas[0]["polynomials"]) == 3

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sequence,m,value,polynomial"
        assert len(lines) == 5  # three omega families + one lambda row

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "betaprefix", "roots", "1"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "1.07445" in proc.stdout


class TestCount:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "1.5", "1", "10", "--oracle")
        assert code == 0
        assert "count = 28" in out
        assert "word sets match" in out

    def test_records_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "count", "1.5", "1", "8",
                               "--format", "records")
        assert code == 0
        lines = out.splitlines()
        summary = json.loads(lines[-1])
        assert summary["kind"] == "count"
        ps = parse_prefix_set_records(lines[:-1], 128)
        assert isinstance(ps, PrefixSet)
        assert ps.count == summary["count"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "count", "1.5", "1", "6",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "word,orbit_value"

    def test_symbolic_beta(self, capsys):
        code, out, _ = run_cli(capsys, "count", "omega:1", "0.5", "8", "--oracle")
        assert code == 0
        assert "count = " in out

    def test_oracle_mismatch_exits_3(self, capsys, monkeypatch):
        real = pf.enumerate_prefixes_direct

        def corrupted(ctx, x, k, k_cap=24):
            ps = real(ctx, x, k, k_cap)
            return PrefixSet(k=ps.k, words=ps.words[:-1],
                             orbit_values=ps.orbit_values)

        monkeypatch.setattr(cli.pf, "enumerate_prefixes_direct", corrupted)
        code, _, err = run_cli(capsys, "count", "1.5", "1", "10", "--oracle")
        assert code == 3
        diag = json.loads(err)
        assert diag["kind"] == "diagnostic"
        assert diag["error"] == "OracleMismatch"

    def test_invalid_x_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "1.5", "9.9", "8")
        assert code == 2
        assert json.loads(err)["error"] == "InvalidPoint"

    def test_cap_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "1.5", "1", "30", "--oracle")
        assert code == 2
        assert json.loads(err)["error"] == "CapExceeded"


class TestGenerate:
    def test_majority_stage_counts(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "omega:1", "7.0", "1", "3")
        assert code == 0
        assert "stage 3: 64 words" in out

    def test_pair_stage_counts(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "lambda:2", "1.0", "2", "3",
                               "--mode", "s3")
        assert code == 0
        assert "stage 3: 8 words" in out

    def test_out_of_domain_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "generate", "1.2", "1.0", "2", "1")
        assert code == 2
        assert json.loads(err)["error"] == "OutOfDomain"

    def test_records(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "1.05", "11.0", "1", "2",
                               "--format", "records")
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        stages = [r for r in recs if r["kind"] == "stage"]
        assert [s["count"] for s in stages] == [1, 4, 16]

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "1.05", "11.0", "1", "1",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "stage,count,word_length,orbit_min,orbit_max"

    # SHA-256 of the records output, frozen from the linear steering scan
    # that the offset-sorted bisection replaced: the search must not change
    # a word or a digit.
    @pytest.mark.parametrize("argv, digest", [
        (["omega:1", "7.0", "1", "3"],
         "48a4bef1d6ee9bb6619a441a0f7a7d6eb6bc13a8598f4ac99f56a93430bf3f4b"),
        (["lambda:2", "1.0", "2", "3", "--mode", "s3"],
         "84cd405a9e554a32549e4e1c03d290e9832adb9e1f6db8e2b9a2faacf85c9356"),
        (["omega:2", "3.0", "2", "2"],
         "4276b434f50a30d42cded3f9bc5ce85e07ac075abac2122c3c94074cfecfbeac"),
        (["lambda:5", "1.1", "5", "8", "--mode", "s3"],
         "b85da73307724254920fe1f780743ea5d16719ca29e638af5e85325a7033697f"),
        (["lambda:3", "0.4", "3", "6", "--mode", "s3", "--precision-bits", "96"],
         "b2275ed049393131c0c78d76bd4a95601cbaf9645620be0109bf5c212d4a1505"),
    ])
    def test_records_are_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "generate", *argv, "--format", "records")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBounds:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "1.5", "--m-max", "8")
        assert code == 0
        assert "kappa lower bound          0.125000" in out
        assert "upper rate bound" in out

    def test_records(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "1.07", "--m-max", "8",
                               "--format", "records")
        assert code == 0
        head = json.loads(out.splitlines()[0])
        assert head["omega_bound_m"] == 1
        assert head["best_lower"] == pytest.approx(2 / 3)

    def test_bad_beta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "2.5")
        assert code == 2


class TestGrowth:
    def test_table_mentions_expected_slope_below_sqrt2(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "1.3", "0.9", "16",
                               "--m-max", "8")
        assert code == 0
        assert "almost-every-base expected slope" in out

    def test_no_expected_slope_above_sqrt2(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "1.5", "0.9", "16",
                               "--m-max", "8")
        assert code == 0
        assert "almost-every-base" not in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "1.5", "0.9", "14",
                               "--format", "csv", "--m-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,log2_count,slope"
        assert len(lines) == 1 + (14 - 8 + 1)

    def test_records(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "1.5", "0.9", "14",
                               "--format", "records", "--m-max", "4")
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert recs[-1]["kind"] == "growth_bounds"
        assert recs[-2]["kind"] == "growth_summary"


class TestBernoulli:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "1.5", "1.1",
                               "--radii", "8:12", "--method", "monte-carlo",
                               "--samples", "200000")
        assert code == 0
        assert "slope range" in out
        assert "local dim upper bound" in out

    def test_records(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "1.5", "1.1",
                               "--radii", "8:12", "--method", "monte-carlo",
                               "--samples", "100000", "--format", "records")
        assert code == 0
        head = json.loads(out.splitlines()[0])
        assert head["kind"] == "local_dim"
        assert head["bound_min"] is not None
        assert (head["method"], head["depth"]) == ("monte-carlo", 12 + 22)

    def test_default_is_the_count_at_kmax_plus_14(self, capsys):
        argv = ["bernoulli", "1.5", "1.1", "--radii", "8:14", "--format", "records"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, explicit, _ = run_cli(capsys, *argv, "--method", "recursion",
                                    "--depth", "28")
        assert code == 0
        assert out == explicit
        head = json.loads(out.splitlines()[0])
        assert (head["method"], head["depth"]) == ("recursion", 28)

    def test_recursion_method(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "1.5", "1.1",
                               "--radii", "6:9", "--method", "recursion",
                               "--depth", "24")
        assert code == 0
        assert "slope range" in out

    def test_radii_without_colon_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli", "1.5", "1.1", "--radii", "8")
        assert code == 2
        assert "KMIN:KMAX" in json.loads(err)["message"]


class TestPrecisionEnv:
    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.PRECISION_ENV, "96")
        parser = cli.build_parser()
        args = parser.parse_args(["count", "1.5", "1", "6"])
        assert args.precision_bits == 96

    def test_symbolic_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "gamma:3", "1", "6")
        assert code == 2

    def test_tolerance_flag(self, capsys):
        code, out, _ = run_cli(capsys, "count", "1.5", "1", "8",
                               "--tolerance", "1e-30")
        assert code == 0
        assert "count = " in out

    def test_precision_flag(self, capsys):
        code, out, _ = run_cli(capsys, "count", "1.5", "1", "8",
                               "--precision-bits", "192")
        assert code == 0

    def test_symbolic_beta_in_growth(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "omega:1", "7.0", "14",
                               "--m-max", "4")
        assert code == 0
        assert "lower slope" in out


def _fields(kind, *names):
    return lambda recs: [[r[n] for n in names] for r in recs if r["kind"] == kind]


def _bounds_rows(recs):
    head = recs[0]
    rows = [["kappa", None, head["kappa"]]]
    rows += [[f"{n}_lower", head[f"{n}_bound_m"], head[f"{n}_bound"]]
             for n in ("omega", "lambda") if head[f"{n}_bound_m"] is not None]
    rows += [["upper_rate", r["m"], r["value"]]
             for r in recs if r["kind"] == "upper_bound"]
    rows += [[f"local_dim_{r['source']}", r["m"], r["value"]]
             for r in recs if r["kind"] == "local_dim_bound"]
    return rows


# subcommand -> (argv, the csv rows its records imply, table headlines)
FORMAT_CASES = {
    "roots": (
        ["roots", "1", "2"],
        lambda recs: [[r["sequence"], r["m"], r["value"], p]
                      for r in recs for p in r["polynomials"]],
        lambda recs: [r["value"] for r in recs]),
    "count": (
        ["count", "1.5", "1", "8", "--oracle"],
        _fields("prefix", "word", "orbit_value"),
        lambda recs: [f"count = {recs[-1]['count']}",
                      f"oracle count = {recs[-1]['oracle_count']}"]),
    "generate": (
        ["generate", "1.05", "11.0", "1", "2"],
        _fields("stage", "index", "count", "word_length", "orbit_min", "orbit_max"),
        lambda recs: [f"stage {r['index']}: {r['count']} words"
                      for r in recs if r["kind"] == "stage"]),
    "bounds": (
        ["bounds", "1.07", "--m-max", "8"],
        _bounds_rows,
        lambda recs: [recs[0]["beta"]] + [
            f"{recs[0][k]:.6f}" for k in ("kappa", "omega_bound", "lambda_bound",
                                          "best_lower", "local_dim_min")]),
    "growth": (
        ["growth", "1.3", "0.9", "14", "--m-max", "4"],
        _fields("growth_point", "k", "log2_count", "slope"),
        lambda recs: [f"{recs[-2][k]:.6f}" for k in ("lower_slope", "upper_slope")]
        + [f"{recs[-1][k]:.6f}" for k in ("best_lower", "min_upper",
                                          "expected_typical_slope")]),
    "bernoulli": (
        ["bernoulli", "1.5", "1.1", "--radii", "6:9", "--method", "recursion",
         "--depth", "24"],
        _fields("local_dim_point", "radius", "log_measure"),
        lambda recs: [f"{recs[0][k]:.6f}" for k in ("slope_lower", "slope_upper",
                                                    "bound_min")]),
}


@pytest.mark.parametrize("command", sorted(FORMAT_CASES))
def test_csv_and_table_agree_with_records(capsys, command):
    argv, rows_of, headlines_of = FORMAT_CASES[command]
    out = {}
    for fmt in ("records", "csv", "table"):
        code, out[fmt], _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
    recs = [json.loads(line) for line in out["records"].splitlines()]
    _, *rows = csv.reader(io.StringIO(out["csv"]))
    expected = rows_of(recs)
    assert len(rows) == len(expected) > 0
    for row, values in zip(rows, expected):
        assert len(row) == len(values)
        for cell, value in zip(row, values):
            if value is None:
                assert cell == ""
            elif isinstance(value, float):  # csv may round to 10 places
                assert float(cell) == pytest.approx(value, rel=1e-9, abs=1e-10)
            else:
                assert cell == str(value)
    for text in headlines_of(recs):
        assert text in out["table"]
