"""Round-trip tests for the serialization formats."""

import json

import pytest
from mpmath import mpf, workprec

from betaprefix import (BetaContext, bound_report, enumerate_prefixes_direct,
                        growth_estimate, measure_monte_carlo, run_generator_m,
                        omega_threshold)
from betaprefix.records import (bound_report_records, generator_run_records,
                                growth_records, measure_records, parse_measure_record,
                                parse_prefix_set_lines,
                                parse_prefix_set_records, parse_real,
                                prefix_set_lines, prefix_set_records,
                                real_repr, to_jsonl)


class TestRealRepr:
    def test_round_trip_at_128_bits(self, rng):
        with workprec(128):
            for _ in range(50):
                v = mpf(rng.random()) * mpf(rng.randint(1, 5))
                text = real_repr(v, 128)
                assert parse_real(text, 128) == v


class TestPrefixSetFormats:
    def test_line_format_round_trip(self, ctx15):
        ps = enumerate_prefixes_direct(ctx15, 1, 10)
        text = prefix_set_lines(ps)
        assert text.endswith(f"count={ps.count}\n")
        words, count = parse_prefix_set_lines(text)
        assert words == ps.words
        assert count == ps.count

    def test_line_format_detects_bad_trailer(self):
        with pytest.raises(ValueError):
            parse_prefix_set_lines("010\ncount=2\n")
        with pytest.raises(ValueError):
            parse_prefix_set_lines("012\ncount=1\n")
        with pytest.raises(ValueError):
            parse_prefix_set_lines("010\n")

    def test_records_round_trip(self, ctx15):
        ps = enumerate_prefixes_direct(ctx15, 1, 8)
        lines = to_jsonl(prefix_set_records(ps, 128)).splitlines()
        back = parse_prefix_set_records(lines, 128)
        assert back.k == ps.k
        assert back.words == ps.words
        for w in ps.words:
            assert back.orbit_values[w] == ps.orbit_values[w]

    def test_records_parse_detects_inconsistency(self, ctx15):
        ps = enumerate_prefixes_direct(ctx15, 1, 6)
        recs = prefix_set_records(ps, 128)
        recs[-1]["count"] += 1
        with pytest.raises(ValueError):
            parse_prefix_set_records(recs, 128)


class TestOtherRecords:
    def test_generator_run_records(self):
        beta = 1 + 0.7 * (float(omega_threshold(1)) - 1)
        ctx = BetaContext(beta)
        run = run_generator_m(ctx, 1, 1.0, 2)
        recs = generator_run_records(run, ctx.beta, 128)
        kinds = [r["kind"] for r in recs]
        assert kinds.count("generator_run") == 1
        assert kinds.count("stage") == 3
        stage_counts = [r["count"] for r in recs if r["kind"] == "stage"]
        assert stage_counts == [1, 4, 16]
        words = [r for r in recs if r["kind"] == "stage_word"]
        assert len(words) == 21
        # records serialize to one JSON object per line
        for line in to_jsonl(recs).splitlines():
            json.loads(line)

    def test_bound_report_records(self, ctx15):
        rep = bound_report(ctx15, m_max=8)
        recs = bound_report_records(rep, 128)
        head = recs[0]
        assert head["kind"] == "bound_report"
        assert head["kappa"] == pytest.approx(0.125)

    def test_measure_record_round_trip(self, ctx15):
        est = measure_monte_carlo(ctx15, 0.4, 0.6, 1000, 20, seed=5)
        line = to_jsonl(measure_records(est)).strip()
        back = parse_measure_record(line)
        assert back == est

    def test_growth_records(self, ctx15):
        est = growth_estimate(ctx15, 1.0, 8, 14)
        recs = growth_records(est)
        assert recs[-1]["kind"] == "growth_summary"
        assert len(recs) == len(est.k_values) + 1
