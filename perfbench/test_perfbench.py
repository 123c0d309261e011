"""Self-tests of the benchmark: seeded request lists, the oracle catching a
corrupted result, span self time, and metric names against BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_list_is_deterministic_per_seed(workload):
    a = workloads.make_requests(workload, 7, 8)
    b = workloads.make_requests(workload, 7, 8)
    assert a == b
    assert workloads.request_digest(a) == workloads.request_digest(b)
    other = workloads.make_requests(workload, 8, 8)
    assert workloads.request_digest(other) != workloads.request_digest(a)


def test_request_rounds_hold_the_kinds_in_proportion():
    size = workloads.ROUND_SIZE["generate"]
    gen = workloads.make_requests("generate", 3, 2)[size:]
    majority = [(r["m"], r["blocks"]) for r in gen if r["mode"] == "m"]
    assert sorted(majority) == sorted(workloads._MAJORITY)
    assert sorted((r["m"], r["blocks"]) for r in gen if r["mode"] == "s3") == \
        sorted(workloads._PAIR)
    size = workloads.ROUND_SIZE["measure"]
    requests = workloads.make_requests("measure", 3, 5)
    for start in range(0, len(requests), size):
        kinds = [r["kind"] for r in requests[start:start + size]]
        assert all(kinds.count(k) == size // 3 for k in ("growth", "local_dim", "interval"))
    for req in requests:
        assert 1.2 <= float(req["beta"]) <= 1.9 and 0.1 <= float(req["x_frac"]) <= 0.9
    # every super-round holds each (depth, radius) pair of the interval kind
    pairs = {(r["depth"], r["j"]) for r in requests if r["kind"] == "interval"}
    assert len(pairs) == 25


# cheap steered-pair requests: two stages of two and four words
_SMALL = [{"i": i, "mode": "s3", "m": 2, "blocks": 2, "x_frac": x}
          for i, x in enumerate(("0.3", "0.4", "0.5", "0.6"))]


def _drop_a_word(workload, req, call=workloads.direct_call):
    """An executor whose generator run loses a final-stage word on odd requests."""
    ns, res, error = worker._attempt(workload, req, call)
    if req["i"] % 2:
        run = res.value
        res.value = dataclasses.replace(run, stages=run.stages[:-1] + (run.stages[-1][1:],))
    return ns, res, error


def test_corrupted_result_counts_as_failed(monkeypatch):
    monkeypatch.setattr(worker, "MIN_SAMPLES", 1)
    monkeypatch.setattr(worker, "RSS_ROUNDS", 1)
    monkeypatch.setitem(workloads.ROUND_SIZE, "generate", len(_SMALL))
    out = worker.timed_loop("generate", _SMALL, 0.0, execute=_drop_a_word)
    assert out["attempted"] == 4
    assert [i for i, _ in out["failures"]] == [1, 3]
    assert any("expected" in p for _, problems in out["failures"] for p in problems)


def test_latencies_are_rescaled_to_the_fastest_probe(monkeypatch):
    probes = iter([100, 200] * 10)
    monkeypatch.setattr(worker.hostspeed, "probe_ns", lambda: next(probes))
    monkeypatch.setattr(worker, "MIN_SAMPLES", 1)
    monkeypatch.setattr(worker, "RSS_ROUNDS", 1)
    monkeypatch.setitem(workloads.ROUND_SIZE, "generate", len(_SMALL))

    def fixed_latency(workload, req):
        return (1000, *worker._attempt(workload, req)[1:])

    out = worker.timed_loop("generate", _SMALL, 0.0, execute=fixed_latency)
    # each request sat between probes of 100 and 200 ns; the fastest was 100
    assert out["probe_min_ns"] == 100
    assert out["metrics"]["latency_p50_ms"] == pytest.approx(1000 * 100 / 150 / 1e6)
    assert out["metrics"]["throughput_rps"] == pytest.approx(1e9 / (1000 * 100 / 150))
    assert out["raw_throughput_rps"] == pytest.approx(1e6)


def test_oracle_rejects_corrupted_generator_and_measure_results():
    req = {"i": 0, "mode": "m", "m": 1, "blocks": 2, "x_frac": "0.9"}
    res = workloads.execute("generate", req)
    assert workloads.check("generate", req, res) == []
    word, value = res.value.stages[-1][0]
    bad = res.value.stages[-1][1:] + (("0" * len(word), value),)  # beta^k x escapes
    res.value = dataclasses.replace(res.value, stages=res.value.stages[:-1] + (bad,))
    assert any("leave the base interval" in p for p in workloads.check("generate", req, res))

    req = {"i": 1, "kind": "interval", "beta": "1.5", "x_frac": "0.5", "j": 6, "depth": 14}
    res = workloads.execute("measure", req)
    assert workloads.check("measure", req, res) == []
    res.value = dataclasses.replace(res.value, value=1.5)
    assert workloads.check("measure", req, res)


def test_oracle_reference_measure_matches_the_library():
    ctx = workloads.numeric.BetaContext("1.5", workloads.PRECISION_BITS)
    for lo, hi, depth in ((0.3, 0.9, 14), (1.0, 1.2, 12), (-0.5, 0.1, 10)):
        est = workloads.bernoulli.measure_interval(ctx, lo, hi, depth)
        bracket = (est.value - est.half_width, est.value + est.half_width)
        assert workloads._reference_measure(ctx, lo, hi, depth) == pytest.approx(bracket, abs=1e-15)


def test_span_self_time_subtracts_children(monkeypatch):
    clock = iter(range(0, 1000, 10))
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: next(clock))
    tracer = spans.Tracer()
    with tracer.span("request", "client", 1):  # opens at 0
        tracer.call("numeric", lambda: None)  # 10 .. 20
        tracer.call("prefixes", lambda: None)  # 30 .. 40
    # closes at 50
    totals = tracer.layer_totals()
    assert totals["client"]["self_ns"] == 50 - 20
    assert totals["numeric"]["self_ns"] == 10 and totals["prefixes"]["calls"] == 1
    assert tracer.request_gaps("client") == [(30, 50)]
    assert all(s.request == 1 for s in tracer.spans)


def test_span_counts_layer_errors():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.call("bounds", boom)
    assert tracer.layer_totals()["bounds"]["errors"] == 1


def test_metric_names_match_benchmark_json(monkeypatch):
    declared_e2e = {m["name"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"] for m in SPEC["per_layer"]}
    assert run.declared_metrics(False).keys() == declared_e2e
    assert run.declared_metrics(True).keys() == declared_layer
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

    monkeypatch.setattr(worker, "MIN_SAMPLES", 1)
    monkeypatch.setattr(worker, "RSS_ROUNDS", 1)
    monkeypatch.setitem(workloads.ROUND_SIZE, "generate", 2)
    untraced = worker.timed_loop("generate", _SMALL[:2], 0.0)
    assert set(untraced["metrics"]) | {"setup_s"} == declared_e2e

    monkeypatch.setitem(worker.TRACE_ROUNDS, "generate", 1)
    traced = worker.traced_loop("generate", _SMALL[:2], spans.Tracer(), 0)
    assert set(traced["metrics"]) == declared_layer
    assert traced["metrics"]["records.calls"] == 4
    assert traced["metrics"]["generators.stage_words"] == 2 * (1 + 2 + 4)


def test_run_refuses_without_package_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "generate", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
