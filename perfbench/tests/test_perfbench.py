"""The benchmark's own checks: statistics, failure counting, span
accounting, seeded inputs and the BENCHMARK.json contract."""

import itertools
import json
import socket
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import common, run, serve
from perfbench.stats import tail_percentile
from perfbench.tracing import TARGETS, Target, Tracer, covered_time

ROOT = Path(__file__).resolve().parents[2]


# -- reported percentile ------------------------------------------------
@pytest.mark.parametrize("n", [11, 50, 100, 999, 1000, 1001, 5000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    values = list(range(1, n + 1))
    pct, value, count = tail_percentile(values, want=99.0)
    assert count == n
    beyond = sum(v > value for v in values)
    assert beyond >= 10
    assert pct <= 99.0
    # It is the highest such percentile: one rank higher either passes
    # p99 or leaves fewer than ten samples beyond.
    assert pct == 99.0 or beyond == 10


def test_tail_percentile_is_p99_with_enough_samples():
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990.0, 1000)


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(list(range(10))) is None


# -- failed requests ----------------------------------------------------
def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_refused_requests_count_as_failed():
    ctx = common.Context(root=ROOT, work=ROOT, seed=1, seconds=0.2)
    queries = [{"device": "d", "format": "f", "columns": "matrix",
                "offset": "0", "limit": "1", "fmt": "json"}]
    records, _ = serve.closed_loop("127.0.0.1", _free_port(), ctx, 1,
                                   queries, 0.2)
    assert records
    assert not any(r.ok for r in records)
    assert all(r.status is None and r.ms >= 0 for r in records)


def test_errored_request_counts_as_failed():
    def failing(conn, method, path, body):
        return 500, b'{"error": "boom"}'

    ctx = common.Context(root=ROOT, work=ROOT, seed=1, seconds=0.1)
    queries = [{"device": "d", "format": "f", "columns": "matrix",
                "offset": "0", "limit": "1", "fmt": "json"}]
    records, _ = serve.closed_loop("127.0.0.1", _free_port(), ctx, 1,
                                   queries, 0.1, send=failing)
    assert records and not any(r.ok for r in records)


def test_window_qps_averages_the_middle_seconds():
    # Seconds hold 1, 2, 3 and 9 replies; 14.5 is past the load.
    ends = [10.5] + [11.1, 11.2] + [12.1, 12.2, 12.3] + [13.05] * 9
    records = [serve.Record("select", {}, 200, b"", 1.0, e)
               for e in ends + [14.5]]
    assert serve.window_qps(records, t0=10.0, seconds=4) == 2.5


# -- self time ----------------------------------------------------------
def test_self_time_subtracts_wrapped_children():
    ticks = iter([0, 10, 40, 100, 200, 230])
    tracer = Tracer(targets=(), clock=lambda: next(ticks))
    inner_t = Target("x", "m:inner", "inner_s")
    outer_t = Target("x", "m:outer", "outer_s")
    inner = tracer.wrap(lambda: "leaf", inner_t)
    outer = tracer.wrap(lambda: inner(), outer_t)
    assert outer() == "leaf"   # outer 0..100 around inner 10..40
    assert inner() == "leaf"   # a root call of inner, 200..230
    assert tracer.times_ns == {"outer_s": 70, "inner_s": 60}
    assert tracer.roots == [(0, 100), (200, 230)]


def test_inclusive_target_keeps_its_whole_duration():
    ticks = iter([0, 10, 40, 100])
    tracer = Tracer(targets=(), clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, Target("x", "m:i", "inner_s"))
    outer = tracer.wrap(lambda: inner(),
                        Target("x", "m:o", "outer_s", inclusive=True))
    outer()
    assert tracer.times_ns == {"outer_s": 100, "inner_s": 30}


def test_install_rebinds_imported_names_and_reports_absent_targets():
    mod = types.ModuleType("repro_synthetic")
    mod.work = lambda n: [n]
    user = types.ModuleType("repro_synthetic_user")
    user.work = mod.work

    class Box:
        def method(self):
            return 1
    mod.Box = Box
    sys.modules[mod.__name__] = mod
    sys.modules[user.__name__] = user
    try:
        targets = (
            Target("x", "repro_synthetic:work", "work_s",
                   lambda a, k, r: {"items": len(r)}),
            Target("x", "repro_synthetic:Box.method", "method_s"),
            Target("x", "repro_synthetic:gone", "gone_s"),
            Target("x", "repro_no_such_module:f", "f_s"),
        )
        original = mod.work
        with Tracer(targets=targets) as tracer:
            assert user.work(3) == [3]
            assert Box().method() == 1
        assert tracer.absent == ["repro_synthetic:gone",
                                 "repro_no_such_module:f"]
        assert tracer.counts == {"items": 1}
        assert set(tracer.times_ns) == {"work_s", "method_s"}
        assert mod.work is original and user.work is original
        assert "method" in vars(Box) and not hasattr(
            vars(Box)["method"], "__wrapped_target__")
    finally:
        del sys.modules[mod.__name__], sys.modules[user.__name__]


def test_covered_time_merges_overlaps():
    assert covered_time([(0, 10), (5, 20), (30, 40)]) == 30
    assert covered_time([]) == 0


def test_every_span_metric_is_reported():
    names = {t.time_metric for t in TARGETS}
    assert names <= set(run.PER_LAYER)


# -- seeded inputs ------------------------------------------------------
def _payloads(seed, n=20):
    ctx = common.Context(root=ROOT, work=ROOT, seed=seed, seconds=1)
    rng = ctx.rng(2, 1, 0)
    ranges = serve._feature_ranges()
    return [serve.select_payload(rng, ranges) for _ in range(n)]


def test_same_seed_gives_identical_inputs():
    assert common.dataset_specs(3) == common.dataset_specs(3)
    assert _payloads(3) == _payloads(3)


def test_another_seed_gives_different_inputs():
    assert common.dataset_specs(3) != common.dataset_specs(4)
    assert _payloads(3) != _payloads(4)


def test_stratified_order_visits_every_spec_once_across_bins():
    order = common.stratified_order(180)
    assert sorted(order) == list(range(180))
    assert [i // 60 for i in order[:6]] == [0, 1, 2, 0, 1, 2]


def test_spec_payload_features_match_the_spec():
    payload = {"spec": {"mem_footprint_mb": 64.0, "avg_nnz_per_row": 10.0,
                        "skew_coeff": 5.0, "cross_row_sim": 0.5,
                        "avg_num_neigh": 1.0}}
    feats = serve.payload_features(payload)
    assert feats["avg_nnz_per_row"] == 10.0
    assert feats["cross_row_similarity"] == 0.5
    assert abs(feats["mem_footprint_mb"] - 64.0) < 0.01


# -- contract -----------------------------------------------------------
def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in itertools.chain(spec["end_to_end"], spec["per_layer"]):
        table = run.END_TO_END if "bound" in m else run.PER_LAYER
        assert table[m["name"]] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(run._workloads())


def test_runner_refuses_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    start = time.perf_counter()
    assert run.main(["--workload", "sweep-cold", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert time.perf_counter() - start < 5
