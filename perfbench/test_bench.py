"""Self-tests of the benchmark: spans, wrappers, percentiles, guards."""

import dataclasses
import json
import types
from array import array
from fractions import Fraction
from pathlib import Path

import bench
import pytest
from bench import Instance, Workload
from dyncolor import instances
from dyncolor.config import Config
from spans import SpanTable, Tracer


def _tiny(seed: int) -> Instance:
    edges, _ = instances.planted_clique_graph(
        64, 16, seed, num_cliques=2, clique_size=16, anti_edges_per_clique=3
    )
    cfg = Config(epsilon=Fraction(1, 8), zeta=40, gamma=Fraction(1, 16))
    return Instance(64, 16, edges, cfg, "phased", "matching")


TINY = Workload("tiny", _tiny, 60, needs_cliques=True)


def test_spans_nest_with_non_negative_self_time():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(1000))
    ns.outer = lambda: ns.inner() + ns.inner()
    originals = dict(vars(ns))
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    t = SpanTable(tracer)
    assert [t.names[i] for i in t.name] == ["outer", "inner", "inner"]
    assert list(t.parent) == [-1, 0, 0]
    assert t.nesting_errors() == []
    assert all(s >= 0 for s in t.self_time)
    assert t.self_time[0] == pytest.approx(t.dur[0] - t.dur[1] - t.dur[2])
    assert t.select(["inner"], under=["outer"]) == [1, 2]
    assert t.select(["inner"], not_under=["outer"]) == []
    assert tracer.uninstall() == []
    assert vars(ns) == originals


def test_span_closes_when_the_call_raises():
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(ns, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    assert tracer.open_spans == 0
    assert SpanTable(tracer).nesting_errors() == []
    tracer.uninstall()


def test_traced_repetition_adds_up_and_changes_nothing():
    untraced = bench.run_rep(TINY, 3)
    originals = {
        (owner, attr): vars(owner)[attr]
        for owner, attr in [
            (bench.Engine, "apply"),
            (bench.engine, "compute_acd"),
            (bench.engine, "ColoringState"),
            (bench.fresh, "one_shot_coloring"),
        ]
    }
    tracer = Tracer()
    bench.install(tracer)
    try:
        traced = bench.run_rep(TINY, 3, tracer)
        metrics, problems = bench.layer_metrics(SpanTable(tracer), traced)
    finally:
        assert tracer.uninstall() == []
    assert all(vars(o)[a] is fn for (o, a), fn in originals.items())
    assert problems == [] and traced.problems == [] and untraced.problems == []
    assert traced.fingerprints == untraced.fingerprints
    assert traced.meter == untraced.meter
    assert metrics["decomposition.cliques"] > 0
    assert metrics["engine.rebuild_s"] <= metrics["engine.apply_s"]
    assert metrics["adversary.steps"] == TINY.updates
    assert metrics["engine.rebuilds"] == metrics["decomposition.compute_acd_calls"]
    assert set(metrics) == set(bench.PER_LAYER) - {"trace.overhead_s", "trace.overhead_share"}


@pytest.mark.parametrize("trace", [False, True])
def test_a_whole_run_passes_its_own_checks(monkeypatch, trace):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", dataclasses.replace(TINY, updates=400))
    res = bench.run("tiny", 3, 1, trace, Path("."))
    assert res.problems == [] and res.failed == 0
    assert set(res.metrics) == set(bench.PER_LAYER if trace else bench.END_TO_END)


def test_zero_cliques_fail_the_dense_workload():
    def clique_free(seed: int) -> Instance:
        return dataclasses.replace(_tiny(seed), edges=instances.random_graph(64, 16, 0.3, seed))

    rep = bench.run_rep(dataclasses.replace(TINY, make=clique_free), 3)
    assert rep.cliques_min == 0 and rep.failed == 0
    assert any("zero cliques" in p for p in rep.problems)


def _rep(latencies: list[float]) -> bench.Rep:
    return bench.Rep(
        setup_s=1.0, run_s=1.0, latencies=array("d", latencies), attempted=len(latencies),
        failed=0, problems=[], mode="naive", cliques=0, cliques_min=0, core_size=0,
        sparse_share=1.0, fingerprints={}, meter={}, fresh_trials=0, counts={},
    )


def test_percentile_needs_ten_samples_beyond_it():
    _, beyond = bench.percentile([float(x) for x in range(900)], 99)
    assert beyond < bench.MIN_BEYOND
    metrics, _, problems = bench.end_to_end([_rep([1e-4] * 500 + [1e-3] * 500)])
    assert "update_p99_us" not in metrics and any("p99" in p for p in problems)
    metrics, lines, problems = bench.end_to_end([_rep([1e-4 * (1 + i % 97) for i in range(3000)])])
    assert problems == [] and set(metrics) == set(bench.END_TO_END)


def test_benchmark_file_names_every_metric_and_workload():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
