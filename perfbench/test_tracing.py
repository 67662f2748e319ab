"""Tests of the benchmark's tracer.  Run: python3 -m pytest perfbench"""
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #              -> b [5, 9] -> b1 [5, 6], b2 [7, 9]
    return [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("a1", 2.0, 3.0, 1, None),
        Span("b", 5.0, 9.0, 0, None),
        Span("b1", 5.0, 6.0, 3, None),
        Span("b2", 7.0, 9.0, 3, None),
    ]


def test_self_time_subtracts_children_once():
    assert tracing.self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])


def test_self_times_partition_the_root():
    assert sum(tracing.self_times(_tree())) == pytest.approx(10.0)


def test_overlapping_children_count_their_union():
    spans = [Span("p", 0.0, 10.0, -1, None),
             Span("c", 1.0, 5.0, 0, None),
             Span("c", 3.0, 7.0, 0, None)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_forward_splits_by_train_step_ancestor():
    f = tracing.FORWARD
    spans = [
        Span("harness.train", 0.0, 10.0, -1, None),
        Span(f, 1.0, 2.0, 0, 16),
        Span(tracing.TRAIN_STEP, 2.0, 6.0, 0, None),
        Span("qmix_core.td_targets", 2.5, 4.0, 2, None),
        Span(f, 3.0, 3.5, 3, 128),
        Span(f, 6.0, 7.0, 0, 16),
    ]
    m = tracing.layer_metrics(spans, wall_s=20.0)
    assert m["dense_net.forward.act.calls"] == 2
    assert m["dense_net.forward.learn.calls"] == 1
    assert m["dense_net.forward.act.rows_per_call"] == 16
    assert m["harness.cycle.p50_ms"] == pytest.approx(5000.0)
    assert m["qmix_core.train_step.self_s"] == pytest.approx(2.5)
    assert m["trace.coverage"] == pytest.approx(0.5)
    assert m["mapsets.load_mapset.calls"] == 0


def _bindings():
    """Every attribute of every gridmix module and traced class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "gridmix" or name.startswith("gridmix."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for _, module, path, _ in tracing.TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(sys.modules[f"gridmix.{module}"], cls_name)
            out[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return out


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    from gridmix import harness

    config = harness.RunConfig(total_steps=64, eval_interval=64, eval_map_count=2,
                               min_buffer=64, buffer_capacity=256, seed=5)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.train is not before[("gridmix.harness", "train")]
        result = harness.train(config, str(tmp_path / "run"))
        harness.evaluate(result.checkpoint_path, str(tmp_path / "run" / "eval_maps.json"))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert tracer.leftovers() == []
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    names = {s.name for s in tracer.spans}
    assert {"harness.train", "harness.evaluate", "qmix_core.load_bundle",
            "replay_buffer.sample", "qmix_core.mix_backward_batch"} <= names


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
