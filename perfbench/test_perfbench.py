"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They check the span arithmetic, that tracing changes no result, that every
wrapper is gone after a traced run, and that ``BENCHMARK.json`` names the
metrics ``run.py`` prints.
"""

import json
import sys

import pytest

import run

spans, workloads = run.import_benchmark()


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0, 0.5, 1.5])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.call(lambda: None, "inner")
    outer = tracer.call(lambda: (inner(), inner()), "outer")
    outer()  # outer [0, 10] holds inner [1, 3] and [4, 7]
    standalone = tracer.call(lambda: None, "inner")
    standalone()  # a root of its own, [0.5, 1.5]

    by_name = {}
    for sid, parent, name, start, end, _thread in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent, start, end))
    ((outer_id, outer_parent, _, _),) = by_name["outer"]
    assert outer_parent == -1
    assert sorted(p for _, p, _, _ in by_name["inner"]) == [-1, outer_id, outer_id]

    selfs = spans.self_times(tracer.spans)
    assert selfs[outer_id] == pytest.approx(10.0 - 2.0 - 3.0)
    assert sorted(selfs[sid] for sid, *_ in by_name["inner"]) == pytest.approx([1.0, 2.0, 3.0])


def test_overlapping_children_are_counted_once():
    span_list = [(0, -1, "p", 0.0, 10.0, 1), (1, 0, "a", 1.0, 5.0, 1),
                 (2, 0, "b", 4.0, 6.0, 1), (3, 0, "c", 9.0, 12.0, 1)]
    assert spans.self_times(span_list)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_in_step_marks_descendants_of_step_spans_only():
    span_list = [(0, -1, "harness.train_task", 0.0, 9.0, 1),
                 (1, 0, spans.STEP, 1.0, 4.0, 1),
                 (2, 1, "layers.Dense.train", 1.0, 2.0, 1),
                 (3, 2, "autodiff.op.matmul", 1.0, 1.5, 1),
                 (4, 0, "metrics.bn_kld", 5.0, 6.0, 1)]
    assert spans.in_step(span_list) == {2, 3}


_WRAPPER_CODES = {spans.Tracer().call(len, "x").__code__,
                  spans.Tracer().batches(iter).__code__}


def _wrapped_bindings():
    return [key for key, obj in spans.namespace_snapshot().items()
            if getattr(obj, "__code__", None) in _WRAPPER_CODES]


@pytest.mark.parametrize("name", ["mlp5", "cnn32", "sweep"])
def test_traced_run_matches_untraced_and_restores_every_wrapper(name, tmp_path):
    job = workloads.job_list(name, 0)[0]
    untraced = workloads.run_job(name, job, str(tmp_path))
    before = spans.namespace_snapshot()

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _wrapped_bindings(), "install wrapped nothing"
        traced = workloads.run_job(name, job, str(tmp_path))
    finally:
        tracer.restore()

    assert spans.changed_bindings(before, spans.namespace_snapshot()) == []
    assert _wrapped_bindings() == []
    assert [r["status"] for r in untraced] == ["ok"] * len(untraced)
    assert [(r["seed"], r["digest"]) for r in traced] == [
        (r["seed"], r["digest"]) for r in untraced]
    names = {s[2] for s in tracer.spans}
    assert {spans.STEP, "autodiff.backward", "harness.sgd_step"} <= names


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_listed_ops_are_autodiff_primitives():
    assert set(run.OPS) <= set(spans.autodiff_primitives())


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
