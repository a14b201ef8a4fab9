"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(name, start, end, parent=-1, **info):
    return [name, start, end, parent, info]


# ---------------------------------------------------------------------------
# Self time and nesting
# ---------------------------------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    recorded = [
        span("parent", 0.0, 10.0),
        span("child", 1.0, 3.0, 0),
        span("grandchild", 1.5, 2.5, 1),
        span("child", 5.0, 6.0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_covered_merges_overlaps_and_clips_to_parent():
    assert spans.covered([(1, 3), (2, 4), (8, 12)], 0, 10) == pytest.approx(5)
    assert spans.covered([], 0, 10) == 0


def test_children_plus_self_add_up_to_parent():
    recorded = [span("p", 0.0, 4.0), span("a", 0.5, 1.5, 0),
                span("b", 2.0, 3.5, 0)]
    own = spans.self_times(recorded)
    assert own[0] + (1.5 - 0.5) + (3.5 - 2.0) == pytest.approx(4.0)
    assert spans.nesting_errors(recorded) == []


def test_nesting_errors_flag_a_child_outside_its_parent():
    recorded = [span("p", 0.0, 1.0), span("c", 0.5, 2.0, 0)]
    assert spans.nesting_errors(recorded) == ["c lies outside its parent p"]


def test_aggregate_attributes_shared_callee_by_parent():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def tick(seconds):
        clock.now += seconds

    measures = tracer.wrap("mesh.element_signed_measures", lambda: tick(1.0))
    for parent in ("smoothing.smooth", "smoothing.smart_laplace"):
        with tracer.span(parent, {"iterations": 2}):
            measures()
            tick(0.5)
    with tracer.span("smoothing.smart_laplace"):
        measures()
    totals = spans.aggregate(tracer.take())
    assert totals["smoothing.smooth"] == {
        "calls": 1, "s": 1.5, "self_s": 0.5, "iterations": 2}
    assert totals["smoothing.smart_laplace"]["calls"] == 2
    assert totals["smoothing.smart_laplace"]["self_s"] == pytest.approx(0.5)
    assert totals["mesh.element_signed_measures"]["calls"] == 3
    assert totals["smoothing.smooth>mesh.element_signed_measures"]["calls"] == 1
    assert totals["smoothing.smart_laplace>mesh.element_signed_measures"][
        "calls"] == 2


def test_take_refuses_while_a_span_is_open():
    tracer = spans.Tracer()
    with tracer.span("open"):
        with pytest.raises(RuntimeError):
            tracer.take()


# ---------------------------------------------------------------------------
# Rebinding
# ---------------------------------------------------------------------------


def test_rebound_restores_names_after_an_exception():
    class Module:
        value = staticmethod(lambda: 1)

    original = Module.value
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with spans.rebound(tracer, [(Module, "value", "m.value", None)]):
            assert Module.value() == 1
            assert Module.value is not original
            1 / 0
    assert Module.value is original
    assert [s[0] for s in tracer.spans] == ["m.value"]


def test_layer_bindings_are_restored_and_cover_existing_names():
    bindings = workloads.layer_bindings()
    before = [getattr(module, attr) for module, attr, _, _ in bindings]
    with spans.rebound(spans.Tracer(), bindings):
        during = [getattr(module, attr) for module, attr, _, _ in bindings]
    after = [getattr(module, attr) for module, attr, _, _ in bindings]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))


def test_traced_pass_gives_the_same_outputs_and_nested_spans():
    workload = workloads.SmoothingWorkload(
        [("tri4", "jittered-square-tri", 4, 0.4, 0),
         ("hex2", "cube-hex", 2, 0.3, 0)],
        ("smooth", "smart_laplace"))
    inputs = workload.setup(3, None)
    _, plain = run.timed_pass(workload, inputs)
    plain_out, errors = run.checked(workload, inputs, plain)
    assert errors == {}

    tracer = spans.Tracer()
    with spans.rebound(tracer, workloads.layer_bindings()):
        inputs = workload.setup(3, None)
        _, traced = run.timed_pass(workload, inputs)
    traced_out, errors = run.checked(workload, inputs, traced)
    recorded = tracer.take()

    assert errors == {}
    assert ({k: o["fingerprint"] for k, o in traced_out.items()}
            == {k: o["fingerprint"] for k, o in plain_out.items()})
    assert spans.nesting_errors(recorded) == []
    metrics = summary.layer_metrics(spans.aggregate(recorded))
    assert metrics["generators.generate.calls"] == 2
    assert metrics["smoothing.smooth.iterations"] == sum(
        plain[k].iterations_run for k in plain if k.endswith("/smooth"))
    assert metrics["mesh.hex_corner_dets.calls"] > 0


# ---------------------------------------------------------------------------
# Summary arithmetic
# ---------------------------------------------------------------------------


def test_median_quartiles_and_spread_follow_statistics():
    values = [4.0, 1.0, 3.0, 2.0, 10.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary.median(values) == 5.5
    assert summary.quartiles(values) == (q1, q3)
    assert summary.spread(values) == pytest.approx((q3 - q1) / 5.5)


def test_ratios():
    assert summary.fail_ratio(0, 48) == 0.0
    assert summary.fail_ratio(3, 12) == 0.25
    assert summary.accept_ratio(50, 1000) == pytest.approx(0.95)
    assert summary.accept_ratio(0, 0) == 1.0
    assert summary.ratio(5, 0) == 0.0


def test_pass_wall_sums_per_operation_minima():
    samples = {"a": [1.0, 9.0, 2.0], "b": [0.5, 0.25, 0.75, 5.0]}
    assert summary.pass_wall(samples) == pytest.approx(1.0 + 0.25)


def test_layer_metrics_derived_values():
    totals = {
        "smoothing.smooth": {"calls": 2, "s": 2.0, "self_s": 0.5,
                             "iterations": 40, "guard_events": 30,
                             "element_iterations": 600},
        "generators.generate": {"calls": 2, "s": 0.1, "self_s": 0.05},
        "generators.generate>mesh.validate": {"calls": 5},
        "io.read_medit": {"calls": 1, "s": 0.5, "self_s": 0.5,
                          "bytes": 2_000_000},
        "io.write_vtk": {"calls": 1, "s": 0.25, "self_s": 0.25,
                         "bytes": 1_000_000},
    }
    m = summary.layer_metrics(totals)
    assert m["smoothing.smooth.ms_per_iter"] == pytest.approx(50.0)
    assert m["smoothing.smooth.accept_ratio"] == pytest.approx(0.95)
    assert m["generators.jitter_rounds"] == 2.5
    assert m["io.read_MBps"] == pytest.approx(4.0)
    assert m["io.write_MBps"] == pytest.approx(4.0)
    assert m["io.bytes_written"] == 1_000_000
    assert m["smoothing.smart_laplace.vertex_visits_per_s"] == 0.0
    assert set(m) == set(summary.LAYER_METRICS)


def test_combine_passes_takes_median_times_and_flags_unsteady_counts():
    base = summary.layer_metrics({})
    passes = [dict(base), dict(base), dict(base)]
    for p, s in zip(passes, (3.0, 1.0, 2.0)):
        p["smoothing.smooth.s"] = s
    combined, unsteady = summary.combine_passes(passes)
    assert combined["smoothing.smooth.s"] == 2.0
    assert unsteady == []
    passes[1]["geometry.transform_triangles.calls"] = 7
    _, unsteady = summary.combine_passes(passes)
    assert unsteady == ["geometry.transform_triangles.calls"]


# ---------------------------------------------------------------------------
# Consistency with BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_emitted_metrics_and_workloads():
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    emitted = {n: (u, b) for n, (u, b, _) in summary.LAYER_METRICS.items()}
    emitted.update(summary.RUN_METRICS)
    assert per_layer == emitted
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "elements_per_s", "peak_rss_mb", "quality_mean"]
