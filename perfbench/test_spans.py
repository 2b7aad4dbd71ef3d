"""Arithmetic of the benchmark's summaries: self time, median, failed share.

    python3 -m pytest perfbench/test_spans.py
"""

import statistics
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import (Span, Tracer, failed_frac, median,  # noqa: E402
                   quartile_spread, self_times)


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "rep0"),
        Span("a", 1.0, 3.0, 0, "rep0"),
        Span("b", 4.0, 8.0, 0, "rep0"),
        Span("b.child", 5.0, 6.5, 2, "rep0"),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 1.5])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, -1, "u"),
        Span("a", 2.0, 6.0, 0, "u"),
        Span("b", 5.0, 7.0, 0, "u"),     # overlaps a by one second
        Span("c", 9.0, 12.0, 0, "u"),    # runs past the parent's end
    ]
    # covered: [2, 7] and [9, 10]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_times_plus_children_sum_to_root():
    spans = [Span("root", 0.0, 3.0, -1, "u"), Span("x", 0.5, 1.0, 0, "u"),
             Span("y", 1.0, 2.75, 0, "u")]
    top = sum(s.duration for s in spans if s.parent == 0)
    assert self_times(spans)[0] + top == pytest.approx(spans[0].duration)


def test_median_odd_even_and_empty():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_failed_frac():
    assert failed_frac(0, 12) == 0.0
    assert failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(5, 4)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.3, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_hook_records_nested_spans_and_restores(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    seen = []
    with Tracer() as tr:
        tr.unit = "rep0"
        tr.hook(f"{mod.__name__}.outer", span="outer")
        tr.hook(f"{mod.__name__}.inner", span="inner",
                after=lambda t, a, k, r: t.count("inner.calls"))
        tr.hook(f"{mod.__name__}.gone", span="gone")
        seen.append(mod.outer(1))
    assert seen == [4]
    assert mod.outer is outer and mod.inner is inner
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", -1),
                                                      ("inner", 0)]
    assert tr.counted("rep0", "inner.calls") == 1
    assert f"{mod.__name__}.gone" in tr.missing


def test_metric_of_a_missing_hook_is_absent_not_zero():
    import layers

    tr = Tracer()
    tr.missing["linkcov.linkage.block_pairs"] = "linkcov.linkage.block_pairs"
    tr.unit = "rep0"
    tr.open(layers.ROOT_SPAN, 0.0)
    tr.close(2.0)
    out = layers.per_layer(tr, "rep0", {"untraced_s": 1.5, "fits": 0,
                                        "unconverged": 0,
                                        "bytes_written": 0})
    for name in ("linkage.block_s", "linkage.candidate_pairs",
                 "linkage.block_pairs_per_s", "linkage.baseline_yield"):
        assert out[name]["value"] is None
        assert "linkcov.linkage.block_pairs" in out[name]["absent"]
    assert out["linkage.panels_s"] == {"value": 0.0, "unit": "s"}
    assert out["experiment.trace_overhead_s"]["value"] == pytest.approx(0.5)
    assert out["experiment.self_s"]["value"] == pytest.approx(2.0)


def test_benchmark_json_lists_the_metrics_the_run_reports():
    import json

    import layers

    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, _, _ in layers.METRICS]
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "rep_adj_s_p50", "reps_per_adj_s", "peak_rss_mb"}


def test_adjusted_time_scales_by_the_bracketing_kernel_passes():
    from speed import REFERENCE_S, adjusted

    assert adjusted(3.0, REFERENCE_S, REFERENCE_S) == pytest.approx(3.0)
    # twice as slow a machine: the unit and the kernel both take twice
    # as long, and the adjusted time is that of the unloaded machine
    assert adjusted(6.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(
        3.0)
    # the kernel passes on either side of a stretch are averaged
    assert adjusted(3.0, REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(2.0)
