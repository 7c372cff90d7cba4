"""Span, self-time and percentile arithmetic of the benchmark's tracer."""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Span, Tracer, covered_length, percentile, self_times, tail  # noqa: E402


def test_covered_length_merges_overlaps_and_skips_gaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered_length([(2.0, 3.0), (0.0, 1.0)]) == pytest.approx(2.0)
    assert covered_length([(1.0, 1.0)]) == 0.0


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, "op"),
        Span(1, "a", 1.0, 4.0, 0, "op"),      # sibling children of root
        Span(2, "b", 5.0, 7.0, 0, "op"),
        Span(3, "a.inner", 1.5, 3.5, 1, "op"),  # nested: only its parent loses it
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_clips_overhanging_and_overlapping_children():
    spans = [
        Span(0, "p", 0.0, 4.0, -1, "op"),
        Span(1, "c1", 1.0, 3.0, 0, "op"),
        Span(2, "c2", 2.0, 6.0, 0, "op"),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_wrapped_calls_record_parents_ops_and_attributes():
    tracer = Tracer(fake_clock([0.0, 1.0, 2.0, 3.0, 5.0, 6.0]))
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * ns.inner(x)
    tracer.wrap(ns, "inner", "inner", describe=lambda args, kwargs: {"x": args[0]})
    tracer.wrap(ns, "outer", "outer")
    tracer.op = "op7"
    assert ns.outer(1) == 4
    tracer.uninstall()
    outer, first, second = tracer.spans
    assert (outer.name, outer.parent, outer.start, outer.end) == ("outer", -1, 0.0, 6.0)
    assert first.parent == second.parent == outer.id
    assert first.attrs == {"x": 1} and first.op == "op7"
    assert self_times(tracer.spans)[outer.id] == pytest.approx(6.0 - 1.0 - 2.0)
    # uninstalled wrappers record nothing
    ns.outer(1)
    assert len(tracer.spans) == 3


def test_span_closes_when_the_call_raises():
    tracer = Tracer(fake_clock([0.0, 1.0]))
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer.wrap(ns, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    assert tracer.spans[0].end == 1.0 and tracer._stack == []


def test_counters_are_kept_per_operation_and_deltas_land_on_spans():
    tracer = Tracer(fake_clock([0.0, 1.0]))
    ns = types.SimpleNamespace()
    ns.make = lambda: None
    ns.work = lambda: [ns.make() for _ in range(3)]
    tracer.count_calls(ns, "make", "made")
    tracer.wrap(ns, "work", "work", delta_of="made")
    tracer.op = "op"
    ns.work()
    assert tracer.spans[0].attrs["made"] == 3
    assert tracer.counters == {"op": {"made": 3}}


def test_percentile_and_tail_choice():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    # 100 samples leave ten beyond p90 but not beyond p99
    q, _, n = tail(values)
    assert (q, n) == (90.0, 100)
    assert tail(list(range(1000)))[0] == 99.0
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0, 3)
