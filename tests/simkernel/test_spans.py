"""Unit tests for the causal span layer (SpanTracker, nesting, records,
and the begin/end join into intervals)."""

import pytest

from repro.errors import AnalysisError, SimulationError
from repro.simkernel import Simulator
from repro.simkernel.spans import ROOT, SPAN_NAMES, resolve_spans


@pytest.fixture()
def sim():
    return Simulator()


class TestSpanRecords:
    def test_span_writes_begin_and_end_records(self, sim):
        sim.run(until=2.0)
        with sim.spans.span("reboot", actor="h0", detail="warm") as sp:
            sim.run(until=5.0)
        begin = sim.trace.last("span.begin")
        end = sim.trace.last("span.end")
        assert begin.time == 2.0 and end.time == 5.0
        assert begin["span"] == sp.id == end["span"]
        assert begin["parent"] == ROOT
        assert begin["name"] == "reboot"
        assert begin["actor"] == "h0"
        assert begin["detail"] == "warm"

    def test_ids_are_allocated_in_open_order(self, sim):
        with sim.spans.span("reboot", actor="h0") as outer:
            with sim.spans.span("reboot.phase", actor="h0") as inner:
                assert inner.id == outer.id + 1

    def test_unregistered_name_is_rejected(self, sim):
        with pytest.raises(SimulationError, match="SPAN_NAMES"):
            sim.spans.span("reboot.sneaky", actor="h0")

    def test_taxonomy_is_the_documented_closed_set(self):
        assert "reboot" in SPAN_NAMES
        assert "reboot.phase" in SPAN_NAMES
        assert ROOT == 0


class TestNesting:
    def test_same_actor_spans_nest_implicitly(self, sim):
        with sim.spans.span("reboot", actor="h0") as outer:
            with sim.spans.span("reboot.phase", actor="h0") as inner:
                assert inner.parent == outer.id

    def test_actors_keep_independent_stacks(self, sim):
        with sim.spans.span("reboot", actor="h0"):
            with sim.spans.span("guest.boot", actor="vm1") as guest:
                assert guest.parent == ROOT  # not h0's reboot

    def test_explicit_cross_actor_parent(self, sim):
        with sim.spans.span("reboot", actor="h0") as host_span:
            parent = sim.spans.current("h0")
            with sim.spans.span(
                "guest.boot", actor="vm1", parent=parent
            ) as guest:
                assert guest.parent == host_span.id

    def test_explicit_root_parent_falls_back_to_own_stack(self, sim):
        # parent=current(other) when the other actor has nothing open:
        # the span must still nest under its own actor's innermost span.
        with sim.spans.span("guest.rejuvenation", actor="vm1") as outer:
            parent = sim.spans.current("h0")  # h0 has nothing open
            assert parent == ROOT
            with sim.spans.span("guest.boot", actor="vm1", parent=parent) as sp:
                assert sp.parent == outer.id

    def test_current_tracks_the_innermost_open_span(self, sim):
        assert sim.spans.current("h0") == ROOT
        with sim.spans.span("reboot", actor="h0") as outer:
            assert sim.spans.current("h0") == outer.id
            with sim.spans.span("reboot.phase", actor="h0") as inner:
                assert sim.spans.current("h0") == inner.id
            assert sim.spans.current("h0") == outer.id
        assert sim.spans.current("h0") == ROOT

    def test_out_of_order_end_is_rejected(self, sim):
        outer = sim.spans.span("reboot", actor="h0")
        inner = sim.spans.span("reboot.phase", actor="h0")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(SimulationError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_open_spans_reports_leaks(self, sim):
        assert sim.spans.open_spans() == {}
        span = sim.spans.span("reboot", actor="h0")
        span.__enter__()
        assert sim.spans.open_spans() == {"h0": [span.id]}
        span.__exit__(None, None, None)
        assert sim.spans.open_spans() == {}


class TestInstrumentedPaths:
    def test_warm_reboot_emits_a_span_tree(self):
        """The VMM reboot path opens a root span with per-phase children."""
        from repro.experiments.common import build_testbed

        controller = build_testbed(2)
        controller.rejuvenate("warm")
        begins = controller.sim.trace.select("span.begin")
        names = [r["name"] for r in begins]
        assert "reboot" in names
        assert names.count("reboot.phase") >= 4
        assert controller.sim.spans.open_spans() == {}


class TestResolveSpans:
    def test_intervals_in_begin_order_with_parents(self, sim):
        with sim.spans.span("reboot", actor="h0", detail="warm"):
            with sim.spans.span("reboot.phase", actor="h0", detail="a"):
                pass
        with sim.spans.span("guest.boot", actor="vm1"):
            pass
        spans = resolve_spans(sim.trace)
        assert [(s["span"], s["parent"], s["name"]) for s in spans] == [
            (1, ROOT, "reboot"), (2, 1, "reboot.phase"), (3, ROOT, "guest.boot"),
        ]
        assert spans[1]["detail"] == "a" and spans[2]["actor"] == "vm1"

    def test_open_span_has_no_end(self, sim):
        sim.run(until=2.0)
        sim.spans.span("reboot", actor="h0").__enter__()
        (span,) = resolve_spans(sim.trace)
        assert span["start"] == 2.0 and span["end"] is None

    def test_end_without_begin_is_rejected(self, sim):
        sim.trace.record("span.end", span=99)
        with pytest.raises(AnalysisError, match="unknown span"):
            resolve_spans(sim.trace)
