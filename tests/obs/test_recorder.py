"""Unit tests for the span recorder core."""

import threading

import pytest

from repro.errors import ReproError
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    TracingConfig,
    TracingRecorder,
    deterministic_view,
    make_recorder,
)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestTracingConfig:
    def test_defaults_disabled(self):
        config = TracingConfig()
        assert config.enabled is False
        assert config.sample_every == 1

    def test_rejects_nonpositive_sample(self):
        with pytest.raises(ReproError):
            TracingConfig(sample_every=0)

    def test_rejects_nonpositive_caps(self):
        with pytest.raises(ReproError):
            TracingConfig(max_spans=0)
        with pytest.raises(ReproError):
            TracingConfig(max_events=-1)


# ----------------------------------------------------------------------
# The disabled recorder: genuinely no-op, no allocation
# ----------------------------------------------------------------------
class TestNullRecorder:
    def test_make_recorder_disabled_returns_singleton(self):
        assert make_recorder(None) is NULL_RECORDER
        assert make_recorder(TracingConfig()) is NULL_RECORDER

    def test_make_recorder_enabled_returns_live_recorder(self):
        recorder = make_recorder(TracingConfig(enabled=True))
        assert isinstance(recorder, TracingRecorder)
        assert recorder.enabled is True

    def test_enabled_flag_false(self):
        assert NULL_RECORDER.enabled is False

    def test_begin_returns_none_token(self):
        assert NULL_RECORDER.begin("cat", "name", sim=1, a=2) is None

    def test_end_and_event_are_noops(self):
        NULL_RECORDER.end(None, sim=5)
        NULL_RECORDER.event("cat", "name", sim=5, a=1)

    def test_span_returns_shared_context_manager(self):
        # No per-call allocation: span() hands back one shared object.
        first = NULL_RECORDER.span("cat", "a", sim=1)
        second = NULL_RECORDER.span("other", "b", x=2)
        assert first is second
        with first:
            pass

    def test_no_instance_dict(self):
        # __slots__ = () keeps the null recorder allocation-free.
        assert not hasattr(NullRecorder(), "__dict__")


# ----------------------------------------------------------------------
# The live recorder
# ----------------------------------------------------------------------
class TestTracingRecorder:
    def test_span_records_wall_and_sim(self):
        rec = TracingRecorder()
        token = rec.begin("layer", "work", sim=100, ticks=7)
        rec.end(token, sim=160, extra=1)
        assert len(rec.spans) == 1
        span = rec.spans[0]
        assert span.cat == "layer" and span.name == "work"
        assert span.sim0 == 100 and span.sim1 == 160
        assert span.sim_duration == 60
        assert span.wall_duration >= 0
        assert span.attrs == {"ticks": 7, "extra": 1}

    def test_nesting_assigns_parents(self):
        rec = TracingRecorder()
        outer = rec.begin("a", "outer")
        inner = rec.begin("b", "inner")
        rec.end(inner)
        rec.end(outer)
        by_name = {s.name: s for s in rec.spans}
        assert by_name["outer"].parent == 0
        assert by_name["inner"].parent == by_name["outer"].sid

    def test_event_attaches_to_enclosing_span(self):
        rec = TracingRecorder()
        token = rec.begin("a", "outer")
        rec.event("a", "ping", sim=3, n=1)
        rec.end(token)
        assert rec.events[0].sid == token.sid
        assert rec.events[0].attrs == {"n": 1}

    def test_event_outside_span_is_rootless(self):
        rec = TracingRecorder()
        rec.event("a", "ping")
        assert rec.events[0].sid == 0

    def test_context_manager_form(self):
        rec = TracingRecorder()
        with rec.span("a", "cm", sim=1):
            rec.event("a", "inside")
        assert rec.spans[0].name == "cm"
        assert rec.events[0].sid == rec.spans[0].sid

    def test_counts_and_aggregate(self):
        rec = TracingRecorder()
        for _ in range(3):
            rec.end(rec.begin("layer", "work", sim=0), sim=10)
        rec.event("layer", "tick")
        assert rec.span_count == 3
        assert rec.event_count == 1
        assert rec.aggregate[("layer", "work")][0] == 3
        assert rec.aggregate[("layer", "work")][2] == 30
        breakdown = rec.layer_breakdown()
        assert breakdown["layer"]["count"] == 3
        assert breakdown["layer"]["sim"] == 30

    def test_threads_get_separate_stacks(self):
        rec = TracingRecorder()
        main = rec.begin("main", "outer")
        done = threading.Event()

        def worker():
            token = rec.begin("worker", "root")
            rec.end(token)
            done.set()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert done.is_set()
        rec.end(main)
        by_name = {s.name: s for s in rec.spans}
        # The worker's span is a root on its own thread, not a child of
        # the span open on the main thread.
        assert by_name["root"].parent == 0
        assert by_name["root"].tid != by_name["outer"].tid

    def test_sampling_keeps_every_nth_root(self):
        rec = TracingRecorder(TracingConfig(enabled=True, sample_every=3))
        for index in range(9):
            token = rec.begin("s", "window", sim=index)
            rec.event("s", "inside")
            rec.end(token)
        assert len(rec.spans) == 3  # roots 0, 3, 6
        assert len(rec.events) == 3
        # The aggregate still covers every span and event.
        assert rec.span_count == 9
        assert rec.event_count == 9
        assert rec.dropped_spans == 6
        assert rec.dropped_events == 6

    def test_sampling_inherited_by_subtree(self):
        rec = TracingRecorder(TracingConfig(enabled=True, sample_every=2))
        for _ in range(2):
            root = rec.begin("s", "root")
            child = rec.begin("s", "child")
            rec.end(child)
            rec.end(root)
        # Root 0 kept with its child; root 1 dropped with its child.
        assert sorted(s.name for s in rec.spans) == ["child", "root"]

    def test_span_cap_drops_but_keeps_aggregating(self):
        rec = TracingRecorder(TracingConfig(enabled=True, max_spans=2,
                                            max_events=1))
        for _ in range(4):
            rec.end(rec.begin("s", "w"))
            rec.event("s", "e")
        assert len(rec.spans) == 2
        assert len(rec.events) == 1
        assert rec.span_count == 4
        assert rec.event_count == 4
        assert rec.dropped_spans == 2
        assert rec.dropped_events == 3

    def test_end_with_none_token_is_noop(self):
        rec = TracingRecorder()
        rec.end(None)
        assert rec.spans == [] and rec.span_count == 0

    def test_self_times_subtract_children(self):
        rec = TracingRecorder()
        outer = rec.begin("a", "outer")
        inner = rec.begin("a", "inner")
        rec.end(inner)
        rec.end(outer)
        self_times = rec.self_times()
        by_name = {s.name: s for s in rec.spans}
        outer_span, inner_span = by_name["outer"], by_name["inner"]
        assert self_times[inner_span.sid] == \
            pytest.approx(inner_span.wall_duration)
        assert self_times[outer_span.sid] == pytest.approx(
            outer_span.wall_duration - inner_span.wall_duration)


# ----------------------------------------------------------------------
# Deterministic projection
# ----------------------------------------------------------------------
class TestDeterministicView:
    def _trace(self):
        rec = TracingRecorder()
        token = rec.begin("board", "window", sim=0, ticks=5)
        rec.event("rtos", "freeze", sim=3)
        rec.end(token, sim=5)
        rec.event("master", "irq.send", sim=9, vector=2)
        return rec

    def test_excludes_wall_clock_fields(self):
        view = deterministic_view(self._trace())
        assert view["spans"] == [
            ["board", "window", 0, 5, [("ticks", 5)]],
        ]
        assert view["events"] == [
            ["rtos", "freeze", 3, []],
            ["master", "irq.send", 9, [("vector", 2)]],
        ]

    def test_category_filter(self):
        view = deterministic_view(self._trace(), cats={"rtos"})
        assert view["spans"] == []
        assert view["events"] == [["rtos", "freeze", 3, []]]

    def test_two_identical_executions_compare_equal(self):
        assert deterministic_view(self._trace()) == \
            deterministic_view(self._trace())
