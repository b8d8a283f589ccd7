"""Span recording: the core of the observability subsystem.

Two recorder implementations share one API:

* :data:`NULL_RECORDER` — the no-op recorder installed everywhere by
  default.  ``enabled`` is False, ``span()`` returns one shared null
  context manager, ``begin``/``end``/``event`` do nothing.  Hot paths
  guard their instrumentation with ``if obs.enabled:`` so a disabled
  run performs **no per-event allocation** — the overhead is one
  attribute load and a branch.
* :class:`TracingRecorder` — records :class:`SpanRecord` trees with
  both wall-clock (``time.perf_counter``) and simulated-time
  endpoints, plus point :class:`EventRecord` entries, per-thread span
  stacks (the threaded session's board thread gets its own track) and
  an always-maintained per-``(cat, name)`` aggregate.  With
  ``sample_every=N`` only every N-th root span's subtree is retained
  in full; the aggregate still covers every span, giving a per-layer profile
  without storing every event.

Simulated time is whatever clock the instrumented layer lives on
(master clock cycles, board CPU cycles, simulator picoseconds, ISS
cycles); spans never mix layers, so the per-span ``sim`` delta is
always internally consistent.

:func:`deterministic_view` projects a trace onto its wall-clock-free
fields — the record/replay equivalence tests compare these views to
prove tracing itself is deterministic.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ReproError

@dataclass
class TracingConfig:
    """Tracing knobs, carried on :class:`repro.cosim.CosimConfig`.

    Disabled by default: a session built with ``enabled=False`` (or a
    config predating this field) installs :data:`NULL_RECORDER` and
    pays no tracing cost.
    """

    #: Master switch; when False the session installs NULL_RECORDER.
    enabled: bool = False
    #: Retain every N-th root span's subtree (per thread) and only
    #: aggregate the rest; 1 keeps every span.
    sample_every: int = 1
    #: Hard cap on retained span records (aggregation continues past it).
    max_spans: int = 1_000_000
    #: Hard cap on retained event records.
    max_events: int = 1_000_000

    def __post_init__(self) -> None:
        if self.sample_every <= 0:
            raise ReproError("sample_every must be positive")
        if self.max_spans <= 0 or self.max_events <= 0:
            raise ReproError("span/event caps must be positive")


class _NullSpan:
    """The shared do-nothing context manager returned by the null
    recorder's ``span()`` — one instance for the whole process."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    A single module-level instance (:data:`NULL_RECORDER`) is shared by
    every instrumented object; ``span()`` always returns the same null
    context manager, so the disabled path allocates nothing.
    """

    __slots__ = ()

    enabled = False

    def begin(self, cat: str, name: str, sim=None, **attrs) -> None:
        """No-op; returns None as the span token."""
        return None

    def end(self, token, sim=None, **attrs) -> None:
        """No-op."""

    def event(self, cat: str, name: str, sim=None, **attrs) -> None:
        """No-op."""

    def span(self, cat: str, name: str, sim=None, **attrs) -> _NullSpan:
        """Returns the shared null context manager."""
        return _NULL_SPAN


#: The process-wide disabled recorder (installed everywhere by default).
NULL_RECORDER = NullRecorder()


class SpanRecord:
    """One completed (or in-flight) span."""

    __slots__ = ("sid", "parent", "tid", "cat", "name",
                 "wall0", "wall1", "sim0", "sim1", "attrs")

    def __init__(self, sid: int, parent: int, tid: int, cat: str,
                 name: str, wall0: float, sim0, attrs: Optional[dict]):
        self.sid = sid
        self.parent = parent
        self.tid = tid
        self.cat = cat
        self.name = name
        self.wall0 = wall0
        self.wall1 = wall0
        self.sim0 = sim0
        self.sim1 = sim0
        self.attrs = attrs

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds between begin and end."""
        return self.wall1 - self.wall0

    @property
    def sim_duration(self):
        """Simulated-time delta (units of the emitting layer's clock)."""
        if self.sim0 is None or self.sim1 is None:
            return None
        return self.sim1 - self.sim0


class EventRecord:
    """One point event, attached to the enclosing span (if any)."""

    __slots__ = ("sid", "tid", "cat", "name", "wall", "sim", "attrs")

    def __init__(self, sid: int, tid: int, cat: str, name: str,
                 wall: float, sim, attrs: Optional[dict]):
        self.sid = sid
        self.tid = tid
        self.cat = cat
        self.name = name
        self.wall = wall
        self.sim = sim
        self.attrs = attrs


class _ThreadState:
    __slots__ = ("stack", "keep", "roots")

    def __init__(self) -> None:
        self.stack: List[SpanRecord] = []
        self.keep = True
        self.roots = 0


class _SpanContext:
    """Context manager wrapping begin/end for a live recorder."""

    __slots__ = ("_recorder", "_token")

    def __init__(self, recorder: "TracingRecorder", cat: str, name: str,
                 sim, attrs: dict):
        self._recorder = recorder
        self._token = recorder.begin(cat, name, sim=sim, **attrs)

    def __enter__(self) -> SpanRecord:
        return self._token

    def __exit__(self, *exc) -> bool:
        self._recorder.end(self._token)
        return False


class TracingRecorder:
    """Records spans and events with wall + simulated time.

    Thread-safe for the two-thread layout of a threaded session:
    each OS thread keeps its own span stack and sampling state; the
    retained lists and aggregates are shared (list appends are atomic
    in CPython; sid allocation uses an atomic counter).
    """

    enabled = True

    def __init__(self, config: Optional[TracingConfig] = None) -> None:
        self.config = config or TracingConfig(enabled=True)
        #: Completed spans, in completion order (capped at max_spans).
        self.spans: List[SpanRecord] = []
        #: Point events, in emission order (capped at max_events).
        self.events: List[EventRecord] = []
        #: (cat, name) -> [count, wall_seconds_total, sim_total].
        self.aggregate: Dict[Tuple[str, str], List] = {}
        #: (cat, name) -> count, over *all* events (kept or not).
        self.event_counts: Dict[Tuple[str, str], int] = {}
        #: Spans aggregated but not retained (sampling / cap overflow).
        self.dropped_spans = 0
        self.dropped_events = 0
        self._next_sid = itertools.count(1).__next__
        self._local = threading.local()
        self._tid_lock = threading.Lock()
        self._tids: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
        return state

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._tid_lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    # ------------------------------------------------------------------
    # Recording API
    # ------------------------------------------------------------------
    def begin(self, cat: str, name: str, sim=None, **attrs) -> SpanRecord:
        """Open a span; returns the token to pass to :meth:`end`."""
        state = self._state()
        if not state.stack:
            # Root span for this thread: take the sampling decision the
            # whole subtree inherits.
            if self.config.sample_every > 1:
                state.keep = (state.roots % self.config.sample_every) == 0
            state.roots += 1
        parent = state.stack[-1].sid if state.stack else 0
        record = SpanRecord(self._next_sid(), parent, self._tid(),
                            cat, name, time.perf_counter(), sim,
                            dict(attrs) if attrs else None)
        state.stack.append(record)
        return record

    def end(self, token: Optional[SpanRecord], sim=None, **attrs) -> None:
        """Close a span opened by :meth:`begin`, merging end attrs."""
        if token is None:
            return
        state = self._state()
        while state.stack:
            top = state.stack.pop()
            if top is token:
                break
        token.wall1 = time.perf_counter()
        if sim is not None:
            token.sim1 = sim
        if attrs:
            if token.attrs is None:
                token.attrs = dict(attrs)
            else:
                token.attrs.update(attrs)
        key = (token.cat, token.name)
        entry = self.aggregate.get(key)
        sim_delta = token.sim_duration
        if entry is None:
            self.aggregate[key] = [1, token.wall_duration, sim_delta or 0]
        else:
            entry[0] += 1
            entry[1] += token.wall_duration
            entry[2] += sim_delta or 0
        if state.keep and len(self.spans) < self.config.max_spans:
            self.spans.append(token)
        else:
            self.dropped_spans += 1

    def event(self, cat: str, name: str, sim=None, **attrs) -> None:
        """Record a point event inside the current span (if any)."""
        state = self._state()
        key = (cat, name)
        self.event_counts[key] = self.event_counts.get(key, 0) + 1
        if not (state.keep and len(self.events) < self.config.max_events):
            self.dropped_events += 1
            return
        sid = state.stack[-1].sid if state.stack else 0
        self.events.append(EventRecord(sid, self._tid(), cat, name,
                                       time.perf_counter(), sim,
                                       dict(attrs) if attrs else None))

    def span(self, cat: str, name: str, sim=None, **attrs) -> _SpanContext:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        return _SpanContext(self, cat, name, sim, attrs)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def span_count(self) -> int:
        """Total spans ended (retained or aggregated-only)."""
        return sum(entry[0] for entry in self.aggregate.values())

    @property
    def event_count(self) -> int:
        """Total events emitted (retained or not)."""
        return sum(self.event_counts.values())

    def layer_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-category (layer) inclusive totals from the aggregate:
        ``{cat: {"count": n, "wall_s": seconds, "sim": units}}``."""
        layers: Dict[str, Dict[str, float]] = {}
        for (cat, _name), (count, wall, sim) in self.aggregate.items():
            entry = layers.setdefault(
                cat, {"count": 0, "wall_s": 0.0, "sim": 0})
            entry["count"] += count
            entry["wall_s"] += wall
            entry["sim"] += sim
        return layers

    def self_times(self) -> Dict[int, float]:
        """Wall self-time (inclusive minus retained children) per
        retained span, keyed by sid."""
        child_wall: Dict[int, float] = {}
        for span in self.spans:
            if span.parent:
                child_wall[span.parent] = (child_wall.get(span.parent, 0.0)
                                           + span.wall_duration)
        return {span.sid: span.wall_duration - child_wall.get(span.sid, 0.0)
                for span in self.spans}


def make_recorder(config: Optional[TracingConfig]):
    """The recorder for *config*: :data:`NULL_RECORDER` unless tracing
    is explicitly enabled."""
    if config is None or not config.enabled:
        return NULL_RECORDER
    return TracingRecorder(config)


def install_recorder(obs, master=None, runtime=None) -> None:
    """Install *obs* across a co-simulation's layers.

    Covers the master (and its simulator, when it has one: a plugin
    master does not), the board runtime (its RTOS kernel, and every
    endpoint wrapper in the ``inner`` chain that declares an ``obs``
    slot — e.g. the fault injector).  Layers not reached here keep the
    class-level :data:`NULL_RECORDER`.
    """
    if master is not None:
        master.obs = obs
        if master.sim is not None:
            master.sim.obs = obs
    if runtime is not None:
        runtime.obs = obs
        runtime.board.kernel.obs = obs
        endpoint = runtime.endpoint
        while endpoint is not None:
            if hasattr(type(endpoint), "obs"):
                endpoint.obs = obs
            endpoint = getattr(endpoint, "inner", None)


def _attr_items(attrs: Optional[dict]) -> list:
    if not attrs:
        return []
    return sorted(attrs.items())


def deterministic_view(recorder,
                       cats: Optional[Iterable[str]] = None) -> dict:
    """Project a trace onto its deterministic fields.

    Wall-clock fields, span ids and nesting depth are excluded (they
    differ between a live run and a replay); what remains — category,
    name, simulated-time endpoints, attributes, and ordering — must be
    identical when the underlying execution is deterministic.  Filter
    with *cats* to the layers both runs execute (a replay re-executes
    only the board side).
    """
    wanted: Optional[Set[str]] = set(cats) if cats is not None else None
    spans = [[s.cat, s.name, s.sim0, s.sim1, _attr_items(s.attrs)]
             for s in getattr(recorder, "spans", [])
             if wanted is None or s.cat in wanted]
    events = [[e.cat, e.name, e.sim, _attr_items(e.attrs)]
              for e in getattr(recorder, "events", [])
              if wanted is None or e.cat in wanted]
    return {"spans": spans, "events": events}
