"""Property-based tests for whole ``repro-recording/2`` documents (needs
hypothesis).

In the idiom of ``tests/router/test_workload_properties.py``: a valid
router recording round-trips, and any single mutation of it — a node
replaced by an arbitrary JSON value, or deleted — either loads or
raises :class:`~repro.replay.SnapshotError`, never another exception.
``repro replay`` on the mutated file exits 0, 1 or 2 with at most one
stderr line, and never with a traceback.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.cli import main  # noqa: E402
from repro.cosim import CosimConfig  # noqa: E402
from repro.replay import SessionRecording, SnapshotError  # noqa: E402
from repro.router.testbench import (  # noqa: E402
    RouterWorkload,
    build_router_cosim,
    finalize_router_recording,
)

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=8)),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text(max_size=4),
                                               children, max_size=3)),
    max_leaves=8,
)


@functools.lru_cache(maxsize=None)
def _recording_json() -> str:
    """A small valid router recording (interrupts, reads of both kinds,
    writes), built once."""
    recording = SessionRecording()
    cosim = build_router_cosim(
        CosimConfig(t_sync=300),
        RouterWorkload(packets_per_producer=2, interval_cycles=300,
                       seed=11),
        recorder=recording)
    finalize_router_recording(recording, cosim, cosim.run())
    return json.dumps(recording.to_dict())


def recording_doc() -> dict:
    """A fresh copy of the valid recording document."""
    return json.loads(_recording_json())


def _paths(node, path=()):
    """Every node's path in *node*, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


PATHS = list(_paths(recording_doc()))


def mutate(doc, path, value, delete):
    """Replace (or delete) the node at *path*; the root is replaced."""
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


mutations = st.tuples(st.sampled_from(PATHS), json_values, st.booleans())


def _replay(doc, *flags):
    """``repro replay`` on *doc*: exit code and stderr lines."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "run.json")
        with open(path, "w", encoding="ascii") as handle:
            json.dump(doc, handle)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["replay", path, *flags])
    return code, err.getvalue().splitlines()


class TestRecordingDocument:
    def test_round_trip(self):
        doc = recording_doc()
        assert SessionRecording.from_dict(doc).to_dict() == doc
        assert _replay(doc) == (0, [])

    @settings(max_examples=150, deadline=None)
    @given(mutation=mutations)
    def test_any_mutation_loads_or_is_a_snapshot_error(self, mutation):
        path, value, delete = mutation
        doc = mutate(recording_doc(), path, value, delete)
        try:
            SessionRecording.from_dict(doc)
        except SnapshotError:
            pass

    def test_control_character_in_a_row_is_one_error_line(self):
        # A bad cell is quoted: a raw "\x1e" once split the message
        # into two lines.
        doc = mutate(recording_doc(), ("boards", "board", 0, "data", 0),
                     "\x1e", False)
        code, lines = _replay(doc)
        assert code == 2
        assert len(lines) == 1 and lines[0].endswith("'\\x1e'")

    @settings(max_examples=60, deadline=None)
    @given(mutation=mutations, bisect=st.booleans())
    def test_replay_of_any_mutation_exits_0_1_or_2(self, mutation, bisect):
        path, value, delete = mutation
        doc = mutate(recording_doc(), path, value, delete)
        code, lines = _replay(doc, *(["--bisect"] if bisect else []))
        assert code in (0, 1, 2)
        assert len(lines) <= 1
