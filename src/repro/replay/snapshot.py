"""The ``Snapshotable`` protocol and checkpoint value encoding.

A component participates in checkpointing by implementing two methods::

    def snapshot(self) -> dict: ...      # plain-data state tree
    def restore(self, state) -> None: ...

``snapshot`` must return only *plain data*: dicts with string keys,
lists, ints, floats, bools, strings, ``None`` — and ``bytes``, which
the serializer transparently encodes (zlib + base64) and decodes.  The
same tree fed back to ``restore`` must reproduce the component's
externally visible state.

Python generators (RTOS thread bodies, simkernel thread processes)
cannot be serialized, so a snapshot alone cannot resurrect a mid-run
session from nothing.  The subsystem therefore uses snapshots two ways:

* as the *verification payload* of a checkpoint: a fresh session is
  deterministically re-executed up to the checkpoint window and its
  snapshot digest compared against the stored one (see
  :mod:`repro.replay.checkpoint`) — the paper's own constraint that a
  real board cannot roll back, solved the way replay debuggers solve
  it;
* as the *restore payload* for plain-state components (counters,
  registers, memory, queues), which ``restore`` applies directly.
"""

from __future__ import annotations

import base64
import hashlib
import json
import zlib
from collections import deque
from typing import Any, Dict, Iterable, Tuple

from repro.errors import ReproError

#: Marker key for encoded byte strings inside a JSON checkpoint tree.
BYTES_KEY = "__bytes_zb64__"


class SnapshotError(ReproError):
    """Malformed snapshot tree, schema mismatch or failed restore."""


def is_snapshotable(obj: Any) -> bool:
    """Duck-typed protocol check: callable ``snapshot`` and ``restore``."""
    return (callable(getattr(obj, "snapshot", None))
            and callable(getattr(obj, "restore", None)))


class Snapshotable:
    """Optional base class documenting the protocol (duck typing is
    equally accepted everywhere — see :func:`is_snapshotable`)."""

    def snapshot(self) -> dict:
        raise NotImplementedError

    def restore(self, state: dict) -> None:
        raise NotImplementedError


class AttrSnapshot(Snapshotable):
    """Mixin: snapshot/restore the attributes named in ``SNAPSHOT_ATTRS``.

    Container attributes keep their runtime type on restore: a value
    restored into an attribute currently holding a ``deque``,
    ``bytearray`` or ``set`` is coerced back into that type.
    """

    SNAPSHOT_ATTRS: Tuple[str, ...] = ()

    def snapshot(self) -> dict:
        return {name: plain_copy(getattr(self, name))
                for name in self.SNAPSHOT_ATTRS}

    def restore(self, state: dict) -> None:
        for name in self.SNAPSHOT_ATTRS:
            if name not in state:
                raise SnapshotError(
                    f"{type(self).__name__}: snapshot missing {name!r}"
                )
            current = getattr(self, name, None)
            value = state[name]
            if isinstance(current, deque):
                value = deque(value)
            elif isinstance(current, bytearray):
                value = bytearray(value)
            elif isinstance(current, set):
                value = set(value)
            setattr(self, name, value)


def plain_copy(value: Any) -> Any:
    """Deep-copy *value* into plain data (dict/list/scalars/bytes)."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, dict):
        return {str(key): plain_copy(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, deque, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) \
            else value
        return [plain_copy(item) for item in items]
    raise SnapshotError(
        f"value of type {type(value).__name__} is not snapshot-plain"
    )


# ----------------------------------------------------------------------
# JSON-safe encoding (bytes <-> zlib+base64) and digests
# ----------------------------------------------------------------------
def encode_tree(value: Any) -> Any:
    """Make a plain-data tree JSON-safe (bytes become marker dicts)."""
    if isinstance(value, (bytes, bytearray)):
        packed = base64.b64encode(zlib.compress(bytes(value))).decode("ascii")
        return {BYTES_KEY: packed}
    if isinstance(value, dict):
        if BYTES_KEY in value:
            raise SnapshotError(f"reserved key {BYTES_KEY!r} in snapshot")
        return {key: encode_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, deque)):
        return [encode_tree(item) for item in value]
    return value


def decode_tree(value: Any) -> Any:
    """Inverse of :func:`encode_tree`."""
    if isinstance(value, dict):
        if set(value.keys()) == {BYTES_KEY}:
            try:
                return zlib.decompress(base64.b64decode(value[BYTES_KEY]))
            except (TypeError, ValueError, zlib.error) as exc:
                raise SnapshotError(f"corrupt byte payload: {exc}") from None
        return {key: decode_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_tree(item) for item in value]
    return value


def check_int_rows(rows: Any, what: str, width: int = 0) -> None:
    """Raise :class:`SnapshotError` unless *rows* is a list of lists of
    ints (each *width* long, when given)."""
    if not isinstance(rows, list):
        raise SnapshotError(f"{what} is not a list")
    for index, row in enumerate(rows):
        if (not isinstance(row, list) or (width and len(row) != width)
                or not all(isinstance(cell, int) for cell in row)):
            shape = f"{width} integers" if width else "a list of integers"
            raise SnapshotError(
                f"{what} row {index} is not {shape}: {repr(row)[:60]}")


def canonical_json(tree: Any) -> str:
    """Deterministic serialization: sorted keys, no whitespace drift."""
    return json.dumps(encode_tree(tree), sort_keys=True,
                      separators=(",", ":"))


def state_digest(tree: Any) -> str:
    """SHA-256 over the canonical JSON form of a snapshot tree."""
    return hashlib.sha256(canonical_json(tree).encode("ascii")).hexdigest()


def diff_trees(expected: Any, actual: Any, path: str = "") -> list:
    """Leaf-level differences between two snapshot trees.

    Returns ``[(path, expected_leaf, actual_leaf), ...]`` — the
    forensic half of divergence detection: the digest says *whether*
    two states differ, this says *where*.
    """
    diffs: list = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected:
                diffs.append((sub, "<absent>", actual[key]))
            elif key not in actual:
                diffs.append((sub, expected[key], "<absent>"))
            else:
                diffs.extend(diff_trees(expected[key], actual[key], sub))
        return diffs
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append((f"{path}.len", len(expected), len(actual)))
            return diffs
        for index, (exp, act) in enumerate(zip(expected, actual)):
            diffs.extend(diff_trees(exp, act, f"{path}[{index}]"))
        return diffs
    if expected != actual:
        diffs.append((path, expected, actual))
    return diffs


def missing_snapshotables(objects: Iterable[Tuple[str, Any]]) -> list:
    """Names from ``(name, obj)`` pairs that break the protocol."""
    return [name for name, obj in objects if not is_snapshotable(obj)]


def require_keys(state: Dict[str, Any], keys: Iterable[str],
                 owner: str) -> None:
    """Raise :class:`SnapshotError` unless every key is present."""
    missing = [key for key in keys if key not in state]
    if missing:
        raise SnapshotError(f"{owner}: snapshot missing keys {missing}")
