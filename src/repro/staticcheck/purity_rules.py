"""Snapshot-purity analysis (rules SNAP001–SNAP003).

Checkpointing, replay and speculation's rollback all assume one thing
about every Snapshotable class: ``snapshot()`` captures *all* the state
that evolves, and ``restore()`` re-establishes it.  The fuzzer once
found the counterexample dynamically — fault injectors hold drop
schedules outside the snapshot, so a restored session silently skipped
scheduled faults — and this pass exists so the next such class is
caught before a fuzzer has to trip over it.

For every class that defines both ``snapshot`` and ``restore``, the
pass statically diffs three views of its state:

* ``SNAP001`` — *hidden mutable state*: an ``__init__``-assigned
  attribute that other methods mutate (reassignment, augmented
  assignment, or ``.append``/``.update``-style calls on a mutable
  initializer) but that neither ``snapshot()`` nor ``restore()`` ever
  touches;
* ``SNAP002`` — *snapshot/restore asymmetry*: when both sides are
  statically readable (a dict-literal ``return`` in ``snapshot()``, a
  ``state[...]`` parameter in ``restore()``), a key captured but never
  applied — or applied but never captured — is an error;
* ``SNAP003`` — *aliased snapshot state*: the snapshot dict stores a
  bare ``self.x`` reference to an attribute initialized to a mutable
  container; later in-place mutation corrupts the already-taken
  checkpoint (the protocol promises plain data, freshly copied).

Intentional exceptions are waived per line with a trailing
``# lint: disable=SNAP00x`` comment, same as the concurrency pass.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.staticcheck.concurrency_rules import (
    _line_suppressions,
    _self_attr,
    default_root,
)
from repro.staticcheck.diagnostics import LintReport

#: Calls on an attribute that mutate a container in place.
MUTATING_METHODS = {"append", "extend", "insert", "add", "update",
                    "pop", "popleft", "appendleft", "remove", "clear",
                    "setdefault", "discard"}

#: Constructors whose result is a mutable container.
MUTABLE_FACTORIES = {"list", "dict", "set", "deque", "defaultdict",
                     "OrderedDict", "Counter", "bytearray"}


def _is_mutable_initializer(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        return name in MUTABLE_FACTORIES
    return False


@dataclass
class SnapshotClassFacts:
    """Statically extracted state view of one Snapshotable class."""

    qualname: str
    line: int
    #: attr -> (line, initializer-is-mutable)
    init_attrs: Dict[str, Tuple[int, bool]] = field(default_factory=dict)
    #: attr -> witness line of a mutation outside __init__/snapshot/
    #: restore.
    mutated: Dict[str, int] = field(default_factory=dict)
    #: Attributes referenced anywhere inside snapshot() or restore().
    captured: Set[str] = field(default_factory=set)
    #: snapshot(): key -> (value-is-bare-self-attr-or-None, line);
    #: None when the snapshot body is not a statically readable
    #: dict-literal return.
    snapshot_keys: Optional[Dict[str, Tuple[Optional[str], int]]] = None
    snapshot_line: int = 0
    #: restore(): keys read off the state parameter; None when the
    #: parameter's reads are not statically extractable.
    restore_keys: Optional[Set[str]] = None
    restore_line: int = 0
    #: snapshot()/restore() iterate attributes dynamically
    #: (getattr/setattr over a field list) — SNAP001 cannot tell which
    #: attributes they cover, so it stays silent for the class.
    dynamic_capture: bool = False


def _extract_snapshot_keys(func) -> Optional[Dict[str, Tuple[Optional[str],
                                                             int]]]:
    """Keys of the returned dict literal, or None if not readable."""
    returns = [node for node in ast.walk(func)
               if isinstance(node, ast.Return) and node.value is not None]
    if len(returns) != 1 or not isinstance(returns[0].value, ast.Dict):
        return None
    out: Dict[str, Tuple[Optional[str], int]] = {}
    literal = returns[0].value
    for key, value in zip(literal.keys, literal.values):
        if not (isinstance(key, ast.Constant)
                and isinstance(key.value, str)):
            return None
        out[key.value] = (_self_attr(value), key.lineno)
    return out


def _extract_restore_keys(func) -> Optional[Set[str]]:
    """String keys subscripted off the state parameter, or None."""
    args = [a.arg for a in func.args.args if a.arg != "self"]
    if not args:
        return None
    param = args[0]
    keys: Set[str] = set()
    readable = False
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == param:
            if isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, str):
                keys.add(node.slice.value)
                readable = True
            else:
                return None  # dynamic key — give up, stay silent
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == param \
                and node.func.attr == "get" and node.args:
            head = node.args[0]
            if isinstance(head, ast.Constant) \
                    and isinstance(head.value, str):
                keys.add(head.value)
                readable = True
    return keys if readable else None


def _collect_class(node: ast.ClassDef, rel: str) -> \
        Optional[SnapshotClassFacts]:
    methods = {item.name: item for item in node.body
               if isinstance(item, (ast.FunctionDef,
                                    ast.AsyncFunctionDef))}
    if "snapshot" not in methods or "restore" not in methods:
        return None
    facts = SnapshotClassFacts(qualname=f"{rel}:{node.name}",
                               line=node.lineno)

    init = methods.get("__init__")
    if init is not None:
        for item in ast.walk(init):
            if isinstance(item, ast.Assign):
                for tgt in item.targets:
                    attr = _self_attr(tgt)
                    if attr is not None and attr not in facts.init_attrs:
                        facts.init_attrs[attr] = (
                            item.lineno,
                            _is_mutable_initializer(item.value))

    for name, func in methods.items():
        if name in ("__init__", "snapshot", "restore"):
            continue
        for item in ast.walk(func):
            if isinstance(item, (ast.Assign, ast.AugAssign)):
                targets = item.targets if isinstance(item, ast.Assign) \
                    else [item.target]
                for tgt in targets:
                    attr = _self_attr(tgt)
                    if attr is not None:
                        facts.mutated.setdefault(attr, item.lineno)
            elif isinstance(item, ast.Call) \
                    and isinstance(item.func, ast.Attribute) \
                    and item.func.attr in MUTATING_METHODS:
                attr = _self_attr(item.func.value)
                if attr is not None:
                    init_info = facts.init_attrs.get(attr)
                    if init_info is not None and init_info[1]:
                        facts.mutated.setdefault(attr, item.lineno)

    for name in ("snapshot", "restore"):
        for item in ast.walk(methods[name]):
            attr = _self_attr(item)
            if attr is not None:
                facts.captured.add(attr)
            if isinstance(item, ast.Call) \
                    and isinstance(item.func, ast.Name) \
                    and item.func.id in ("getattr", "setattr") \
                    and item.args \
                    and isinstance(item.args[0], ast.Name) \
                    and item.args[0].id == "self":
                facts.dynamic_capture = True

    facts.snapshot_keys = _extract_snapshot_keys(methods["snapshot"])
    facts.snapshot_line = methods["snapshot"].lineno
    facts.restore_keys = _extract_restore_keys(methods["restore"])
    facts.restore_line = methods["restore"].lineno
    return facts


def collect_snapshot_classes(
        root: Optional[pathlib.Path] = None) -> \
        List[Tuple[SnapshotClassFacts, Dict[int, Set[str]]]]:
    """All Snapshotable classes under *root* with their suppressions."""
    root = pathlib.Path(root) if root is not None else default_root()
    if root.is_file():
        files = [root]
        base = root.parent
    else:
        files = sorted(root.rglob("*.py"))
        base = root
    out = []
    for path in files:
        rel = str(path.relative_to(base))
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        suppressions = _line_suppressions(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                facts = _collect_class(node, rel)
                if facts is not None:
                    out.append((facts, suppressions))
    return out


def check_snapshot_purity(report: LintReport,
                          root: Optional[pathlib.Path] = None,
                          target: str = "purity") -> None:
    """Run SNAP001–SNAP003 over *root* (``src/repro`` by default)."""
    report.begin_target(target)
    for facts, suppressions in collect_snapshot_classes(root):
        rel = facts.qualname.split(":", 1)[0]

        def waived(line: int) -> Set[str]:
            return suppressions.get(line, set())

        # SNAP001 — hidden mutable state.
        for attr, mut_line in sorted(facts.mutated.items()):
            if facts.dynamic_capture:
                break
            if attr not in facts.init_attrs:
                continue
            if attr in facts.captured:
                continue
            init_line = facts.init_attrs[attr][0]
            report.add(
                "SNAP001",
                f"{facts.qualname}.{attr} is mutated (e.g. line "
                f"{mut_line}) but neither snapshot() nor restore() "
                f"touches it — checkpoints silently drift",
                rel, init_line,
                extra_suppress=waived(init_line) | waived(mut_line),
            )

        # SNAP002 — snapshot/restore key asymmetry.
        if facts.snapshot_keys is not None \
                and facts.restore_keys is not None:
            for key, (_alias, line) in sorted(facts.snapshot_keys.items()):
                if key not in facts.restore_keys:
                    report.add(
                        "SNAP002",
                        f"{facts.qualname}.snapshot() captures "
                        f"{key!r} but restore() never applies it",
                        rel, line,
                        extra_suppress=waived(line),
                    )
            for key in sorted(facts.restore_keys
                              - set(facts.snapshot_keys)):
                report.add(
                    "SNAP002",
                    f"{facts.qualname}.restore() reads {key!r} but "
                    f"snapshot() never captures it",
                    rel, facts.restore_line,
                    extra_suppress=waived(facts.restore_line),
                )

        # SNAP003 — mutable state stored by reference.
        if facts.snapshot_keys is not None:
            for key, (alias, line) in sorted(facts.snapshot_keys.items()):
                if alias is None:
                    continue
                init_info = facts.init_attrs.get(alias)
                if init_info is not None and init_info[1]:
                    report.add(
                        "SNAP003",
                        f"{facts.qualname}.snapshot() stores mutable "
                        f"self.{alias} by reference under {key!r} — "
                        f"copy it (later mutation corrupts the "
                        f"checkpoint)",
                        rel, line,
                        extra_suppress=waived(line),
                    )
