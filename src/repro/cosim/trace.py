"""Protocol trace recording.

Records one row per synchronization window — grant size, cumulative
times, interrupt and DATA traffic inside the window — for debugging a
co-simulation and for post-mortem analysis of controller behaviour.
Attach to any session, over any link, with
:meth:`repro.cosim.session.CosimSession.attach_trace`; export with
:meth:`ProtocolTrace.to_csv`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Sequence, TextIO, Union


@dataclass(frozen=True)
class WindowRecord:
    """One synchronization window."""

    index: int
    ticks: int
    master_cycles: int
    board_ticks: int
    interrupts: int
    data_messages: int

    FIELDS = ("index", "ticks", "master_cycles", "board_ticks",
              "interrupts", "data_messages")

    def as_row(self) -> List[int]:
        return [self.index, self.ticks, self.master_cycles,
                self.board_ticks, self.interrupts, self.data_messages]


class ProtocolTrace:
    """An append-only log of window records."""

    def __init__(self) -> None:
        self.records: List[WindowRecord] = []

    def record(self, ticks: int, master_cycles: int, board_ticks: int,
               interrupts: int, data_messages: int) -> WindowRecord:
        record = WindowRecord(
            index=len(self.records),
            ticks=ticks,
            master_cycles=master_cycles,
            board_ticks=board_ticks,
            interrupts=interrupts,
            data_messages=data_messages,
        )
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def total_interrupts(self) -> int:
        return sum(r.interrupts for r in self.records)

    def active_windows(self) -> int:
        """Windows with any interrupt or DATA traffic."""
        return sum(1 for r in self.records
                   if r.interrupts or r.data_messages)

    def window_sizes(self) -> List[int]:
        return [r.ticks for r in self.records]

    def consistent(self) -> bool:
        """Cumulative counters are monotone and aligned per record."""
        previous_cycles = 0
        for record in self.records:
            if record.master_cycles < previous_cycles:
                return False
            if record.master_cycles != record.board_ticks:
                return False
            previous_cycles = record.master_cycles
        return True

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self, target: Union[str, TextIO]) -> None:
        """Write the trace as CSV (path or open text file)."""
        if isinstance(target, str):
            with open(target, "w", newline="", encoding="ascii") as handle:
                self._write_csv(handle)
        else:
            self._write_csv(target)

    def _write_csv(self, handle: TextIO) -> None:
        writer = csv.writer(handle)
        writer.writerow(WindowRecord.FIELDS)
        for record in self.records:
            writer.writerow(record.as_row())

    @classmethod
    def from_csv(cls, source: Union[str, TextIO]) -> "ProtocolTrace":
        """Rebuild a trace from :meth:`to_csv` output (path or file).

        The inverse of :meth:`to_csv`: a write/read round trip yields a
        trace with identical records.
        """
        if isinstance(source, str):
            with open(source, "r", newline="", encoding="ascii") as handle:
                return cls._read_csv(handle)
        return cls._read_csv(source)

    @classmethod
    def _read_csv(cls, handle: TextIO) -> "ProtocolTrace":
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(WindowRecord.FIELDS):
            raise ValueError(
                f"not a protocol trace CSV: header {header!r}"
            )
        trace = cls()
        for row in reader:
            if not row:
                continue
            if len(row) != len(WindowRecord.FIELDS):
                raise ValueError(f"malformed trace row {row!r}")
            index, ticks, cycles, board_ticks, ints, data = map(int, row)
            if index != len(trace.records):
                raise ValueError(
                    f"trace row out of order: index {index}, "
                    f"expected {len(trace.records)}"
                )
            trace.record(ticks=ticks, master_cycles=cycles,
                         board_ticks=board_ticks, interrupts=ints,
                         data_messages=data)
        return trace


def rows_to_csv(target: Union[str, TextIO], headers: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    """Generic CSV export used by the analysis harnesses."""
    def write(handle: TextIO) -> None:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))

    if isinstance(target, str):
        with open(target, "w", newline="", encoding="ascii") as handle:
            write(handle)
    else:
        write(target)
