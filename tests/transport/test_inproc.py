"""Tests for the deterministic in-process link."""

import pytest

from repro.errors import TransportError
from repro.transport import ClockGrant, InprocLink, Interrupt, TimeReport


class TestPorts:
    def test_clock_port_roundtrip(self):
        link = InprocLink()
        link.master.send_grant(ClockGrant(seq=1, ticks=50))
        grant = link.board.recv_grant()
        assert grant == ClockGrant(seq=1, ticks=50)
        assert link.board.recv_grant() is None
        link.board.send_report(TimeReport(seq=1, board_ticks=50))
        assert link.master.recv_report().board_ticks == 50
        assert link.master.recv_report() is None

    def test_int_port_fifo(self):
        link = InprocLink()
        link.master.send_interrupt(Interrupt(vector=1, master_cycle=10))
        link.master.send_interrupt(Interrupt(vector=1, master_cycle=20))
        assert link.board.pending_interrupts() == 2
        assert link.board.poll_interrupt().master_cycle == 10
        assert link.board.poll_interrupt().master_cycle == 20
        assert link.board.poll_interrupt() is None

    def test_data_requires_server(self):
        link = InprocLink()
        with pytest.raises(TransportError, match="no DATA server"):
            link.board.data_read(0)
        with pytest.raises(TransportError, match="no DATA server"):
            link.board.data_write(0, 1)

    def test_data_served_synchronously(self):
        link = InprocLink()
        registers = {0: 7}

        def server(op, address, value):
            if op == "read":
                return registers[address]
            registers[address] = value
            return None

        link.data_server = server
        assert link.board.data_read(0) == 7
        link.board.data_write(0, 99)
        assert registers[0] == 99

    def test_unencodable_write_raises_the_codec_error(self):
        # The link charges each message its encoded frame, so a value
        # the wire cannot carry fails here as it would over TCP.
        link = InprocLink()
        link.data_server = lambda op, a, v: None
        with pytest.raises(TransportError,
                           match="cannot encode value of type object"):
            link.board.data_write(0, object())


class TestStats:
    def test_byte_and_message_accounting(self):
        link = InprocLink()
        link.data_server = lambda op, a, v: 5 if op == "read" else None
        link.master.send_grant(ClockGrant(seq=1, ticks=10))
        link.master.send_interrupt(Interrupt(vector=1, master_cycle=3))
        link.board.data_read(0)
        link.board.data_write(1, 2)
        stats = link.stats
        assert stats.clock_messages == 1
        assert stats.int_messages == 1
        assert stats.data_messages == 3  # read + reply + write
        assert stats.messages_sent == 5
        assert stats.bytes_sent > 0
