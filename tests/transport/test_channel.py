"""Tests for the default endpoint behaviour every link inherits."""

from collections import deque

from repro.transport.channel import MasterEndpoint
from repro.transport.messages import DataWrite


class PendingWrites(MasterEndpoint):
    """A master endpoint with *count* DATA writes waiting."""

    def __init__(self, count):
        self.pending = deque(DataWrite(seq, seq, b"x")
                             for seq in range(count))

    def poll_data(self):
        return self.pending.popleft() if self.pending else None


class TestPollDataBatch:
    def test_poll_data_batch_drains_in_arrival_order(self):
        endpoint = PendingWrites(5)
        batch = endpoint.poll_data_batch()
        assert [r.address for r in batch] == [0, 1, 2, 3, 4]
        assert endpoint.poll_data_batch() == []

    def test_poll_data_batch_honours_limit(self):
        endpoint = PendingWrites(5)
        assert len(endpoint.poll_data_batch(limit=2)) == 2
        assert len(endpoint.poll_data_batch()) == 3
