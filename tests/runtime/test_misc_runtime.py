"""Remaining runtime coverage: counters and merge helpers."""

from repro.core.pipeline import merge_message_stats
from repro.runtime import MessageStats
from repro.runtime.messages import PhaseCounters


class TestPhaseCounters:
    def test_merged_with(self):
        a = PhaseCounters()
        a.messages, a.remote_messages, a.visits, a.barriers = 5, 2, 7, 1
        b = PhaseCounters()
        b.messages, b.network_messages = 3, 1
        merged = a.merged_with(b)
        assert merged.messages == 8
        assert merged.remote_messages == 2
        assert merged.network_messages == 1
        assert merged.visits == 7
        assert merged.barriers == 1
        # inputs untouched
        assert a.messages == 5 and b.messages == 3


class TestMergeMessageStats:
    def test_merges_phases_and_controls(self):
        a = MessageStats(2)
        with a.phase("lcc"):
            a.record_message(0, 1, True)
            a.record_visit(0)
        a.record_quiescence(4, 2)
        a.barrier()

        b = MessageStats(2)
        with b.phase("lcc"):
            b.record_message(1, 1, False)
        with b.phase("nlcc"):
            b.record_message(0, 1, True)
        b.barrier()

        merged = merge_message_stats([a, b])
        assert merged["total_messages"] == 3
        assert merged["remote_messages"] == 2
        assert merged["control_messages"] == 4
        assert merged["phases"]["lcc"]["messages"] == 2
        assert merged["phases"]["nlcc"]["messages"] == 1
        assert merged["barriers"] == 2
        assert 0 <= merged["remote_fraction"] <= 1

    def test_empty_merge(self):
        merged = merge_message_stats([])
        assert merged["total_messages"] == 0
        assert merged["remote_fraction"] == 0.0

    def test_peak_interval_tracked(self):
        a = MessageStats(1)
        for _ in range(5):
            a.record_message(0, 0, False)
        a.barrier()
        merged = merge_message_stats([a])
        assert merged["peak_interval_messages"] == 5
