"""Tests for the engine's bulk message accounting."""

from repro.runtime import MessageStats


class TestBulkRecord:
    def test_matches_per_event_recording(self):
        per_event = MessageStats(3)
        with per_event.phase("p"):
            per_event.record_message(0, 1, False)
            per_event.record_message(0, 1, False)
            per_event.record_message(1, 2, True)
            per_event.record_message(2, 2, False)
            per_event.record_visit(0)
            per_event.record_visit(2)
        per_event.barrier()

        bulk = MessageStats(3)
        matrix = [[0, 2, 0], [0, 0, 1], [0, 0, 1]]
        visits = [1, 0, 1]
        rank_node = [0, 0, 1]  # ranks 0,1 share a node; rank 2 remote
        with bulk.phase("p"):
            bulk.bulk_record(matrix, visits, rank_node)
        bulk.barrier()

        assert bulk.summary() == per_event.summary()
        assert bulk.intervals == per_event.intervals
        assert bulk.rank_sent == per_event.rank_sent
        assert bulk.rank_visits == per_event.rank_visits

    def test_empty_matrix_noop(self):
        stats = MessageStats(2)
        stats.bulk_record([[0, 0], [0, 0]], [0, 0], [0, 1])
        assert stats.total_messages == 0
        assert stats.total_visits == 0
