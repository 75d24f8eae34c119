"""Termination-detection accounting of batched rounds.

Every batched round closes at distributed quiescence: the engine charges
the minimal clean detection exchange (two token circuits of one control
message per rank, more when a round reports reactivation waves) and
closes a barrier interval, and the cost model prices the control traffic.
"""

from repro.graph import from_edges
from repro.runtime import Engine, PartitionedGraph


class TestEngineIntegration:
    def pgraph(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)])
        return PartitionedGraph(g, 2, assignment={0: 0, 1: 1, 2: 0, 3: 1})

    def quiet_round(self, engine, circuits=2):
        engine.record_batched_round(
            [[0, 0], [0, 0]], [1, 0], circuits=circuits
        )

    def test_control_messages_recorded(self):
        engine = Engine(self.pgraph())
        self.quiet_round(engine)
        assert engine.stats.control_messages == 2 * 2  # 2 circuits x ranks
        assert engine.stats.detection_circuits == 2

    def test_ping_pong_needs_more_circuits(self):
        """A round with reactivation waves pays extra circuits."""
        quiet = Engine(self.pgraph())
        self.quiet_round(quiet)
        engine = Engine(self.pgraph())
        self.quiet_round(engine, circuits=4)
        assert engine.stats.control_messages > quiet.stats.control_messages

    def test_control_messages_in_summary_and_cost(self):
        from repro.runtime import CostModel

        engine = Engine(self.pgraph())
        self.quiet_round(engine)
        summary = engine.stats.summary()
        assert summary["control_messages"] == engine.stats.control_messages
        with_control = CostModel().makespan(engine.stats)
        free_control = CostModel(network_message_cost=0.0).makespan(engine.stats)
        assert with_control > free_control

    def test_per_traversal_reset(self):
        engine = Engine(self.pgraph())
        self.quiet_round(engine)
        first = engine.stats.control_messages
        self.quiet_round(engine)
        assert engine.stats.control_messages == 2 * first
