"""Tests for message accounting, the cost model and the round-accounting engine."""

import pytest

import numpy as np

from repro.core.arraystate import _RoundAccounting, csr_of
from repro.errors import EngineError
from repro.graph import from_edges
from repro.runtime import (
    CostModel,
    Engine,
    MessageStats,
    PartitionedGraph,
)


def two_rank_pgraph():
    g = from_edges([(0, 1), (1, 2), (2, 3)])
    return PartitionedGraph(g, 2, assignment={0: 0, 1: 1, 2: 0, 3: 1})


class TestMessageStats:
    def test_phase_attribution(self):
        stats = MessageStats(2)
        with stats.phase("lcc"):
            stats.record_message(0, 1, False)
        stats.record_message(0, 0, False)
        assert stats.phases["lcc"].messages == 1
        assert stats.phases["default"].messages == 1
        assert stats.phase_fraction("lcc") == pytest.approx(0.5)

    def test_nested_phases(self):
        stats = MessageStats(1)
        with stats.phase("outer"):
            with stats.phase("inner"):
                stats.record_message(0, 0, False)
        assert stats.phases["inner"].messages == 1
        assert "outer" not in stats.phases or stats.phases["outer"].messages == 0

    def test_remote_fraction(self):
        stats = MessageStats(2)
        stats.record_message(0, 1, False)
        stats.record_message(0, 0, False)
        assert stats.remote_fraction() == pytest.approx(0.5)

    def test_remote_fraction_empty(self):
        assert MessageStats(2).remote_fraction() == 0.0

    def test_barrier_records_interval_maxima(self):
        stats = MessageStats(2)
        stats.record_visit(0)
        stats.record_visit(0)
        stats.record_visit(1)
        stats.record_message(0, 1, True)
        stats.barrier()
        assert stats.intervals == [(2, 1, 1, 1)]

    def test_intervals_reset_after_barrier(self):
        stats = MessageStats(2)
        stats.record_visit(0)
        stats.barrier()
        stats.barrier()
        assert stats.intervals[1] == (0, 0, 0, 0)

    def test_summary_keys(self):
        stats = MessageStats(1)
        stats.record_message(0, 0, False)
        stats.barrier()
        summary = stats.summary()
        assert summary["total_messages"] == 1
        assert summary["barriers"] == 1
        assert "default" in summary["phases"]


class TestCostModel:
    def test_makespan_counts_critical_path(self):
        stats = MessageStats(2)
        # rank 0 does 10 visits, rank 1 does 2 -> critical path is 10
        for _ in range(10):
            stats.record_visit(0)
        for _ in range(2):
            stats.record_visit(1)
        stats.barrier()
        model = CostModel(visit_cost=1.0, barrier_cost=0.0)
        assert model.makespan(stats) == pytest.approx(10.0)

    def test_remote_messages_cost_more(self):
        local = MessageStats(2)
        local.record_message(0, 0, False)
        local.barrier()
        remote = MessageStats(2)
        remote.record_message(0, 1, True)
        remote.barrier()
        model = CostModel(barrier_cost=0.0)
        assert model.makespan(remote) > model.makespan(local)

    def test_shared_memory_cheaper_than_network(self):
        shm = MessageStats(2)
        shm.record_message(0, 1, False)  # cross-rank, same node
        shm.barrier()
        net = MessageStats(2)
        net.record_message(0, 1, True)  # cross-rank, cross-node
        net.barrier()
        model = CostModel(barrier_cost=0.0)
        assert model.makespan(shm) < model.makespan(net)

    def test_oversubscription_scales_compute(self):
        stats = MessageStats(1)
        stats.record_visit(0)
        stats.barrier()
        base = CostModel(barrier_cost=0.0)
        over = CostModel(barrier_cost=0.0, oversubscription=2.0)
        assert over.makespan(stats) == pytest.approx(2 * base.makespan(stats))

    def test_makespan_between(self):
        stats = MessageStats(1)
        stats.record_visit(0)
        stats.barrier()
        stats.record_visit(0)
        stats.record_visit(0)
        stats.barrier()
        model = CostModel(visit_cost=1.0, barrier_cost=0.0)
        assert model.makespan_between(stats, 1) == pytest.approx(2.0)
        assert model.makespan_between(stats, 0, 1) == pytest.approx(1.0)


def broadcast_round(engine, senders=None):
    """One batched round: ``senders`` (default: every vertex) send one
    message along each incident directed edge."""
    csr = csr_of(engine.pgraph.graph)
    if senders is None:
        senders = csr.order.tolist()
    sending = np.isin(csr.order, list(senders))
    seed_idx = np.nonzero(sending)[0]
    edge_idx = np.nonzero(sending[csr.src])[0]
    _RoundAccounting(engine, csr).record_round(seed_idx, edge_idx)


class TestEngine:
    def test_seed_visitors_delivered(self):
        pg = two_rank_pgraph()
        engine = Engine(pg)
        csr = csr_of(pg.graph)
        _RoundAccounting(engine, csr).record_round(
            np.arange(csr.num_vertices), np.zeros(0, dtype=np.int64)
        )
        assert engine.stats.total_visits == 4
        assert engine.stats.total_messages == 0

    def test_push_counts_messages(self):
        pg = two_rank_pgraph()
        engine = Engine(pg)
        broadcast_round(engine)
        assert engine.stats.total_messages == 2 * pg.graph.num_edges
        # alternating partition makes all messages remote
        assert engine.stats.total_remote_messages == 6
        # one visit per seed plus one per delivered message
        assert engine.stats.total_visits == 4 + 6

    def test_quiescence(self):
        pg = two_rank_pgraph()
        engine = Engine(pg)
        engine.record_batched_round([[0, 0], [0, 0]], [1, 0])
        assert engine.stats.total_barriers == 1
        assert engine.stats.total_visits == 1

    def test_deterministic_order(self):
        def run():
            engine = Engine(two_rank_pgraph())
            broadcast_round(engine)
            broadcast_round(engine, senders=[1, 2])
            return engine.stats.summary(), engine.stats.intervals

        assert run() == run()

    def test_stats_rank_mismatch_rejected(self):
        with pytest.raises(EngineError):
            Engine(two_rank_pgraph(), stats=MessageStats(5))

    def test_delegate_pushes_handled_locally(self):
        g = from_edges([(0, i) for i in range(1, 9)])
        pg = PartitionedGraph(
            g, 2, assignment={v: v % 2 for v in g.vertices()},
            delegate_degree_threshold=5,
        )
        engine = Engine(pg)
        # every leaf sends to the hub, whose delegate copy is rank-local
        broadcast_round(engine, senders=range(1, 9))
        assert engine.stats.total_remote_messages == 0
        assert engine.stats.total_messages == 8
