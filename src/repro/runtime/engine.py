"""Vertex-centric execution accounting (HavoqGT simulation).

The algorithms of Algs. 4 and 5 are vertex-centric: every round, active
vertices send messages to neighbors over active edges, and a round ends
at distributed quiescence.  The vectorized kernels
(:mod:`repro.core.arraystate`) execute each such round as whole arrays;
the :class:`Engine` is the accounting object they report to:

* each round's rank-by-rank message matrix and per-rank visit counts are
  recorded in :class:`~repro.runtime.messages.MessageStats` with
  local/remote/network classification;
* every round closes a barrier interval (plus the minimal clean
  termination-detection exchange) so the cost model can compute the
  critical-path makespan;
* with an enabled tracer, every round becomes a ``round`` span.

Determinism: given the same graph, partitioning and algorithm, the
recorded counts are fully deterministic, which the test suite relies on.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..errors import EngineError
from .messages import MessageStats
from .metrics import MetricsRegistry
from .partition import PartitionedGraph
from .trace import NULL_TRACER


class Engine:
    """Accounts batched vertex-centric rounds over a partitioned graph.

    Parameters
    ----------
    pgraph:
        The partitioned background graph.
    stats:
        Message accounting sink; a fresh one is created if omitted.
    tracer:
        Span tracer; every batched round records a ``round`` span with
        message/visit/worklist counters when tracing is enabled.
        Defaults to the zero-overhead
        :data:`~repro.runtime.trace.NULL_TRACER`.
    metrics:
        Always-on :class:`~repro.runtime.metrics.MetricsRegistry` the hot
        modules (array fixpoint, token walks, NLCC) account into; a fresh
        registry is created if omitted so ``engine.metrics`` is never
        None.  The pipeline passes its per-run registry here, which is
        how one run's rounds aggregate across prototypes and levels.
    """

    def __init__(
        self,
        pgraph: PartitionedGraph,
        stats: Optional[MessageStats] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.pgraph = pgraph
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = stats if stats is not None else MessageStats(pgraph.num_ranks)
        if self.stats.num_ranks != pgraph.num_ranks:
            raise EngineError("stats rank count does not match partitioning")
        self._rank_node = [pgraph.node_of_rank(r) for r in range(pgraph.num_ranks)]
        # Metric handle resolved once (hot paths pay one cell add each).
        self._m_batched_rounds = self.metrics.counter("engine.rounds_batched")

    def _record_round_span(
        self,
        round_started: float,
        msg_matrix: List[List[int]],
        visit_counts: List[int],
        worklist: Optional[int] = None,
    ) -> None:
        """Close one per-round trace span from a rank-by-rank matrix."""
        messages = sum(sum(row) for row in msg_matrix)
        local = sum(row[rank] for rank, row in enumerate(msg_matrix))
        counters = {
            "messages": messages,
            "remote_messages": messages - local,
            "visits": sum(visit_counts),
        }
        if worklist is not None:
            counters["worklist"] = worklist
        self.tracer.record_span(
            "round", round_started, time.perf_counter(), counters=counters
        )

    def record_batched_round(
        self,
        msg_matrix: List[List[int]],
        visit_counts: List[int],
        circuits: int = 2,
        round_started: Optional[float] = None,
        worklist: Optional[int] = None,
    ) -> None:
        """Account one batched (array-executed) broadcast round.

        The vectorized kernels (:mod:`repro.core.arraystate`) execute a
        whole round as structured arrays and report its rank-by-rank
        message matrix and per-rank visit counts, plus the minimal clean
        termination-detection exchange (``circuits`` token circuits of
        one control message per rank — two when no reactivation wave
        occurs).  Closes a barrier interval.

        ``round_started`` (a ``perf_counter`` stamp taken at the round's
        start) and ``worklist`` (the broadcaster count) feed the per-round
        trace span when tracing is enabled; both are ignored otherwise.
        """
        self._m_batched_rounds.inc()
        if round_started is not None and self.tracer.enabled:
            self._record_round_span(
                round_started, msg_matrix, visit_counts, worklist
            )
        self.stats.record_quiescence(
            self.pgraph.num_ranks * circuits, circuits
        )
        self.stats.bulk_record(msg_matrix, visit_counts, self._rank_node)
        self.stats.barrier()
