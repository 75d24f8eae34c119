"""Simulated HavoqGT-style distributed runtime.

In-process reproduction of the MPI substrate the paper builds on: hash and
delegate partitioning, a vertex-centric engine that accounts each batched
round's messages (local / remote / cross-network) and barriers, a parallel
cost model, load balancing, and checkpointing.
"""

from .balance import rebalance_cost, reload_on, reshuffle
from .checkpoint import load_checkpoint, save_checkpoint
from .engine import Engine
from .messages import CostModel, MessageStats, PhaseCounters
from .parallel import PrototypeSearchPool
from .partition import (
    PartitionedGraph,
    balanced_assignment,
    block_assignment,
    hash_assignment,
)
from .store import DistributedGraphStore, RankShard
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "CostModel",
    "Engine",
    "MessageStats",
    "NULL_TRACER",
    "NullTracer",
    "PartitionedGraph",
    "PhaseCounters",
    "DistributedGraphStore",
    "PrototypeSearchPool",
    "RankShard",
    "Span",
    "Tracer",
    "balanced_assignment",
    "block_assignment",
    "hash_assignment",
    "load_checkpoint",
    "rebalance_cost",
    "reload_on",
    "reshuffle",
    "save_checkpoint",
]
