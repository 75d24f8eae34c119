"""Maximum candidate set generation — ``M*`` (§3.1, Fig. 1).

``M*`` is the union of all possible approximate matches of the template,
irrespective of edit-distance.  The key insight making it cheap: it depends
only on *local* information.  A vertex can participate in some prototype
match as role ``a`` only if

* its label equals ``l(a)``;
* every *mandatory* neighbor of ``a`` is witnessed by an active neighbor
  (mandatory edges survive in every prototype); and
* at least one template-neighbor of ``a`` is witnessed at all — every
  prototype is connected over the full vertex set ``W0``, so role ``a``
  keeps at least one of its template edges in any prototype.

The procedure iterates these conditions to a fixed point, eliminating
edges to eliminated neighbors along the way (the paper calls this out as a
key optimization to limit network traffic in later pipeline steps).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..runtime.engine import Engine
from ..graph.graph import canonical_edge
from .arraystate import (
    ArraySearchState,
    array_kernel_fixpoint,
)
from .kernels import cached_role_kernel, structural_fingerprint
from .state import SearchState
from .template import PatternTemplate


class CandidateSetMemo:
    """Cross-template ``M*`` memo for batched runs over one graph.

    ``M*`` is edit-distance-independent (§3.1): it depends only on the
    template's labels, edges and mandatory edges — so template-library
    classes that differ only in ``k`` (or repeat runs of one class) can
    share a single background traversal.  The owner scopes one memo to
    one background graph; keys are the template's structural fingerprint
    plus its mandatory edges.  Lookups return a fresh :meth:`SearchState
    .copy` because the pipeline mutates ``M*`` into per-level scopes.
    """

    __slots__ = ("_states", "hits", "misses")

    def __init__(self) -> None:
        self._states: Dict[Tuple, SearchState] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(template: PatternTemplate) -> Tuple:
        return (
            structural_fingerprint(template.graph),
            tuple(sorted(template.mandatory_edges)),
        )

    def get(self, template: PatternTemplate) -> Optional[SearchState]:
        state = self._states.get(self.key_for(template))
        if state is None:
            return None
        self.hits += 1
        return state.copy()

    def put(self, template: PatternTemplate, state: SearchState) -> None:
        self.misses += 1
        self._states[self.key_for(template)] = state.copy()


def max_candidate_set(
    graph,
    template: PatternTemplate,
    engine: Engine,
    memo: Optional[CandidateSetMemo] = None,
    adaptive: bool = False,
) -> SearchState:
    """Compute ``M*`` as a :class:`SearchState` over ``graph``.

    The fixed point runs vectorized over the CSR: the initial labeling is
    seeded directly in array form and converted to the dict state only at
    the boundary.  ``memo`` (batched runs) returns a cached fixed point for a
    structurally-identical template without touching the graph at all.
    ``adaptive`` enables the metrics-driven
    dense/sparse round switch of :func:`array_kernel_fixpoint` — the
    full-graph M* fixpoint is where elimination cascades are densest, so
    this is the switch's main beneficiary.
    """
    if memo is not None:
        cached = memo.get(template)
        if cached is not None:
            return cached
    tracer = engine.tracer
    stats = engine.stats
    if tracer.enabled:
        before_messages = stats.total_messages
        before_remote = stats.total_remote_messages
    with stats.phase("max_candidate_set"), tracer.span(
        "max_candidate_set"
    ) as span:
        state = _compute_max_candidate_set(graph, template, engine, adaptive)
    if tracer.enabled:
        vertices, edges = state.active_counts()
        span.add(
            vertices=vertices,
            edges=edges,
            messages=stats.total_messages - before_messages,
            remote_messages=stats.total_remote_messages - before_remote,
        )
    if memo is not None:
        memo.put(template, state)
    return state


def _compute_max_candidate_set(
    graph,
    template: PatternTemplate,
    engine: Engine,
    adaptive: bool = False,
) -> SearchState:
    """Fixpoint body of :func:`max_candidate_set` (caller owns phase/span)."""
    kernel = cached_role_kernel(template.graph)
    astate = ArraySearchState.initial(graph, template)
    array_kernel_fixpoint(
        astate, kernel, engine,
        mandatory_masks=kernel.mandatory_masks(template.mandatory_edges),
        adaptive=adaptive,
    )
    return astate.to_search_state()


__all__ = ["CandidateSetMemo", "max_candidate_set", "canonical_edge"]
