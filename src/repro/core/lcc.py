"""Local constraint checking — LCC (Alg. 4).

Iterative pruning: each round, every active vertex broadcasts its candidate
roles to its active neighbors (one message per active edge direction);
after the round each vertex keeps a role only if *every* template-neighbor
of that role is witnessed by some active neighbor, and edges survive only
if their endpoints hold template-adjacent roles.  Rounds repeat until
nothing changes — the fixed point is classic arc consistency over the
prototype's adjacency structure.

For tree prototypes with all-distinct labels this fixed point is provably
the exact solution subgraph; in general it is a superset that the non-local
checks (:mod:`~repro.core.nlcc`) reduce further.

The rounds run vectorized over the CSR
(:func:`~repro.core.arraystate.array_kernel_fixpoint`).
"""

from __future__ import annotations

from typing import Optional

from ..graph.graph import Graph
from ..runtime.engine import Engine
from .arraystate import ArraySearchState, array_kernel_fixpoint
from .kernels import RoleKernel, compile_role_kernel
from .state import SearchState


def local_constraint_checking(
    state: SearchState,
    proto_graph: Graph,
    engine: Engine,
    max_iterations: Optional[int] = None,
    kernel: Optional[RoleKernel] = None,
    astate=None,
    warm_mask=None,
    adaptive: bool = False,
) -> int:
    """Prune ``state`` to the LCC fixed point for ``proto_graph``.

    Returns the number of iterations executed.  ``max_iterations`` bounds
    the loop (useful for ablation experiments); ``None`` runs to fixpoint.
    ``kernel`` is the prototype's compiled
    :class:`~repro.core.kernels.RoleKernel` (compiled on demand).

    Passing a live ``astate`` (level-persistent array mode) runs the
    fixpoint directly on it and leaves ``state`` untouched for the
    caller's final ``write_back``; without one, ``state`` is converted to
    array form and written back in place.  ``warm_mask`` restricts the
    first round's broadcast accounting to the vertices whose state
    actually differs from the parent scope it was derived from (the
    warm-seeded worklist) — the fixed point and round count are unchanged.

    ``adaptive`` enables the metrics-driven dense/sparse round switch in
    :func:`~repro.core.arraystate.array_kernel_fixpoint`; the fixed point
    is unchanged by construction.

    When the engine carries an enabled tracer, the whole fixpoint runs
    inside an ``lcc`` span counting iterations, pruned vertices/edges and
    message traffic (each round contributes its own child span).
    """
    if kernel is None:
        kernel = compile_role_kernel(proto_graph)
    owned = astate is None
    if owned:
        astate = ArraySearchState.from_search_state(state, roles=kernel.roles)
    tracer = engine.tracer
    stats = engine.stats
    if tracer.enabled:
        before_vertices, before_edges = astate.active_counts()
        before_messages = stats.total_messages
        before_remote = stats.total_remote_messages
    with stats.phase("lcc"), tracer.span("lcc") as span:
        iterations = array_kernel_fixpoint(
            astate, kernel, engine,
            max_iterations=max_iterations,
            warm_mask=warm_mask, adaptive=adaptive,
        )
    if tracer.enabled:
        after_vertices, after_edges = astate.active_counts()
        span.add(
            iterations=iterations,
            vertices_pruned=before_vertices - after_vertices,
            edges_pruned=before_edges - after_edges,
            messages=stats.total_messages - before_messages,
            remote_messages=stats.total_remote_messages - before_remote,
        )
    if owned:
        astate.write_back(state)
    return iterations
