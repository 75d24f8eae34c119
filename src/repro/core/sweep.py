"""The level sweep behind every search driver (Alg. 1; §4, §5.4, §5.5).

The paper has one search pipeline: partition the background graph, build
the maximum candidate set ``M*``, then search each edit-distance level's
prototypes with the same per-prototype machinery (Alg. 2).  The modes
differ only in the direction of the level sweep:

* **bottom-up** (:func:`~repro.core.pipeline.run_pipeline` and the
  checkpointed runs of :mod:`repro.core.restart`): levels ``k .. 0``, each
  prototype scoped inside the previous level's solution union (the
  containment rule, Obs. 1);
* **top-down** (:func:`~repro.core.topdown.exploratory_search`): levels
  ``0 .. k``, every scope cut from ``M*``, until a stopping condition
  holds.

A level runs inline, or on the
:class:`~repro.runtime.parallel.PrototypeSearchPool` when
``worker_processes > 1`` and the level has more than one prototype; an
optional checkpoint hook sees every finished level.  Three shared pieces
sit behind :class:`LevelSweep`, and the flip driver and the pool workers
use them directly:

* :func:`search_setup` — the partition, ``M*`` and the search deployment;
* :class:`ConstraintPlans` over :func:`constraint_plan` — each prototype's
  ordered constraint set, built lazily when it is searched;
* :func:`search_step` — one prototype search on a fresh engine, with the
  outcome's message and simulated-time accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..graph.graph import Graph
from ..runtime.engine import Engine
from ..runtime.messages import MessageStats
from ..runtime.partition import PartitionedGraph, balanced_assignment, hash_assignment
from .arraystate import ArraySearchState
from .candidate_set import CandidateSetMemo, max_candidate_set
from .constraints import ConstraintSet, generate_constraints
from .enumeration import (
    distinct_match_count,
    extend_from_child_matches,
    state_from_matches,
)
from .ordering import (
    estimate_prototype_cost,
    order_constraints,
    parallel_makespan,
    schedule_prototypes,
)
from .prototypes import Prototype, PrototypeSet, generate_prototypes
from .results import LevelReport, PipelineResult, PrototypeSearchOutcome
from .search import search_prototype
from .state import NlccCache, SearchState
from .template import PatternTemplate

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..runtime.parallel import PrototypeSearchPool
    from .cost_estimation import GraphStatistics
    from .pipeline import PipelineOptions

#: simulated seconds per active edge to checkpoint + reload a pruned graph
REBALANCE_COST_PER_EDGE = 2.0e-6

#: ``checkpoint(level, union, result)``: called after every searched level
CheckpointHook = Callable[
    [LevelReport, "SearchState | ArraySearchState", PipelineResult], None
]


# ---------------------------------------------------------------------------
# constraint plans
# ---------------------------------------------------------------------------
def constraint_plan(
    proto: Prototype,
    label_frequencies: Dict[int, int],
    include_full_walk: Any = "auto",
    ordering: Any = True,
    walk_stats: Optional["GraphStatistics"] = None,
) -> ConstraintSet:
    """One prototype's constraint set, non-local constraints in checking order.

    ``ordering`` is ``PipelineOptions.constraint_ordering``: ``"walk-cost"``
    sorts by the statistics-driven pruning efficiency over ``walk_stats``;
    True / False select the rare-labels-first heuristic / the plain
    kind-and-length order (§5.4).
    """
    constraint_set = generate_constraints(
        proto.graph, label_frequencies, include_full_walk
    )
    if ordering == "walk-cost":
        from .cost_estimation import order_constraints_by_cost

        assert walk_stats is not None, "walk-cost ordering needs graph statistics"
        constraint_set.non_local = order_constraints_by_cost(
            constraint_set.non_local, walk_stats
        )
    else:
        constraint_set.non_local = order_constraints(
            constraint_set.non_local, label_frequencies, optimize=bool(ordering)
        )
    return constraint_set


class ConstraintPlans:
    """:func:`constraint_plan` with the per-graph inputs read once.

    One instance serves one sweep (or one pool worker): the label
    frequencies and, for ``"walk-cost"`` ordering, the
    :class:`~repro.core.cost_estimation.GraphStatistics` are read off
    ``graph`` once.  A prototype's plan is built lazily, when it is
    searched, and is not kept: no sweep searches a prototype twice, and
    holding every plan of a dense template doubles the peak memory of an
    exploratory WDC-4 run.  Prototypes answered by match extension or
    never reached (an exploratory run that stops early) build nothing.
    """

    def __init__(self, graph: Graph, options: "PipelineOptions") -> None:
        self.label_frequencies = graph.label_counts()
        self.include_full_walk = options.include_full_walk
        self.ordering = options.constraint_ordering
        self.walk_stats: Optional["GraphStatistics"] = None
        if self.ordering == "walk-cost":
            from .cost_estimation import GraphStatistics

            self.walk_stats = GraphStatistics.from_graph(graph)

    def __call__(self, proto: Prototype) -> ConstraintSet:
        return constraint_plan(
            proto, self.label_frequencies, self.include_full_walk,
            self.ordering, self.walk_stats,
        )


# ---------------------------------------------------------------------------
# partition, M* and the search deployment
# ---------------------------------------------------------------------------
def initial_assignment(
    graph: Graph, num_ranks: int, options: "PipelineOptions"
) -> Dict[int, int]:
    """Initial vertex-to-rank map per the configured strategy."""
    if options.partition_strategy == "block":
        from ..runtime.partition import block_assignment

        return block_assignment(sorted(graph.vertices()), num_ranks)
    return hash_assignment(graph.vertices(), num_ranks)


def partition(
    graph: Graph,
    num_ranks: int,
    options: "PipelineOptions",
    assignment: Optional[Dict[int, int]] = None,
) -> PartitionedGraph:
    """``graph`` over ``num_ranks`` ranks (default: the initial assignment)."""
    if assignment is None:
        assignment = initial_assignment(graph, num_ranks, options)
    return PartitionedGraph(
        graph,
        num_ranks,
        assignment=assignment,
        delegate_degree_threshold=options.delegate_degree_threshold,
        ranks_per_node=options.ranks_per_node,
    )


@dataclass
class SearchSetup:
    """Partition, ``M*`` and search deployment of one sweep (§3.1, §5.4).

    ``mstar_stats`` is None when the base state was restored rather than
    computed.  ``search_pgraph`` is the deployment every prototype search
    accounts on: the ``M*`` partition, a smaller one per replica
    (``parallel_deployments``) or, when ``rebalancing``, a reload of the
    pruned graph whose cost is ``infrastructure_seconds``.
    """

    base_pgraph: PartitionedGraph
    base_state: SearchState
    mstar_stats: Optional[MessageStats]
    search_pgraph: PartitionedGraph
    rebalancing: bool
    infrastructure_seconds: float


def search_setup(
    graph: Graph,
    template: PatternTemplate,
    options: "PipelineOptions",
    candidate_memo: Optional[CandidateSetMemo] = None,
    base_state: Optional[SearchState] = None,
) -> SearchSetup:
    """Partition ``graph``, compute ``M*`` and choose the search deployment.

    A given ``base_state`` (a restored checkpoint) replaces the ``M*``
    computation.  ``candidate_memo`` shares the ``M*`` fixed point across
    pipelines over the same graph (see :mod:`repro.core.batch`).
    """
    base_pgraph = partition(graph, options.num_ranks, options)
    mstar_stats = None
    if base_state is None:
        mstar_stats = MessageStats(options.num_ranks)
        engine = Engine(
            base_pgraph, mstar_stats, tracer=options.tracer,
            metrics=options.metrics,
        )
        if options.use_max_candidate_set:
            base_state = max_candidate_set(
                graph, template, engine,
                memo=candidate_memo, adaptive=options.adaptive,
            )
        else:
            base_state = SearchState.initial(graph, template)

    # `reload_ranks` is Optional[int]; reload_ranks=0 must disable the
    # reload exactly like None instead of leaking a falsy int into the
    # flag or the rank arithmetic (repro-lint R1).
    reload_requested = (
        options.reload_ranks is not None and options.reload_ranks != 0
    )
    search_ranks = (
        options.reload_ranks if reload_requested else options.num_ranks
    )
    deployment_ranks = max(1, search_ranks // options.parallel_deployments)
    infrastructure = 0.0
    rebalancing = options.load_balance == "reshuffle" or reload_requested
    if rebalancing:
        pruned = base_state.to_graph()
        infrastructure = REBALANCE_COST_PER_EDGE * (
            2 * pruned.num_edges + pruned.num_vertices
        )
        assignment = initial_assignment(graph, deployment_ranks, options)
        assignment.update(balanced_assignment(pruned, deployment_ranks))
        search_pgraph = partition(graph, deployment_ranks, options, assignment)
    elif deployment_ranks == options.num_ranks:
        search_pgraph = base_pgraph
    else:
        search_pgraph = partition(graph, deployment_ranks, options)
    return SearchSetup(
        base_pgraph, base_state, mstar_stats, search_pgraph, rebalancing,
        infrastructure,
    )


# ---------------------------------------------------------------------------
# the per-prototype step
# ---------------------------------------------------------------------------
def search_step(
    proto: Prototype,
    constraint_set: ConstraintSet,
    scope: ArraySearchState,
    pgraph: PartitionedGraph,
    options: "PipelineOptions",
    cache: Optional[NlccCache],
    warm_mask: Optional[Any] = None,
    collect_matches: bool = False,
    tracer: Any = None,
    metrics: Any = None,
) -> Tuple[PrototypeSearchOutcome, SearchState, MessageStats]:
    """Search one prototype from its array ``scope`` on a fresh engine.

    ``scope`` is reduced in place to the solution subgraph, and the
    returned dict state holds the same subgraph (the search's single
    write-back).  The outcome's ``messages``, ``remote_messages`` and
    ``simulated_seconds`` come from the engine's message trace on
    ``pgraph``.  ``tracer`` / ``metrics`` default to the options' own;
    pool workers pass per-task ones.
    """
    state = SearchState.empty(scope.graph)
    stats = MessageStats(pgraph.num_ranks)
    engine = Engine(
        pgraph,
        stats,
        tracer=options.tracer if tracer is None else tracer,
        metrics=options.metrics if metrics is None else metrics,
    )
    outcome = search_prototype(
        state,
        proto,
        constraint_set,
        engine,
        cache=cache,
        recycle=options.work_recycling,
        count_matches=options.count_matches,
        collect_matches=collect_matches,
        verification=options.verification,
        array_scope=scope,
        warm_mask=warm_mask,
        adaptive=options.adaptive,
        constraint_costs=options.constraint_costs,
    )
    outcome.simulated_seconds = options.cost_model.makespan(stats)
    outcome.messages = stats.total_messages
    outcome.remote_messages = stats.total_remote_messages
    return outcome, state, stats


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------
class LevelSweep:
    """The level loop of Alg. 1, bottom-up or top-down.

    ``stop_condition`` picks the direction: None sweeps bottom-up
    (levels ``k .. 0`` under the containment rule); a callable sweeps
    top-down from ``M*`` (levels ``0 .. k``) and stops after the first
    level it accepts.  ``checkpoint`` is called after every searched level
    with the level, its solution union and the result so far.
    Auxiliary views and the enumeration optimization apply to the
    bottom-up, in-process sweep only.
    """

    def __init__(
        self,
        graph: Graph,
        template: PatternTemplate,
        k: int,
        options: "PipelineOptions",
        stop_condition: Optional[Callable[[LevelReport], bool]] = None,
        prototype_set: Optional[PrototypeSet] = None,
        candidate_memo: Optional[CandidateSetMemo] = None,
        checkpoint: Optional[CheckpointHook] = None,
    ) -> None:
        self.graph = graph
        self.template = template
        self.k = k
        self.options = options
        self.stop_condition = stop_condition
        self.top_down = stop_condition is not None
        self.prototype_set = prototype_set
        self.candidate_memo = candidate_memo
        self.checkpoint = checkpoint

    def run(
        self,
        setup: Optional[SearchSetup] = None,
        start_level: Optional[int] = None,
        union: "SearchState | ArraySearchState | None" = None,
        result: Optional[PipelineResult] = None,
    ) -> PipelineResult:
        """Sweep the levels; returns the filled :class:`PipelineResult`.

        A resumed run passes the restored ``setup``, the first level still
        to search (``start_level``), the union of the level above it and a
        ``result`` holding the restored levels and match vectors.
        """
        from .kernels import kernel_cache_stats
        from .prototypes import prototype_cache_stats

        options = self.options
        wall_start = time.perf_counter()
        # Process-wide compile caches: this run's traffic is the delta
        # against the totals at entry, folded into the run's registry.
        kernel_cache_before = kernel_cache_stats()
        prototype_cache_before = prototype_cache_stats()
        protos = self.prototype_set or generate_prototypes(
            self.template, self.k, max_prototypes=options.max_prototypes
        )
        self.protos = protos
        self.plans = ConstraintPlans(self.graph, options)
        if setup is None:
            setup = search_setup(
                self.graph, self.template, options, self.candidate_memo
            )
        self.setup = setup
        if result is None:
            result = PipelineResult(self.template.name, self.k, protos)
        self.result = result
        self.all_stats: List[MessageStats] = []
        if setup.mstar_stats is not None:
            self.all_stats.append(setup.mstar_stats)
            result.candidate_set_seconds = options.cost_model.makespan(
                setup.mstar_stats
            )
        (
            result.candidate_set_vertices,
            result.candidate_set_edges,
        ) = setup.base_state.active_counts()
        self.cache = NlccCache() if options.work_recycling else None
        self.search_pgraph = setup.search_pgraph
        self.template_roles = sorted(self.template.graph.vertices())
        self.base_astate = ArraySearchState.from_search_state(
            setup.base_state, roles=self.template_roles
        )
        self.union_prev = None if self.top_down else union
        #: per-child stored matches for the enumeration optimization: dense
        #: ArrayMatchSet tables, or per-match dict lists (full walks)
        self.stored: Dict[int, Any] = {}
        self.deepest = protos.max_distance

        self.pool: Optional["PrototypeSearchPool"] = None
        if options.worker_processes > 1:
            from ..runtime.parallel import PrototypeSearchPool

            self.pool = PrototypeSearchPool(
                self.graph, self.template, self.deepest, options,
                options.worker_processes, pgraph=self.search_pgraph,
                plans=self.plans,
            )
        if self.top_down:
            distances = range(0, self.deepest + 1)
        else:
            first = self.deepest if start_level is None else start_level
            distances = range(first, -1, -1)
        try:
            for distance in distances:
                level, union = self._level(distance)
                if self.checkpoint is not None:
                    self.checkpoint(level, union, result)
                if self.stop_condition is not None and self.stop_condition(level):
                    break
        finally:
            if self.pool is not None:
                self.pool.close()

        result.total_infrastructure_seconds = setup.infrastructure_seconds + sum(
            level.infrastructure_seconds for level in result.levels
        )
        result.total_simulated_seconds = (
            result.candidate_set_seconds
            + sum(level.search_seconds for level in result.levels)
            + result.total_infrastructure_seconds
        )
        result.total_wall_seconds = time.perf_counter() - wall_start
        result.message_summary = merge_message_stats(self.all_stats)
        cache = self.cache
        if cache is not None:
            constraints, entries = cache.size()
            result.nlcc_cache_stats = {
                "hits": cache.hits,
                "misses": cache.misses,
                "constraints": constraints,
                "entries": entries,
            }
        metrics = options.metrics
        for name, before, after in (
            ("cache.kernel", kernel_cache_before, kernel_cache_stats()),
            ("cache.prototype", prototype_cache_before, prototype_cache_stats()),
        ):
            for kind in ("hits", "misses"):
                delta = after[kind] - before[kind]
                if delta:
                    metrics.counter(f"{name}.{kind}").inc(delta)
        result.metrics = metrics
        return result

    # ------------------------------------------------------------------
    def _level(
        self, distance: int
    ) -> Tuple[LevelReport, "SearchState | ArraySearchState"]:
        """Search one level inline or pooled, then run the shared epilogue."""
        tracer = self.options.tracer
        with tracer.span("level", distance=distance) as level_span:
            level_wall = time.perf_counter()
            level = LevelReport(distance)
            union_astate = None
            if isinstance(self.union_prev, ArraySearchState):
                union_astate = self.union_prev
            elif self.union_prev is not None:
                # One conversion per level: every prototype scope below is
                # derived from this array form without a dict round trip.
                union_astate = ArraySearchState.from_search_state(
                    self.union_prev, roles=self.template_roles
                )
            protos = self.protos.at(distance)
            if self.pool is not None and len(protos) > 1:
                union = self._pooled_level(protos, distance, level, union_astate)
            else:
                union = self._inline_level(protos, distance, level, union_astate)
            _finish_level(
                level, self.result, self.options, self.plans.label_frequencies,
                union, self.setup.rebalancing and not self.top_down, distance,
                level_wall, span=level_span,
            )
            if not self.top_down:
                self.union_prev = union
                if isinstance(union, SearchState):
                    self._maybe_aux_view(distance, level, union)
        return level, union

    def _record(self, level: LevelReport, outcome: PrototypeSearchOutcome) -> None:
        level.outcomes.append(outcome)
        proto_id = outcome.prototype.id
        for vertex in outcome.solution_vertices:
            self.result.match_vectors.setdefault(vertex, set()).add(proto_id)

    def _inline_level(
        self,
        protos: List[Prototype],
        distance: int,
        level: LevelReport,
        union_astate: Optional[ArraySearchState],
    ) -> SearchState:
        """Search one level in-process; returns its dict solution union."""
        options = self.options
        chaining = options.enumeration_optimization and not self.top_down
        collect = options.collect_matches or chaining
        level_states: List[SearchState] = []
        next_stored: Dict[int, Any] = {}
        for proto in protos:
            extended = None
            if chaining and distance < self.deepest:
                extended = _try_extension(proto, self.stored, self.graph)
            if extended is not None:
                outcome, proto_state = extended
            else:
                scope, warm_mask = _starting_astate(
                    proto, distance, self.deepest, self.base_astate,
                    union_astate, options,
                )
                if self.base_astate.csr.parent is not None:
                    self.result.aux_view_reuse += 1
                outcome, proto_state, stats = search_step(
                    proto, self.plans(proto), scope, self.search_pgraph,
                    options, self.cache, warm_mask=warm_mask,
                    collect_matches=collect,
                )
                self.all_stats.append(stats)
            if chaining and outcome.matches is not None:
                next_stored[proto.id] = (
                    outcome.match_set
                    if outcome.match_set is not None
                    else outcome.matches
                )
            if not options.collect_matches:
                outcome.matches = None
            self._record(level, outcome)
            level_states.append(proto_state)
        self.stored = next_stored
        union = SearchState.empty(self.graph)
        for state in level_states:
            union.union_with(state)
        return union

    def _pooled_level(
        self,
        protos: List[Prototype],
        distance: int,
        level: LevelReport,
        union_astate: Optional[ArraySearchState],
    ) -> ArraySearchState:
        """Execute one level's searches on the pool, arrays end to end.

        Scopes are cut by :func:`_starting_astate` and shipped as packed
        bitmaps over the pool's shared CSR.  Workers return packed
        solution bitmaps that are OR-ed into an array-form union whose
        role masks stay zero (the next level re-derives roles from labels
        when it scopes).  Worker message traces fold into the per-outcome
        totals but not into ``result.message_summary``.
        """
        from ..runtime.parallel import array_task, payload_to_outcome
        from .arraystate import unpack_bits

        assert self.pool is not None
        tasks = []
        for proto in protos:
            scoped, warm_mask = _starting_astate(
                proto, distance, self.deepest, self.base_astate, union_astate,
                self.options,
            )
            tasks.append(array_task(proto.id, scoped, warm_mask))
        csr = self.base_astate.csr
        union = ArraySearchState.empty(self.base_astate.graph)
        for payload in self.pool.search_level(tasks):
            proto = self.protos.by_id(payload["proto_id"])
            outcome = payload_to_outcome(
                proto, payload, tracer=self.options.tracer,
                metrics=self.options.metrics,
            )
            self._record(level, outcome)
            vertex_bits, edge_bits = payload["solution_bits"]
            union.vertex_active |= unpack_bits(vertex_bits, csr.num_vertices)
            union.edge_alive |= unpack_bits(edge_bits, csr.num_directed_edges)
        self.stored = {}
        return union

    def _maybe_aux_view(
        self, distance: int, level: LevelReport, union: SearchState
    ) -> None:
        """GraphMini-style auxiliary graph for the remaining levels.

        Once the union has pruned far enough, pack the surviving adjacency
        into a compact CSR sub-view and run the remaining levels on it.
        Sound only when every remaining prototype starts from the union
        (child-linked + containment on): the view is vertex-induced, so
        Obs. 1's readmitted background edges between surviving vertices
        are all present and the restricted scopes are bit-identical to
        the full-graph ones.  Views nest as later levels keep pruning.
        """
        options = self.options
        if not (
            options.aux_views
            and self.pool is None
            and distance > 0
            and options.use_containment
            and not self.setup.rebalancing
            and level.union_vertices > 0
            and level.union_vertices
            <= options.aux_view_ratio * self.base_astate.csr.num_vertices
            and all(
                p.child_links for d in range(distance) for p in self.protos.at(d)
            )
        ):
            return
        union_arr = ArraySearchState.from_search_state(
            union, roles=self.template_roles
        )
        view = self.base_astate.csr.induced_view(union_arr.vertex_active)
        self.graph = view.graph
        self.base_astate = self.base_astate.restrict_to_view(view)
        self.union_prev = union_arr.restrict_to_view(view)
        num_ranks = self.search_pgraph.num_ranks
        self.search_pgraph = partition(self.graph, num_ranks, options)
        result = self.result
        result.aux_views_built += 1
        result.aux_view_sizes.append(
            (view.num_vertices, view.num_directed_edges // 2)
        )
        tracer = options.tracer
        if tracer.enabled:
            with tracer.span("aux_view", distance=distance) as view_span:
                view_span.add(
                    vertices=view.num_vertices,
                    edges=view.num_directed_edges // 2,
                )


def _finish_level(
    level: LevelReport,
    result: PipelineResult,
    options: "PipelineOptions",
    label_frequencies: Dict[int, int],
    union: "SearchState | ArraySearchState",
    rebalancing: bool,
    distance: int,
    level_wall: float,
    span: Any = None,
) -> None:
    """Shared level epilogue: scheduling time, union sizes, bookkeeping.

    ``span`` is the level's trace span (or a null span); the computed
    union/post-LCC sizes double as its counters.
    """
    costs = [o.simulated_seconds for o in level.outcomes]
    if options.parallel_deployments > 1 and len(costs) > 1:
        if options.prototype_cost_source == "measured":
            schedule_costs = costs
        else:
            schedule_costs = [
                estimate_prototype_cost(o.prototype, label_frequencies)
                for o in level.outcomes
            ]
        batches = schedule_prototypes(
            schedule_costs,
            options.parallel_deployments,
            optimize=options.prototype_ordering,
        )
        level.search_seconds = parallel_makespan(costs, batches)
    else:
        level.search_seconds = sum(costs)
    # One O(E) pass for the union sizes, shared by the report fields and
    # the rebalancing cost below (num_active_edges itself is O(E)).
    union_vertices, union_edges = union.active_counts()
    level.union_vertices = union_vertices
    level.union_edges = union_edges
    level.post_lcc_vertices = sum(o.post_lcc_vertices for o in level.outcomes)
    level.post_lcc_edges = sum(o.post_lcc_edges for o in level.outcomes)
    if span is not None:
        span.add(
            prototypes=len(level.outcomes),
            union_vertices=union_vertices,
            union_edges=union_edges,
            post_lcc_vertices=level.post_lcc_vertices,
            post_lcc_edges=level.post_lcc_edges,
        )
    if rebalancing and distance > 0:
        level.infrastructure_seconds = REBALANCE_COST_PER_EDGE * (
            2 * union_edges + union_vertices
        )
    level.wall_seconds = time.perf_counter() - level_wall
    result.levels.append(level)


def _starting_astate(
    proto: Prototype,
    distance: int,
    deepest: int,
    base_astate: ArraySearchState,
    union_astate: Optional[ArraySearchState],
    options: "PipelineOptions",
) -> Tuple[ArraySearchState, Optional[Any]]:
    """Array-form scope for one prototype search, per the containment rule.

    Returns ``(scope, warm_mask)``.  When the scope derives from the
    previous level's union, ``warm_mask`` flags the vertices whose state
    actually differs from that union (activity changes plus endpoints of
    aliveness changes) — the surviving worklist that seeds the first LCC
    round's broadcast accounting instead of a cold full broadcast.  Scopes
    cut fresh from M* keep the cold broadcast (``warm_mask=None``).
    """
    import numpy as np

    use_union = (
        options.use_containment
        and distance < deepest
        and union_astate is not None
        and proto.child_links
    )
    if not use_union:
        if not options.use_max_candidate_set:
            # Naive mode: a fresh, fully-unpruned state per prototype --
            # the per-prototype re-pruning cost the pipeline avoids.
            return (
                ArraySearchState.initial(base_astate.graph, proto.graph),
                None,
            )
        return base_astate.for_prototype_search(proto), None
    assert union_astate is not None
    link = proto.child_links[0]
    a, b = link.removed_edge
    template_graph = proto.template.graph
    pair = (template_graph.label(a), template_graph.label(b))
    scoped = union_astate.for_prototype_search(proto, readmit_label_pairs=[pair])
    warm = scoped.vertex_active != union_astate.vertex_active
    csr = scoped.csr
    diff = np.nonzero(scoped.edge_alive != union_astate.edge_alive)[0]
    warm[csr.src[diff]] = True
    warm[csr.indices[diff]] = True
    return scoped, warm


def _try_extension(
    proto: Prototype,
    stored_matches: Dict[int, Any],
    graph: Graph,
) -> Optional[Tuple[PrototypeSearchOutcome, SearchState]]:
    """Derive this prototype's result from a child's stored matches (§4).

    Children whose matches were enumerated store dense
    :class:`~repro.core.enumeration.ArrayMatchSet` tables; those extend
    through the batched array probe and keep the chain in array form.
    Dict match lists (full-walk collections) use the per-match probe.
    """
    from .enumeration import ArrayMatchSet, extend_from_child_matches_array

    for link in proto.child_links:
        stored = stored_matches.get(link.child.id)
        if stored is None:
            continue
        started = time.perf_counter()
        if isinstance(stored, ArrayMatchSet):
            match_set = extend_from_child_matches_array(
                proto, link.child, stored
            )
            matches = match_set.mappings()
        else:
            match_set = None
            matches = extend_from_child_matches(
                proto, link.child, stored, graph
            )
        outcome = PrototypeSearchOutcome(proto)
        outcome.matches = matches
        outcome.match_set = match_set
        outcome.match_mappings = len(matches)
        outcome.distinct_matches = distinct_match_count(proto, len(matches))
        state = state_from_matches(SearchState.empty(graph), proto, matches)
        outcome.solution_vertices = set(state.candidates)
        outcome.solution_edges = set(state.active_edge_list())
        outcome.exact = True
        outcome.wall_seconds = time.perf_counter() - started
        # Simulated cost: one edge probe per child match.
        outcome.simulated_seconds = 1.0e-7 * max(len(stored), 1)
        return outcome, state
    return None


def merge_message_stats(stats_list: List[MessageStats]) -> Dict[str, object]:
    """Aggregate message accounting across all engines of a run."""
    total = 0
    remote = 0
    visits = 0
    barriers = 0
    control = 0
    peak_interval_messages = 0
    phases: Dict[str, Dict[str, int]] = {}
    for stats in stats_list:
        total += stats.total_messages
        remote += stats.total_remote_messages
        visits += stats.total_visits
        barriers += stats.total_barriers
        control += stats.control_messages
        if stats.intervals:
            peak_interval_messages = max(
                peak_interval_messages,
                max(interval[1] for interval in stats.intervals),
            )
        for name, counters in stats.phases.items():
            bucket = phases.setdefault(
                name, {"messages": 0, "remote_messages": 0, "visits": 0}
            )
            bucket["messages"] += counters.messages
            bucket["remote_messages"] += counters.remote_messages
            bucket["visits"] += counters.visits
    return {
        "total_messages": total,
        "remote_messages": remote,
        "remote_fraction": remote / total if total else 0.0,
        "total_visits": visits,
        "barriers": barriers,
        "control_messages": control,
        "peak_interval_messages": peak_interval_messages,
        "phases": phases,
    }
