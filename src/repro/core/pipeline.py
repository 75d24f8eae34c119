"""The approximate matching pipeline (Alg. 1).

Bottom-up edit-distance sweep: generate prototypes, build the maximum
candidate set, then search each level — starting from the furthest
edit-distance — inside the union of the previous level's solution
subgraphs (the containment rule), recycling non-local constraint results
across prototypes, and producing the per-vertex approximate match vectors.
The level loop itself is :class:`~repro.core.sweep.LevelSweep`, shared
with the exploratory and checkpointed drivers.

Every optimization of §4/§5.4 is a :class:`PipelineOptions` knob, so the
ablation benchmarks (naïve / X / Y / Z scenarios of Fig. 8) are plain
option combinations of the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .candidate_set import CandidateSetMemo

from ..errors import PipelineError
from ..graph.graph import Graph
from ..runtime.messages import CostModel
from ..runtime.metrics import ConstraintCostModel, MetricsRegistry
from ..runtime.trace import NULL_TRACER
from .prototypes import PrototypeSet
from .results import PipelineResult
from .sweep import LevelSweep, merge_message_stats
from .template import PatternTemplate

__all__ = ["PipelineOptions", "PipelineResult", "merge_message_stats", "run_pipeline"]


@dataclass
class PipelineOptions:
    """Configuration of one pipeline run.

    Defaults correspond to the paper's fully optimized system (scenario Y
    of Fig. 8 — bottom-up with search-space reduction and work recycling);
    set ``load_balance``/``reload_ranks``/``parallel_deployments`` for
    scenario Z, or disable groups of options for the ablations and the
    naïve baseline (see :func:`repro.core.naive.naive_options`).
    """

    #: simulated MPI ranks of the primary deployment
    num_ranks: int = 4
    #: ranks sharing a physical node (locality experiments, Fig. 12)
    ranks_per_node: int = 1
    #: degree threshold for delegate (hub) partitioning; None disables
    delegate_degree_threshold: Optional[int] = None
    #: initial vertex-to-rank assignment: "hash" (HavoqGT default) or
    #: "block" (contiguous ids — skew-prone, the no-load-balancing strawman)
    partition_strategy: str = "hash"
    #: search-space reduction: compute M* before any search (§3.1)
    use_max_candidate_set: bool = True
    #: search-space reduction: containment rule across levels (Obs. 1)
    use_containment: bool = True
    #: redundant work elimination: recycle NLCC results (Obs. 2)
    work_recycling: bool = True
    #: NLCC constraint ordering: True (rare-labels-first heuristic, §5.4),
    #: False (kind/length order only), or "walk-cost" (the [65]-style
    #: statistics-driven pruning-efficiency order)
    constraint_ordering: object = True
    #: append the exactness-guaranteeing full-walk TDS check ("auto"/True/False)
    include_full_walk: object = "auto"
    #: "auto" | "enumeration" | "constraints" (see search_prototype)
    verification: str = "auto"
    #: count match mappings / distinct matches per prototype
    count_matches: bool = False
    #: keep the enumerated match mappings in each outcome
    collect_matches: bool = False
    #: derive matches of level-δ prototypes from level-δ+1 matches (§4)
    enumeration_optimization: bool = False
    #: "none" or "reshuffle" (Fig. 9(a))
    load_balance: str = "none"
    #: reload the pruned graph on this many ranks (§5.4 deployment table)
    reload_ranks: Optional[int] = None
    #: number of replica deployments searching prototypes in parallel
    parallel_deployments: int = 1
    #: LPT prototype scheduling across replicas (Fig. 9(b) middle)
    prototype_ordering: bool = True
    #: cost estimates used for scheduling: "estimate" or "measured"
    prototype_cost_source: str = "estimate"
    cost_model: CostModel = field(default_factory=CostModel)
    #: guard against prototype explosion
    max_prototypes: Optional[int] = 200_000
    #: OS worker processes that actually execute prototype searches in
    #: parallel (1 = in-process).  Orthogonal to `parallel_deployments`,
    #: which models replica deployments in the simulated cost.
    worker_processes: int = 1
    #: GraphMini-style auxiliary pruned graphs: when a level's solution
    #: union has pruned the scope far enough, pack the surviving
    #: adjacency into a compact ``GraphCsr.induced_view`` and run every
    #: remaining level on the view instead of ``G`` (in-process sweep
    #: only; results are bit-identical, original vertex ids are
    #: preserved)
    aux_views: bool = False
    #: materialize a view only when the union keeps at most this fraction
    #: of the background graph's vertices (re-checked per level, so views
    #: nest as the sweep keeps pruning)
    aux_view_ratio: float = 0.6
    #: span tracer (:class:`repro.runtime.trace.Tracer`) threaded into
    #: every engine of the run; the default NULL_TRACER records nothing
    #: and costs one attribute check per guarded site.
    tracer: object = NULL_TRACER
    #: always-on metrics registry threaded into every engine of the run
    #: and merged with pooled workers' exported registries; snapshot
    #: surfaces as ``stats_document["metrics"]`` and ``repro metrics``
    metrics: object = field(default_factory=MetricsRegistry)
    #: metrics-driven adaptive execution: the dense/sparse round switch in
    #: the LCC fixpoint and the measured-cost NLCC constraint
    #: re-sort — both preserve the match set exactly (see
    #: :func:`repro.core.search.search_prototype`)
    adaptive: bool = True
    #: EWMA store of measured per-constraint NLCC wall seconds, recycled
    #: across prototypes (and across a batch when the executor shares one
    #: options object); consulted only when ``adaptive`` is on
    constraint_costs: object = field(default_factory=ConstraintCostModel)

    def __post_init__(self) -> None:
        if self.parallel_deployments <= 0:
            raise PipelineError("parallel_deployments must be positive")
        if self.load_balance not in ("none", "reshuffle"):
            raise PipelineError(f"unknown load_balance mode {self.load_balance!r}")
        if self.verification not in ("auto", "enumeration", "constraints"):
            raise PipelineError(f"unknown verification mode {self.verification!r}")
        if self.prototype_cost_source not in ("estimate", "measured"):
            raise PipelineError(
                f"unknown prototype_cost_source {self.prototype_cost_source!r}"
            )
        if self.partition_strategy not in ("hash", "block"):
            raise PipelineError(
                f"unknown partition_strategy {self.partition_strategy!r}"
            )
        if self.constraint_ordering not in (True, False, "walk-cost"):
            raise PipelineError(
                f"unknown constraint_ordering {self.constraint_ordering!r}"
            )
        if self.worker_processes < 1:
            raise PipelineError("worker_processes must be at least 1")
        if not 0.0 < self.aux_view_ratio <= 1.0:
            raise PipelineError("aux_view_ratio must be in (0, 1]")
        if self.worker_processes > 1 and (
            self.collect_matches or self.enumeration_optimization
        ):
            raise PipelineError(
                "worker_processes > 1 does not support collect_matches / "
                "enumeration_optimization (match lists are not shipped "
                "across processes)"
            )


def run_pipeline(
    graph: Graph,
    template: PatternTemplate,
    k: int,
    options: Optional[PipelineOptions] = None,
    prototype_set: Optional[PrototypeSet] = None,
    candidate_memo: Optional["CandidateSetMemo"] = None,
) -> PipelineResult:
    """Find all matches within edit-distance ``k`` of ``template``.

    Returns a :class:`~repro.core.results.PipelineResult` with per-vertex
    match vectors, per-prototype exact solution subgraphs, per-level
    timing/size breakdowns and aggregated message statistics.

    When ``options.tracer`` is an enabled tracer, the whole run is
    recorded as one ``pipeline`` span containing per-level, per-prototype
    and per-phase child spans (see :mod:`repro.runtime.trace`).

    ``candidate_memo`` (batched runs; see :mod:`repro.core.batch`) shares
    the edit-distance-independent ``M*`` fixed point across pipelines over
    the same background graph — it must be scoped to one graph by the
    caller.
    """
    options = options or PipelineOptions()
    with options.tracer.span(
        "pipeline", template=template.name, k=k, mode="bottom-up"
    ):
        sweep = LevelSweep(
            graph, template, k, options,
            prototype_set=prototype_set, candidate_memo=candidate_memo,
        )
        return sweep.run()
