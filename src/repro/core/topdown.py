"""Top-down exploratory search mode (§4, §5.5).

The bottom-up pipeline (Alg. 1) requires a fixed ``k``.  Exploratory search
inverts the sweep: start with exact matches of the full template and
*relax* — increase the edit-distance one level at a time — until a
user-defined stopping condition is met (by default: the first level at
which any match exists, the WDC-4 6-Clique scenario of §5.5).

Each level reuses the same prototype search machinery — the top-down
direction of :class:`~repro.core.sweep.LevelSweep`; the maximum
candidate set is computed once, and NLCC work recycling applies across
levels exactly as in the bottom-up mode (here it flows "top-down", the
first direction of Obs. 2).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..graph.graph import Graph
from .pipeline import PipelineOptions
from .results import LevelReport, PipelineResult
from .sweep import LevelSweep
from .template import PatternTemplate

#: stop as soon as a level produced at least one matching vertex
def first_match_condition(level: LevelReport) -> bool:
    """Default stopping condition: some prototype at this level matched."""
    return any(outcome.has_matches for outcome in level.outcomes)


def exploratory_search(
    graph: Graph,
    template: PatternTemplate,
    max_k: Optional[int] = None,
    stop_condition: Callable[[LevelReport], bool] = first_match_condition,
    options: Optional[PipelineOptions] = None,
) -> PipelineResult:
    """Search top-down, relaxing the template until ``stop_condition``.

    Returns a :class:`PipelineResult` whose levels run from distance 0
    upward; levels beyond the stopping level are not searched.  If no level
    satisfies the condition within ``max_k`` (default: the template's
    maximum meaningful distance), all levels appear with their (empty)
    outcomes.
    """
    options = options or PipelineOptions()
    if max_k is None:
        max_k = template.max_meaningful_distance()
    with options.tracer.span(
        "pipeline", template=template.name, k=max_k, mode="exploratory"
    ):
        sweep = LevelSweep(
            graph, template, max_k, options, stop_condition=stop_condition
        )
        return sweep.run()


def stopping_distance(result: PipelineResult) -> Optional[int]:
    """The first distance at which matches were found, if any."""
    for level in result.levels:
        if any(outcome.has_matches for outcome in level.outcomes):
            return level.distance
    return None
