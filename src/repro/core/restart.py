"""Level-granular pipeline checkpointing and restart (§4, "Load Balancing").

The paper's system checkpoints the execution state between edit-distance
levels — that is what allows it to *reload* the pruned graph on a
rebalanced or smaller deployment and resume the sweep.  This module makes
the same capability available around :func:`~repro.core.pipeline.run_pipeline`:

* :func:`run_pipeline_with_checkpoints` saves, after the candidate set and
  after every completed level, everything needed to resume: the level
  union's active vertices/edges, the per-vertex match vectors so far, and
  the per-prototype solution subgraphs;
* :func:`resume_pipeline` restores that state and continues the bottom-up
  sweep from the first incomplete level — on the same or a different
  deployment size (the reload scenario of §5.4).

Both are :class:`~repro.core.sweep.LevelSweep` runs with a per-level
checkpoint hook; a resumed sweep starts from the restored base state,
start level and level union.

Resumed runs produce results identical to uninterrupted ones (validated by
the failure-injection tests), because the containment rule only needs the
previous level's union.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Set, Union

from ..errors import CheckpointError, PipelineError
from ..graph.graph import Graph
from .pipeline import PipelineOptions
from .prototypes import PrototypeSet, generate_prototypes
from .results import LevelReport, PipelineResult, PrototypeSearchOutcome
from .state import SearchState
from .sweep import CheckpointHook, LevelSweep, search_setup
from .template import PatternTemplate

PathLike = Union[str, Path]

MANIFEST = "pipeline_checkpoint.json"


def _state_payload(state: SearchState) -> Dict:
    return {
        "candidates": {str(v): sorted(state.roles(v)) for v in state.active_vertices()},
        "edges": state.active_edge_list(),
    }


def _restore_state(graph: Graph, payload: Dict) -> SearchState:
    candidates = {int(v): set(roles) for v, roles in payload["candidates"].items()}
    active_edges: Dict[int, Set[int]] = {v: set() for v in candidates}
    for u, v in payload["edges"]:
        active_edges.setdefault(int(u), set()).add(int(v))
        active_edges.setdefault(int(v), set()).add(int(u))
    return SearchState(graph, candidates, active_edges)


def _in_process_only(options: PipelineOptions) -> None:
    """Checkpoints hold dict level unions; pooled levels build array ones."""
    if options.worker_processes > 1:
        raise PipelineError(
            "checkpointed runs search in-process; worker_processes > 1 "
            "is not supported"
        )


def _checkpoint_hook(
    manifest: Dict, directory: Path, fail_after_level: Optional[int] = None
) -> CheckpointHook:
    """The sweep's per-level hook: persist the level, then maybe fail."""

    def hook(level: LevelReport, union, result: PipelineResult) -> None:
        for outcome in level.outcomes:
            manifest["outcomes"][str(outcome.prototype.id)] = {
                "vertices": sorted(outcome.solution_vertices),
                "edges": sorted(outcome.solution_edges),
            }
        distance = level.distance
        manifest["completed_levels"].append(distance)
        manifest[f"union_after_{distance}"] = _state_payload(union)
        manifest["match_vectors"] = {
            str(v): sorted(ids) for v, ids in result.match_vectors.items()
        }
        _write_manifest(directory, manifest)
        if fail_after_level is not None and distance == fail_after_level:
            raise RuntimeError(
                f"injected failure after checkpointing level {distance}"
            )

    return hook


def run_pipeline_with_checkpoints(
    graph: Graph,
    template: PatternTemplate,
    k: int,
    checkpoint_dir: PathLike,
    options: Optional[PipelineOptions] = None,
    fail_after_level: Optional[int] = None,
) -> PipelineResult:
    """Run the pipeline, persisting a resumable checkpoint per level.

    The run is :func:`~repro.core.pipeline.run_pipeline`'s bottom-up sweep
    with a per-level checkpoint hook, so an uninterrupted run reports the
    same outcomes and counters.  ``fail_after_level`` aborts (raises
    ``RuntimeError``) right after the checkpoint for that edit-distance
    level is written — the failure injection hook used by the tests.
    Pooled execution (``worker_processes > 1``) is rejected with
    :class:`~repro.errors.PipelineError`.
    """
    options = options or PipelineOptions()
    _in_process_only(options)
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    protos = generate_prototypes(template, k, options.max_prototypes)
    deepest = protos.max_distance

    manifest = {
        "template": template.name,
        "k": deepest,
        "completed_levels": [],
        "match_vectors": {},
        "outcomes": {},
    }

    with options.tracer.span(
        "pipeline", template=template.name, k=deepest, mode="checkpointed"
    ):
        # Base candidate set (checkpointed as the pre-sweep state).
        setup = search_setup(graph, template, options)
        manifest["base_state"] = _state_payload(setup.base_state)
        _write_manifest(directory, manifest)
        sweep = LevelSweep(
            graph, template, deepest, options, prototype_set=protos,
            checkpoint=_checkpoint_hook(manifest, directory, fail_after_level),
        )
        return sweep.run(setup=setup)


def resume_pipeline(
    graph: Graph,
    template: PatternTemplate,
    checkpoint_dir: PathLike,
    options: Optional[PipelineOptions] = None,
) -> PipelineResult:
    """Resume an interrupted checkpointed run from its last completed level.

    ``options`` may differ from the original run's (e.g. fewer ranks — the
    paper's reload-on-smaller-deployment move); results are unaffected.
    """
    options = options or PipelineOptions()
    _in_process_only(options)
    directory = Path(checkpoint_dir)
    manifest = _read_manifest(directory)
    if manifest["template"] != template.name:
        raise CheckpointError(
            f"checkpoint is for template {manifest['template']!r}, "
            f"not {template.name!r}"
        )
    protos = generate_prototypes(template, manifest["k"], options.max_prototypes)
    completed = manifest["completed_levels"]
    deepest = protos.max_distance
    if completed:
        start_level = min(completed) - 1
        union_payload = manifest[f"union_after_{min(completed)}"]
        prev_union: Optional[SearchState] = _restore_state(graph, union_payload)
    else:
        start_level = deepest
        prev_union = None

    # Restore previously completed work into the result object.
    result = PipelineResult(template.name, deepest, protos)
    for vertex, ids in manifest["match_vectors"].items():
        result.match_vectors[int(vertex)] = set(ids)
    completed_distances = range(deepest, start_level, -1)
    result.levels = [
        _restored_level(protos, distance, manifest["outcomes"])
        for distance in completed_distances
    ]
    with options.tracer.span(
        "pipeline", template=template.name, k=deepest, mode="checkpointed"
    ):
        setup = search_setup(
            graph, template, options,
            base_state=_restore_state(graph, manifest["base_state"]),
        )
        sweep = LevelSweep(
            graph, template, deepest, options, prototype_set=protos,
            checkpoint=_checkpoint_hook(manifest, directory),
        )
        return sweep.run(
            setup=setup, start_level=start_level, union=prev_union,
            result=result,
        )


def _restored_level(
    protos: PrototypeSet, distance: int, outcomes: Dict
) -> LevelReport:
    """A level completed before the interruption, rebuilt from the manifest."""
    level = LevelReport(distance)
    for proto in protos.at(distance):
        payload = outcomes[str(proto.id)]
        outcome = PrototypeSearchOutcome(proto)
        outcome.solution_vertices = set(payload["vertices"])
        outcome.solution_edges = {(int(u), int(v)) for u, v in payload["edges"]}
        level.outcomes.append(outcome)
    return level


def _write_manifest(directory: Path, manifest: Dict) -> None:
    path = directory / MANIFEST
    tmp = directory / (MANIFEST + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    tmp.replace(path)  # atomic on POSIX: a crash never corrupts the manifest


def _read_manifest(directory: Path) -> Dict:
    path = directory / MANIFEST
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint manifest {path}: {exc}") from exc
