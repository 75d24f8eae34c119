"""Tests for real worker-process prototype search."""

import pytest

from repro.analysis.audit import audit_result
from repro.core import PipelineOptions, run_pipeline
from repro.core.template import PatternTemplate
from repro.errors import PipelineError
from repro.graph.generators import planted_graph

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
LABELS = [1, 2, 3, 4]


def workload(seed=51):
    graph = planted_graph(60, 140, EDGES, LABELS, copies=3, num_labels=5, seed=seed)
    template = PatternTemplate.from_edges(
        EDGES, {i: l for i, l in enumerate(LABELS)}, name="pool-t"
    )
    return graph, template


RING_EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]
RING_LABELS = [1, 2, 3, 4, 5]


def ring_workload(seed=33):
    graph = planted_graph(
        60, 140, RING_EDGES, RING_LABELS, copies=3, num_labels=6, seed=seed
    )
    template = PatternTemplate.from_edges(
        RING_EDGES, {i: l for i, l in enumerate(RING_LABELS)}, name="ring+chord"
    )
    return graph, template


def counter_rows(result):
    """Per-prototype accounting the pooled and inline paths must share."""
    return {
        o.prototype.id: (
            o.messages, o.remote_messages, o.lcc_iterations,
            o.nlcc_constraints_checked, o.simulated_seconds,
        )
        for o in result.outcomes()
    }


class TestWorkerProcesses:
    def test_results_identical_to_sequential(self):
        graph, template = workload()
        sequential = run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=2, count_matches=True)
        )
        pooled = run_pipeline(
            graph, template, 1,
            PipelineOptions(num_ranks=2, count_matches=True, worker_processes=3),
        )
        assert pooled.match_vectors == sequential.match_vectors
        for proto in sequential.prototype_set:
            seq_outcome = sequential.outcome_for(proto.id)
            par_outcome = pooled.outcome_for(proto.id)
            assert par_outcome.solution_vertices == seq_outcome.solution_vertices
            assert par_outcome.solution_edges == seq_outcome.solution_edges
            assert par_outcome.match_mappings == seq_outcome.match_mappings

    def test_containment_rule_across_pooled_levels(self):
        graph, template = workload(seed=52)
        pooled = run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=2, worker_processes=2)
        )
        for proto in pooled.prototype_set:
            children = proto.children()
            if not children:
                continue
            union_children = set()
            for child in children:
                union_children |= pooled.outcome_for(child.id).solution_vertices
            assert pooled.outcome_for(proto.id).solution_vertices <= union_children

    def test_simulated_times_populated(self):
        graph, template = workload(seed=53)
        pooled = run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=2, worker_processes=2)
        )
        assert pooled.total_simulated_seconds > 0
        assert all(
            lvl.search_seconds >= 0 for lvl in pooled.levels
        )

    def test_array_paths_forwarded_to_workers(self):
        # Workers search the shipped bitmap scopes with the same array
        # kernels as the in-process sweep: identical token demand.
        graph, template = workload(seed=54)
        knobs = dict(num_ranks=2, count_matches=True)
        sequential = run_pipeline(
            graph, template, 1, PipelineOptions(**knobs)
        )
        pooled = run_pipeline(
            graph, template, 1,
            PipelineOptions(worker_processes=2, **knobs),
        )
        assert pooled.match_vectors == sequential.match_vectors
        for proto in sequential.prototype_set:
            seq_outcome = sequential.outcome_for(proto.id)
            par_outcome = pooled.outcome_for(proto.id)
            assert (
                par_outcome.nlcc_tokens_launched
                == seq_outcome.nlcc_tokens_launched
            )
            assert (
                par_outcome.distinct_matches == seq_outcome.distinct_matches
            )

    def test_pooled_run_matches_brute_force(self):
        # The pooled sweep is checked against the brute-force oracle, not
        # only against the in-process sweep.
        graph, template = workload(seed=55)
        pooled = run_pipeline(
            graph, template, 1,
            PipelineOptions(
                num_ranks=2, count_matches=True, worker_processes=2
            ),
        )
        report = audit_result(graph, pooled)
        assert report.exact
        assert len(report.prototypes) == len(pooled.prototype_set)

    @pytest.mark.parametrize("knobs", [
        {},
        {"partition_strategy": "block"},
        {"reload_ranks": 2},
        {"constraint_ordering": "walk-cost"},
    ], ids=["default", "block", "reload", "walk-cost"])
    def test_pooled_accounting_matches_inline(self, knobs):
        # Workers run the sweep's per-prototype step on the sweep's own
        # search partition and constraint plans, so every per-outcome
        # counter equals the in-process one.  Recycling is off because
        # worker caches only see the tasks their worker served, and the
        # adaptive measured-cost re-sort reads wall times.
        graph, template = ring_workload()
        base = dict(work_recycling=False, adaptive=False, **knobs)
        inline = run_pipeline(graph, template, 2, PipelineOptions(**base))
        pooled = run_pipeline(
            graph, template, 2, PipelineOptions(worker_processes=2, **base)
        )
        assert pooled.match_vectors == inline.match_vectors
        assert counter_rows(pooled) == counter_rows(inline)

    def test_collect_matches_rejected(self):
        with pytest.raises(PipelineError):
            PipelineOptions(worker_processes=2, collect_matches=True)

    def test_extension_rejected(self):
        with pytest.raises(PipelineError):
            PipelineOptions(worker_processes=2, enumeration_optimization=True)

    def test_zero_workers_rejected(self):
        with pytest.raises(PipelineError):
            PipelineOptions(worker_processes=0)
