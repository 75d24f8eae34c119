"""Tests for the precision/recall audit utility."""

import dataclasses

from repro.analysis.audit import audit_match_vectors, audit_result
from repro.core import PipelineOptions, naive_options, run_pipeline
from repro.core.template import PatternTemplate
from repro.core.topdown import exploratory_search, stopping_distance
from repro.graph import from_edges
from repro.graph.generators import gnm_graph, plant_pattern, planted_graph

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3)]
LABELS = [1, 2, 3, 4]


def workload(seed=14):
    graph = planted_graph(40, 90, EDGES, LABELS, copies=2, num_labels=5, seed=seed)
    template = PatternTemplate.from_edges(
        EDGES, {i: l for i, l in enumerate(LABELS)}, name="t"
    )
    return graph, template


class TestExactRuns:
    def test_default_pipeline_audits_clean(self):
        graph, template = workload()
        result = run_pipeline(
            graph, template, 1, PipelineOptions(num_ranks=2, count_matches=True)
        )
        report = audit_result(graph, result)
        assert report.exact
        assert report.worst_precision() == 1.0
        assert report.worst_recall() == 1.0
        assert report.failures() == []
        assert audit_match_vectors(graph, result) == {}

    def test_naive_audits_clean_too(self):
        graph, template = workload()
        result = run_pipeline(graph, template, 1, naive_options())
        assert audit_result(graph, result).exact

    def test_report_repr(self):
        graph, template = workload()
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=2))
        report = audit_result(graph, result)
        assert "exact=True" in repr(report)
        assert "precision=1.000" in repr(report.prototypes[0])


class TestExploratoryRuns:
    def test_audits_only_the_searched_levels(self):
        # A 4-cycle with a chord; only the chordless cycle (one edit away)
        # is planted, over a background whose labels the template never
        # uses, so the top-down sweep stops at k=1 and never searches k=2.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            {0: 1, 1: 2, 2: 3, 3: 4},
            name="chorded-c4",
        )
        core = gnm_graph(40, 80, num_labels=2, seed=5)
        graph = from_edges(
            core.edges(), labels={v: core.label(v) + 10 for v in core.vertices()}
        )
        plant_pattern(
            graph, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 2, 3, 4],
            copies=1, seed=7,
        )
        result = exploratory_search(
            graph, template, max_k=2,
            options=PipelineOptions(num_ranks=2, count_matches=True),
        )
        assert stopping_distance(result) == 1
        assert result.prototype_set.max_distance == 2
        report = audit_result(graph, result)
        assert report.exact
        audited = {audit.proto_id for audit in report.prototypes}
        searched = {o.proto_id for o in result.outcomes()}
        assert audited == searched
        assert all(
            result.prototype_set.by_id(pid).distance <= 1 for pid in audited
        )
        assert any(
            audit.match_count_true > 0 for audit in report.prototypes
        )


class TestDetectsViolations:
    def test_flags_imprecise_constraint_only_run(self):
        """A superset-only run (no full walk, no enumeration) must fail an
        audit whenever false positives survive."""
        graph, template = workload(seed=3)
        result = run_pipeline(
            graph, template, 1,
            PipelineOptions(
                num_ranks=2,
                include_full_walk=False,
                verification="constraints",
            ),
        )
        report = audit_result(graph, result)
        # recall always holds (pruning is sound)...
        assert report.worst_recall() == 1.0
        # ...and the audit exposes any precision gap without crashing.
        for audit in report.prototypes:
            assert audit.false_negatives == set()
            assert 0.0 <= audit.vertex_precision <= 1.0

    def test_flags_tampered_result(self):
        graph, template = workload()
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=2))
        outcome = result.outcomes()[0]
        intruder = next(
            v for v in graph.vertices() if v not in outcome.solution_vertices
        )
        outcome.solution_vertices.add(intruder)
        result.match_vectors.setdefault(intruder, set()).add(outcome.proto_id)
        report = audit_result(graph, result)
        assert not report.exact
        assert intruder in report.prototypes[0].false_positives
        diff = audit_match_vectors(graph, result)
        assert intruder in diff
        assert outcome.proto_id in diff[intruder]["spurious"]

    def test_flags_missing_vertex(self):
        graph, template = workload()
        result = run_pipeline(graph, template, 0, PipelineOptions(num_ranks=2))
        outcome = result.outcomes()[0]
        victim = next(iter(outcome.solution_vertices))
        outcome.solution_vertices.discard(victim)
        report = audit_result(graph, result)
        assert victim in report.prototypes[0].false_negatives
        assert report.worst_recall() < 1.0
