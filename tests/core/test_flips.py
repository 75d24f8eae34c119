"""Tests for edge-flip template variants."""

import pytest

from repro.core import PatternTemplate, PipelineOptions
from repro.core.flips import (
    envelope_template,
    generate_flip_variants,
    run_flip_pipeline,
)
from repro.errors import TemplateError
from repro.graph import are_isomorphic, is_connected
from repro.graph.generators import planted_graph
from repro.graph.graph import canonical_edge
from repro.graph.isomorphism import find_subgraph_isomorphisms
from repro.runtime.trace import Tracer


def base_template():
    # Path 1-2-3-4: flips can re-wire it into stars and other trees.
    return PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 3)],
        labels={0: 1, 1: 2, 2: 3, 3: 4},
        name="p4",
    )


class TestVariantGeneration:
    def test_original_is_variant_zero(self):
        variants = generate_flip_variants(base_template(), flips=1)
        assert variants[0].graph == base_template().graph

    def test_all_connected_same_edge_count(self):
        template = base_template()
        for variant in generate_flip_variants(template, flips=2):
            assert is_connected(variant.graph)
            assert variant.num_edges == template.num_edges
            assert set(variant.graph.vertices()) == set(template.graph.vertices())

    def test_no_isomorphic_duplicates(self):
        variants = generate_flip_variants(base_template(), flips=1)
        for i, a in enumerate(variants):
            for b in variants[i + 1 :]:
                assert not are_isomorphic(a.graph, b.graph)

    def test_zero_flips(self):
        variants = generate_flip_variants(base_template(), flips=0)
        assert len(variants) == 1

    def test_negative_flips_rejected(self):
        with pytest.raises(TemplateError):
            generate_flip_variants(base_template(), flips=-1)

    def test_budget_enforced(self):
        with pytest.raises(TemplateError):
            generate_flip_variants(base_template(), flips=2, max_variants=2)

    def test_mandatory_edges_survive_flips(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            mandatory_edges=[(1, 2)],
        )
        for variant in generate_flip_variants(template, flips=2):
            assert variant.graph.has_edge(1, 2)


class TestEnvelope:
    def test_envelope_covers_all_variants(self):
        template = base_template()
        variants = generate_flip_variants(template, flips=1)
        envelope = envelope_template(template, variants)
        for variant in variants:
            for u, v in variant.edges():
                assert envelope.graph.has_edge(u, v)

    def test_envelope_connected(self):
        template = base_template()
        variants = generate_flip_variants(template, flips=1)
        assert is_connected(envelope_template(template, variants).graph)


class TestFlipPipeline:
    def test_precision_and_recall_per_variant(self):
        template = base_template()
        graph = planted_graph(
            40, 80, template.edges(), [1, 2, 3, 4], copies=2,
            num_labels=5, seed=19,
        )
        result = run_flip_pipeline(
            graph, template, flips=1, options=PipelineOptions(num_ranks=2)
        )
        for variant in result.variants:
            expected = {
                v
                for m in find_subgraph_isomorphisms(variant.graph, graph)
                for v in m.values()
            }
            assert result.outcomes[variant.name].solution_vertices == expected

    def test_variants_exact_against_brute_force(self):
        template = base_template()
        graph = planted_graph(
            40, 80, template.edges(), [1, 2, 3, 4], copies=2,
            num_labels=5, seed=19,
        )
        tracer = Tracer()
        options = PipelineOptions(
            num_ranks=2, count_matches=True, tracer=tracer
        )
        result = run_flip_pipeline(graph, template, flips=1, options=options)
        for variant in result.variants:
            outcome = result.outcomes[variant.name]
            truth = list(find_subgraph_isomorphisms(variant.graph, graph))
            assert outcome.solution_vertices == {
                v for mapping in truth for v in mapping.values()
            }
            assert {
                canonical_edge(u, v) for u, v in outcome.solution_edges
            } == {
                canonical_edge(mapping[a], mapping[b])
                for mapping in truth
                for a, b in variant.graph.edges()
            }
            assert outcome.match_mappings == len(truth)
        assert [
            result.outcomes[v.name].lcc_iterations for v in result.variants
        ] == [4, 3, 4, 4, 4, 4, 4, 3]
        assert result.candidate_set_vertices == 43
        # the run's tracer and metrics registry reach every engine
        spans = [
            span.name for root in tracer.roots for span, _depth in root.walk()
        ]
        assert "max_candidate_set" in spans
        assert spans.count("prototype") == len(result.variants)
        assert dict(options.metrics.counters())["engine.rounds_batched"] > 0

    def test_variants_run_the_sweep_step(self):
        # Variants are searched by the sweep's per-prototype step: measured
        # NLCC costs recycle across variants (the adaptive re-sort's input)
        # and every outcome carries its message accounting.
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        template = PatternTemplate.from_edges(
            edges, labels={0: 1, 1: 2, 2: 3, 3: 4}, name="tri-tail"
        )
        graph = planted_graph(
            40, 80, edges, [1, 2, 3, 4], copies=2, num_labels=5, seed=19,
        )
        options = PipelineOptions(num_ranks=2)
        result = run_flip_pipeline(graph, template, flips=1, options=options)
        checked = sum(
            o.nlcc_constraints_checked for o in result.outcomes.values()
        )
        assert checked > 0
        assert len(options.constraint_costs) > 0
        outcomes = list(result.outcomes.values())
        assert sum(o.messages for o in outcomes) > 0
        assert all(0 <= o.remote_messages <= o.messages for o in outcomes)

    def test_match_vectors_union(self):
        template = base_template()
        graph = planted_graph(
            40, 80, template.edges(), [1, 2, 3, 4], copies=2,
            num_labels=5, seed=19,
        )
        result = run_flip_pipeline(
            graph, template, flips=1, options=PipelineOptions(num_ranks=2)
        )
        expected = set()
        for outcome in result.outcomes.values():
            expected |= outcome.solution_vertices
        assert result.matched_vertices() == expected
        assert template.name in repr(result)

    def test_finds_flipped_structure_the_template_misses(self):
        """Plant a star; the path template only matches via a flip."""
        template = base_template()
        star_edges = [(1, 0), (1, 2), (1, 3)]  # star centered at vertex 1
        graph = planted_graph(
            40, 70, star_edges, [1, 2, 3, 4], copies=2, num_labels=5, seed=23,
        )
        result = run_flip_pipeline(
            graph, template, flips=1, options=PipelineOptions(num_ranks=2)
        )
        with_matches = result.variants_with_matches()
        star_variants = [
            v.name for v in result.variants
            if any(v.graph.degree(w) == 3 for w in v.graph.vertices())
        ]
        assert any(name in with_matches for name in star_variants)
