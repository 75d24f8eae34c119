"""Tests for exploratory (top-down) search and motif counting."""

import pytest

from repro.core import (
    PatternTemplate,
    PipelineOptions,
    count_motifs,
    exploratory_search,
    motif_prototypes,
    motif_template,
    run_pipeline,
    stopping_distance,
)
from repro.graph import from_edges
from repro.graph.generators import gnm_graph, planted_graph


class TestExploratorySearch:
    def template(self):
        # Diamond (4-cycle + chord): max meaningful distance 2.
        return PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            name="diamond",
        )

    def test_stops_at_first_matching_level(self):
        t = self.template()
        # Plant only a k=1 prototype (the plain 4-cycle, chord missing).
        g = planted_graph(
            80, 160, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 2, 3, 4],
            copies=2, num_labels=6, seed=7,
        )
        result = exploratory_search(g, t, options=PipelineOptions(num_ranks=2))
        stop = stopping_distance(result)
        assert stop is not None and stop >= 1
        assert [lvl.distance for lvl in result.levels] == list(range(stop + 1))

    def test_stops_immediately_on_exact_match(self):
        t = self.template()
        g = planted_graph(
            80, 160, t.edges(), [1, 2, 3, 4], copies=2, num_labels=6, seed=8
        )
        result = exploratory_search(g, t, options=PipelineOptions(num_ranks=2))
        assert stopping_distance(result) == 0
        assert len(result.levels) == 1

    def test_no_match_searches_all_levels(self):
        t = self.template()
        g = from_edges([(0, 1)], labels={0: 1, 1: 2})
        result = exploratory_search(g, t, options=PipelineOptions(num_ranks=2))
        assert stopping_distance(result) is None
        assert len(result.levels) == t.max_meaningful_distance() + 1

    def test_agrees_with_bottom_up_at_stop_level(self):
        t = self.template()
        g = planted_graph(
            80, 160, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 2, 3, 4],
            copies=2, num_labels=6, seed=9,
        )
        top = exploratory_search(g, t, options=PipelineOptions(num_ranks=2))
        stop = stopping_distance(top)
        bottom = run_pipeline(g, t, stop, PipelineOptions(num_ranks=2))
        for proto in top.prototype_set.at(stop):
            assert (
                top.outcome_for(proto.id).solution_vertices
                == bottom.outcome_for(proto.id).solution_vertices
            )

    def test_max_k_limits_relaxation(self):
        t = self.template()
        g = from_edges([(0, 1)], labels={0: 1, 1: 2})
        result = exploratory_search(g, t, max_k=1, options=PipelineOptions(num_ranks=2))
        assert len(result.levels) == 2

    def test_custom_stop_condition(self):
        t = self.template()
        g = from_edges([(0, 1)], labels={0: 1, 1: 2})
        result = exploratory_search(
            g, t, stop_condition=lambda level: True,
            options=PipelineOptions(num_ranks=2),
        )
        assert len(result.levels) == 1


class TestExploratoryOnTheSweep:
    """Top-down levels run the bottom-up sweep's setup, step and epilogue."""

    @pytest.mark.parametrize("knobs", [
        {},
        {"constraint_ordering": "walk-cost"},
        {"partition_strategy": "block"},
        {"use_max_candidate_set": False},
    ], ids=["default", "walk-cost", "block", "no-mstar"])
    def test_levels_match_containment_free_bottom_up(self, knobs):
        # With containment off, every bottom-up scope is cut from M* just
        # like a top-down one; recycling and the measured-cost re-sort are
        # off so the opposite level order cannot matter.
        t = TestExploratorySearch().template()
        g = planted_graph(
            80, 160, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 2, 3, 4],
            copies=2, num_labels=6, seed=9,
        )
        options = dict(
            num_ranks=2, use_containment=False, work_recycling=False,
            adaptive=False, **knobs,
        )
        top = exploratory_search(
            g, t, stop_condition=lambda level: False,
            options=PipelineOptions(**options),
        )
        bottom = run_pipeline(
            g, t, t.max_meaningful_distance(), PipelineOptions(**options)
        )
        assert top.candidate_set_vertices == bottom.candidate_set_vertices
        assert top.match_vectors == bottom.match_vectors

        def rows(result):
            return {
                o.prototype.id: (
                    sorted(o.solution_edges), o.lcc_iterations,
                    o.nlcc_constraints_checked, o.nlcc_tokens_launched,
                    o.messages, o.remote_messages, o.simulated_seconds,
                )
                for o in result.outcomes()
            }

        def level_sizes(result):
            return {
                lvl.distance: (lvl.union_vertices, lvl.union_edges)
                for lvl in result.levels
            }

        assert rows(top) == rows(bottom)
        assert level_sizes(top) == level_sizes(bottom)
        assert any(edges for _, edges in level_sizes(top).values())


class TestMotifs:
    def test_motif_template_unlabeled(self):
        t = motif_template(4)
        assert t.label_set() == {0}
        assert t.num_edges == 6

    def test_motif_prototype_counts(self):
        assert len(motif_prototypes(3)) == 2
        assert len(motif_prototypes(4)) == 6
        assert len(motif_prototypes(5)) == 21  # connected 5-vertex graphs

    def test_triangle_and_path_counts(self):
        # One triangle with a pendant: 1 triangle, 2 induced P3.
        g = from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], labels={v: 0 for v in range(4)})
        counts = count_motifs(g, 3, PipelineOptions(num_ranks=2))
        by_edges = {p.num_edges: counts.induced[p.id] for p in counts.prototypes}
        assert by_edges[3] == 1  # the triangle {0,1,2}
        assert by_edges[2] == 2  # induced paths {0,2,3} and {1,2,3}

    def test_agreement_with_esu_baseline(self):
        from repro.baselines import arabesque_count_motifs
        from repro.graph.isomorphism import canonical_form

        g = gnm_graph(40, 90, num_labels=1, seed=13)
        counts = count_motifs(g, 4, PipelineOptions(num_ranks=2))
        reference = arabesque_count_motifs(g, 4)
        ours = {canonical_form(p.graph): counts.induced[p.id] for p in counts.prototypes}
        for key, value in reference.counts.items():
            assert ours[key] == value
        assert counts.total_induced() == reference.total_embeddings()

    def test_noninduced_at_least_induced(self):
        g = gnm_graph(30, 60, num_labels=1, seed=14)
        counts = count_motifs(g, 3, PipelineOptions(num_ranks=2))
        for proto in counts.prototypes:
            assert counts.noninduced[proto.id] >= counts.induced[proto.id]

    def test_by_name(self):
        g = gnm_graph(20, 30, num_labels=1, seed=15)
        counts = count_motifs(g, 3, PipelineOptions(num_ranks=2))
        named = counts.by_name()
        assert set(named) == {p.name for p in counts.prototypes}

    def test_spanning_subgraph_count(self):
        from repro.core.motifs import spanning_subgraph_count

        k3 = motif_template(3).graph
        p3 = motif_prototypes(3).at(1)[0].graph
        assert spanning_subgraph_count(p3, k3) == 3  # 3 paths span a triangle
        assert spanning_subgraph_count(k3, p3) == 0  # denser cannot fit
