"""The batched NLCC token frontier (core/nlcc.py, arraystate walk).

Every walk is checked against the brute-force oracle: after the full-walk
constraint the state is exactly the solution subgraph, and the full
walk's completed mappings are exactly the subgraph isomorphisms.  The
per-constraint outcome (checked/satisfied/recycled sets, eliminations,
completions, dedup merges), the final state and the message totals are
pinned to golden values recorded when a dict token walk still proved them
equal on these exact workloads.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.audit import audit_result
from repro.core import (
    ArraySearchState,
    NlccCache,
    PatternTemplate,
    PipelineOptions,
    SearchState,
    generate_constraints,
    local_constraint_checking,
    non_local_constraint_checking,
    run_pipeline,
)
from repro.core.kernels import compile_role_kernel
from repro.core.ordering import order_constraints
from repro.graph.generators import gnm_graph
from repro.graph.graph import Graph, canonical_edge
from repro.graph.isomorphism import find_subgraph_isomorphisms
from repro.runtime import Engine, MessageStats, PartitionedGraph

from test_kernels import state_digest, stats_totals


def engine_for(graph, ranks=4):
    return Engine(PartitionedGraph(graph, ranks), MessageStats(ranks))


def result_row(constraint, result):
    return [
        constraint.kind,
        len(result.checked),
        len(result.satisfied),
        len(result.recycled),
        result.eliminated_roles,
        result.completions,
        result.dedup_merged,
    ]


def rows_digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:12]


def run_constraints(graph, template, constraints, cache=None,
                    recycle=False, persistent=False):
    """Fresh post-LCC state, then every constraint in order.

    ``persistent`` runs the constraints on one live array state (the
    pipeline's level-persistent mode) instead of converting the dict state
    per constraint.  Returns (state, results, engine stats).
    """
    state = SearchState.initial(graph, template)
    engine = engine_for(graph)
    local_constraint_checking(state, template.graph, engine)
    kernel = compile_role_kernel(template.graph)
    astate = None
    if persistent:
        astate = ArraySearchState.from_search_state(state, roles=kernel.roles)
    results = []
    for constraint in constraints:
        results.append(non_local_constraint_checking(
            state, constraint, engine, cache=cache, recycle=recycle,
            kernel=kernel, astate=astate,
        ))
    if persistent:
        astate.write_back(state)
    return state, results, engine.stats


def all_constraints(graph, template):
    constraint_set = generate_constraints(template.graph, graph.label_counts())
    return order_constraints(constraint_set.non_local, graph.label_counts())


def assert_exact(graph, template, state, results):
    """The full walk left exactly the brute-force solution subgraph."""
    truth = list(find_subgraph_isomorphisms(template.graph, graph))
    vertices = {v for mapping in truth for v in mapping.values()}
    edges = {
        canonical_edge(mapping[u], mapping[v])
        for mapping in truth
        for u, v in template.graph.edges()
    }
    assert set(state.candidates) == vertices
    assert {canonical_edge(u, v) for u, v in state.active_edge_list()} == edges
    full_walk = results[-1]
    assert full_walk.constraint.kind == "tds_full"
    found = [frozenset(m.items()) for m in full_walk.completed_mappings]
    assert sorted(found, key=sorted) == sorted(
        (frozenset(m.items()) for m in truth), key=sorted
    )


#: workload -> (final state digest, (messages, remote, visits),
#: digest of the per-constraint rows of :func:`result_row`)
WALK_GOLDEN = {
    "c4-0": ("fed424e68fdf", (11549, 9098, 11937), "681d5103b197"),
    "c4-1": ("885614c304c5", (11581, 9095, 11945), "16c8ae4dbbdc"),
    "c4-2": ("2123ddd007a1", (14381, 10869, 14776), "6151f3581638"),
    "c4-3": ("2911d216cd3e", (16517, 12857, 16950), "c93f4f177219"),
    "c4-4": ("929fd38bde8b", (13776, 11218, 14178), "09be4660fbf5"),
    "el": ("09200a4bee5a", (358, 259, 431), "616ba2aba1c3"),
    "storm": ("cf5e3a56314d", (417150, 342990, 417330), "381acafaf8b3"),
    "tri-0": ("1391876e6368", (184, 143, 218), "c607e2a9206c"),
    "tri-1": ("1391876e6368", (207, 165, 244), "c607e2a9206c"),
    "tri-2": ("1391876e6368", (190, 144, 222), "c607e2a9206c"),
    "tri-3": ("1391876e6368", (222, 171, 260), "c607e2a9206c"),
    "tri-4": ("1391876e6368", (219, 165, 257), "c607e2a9206c"),
}


def check_walks(name, graph, template):
    constraints = all_constraints(graph, template)
    state, results, stats = run_constraints(graph, template, constraints)
    assert_exact(graph, template, state, results)
    digest, totals, rows = WALK_GOLDEN[name]
    assert state_digest(state) == digest
    assert stats_totals(stats) == totals
    assert rows_digest(
        [result_row(c, r) for c, r in zip(constraints, results)]
    ) == rows
    return constraints


class TestWalkEquivalence:
    """Exact against brute force, counters pinned, constraint by constraint."""

    @pytest.mark.parametrize("seed", range(5))
    def test_c4_all_constraint_kinds(self, seed):
        # Two labels on a C4: cycle + path constraints and the full walk,
        # all three walk kinds in one sweep.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 1, 2: 1, 3: 0},
        )
        graph = gnm_graph(60, 150, num_labels=2, seed=seed)
        constraints = check_walks(f"c4-{seed}", graph, template)
        assert {c.kind for c in constraints} >= {"cycle", "path", "tds_full"}

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_distinct_labels(self, seed):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3}
        )
        graph = gnm_graph(50, 140, num_labels=3, seed=seed + 10)
        check_walks(f"tri-{seed}", graph, template)

    def test_edge_labeled_walk(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)],
            labels={0: 1, 1: 2, 2: 3},
            edge_labels={(0, 1): 7},
        )
        graph = Graph()
        rng = np.random.default_rng(3)
        for v in range(40):
            graph.add_vertex(v, int(rng.integers(3)) + 1)
        added = 0
        while added < 110:
            u, v = int(rng.integers(40)), int(rng.integers(40))
            if u != v and not graph.has_edge(u, v):
                label = None if rng.random() < 0.5 else 7
                graph.add_edge(u, v, label)
                added += 1
        check_walks("el", graph, template)


class TestHubStormDedup:
    """The dedup fold merges swapped interior rows without changing results."""

    def storm_graph(self):
        # A clique of one label: every vertex is a candidate for every C4
        # role, every interior pair of a closed walk exists in both orders.
        graph = Graph()
        n = 10
        for v in range(n):
            graph.add_vertex(v, 0)
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v)
        return graph

    def test_dedup_fires_and_results_match(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 0, 2: 0, 3: 0},
        )
        graph = self.storm_graph()
        constraints = check_walks("storm", graph, template)

        # Rerun one cycle constraint directly to observe the merge counter:
        # in a single-label clique the two free interior positions of the
        # length-5 cycle walk occur in both orders for every vertex pair.
        state = SearchState.initial(graph, template)
        engine = engine_for(graph)
        local_constraint_checking(state, template.graph, engine)
        kernel = compile_role_kernel(template.graph)
        cycle = next(c for c in constraints if c.kind == "cycle")
        result = non_local_constraint_checking(
            state, cycle, engine, recycle=False, kernel=kernel,
        )
        assert result.dedup_merged > 0
        assert result.satisfied == result.checked


class TestCacheParity:
    """Work recycling, per-constraint and level-persistent modes alike."""

    def template_and_graph(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 1, 1: 2, 2: 3}
        )
        graph = gnm_graph(50, 140, num_labels=3, seed=2)
        return template, graph

    def cycles(self, graph, template):
        return [
            c for c in all_constraints(graph, template) if c.kind == "cycle"
        ]

    @pytest.mark.parametrize("persistent", [False, True])
    def test_second_run_recycles(self, persistent):
        template, graph = self.template_and_graph()
        constraints = self.cycles(graph, template)
        cache = NlccCache()
        _state, first, _stats = run_constraints(
            graph, template, constraints, cache=cache, recycle=True,
            persistent=persistent,
        )
        _state, second, _stats = run_constraints(
            graph, template, constraints, cache=cache, recycle=True,
            persistent=persistent,
        )
        # first pass recycles nothing, second recycles every satisfied
        # initiator
        assert all(result.recycled == set() for result in first)
        assert [r.recycled for r in second] == [r.satisfied for r in first]

    def test_hit_miss_counters_match(self):
        template, graph = self.template_and_graph()
        constraints = self.cycles(graph, template)
        counters = {}
        for persistent in (False, True):
            cache = NlccCache()
            for _ in range(2):
                run_constraints(
                    graph, template, constraints, cache=cache,
                    recycle=True, persistent=persistent,
                )
            counters[persistent] = (cache.hits, cache.misses)
        assert counters[False] == counters[True] == (0, 0)


#: k -> per-outcome (proto id, lcc iterations, nlcc constraints checked,
#: roles eliminated, recycled, tokens launched, completions, dedup merged)
PIPELINE_NLCC_GOLDEN = {
    0: [(0, 11, 9, 32, 88, 141, 258, 2)],
    1: [
        (1, 3, 5, 0, 66, 108, 1050, 0),
        (2, 3, 5, 0, 100, 69, 1300, 0),
        (3, 3, 5, 0, 106, 68, 1492, 0),
        (0, 11, 9, 32, 132, 97, 156, 2),
    ],
}


class TestPipelineEquivalence:
    """run_pipeline end to end: exact, with pinned NLCC counters."""

    def case(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 0, 1: 1, 2: 1, 3: 0},
        )
        graph = gnm_graph(80, 220, num_labels=2, seed=5)
        return template, graph

    @pytest.mark.parametrize("k", [0, 1])
    def test_end_to_end(self, k):
        template, graph = self.case()
        options = PipelineOptions(num_ranks=4, count_matches=True)
        result = run_pipeline(graph, template, k, options)
        assert audit_result(graph, result).exact
        assert [
            (o.proto_id, o.lcc_iterations, o.nlcc_constraints_checked,
             o.nlcc_roles_eliminated, o.nlcc_recycled,
             o.nlcc_tokens_launched, o.nlcc_completions,
             o.nlcc_dedup_merged)
            for level in result.levels for o in level.outcomes
        ] == PIPELINE_NLCC_GOLDEN[k]

    def test_stats_document_counters_without_tracer(self):
        template, graph = self.case()
        options = PipelineOptions(num_ranks=4, count_matches=True)
        doc = run_pipeline(graph, template, 1, options).stats_document()
        assert doc["nlcc"] == {
            "constraints_checked": 24,
            "roles_eliminated": 32,
            "recycled": 404,
            "tokens_launched": 342,
            "completions": 3998,
            "dedup_merged": 2,
        }
