"""Bitmask role kernels (core/kernels.py) and the fixed points they drive.

The LCC fixed point is checked against an independent oracle — dual
simulation (:mod:`repro.baselines.simulation`) computes the same
arc-consistency fixed point over the same templates — and whole
pipelines against brute-force subgraph isomorphism.  Iteration counts,
message/remote/visit totals and M* sizes are pinned to golden values
recorded when a second, dict-based implementation still proved them
equal on these exact workloads.
"""

import hashlib

import pytest

from repro.analysis.audit import audit_result
from repro.baselines.simulation import dual_simulation
from repro.core import (
    PatternTemplate,
    PipelineOptions,
    SearchState,
    compile_role_kernel,
    generate_prototypes,
    local_constraint_checking,
    max_candidate_set,
    run_pipeline,
)
from repro.graph.graph import Graph
from repro.graph.generators import planted_graph
from repro.runtime import Engine, MessageStats, PartitionedGraph


def engine_for(graph, ranks=3):
    return Engine(PartitionedGraph(graph, ranks), MessageStats(ranks))


#: template shapes with label collisions so vertices hold several roles
def template_pool():
    return [
        PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            name="tri+tail",
        ),
        PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3)],
            labels={0: 1, 1: 2, 2: 1, 3: 2},
            name="alt-path",  # repeated labels: candidates hold 2 roles
        ),
        PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            labels={0: 1, 1: 1, 2: 2, 3: 2},
            name="square",
        ),
        PatternTemplate.from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 2)],
            labels={0: 1, 1: 2, 2: 2, 3: 3},
            name="fan",
        ),
    ]


def random_case(seed):
    template = template_pool()[seed % 4]
    labels = [template.label(v) for v in sorted(template.graph.vertices())]
    graph = planted_graph(
        40, 110, template.edges(), labels, copies=2, num_labels=4, seed=seed
    )
    return graph, template


def state_digest(state):
    """Short fingerprint of a state's exact candidates and active edges."""
    snapshot = (
        sorted((v, sorted(roles)) for v, roles in state.candidates.items()),
        sorted(state.active_edge_list()),
    )
    return hashlib.sha256(repr(snapshot).encode()).hexdigest()[:12]


def stats_totals(stats):
    return (stats.total_messages, stats.total_remote_messages, stats.total_visits)


def lcc_snapshot(graph, template, **config):
    proto = generate_prototypes(template, 0).at(0)[0]
    state = SearchState.initial(graph, template)
    engine = engine_for(graph)
    iterations = local_constraint_checking(
        state, proto.graph, engine, **config
    )
    return state, iterations, engine.stats


def simulation_roles(graph, template):
    """Dual simulation's candidates, inverted to vertex -> roles."""
    roles = {}
    for role, vertices in dual_simulation(graph, template).candidates.items():
        for vertex in vertices:
            roles.setdefault(vertex, set()).add(role)
    return roles


#: random_case(seed) LCC: (iterations, (messages, remote, visits),
#: (active vertices, active edges), state digest)
LCC_GOLDEN = {
    0: (3, (198, 142, 236), (8, 8), "2c1424c0c97e"),
    1: (2, (109, 64, 135), (17, 13), "7afc0bf42b97"),
    2: (3, (145, 100, 175), (22, 35), "52ff71bf8b27"),
    3: (5, (180, 115, 218), (18, 18), "ee1b642dca1b"),
    4: (3, (212, 130, 254), (8, 8), "2c1424c0c97e"),
    5: (2, (124, 86, 151), (22, 18), "e87750db23c5"),
    6: (3, (132, 87, 161), (15, 19), "f06c7e09c729"),
    7: (4, (216, 146, 259), (25, 29), "1b876384ae47"),
}

#: edge-labeled background(seed) LCC, same fields as LCC_GOLDEN
EDGE_LABELED_GOLDEN = {
    0: (3, (120, 82, 144), (3, 3), "cf2773738014"),
    1: (5, (120, 86, 144), (3, 3), "f9c7c343474c"),
    2: (3, (120, 80, 144), (6, 9), "129e36288a8c"),
    3: (3, (120, 92, 144), (0, 0), "1391876e6368"),
    4: (3, (120, 86, 144), (3, 3), "f7b63df2d56e"),
    5: (3, (120, 86, 144), (11, 16), "f1971a4c2a25"),
}

#: random_case(seed) M*: ((messages, remote, visits), (vertices, edges),
#: state digest)
MSTAR_GOLDEN = {
    0: ((198, 142, 236), (37, 54), "f86c6447346d"),
    1: ((109, 64, 135), (17, 13), "7afc0bf42b97"),
    2: ((145, 100, 175), (29, 45), "ddfa5845c79a"),
    3: ((180, 115, 218), (33, 44), "70291009e0b8"),
    4: ((212, 130, 254), (42, 64), "58e49dc927b4"),
    5: ((124, 86, 151), (22, 18), "e87750db23c5"),
}

#: M* of the tri+tail template with mandatory edge (2, 3)
MANDATORY_MSTAR_GOLDEN = ((180, 111, 218), (25, 24), "8dd38b123dcf")

#: pipeline "seed-k": (M* vertices, M* edges), (messages, remote, visits),
#: per-outcome (proto id, lcc iterations, post-LCC vertices, post-LCC edges)
PIPELINE_GOLDEN = {
    "11-1": ((49, 64), (611, 374, 857),
             [(1, 3, 12, 9), (2, 4, 12, 9), (3, 4, 12, 9), (0, 1, 12, 12)]),
    "11-2": ((49, 64), (611, 374, 857),
             [(1, 3, 12, 9), (2, 4, 12, 9), (3, 4, 12, 9), (0, 1, 12, 12)]),
    "23-1": ((44, 50), (522, 273, 747),
             [(1, 3, 12, 9), (2, 4, 12, 9), (3, 4, 13, 10), (0, 2, 12, 12)]),
    "23-2": ((44, 50), (522, 273, 747),
             [(1, 3, 12, 9), (2, 4, 12, 9), (3, 4, 13, 10), (0, 2, 12, 12)]),
}


def edge_labeled_background(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    graph = Graph()
    n = 24
    for v in range(n):
        graph.add_vertex(v, int(rng.integers(3)) + 1)
    added = 0
    while added < 60:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not graph.has_edge(u, v):
            label = None if rng.random() < 0.5 else int(rng.integers(2)) + 6
            graph.add_edge(u, v, label)
            added += 1
    return graph


def edge_labeled_template(wanted=7):
    return PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 0)],
        labels={0: 1, 1: 2, 2: 3},
        edge_labels={(0, 1): wanted},
        name="el",
    )


def pipeline_case(seed):
    template = template_pool()[0]  # triangle -> NLCC cycle constraints
    labels = [template.label(v) for v in sorted(template.graph.vertices())]
    graph = planted_graph(
        50, 130, template.edges(), labels, copies=3, num_labels=4, seed=seed
    )
    return graph, template


class TestRoleKernelTables:
    def template(self):
        return template_pool()[0]

    def test_role_bits_are_a_bijection(self):
        kernel = compile_role_kernel(self.template().graph)
        bits = set(kernel.role_bit.values())
        assert len(bits) == len(kernel.roles)
        assert all(bit & (bit - 1) == 0 for bit in bits)  # powers of two
        for role, bit in kernel.role_bit.items():
            assert kernel.bit_role[bit] == role

    def test_mask_roundtrip(self):
        kernel = compile_role_kernel(self.template().graph)
        for subset in ({0}, {1, 3}, {0, 1, 2, 3}, set()):
            assert kernel.roles_of(kernel.mask_of(subset)) == subset
        assert kernel.mask_of(kernel.roles) == kernel.full_mask

    def test_neighbor_masks_mirror_template_adjacency(self):
        template = self.template()
        kernel = compile_role_kernel(template.graph)
        for role in kernel.roles:
            mask = kernel.neighbor_masks[kernel.role_bit[role]]
            assert kernel.roles_of(mask) == set(template.graph.neighbors(role))

    def test_label_role_masks(self):
        template = template_pool()[1]  # labels 1,2,1,2
        kernel = compile_role_kernel(template.graph)
        assert kernel.roles_of(kernel.label_role_masks[1]) == {0, 2}
        assert kernel.roles_of(kernel.label_role_masks[2]) == {1, 3}

    def test_mandatory_masks(self):
        template = self.template()
        kernel = compile_role_kernel(template.graph)
        masks = kernel.mandatory_masks([(2, 3)])
        assert kernel.roles_of(masks[kernel.role_bit[2]]) == {3}
        assert kernel.roles_of(masks[kernel.role_bit[3]]) == {2}
        assert masks[kernel.role_bit[0]] == 0

    def test_edge_labeled_tables_split_by_label(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)],
            labels={0: 1, 1: 2, 2: 3},
            edge_labels={(0, 1): 7},
        )
        kernel = compile_role_kernel(template.graph)
        assert kernel.edge_labeled
        bit0 = kernel.role_bit[0]
        assert kernel.roles_of(kernel.any_neighbor_masks[bit0]) == {2}
        assert kernel.roles_of(kernel.labeled_neighbor_masks[bit0][7]) == {1}


class TestLccEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_fixed_point_identical(self, seed):
        graph, template = random_case(seed)
        state, iterations, _stats = lcc_snapshot(graph, template)
        # LCC over the full template is dual simulation.
        assert {
            v: set(roles) for v, roles in state.candidates.items()
        } == simulation_roles(graph, template)
        want_iterations, _totals, size, digest = LCC_GOLDEN[seed]
        assert iterations == want_iterations
        assert (state.num_active_vertices, state.num_active_edges) == size
        assert state_digest(state) == digest

    @pytest.mark.parametrize("seed", range(8))
    def test_message_counts(self, seed):
        graph, template = random_case(seed)
        _state, _iterations, stats = lcc_snapshot(graph, template)
        assert stats_totals(stats) == LCC_GOLDEN[seed][1]

    def test_isolated_candidate_eliminated_in_round_one(self):
        # A right-labeled vertex with no active edges receives no witnesses;
        # the semi-naive schedule must still evaluate (and kill) it in
        # round 1.
        template = template_pool()[0]
        graph = Graph()
        for v, lab in [(0, 1), (1, 2), (2, 3), (3, 4), (9, 3)]:
            graph.add_vertex(v, lab)
        for u, v in [(0, 1), (1, 2), (2, 0), (2, 3)]:
            graph.add_edge(u, v)
        state = SearchState.initial(graph, template)
        local_constraint_checking(state, template.graph, engine_for(graph))
        assert not state.is_active(9)
        assert state.is_active(2)


class TestEdgeLabeledEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_labeled_fixed_point_identical(self, seed):
        graph = edge_labeled_background(seed)
        state, iterations, stats = lcc_snapshot(graph, edge_labeled_template())
        want_iterations, totals, size, digest = EDGE_LABELED_GOLDEN[seed]
        assert iterations == want_iterations
        assert stats_totals(stats) == totals
        assert (state.num_active_vertices, state.num_active_edges) == size
        assert state_digest(state) == digest


class TestMaxCandidateSetEquivalence:
    def mcs_snapshot(self, graph, template):
        engine = engine_for(graph)
        state = max_candidate_set(graph, template, engine)
        return state, engine.stats

    @pytest.mark.parametrize("seed", range(6))
    def test_mstar_identical(self, seed):
        graph, template = random_case(seed)
        state, stats = self.mcs_snapshot(graph, template)
        totals, size, digest = MSTAR_GOLDEN[seed]
        assert stats_totals(stats) == totals
        assert (state.num_active_vertices, state.num_active_edges) == size
        assert state_digest(state) == digest
        # M* covers every exact-template LCC candidate role.
        exact, _iterations, _stats = lcc_snapshot(graph, template)
        for vertex, roles in exact.candidates.items():
            assert roles <= state.candidates[vertex]

    def test_mandatory_edges_identical(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            mandatory_edges=[(2, 3)],
        )
        labels = [1, 2, 3, 4]
        graph = planted_graph(
            40, 110, template.edges(), labels, copies=2, num_labels=4, seed=3
        )
        state, stats = self.mcs_snapshot(graph, template)
        totals, size, digest = MANDATORY_MSTAR_GOLDEN
        assert stats_totals(stats) == totals
        assert (state.num_active_vertices, state.num_active_edges) == size
        assert state_digest(state) == digest


class TestPipelineEquivalence:
    """End-to-end: exact against brute force, counters pinned."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_full_pipeline_identical(self, k, seed):
        graph, template = pipeline_case(seed)
        result = run_pipeline(
            graph, template, k,
            PipelineOptions(num_ranks=3, count_matches=True),
        )
        assert audit_result(graph, result).exact
        mstar, totals, outcomes = PIPELINE_GOLDEN[f"{seed}-{k}"]
        assert (
            result.candidate_set_vertices, result.candidate_set_edges
        ) == mstar
        summary = result.message_summary
        assert (
            summary["total_messages"],
            summary["remote_messages"],
            summary["total_visits"],
        ) == totals
        assert [
            (o.proto_id, o.lcc_iterations, o.post_lcc_vertices,
             o.post_lcc_edges)
            for level in result.levels for o in level.outcomes
        ] == outcomes
