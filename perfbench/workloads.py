"""The benchmark's workloads: seeded inputs, the query, its answer, its oracle.

Each workload exposes the same small surface so the repetition code in
``child.py`` can treat them alike:

* ``build(seed)`` makes the background graph from the seed alone;
* ``query(graph, options)`` is the one public call that is timed;
* ``options(tracer)`` gives the :class:`PipelineOptions` the query runs with;
* ``results(answer)`` lists the :class:`PipelineResult` objects behind the
  answer, for the per-layer counts;
* ``digest(answer)`` is a canonical, JSON-able summary of the answer, used
  to compare a traced answer with an untraced one;
* ``check(graph, answer, oracle)`` compares the answer with a brute-force
  oracle and returns a list of problems (empty means correct).

Sizes come from a profile: ``full`` is what the benchmark measures,
``smoke`` is a tiny copy with the same shape for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

import numpy as np

from repro import PipelineOptions, exploratory_search, run_pipeline
from repro.analysis.audit import audit_result
from repro.baselines.arabesque import arabesque_count_motifs
from repro.core.motifs import count_motifs
from repro.core.patterns import wdc3_template, wdc4_template
from repro.core.results import PipelineResult
from repro.graph.generators import plant_pattern, webgraph
from repro.graph.graph import Graph, canonical_edge
from repro.graph.isomorphism import canonical_form, find_subgraph_isomorphisms

#: WDC-4 edges left out of the planted copies: the 6-clique minus these
#: three edges only matches once the search has relaxed to k=3.
WDC4_PLANT_DROPPED = [(0, 1), (2, 3), (4, 5)]

PROFILES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "wdc4-explore": {"vertices": 2500, "max_k": 1, "builds": 4},
        "wdc3-bottomup": {"vertices": 12000, "k": 2, "copies": 4, "builds": 2},
        "census5-pool": {
            "core_vertices": 150, "core_cycles": 3, "dust": 5000, "builds": 4,
        },
    },
    "smoke": {
        "wdc4-explore": {"vertices": 300, "max_k": 1, "builds": 2},
        "wdc3-bottomup": {"vertices": 400, "k": 2, "copies": 2, "builds": 2},
        "census5-pool": {
            "core_vertices": 16, "core_cycles": 2, "dust": 40, "builds": 2,
        },
    },
}


def _sha(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def graph_digest(graph: Graph) -> str:
    """Identity of a generated graph: its labeled vertices and edges."""
    return _sha([
        sorted(graph.labels().items()),
        sorted(canonical_edge(u, v) for u, v in graph.edges()),
    ])


def _outcome_truth(proto, graph: Graph):
    """Brute-force solution vertices and edges of one prototype."""
    vertices, edges = set(), set()
    proto_edges = list(proto.graph.edges())
    for mapping in find_subgraph_isomorphisms(proto.graph, graph):
        vertices.update(mapping.values())
        for u, v in proto_edges:
            edges.add(canonical_edge(mapping[u], mapping[v]))
    return vertices, edges


def _vectors(result: PipelineResult) -> List[List[object]]:
    return sorted(
        [vertex, sorted(ids)] for vertex, ids in result.match_vectors.items()
    )


def cycle_union(num_vertices: int, cycles: int, seed: int) -> Graph:
    """Single-label union of random Hamiltonian cycles: a near-regular core.

    Motif counts of a G(n, m) core are ruled by its few highest-degree
    vertices and move ~10% from seed to seed; with every degree close to
    ``2 * cycles`` they move ~3%, so a new seed changes the inputs but
    hardly the amount of work.
    """
    rng = np.random.default_rng(seed)
    graph = Graph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, 0)
    for _ in range(cycles):
        order = [int(v) for v in rng.permutation(num_vertices)]
        for u, v in zip(order, order[1:] + order[:1]):
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return graph


class Workload:
    """Base for one named workload at one profile's sizes."""

    name = ""
    #: does the query need a precomputed oracle (see ``compute_oracle``)?
    needs_oracle = False

    def __init__(self, profile: str = "full") -> None:
        self.profile = profile
        self.params = PROFILES[profile][self.name]
        self.builds = self.params["builds"]

    def options(self, tracer=None) -> PipelineOptions:
        raise NotImplementedError

    def results(self, answer) -> List[PipelineResult]:
        return [answer]

    def counts(self, answer) -> Dict[str, float]:
        """Workload-specific per-layer counts beyond the outcome counters."""
        return {"batch.aux_views": 0}

    def compute_oracle(self, graph: Graph) -> Optional[dict]:
        return None


class Wdc4Explore(Workload):
    """Exploratory relaxation of the WDC-4 6-clique (§5.5 scenario)."""

    name = "wdc4-explore"

    def build(self, seed: int) -> Graph:
        graph = webgraph(self.params["vertices"], num_labels=20, seed=seed)
        template = wdc4_template()
        relaxed = [e for e in template.edges() if e not in WDC4_PLANT_DROPPED]
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        plant_pattern(graph, relaxed, labels, copies=2, seed=seed + 1)
        return graph

    def options(self, tracer=None) -> PipelineOptions:
        return PipelineOptions(num_ranks=4)

    def query(self, graph: Graph, options: PipelineOptions) -> PipelineResult:
        return exploratory_search(
            graph, wdc4_template(), max_k=self.params["max_k"], options=options
        )

    def digest(self, answer: PipelineResult) -> dict:
        levels = [[lv.distance, lv.num_prototypes] for lv in answer.levels]
        return {
            "levels": levels,
            "prototypes_searched": sum(n for _, n in levels),
            "matched_vertices": len(answer.match_vectors),
            "sha": _sha([levels, _vectors(answer)]),
        }

    def check(self, graph: Graph, answer: PipelineResult, oracle=None) -> List[str]:
        """Every searched prototype against brute force, plus the stop level.

        Only the searched levels have outcomes (levels past the stop are
        never run), so the whole-result audit does not apply here.
        """
        problems: List[str] = []
        max_k = self.params["max_k"]
        expected_stop = None
        for level in answer.levels:
            matched = False
            for proto in answer.prototype_set.at(level.distance):
                outcome = answer.outcome_for(proto.id)
                vertices, edges = _outcome_truth(proto, graph)
                matched = matched or bool(vertices)
                reported_edges = {
                    canonical_edge(u, v) for u, v in outcome.solution_edges
                }
                if set(outcome.solution_vertices) != vertices or reported_edges != edges:
                    problems.append(f"prototype {proto.id}: solution differs")
            if matched and expected_stop is None:
                expected_stop = level.distance
        last = expected_stop if expected_stop is not None else max_k
        searched = [level.distance for level in answer.levels]
        if searched != list(range(0, last + 1)):
            problems.append(f"searched levels {searched}, expected 0..{last}")
        return problems


class Wdc3BottomUp(Workload):
    """Bottom-up WDC-3 search at k=2 with match counting (Alg. 1)."""

    name = "wdc3-bottomup"

    def build(self, seed: int) -> Graph:
        graph = webgraph(self.params["vertices"], num_labels=20, seed=seed)
        template = wdc3_template()
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        plant_pattern(
            graph, list(template.edges()), labels,
            copies=self.params["copies"], seed=seed + 1,
        )
        return graph

    def options(self, tracer=None) -> PipelineOptions:
        return PipelineOptions(num_ranks=4, count_matches=True)

    def query(self, graph: Graph, options: PipelineOptions) -> PipelineResult:
        return run_pipeline(graph, wdc3_template(), self.params["k"], options)

    def digest(self, answer: PipelineResult) -> dict:
        counts = sorted(
            [o.prototype.id, o.match_mappings] for o in answer.outcomes()
        )
        return {
            "prototypes_searched": len(counts),
            "matched_vertices": len(answer.match_vectors),
            "match_mappings": answer.total_match_mappings(),
            "sha": _sha([_vectors(answer), counts]),
        }

    def check(self, graph: Graph, answer: PipelineResult, oracle=None) -> List[str]:
        report = audit_result(graph, answer)
        return [f"prototype {a.proto_id}: {a!r}" for a in report.failures()]


class Census5Pool(Workload):
    """Batched 5-vertex motif census on the 2-worker shared-memory pool."""

    name = "census5-pool"
    needs_oracle = True

    def build(self, seed: int) -> Graph:
        params = self.params
        core = params["core_vertices"]
        graph = cycle_union(core, params["core_cycles"], seed)
        # Triangle "dust": components no 5-motif fits in.  Every dust vertex
        # has degree 2, so M* and LCC keep it; only the token walks drop it.
        for i in range(params["dust"]):
            a, b, c = core + 3 * i, core + 3 * i + 1, core + 3 * i + 2
            for vertex in (a, b, c):
                graph.add_vertex(vertex, 0)
            graph.add_edge(a, b)
            graph.add_edge(b, c)
            graph.add_edge(a, c)
        return graph

    def options(self, tracer=None) -> PipelineOptions:
        options = PipelineOptions(num_ranks=4, worker_processes=2)
        if tracer is not None:
            options.tracer = tracer
        return options

    def query(self, graph: Graph, options: PipelineOptions):
        return count_motifs(graph, 5, batched=True, options=options)

    def results(self, answer) -> List[PipelineResult]:
        return list(answer.batch.class_results.values())

    def counts(self, answer) -> Dict[str, float]:
        views = answer.batch.aux_view_totals()
        return {"batch.aux_views": views["built"] + views["shipped"]}

    @staticmethod
    def induced_by_form(answer) -> Dict[str, int]:
        return {
            repr(canonical_form(proto.graph)): answer.induced[proto.id]
            for proto in answer.prototypes
        }

    def compute_oracle(self, graph: Graph) -> dict:
        """Induced 5-motif counts by exhaustive ESU enumeration."""
        counts = arabesque_count_motifs(graph, 5).counts
        return {repr(form): count for form, count in counts.items()}

    def digest(self, answer) -> dict:
        counts = self.induced_by_form(answer)
        return {
            "motifs": len(counts),
            "total_induced": answer.total_induced(),
            "sha": _sha(sorted(counts.items())),
        }

    def check(self, graph: Graph, answer, oracle=None) -> List[str]:
        counts = self.induced_by_form(answer)
        problems = []
        for form in sorted(set(counts) | set(oracle)):
            got, want = counts.get(form, 0), oracle.get(form, 0)
            if got != want:
                problems.append(f"motif {form[:40]}: {got} != oracle {want}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Wdc4Explore, Wdc3BottomUp, Census5Pool)}


def workload(name: str, profile: str = "full") -> Workload:
    return WORKLOADS[name](profile)
