"""Precision/recall auditing of pipeline results.

The system's guarantees are proven in the test suite against a brute-force
matcher; this module packages the same check as a user-facing utility so a
downstream adopter can *audit* any run on their own (small) data: given a
graph, a template and a :class:`~repro.core.results.PipelineResult`, it
recomputes ground truth by exhaustive backtracking and reports precision
and recall per prototype.

Intended for validation at development scale — the brute-force reference
enumerates every match, so audit graphs should be small.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..graph.graph import Graph, canonical_edge
from ..graph.isomorphism import find_subgraph_isomorphisms
from ..core.results import PipelineResult


class PrototypeAudit:
    """Precision/recall of one prototype's reported solution subgraph."""

    def __init__(self, proto_id: int, name: str) -> None:
        self.proto_id = proto_id
        self.name = name
        self.true_vertices: Set[int] = set()
        self.reported_vertices: Set[int] = set()
        self.true_edges: Set[tuple] = set()
        self.reported_edges: Set[tuple] = set()
        self.match_count_reported: Optional[int] = None
        self.match_count_true = 0

    @property
    def false_positives(self) -> Set[int]:
        return self.reported_vertices - self.true_vertices

    @property
    def false_negatives(self) -> Set[int]:
        return self.true_vertices - self.reported_vertices

    @property
    def vertex_precision(self) -> float:
        if not self.reported_vertices:
            return 1.0
        return len(self.reported_vertices & self.true_vertices) / len(
            self.reported_vertices
        )

    @property
    def vertex_recall(self) -> float:
        if not self.true_vertices:
            return 1.0
        return len(self.reported_vertices & self.true_vertices) / len(
            self.true_vertices
        )

    @property
    def edge_precision(self) -> float:
        if not self.reported_edges:
            return 1.0
        return len(self.reported_edges & self.true_edges) / len(self.reported_edges)

    @property
    def edge_recall(self) -> float:
        if not self.true_edges:
            return 1.0
        return len(self.reported_edges & self.true_edges) / len(self.true_edges)

    @property
    def exact(self) -> bool:
        checks = [
            self.true_vertices == self.reported_vertices,
            self.true_edges == self.reported_edges,
        ]
        if self.match_count_reported is not None:
            checks.append(self.match_count_reported == self.match_count_true)
        return all(checks)

    def __repr__(self) -> str:
        return (
            f"PrototypeAudit({self.name}, precision={self.vertex_precision:.3f}, "
            f"recall={self.vertex_recall:.3f}, exact={self.exact})"
        )


class AuditReport:
    """Full audit of one pipeline run."""

    def __init__(self) -> None:
        self.prototypes: List[PrototypeAudit] = []

    @property
    def exact(self) -> bool:
        return all(audit.exact for audit in self.prototypes)

    def worst_precision(self) -> float:
        return min(
            (a.vertex_precision for a in self.prototypes), default=1.0
        )

    def worst_recall(self) -> float:
        return min((a.vertex_recall for a in self.prototypes), default=1.0)

    def failures(self) -> List[PrototypeAudit]:
        return [audit for audit in self.prototypes if not audit.exact]

    def __repr__(self) -> str:
        return (
            f"AuditReport(prototypes={len(self.prototypes)}, exact={self.exact}, "
            f"min_precision={self.worst_precision():.3f}, "
            f"min_recall={self.worst_recall():.3f})"
        )


def audit_result(graph: Graph, result: PipelineResult) -> AuditReport:
    """Recompute ground truth by brute force and compare to ``result``.

    Covers per-prototype solution vertices, solution edges, and (when the
    run counted) match-mapping counts.  The per-vertex match vectors are
    implied by the per-prototype vertex sets, so they are covered too.
    Only searched prototypes are audited: an exploratory run stops at its
    first matching level and leaves the deeper levels without outcomes.
    """
    report = AuditReport()
    searched = {outcome.proto_id: outcome for outcome in result.outcomes()}
    for proto in result.prototype_set:
        outcome = searched.get(proto.id)
        if outcome is None:
            continue
        audit = PrototypeAudit(proto.id, proto.name)
        audit.reported_vertices = set(outcome.solution_vertices)
        audit.reported_edges = {
            canonical_edge(u, v) for u, v in outcome.solution_edges
        }
        audit.match_count_reported = outcome.match_mappings
        proto_edges = list(proto.graph.edges())
        for mapping in find_subgraph_isomorphisms(proto.graph, graph):
            audit.match_count_true += 1
            audit.true_vertices.update(mapping.values())
            for u, v in proto_edges:
                audit.true_edges.add(canonical_edge(mapping[u], mapping[v]))
        report.prototypes.append(audit)
    return report


def audit_match_vectors(
    graph: Graph, result: PipelineResult
) -> Dict[int, Dict[str, Set[int]]]:
    """Vertex-level diff of the match vectors against brute force.

    Returns ``{vertex: {"missing": ids, "spurious": ids}}`` for vertices
    whose vector differs from ground truth (empty dict = exact).
    """
    truth: Dict[int, Set[int]] = {}
    for proto in result.prototype_set:
        for mapping in find_subgraph_isomorphisms(proto.graph, graph):
            for vertex in mapping.values():
                truth.setdefault(vertex, set()).add(proto.id)
    diff: Dict[int, Dict[str, Set[int]]] = {}
    for vertex in set(truth) | set(result.match_vectors):
        expected = truth.get(vertex, set())
        reported = set(result.match_vectors.get(vertex, set()))
        if expected != reported:
            diff[vertex] = {
                "missing": expected - reported,
                "spurious": reported - expected,
            }
    return diff
