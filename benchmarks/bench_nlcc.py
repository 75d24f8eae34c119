"""E-N1 — NLCC microbenchmark: the batched array token frontier.

Not a paper figure: this benchmark times NLCC as a batched token frontier
over the CSR (``core/arraystate.array_token_walk``) with
per-(vertex, hop, initiator) dedup.  Two measurements per workload:

* *token walk* — every non-local constraint of the workload's template
  checked sequentially on a copy of the post-LCC state, once converting
  the dict state per constraint (``round-trip``) and once on one live
  array state (``persistent``, as a pipeline runs it);
* *pipeline* — the full ``run_pipeline`` end to end.

Writes ``BENCH_NLCC.json`` at the repo root with absolute wall seconds.
The acceptance check is *identical* results between the two walk modes:
per-constraint checked/satisfied/eliminated counts, walk completions, and
the final pruned state.

Methodology: best-of-``REPEATS`` wall time via ``time.perf_counter``
around the constraint loop / pipeline call only, fresh state and engine
per run, on the same cached graph objects, single process.

Run directly (``python benchmarks/bench_nlcc.py``) for the full suite,
``--smoke`` for the CI-sized subset, or via pytest-benchmark.
"""

import json
import platform
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import format_table
from repro.core import (
    ArraySearchState,
    PipelineOptions,
    SearchState,
    generate_constraints,
    local_constraint_checking,
    non_local_constraint_checking,
    run_pipeline,
)
from repro.core.kernels import compile_role_kernel
from repro.core.ordering import order_constraints
from repro.runtime import Engine, MessageStats, PartitionedGraph
from common import DEFAULT_RANKS, nlcc_workloads, print_header

REPEATS = 3
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_NLCC.json"

#: the headline workload (the CI smoke subset)
ACCEPTANCE_WORKLOAD = "NLCC-STRESS"
#: edit distance of the end-to-end pipeline runs
PIPELINE_K = 1
#: pipeline runs are end to end — time them once
PIPELINE_REPEATS = 1


def _post_lcc_state(graph, template):
    """The shared starting point: LCC fixed point of the initial state."""
    state = SearchState.initial(graph, template)
    engine = Engine(
        PartitionedGraph(graph, DEFAULT_RANKS), MessageStats(DEFAULT_RANKS)
    )
    local_constraint_checking(state, template.graph, engine)
    return state


def _constraints_for(graph, template):
    constraint_set = generate_constraints(template.graph, graph.label_counts())
    constraint_set.non_local = order_constraints(
        constraint_set.non_local, graph.label_counts()
    )
    return constraint_set.non_local


def _run_walk(graph, template, base_state, constraints, persistent):
    """One timed pass over all non-local constraints; returns (wall, digest)."""
    state = base_state.copy()
    kernel = compile_role_kernel(template.graph)
    stats = MessageStats(DEFAULT_RANKS)
    engine = Engine(PartitionedGraph(graph, DEFAULT_RANKS), stats)
    digest = []
    start = time.perf_counter()
    astate = None
    if persistent:
        astate = ArraySearchState.from_search_state(state, roles=kernel.roles)
    for constraint in constraints:
        result = non_local_constraint_checking(
            state, constraint, engine, recycle=False, kernel=kernel,
            astate=astate,
        )
        digest.append((
            constraint.kind,
            len(result.checked),
            len(result.satisfied),
            result.eliminated_roles,
            result.completions,
        ))
    if persistent:
        astate.write_back(state)
    wall = time.perf_counter() - start
    fixpoint = (
        {v: frozenset(r) for v, r in state.candidates.items()},
        frozenset(state.active_edge_list()),
    )
    counters = {
        "completions": sum(d[4] for d in digest),
        "tokens_launched": sum(d[1] for d in digest),
    }
    return wall, counters, (tuple(digest), fixpoint)


def _run_pipeline_once(graph, template):
    options = PipelineOptions(num_ranks=DEFAULT_RANKS, count_matches=True)
    start = time.perf_counter()
    result = run_pipeline(graph, template, PIPELINE_K, options)
    wall = time.perf_counter() - start
    doc = result.stats_document()
    return wall, {
        "matched_vertices": len(result.match_vectors),
        "match_mappings": result.total_match_mappings(),
        "nlcc": doc["nlcc"],
    }


def run_suite(repeats=REPEATS, workloads=None, pipeline=True):
    """Benchmark every workload x mode; returns the JSON payload."""
    rows = []
    for name, graph_factory, template_factory in (
        workloads or nlcc_workloads()
    ):
        graph = graph_factory()
        template = template_factory()
        base_state = _post_lcc_state(graph, template)
        constraints = _constraints_for(graph, template)

        walk = {}
        digests = {}
        for label, persistent in (("round-trip", False), ("persistent", True)):
            best, counters = None, None
            for _ in range(repeats):
                wall, run_counters, digest = _run_walk(
                    graph, template, base_state, constraints, persistent
                )
                if best is None or wall < best:
                    best, counters = wall, run_counters
            walk[label] = dict(wall_seconds=best, **counters)
            digests[label] = digest
        row = {
            "name": name,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "constraints": len(constraints),
            "walk": walk,
            "results_equal": digests["round-trip"] == digests["persistent"],
        }

        if pipeline:
            best, info = None, None
            for _ in range(PIPELINE_REPEATS):
                wall, run_info = _run_pipeline_once(graph, template)
                if best is None or wall < best:
                    best, info = wall, run_info
            row["pipeline"] = dict(wall_seconds=best, **info)
        rows.append(row)
    return {
        "experiment": "E-N1 NLCC token walk microbenchmark",
        "methodology": {
            "timer": (
                "time.perf_counter around the non-local constraint loop "
                "(token walk) / run_pipeline (end to end) only"
            ),
            "repeats": repeats,
            "pipeline_repeats": PIPELINE_REPEATS,
            "aggregation": "best-of (min wall time per mode)",
            "ranks": DEFAULT_RANKS,
            "pipeline_k": PIPELINE_K,
            "fresh_state_per_run": True,
            "python": platform.python_version(),
            "acceptance": (
                "identical per-constraint results and final states "
                "between the round-trip and persistent walk modes"
            ),
        },
        "workloads": rows,
    }


def check_acceptance(payload):
    """Assert result equality; returns the headline workload's row."""
    for row in payload["workloads"]:
        assert row["results_equal"], f"{row['name']}: walk results diverge"
    return next(
        r for r in payload["workloads"] if r["name"] == ACCEPTANCE_WORKLOAD
    )


def report(payload):
    rows = []
    for row in payload["workloads"]:
        pipe = row.get("pipeline")
        rows.append([
            row["name"] + (" *" if row["name"] == ACCEPTANCE_WORKLOAD else ""),
            f"{row['vertices']}/{row['edges']}",
            f"{row['walk']['round-trip']['wall_seconds']:.3f}s",
            f"{row['walk']['persistent']['wall_seconds']:.3f}s",
            f"{pipe['wall_seconds']:.2f}s" if pipe else "-",
            str(pipe["match_mappings"]) if pipe else "-",
            "yes" if row["results_equal"] else "NO",
        ])
    print(format_table(
        ["workload", "V/E", "walk round-trip", "walk persistent",
         "pipeline", "mappings", "same results"],
        rows,
    ))
    print("* headline workload")


@pytest.mark.benchmark(group="nlcc")
def test_nlcc_walk(benchmark):
    print_header("E-N1 — NLCC: batched array token frontier")
    payload = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    report(payload)
    check_acceptance(payload)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")


def smoke_suite():
    """The CI-sized subset: headline workload, walk only, fewer repeats.

    End-to-end answers are covered by the oracle-checked tier-1 tests and
    the ``perfbench/`` workloads.
    """
    workloads = [w for w in nlcc_workloads() if w[0] == ACCEPTANCE_WORKLOAD]
    return run_suite(repeats=2, workloads=workloads, pipeline=False)


def main(argv):
    smoke = "--smoke" in argv
    if smoke:
        payload = smoke_suite()
        report(payload)
        check_acceptance(payload)
        print("smoke OK")
        return 0
    payload = run_suite()
    report(payload)
    check_acceptance(payload)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
