"""E-K1 — kernel microbenchmark: the vectorized LCC fixpoint and enumeration.

Not a paper figure: this benchmark times the full LCC fixpoint
(``local_constraint_checking``, bitmask role kernels over the CSR array
state) on the cached workloads of ``common.py`` and reports absolute wall
seconds with the round, message and visit counters.  The timing includes
the dict->CSR->dict conversions at the boundaries.  The WIDE-STRESS
workload (72-role path, two-word role masks) keeps the multi-word mask
branches timed.

The ENUM-STRESS row times verification enumeration — brute-force
backtracking (``enumerate_matches``) vs the vectorized frontier
(``enumerate_matches_array``) — on the NLCC-STRESS LCC fixed point,
asserting a >=3x ``speedup_array_enum`` with identical mapping sets.

The results go to ``BENCH_KERNELS.json`` at the repo root.

Methodology: best-of-``REPEATS`` wall time via ``time.perf_counter``
around the fixpoint call only (graph/template construction excluded), a
fresh ``SearchState``/``Engine``/``MessageStats`` per run, on the cached
graph objects, single process, no warmup beyond the repeats themselves.
Each timed region runs with the ambient heap frozen (``gc.collect()`` +
``gc.freeze()``): collector pauses scale with the whole live heap, so
without this a run's wall time depends on what else the process imported
or cached — the CSR-STRESS fixpoint measurably doubled when other bench
modules were loaded first.
Each run still pays for its own allocation churn.

Run directly (``python benchmarks/bench_kernels.py``) for the full suite,
``--smoke`` for the CI-sized subset, or via pytest-benchmark as part of
the harness session.
"""

import contextlib
import gc
import json
import platform
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import format_table, speedup
from repro.core import SearchState, local_constraint_checking
from repro.runtime import Engine, MessageStats, PartitionedGraph
from common import (
    DEFAULT_RANKS,
    kernel_workloads,
    nlcc_stress_background,
    nlcc_stress_template,
    print_header,
)

REPEATS = 3
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_KERNELS.json"

#: the headline LCC workload
ACCEPTANCE_WORKLOAD = "KERNEL-STRESS"

#: the multi-word role-mask workload
WIDE_WORKLOAD = "WIDE-STRESS"

#: the enumeration comparison row (``speedup_array_enum``)
ENUM_WORKLOAD = "ENUM-STRESS"


@contextlib.contextmanager
def _ambient_heap_frozen():
    """Exclude pre-existing live objects from GC walks while timing.

    Collector pauses inside a timed region scale with the *whole* live
    heap, so a run's wall time would otherwise depend on what the
    process happens to have imported or cached (earlier workloads, other
    bench modules) — measured as a reproducible ~2x swing on the
    CSR-STRESS fixpoint.  Collecting then freezing the ambient heap
    first means any collection triggered inside the region only walks
    the run's own allocations: each run still pays for its own churn,
    but not for the bystanders.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _run_once(graph, template):
    """One timed LCC fixpoint run; returns (wall, counters)."""
    state = SearchState.initial(graph, template)
    stats = MessageStats(DEFAULT_RANKS)
    engine = Engine(PartitionedGraph(graph, DEFAULT_RANKS), stats)
    with _ambient_heap_frozen():
        start = time.perf_counter()
        iterations = local_constraint_checking(
            state, template.graph, engine
        )
        wall = time.perf_counter() - start
    counters = {
        "iterations": iterations,
        "messages": stats.total_messages,
        "visits": stats.total_visits,
        "surviving_vertices": state.num_active_vertices,
    }
    return wall, counters


def _enumeration_row(repeats):
    """Time verification enumeration: brute-force backtracking vs array frontier.

    Both sides enumerate the distance-0 prototype on the LCC fixed point
    of NLCC-STRESS (the two-label hub-storm workload, whose repeated
    labels give the backtracker a wide branching factor).  The
    backtracking side pays ``state.to_graph()`` inside the timed region;
    the array side pays nothing but the frontier walk, as in
    ``search.py``'s verification tail.  Mapping-*set* equality is
    asserted by the caller.
    """
    from repro.core.arraystate import ArraySearchState
    from repro.core.enumeration import (
        enumerate_matches,
        enumerate_matches_array,
    )
    from repro.core.kernels import cached_role_kernel
    from repro.core.prototypes import generate_prototypes

    graph = nlcc_stress_background()
    template = nlcc_stress_template()
    prototype = generate_prototypes(template, 0).all()[0]
    state = SearchState.initial(graph, template)
    engine = Engine(
        PartitionedGraph(graph, DEFAULT_RANKS), MessageStats(DEFAULT_RANKS)
    )
    local_constraint_checking(state, template.graph, engine)
    kernel = cached_role_kernel(template.graph)
    astate = ArraySearchState.from_search_state(state, roles=kernel.roles)

    best_dict = best_array = None
    dict_matches = array_matches = None
    for _ in range(repeats):
        with _ambient_heap_frozen():
            start = time.perf_counter()
            matches = list(enumerate_matches(prototype, state))
            wall = time.perf_counter() - start
        if best_dict is None or wall < best_dict:
            best_dict, dict_matches = wall, matches
        with _ambient_heap_frozen():
            start = time.perf_counter()
            match_set = enumerate_matches_array(prototype, astate)
            wall = time.perf_counter() - start
        if best_array is None or wall < best_array:
            best_array, array_matches = wall, match_set.mappings()

    def mapping_set(mappings):
        return {frozenset(m.items()) for m in mappings}

    return {
        "name": ENUM_WORKLOAD,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "template_roles": template.graph.num_vertices,
        "enum": {
            "dict": dict(wall_seconds=best_dict, matches=len(dict_matches)),
            "array": dict(
                wall_seconds=best_array, matches=len(array_matches)
            ),
        },
        "speedup_array_enum": speedup(best_dict, best_array),
        "mappings_equal": (
            mapping_set(dict_matches) == mapping_set(array_matches)
        ),
    }


def run_suite(repeats=REPEATS, workloads=None):
    """Benchmark every workload; returns the JSON payload."""
    rows = []
    for name, graph_factory, template_factory in (
        workloads or kernel_workloads()
    ):
        graph = graph_factory()
        template = template_factory()
        best, counters = None, None
        for _ in range(repeats):
            wall, run_counters = _run_once(graph, template)
            if best is None or wall < best:
                best, counters = wall, run_counters
        rows.append({
            "name": name,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "template_roles": template.graph.num_vertices,
            "wall_seconds": best,
            **counters,
        })
    largest = max(rows, key=lambda row: row["vertices"])
    for row in rows:
        row["largest"] = row is largest
    rows.append(_enumeration_row(repeats))
    return {
        "experiment": "E-K1 kernel LCC fixpoint microbenchmark",
        "methodology": {
            "timer": "time.perf_counter around local_constraint_checking only",
            "repeats": repeats,
            "aggregation": "best-of (min wall time)",
            "ranks": DEFAULT_RANKS,
            "fresh_state_per_run": True,
            "python": platform.python_version(),
            "acceptance": (
                ">=3x array enumeration speedup over brute-force "
                "backtracking on ENUM-STRESS with identical mapping sets"
            ),
        },
        "workloads": rows,
    }


def check_acceptance(payload):
    """Assert the enumeration bar; returns the ENUM-STRESS row."""
    enum_row = next(
        r for r in payload["workloads"] if r["name"] == ENUM_WORKLOAD
    )
    assert enum_row["mappings_equal"], (
        f"{enum_row['name']}: mapping sets diverge"
    )
    assert enum_row["speedup_array_enum"] >= 3.0, (
        f"{enum_row['name']}: array enumeration speedup "
        f"{enum_row['speedup_array_enum']:.2f}x < 3x"
    )
    return enum_row


def report(payload):
    rows = [
        [
            row["name"] + (" *" if row["name"] == ACCEPTANCE_WORKLOAD else ""),
            f"{row['vertices']}/{row['edges']}",
            f"{row['wall_seconds']:.3f}s",
            str(row["iterations"]),
            str(row["messages"]),
            str(row["visits"]),
            str(row["surviving_vertices"]),
        ]
        for row in payload["workloads"]
        if "wall_seconds" in row
    ]
    print(format_table(
        ["workload", "V/E", "lcc wall", "rounds", "messages", "visits",
         "surviving"],
        rows,
    ))
    print("* headline LCC workload")
    enum_row = next(
        (r for r in payload["workloads"] if r["name"] == ENUM_WORKLOAD), None
    )
    if enum_row is not None:
        enum = enum_row["enum"]
        print(
            f"{enum_row['name']}: backtracking "
            f"{enum['dict']['wall_seconds']:.3f}s vs array "
            f"{enum['array']['wall_seconds']:.3f}s -> "
            f"{enum_row['speedup_array_enum']:.1f}x "
            f"({enum['array']['matches']} mappings, equal: "
            f"{'yes' if enum_row['mappings_equal'] else 'NO'})"
        )


@pytest.mark.benchmark(group="kernels")
def test_kernel_fixpoint_speedup(benchmark):
    print_header("E-K1 — LCC fixpoint and verification enumeration")
    payload = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    report(payload)
    enum_row = check_acceptance(payload)
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")
    assert enum_row["speedup_array_enum"] >= 3.0


def smoke_suite():
    """The CI-sized subset: headline, CSR and wide-mask workloads.

    ``run_suite`` always appends the ENUM-STRESS row, so the smoke gate
    also covers ``speedup_array_enum``.
    """
    names = {ACCEPTANCE_WORKLOAD, "CSR-STRESS", WIDE_WORKLOAD}
    workloads = [w for w in kernel_workloads() if w[0] in names]
    return run_suite(repeats=2, workloads=workloads)


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
