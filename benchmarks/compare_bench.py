"""Regression gate: diff fresh benchmark runs against tracked history.

``BENCH_HISTORY.jsonl`` (repo root) is an append-only log of the tracked
speedup ratios, one JSON entry per gate run, keyed by git commit.  This
script reruns the CI-sized smoke subsets of ``bench_kernels.py`` and
``bench_nlcc.py``, compares the *ratios* — not absolute wall times, which
vary across machines — against the most recent history entry (falling
back to the committed ``BENCH_KERNELS.json`` / ``BENCH_NLCC.json`` when
the history is empty), and appends the fresh ratios to the history on a
passing run:

* ``speedup_batched_census`` (template-library batched motif census over
  the per-template pipeline loop — ``bench_batch.py``),
* ``speedup_array_enum``     (vectorized match enumeration over
  brute-force backtracking on the ENUM-STRESS row).

Older history entries also carry ratios against execution paths that no
longer exist (``speedup_kernel_delta``, ``speedup_array_vs_delta``,
``visit_reduction_delta``, ``speedup_array_nlcc``, ``speedup_shm_pool``,
``speedup_wide_mask``); they stay in the log as history and are no longer
compared.  The kernel, NLCC and parallel smoke runs still assert their
own result-equality and payload bars before any comparison happens.

Each appended entry also records a ``metrics`` block of headline derived
metrics (NLCC cache hit ratio, dense-round fraction, adaptive dense
rounds, mean worklist density) from one instrumented CASCADE-STRESS
pipeline run — informational trend data from the always-on registry, not
gated.

A tracked ratio regressing by more than ``--tolerance`` (default 25%)
relative to its baseline value fails the gate; improvements always pass.
The batched census ratio times whole pipelines and is scheduler-noisy on
shared runners, so it gets a relaxed per-field tolerance (see
``RELAXED_TOLERANCE``).
Workloads present in only one of the two payloads are reported but do not
fail (the baseline may predate a new workload), and a ratio that neither
payload carries for a workload is skipped silently (each bench tracks its
own ratio set).  Result equality and the >=3x enumeration / >=10x payload
acceptance bars are asserted by the smoke runs themselves before any
comparison happens.

Run from the repo root::

    PYTHONPATH=src:benchmarks python benchmarks/compare_bench.py [--tolerance 0.25]
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis import format_table

from bench_kernels import OUTPUT as COMMITTED, check_acceptance, smoke_suite
from bench_nlcc import (
    OUTPUT as NLCC_COMMITTED,
    check_acceptance as nlcc_check_acceptance,
    smoke_suite as nlcc_smoke_suite,
)
from bench_parallel import (
    OUTPUT as PARALLEL_COMMITTED,
    check_acceptance as parallel_check_acceptance,
    smoke_suite as parallel_smoke_suite,
)
from bench_batch import (
    OUTPUT as BATCH_COMMITTED,
    check_acceptance as batch_check_acceptance,
    smoke_suite as batch_smoke_suite,
)

#: row-level ratio fields the gate tracks (higher is better for all)
TRACKED = ["speedup_batched_census", "speedup_array_enum"]

#: ratios older history entries carry whose baseline code path is gone;
#: readable history, never compared
RETIRED = ["speedup_kernel_delta", "speedup_array_vs_delta",
           "visit_reduction_delta", "speedup_array_nlcc",
           "speedup_shm_pool", "speedup_wide_mask"]

#: per-field minimum tolerance overrides for noise-dominated ratios
RELAXED_TOLERANCE = {"speedup_batched_census": 0.60}

#: append-only ratio log, one JSON entry per passing gate run
HISTORY = Path(__file__).resolve().parents[1] / "BENCH_HISTORY.jsonl"

DEFAULT_TOLERANCE = 0.25


def _git_commit() -> str:
    """Short HEAD hash, or ``"unknown"`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).resolve().parents[1],
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


#: headline derived metrics recorded (not gated) with each history entry
HEADLINE_METRICS = ["nlcc_cache_hit_ratio", "dense_round_fraction",
                    "adaptive_dense_rounds", "mean_worklist_density"]


def headline_metrics() -> dict:
    """Headline ratios from one instrumented CASCADE-STRESS pipeline run.

    The cascade workload is the dense-round switch's reference workload
    (see ``common.cascade_stress_background``), so its dense-round
    fraction moving is the signal this block exists to make visible; the
    ``k=1`` sweep gives work recycling real NLCC cache traffic too.
    """
    from repro.analysis.metricsreport import derived_metrics
    from repro.core import PipelineOptions
    from repro.core.pipeline import run_pipeline

    from common import (
        DEFAULT_RANKS,
        cascade_stress_background,
        cascade_stress_template,
    )

    options = PipelineOptions(num_ranks=DEFAULT_RANKS)
    run_pipeline(
        cascade_stress_background(), cascade_stress_template(), 1, options
    )
    derived = derived_metrics(options.metrics.snapshot())
    return {name: derived[name] for name in HEADLINE_METRICS}


def history_entry(payload: dict, commit: str = None) -> dict:
    """Trim a bench payload to the commit-keyed tracked-ratio record."""
    return {
        "commit": commit if commit is not None else _git_commit(),
        "recorded_unix": time.time(),
        "workloads": [
            # only the ratios a row actually carries: each bench tracks
            # its own set, and a None would read as a perpetually-missing
            # field in later comparisons
            {"name": row["name"],
             **{f: row[f] for f in TRACKED if row.get(f) is not None}}
            for row in payload["workloads"]
        ],
    }


def load_history(path: Path) -> list:
    """All history entries, oldest first; [] when the file is absent."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        if line.strip():
            entries.append(json.loads(line))
    return entries


def append_history(path: Path, entry: dict) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")


def compare(baseline: dict, fresh: dict, tolerance: float):
    """Diff tracked ratios per workload; returns (table_rows, failures)."""
    committed_rows = {r["name"]: r for r in baseline["workloads"]}
    fresh_rows = {r["name"]: r for r in fresh["workloads"]}
    rows, failures = [], []
    for name, fresh_row in fresh_rows.items():
        base_row = committed_rows.get(name)
        if base_row is None:
            rows.append([name, "-", "-", "-", "new workload (not committed)"])
            continue
        for field in TRACKED:
            was = base_row.get(field)
            now = fresh_row.get(field)
            if was is None and now is None:
                continue  # ratio not applicable to this workload's bench
            if was is None or now is None:
                rows.append([name, field, str(was), str(now),
                             "field missing (not compared)"])
                continue
            field_tolerance = max(
                tolerance, RELAXED_TOLERANCE.get(field, 0.0)
            )
            floor = was * (1.0 - field_tolerance)
            ok = now >= floor
            rows.append([
                name, field, f"{was:.2f}", f"{now:.2f}",
                "ok" if ok else f"REGRESSED below {floor:.2f}",
            ])
            if not ok:
                failures.append(
                    f"{name}.{field}: {now:.2f} < {floor:.2f} "
                    f"(committed {was:.2f}, tolerance {field_tolerance:.0%})"
                )
    for name in committed_rows:
        if name not in fresh_rows:
            rows.append([name, "-", "-", "-", "missing from fresh run"])
    return rows, failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed relative drop per tracked ratio (default: 0.25)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=COMMITTED,
        help="committed benchmark JSON fallback when the history is empty",
    )
    parser.add_argument(
        "--history", type=Path, default=HISTORY,
        help="tracked ratio history (JSONL, appended to on a passing run)",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="compare only; do not append this run to the history",
    )
    args = parser.parse_args(argv)

    history = load_history(args.history)
    if history:
        last = history[-1]
        baseline = {"workloads": last["workloads"]}
        baseline_label = f"history entry {last.get('commit', '?')}"
    elif args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        baseline_label = str(args.baseline)
        for committed in (NLCC_COMMITTED, PARALLEL_COMMITTED,
                          BATCH_COMMITTED):
            if committed.exists():
                extra = json.loads(committed.read_text())
                baseline["workloads"] = (
                    baseline["workloads"] + extra["workloads"]
                )
                baseline_label += f" + {committed}"
    else:
        print(f"no history at {args.history} and no committed baseline at "
              f"{args.baseline}; nothing to gate")
        return 1

    fresh = smoke_suite()
    check_acceptance(fresh)
    # The NLCC smoke covers only NLCC-STRESS, the parallel smoke only
    # SHM-prefixed rows and the batch smoke only MOTIF-BATCH, so the
    # merged payload never collides on names.
    fresh_nlcc = nlcc_smoke_suite()
    nlcc_check_acceptance(fresh_nlcc)
    fresh_parallel = parallel_smoke_suite()
    parallel_check_acceptance(fresh_parallel)
    fresh_batch = batch_smoke_suite()
    batch_check_acceptance(fresh_batch)
    fresh = {
        "workloads": (
            fresh["workloads"]
            + fresh_nlcc["workloads"]
            + fresh_parallel["workloads"]
            + fresh_batch["workloads"]
        )
    }

    rows, failures = compare(baseline, fresh, args.tolerance)
    print(f"baseline: {baseline_label}")
    print(format_table(
        ["workload", "ratio", "baseline", "fresh", "verdict"], rows
    ))
    if failures:
        print("\nregression gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nregression gate OK (tolerance {args.tolerance:.0%})")
    if not args.no_append:
        entry = history_entry(fresh)
        entry["metrics"] = headline_metrics()
        append_history(args.history, entry)
        print(f"ratios appended to {args.history} "
              f"(commit {entry['commit']}, {len(history) + 1} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
