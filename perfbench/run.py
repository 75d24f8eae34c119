#!/usr/bin/env python3
"""End-to-end benchmark of the approximate pattern matching pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload wdc4-explore --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``child.py``): it imports the
program from ``src/``, builds the seeded background graph several times
(the set-up a user pays once per graph), freezes the heap, times one query
through the public API, and checks the answer against a brute-force oracle
outside the timed region.  Repetitions continue until ``--seconds`` have
passed; the run reports medians.

Times are reported in reference-host seconds: each measured time is scaled
by ``HOST_REF_S`` over a fixed pure-Python probe timed in the same process
right around it (``child.calibrate``).  On a shared host whose speed drifts
by half within minutes this keeps runs of the same code comparable; the
report also prints the measured wall median and the probe itself.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` pairs every untraced repetition with a traced one (timing
wrappers around each layer's entry points, see ``layers.py``), checks that
both give the same answer, and reports the per-layer metrics.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--profile smoke`` runs tiny inputs of the same shape.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["wdc4-explore", "wdc3-bottomup", "census5-pool"]
#: workloads whose oracle is computed once per seed before the timed loop
PRECOMPUTED_ORACLE = {"census5-pool"}
CACHE_DIR = ROOT / ".bench_cache"
#: the host probe's seconds (``child.calibrate``) on the reference host
HOST_REF_S = 0.08
#: a run never outlives this, whatever ``--seconds`` says
RUN_DEADLINE_S = 170.0

#: what each traced workload was chosen to show: (metrics summed, test,
#: share of traced query_s)
WHY = {
    "wdc4-explore": [(["constraints.gen_s", "constraints.order_s"], ">=", 0.70)],
    "wdc3-bottomup": [
        (["lcc.s", "nlcc.s"], ">=", 0.75),
        (["constraints.gen_s", "constraints.order_s"], "<", 0.02),
    ],
    "census5-pool": [
        (["pool.wait_s"], ">=", 0.80),
        (["constraints.gen_s", "constraints.order_s"], "<", 0.02),
    ],
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, a child died in set-up)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    return env


def _stop(proc: subprocess.Popen) -> None:
    """Kill a child's process group (its pool workers too) and reap it."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def run_child(spec: dict, timeout: float) -> Optional[dict]:
    """Run one child; its JSON record, or None if it timed out."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=str(ROOT), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        return None
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Metric name → unit, per kind, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _median(values: List[float]) -> float:
    return median(values) if values else 0.0


def failure(record: Optional[dict]) -> Optional[str]:
    """Why a repetition failed, or None when its answer passed the oracle."""
    if record is None:
        return "timed out"
    if record["error"]:
        return record["error"].strip().splitlines()[-1]
    if record["problems"]:
        return "; ".join(record["problems"][:3])
    return None


def host_factor(record: dict) -> float:
    """Reference-host seconds per measured second of one repetition's query.

    The host probe runs just before and just after the query in the same
    process; a shared host that runs slow for a while slows the probe and
    the program alike, and the factor takes that out.
    """
    return HOST_REF_S / median(record["calib_s"])


def setup_seconds(record: dict, key: str = "setup_s") -> List[float]:
    """Each set-up build of a repetition, scaled by the probe run just before it."""
    return [
        s * HOST_REF_S / c for s, c in zip(record[key], record["build_calib_s"])
    ]


def _seconds(name: str) -> bool:
    return name.endswith(("_s", ".s")) and name != "host.calib_s"


def end_to_end(records: List[dict], attempted: int, failed: int) -> Dict[str, float]:
    """Medians over repetitions, every time in reference-host seconds."""
    ok = [r for r in records if r is not None and failure(r) is None]
    return {
        "query_s": _median([r["query_s"] * host_factor(r) for r in ok]),
        "query_cpu_s": _median([r["query_cpu_s"] * host_factor(r) for r in ok]),
        "setup_s": _median([s for r in records if r for s in setup_seconds(r)]),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in ok), default=0.0),
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer(pairs: List[tuple]) -> Dict[str, float]:
    """Medians over (untraced, traced) repetition pairs."""
    pairs = [(u, t) for u, t in pairs if "layers" in t]
    rows: Dict[str, List[float]] = {}
    for u, t in pairs:
        factor = host_factor(t)
        for name, value in {**t["layers"], **t["counts"]}.items():
            rows.setdefault(name, []).append(value * factor if _seconds(name) else value)
        rows.setdefault("trace.overhead_ratio", []).append(
            t["query_s"] * factor / (u["query_s"] * host_factor(u))
        )
        rows.setdefault("query_s", []).append(t["query_s"] * factor)
    metrics = {name: _median(values) for name, values in rows.items()}
    built = metrics.get("constraints.built", 0.0)
    metrics["constraints.checked_ratio"] = (
        metrics.get("constraints.checked", 0.0) / built if built else 0.0
    )
    everything = [r for pair in pairs for r in pair]
    for name, key in (("graph.build_s", "build_s"), ("graph.csr_s", "csr_s")):
        metrics[name] = _median([s for r in everything for s in setup_seconds(r, key)])
    metrics["host.calib_s"] = _median([c for r in everything for c in r["calib_s"]])
    return metrics


def why_lines(workload: str, metrics: Dict[str, float]) -> List[str]:
    lines = []
    query = metrics.get("query_s", 0.0)
    for names, op, share in WHY[workload]:
        value = sum(metrics.get(n, 0.0) for n in names) / query if query else 0.0
        holds = value >= share if op == ">=" else value < share
        lines.append(
            f"  {' + '.join(names)} = {value:.1%} of traced query_s "
            f"(expected {op} {share:.0%}): {'confirmed' if holds else 'NOT confirmed'}"
        )
    return lines


def measure(args) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    base = {
        "workload": args.workload, "profile": args.profile, "seed": args.seed,
        "cache_dir": str(CACHE_DIR),
    }
    if args.workload in PRECOMPUTED_ORACLE:
        oracle = run_child({**base, "mode": "oracle"}, deadline - time.perf_counter())
        if oracle is None:
            raise BenchError("oracle computation timed out")
        base["oracle"] = oracle["oracle"]

    untraced: List[Optional[dict]] = []
    pairs: List[tuple] = []
    problems: List[str] = []
    attempted = 0
    reference = None
    loop_start = time.perf_counter()
    slowest = 0.0
    while True:
        rep_start = time.perf_counter()
        modes = [False, True] if args.trace else [False]
        records = []
        for is_traced in modes:
            record = run_child(
                {**base, "mode": "query", "traced": is_traced},
                deadline - time.perf_counter(),
            )
            attempted += 1
            why = failure(record)
            if why is None:
                # deterministic program: traced or not, every answer is the same
                reference = reference or record["digest"]
                if record["digest"] != reference:
                    why = "answer differs from the first repetition's"
            if why is not None:
                problems.append(f"rep {len(untraced) + 1}{' traced' if is_traced else ''}: {why}")
            records.append(record)
        untraced.append(records[0])
        if args.trace and None not in records:
            pairs.append(tuple(records))
        now = time.perf_counter()
        slowest = max(slowest, now - rep_start)
        if now - loop_start >= args.seconds or now + 1.5 * slowest > deadline:
            break

    failed = len(problems)
    done = [r for r in untraced if r is not None]
    report = {
        "reps": len(untraced),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end(done, attempted, failed),
        "digests": [r.get("digest") for r in done],
        "records": untraced,
    }
    if args.trace:
        report["per_layer"] = per_layer(pairs)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    # a terminated run still stops the child it is waiting for (run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        declared = declared_metrics()
        report = measure(args)
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    values = report[kind]
    missing = sorted(set(declared[kind]) - set(values))
    if missing:
        print(f"benchmark bug: no value for {missing}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed={args.seed} profile={args.profile}: "
          f"{report['reps']} repetitions, {report['attempted']} queries, "
          f"{report['failed']} failed")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")
    digest = next((d for d in report["digests"] if d), {})
    print("  answer: " + ", ".join(f"{k}={v}" for k, v in digest.items() if k != "sha"))
    done = [r for r in report["records"] if r is not None]
    print(f"  measured wall query_s {_median([r['query_s'] for r in done]):.6g} s, "
          f"host probe {_median([c for r in done for c in r['calib_s']]):.6g} s "
          f"(reference {HOST_REF_S} s); times below are reference-host seconds")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<28} {value:>14.6g} {declared['end_to_end'][name]}")
    if args.trace:
        print("per-layer (median of traced repetitions):")
        for name, unit in declared["per_layer"].items():
            print(f"  {name:<28} {values[name]:>14.6g} {unit}")
        print("why this workload:")
        print("\n".join(why_lines(args.workload, values)))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared[kind].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
