"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

Usage: ``python child.py '<json spec>'`` with ``src`` on ``PYTHONPATH``.
The spec names the workload, profile, seed and mode:

* ``"query"`` — import everything, build the seeded graph ``builds`` times
  (set-up: generator, ``csr_of``, ``label_counts``), then time one query
  with the heap frozen, optionally under the layer clock (``traced``),
  and check its answer against the oracle outside the timed region;
* ``"oracle"`` — compute the workload's precomputed oracle for this seed
  (only workloads with ``needs_oracle``) into the cache directory, keyed
  by the graph's digest, unless it is already there.

The last line of stdout is one JSON record.  A query that raises or
answers wrong still yields a record (``error`` / ``problems``); a failure
before the query (import, set-up) exits with code 3 and no record.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

#: iterations of the fixed pure-Python host-speed probe
CALIB_LOOP = 1_000_000

#: modules the query path imports lazily, imported before any timing
WARM_IMPORTS = [
    "concurrent.futures.process",
    "dataclasses",
    "multiprocessing.shared_memory",
    "repro.analysis.audit",
    "repro.core.arraystate",
    "repro.core.batch",
    "repro.core.cost_estimation",
    "repro.core.enumeration",
    "repro.runtime.parallel",
    "repro.runtime.partition",
    "repro.runtime.shm",
]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIB_LOOP):
        total += i * i
    return time.perf_counter() - started


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _oracle(spec, wl) -> dict:
    from workloads import graph_digest

    graph = wl.build(spec["seed"])
    digest = graph_digest(graph)
    path = Path(spec["cache_dir"]) / f"{wl.name}-{spec['profile']}-{digest[:24]}.json"
    if not path.exists():
        counts = wl.compute_oracle(graph)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"digest": digest, "counts": counts}))
        tmp.replace(path)
    return {"oracle": str(path)}


def _query(spec, wl) -> dict:
    from layers import LayerClock, layer_metrics, result_counts
    from repro.core.arraystate import csr_of
    from repro.runtime.trace import Tracer
    from workloads import graph_digest

    seed = spec["seed"]
    build_s, csr_s, build_calib_s = [], [], []
    graph = None
    for _ in range(wl.builds):
        graph = None  # only one graph alive at a time
        gc.collect()
        build_calib_s.append(calibrate())
        started = time.perf_counter()
        fresh = wl.build(seed)
        built = time.perf_counter()
        csr_of(fresh)
        fresh.label_counts()
        build_s.append(built - started)
        csr_s.append(time.perf_counter() - built)
        graph = fresh

    traced = spec["traced"]
    tracer = Tracer() if traced else None
    options = wl.options(tracer)
    clock = LayerClock() if traced else None
    calib = [calibrate()]
    gc.collect()
    gc.freeze()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    answer, error = None, None
    if clock is not None:
        clock.install()
    started = time.perf_counter()
    try:
        answer = wl.query(graph, options)
    except Exception:
        error = traceback.format_exc()
    finally:
        query_s = time.perf_counter() - started
        if clock is not None:
            clock.restore()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    gc.unfreeze()
    calib.append(calibrate())

    record = {
        "query_s": query_s,
        "query_cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; children = reaped pool workers
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "setup_s": [b + c for b, c in zip(build_s, csr_s)],
        "build_s": build_s,
        "csr_s": csr_s,
        "calib_s": calib,
        "build_calib_s": build_calib_s,
        "error": error,
        "problems": [],
    }
    if answer is None:
        return record
    oracle = None
    if wl.needs_oracle:
        stored = json.loads(Path(spec["oracle"]).read_text())
        if stored["digest"] != graph_digest(graph):
            record["problems"].append("oracle was computed for another graph")
        oracle = stored["counts"]
    record["problems"] += wl.check(graph, answer, oracle)
    record["digest"] = wl.digest(answer)
    record["counts"] = {
        **result_counts(wl.results(answer), options.metrics),
        **wl.counts(answer),
    }
    if clock is not None:
        record["layers"] = layer_metrics(clock, query_s, tracer)
    return record


def main(argv) -> int:
    spec = json.loads(argv[1])
    try:
        for name in WARM_IMPORTS:
            importlib.import_module(name)
        from workloads import workload

        wl = workload(spec["workload"], spec["profile"])
        run = _oracle if spec["mode"] == "oracle" else _query
        record = run(spec, wl)
    except Exception:
        traceback.print_exc()
        return 3
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
