"""Per-layer timing from outside the program.

:class:`LayerClock` installs timing wrappers on the module attributes and
methods the search pipeline calls (one layer per module, see :func:`targets`),
keeps self time with a stack (a wrapper's duration minus the wrapped calls
nested inside it), and restores every original on :meth:`restore`.
Nothing under ``src/`` changes: the wrappers replace attributes only for
the duration of one traced query.

:func:`layer_metrics` turns one traced query into the per-layer metrics,
adding counts read off the returned results and, for pooled searches, the
worker-side ``lcc``/``nlcc``/``prototype`` spans the program already
grafts home from its workers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, module, attribute) — patched in every loaded ``repro`` module
#: that holds the same function object, so ``from x import f`` call sites
#: and function-level imports both see the wrapper.
FUNCTIONS: List[Tuple[str, str, str]] = [
    ("prototypes", "repro.core.prototypes", "generate_prototypes"),
    ("constraints.gen", "repro.core.constraints", "generate_constraints"),
    ("constraints.order", "repro.core.ordering", "order_constraints"),
    ("mstar", "repro.core.candidate_set", "max_candidate_set"),
    ("search", "repro.core.search", "search_prototype"),
    ("pool.pack", "repro.runtime.parallel", "array_task"),
    ("pool.merge", "repro.runtime.parallel", "payload_to_outcome"),
]

#: (layer, attribute) — patched inside ``repro.core.search`` only, so the
#: LCC/NLCC/enumeration layers count the per-prototype search, not the
#: LCC fixpoint that M* runs internally.
SEARCH_CALLS: List[Tuple[str, str]] = [
    ("lcc", "local_constraint_checking"),
    ("nlcc", "non_local_constraint_checking"),
    ("enum", "enumerate_matches_array"),
    ("enum", "distinct_match_count"),
]

#: (layer, module, class, method) — classes keep their identity, only the
#: method is wrapped.
METHODS: List[Tuple[str, str, str, str]] = [
    ("partition", "repro.runtime.partition", "PartitionedGraph", "__init__"),
    ("pool.setup", "repro.runtime.parallel", "PrototypeSearchPool", "__init__"),
    ("pool.wait", "repro.runtime.parallel", "PrototypeSearchPool", "search_level"),
    ("pool.close", "repro.runtime.parallel", "PrototypeSearchPool", "close"),
    ("batch.library", "repro.core.batch", "TemplateLibrary", "__init__"),
]

class LayerClock:
    """Timing wrappers with self-time accounting, installed and restored."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: seconds covered by outermost wrapped calls
        self.covered = 0.0
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn: Callable, count: Optional[Callable]) -> Callable:
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            clock._stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                clock._stack.pop()
                clock.total[layer] += elapsed
                clock.self_s[layer] += elapsed - frame[0]
                clock.calls[layer] += 1
                if clock._stack:
                    clock._stack[-1][0] += elapsed
                else:
                    clock.covered += elapsed
            if count is not None:
                count(clock.counts, args, result)
            return result

        return timed

    def install(self) -> "LayerClock":
        for layer, owner, attr in targets():
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, _COUNTS.get(layer)))
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerClock":
        return self.install()

    def __exit__(self, *_exc: object) -> None:
        self.restore()


def _count_prototypes(counts, _args, result) -> None:
    counts["prototypes.count"] += len(result)


def _count_constraints(counts, _args, result) -> None:
    counts["constraints.built"] += len(result.non_local)


def _count_tasks(counts, args, _result) -> None:
    counts["pool.tasks"] += len(args[1])


_COUNTS = {
    "prototypes": _count_prototypes,
    "constraints.gen": _count_constraints,
    "pool.wait": _count_tasks,
}


def targets() -> Iterator[Tuple[str, object, str]]:
    """Every (layer, owner, attribute) a :class:`LayerClock` wraps."""
    for layer, module_name, attr in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    yield layer, module, key
    search = importlib.import_module("repro.core.search")
    for layer, attr in SEARCH_CALLS:
        yield layer, search, attr
    for layer, module_name, cls_name, attr in METHODS:
        yield layer, getattr(importlib.import_module(module_name), cls_name), attr


def _worker_spans(tracer) -> Dict[str, float]:
    """Seconds and calls of the worker-side spans grafted into ``tracer``."""
    out: Dict[str, float] = defaultdict(float)
    if tracer is None:
        return out
    for root in tracer.roots:
        for span, _depth in root.walk():
            if "worker" not in span.attrs:
                continue
            for inner, _ in span.walk():
                if inner.name == "lcc":
                    out["lcc.s"] += inner.duration_s
                elif inner.name == "nlcc":
                    out["nlcc.s"] += inner.duration_s
                    out["nlcc.calls"] += 1
                elif inner.name == "prototype":
                    out["search.self_s"] += inner.duration_s - sum(
                        child.duration_s for child in inner.children
                    )
    return out


def result_counts(results, metrics) -> Dict[str, float]:
    """Per-layer counts read off the returned results and metrics registry.

    They come from the program's own outcome counters, so they cover work
    done in pool workers as well as in the calling process.
    """
    outcomes = [o for result in results for o in result.outcomes()]
    checked = sum(o.nlcc_constraints_checked for o in outcomes)
    messages = sum(o.messages for o in outcomes)
    remote = sum(o.remote_messages for o in outcomes)
    for result in results:
        mstar = result.message_summary.get("phases", {}).get("max_candidate_set", {})
        messages += mstar.get("messages", 0)
        remote += mstar.get("remote_messages", 0)
    counter = dict(metrics.counters())
    gauge = dict(metrics.gauges())
    hits = counter.get("cache.nlcc.hits", 0.0)
    lookups = hits + counter.get("cache.nlcc.misses", 0.0)
    return {
        "constraints.checked": checked,
        "mstar.vertices": sum(r.candidate_set_vertices for r in results),
        "lcc.iterations": sum(o.lcc_iterations for o in outcomes),
        "nlcc.tokens": sum(o.nlcc_tokens_launched for o in outcomes),
        "nlcc.recycle_hit_ratio": hits / lookups if lookups else 0.0,
        "enum.mappings": sum(o.match_mappings or 0 for o in outcomes),
        "messages.total": messages,
        "messages.remote_ratio": remote / messages if messages else 0.0,
        "pool.busy_s": counter.get("pool.busy_seconds", 0.0),
        "pool.idle_s": counter.get("pool.idle_seconds", 0.0),
        "shm.segment_mb": gauge.get("shm.segment_bytes", 0.0) / 2**20,
        "batch.mstar_memo_hits": counter.get("cache.mstar_memo.hits", 0.0),
    }


def layer_metrics(clock: LayerClock, query_s: float, tracer=None) -> Dict[str, float]:
    """Per-layer seconds and counts of one traced query."""
    worker = _worker_spans(tracer)
    seconds = {
        "prototypes.s": clock.total["prototypes"],
        "constraints.gen_s": clock.total["constraints.gen"],
        "constraints.order_s": clock.total["constraints.order"],
        "partition.s": clock.total["partition"],
        "mstar.s": clock.total["mstar"],
        "lcc.s": clock.total["lcc"] + worker["lcc.s"],
        "nlcc.s": clock.total["nlcc"] + worker["nlcc.s"],
        "enum.s": clock.total["enum"],
        "search.self_s": clock.self_s["search"] + worker["search.self_s"],
        "driver.self_s": query_s - clock.covered,
        "pool.setup_s": clock.total["pool.setup"],
        "pool.wait_s": clock.total["pool.wait"],
        "pool.pack_s": clock.total["pool.pack"],
        "pool.merge_s": clock.total["pool.merge"],
        "pool.close_s": clock.total["pool.close"],
        "batch.library_s": clock.total["batch.library"],
    }
    counts = {
        "prototypes.count": clock.counts["prototypes.count"],
        "constraints.built": clock.counts["constraints.built"],
        "nlcc.calls": clock.calls["nlcc"] + worker["nlcc.calls"],
        "pool.tasks": clock.counts["pool.tasks"],
        "trace.coverage": clock.covered / query_s if query_s else 0.0,
    }
    return {**seconds, **counts}
