"""The benchmark's own tests, on the tiny ``smoke`` profile.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import child
import run
from layers import LayerClock, targets
from workloads import WORKLOADS, graph_digest, workload

RUN = [sys.executable, str(run.HERE / "run.py")]


def _spec(name, tmp_path, seed=1, traced=False):
    spec = {
        "workload": name, "profile": "smoke", "seed": seed, "traced": traced,
        "cache_dir": str(tmp_path), "mode": "query",
    }
    wl = workload(name, "smoke")
    if wl.needs_oracle:
        spec["oracle"] = child._oracle(spec, wl)["oracle"]
    return spec, wl


@pytest.fixture(scope="module")
def smoke_runs():
    """Last stdout line of one smoke run per workload and trace mode."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                RUN + ["--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--profile", "smoke"],
                capture_output=True, text=True, timeout=170, cwd=str(run.ROOT),
            )
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_every_declared_metric_is_emitted_with_its_unit(smoke_runs):
    declared = run.declared_metrics()
    for (name, trace), result in smoke_runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] >= 1
        kind = "per_layer" if trace else "end_to_end"
        metrics = result["metrics"]
        assert set(metrics) == set(declared[kind]), (name, kind)
        for metric, unit in declared[kind].items():
            assert metrics[metric]["unit"] == unit
            assert isinstance(metrics[metric]["value"], (int, float))
        if not trace:
            assert metrics["pass_ratio"]["value"] == 1.0
            assert all(metrics[m]["value"] > 0 for m in declared[kind]), name


def test_benchmark_json_matches_the_contract():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == run.WORKLOADS
    assert run.PRECOMPUTED_ORACLE == {
        name for name, cls in WORKLOADS.items() if cls.needs_oracle
    }
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


_PERTURB = {
    "wdc4-explore": lambda a, g: a.levels[0].outcomes[0].solution_vertices.add(
        next(iter(g.vertices()))
    ),
    "wdc3-bottomup": lambda a, g: a.outcomes()[0].solution_vertices.add(
        next(iter(g.vertices()))
    ),
    "census5-pool": lambda a, g: a.induced.update(
        {a.prototypes[0].id: a.induced[a.prototypes[0].id] + 1}
    ),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_perturbed_answer_drives_pass_ratio_below_one(name, tmp_path):
    spec, wl = _spec(name, tmp_path)

    class Perturbed(type(wl)):
        def query(self, graph, options):
            answer = super().query(graph, options)
            _PERTURB[name](answer, graph)
            return answer

    good = child._query(spec, wl)
    bad = child._query(spec, Perturbed("smoke"))
    assert run.failure(good) is None
    assert run.failure(bad) is not None
    assert run.end_to_end([good, bad], attempted=2, failed=1)["pass_ratio"] < 1


def test_raising_query_is_a_failure_not_an_abort(tmp_path):
    spec, wl = _spec("wdc3-bottomup", tmp_path)

    class Raising(type(wl)):
        def query(self, graph, options):
            raise RuntimeError("query blew up")

    record = child._query(spec, Raising("smoke"))
    assert "query blew up" in run.failure(record)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    spec, wl = _spec("census5-pool", tmp_path, traced=True)
    before = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in targets()]
    assert len(before) >= 16
    with LayerClock():
        assert all(owner.__dict__[attr] is not orig for owner, attr, orig in before)
    record = child._query(spec, wl)
    assert run.failure(record) is None
    assert record["layers"]["pool.wait_s"] > 0
    assert record["layers"]["nlcc.s"] > 0
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_new_seed_changes_inputs_but_not_shape(tmp_path):
    records = {}
    for seed in (1, 2):
        spec, wl = _spec("wdc4-explore", tmp_path, seed=seed)
        records[seed] = (graph_digest(wl.build(seed)), child._query(spec, wl))
    assert records[1][0] != records[2][0]
    for _, record in records.values():
        assert run.failure(record) is None
        # every level up to max_k is searched: the planted copies need k=3
        assert record["digest"]["levels"] == [[0, 1], [1, 15]]
        assert record["digest"]["matched_vertices"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"),
         "--workload", "wdc4-explore", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
