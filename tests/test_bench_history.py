"""Tests for the tracked benchmark-ratio history (compare_bench)."""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

from compare_bench import (  # noqa: E402
    RETIRED,
    TRACKED,
    append_history,
    compare,
    history_entry,
    load_history,
)


def payload(**overrides):
    row = {
        "name": "W-1",
        "speedup_array_enum": 4.0,
        "speedup_batched_census": 3.0,
        "speedup_kernel_delta": 2.0,  # retired ratio, must be trimmed
        "wall_seconds": 1.23,  # untracked noise, must be trimmed
    }
    row.update(overrides)
    return {"workloads": [row]}


class TestHistoryEntry:
    def test_trims_to_tracked_ratios(self):
        entry = history_entry(payload(), commit="abc1234")
        assert entry["commit"] == "abc1234"
        assert entry["recorded_unix"] > 0
        row, = entry["workloads"]
        # untracked and retired fields are trimmed
        assert set(row) == {
            "name", "speedup_array_enum", "speedup_batched_census",
        }
        assert set(row) <= {"name", *TRACKED}
        assert row["speedup_array_enum"] == 4.0

    def test_default_commit_is_resolved(self):
        entry = history_entry(payload())
        assert entry["commit"]  # a short hash in-repo, "unknown" outside


class TestHistoryFile:
    def test_load_missing_file(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_append_then_load_round_trip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        first = history_entry(payload(), commit="aaa")
        second = history_entry(
            payload(speedup_array_enum=5.0), commit="bbb"
        )
        append_history(path, first)
        append_history(path, second)
        entries = load_history(path)
        assert [e["commit"] for e in entries] == ["aaa", "bbb"]
        assert entries[-1]["workloads"][0]["speedup_array_enum"] == 5.0
        # each line is standalone JSON (append-only log survives truncation)
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_committed_history_parses(self):
        committed = Path(__file__).resolve().parents[1] / "BENCH_HISTORY.jsonl"
        entries = load_history(committed)
        assert entries, "seed history entry is missing"
        for entry in entries:
            assert entry["commit"]
            for row in entry["workloads"]:
                # entries recorded before a ratio was retired keep it
                tracked = set(row) - {"name"}
                assert tracked and tracked <= set(TRACKED) | set(RETIRED)


class TestCompare:
    def test_within_tolerance_passes(self):
        base = history_entry(payload(), commit="x")
        fresh = payload(speedup_array_enum=3.2)  # 20% drop
        rows, failures = compare(
            {"workloads": base["workloads"]}, fresh, tolerance=0.25
        )
        assert not failures
        assert any("ok" in row for row in rows)

    def test_regression_fails(self):
        base = history_entry(payload(), commit="x")
        fresh = payload(speedup_array_enum=2.0)  # 50% drop
        _rows, failures = compare(
            {"workloads": base["workloads"]}, fresh, tolerance=0.25
        )
        assert failures
        assert "W-1.speedup_array_enum" in failures[0]

    def test_improvement_always_passes(self):
        base = history_entry(payload(), commit="x")
        fresh = payload(
            speedup_array_enum=40.0, speedup_batched_census=30.0
        )
        _rows, failures = compare(
            {"workloads": base["workloads"]}, fresh, tolerance=0.25
        )
        assert not failures

    def test_new_and_missing_workloads_reported_not_failed(self):
        base = {"workloads": [{"name": "OLD", **{f: 1.0 for f in TRACKED}}]}
        rows, failures = compare(base, payload(), tolerance=0.25)
        assert not failures
        notes = {row[-1] for row in rows}
        assert "new workload (not committed)" in notes
        assert "missing from fresh run" in notes
