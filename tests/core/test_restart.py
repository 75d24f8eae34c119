"""Failure-injection tests for pipeline checkpoint/restart."""

import pytest

from repro.core import PipelineOptions, run_pipeline
from repro.core.restart import (
    resume_pipeline,
    run_pipeline_with_checkpoints,
)
from repro.core.template import PatternTemplate
from repro.errors import CheckpointError, PipelineError
from repro.graph.generators import planted_graph

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]
LABELS = [1, 2, 3, 4, 5]
K = 2


def workload(seed=33):
    graph = planted_graph(60, 140, EDGES, LABELS, copies=3, num_labels=6, seed=seed)
    template = PatternTemplate.from_edges(
        EDGES, {i: l for i, l in enumerate(LABELS)}, name="ring+chord"
    )
    return graph, template


def counter_rows(result):
    return {
        o.prototype.id: (
            sorted(o.solution_vertices), sorted(o.solution_edges),
            o.match_mappings, o.lcc_iterations, o.post_lcc_vertices,
            o.post_lcc_edges, o.nlcc_constraints_checked,
            o.nlcc_roles_eliminated, o.nlcc_recycled, o.nlcc_tokens_launched,
            o.messages, o.remote_messages, o.simulated_seconds,
        )
        for o in result.outcomes()
    }


class TestCheckpointedRun:
    def test_uninterrupted_run_matches_plain_pipeline(self, tmp_path):
        graph, template = workload()
        plain = run_pipeline(graph, template, K, PipelineOptions(num_ranks=2))
        checkpointed = run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, PipelineOptions(num_ranks=2)
        )
        assert checkpointed.match_vectors == plain.match_vectors

    def test_uninterrupted_run_reports_plain_counters(self, tmp_path):
        # The checkpointed run is the plain bottom-up sweep plus a hook:
        # per-outcome accounting, message totals (M* included) and the
        # simulated time all agree.
        graph, template = workload()
        plain = run_pipeline(graph, template, K, PipelineOptions(num_ranks=2))
        checkpointed = run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, PipelineOptions(num_ranks=2)
        )
        assert counter_rows(checkpointed) == counter_rows(plain)
        assert checkpointed.message_summary == plain.message_summary
        assert checkpointed.nlcc_cache_stats == plain.nlcc_cache_stats
        assert (
            checkpointed.total_simulated_seconds
            == plain.total_simulated_seconds
        )

    def test_pooled_checkpointing_rejected(self, tmp_path):
        # Checkpoints persist dict level unions; pooled levels never build
        # one, so pooled checkpointing fails up front instead of silently
        # running in-process.
        graph, template = workload()
        with pytest.raises(PipelineError):
            run_pipeline_with_checkpoints(
                graph, template, K, tmp_path,
                PipelineOptions(num_ranks=2, worker_processes=2),
            )
        run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, PipelineOptions(num_ranks=2)
        )
        with pytest.raises(PipelineError):
            resume_pipeline(
                graph, template, tmp_path,
                PipelineOptions(num_ranks=2, worker_processes=2),
            )

    def test_manifest_written(self, tmp_path):
        graph, template = workload()
        run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, PipelineOptions(num_ranks=2)
        )
        assert (tmp_path / "pipeline_checkpoint.json").exists()


class TestCrashAndResume:
    @pytest.mark.parametrize("crash_level", [2, 1])
    def test_resume_after_injected_failure(self, tmp_path, crash_level):
        graph, template = workload()
        plain = run_pipeline(graph, template, K, PipelineOptions(num_ranks=2))

        with pytest.raises(RuntimeError, match="injected failure"):
            run_pipeline_with_checkpoints(
                graph, template, K, tmp_path,
                PipelineOptions(num_ranks=2),
                fail_after_level=crash_level,
            )

        resumed = resume_pipeline(
            graph, template, tmp_path, PipelineOptions(num_ranks=2)
        )
        assert resumed.match_vectors == plain.match_vectors
        for proto in plain.prototype_set:
            assert (
                resumed.outcome_for(proto.id).solution_vertices
                == plain.outcome_for(proto.id).solution_vertices
            )

    def test_resume_at_every_level(self, tmp_path):
        graph, template = workload()
        plain = run_pipeline(graph, template, K, PipelineOptions(num_ranks=2))
        for crash_level in range(K, -1, -1):
            directory = tmp_path / f"crash-{crash_level}"
            with pytest.raises(RuntimeError, match="injected failure"):
                run_pipeline_with_checkpoints(
                    graph, template, K, directory,
                    PipelineOptions(num_ranks=2),
                    fail_after_level=crash_level,
                )
            resumed = resume_pipeline(
                graph, template, directory, PipelineOptions(num_ranks=2)
            )
            assert resumed.match_vectors == plain.match_vectors
            assert [lvl.distance for lvl in resumed.levels] == list(
                range(K, -1, -1)
            )
            # Levels searched after the restart scope from the restored
            # union exactly like the plain run (the NLCC recycling cache
            # is not checkpointed, so NLCC traffic may differ).
            for level in resumed.levels:
                if level.distance >= crash_level:
                    continue
                for outcome in level.outcomes:
                    reference = plain.outcome_for(outcome.prototype.id)
                    assert outcome.solution_edges == reference.solution_edges
                    assert outcome.post_lcc_edges == reference.post_lcc_edges

    def test_resume_on_smaller_deployment(self, tmp_path):
        """The §5.4 reload scenario: resume with fewer ranks."""
        graph, template = workload()
        plain = run_pipeline(graph, template, K, PipelineOptions(num_ranks=4))
        with pytest.raises(RuntimeError):
            run_pipeline_with_checkpoints(
                graph, template, K, tmp_path,
                PipelineOptions(num_ranks=4),
                fail_after_level=2,
            )
        resumed = resume_pipeline(
            graph, template, tmp_path, PipelineOptions(num_ranks=1)
        )
        assert resumed.match_vectors == plain.match_vectors

    def test_resume_wrong_template_rejected(self, tmp_path):
        graph, template = workload()
        run_pipeline_with_checkpoints(
            graph, template, K, tmp_path, PipelineOptions(num_ranks=2)
        )
        other = PatternTemplate.from_edges(
            [(0, 1)], labels={0: 1, 1: 2}, name="other"
        )
        with pytest.raises(CheckpointError):
            resume_pipeline(graph, other, tmp_path)

    def test_resume_missing_checkpoint_rejected(self, tmp_path):
        graph, template = workload()
        with pytest.raises(CheckpointError):
            resume_pipeline(graph, template, tmp_path / "nope")
