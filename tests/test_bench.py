"""The benchmark's own correctness gates, run on short rounds of each workload.

The benchmark rejects a run whose operations fail its gates (bench/checks.py)
and a traced run whose path counts or deterministic counts miss the traced
gates (bench/worker.py, bench/run.py); running rounds here, with the
benchmark's own workloads, runner, tracer and gates unchanged, makes a broken
gate fail the test suite first.
"""

import sys
from pathlib import Path

import pytest

import nmtraj.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["exact-nc", "long-commuting"])
def test_one_bench_round_passes_every_gate(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import workloads
    from worker import Runner

    workload = workloads.build(name, 1)
    workload.write_configs(tmp_path / "configs")
    runner = Runner(nmtraj.cli, workload, tmp_path)
    runner.round(workload.ops)
    assert runner.attempted == len(workload.ops)
    assert runner.failed == 0, "\n".join(runner.problems)


@pytest.mark.parametrize("name", ["exact-nc", "long-commuting"])
def test_traced_rounds_pass_the_path_count_gate(name, tmp_path, monkeypatch):
    # The traced run's gates: every expected surviving path count is seen,
    # none passes the workload's cap, and the deterministic counts repeat
    # exactly across rounds.
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import tracer as tracing
    import workloads
    from worker import Runner

    workload = workloads.build(name, 1)
    workload.write_configs(tmp_path / "configs")
    runner = Runner(nmtraj.cli, workload, tmp_path)
    tracer = tracing.Tracer()
    summaries, seen = [], []
    patches = tracing.install(tracer)
    try:
        for _ in range(2):
            runner.round(workload.ops, tracer)
            summary, paths = tracing.summarize(tracer.take())
            summaries.append(summary)
            seen.append(paths)
    finally:
        tracing.uninstall(patches)
    assert runner.failed == 0, "\n".join(runner.problems)
    for paths in seen:
        assert set(workload.expected_paths) <= set(paths)
        assert max(paths) <= workload.max_paths
    for metric in tracing.COUNT_METRICS:
        assert summaries[0][metric] == summaries[1][metric], metric
