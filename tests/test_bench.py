"""The benchmark's own correctness gates, run on one round of each workload.

The benchmark rejects a run whose operations fail its gates (bench/checks.py);
running one round here, with the benchmark's own workloads, runner and gates
unchanged, makes a broken gate fail the test suite first.
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
