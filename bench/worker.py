"""One workload process of the benchmark (started by run.py).

Imports ``nmtraj`` from the checkout's ``src/``, writes the workload's
configs for its seed, finishes lazy set-up with two-step runs of each
subcommand, and reports the moment it is ready.  Then, as one closed-loop
client, it runs rounds of the workload's fixed operations: each operation
is one ``nmtraj.cli.main([...])`` call, started when the previous one ended.
Every operation's outputs pass the gates in checks.py, outside the timed
call; an exception, an unexpected exit status or a failed gate counts the
operation as failed.

Modes: ``setup`` stops once ready; ``measure`` reports end-to-end metrics;
``trace`` runs ``--untraced`` plain rounds, then installs the tracer and
reports per-layer metrics for each traced round.  The result is one JSON
line on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Failure messages echoed to standard error per process.
MAX_REPORTED = 20
#: Rounds of the workload's operations that one measuring worker makes at
#: the least.
MIN_ROUNDS = 2


def _import_nmtraj():
    sys.path.insert(0, str(ROOT / "src"))
    import nmtraj.cli

    origin = Path(nmtraj.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"nmtraj imported from {origin}, not from this checkout")
    return nmtraj.cli


class Runner:
    def __init__(self, cli, workload, workdir: Path):
        import checks

        self.cli = cli
        self.checks = checks
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, op, messages: list[str]) -> None:
        self.failed += 1
        for message in messages:
            line = f"{self.workload.name} {op.name}: {message}"
            self.problems.append(line)
            if len(self.problems) <= MAX_REPORTED:
                print(f"FAILED {line}", file=sys.stderr)

    def _call(self, argv: list[str]) -> tuple[int | None, float, str]:
        """Run one CLI call; returns (exit status or None, seconds, error text)."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    status = self.cli.main(argv)
                finally:
                    elapsed = time.perf_counter() - start
        except (Exception, SystemExit):
            return None, elapsed, traceback.format_exc()
        return status, elapsed, sink.getvalue()

    def round(self, ops, tracer=None) -> tuple[dict[str, float], float]:
        """Run each operation once, in order; returns per-operation seconds
        and the round's wall time."""
        ctx = self.checks.Context()
        times: dict[str, float] = {}
        started = time.perf_counter()
        for index, op in enumerate(ops):
            self.attempted += 1
            out = self.workdir / "out" / f"{index:03d}"
            argv = [op.command, "--config", str(self.workload.paths[op.config]),
                    "--out", str(out), *op.args]
            try:
                if op.record_of is not None:
                    record = self.workdir / "records" / f"{index:03d}.txt"
                    record.parent.mkdir(parents=True, exist_ok=True)
                    values = ctx.trajectory_final[op.record_of][1]
                    record.write_text("".join(f"{float(v)!r}\n" for v in values))
                    argv += ["--record-file", str(record)]
            except KeyError:
                self._fail(op, [f"no record from {op.record_of}"])
                continue
            span = tracer.span(f"bench.op:{op.name}") if tracer else contextlib.nullcontext()
            with span:
                status, elapsed, text = self._call(argv)
            times[op.name] = elapsed
            if status is None:
                self._fail(op, [f"raised:\n{text}"])
                continue
            try:
                found = self.checks.check(op, self.workload, out, status, ctx)
            except Exception:
                found = [f"outputs unreadable:\n{traceback.format_exc()}"]
            if found:
                self._fail(op, found + ([text.strip()] if text.strip() else []))
        return times, time.perf_counter() - started


def end_to_end(workload, rounds: list[dict[str, float]]) -> dict[str, float]:
    """Each operation's median time over the rounds, summed per subcommand;
    ensemble throughput over those medians; record latency percentiles over
    every record run (a trajectory and the detector on its record)."""
    ops = workload.ops
    typical = {op.name: statistics.median(r.get(op.name, 0.0) for r in rounds) for op in ops}

    def seconds(command: str) -> float:
        return sum(typical[op.name] for op in ops if op.command == command)

    ensembles = [op for op in ops if op.command == "ensemble"]
    throughput = sum(op.samples for op in ensembles) / sum(typical[op.name] for op in ensembles)
    records = [1e3 * (r[op.record_of] + r[op.name])
               for r in rounds for op in ops
               if op.record_of is not None and op.name in r and op.record_of in r]
    deciles = statistics.quantiles(records, n=10, method="inclusive")
    return {
        "evolve_s": seconds("evolve"),
        "detector_s": seconds("detector"),
        "trajectory_s": seconds("trajectory"),
        "ensemble_samples_per_s": throughput,
        "record_p50_ms": deciles[4],
        "record_p90_ms": deciles[8],
        "record_samples": len(records),
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--untraced", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = _import_nmtraj()
    import workloads

    workload = workloads.build(args.workload, args.seed)
    workload.write_configs(args.workdir / "configs")
    warmup = workloads.warmup()
    warmup.write_configs(args.workdir / "warmup" / "configs")
    warm = Runner(cli, warmup, args.workdir / "warmup")
    warm.round(warmup.ops)
    ready = time.time()
    result = {"ready": ready, "attempted": warm.attempted, "failed": warm.failed}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    runner = Runner(cli, workload, args.workdir)
    began = time.perf_counter()
    if args.mode == "measure":
        # The first round pays first-allocation costs that later rounds do
        # not; among a run's many rounds the medians pass over it.
        rounds, walls = [], []
        # At least MIN_ROUNDS rounds, then more while another fits in the budget.
        while len(rounds) < MIN_ROUNDS or (time.perf_counter() - began
                                           + statistics.fmean(walls) <= args.seconds):
            times, wall = runner.round(workload.ops)
            rounds.append(times)
            walls.append(wall)
        result["metrics"] = end_to_end(workload, rounds)
        result["round_walls"] = walls
        result["op_times"] = {op.name: [r.get(op.name) for r in rounds] for op in workload.ops}
    else:
        import tracer as tracing

        # The first round pays first-allocation costs that later rounds do
        # not, so it only warms the process and no span or wall time counts it.
        runner.round(workload.ops)
        # Traced rounds include the suite, whose criteria are per-layer metrics.
        ops = [*workload.ops, workload.verify]
        untraced = [runner.round(ops)[1] for _ in range(args.untraced)]
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        traced, summaries, seen, spans = [], [], [], []
        try:
            while not traced or (time.perf_counter() - began
                                 + statistics.fmean(traced) <= args.seconds):
                traced.append(runner.round(ops, tracer)[1])
                spans.append(tracer.take())
                summary, paths = tracing.summarize(spans[-1])
                summaries.append(summary)
                seen.append(paths)
        finally:
            tracing.uninstall(patches)
        tracing.write_spans(args.workdir / "spans.jsonl", spans)
        expected = set(workload.expected_paths)
        problems = [f"surviving path counts {paths} lack {sorted(expected - set(paths))} "
                    f"or pass {workload.max_paths}" for paths in seen
                    if not expected <= set(paths) or max(paths) > workload.max_paths]
        result.update(untraced_walls=untraced, traced_walls=traced,
                      summaries=summaries, problems=problems)
    result["attempted"] += runner.attempted
    result["failed"] += runner.failed
    result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
