"""nmtraj benchmark: times every CLI subcommand on two workloads and,
in a separate traced run, every layer beneath it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it builds nothing, imports
``nmtraj`` from the checkout's ``src/`` and writes only under
``.bench_work/``.  Each workload runs in fresh worker processes (worker.py)
as one closed-loop client with BLAS pinned to one thread.

``--trace 0`` starts the worker ``SETUP_REPEATS`` times to measure set-up
alone, then once to measure: rounds of the workload's fixed operations
until about ``--seconds`` have passed (at least two rounds).  Every
operation takes a fraction of a second, so a run makes about twenty
rounds; each end-to-end metric takes every operation at its median over
the rounds (see ``worker.end_to_end``), and ``setup_s`` is the median over
all worker starts.  The last line of standard output is the result with
every end-to-end metric.

``--trace 1`` starts two traced workers with the same seed, each for half
of ``--seconds`` and each after a warm-up round.  The first runs one
untraced round before tracing, so the tracing overhead is the traced minus
the untraced round time.  Per-layer
metrics are medians over traced rounds; their deterministic counts must
repeat exactly across all traced rounds of both workers.

The line before the result records the environment: nproc, BLAS and its
pinned thread count, Python and numpy versions, the git commit and the
line count of ``src/``.  Exit status 0 means every operation passed its
output gates; without the package sources the benchmark exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("exact-nc", "long-commuting")
SETUP_REPEATS = 9
#: One client runs one operation at a time on small matrices; a single BLAS
#: thread (of the 2 cores here) keeps timings steadier than two.
BLAS_THREADS = 1
#: Wall-clock budget of one benchmark run, below the 180 s a run may take.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s", "evolve_s": "s", "detector_s": "s", "trajectory_s": "s",
    "ensemble_samples_per_s": "1/s", "record_p50_ms": "ms", "record_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes_max"):
        return "bytes"
    if name.endswith(("survival", "ratio")):
        return "ratio"
    return "count"


def spawn(args, mode: str, workdir: Path, seconds: float, deadline: float,
          untraced: int = 0) -> dict:
    """Run one worker to completion and return its result; set-up time is
    measured from just before the process starts to the worker's ready mark."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
           "--untraced", str(untraced), "--workdir", str(workdir)]
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    spawned = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {DEADLINE_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with status {proc.returncode}")
    result = json.loads(out.decode().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def measure(args, work: Path, deadline: float) -> dict:
    workers = [spawn(args, "setup", work / f"setup-{i}", args.seconds, deadline)
               for i in range(SETUP_REPEATS)]
    measured = spawn(args, "measure", work / "measure", args.seconds, deadline)
    workers.append(measured)
    metrics = dict(measured["metrics"])
    metrics["setup_s"] = statistics.median(w["setup_s"] for w in workers)
    metrics["peak_rss_mb"] = measured["peak_rss_mb"]
    detail = {"environment": measured["environment"],
              "round_walls_s": measured["round_walls"],
              "record_samples": metrics.pop("record_samples"),
              "op_times_s": measured["op_times"],
              "setup_samples_s": [w["setup_s"] for w in workers]}
    return {"metrics": metrics, "detail": detail, "problems": [],
            "attempted": sum(w["attempted"] for w in workers),
            "failed": sum(w["failed"] for w in workers)}


def trace(args, work: Path, deadline: float) -> dict:
    first = spawn(args, "trace", work / "trace-0", args.seconds / 2, deadline, untraced=1)
    second = spawn(args, "trace", work / "trace-1", args.seconds / 2, deadline)
    summaries = first["summaries"] + second["summaries"]
    problems = first["problems"] + second["problems"]
    reference = summaries[0]
    for name in tracer.COUNT_METRICS:
        values = [s[name] for s in summaries]
        if any(v != reference[name] for v in values):
            problems.append(f"count {name} differs across traced rounds: {values}")
    metrics = {name: reference[name] if name in tracer.COUNT_METRICS
               else statistics.median(s[name] for s in summaries) for name in reference}
    metrics["trace.overhead_s"] = (statistics.median(first["traced_walls"])
                                   - statistics.median(first["untraced_walls"]))
    detail = {"environment": first["environment"], "traced_rounds": len(summaries),
              "traced_walls_s": first["traced_walls"] + second["traced_walls"],
              "untraced_walls_s": first["untraced_walls"],
              "spans": [str(work / "trace-0" / "spans.jsonl"),
                        str(work / "trace-1" / "spans.jsonl")]}
    return {"metrics": metrics, "detail": detail, "problems": problems,
            "attempted": first["attempted"] + second["attempted"],
            "failed": first["failed"] + second["failed"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "nmtraj" / "__init__.py").is_file():
        print(f"error: no nmtraj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = (trace if args.trace else measure)(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for problem in report["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = report["failed"] == 0 and not report["problems"]
    units = {name: END_TO_END.get(name) or per_layer_unit(name) for name in report["metrics"]}
    detail = report["detail"]
    detail["environment"] = {**environment(), **detail["environment"]}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
