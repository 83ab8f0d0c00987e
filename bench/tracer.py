"""Span tracer for the traced run.

``install`` wraps the public functions of each ``nmtraj`` layer at every
binding site (the defining module and every module that imported the name,
so calls through ``cli``'s and ``trajectories``' imports are seen too) and
returns what ``uninstall`` needs to restore them.  Spans are kept in memory
as (name, start, end, parent, attrs) with the index of the span that caused
them, and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Layer metrics count only work outside ``verify``; the suite has its own
per-criterion metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("kernels", "noise", "quantum", "chain", "trajectories", "verify", "cli")

#: Private verify helpers wrapped so the per-criterion times match the
#: suite's own split: the shared ensemble belongs to criterion 2 and the
#: second pass is criterion 10 (determinism).
VERIFY_HELPERS = ("_shared_ensemble", "_run_once")
GAUSSIAN_METHODS = {"__post_init__": "noise.GaussianDensity",
                    "logpdf": "noise.GaussianDensity.logpdf",
                    "precision_apply": "noise.GaussianDensity.precision_apply"}

CHAIN_STATES = ("chain.reduced_state", "chain.conditional_state_readout",
                "chain.conditional_state_pointer", "chain.delayed_state")
FACTORIZATIONS = ("kernels.build_kernel_matrix", "kernels.window_matrix",
                  "kernels.restricted_inverse", "kernels.cholesky_factor",
                  "noise.GaussianDensity", "noise.sample_readout_prior",
                  "noise.sample_pointer_prior", "noise.pointer_prior")
CALLS_AND_SELF = ("chain.build_paths", "trajectories.solve_unnormalized",
                  *FACTORIZATIONS, "noise.GaussianDensity.logpdf",
                  "noise.GaussianDensity.precision_apply",
                  "quantum.eigendecompose_coupling", "quantum.free_step")
SELF_ONLY = (*CHAIN_STATES, "trajectories.ensemble_average", "cli.load_config",
             "cli.cmd_evolve", "cli.cmd_trajectory", "cli.cmd_ensemble",
             "cli.cmd_detector", "cli.cmd_verify")
VERIFY_CRITERIA = {
    "verify.criterion_readout_equivalence": "readout-equivalence",
    "verify._shared_ensemble": "ensemble-unraveling",
    "verify.criterion_ensemble_unraveling": "ensemble-unraveling",
    "verify.criterion_mean_readout_law": "readout-mean-law",
    "verify.criterion_dephasing_oracle": "dephasing-oracle",
    "verify.criterion_markov_limit": "markov-limit-and-pointer-purity",
    "verify.criterion_readout_purity": "readout-purity",
    "verify.criterion_delayed_readout": "delayed-readout",
    "verify.criterion_equation_residual": "equation-residual",
    "verify.criterion_gaussian_machinery": "gaussian-machinery",
}
#: Metrics that must repeat exactly across traced rounds with one seed.
COUNT_METRICS = (
    *(f"{name}.calls" for name in CALLS_AND_SELF),
    "kernels.factorizations", "chain.pairs", "chain.cross_bytes_max",
    "chain.paths", "chain.paths_max", "chain.path_survival", "trajectories.ess_ratio",
)


def _paths_attrs(result):
    levels = len(result.eigenvalues)
    return {"paths": int(result.count), "branches": levels ** result.histories.shape[1]}


def _ensemble_attrs(result):
    return {"ess_ratio": result.effective_sample_size / result.n_samples}


ATTRS = {"chain.build_paths": _paths_attrs,
         "trajectories.ensemble_average": _ensemble_attrs}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    self.spans[index][4] = attrs_of(result)
                return result
            finally:
                self._close(index)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every layer's public functions at each binding site."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"nmtraj.{layer}")
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") or (layer == "verify" and attr in VERIFY_HELPERS)
            if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    patches = []
    for modname, module in list(sys.modules.items()):
        if modname != "nmtraj" and not modname.startswith("nmtraj."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    density = importlib.import_module("nmtraj.noise").GaussianDensity
    for attr, name in GAUSSIAN_METHODS.items():
        original = density.__dict__[attr]
        patches.append((density, attr, original))
        setattr(density, attr, tracer.wrap(name, original))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def summarize(spans: list[list]) -> tuple[dict[str, float], list[int]]:
    """Per-layer metrics of one round's spans, and the distinct surviving
    path counts of its build_paths calls outside verify."""
    children: list[list[int]] = [[] for _ in spans]
    in_verify = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
            in_verify[i] = in_verify[parent] or spans[parent][0] == "cli.cmd_verify"

    def duration(i):
        return spans[i][2] - spans[i][1]

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    criteria: dict[str, float] = {}
    passes = []
    pairs = cross_max = paths = paths_max = branches = 0
    reduced_max = 0.0
    ess = []
    seen: set[int] = set()
    for i, (name, _, _, _, attrs) in enumerate(spans):
        if name == "verify._run_once":
            passes.append(i)
        if in_verify[i]:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration(i) - sum(duration(c) for c in children[i])
        if name == "chain.build_paths" and attrs:
            seen.add(attrs["paths"])
            paths += attrs["paths"]
            paths_max = max(paths_max, attrs["paths"])
            branches += attrs["branches"]
        elif name in CHAIN_STATES:
            if name == "chain.reduced_state":
                reduced_max = max(reduced_max, duration(i))
            for c in children[i]:
                if spans[c][0] == "chain.build_paths" and spans[c][4]:
                    p = spans[c][4]["paths"]
                    pairs += p * p
                    cross_max = max(cross_max, 8 * p * p)
        elif name == "trajectories.ensemble_average" and attrs:
            ess.append(attrs["ess_ratio"])
    if passes:
        for c in children[passes[0]]:
            label = VERIFY_CRITERIA.get(spans[c][0])
            if label is not None:
                criteria[label] = criteria.get(label, 0.0) + duration(c)
        criteria["determinism"] = sum(duration(p) for p in passes[1:])

    out: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (*CALLS_AND_SELF, *SELF_ONLY):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["chain.reduced_state.max_s"] = reduced_max
    out["kernels.factorizations"] = sum(calls.get(name, 0) for name in FACTORIZATIONS)
    out["chain.pairs"] = pairs
    out["chain.cross_bytes_max"] = cross_max
    out["chain.paths"] = paths
    out["chain.paths_max"] = paths_max
    out["chain.path_survival"] = paths / branches if branches else 0.0
    out["trajectories.ess_ratio"] = statistics.fmean(ess) if ess else 0.0
    for label in dict.fromkeys(VERIFY_CRITERIA.values()):
        out[f"verify.{label}.s"] = criteria.get(label, 0.0)
    out["verify.determinism.s"] = criteria.get("determinism", 0.0)
    return out, sorted(seen)


def write_spans(path: Path, rounds: list[list[list]]) -> None:
    """One JSON line per span: round, index, name, start, end, parent, attrs."""
    with path.open("w") as fh:
        for r, spans in enumerate(rounds):
            for i, (name, start, end, parent, attrs) in enumerate(spans):
                fh.write(json.dumps({"round": r, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "attrs": attrs}) + "\n")
