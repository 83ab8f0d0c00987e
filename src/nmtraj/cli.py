"""Command-line runner.

Subcommands: evolve | trajectory | ensemble | detector | verify.  A run is
configured by one JSON file with six blocks (model, kernel, grid, schedule,
sampling, output); complex matrices are nested arrays of [re, im] pairs.
Tables are CSV with unit-annotated headers, summaries are JSON, and every
run writes a manifest with the config hash and per-output checksums.
Identical (config, seed) pairs reproduce identical output bytes; only the
manifest carries wall-clock time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .chain import conditional_state_pointer, delayed_state, reduced_states
from .errors import ConfigError, NmtrajError
from .kernels import (ExponentialKernel, KernelMatrix, MarkovDeltaKernel, TabulatedKernel,
                      TimeGrid, build_kernel_matrix)
from .noise import NoiseRecord, sample_pointer_prior, sample_readout_prior
from .quantum import ModelSpec, eigendecompose_coupling
from .trajectories import ensemble_average, solve_unnormalized

_SCHEDULES = ("zero-delay", "delayed", "x-readout")

#: Header line of the record file `trajectory` writes; record readers skip it.
RECORD_HEADER = "z (integrated readout)"

DEFAULT_CONFIG = {
    "model": {
        "dim": 2,
        "hamiltonian": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "coupling": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        "initial_state": [[1.0, 0.0], [0.0, 0.0]],
    },
    "kernel": {"kind": "exponential", "lambda": 1.0},
    "grid": {"epsilon": 0.1, "n_steps": 8},
    "schedule": {"kind": "zero-delay", "delay": 0.0},
    "sampling": {"n_samples": 10000, "seed": 12345},
    "output": {"directory": "runs", "format": "csv"},
}


@dataclass
class RunConfig:
    model: ModelSpec
    kernel: object
    grid: TimeGrid
    schedule: str
    delay: float                  # the configured delay for "delayed", else 0.0
    readout_time: float | None
    n_samples: int
    seed: int
    out_dir: Path
    raw: dict

    @property
    def final_time(self) -> float:
        return self.grid.epsilon * self.grid.n_steps

    @property
    def measurement_time(self) -> float:
        """Readout time for conditional states; the grid may extend beyond it
        so that unread detectors stay represented (they are what make raw
        pointer readout states mixed)."""
        return self.readout_time if self.readout_time is not None else self.final_time

    def config_hash(self) -> str:
        return hashlib.sha256(
            verify_mod.canonical_json(self.raw).encode()).hexdigest()


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _finite(obj) -> bool:
    """A JSON number other than NaN and +-Infinity (which json.loads accepts);
    true and false are not numbers, although bool subclasses int."""
    try:
        return type(obj) in (int, float) and math.isfinite(obj)
    except OverflowError:  # an integer beyond the float range
        return False


def _finite_pair(obj, path: str, names: str) -> tuple[float, float]:
    _expect(isinstance(obj, list) and len(obj) == 2 and all(_finite(v) for v in obj),
            path, f"expected a pair {names} of finite numbers")
    return float(obj[0]), float(obj[1])


def _parse_complex_vector(obj, path: str, d: int) -> np.ndarray:
    _expect(isinstance(obj, list) and len(obj) == d, path, f"expected {d} entries")
    return np.array([complex(*_finite_pair(cell, f"{path}[{i}]", "[re, im]"))
                     for i, cell in enumerate(obj)])


def _parse_complex_matrix(obj, path: str, d: int) -> np.ndarray:
    _expect(isinstance(obj, list) and len(obj) == d, path, f"expected {d} rows")
    return np.array([_parse_complex_vector(row, f"{path}[{i}]", d)
                     for i, row in enumerate(obj)])


def _positive_number(obj, path: str) -> float:
    _expect(_finite(obj) and obj > 0, path, "expected a finite positive number")
    return float(obj)


def _grid_steps(grid: TimeGrid, time: float, path: str) -> int:
    """Whole steps before ``time`` on the grid (TimeGrid.steps_of), with its
    refusal reported against the config field ``path``."""
    try:
        return grid.steps_of(time)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_kernel(block: dict):
    kind = block.get("kind")
    _expect(kind in ("exponential", "markov", "tabulated"), "kernel.kind",
            "expected one of exponential | markov | tabulated")
    if kind == "exponential":
        return ExponentialKernel(rate=_positive_number(block.get("lambda"), "kernel.lambda"))
    if kind == "markov":
        return MarkovDeltaKernel(g=_positive_number(block.get("g"), "kernel.g"))
    samples = block.get("samples")
    _expect(isinstance(samples, list) and samples, "kernel.samples",
            "expected a non-empty array of [lag, value] pairs")
    lags, values = zip(*(_finite_pair(p, f"kernel.samples[{i}]", "[lag, value]")
                         for i, p in enumerate(samples)))
    try:
        return TabulatedKernel(lags=lags, values=values)
    except ValueError as exc:
        raise ConfigError(f"kernel.samples: {exc}") from None


def _read_text(path: str, what: str) -> str:
    """A UTF-8 text file's contents; a file that cannot be read or decoded
    is a ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot read {what} (byte {exc.start} is not UTF-8)") from None


def load_config(path: str | None, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Load, default-fill, and validate a run configuration."""
    if path is None:
        raw = json.loads(json.dumps(DEFAULT_CONFIG))
    else:
        text = _read_text(path, "config")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
        _expect(isinstance(raw, dict), "(root)", "expected a JSON object")
        for block, default in DEFAULT_CONFIG.items():
            raw.setdefault(block, json.loads(json.dumps(default)))
    # Every block is an object before the overrides write into it.
    for block in DEFAULT_CONFIG:
        _expect(isinstance(raw[block], dict), block, "expected an object")

    # Each flag's config block and field; a subcommand's namespace holds
    # only the flags it parses.
    for flag, block, key in (("seed", "sampling", "seed"), ("samples", "sampling", "n_samples"),
                             ("out", "output", "directory"), ("schedule", "schedule", "kind"),
                             ("delay", "schedule", "delay")):
        if getattr(overrides, flag, None) is not None:
            raw[block][key] = getattr(overrides, flag)

    mblock = raw["model"]
    dim = mblock.get("dim")
    _expect(type(dim) is int and dim >= 2, "model.dim", "expected an integer >= 2")
    H = _parse_complex_matrix(mblock.get("hamiltonian"), "model.hamiltonian", dim)
    X = _parse_complex_matrix(mblock.get("coupling"), "model.coupling", dim)
    psi0 = _parse_complex_vector(mblock.get("initial_state"), "model.initial_state", dim)
    try:
        model = ModelSpec(dim=dim, hamiltonian=H, coupling=X, initial_state=psi0)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    kernel = _parse_kernel(raw["kernel"])

    gblock = raw["grid"]
    eps = _positive_number(gblock.get("epsilon"), "grid.epsilon")
    n_steps = gblock.get("n_steps")
    _expect(type(n_steps) is int and n_steps >= 1, "grid.n_steps",
            "expected an integer >= 1")
    grid = TimeGrid(epsilon=eps, n_steps=n_steps)

    sblock = raw["schedule"]
    schedule = sblock.get("kind")
    _expect(schedule in _SCHEDULES, "schedule.kind",
            "expected one of " + " | ".join(_SCHEDULES))
    delay = sblock.get("delay", 0.0)
    _expect(_finite(delay) and delay >= 0, "schedule.delay",
            "expected a finite non-negative number")
    delay = float(delay)
    readout_time = sblock.get("t")  # checked in whole steps, as eps * n_steps may round up
    read_steps = n_steps
    if readout_time is not None:
        readout_time = _positive_number(readout_time, "schedule.t")
        read_steps = _grid_steps(grid, readout_time, "schedule.t")
    if schedule == "delayed":
        _expect(_grid_steps(grid, delay, "schedule.delay") < read_steps, "schedule.delay",
                f"must be under the {read_steps}-step readout time (schedule.t, else run length)")
    else:
        delay = 0.0

    pblock = raw["sampling"]
    n_samples = pblock.get("n_samples")
    _expect(type(n_samples) is int and n_samples >= 1, "sampling.n_samples",
            "expected a positive integer")
    seed = pblock.get("seed")
    _expect(type(seed) is int and 0 <= seed < 2 ** 64, "sampling.seed",
            "expected an unsigned 64-bit integer")

    oblock = raw["output"]
    directory = oblock.get("directory")
    _expect(isinstance(directory, str) and directory, "output.directory",
            "expected a non-empty string")
    _expect(oblock.get("format", "csv") == "csv", "output.format", "only 'csv' is supported")

    return RunConfig(model=model, kernel=kernel, grid=grid, schedule=schedule,
                     delay=delay, readout_time=readout_time, n_samples=n_samples,
                     seed=seed, out_dir=Path(directory), raw=raw)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _complex_pairs(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def _write_manifest(out_dir: Path, config: RunConfig, command: str,
                    outputs: list[Path], started: float) -> None:
    checksums = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs
    }
    from . import __version__
    payload = {
        "command": command,
        "config_sha256": config.config_hash(),
        "version": f"nmtraj-{__version__}",
        "seed": config.seed,
        "wall_clock_seconds": time.monotonic() - started,
        "outputs": checksums,
    }
    _write_json(out_dir / "manifest.json", payload)


def _is_commuting(model: ModelSpec) -> bool:
    comm = model.hamiltonian @ model.coupling - model.coupling @ model.hamiltonian
    return float(np.max(np.abs(comm))) < 1e-12


def cmd_evolve(config: RunConfig, A: KernelMatrix) -> list[Path]:
    """Pointer-averaged state at every grid time, with purity; commuting
    models additionally carry the closed-form off-diagonal oracle column."""
    model, grid = config.model, config.grid
    gap = None
    if _is_commuting(model) and model.dim == 2:
        eig = eigendecompose_coupling(model)
        if eig.count == 2:
            gap = float(eig.eigenvalues[1] - eig.eigenvalues[0])
    d = model.dim
    header = ["t (time)"] + [f"rho_{part}_{i}{j} (dimensionless)"
                             for i in range(d) for j in range(d) for part in ("re", "im")]
    header.append("purity (dimensionless; tr rho^2)")
    header.append("dephasing_oracle_offdiag (dimensionless; commuting two-level models)")
    rho01_0 = abs(complex(np.outer(model.initial_state,
                                   model.initial_state.conj())[0, 1]))
    rows = []
    window_sum = 0.0  # sum of A over the window [0, t), kept as a running sum
    for k, rho in enumerate(reduced_states(model, A, grid, config.final_time), 1):
        t = k * grid.epsilon
        row = [t]
        for v in rho.matrix.ravel():
            row += [float(v.real), float(v.imag)]
        row.append(rho.purity)
        if gap is not None:
            window_sum += A.column[0] + 2.0 * float(np.sum(A.column[k - 1:0:-1]))
            decay = np.exp(-0.5 * gap ** 2 * window_sum)
            row.append(float(rho01_0 * decay))
        else:
            row.append("")
        rows.append(row)
    out = config.out_dir / "evolve.csv"
    _write_csv(out, header, rows)
    return [out]


def _record(path: str | None, window: range, kind: str, sample) -> NoiseRecord:
    """The record of ``kind`` on ``window``: one float per line of the file ``path``
    (a first line RECORD_HEADER is skipped), else the leading values of the one
    record ``sample()`` draws."""
    if path is None:
        return NoiseRecord(window=window, values=sample().values[:len(window)], kind=kind)
    values = []
    for lineno, line in enumerate(_read_text(path, "record").splitlines(), 1):
        if line.strip() and not (lineno == 1 and line.strip() == RECORD_HEADER):
            try:
                values.append(float(line))
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: expected one float per line ({exc})") from None
            if not np.isfinite(values[-1]):
                raise ConfigError(f"{path}:{lineno}: record value {line.strip()} is not finite")
    if len(values) != len(window):
        raise ConfigError(
            f"{path}: record length {len(values)} does not match the window size {len(window)}")
    return NoiseRecord(window=window, values=values, kind=kind)


def cmd_trajectory(config: RunConfig, A: KernelMatrix, z_file: str | None = None) -> list[Path]:
    """Per-step table for one noise realization."""
    model, grid = config.model, config.grid
    record = _record(z_file, grid.full_window, "readout",
                     lambda: sample_readout_prior(A, 1, seed=config.seed)[0])
    traj = solve_unnormalized(model, A, grid, config.final_time, record)
    X = model.coupling
    header = [
        "step (index)", "t (time)", RECORD_HEADER,
        "norm (state norm; dimensionless)",
    ]
    header += [f"psi_{part}_{i} (dimensionless)"
               for i in range(model.dim) for part in ("re", "im")]
    header.append("coupling_expectation (dimensionless; <X> in the running state)")
    header.append("retarded_readout (integrated units; kernel row x conditional expectations)")
    rows = []
    for k in range(1, grid.n_steps + 1):
        psi, norm = traj.states[k], traj.norms[k]
        psin = psi / norm
        row = [k, k * grid.epsilon, float(record.values[k - 1]), float(norm)]
        for v in psi:
            row += [float(v.real), float(v.imag)]
        row += [float(np.real(psin.conj() @ X @ psin)), float(traj.retarded[k - 1])]
        rows.append(row)
    out = config.out_dir / "trajectory.csv"
    _write_csv(out, header, rows)
    record_out = config.out_dir / "trajectory_record.csv"
    _write_csv(record_out, [RECORD_HEADER],
               [[float(v)] for v in record.values])
    return [out, record_out]


def cmd_ensemble(config: RunConfig, A: KernelMatrix) -> list[Path]:
    """Importance-sampled unraveling report with the two-sided readout-mean
    comparison and the effective sample size."""
    if config.n_samples < 100:
        raise ConfigError("sampling.n_samples: ensemble runs need at least 100 samples")
    model, grid = config.model, config.grid
    t = config.final_time
    est = ensemble_average(model, A, grid, t, n_samples=config.n_samples,
                           seed=config.seed)
    comparison = est.mean_readout
    payload = {
        "t": t,
        "n_samples": est.n_samples,
        "seed": est.seed,
        "effective_sample_size": est.effective_sample_size,
        "rho": _complex_pairs(est.rho.matrix),
        "rho_standard_error": [[float(v) for v in row] for row in est.rho_se],
        "mean_readout": {
            "estimated": comparison.estimated,
            "estimated_se": comparison.estimated_se,
            "predicted": comparison.predicted,
            "predicted_se": comparison.predicted_se,
            "difference": comparison.difference,
            "difference_se": comparison.difference_se,
            "sigma_units": comparison.sigma_units,
            "within_3_se": bool(comparison.sigma_units <= 3.0),
        },
    }
    out = config.out_dir / "ensemble.json"
    _write_json(out, payload)
    return [out]


def cmd_detector(config: RunConfig, A: KernelMatrix,
                 record_file: str | None = None) -> list[Path]:
    """Conditional state for one readout under the configured schedule."""
    model, grid = config.model, config.grid
    t = config.measurement_time
    if config.schedule == "x-readout":
        record = _record(record_file, grid.window_before(t), "pointer",
                         lambda: sample_pointer_prior(A, 1, seed=config.seed)[0])
        state = conditional_state_pointer(model, A, grid, t, record)
    else:
        read = grid.window_before(t - config.delay)
        record = _record(record_file, read, "readout",
                         lambda: sample_readout_prior(A.restrict(read), 1, seed=config.seed)[0])
        state = delayed_state(model, A, grid, t, config.delay, record)
    payload = {
        "schedule": config.schedule,
        "delay": config.delay,
        "t": t,
        "record_kind": record.kind,
        "record": [float(v) for v in record.values],
        "rho": _complex_pairs(state.rho.matrix),
        "purity": state.rho.purity,
        "log_weight": state.log_weight,
    }
    out = config.out_dir / "detector.json"
    _write_json(out, payload)
    return [out]


def cmd_verify(config: RunConfig, seed: int | None) -> tuple[list[Path], bool]:
    """Run the verification suite at ``seed``, else at its own default seed,
    which its statistical tolerances are pinned at (not the config's sampling
    seed), and record that seed as the run's.  Returns written paths and
    overall pass/fail."""
    config.seed = verify_mod.DEFAULT_VERIFY_SEED if seed is None else seed
    report = verify_mod.run_report(seed=config.seed)
    out = config.out_dir / "verify_report.json"
    out.write_text(verify_mod.canonical_json(report) + "\n")
    for crit in report["criteria"]:
        status = "PASS" if crit["passed"] else "FAIL"
        print(f"{status} criterion {crit['id']:>2}: {crit['name']}")
        for check in crit["checks"]:
            mark = "ok " if check["passed"] else "BAD"
            rel = "<=" if check["kind"] == "max" else ">="
            print(f"    [{mark}] {check['name']}: measured {check['measured']:.6g} "
                  f"{rel} {check['tolerance']:.6g}")
    return [out], bool(report["passed"])


#: Every option any subcommand takes; argparse defaults each to None.
_OPTIONS = {
    "--config": {"help": "path to a JSON run config"},
    "--out": {"help": "output directory override"},
    "--seed": {"type": int, "help": "master seed override"},
    "--samples": {"type": int, "help": "sample count override"},
    "--schedule": {"choices": _SCHEDULES, "help": "readout schedule override"},
    "--delay": {"type": float, "help": "readout delay override (time units)"},
    "--z-file": {"help": "readout record, one value per line (default: sampled)"},
    "--record-file": {"help": "record to condition on, one value per line (default: sampled)"},
}

#: Each subcommand's help and the options its output reads besides --config and --out.
_SUBCOMMANDS = {
    "evolve": ("pointer-averaged state at every grid time", ()),
    "trajectory": ("per-step table for one noise realization", ("--seed", "--z-file")),
    "ensemble": ("importance-sampled unraveling report", ("--seed", "--samples")),
    "detector": ("conditional state for one readout record",
                 ("--seed", "--schedule", "--delay", "--record-file")),
    "verify": ("run the built-in verification suite", ("--seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmtraj",
        description="Finite-step simulator for continuous quantum measurement with memory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for option in ("--config", "--out", *options):
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    passed = True
    try:
        config = load_config(args.config, overrides=args)
        A = build_kernel_matrix(config.kernel, config.grid)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "evolve":
            outputs = cmd_evolve(config, A)
        elif args.command == "trajectory":
            outputs = cmd_trajectory(config, A, args.z_file)
        elif args.command == "ensemble":
            outputs = cmd_ensemble(config, A)
        elif args.command == "detector":
            outputs = cmd_detector(config, A, args.record_file)
        else:
            outputs, passed = cmd_verify(config, args.seed)
        _write_manifest(config.out_dir, config, args.command, outputs, started)
    except NmtrajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
