"""Correctness gates on the files each CLI operation writes.

Every gate reads the operation's outputs back from disk and tests an
identity that does not depend on the code path that produced them: the
manifest's checksums, the defining properties of a density operator, the
chain state against the independently solved trajectory state on the same
record, the commuting model's closed-form dephasing column, and the
ensemble against the exact reduced state within its own standard error.
The gates run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

STATE_TOL = 1e-10        # trace, PSD and purity of every written state
HERMITIAN_TOL = 1e-12
EQUIVALENCE_TOL = 1e-10  # chain vs trajectory trace distance
ORACLE_TOL = 1e-12       # |rho_01| vs the closed-form dephasing column
NORM_RTOL = 1e-12        # trajectory norm column vs |psi|
ENSEMBLE_SE = 5.0        # ensemble vs exact state, in pooled standard errors
READOUT_SIGMA = 5.0      # readout-mean law discrepancy, in its own SE units
VERIFY_RED_BY_DESIGN = [4]


class Context:
    """States one round has written so far, keyed for later gates."""

    def __init__(self):
        self.evolve_final: dict[str, np.ndarray] = {}
        self.trajectory_final: dict[str, tuple[np.ndarray, np.ndarray]] = {}


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(header: list[str], prefix: str) -> int:
    for i, name in enumerate(header):
        if name.split(" ")[0] == prefix:
            return i
    raise KeyError(prefix)


def _matrix(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def state_problems(rho: np.ndarray, what: str) -> list[str]:
    problems = []
    if not np.all(np.isfinite(rho)):
        return [f"{what}: non-finite entries"]
    if abs(np.trace(rho).real - 1.0) > STATE_TOL:
        problems.append(f"{what}: trace {np.trace(rho).real!r} differs from 1")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
        problems.append(f"{what}: not Hermitian")
    elif np.linalg.eigvalsh(rho)[0] < -STATE_TOL:
        problems.append(f"{what}: negative eigenvalue {np.linalg.eigvalsh(rho)[0]!r}")
    return problems


def record_values(out_dir: Path) -> np.ndarray:
    """Readout record a trajectory run wrote, one value per step."""
    _, rows = _read_csv(out_dir / "trajectory_record.csv")
    return np.array([float(r[0]) for r in rows])


def _manifest_problems(out_dir: Path, command: str) -> list[str]:
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    if manifest.get("command") != command:
        problems.append(f"manifest command {manifest.get('command')!r} != {command!r}")
    if not manifest.get("outputs"):
        problems.append("manifest lists no outputs")
    for name, digest in manifest.get("outputs", {}).items():
        try:
            actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if actual != digest:
            problems.append(f"{name}: checksum does not match the manifest")
    return problems


def _evolve(out_dir: Path, dim: int, oracle: bool) -> tuple[list[str], np.ndarray]:
    header, rows = _read_csv(out_dir / "evolve.csv")
    problems = []
    purity_col = _column(header, "purity")
    oracle_col = _column(header, "dephasing_oracle_offdiag")
    rho = None
    for row in rows:
        t = row[0]
        rho = np.array([[complex(float(row[1 + 2 * (dim * i + j)]),
                                 float(row[2 + 2 * (dim * i + j)]))
                         for j in range(dim)] for i in range(dim)])
        problems += state_problems(rho, f"evolve t={t}")
        if abs(float(row[purity_col]) - np.trace(rho @ rho).real) > STATE_TOL:
            problems.append(f"evolve t={t}: purity column disagrees with tr rho^2")
        if oracle:
            gap = abs(abs(rho[0, 1]) - float(row[oracle_col]))
            if not gap <= ORACLE_TOL:
                problems.append(f"evolve t={t}: |rho_01| off the dephasing oracle by {gap:.3e}")
    if rho is None:
        problems.append("evolve wrote no rows")
    return problems, rho


def _trajectory(out_dir: Path, dim: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    header, rows = _read_csv(out_dir / "trajectory.csv")
    norm_col = _column(header, "norm")
    psi_col = _column(header, "psi_re_0")
    z_col = _column(header, "z")
    problems = []
    psi = None
    for row in rows:
        psi = np.array([complex(float(row[psi_col + 2 * i]), float(row[psi_col + 2 * i + 1]))
                        for i in range(dim)])
        norm = float(row[norm_col])
        if not abs(np.linalg.norm(psi) - norm) <= NORM_RTOL * norm:
            problems.append(f"trajectory step {row[0]}: norm column disagrees with |psi|")
    record = record_values(out_dir)
    if psi is None or not np.array_equal(record, [float(r[z_col]) for r in rows]):
        problems.append("trajectory record file disagrees with the table's z column")
        return problems, np.zeros(dim), record
    return problems, psi / np.linalg.norm(psi), record


def _verify(out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "verify_report.json").read_text())
    ids = [c["id"] for c in report["criteria"]]
    red = [c["id"] for c in report["criteria"] if not c["passed"]]
    if ids != list(range(1, 11)):
        return [f"verify reported criteria {ids}"]
    if red != VERIFY_RED_BY_DESIGN:
        return [f"verify red criteria {red}, expected exactly {VERIFY_RED_BY_DESIGN}"]
    return []


def check(op, workload, out_dir: Path, status: int, ctx: Context) -> list[str]:
    """Problems found in one operation's outputs; empty when it passed."""
    expected_status = 1 if op.command == "verify" else 0
    if status != expected_status:
        return [f"exit status {status}, expected {expected_status}"]
    problems = _manifest_problems(out_dir, op.command)
    dim = workload.configs[op.config]["model"]["dim"]
    if op.command == "verify":
        problems += _verify(out_dir)
    elif op.command == "evolve":
        found, rho = _evolve(out_dir, dim, op.config in workload.oracle_configs)
        problems += found
        ctx.evolve_final[op.config] = rho
    elif op.command == "trajectory":
        found, psi, record = _trajectory(out_dir, dim)
        problems += found
        ctx.trajectory_final[op.name] = (psi, record)
    elif op.command == "detector":
        payload = json.loads((out_dir / "detector.json").read_text())
        rho = _matrix(payload["rho"])
        problems += state_problems(rho, "detector state")
        if abs(payload["purity"] - np.trace(rho @ rho).real) > STATE_TOL:
            problems.append("detector purity field disagrees with tr rho^2")
        if op.record_of is not None:
            psi, record = ctx.trajectory_final[op.record_of]
            if not np.array_equal(np.asarray(payload["record"]), record):
                problems.append("detector record differs from the trajectory's record")
            td = trace_distance(rho, np.outer(psi, psi.conj()))
            if not td <= EQUIVALENCE_TOL:
                problems.append(f"chain vs trajectory trace distance {td:.3e}")
            if not abs(payload["purity"] - 1.0) <= STATE_TOL:
                problems.append(f"readout-conditioned purity {payload['purity']!r} is not 1")
    elif op.command == "ensemble":
        payload = json.loads((out_dir / "ensemble.json").read_text())
        rho = _matrix(payload["rho"])
        problems += state_problems(rho, "ensemble state")
        if payload["n_samples"] != op.samples:
            problems.append(f"ensemble used {payload['n_samples']} samples, not {op.samples}")
        pooled = float(np.sqrt(np.sum(np.square(payload["rho_standard_error"]))))
        td = trace_distance(rho, ctx.evolve_final[op.config])
        if not td <= ENSEMBLE_SE * pooled:
            problems.append(f"ensemble off the exact state by {td / pooled:.2f} pooled SE")
        sigma = payload["mean_readout"]["sigma_units"]
        if not sigma <= READOUT_SIGMA:
            problems.append(f"readout-mean law off by {sigma:.2f} SE")
    return problems
