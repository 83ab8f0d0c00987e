"""Workload definitions: the run configs and the fixed list of CLI operations
one round of each workload performs.

Every workload runs every subcommand, so each end-to-end metric is measured
on each of them; what differs is the model, kernel and grid, and so which
layer does the work:

* ``exact-nc``: noncommuting models at the top of the exact-chain ladder
  (11-step qubit, 2048 paths; 7-step qutrit, 2187 paths).  ``chain`` does
  nearly all the work; windows are at most 16 wide, so ``kernels`` and
  ``noise`` do almost none.  The finite-support tabulated kernel is the
  input a banded memory-window engine applies to, the exponential kernel
  the one it does not.
* ``long-commuting``: a dephasing qubit over a 120-step grid.  Pruning
  keeps at most 2 paths, so pair sums vanish and the time goes to per-step
  path re-enumeration and re-solves (one build_paths call per evolve row,
  n + 1 solves per trajectory).

The ensemble runs on many paths over a narrow window in ``exact-nc`` and on
few paths over a wide window in ``long-commuting``, so a change that helps
one use and hurts the other shows.

Each workload also names one ``verify`` run, made in every traced round
(its criteria are per-layer metrics).  The suite is the same in every
workload and runs with its default seed, because its statistical
criteria carry pinned tolerances; all other random inputs derive from the
workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Steps of the exact noncommuting chains.  Each operation on them takes a
#: fraction of a second, so one run repeats it often enough for its median
#: time to be steady on a loaded host.
QUBIT_STEPS = 11
QUTRIT_STEPS = 7
#: Steps and step size of the long commuting grid.
LONG_STEPS = 120
LONG_EPS = 0.01
LONG_DELAYS = ("0.1", "0.5", "1.0")


@dataclass(frozen=True)
class Op:
    """One CLI call of a round.

    ``record_of`` names the trajectory op whose written record this detector
    op conditions on (through ``--record-file``); such a pair is one record.
    """

    name: str
    command: str
    config: str
    args: tuple[str, ...] = ()
    record_of: str | None = None
    samples: int = 0


@dataclass
class Workload:
    name: str
    configs: dict[str, dict]
    ops: list[Op]
    #: The suite, run in every traced round.
    verify: Op | None = None
    #: Config names whose evolve rows must match the closed-form
    #: dephasing column.
    oracle_configs: tuple[str, ...] = ()
    #: Surviving path counts that one build_paths call must reach, and the
    #: cap no call may pass (checked on the traced run).
    expected_paths: tuple[int, ...] = ()
    max_paths: int = 0
    paths: dict[str, Path] = field(default_factory=dict)

    def write_configs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, cfg in self.configs.items():
            path = directory / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            self.paths[name] = path


def _pairs(matrix) -> list:
    m = np.asarray(matrix, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _config(model: dict, kernel: dict, epsilon: float, n_steps: int,
            schedule: dict | None = None) -> dict:
    return {
        "model": model,
        "kernel": kernel,
        "grid": {"epsilon": epsilon, "n_steps": n_steps},
        "schedule": schedule or {"kind": "zero-delay", "delay": 0.0},
        "sampling": {"n_samples": 10000, "seed": 12345},
        "output": {"directory": "runs", "format": "csv"},
    }


def _qubit(hamiltonian, coupling, state) -> dict:
    return {"dim": len(state), "hamiltonian": _pairs(hamiltonian),
            "coupling": _pairs(coupling), "initial_state": _pairs([state])[0]}


SX = [[0.0, 1.0], [1.0, 0.0]]
SZ = [[1.0, 0.0], [0.0, -1.0]]
EXPONENTIAL = {"kind": "exponential", "lambda": 1.0}


def _support_two_steps(eps: float) -> dict:
    """Tabulated kernel that vanishes from lag 2*eps on (bandwidth 1)."""
    return {"kind": "tabulated", "samples": [[0.0, 0.5], [eps, 0.2], [2 * eps, 0.0]]}


class _Seeds:
    """Operation seeds drawn in definition order from the workload seed."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def __call__(self) -> str:
        return str(int(self._rng.integers(0, 2 ** 31)))


def _record(ops: list[Op], seeds: _Seeds, tag: str, config: str) -> None:
    """A seeded trajectory, then the zero-delay detector on its record."""
    ops.append(Op(f"trajectory/{tag}", "trajectory", config, ("--seed", seeds())))
    ops.append(Op(f"detector/{tag}", "detector", config, record_of=f"trajectory/{tag}"))


def exact_nc(seed: int) -> Workload:
    seeds = _Seeds(seed)
    qubit = _qubit(SX, SZ, [1.0, 0.0])
    rng = np.random.default_rng([seed, 3])
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    qutrit = _qubit(0.5 * (m + m.conj().T), np.diag([-1.0, 0.0, 1.0]), [1.0, 0.0, 0.0])
    configs = {
        "qubit-exp": _config(qubit, EXPONENTIAL, 0.1, QUBIT_STEPS),
        "qubit-tab": _config(qubit, _support_two_steps(0.1), 0.1, QUBIT_STEPS),
        "qubit-exp-x": _config(qubit, EXPONENTIAL, 0.1, 16,
                               {"kind": "x-readout", "delay": 0.0, "t": round(0.1 * QUBIT_STEPS, 6)}),
        "qutrit": _config(qutrit, EXPONENTIAL, 0.1, QUTRIT_STEPS),
    }
    ops = [Op("evolve/qubit-exp", "evolve", "qubit-exp")]
    _record(ops, seeds, "qubit-exp", "qubit-exp")
    ops += [
        Op("detector/qubit-exp-delayed", "detector", "qubit-exp",
           ("--schedule", "delayed", "--delay", "0.2", "--seed", seeds())),
        Op("detector/qubit-exp-x", "detector", "qubit-exp-x", ("--seed", seeds())),
        *(Op(f"ensemble/qubit-exp-{i}", "ensemble", "qubit-exp",
             ("--samples", "2000", "--seed", seeds()), samples=2000) for i in range(2)),
        Op("evolve/qubit-tab", "evolve", "qubit-tab"),
    ]
    _record(ops, seeds, "qubit-tab", "qubit-tab")
    ops.append(Op("evolve/qutrit", "evolve", "qutrit"))
    _record(ops, seeds, "qutrit", "qutrit")
    return Workload("exact-nc", configs, ops, Op("verify", "verify", "qubit-exp"),
                    expected_paths=(2 ** QUBIT_STEPS, 3 ** QUTRIT_STEPS),
                    max_paths=3 ** QUTRIT_STEPS)


def long_commuting(seed: int) -> Workload:
    seeds = _Seeds(seed)
    plus = [2 ** -0.5, 2 ** -0.5]
    model = _qubit(0.7 * np.asarray(SZ), SZ, plus)
    t_x = round(0.8 * LONG_STEPS) * LONG_EPS
    configs = {}
    ops: list[Op] = []
    for tag, kernel in (("exp", EXPONENTIAL), ("tab", _support_two_steps(LONG_EPS))):
        configs[tag] = _config(model, kernel, LONG_EPS, LONG_STEPS)
        configs[f"{tag}-x"] = _config(model, kernel, LONG_EPS, LONG_STEPS,
                                      {"kind": "x-readout", "delay": 0.0, "t": t_x})
        ops.append(Op(f"evolve/{tag}", "evolve", tag))
        _record(ops, seeds, tag, tag)
        ops += [
            *(Op(f"detector/{tag}-delayed-{delay}", "detector", tag,
                 ("--schedule", "delayed", "--delay", delay, "--seed", seeds()))
              for delay in LONG_DELAYS),
            Op(f"detector/{tag}-x", "detector", f"{tag}-x", ("--seed", seeds())),
            Op(f"ensemble/{tag}", "ensemble", tag,
               ("--samples", "20000", "--seed", seeds()), samples=20000),
        ]
    return Workload("long-commuting", configs, ops, Op("verify", "verify", "exp"),
                    oracle_configs=("exp", "tab"), max_paths=2)


def build(name: str, seed: int) -> Workload:
    return {"exact-nc": exact_nc, "long-commuting": long_commuting}[name](seed)


def warmup() -> Workload:
    """Two-step runs of each subcommand that finish lazy set-up (imports,
    first linear-algebra calls) before the timed rounds."""
    qubit = _qubit(SX, SZ, [1.0, 0.0])
    configs = {"warm": _config(qubit, EXPONENTIAL, 0.1, 2)}
    ops = [Op("evolve/warm", "evolve", "warm")]
    _record(ops, _Seeds(0), "warm", "warm")
    ops.append(Op("ensemble/warm", "ensemble", "warm", ("--samples", "100"), samples=100))
    return Workload("warmup", configs, ops)
