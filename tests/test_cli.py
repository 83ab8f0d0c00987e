import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmtraj as nt
from nmtraj import chain, cli
from nmtraj import verify as verify_mod
from nmtraj.errors import ConfigError
from nmtraj.noise import GaussianDensity


def _run(argv):
    return cli.main(argv)


def _write_config(path, **blocks):
    payload = {}
    payload.update(blocks)
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


_ZERO_COUPLING_MODEL = {
    "dim": 2,
    "hamiltonian": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
    "coupling": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "initial_state": [[1.0, 0.0], [0.0, 0.0]],
}

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_DEPHASING_MODEL = {
    "dim": 2,
    "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "coupling": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    "initial_state": [[_INV_SQRT2, 0.0], [_INV_SQRT2, 0.0]],
}


def test_config_defaults_load():
    config = cli.load_config(None)
    assert config.grid.n_steps == 8
    assert config.schedule == "zero-delay"
    assert config.model.dim == 2


def test_config_field_diagnostics(tmp_path):
    path = _write_config(tmp_path / "c.json", grid={"epsilon": 0.1, "n_steps": "x"})
    with pytest.raises(ConfigError, match="grid.n_steps"):
        cli.load_config(path)
    path = _write_config(tmp_path / "c2.json",
                         model={**_ZERO_COUPLING_MODEL, "hamiltonian": [[1, 2], [3, 4]]})
    with pytest.raises(ConfigError, match=r"model.hamiltonian\[0\]"):
        cli.load_config(path)
    path = _write_config(tmp_path / "c3.json",
                         schedule={"kind": "delayed", "delay": 0.25})
    with pytest.raises(ConfigError, match="schedule.delay"):
        cli.load_config(path)


def test_config_json_syntax_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "grid": {,}\n}')
    with pytest.raises(ConfigError, match="broken.json:2"):
        cli.load_config(str(path))


def test_evolve_zero_coupling_purity_constant(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", model=_ZERO_COUPLING_MODEL,
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["evolve", "--config", cfg]) == 0
    header, rows = _read_csv(tmp_path / "out" / "evolve.csv")
    purity_col = header.index("purity (dimensionless; tr rho^2)")
    for row in rows:
        assert float(row[purity_col]) == pytest.approx(1.0, abs=1e-10)


def test_evolve_dephasing_matches_oracle_column(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", model=_DEPHASING_MODEL,
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["evolve", "--config", cfg]) == 0
    header, rows = _read_csv(tmp_path / "out" / "evolve.csv")
    off_col = header.index("rho_re_01 (dimensionless)")
    oracle_col = header.index(
        "dephasing_oracle_offdiag (dimensionless; commuting two-level models)")
    for row in rows:
        assert float(row[off_col]) == pytest.approx(float(row[oracle_col]), abs=1e-12)


def test_evolve_markov_matches_exponential_decay(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", model=_DEPHASING_MODEL,
                        kernel={"kind": "markov", "g": 1.0},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["evolve", "--config", cfg]) == 0
    header, rows = _read_csv(tmp_path / "out" / "evolve.csv")
    t_col = header.index("t (time)")
    off_col = header.index("rho_re_01 (dimensionless)")
    for row in rows:
        t = float(row[t_col])
        assert float(row[off_col]) == pytest.approx(0.5 * np.exp(-2.0 * t), abs=1e-12)


def test_trajectory_from_file_and_retarded_column(tmp_path):
    zfile = tmp_path / "z.txt"
    rng = np.random.default_rng(0)
    values = 0.05 * rng.standard_normal(8)
    zfile.write_text("\n".join(repr(float(v)) for v in values))
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(out), "format": "csv"})
    assert _run(["trajectory", "--config", cfg, "--z-file", str(zfile)]) == 0
    header, rows = _read_csv(out / "trajectory.csv")
    zcol = header.index("z (integrated readout)")
    retcol = header.index(
        "retarded_readout (integrated units; kernel row x conditional expectations)")
    assert [float(r[zcol]) for r in rows] == pytest.approx(list(values), rel=1e-12)

    # Offline recompute of the final retarded value.
    config = cli.load_config(cfg)
    A = nt.build_kernel_matrix(config.kernel, config.grid)
    rec = nt.NoiseRecord(window=config.grid.full_window, values=values)
    traj = nt.solve_unnormalized(config.model, A, config.grid, 0.8, rec)
    assert float(rows[-1][retcol]) == pytest.approx(traj.retarded[-1], rel=1e-12)


def test_trajectory_z_file_alone_is_the_record(tmp_path):
    zfile = tmp_path / "z.txt"
    values = [0.01 * k for k in range(8)]
    zfile.write_text("\n".join(repr(v) for v in values))
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(out), "format": "csv"})
    assert _run(["trajectory", "--config", cfg, "--z-file", str(zfile)]) == 0
    _, rows = _read_csv(out / "trajectory_record.csv")
    assert [float(r[0]) for r in rows] == values
    with pytest.raises(SystemExit):
        _run(["trajectory", "--config", cfg, "--z-source", "file", "--z-file", str(zfile)])


def test_trajectory_zero_noise_zero_coupling_is_free(tmp_path):
    zfile = tmp_path / "z.txt"
    zfile.write_text("\n".join(["0.0"] * 8))
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", model=_ZERO_COUPLING_MODEL,
                        output={"directory": str(out), "format": "csv"})
    assert _run(["trajectory", "--config", cfg, "--z-file", str(zfile)]) == 0
    header, rows = _read_csv(out / "trajectory.csv")
    ncol = header.index("norm (state norm; dimensionless)")
    for row in rows:
        assert float(row[ncol]) == pytest.approx(1.0, abs=1e-12)


def test_trajectory_rejects_non_finite_record(tmp_path, capsys):
    zfile = tmp_path / "z.txt"
    zfile.write_text("0.1\n\nnan\n" + "0.0\n" * 6)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(out), "format": "csv"})
    assert _run(["trajectory", "--config", cfg, "--z-file", str(zfile)]) == 1
    assert f"{zfile}:3: record value nan is not finite" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command", ["trajectory", "detector"])
def test_out_of_range_record_is_a_typed_error(tmp_path, capsys, command):
    zfile = tmp_path / "z.txt"
    zfile.write_text("1e308\n" * 8)
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    argv = (["trajectory", "--z-file", str(zfile)]
            if command == "trajectory" else ["detector", "--record-file", str(zfile)])
    assert _run([*argv, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "out of the range" in err
    assert "Traceback" not in err


def test_trajectory_solves_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3])
        return nt.solve_unnormalized(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_unnormalized", counting)
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["trajectory", "--config", cfg, "--seed", "4"]) == 0
    assert calls == [pytest.approx(0.8)]


def test_long_dephasing_trajectory(tmp_path):
    # 4000 steps: each prefix carries its histories' exponents from the last;
    # re-forming every prefix's exponent over its k x k block took over 10 s.
    import time
    values = np.random.default_rng(8).normal(scale=0.007, size=4000)
    zfile = tmp_path / "z.txt"
    zfile.write_text("".join(f"{float(v)!r}\n" for v in values))
    out = tmp_path / "out"
    model = {**_DEPHASING_MODEL,
             "hamiltonian": [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.7, 0.0]]]}
    cfg = _write_config(tmp_path / "cfg.json", model=model,
                        grid={"epsilon": 0.01, "n_steps": 4000},
                        output={"directory": str(out), "format": "csv"})
    start = time.monotonic()
    assert _run(["trajectory", "--config", cfg, "--z-file", str(zfile)]) == 0
    assert time.monotonic() - start < 2.0
    header, rows = _read_csv(out / "trajectory.csv")
    assert len(rows) == 4000
    ncol = header.index("norm (state norm; dimensionless)")
    assert all(0.0 < float(row[ncol]) < np.inf for row in rows)


def test_evolve_walks_the_path_tree_once(tmp_path, monkeypatch):
    walks = []
    walk = chain._walk_paths

    def counting(*args, **kwargs):
        walks.append(args[2])
        return walk(*args, **kwargs)

    monkeypatch.setattr(chain, "_walk_paths", counting)
    # The default config takes the Taylor levels and walks no tree.  At
    # 3 sigma_z on 10 steps no depth is certified and the window cannot hold
    # the exponential kernel's bandwidth 9, so the path sum walks once, to t.
    strong = {"model": {**_ZERO_COUPLING_MODEL,
                        "coupling": [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-3.0, 0.0]]]},
              "grid": {"epsilon": 0.1, "n_steps": 10}}
    for name, blocks, expected, steps in (("default", {}, [], 8), ("strong", strong, [10], 10)):
        walks.clear()
        out = tmp_path / name
        cfg = _write_config(tmp_path / f"{name}.json", **blocks,
                            output={"directory": str(out), "format": "csv"})
        assert _run(["evolve", "--config", cfg]) == 0
        assert walks == expected
        _, rows = _read_csv(out / "evolve.csv")
        assert len(rows) == steps


def _valid_evolve_states(path, rows_expected):
    """The evolve.csv states, checked to be unit-trace, Hermitian and PSD."""
    header, rows = _read_csv(path)
    assert len(rows) == rows_expected
    cols = [header.index(f"rho_{part}_{i}{j} (dimensionless)")
            for i in range(2) for j in range(2) for part in ("re", "im")]
    rhos = np.array([[float(row[c]) for c in cols] for row in rows])
    rhos = (rhos[:, 0::2] + 1j * rhos[:, 1::2]).reshape(-1, 2, 2)
    assert np.max(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)) <= 1e-12
    assert np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1))) <= 1e-12
    assert np.min(np.linalg.eigvalsh(rhos)) >= -1e-12
    return rhos


def test_evolve_long_grid_with_finite_support_kernel(tmp_path, monkeypatch):
    # 1000 noncommuting steps (2^1000 histories) of a two-step kernel: the
    # memory-window transfer carries every row in one pass.
    import time
    out = tmp_path / "out"
    kernel = {"kind": "tabulated", "samples": [[0.0, 0.5], [0.1, 0.2], [0.2, 0.0]]}
    cfg = _write_config(tmp_path / "cfg.json", kernel=kernel,
                        grid={"epsilon": 0.1, "n_steps": 1000},
                        output={"directory": str(out), "format": "csv"})
    start = time.monotonic()
    assert _run(["evolve", "--config", cfg]) == 0
    assert time.monotonic() - start < 2.0
    rhos = _valid_evolve_states(out / "evolve.csv", 1000)
    # The first 12 rows against the path sum on a 12-step grid.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=12)
    A = nt.build_kernel_matrix(cli._parse_kernel(kernel), grid)
    monkeypatch.setattr(chain, "BLOCK_BUDGET", 0)
    reference = nt.reduced_states(nt.default_qubit(), A, grid, 1.2)
    assert max(np.max(np.abs(rho - ref.matrix)) for rho, ref in zip(rhos, reference)) <= 1e-12


def test_evolve_past_the_pair_budget_on_an_exponential_kernel(tmp_path, monkeypatch):
    # 16 noncommuting steps: the pair sums would pass the pair budget, and
    # the Taylor hierarchy carries every row instead.
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", grid={"epsilon": 0.1, "n_steps": 16},
                        output={"directory": str(out), "format": "csv"})
    assert _run(["evolve", "--config", cfg]) == 0
    rhos = _valid_evolve_states(out / "evolve.csv", 16)
    # The first 10 rows against the path sum on a 10-step grid.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=10)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    monkeypatch.setattr(chain, "BLOCK_BUDGET", 0)
    reference = nt.reduced_states(nt.default_qubit(), A, grid, 1.0)
    assert max(np.max(np.abs(rho - ref.matrix)) for rho, ref in zip(rhos, reference)) <= 1e-12


def _noise_average(model, c, r, eps, steps, samples, seed):
    """Mean and standard errors (real and imaginary parts) of the state after
    ``steps`` kicked unitary evolutions psi -> exp(i xi_k X) U psi over
    unit-weight samples of the stationary AR(1) noise xi (variance c,
    lag-one correlation r), whose covariance is the exponential kernel matrix
    A_ij = c r^|i-j|: an oracle for the reduced state independent of the
    chain, since exp(-D.A.D/2) is the noise average of exp(i xi.D)."""
    rng = np.random.default_rng(seed)
    x, V = np.linalg.eigh(model.coupling)
    U = V.conj().T @ nt.free_step(model, eps) @ V  # the step in the coupling's eigenbasis
    psi = np.repeat((V.conj().T @ model.initial_state)[:, None], samples, axis=1)
    xi = rng.normal(scale=np.sqrt(c), size=samples)
    for _ in range(steps):
        phase = np.outer(x, xi)
        psi = (np.cos(phase) + 1j * np.sin(phase)) * (U @ psi)
        xi = r * xi + np.sqrt(c * (1.0 - r * r)) * rng.standard_normal(samples)
    psi = V @ psi  # back to the computational basis, one column per sample
    outer = psi[:, None, :] * psi[None, :, :].conj()
    return outer.mean(axis=2), [part(outer).std(axis=2) / np.sqrt(samples)
                                for part in (np.real, np.imag)]


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_evolve_2000_steps_on_an_exponential_kernel(tmp_path, monkeypatch, eps):
    # The default exponential config on 2000 noncommuting steps: the Taylor
    # hierarchy carries every row at its certified depth (40 at eps 0.1, 41
    # at eps 0.01).  The first 12 rows are checked against the path sum on a
    # 12-step grid and, at the default step, the last against a
    # 20,000-sample noise average.
    import time
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", grid={"epsilon": eps, "n_steps": 2000},
                        output={"directory": str(out), "format": "csv"})
    start = time.monotonic()
    assert _run(["evolve", "--config", cfg]) == 0
    assert time.monotonic() - start < 2.0
    rhos = _valid_evolve_states(out / "evolve.csv", 2000)
    model, kernel = nt.default_qubit(), nt.ExponentialKernel(rate=1.0)
    grid = nt.TimeGrid(epsilon=eps, n_steps=12)
    A = nt.build_kernel_matrix(kernel, grid)
    with monkeypatch.context() as patch:
        patch.setattr(chain, "BLOCK_BUDGET", 0)
        reference = nt.reduced_states(model, A, grid, grid.n_steps * eps)
    assert max(np.max(np.abs(rho - ref.matrix)) for rho, ref in zip(rhos, reference)) <= 1e-12
    if eps != 0.1:
        return
    mean, errors = _noise_average(model, *A.ar1, eps, 2000, 20000, seed=2000)
    for part, se in zip((np.real, np.imag), errors):
        assert np.all(np.abs(part(rhos[-1] - mean)) <= 5.0 * se + 1e-15)


def test_evolve_4000_dephasing_steps_on_an_exponential_kernel(tmp_path):
    # The commuting qubit has at most 2 paths, but a path sum would gather a
    # k x k kernel block for each of its 4000 prefixes; the route reads no
    # path count and takes the Taylor levels.
    import time
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", model=_DEPHASING_MODEL,
                        grid={"epsilon": 0.01, "n_steps": 4000},
                        output={"directory": str(out), "format": "csv"})
    start = time.monotonic()
    assert _run(["evolve", "--config", cfg]) == 0
    assert time.monotonic() - start < 2.0
    header, rows = _read_csv(out / "evolve.csv")
    assert len(rows) == 4000
    re_col, im_col = (header.index(f"rho_{part}_01 (dimensionless)") for part in ("re", "im"))
    oracle_col = header.index(
        "dephasing_oracle_offdiag (dimensionless; commuting two-level models)")
    assert max(abs(abs(complex(float(row[re_col]), float(row[im_col]))) - float(row[oracle_col]))
               for row in rows) <= 1e-12


def test_evolve_long_grid_at_strong_coupling(tmp_path):
    # Coupling 10 sigma_z on 1000 steps: the whole-grid exponent bound would
    # be 20^2 * 999 * 0.005 = 1998, but each step's corner of the kernel
    # holds one entry, so the transfer's local bound is 20^2 * 0.005 = 2.
    strong = {**_ZERO_COUPLING_MODEL,
              "coupling": [[[10.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-10.0, 0.0]]]}
    out = tmp_path / "out"
    kernel = {"kind": "tabulated", "samples": [[0.0, 1.0], [0.1, 0.5], [0.2, 0.0]]}
    cfg = _write_config(tmp_path / "cfg.json", model=strong, kernel=kernel,
                        grid={"epsilon": 0.1, "n_steps": 1000},
                        output={"directory": str(out), "format": "csv"})
    assert _run(["evolve", "--config", cfg]) == 0
    _valid_evolve_states(out / "evolve.csv", 1000)


def test_evolve_strong_coupling(tmp_path):
    strong = {**_ZERO_COUPLING_MODEL,
              "coupling": [[[60.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-60.0, 0.0]]]}
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", model=strong,
                        output={"directory": str(out), "format": "csv"})
    assert _run(["evolve", "--config", cfg]) == 0
    header, rows = _read_csv(out / "evolve.csv")
    assert len(rows) == 8
    for row in rows:
        values = {name.split(" ")[0]: float(v) for name, v in zip(header, row) if v}
        assert values["rho_re_00"] + values["rho_re_11"] == pytest.approx(1.0, abs=1e-12)
        assert 0.5 <= values["purity"] <= 1.0 + 1e-12


def test_trajectory_record_length_mismatch(tmp_path, capsys):
    zfile = tmp_path / "z.txt"
    zfile.write_text("0.0\n0.0\n")
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["trajectory", "--config", cfg, "--z-file", str(zfile)]) == 1
    assert "record length" in capsys.readouterr().err


def test_trajectory_sampled_is_seed_reproducible(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = _write_config(tmp_path / f"cfg_{sub}.json",
                            output={"directory": str(out), "format": "csv"})
        assert _run(["trajectory", "--config", cfg, "--seed", "123"]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_ensemble_report_structure_and_determinism(tmp_path):
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = _write_config(tmp_path / f"cfg_{sub}.json",
                            sampling={"n_samples": 500, "seed": 77},
                            output={"directory": str(out), "format": "csv"})
        assert _run(["ensemble", "--config", cfg]) == 0
        payloads.append((out / "ensemble.json").read_bytes())
    assert payloads[0] == payloads[1]
    report = json.loads(payloads[0])
    assert report["n_samples"] == 500
    assert report["effective_sample_size"] > 10
    assert "within_3_se" in report["mean_readout"]
    rho = np.array([[complex(c[0], c[1]) for c in row] for row in report["rho"]])
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_ensemble_smoke_budget(tmp_path):
    import time
    cfg = _write_config(tmp_path / "cfg.json",
                        sampling={"n_samples": 100, "seed": 3},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    start = time.monotonic()
    assert _run(["ensemble", "--config", cfg]) == 0
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("schedule", ["zero-delay", "x-readout"])
def test_detector_schedules(tmp_path, schedule):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json",
                        grid={"epsilon": 0.1, "n_steps": 12},
                        schedule={"kind": schedule, "t": 0.8},
                        output={"directory": str(out), "format": "csv"})
    assert _run(["detector", "--config", cfg, "--seed", "5"]) == 0
    report = json.loads((out / "detector.json").read_text())
    assert report["schedule"] == schedule
    assert report["t"] == 0.8
    if schedule == "x-readout":
        assert report["purity"] < 1.0 - 1e-6
        assert report["record_kind"] == "pointer"
    else:
        assert report["purity"] == pytest.approx(1.0, abs=1e-10)
        assert report["record_kind"] == "readout"


def test_all_in_one_schedule_is_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json",
                        schedule={"kind": "all-in-one", "delay": 0.0},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["detector", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == "error: schedule.kind: expected one of zero-delay | delayed | x-readout\n"


def test_detector_delayed_schedule(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json",
                        schedule={"kind": "delayed", "delay": 0.2},
                        output={"directory": str(out), "format": "csv"})
    assert _run(["detector", "--config", cfg, "--seed", "5"]) == 0
    report = json.loads((out / "detector.json").read_text())
    assert report["delay"] == 0.2
    assert len(report["record"]) == 6
    assert report["purity"] < 1.0


def test_delay_checked_against_readout_time(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json",
                        schedule={"kind": "delayed", "delay": 0.5, "t": 0.3},
                        output={"directory": str(out), "format": "csv"})
    with pytest.raises(ConfigError, match="schedule.delay"):
        cli.load_config(cfg)
    assert _run(["detector", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: schedule.delay") and "Traceback" not in err
    cfg = _write_config(tmp_path / "cfg2.json",
                        schedule={"kind": "delayed", "delay": 0.2, "t": 0.5},
                        output={"directory": str(out), "format": "csv"})
    assert _run(["detector", "--config", cfg]) == 0
    assert len(json.loads((out / "detector.json").read_text())["record"]) == 3


@pytest.mark.parametrize("as_flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("n_steps", [3, 4, 6, 7])
def test_delay_of_the_whole_run_is_refused(tmp_path, capsys, n_steps, as_flag):
    # 0.1 * n_steps rounds above the decimal n_steps / 10 at 3, 6 and 7 steps,
    # so comparing times as floats let a delay of the whole run through there.
    delay = round(0.1 * n_steps, 6)
    schedule = {"kind": "delayed", "delay": 0.0 if as_flag else delay}
    cfg = _write_config(tmp_path / "cfg.json", grid={"epsilon": 0.1, "n_steps": n_steps},
                        schedule=schedule, output={"directory": str(tmp_path / "out")})
    argv = ["detector", "--config", cfg] + (["--delay", str(delay)] if as_flag else [])
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: schedule.delay") and "Traceback" not in err
    assert not (tmp_path / "out" / "detector.json").exists()


def test_cli_imports_no_scipy():
    # scipy is a test dependency only; importing scipy.linalg alone costs
    # about a third of a second, more than a whole worker set-up.
    code = "import sys, nmtraj.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(nt.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


def test_package_imports_only_its_runtime_dependencies():
    # Every import in the package names the standard library or a runtime
    # dependency of pyproject.toml; test-only packages such as scipy stay out.
    tomllib = pytest.importorskip("tomllib")
    package = Path(nt.__file__).resolve().parent
    with (package.parent.parent / "pyproject.toml").open("rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    allowed = set(sys.stdlib_module_names) | {re.match(r"[\w.-]+", d)[0] for d in dependencies}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


def test_singular_psd_kernel(tmp_path, capsys):
    # A constant tabulated kernel makes A rank one.  Records are still drawn
    # through the jittered factor; a conditioned state needs the density,
    # which does not exist, and fails with a typed error.
    cfg = _write_config(tmp_path / "cfg.json",
                        kernel={"kind": "tabulated", "samples": [[0.0, 1.0], [10.0, 1.0]]},
                        sampling={"n_samples": 500, "seed": 4},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["trajectory", "--config", cfg]) == 0
    assert _run(["ensemble", "--config", cfg]) == 0
    capsys.readouterr()
    assert _run(["detector", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: covariance is not positive definite\n"


def test_x_readout_on_zero_kernel(tmp_path, capsys):
    # A zero kernel's readout prior is singular, so there is no pointer
    # prior to sample from.
    cfg = _write_config(tmp_path / "cfg.json",
                        kernel={"kind": "tabulated", "samples": [[0.0, 0.0]]},
                        schedule={"kind": "x-readout", "delay": 0.0},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["detector", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == "error: covariance is not positive definite\n"
    assert "Traceback" not in err


def test_x_readout_of_16_steps_runs_on_rank_one_levels(tmp_path, capsys):
    # 16 read steps of a 20-step default-qubit exponential grid: 2^16
    # histories, whose 4^16 history pairs pass the pair budget; the unread
    # detectors couple them through a rank-one term, whose certified levels
    # take P (N + 1) work.
    import time
    cfg = _write_config(tmp_path / "cfg.json", grid={"epsilon": 0.1, "n_steps": 20},
                        schedule={"kind": "x-readout", "t": 1.6},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    start = time.monotonic()
    assert _run(["detector", "--config", cfg]) == 0
    assert time.monotonic() - start < 1.0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "detector.json").read_text())
    assert len(report["record"]) == 16 and 0.0 < report["purity"] < 1.0 - 1e-6


def test_ensemble_weights_out_of_float_range(tmp_path, capsys):
    # 120 steps at coupling 6 sigma_z: the weights sum to about 1e-280, and
    # their squares underflow to 0.
    model = {**_DEPHASING_MODEL,
             "hamiltonian": [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.7, 0.0]]],
             "coupling": [[[6.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-6.0, 0.0]]]}
    cfg = _write_config(tmp_path / "cfg.json", model=model,
                        grid={"epsilon": 0.1, "n_steps": 120},
                        sampling={"n_samples": 1000, "seed": 12345},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["ensemble", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: importance weights sum to")
    assert "out of the floating-point range" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "ensemble.json").exists()


@pytest.mark.parametrize("record_file, windows", [(False, [12, 4, 8]), (True, [4, 8])])
def test_x_readout_detector_factors_the_read_window_once(tmp_path, monkeypatch,
                                                        record_file, windows):
    # The sampler factors A; the state factors the 4 unread steps' block and
    # the Schur complement on the 8 read steps, and never A itself.
    made = []
    post_init = GaussianDensity.__post_init__

    def counting(self):
        made.append(len(self.window))
        post_init(self)

    monkeypatch.setattr(GaussianDensity, "__post_init__", counting)
    cfg = _write_config(tmp_path / "cfg.json",
                        grid={"epsilon": 0.1, "n_steps": 12},
                        schedule={"kind": "x-readout", "t": 0.8},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    argv = ["detector", "--config", cfg, "--seed", "5"]
    if record_file:
        xfile = tmp_path / "x.txt"
        xfile.write_text("0.1\n" * 8)
        argv += ["--record-file", str(xfile)]
    assert _run(argv) == 0
    assert made == windows


_NAN_HAMILTONIAN = {**_ZERO_COUPLING_MODEL,
                    "hamiltonian": [[[float("nan"), 0.0], [1.0, 0.0]],
                                    [[1.0, 0.0], [0.0, 0.0]]]}


@pytest.mark.parametrize("blocks, extra, field", [
    ({"kernel": {"kind": "tabulated", "samples": [["a", 1.0]]}}, [], "kernel.samples[0]"),
    ({"kernel": {"kind": "tabulated", "samples": [[None, 1.0]]}}, [], "kernel.samples[0]"),
    ({"kernel": {"kind": "exponential", "lambda": float("inf")}}, [], "kernel.lambda"),
    ({"grid": {"epsilon": float("inf"), "n_steps": 8}}, [], "grid.epsilon"),
    ({}, ["--schedule", "delayed", "--delay", "inf"], "schedule.delay"),
    ({"model": _NAN_HAMILTONIAN}, [], "model.hamiltonian[0][0]"),
    ({"kernel": {"kind": "exponential", "lambda": True}}, [], "kernel.lambda"),
    ({"grid": {"epsilon": 0.1, "n_steps": True}}, [], "grid.n_steps"),
    ({"sampling": {"n_samples": True, "seed": 1}}, [], "sampling.n_samples"),
    ({"sampling": {"n_samples": 100, "seed": True}}, [], "sampling.seed"),
    ({"grid": {"epsilon": 1e200, "n_steps": 8}}, [], "kernel"),
    ({"kernel": {"kind": "markov", "g": 1e200}}, [], "kernel"),
    ({"kernel": {"kind": "tabulated", "samples": [[0.0, 1e308]]}, "grid": {"epsilon": 10.0,
      "n_steps": 2}}, [], "kernel"),
], ids=["string-lag", "null-lag", "infinite-lambda", "infinite-epsilon", "infinite-delay",
        "nan-hamiltonian", "boolean-lambda", "boolean-steps", "boolean-samples",
        "boolean-seed", "overflowing-epsilon", "overflowing-markov-g",
        "overflowing-tabulated"])
def test_non_finite_config_numbers(tmp_path, capsys, blocks, extra, field):
    # json.loads accepts NaN and Infinity, and json.dumps writes them; true
    # and false are not numbers although Python's bool subclasses int.
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(tmp_path / "out"), "format": "csv"}, **blocks)
    assert _run(["detector", "--config", cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected ") and "Traceback" not in err


def _non_utf8_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"grid": {"epsilon": 0.1, "n_steps": 8}, "output": "\xff"}')
    return ["evolve", "--config", str(path)]


def _non_utf8_record(tmp_path):
    path = tmp_path / "record.txt"
    path.write_bytes(b"0.1\n\xfe\n")
    return ["detector", "--record-file", str(path), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("case", [
    ("sampling", [1], ["ensemble", "--seed", "3"]),
    ("output", "x", ["evolve", "--out", "OUT"]),
    ("schedule", None, ["detector", "--delay", "0.1"]),
    _non_utf8_config,
    _non_utf8_record,
], ids=["sampling-list", "output-string", "schedule-null", "non-utf8-config",
        "non-utf8-record"])
def test_malformed_inputs_are_config_errors(tmp_path, capsys, case):
    # A block that is not an object must fail validation before a flag
    # override writes into it, and an undecodable file is named.
    if callable(case):
        argv = case(tmp_path)
    else:
        block, value, argv = case
        blocks = {"output": {"directory": str(tmp_path / "out"), "format": "csv"}}
        blocks[block] = value
        cfg = _write_config(tmp_path / "cfg.json", **blocks)
        argv = [a.replace("OUT", str(tmp_path / "out")) for a in argv] + ["--config", cfg]
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if not callable(case):
        assert err.startswith(f"error: {case[0]}: expected an object")
    else:
        assert "is not UTF-8" in err and str(tmp_path) in err


@pytest.mark.parametrize("argv, status", [
    (["evolve"], 0),
    (["trajectory"], 1),
    (["ensemble", "--samples", "200"], 1),
    (["detector"], 0),
    (["detector", "--schedule", "x-readout"], 0),
], ids=["evolve", "trajectory", "ensemble", "detector", "detector-x-readout"])
def test_huge_kernel_rate_is_typed(tmp_path, capsys, argv, status):
    # Entries near 1e297 pass validation, but the path sums' exponents leave
    # the float range: a typed error or a valid state, and no RuntimeWarning
    # (which this suite turns into an exception) on the way.  The kernel
    # matrix is diagonal, so evolve takes the memory-window transfer, where
    # each step's coherence factor exp(-A_kk D^2 / 2) is exactly 0.  The
    # zero-delay detector sums every history into one pure group, whose
    # state needs no pair cross term.
    cfg = _write_config(tmp_path / "cfg.json", kernel={"kind": "exponential", "lambda": 1e300},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run([*argv, "--config", cfg]) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status:
        assert err.startswith("error: ")
    elif argv == ["evolve"]:
        header, rows = _read_csv(tmp_path / "out" / "evolve.csv")
        for row in rows:
            values = {name.split(" ")[0]: float(v) for name, v in zip(header, row) if v}
            assert values["rho_re_00"] + values["rho_re_11"] == pytest.approx(1.0, abs=1e-12)
            assert values["rho_re_01"] == values["rho_im_01"] == 0.0
            assert 0.5 <= values["purity"] <= 1.0 + 1e-12
    else:
        report = json.loads((tmp_path / "out" / "detector.json").read_text())
        assert 0.0 < report["purity"] <= 1.0 + 1e-12
        if argv == ["detector"]:
            assert report["purity"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("schedule", [{"kind": "zero-delay"}, {"kind": "delayed", "delay": 2.0}],
                         ids=["zero-delay", "delayed"])
def test_overflowing_histories_add_nothing(tmp_path, capsys, monkeypatch, schedule):
    # A qutrit coupling with a zero eigenvalue at a kernel rate near the float
    # limit on a unit grid: histories with enough nonzero steps have exponent
    # -inf (weight 0) while those mostly at the zero eigenvalue stay finite.
    # The -inf histories add nothing; the state is still a valid one.
    exponents = []
    conditional = chain._conditional

    def spy(paths, A_w, M, h, support):
        Xs = paths.eigenvalues[paths.histories]
        XA, XM = Xs @ A_w, Xs @ M
        exponents.append(-0.5 * np.einsum("pk,pk->p", Xs, XA + XM) + Xs @ h)
        return conditional(paths, A_w, M, h, support)

    monkeypatch.setattr(chain, "_conditional", spy)
    model = {"dim": 3,
             "hamiltonian": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                             [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                             [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
             "coupling": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]],
             "initial_state": [[0.6, 0.0], [0.0, 0.0], [0.8, 0.0]]}
    cfg = _write_config(tmp_path / "cfg.json", model=model,
                        kernel={"kind": "exponential", "lambda": 1e308},
                        grid={"epsilon": 1.0, "n_steps": 6}, schedule=schedule,
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["detector", "--config", cfg, "--seed", "3"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (e,) = exponents
    assert np.any(e == -np.inf) and np.any(np.isfinite(e)) and not np.any(np.isnan(e))
    report = json.loads((tmp_path / "out" / "detector.json").read_text())
    assert np.isfinite(report["log_weight"])
    assert 0.0 < report["purity"] <= 1.0 + 1e-12
    if schedule["kind"] == "zero-delay":
        assert report["purity"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("command", ["evolve", "trajectory", "ensemble", "detector", "verify"])
def test_kernel_budget_refuses_before_allocating(tmp_path, capsys, command):
    # A million steps would need a 7.3 TiB kernel matrix.
    import time
    cfg = _write_config(tmp_path / "cfg.json", grid={"epsilon": 0.1, "n_steps": 1_000_000},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    start = time.monotonic()
    assert _run([command, "--config", cfg]) == 1
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: a 1000000-step window needs ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["evolve", "detector"])
def test_pair_budget_refuses_before_the_pair_sum(tmp_path, capsys, command):
    # 16 noncommuting steps hold 2^16 paths, within the path budget; the
    # pair sums would evaluate 4^16 pair exponents in the last row alone.
    # At coupling 3 sigma_z no Taylor depth is certified, so evolve has no
    # other route.  Raw pointers read 16 steps of a 20-step grid; at
    # coupling 10 sigma_z no rank-one level depth is certified, and the
    # exponential kernel couples every read step to the unread ones, so
    # their pair sum keeps one group per history.
    import time
    strength = 3.0 if command == "evolve" else 10.0
    strong = {**_ZERO_COUPLING_MODEL, "coupling": [[[strength, 0.0], [0.0, 0.0]],
                                                   [[0.0, 0.0], [-strength, 0.0]]]}
    blocks = ({"grid": {"epsilon": 0.1, "n_steps": 16}} if command == "evolve" else
              {"grid": {"epsilon": 0.1, "n_steps": 20},
               "schedule": {"kind": "x-readout", "t": 1.6}})
    cfg = _write_config(tmp_path / "cfg.json", model=strong, **blocks,
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    start = time.monotonic()
    assert _run([command, "--config", cfg]) == 1
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "path pairs exceed the pair budget" in err
    assert "Traceback" not in err


def test_verify_surfaces_invalid_kernel(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json",
                        kernel={"kind": "tabulated",
                                "samples": [[0.0, 1.0], [0.1, -1.2], [0.2, 0.5]]},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["verify", "--config", cfg]) == 1
    assert "positive semidefinite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, seed", [
    ([], verify_mod.DEFAULT_VERIFY_SEED), (["--seed", "7"], 7)])
def test_verify_runs_at_its_default_seed(tmp_path, monkeypatch, argv, seed):
    # The config's sampling seed (12345 by default) is not the suite's.
    seeds = []

    def report(seed):
        seeds.append(seed)
        return {"criteria": [], "passed": True, "seed": seed}

    monkeypatch.setattr(verify_mod, "run_report", report)
    out = tmp_path / "out"
    assert _run(["verify", "--out", str(out), *argv]) == 0
    assert seeds == [seed]
    assert json.loads((out / "manifest.json").read_text())["seed"] == seed
    assert json.loads((out / "verify_report.json").read_text())["seed"] == seed


@pytest.mark.parametrize("argv", [
    ["evolve"], ["trajectory"], ["ensemble", "--samples", "100"], ["detector"],
    ["detector", "--schedule", "x-readout"], ["verify"], ["verify", "--config", "CFG"],
], ids=["evolve", "trajectory", "ensemble", "detector", "x-readout", "verify",
        "verify-config"])
def test_each_run_builds_its_kernel_matrix_once(tmp_path, monkeypatch, argv):
    calls = []

    def counting(kernel, grid):
        calls.append(grid)
        return nt.build_kernel_matrix(kernel, grid)

    monkeypatch.setattr(cli, "build_kernel_matrix", counting)
    monkeypatch.setattr(verify_mod, "run_report",
                        lambda seed: {"criteria": [], "passed": True, "seed": seed})
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    argv = [cfg if a == "CFG" else a for a in argv]
    assert _run([*argv, "--out", str(tmp_path / "out")]) == 0
    assert calls == [nt.TimeGrid(epsilon=0.1, n_steps=8)]


def test_manifest_written(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(out), "format": "csv"})
    assert _run(["evolve", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "evolve"
    assert "evolve.csv" in manifest["outputs"]
    assert len(manifest["config_sha256"]) == 64


def test_ensemble_sample_budget_refuses_before_allocating(tmp_path, capsys):
    # A trillion samples would keep 1e12 floats (one weight each), about
    # 7.3 TiB.
    import time
    start = time.monotonic()
    assert _run(["ensemble", "--samples", "1000000000000", "--out", str(tmp_path / "out")]) == 1
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "over the sample budget" in err
    assert "Traceback" not in err


def test_trajectory_record_round_trip(tmp_path):
    # The record file trajectory writes, header included, is a valid
    # --z-file and --record-file.
    out = tmp_path / "out"
    assert _run(["trajectory", "--seed", "11", "--out", str(out)]) == 0
    record = out / "trajectory_record.csv"
    assert record.read_text().startswith(cli.RECORD_HEADER + "\n")
    assert _run(["detector", "--record-file", str(record), "--out", str(tmp_path / "det")]) == 0
    report = json.loads((tmp_path / "det" / "detector.json").read_text())
    assert report["purity"] == pytest.approx(1.0, abs=1e-10)
    assert _detector_to_trajectory_distance(report, out / "trajectory.csv") <= 1e-10

    again = tmp_path / "again"
    assert _run(["trajectory", "--z-file", str(record), "--out", str(again)]) == 0
    assert (again / "trajectory.csv").read_bytes() == (out / "trajectory.csv").read_bytes()


def _detector_to_trajectory_distance(report, trajectory_csv):
    """Trace distance between a detector.json state and the final state of a
    trajectory.csv."""
    header, rows = _read_csv(trajectory_csv)
    psi = np.array([complex(float(rows[-1][header.index(f"psi_re_{i} (dimensionless)")]),
                            float(rows[-1][header.index(f"psi_im_{i} (dimensionless)")]))
                    for i in range(2)])
    rho = np.array([[complex(*c) for c in row] for row in report["rho"]])
    expected = nt.DensityOperator.from_state(psi)
    return nt.trace_distance(nt.DensityOperator(matrix=rho), expected)


def test_zero_delay_detector_past_the_pair_budget(tmp_path):
    # 16 noncommuting steps: 2^16 histories, whose 4^16 pairs pass the pair
    # budget; at delay 0 they form one group, and the state is pure.
    cfg = _write_config(tmp_path / "cfg.json", grid={"epsilon": 0.1, "n_steps": 16},
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    out = tmp_path / "out"
    assert _run(["trajectory", "--config", cfg, "--seed", "11"]) == 0
    assert _run(["detector", "--config", cfg, "--record-file", str(out / "trajectory_record.csv"),
                 "--out", str(tmp_path / "det")]) == 0
    report = json.loads((tmp_path / "det" / "detector.json").read_text())
    assert report["purity"] == pytest.approx(1.0, abs=1e-12)
    assert _detector_to_trajectory_distance(report, out / "trajectory.csv") <= 1e-10


def _readme_flags():
    """Each subcommand's flags as README's command-line block lists them."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    flags = {}
    for line in block.strip().splitlines():
        usage = line.split("#", 1)[0]
        if usage.startswith("nmtraj "):  # else a continuation of the previous line
            command = usage.split()[1]
            flags[command] = set()
        flags[command] |= set(re.findall(r"--[a-z][a-z-]*", usage))
    return flags


def test_readme_lists_each_subcommands_flags():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, cli.argparse._SubParsersAction))
    parsed = {name: {o for o in p._option_string_actions if o.startswith("--")} - {"--help"}
              for name, p in subparsers.choices.items()}
    assert _readme_flags() == parsed


def test_flags_a_subcommand_does_not_read_are_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["evolve", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_readme_error_table_names_each_exported_error():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = text.split("| error | raised when |", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    exported = {name for name, obj in vars(nt).items()
                if isinstance(obj, type) and issubclass(obj, nt.NmtrajError)
                and obj is not nt.NmtrajError}
    assert len(listed) == len(set(listed))
    assert set(listed) == exported
