import json

import numpy as np
import pytest

import nmtraj as nt
from nmtraj import chain, cli
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


def test_evolve_walks_the_path_tree_once(tmp_path, monkeypatch):
    walks = []
    walk = chain._walk_paths

    def counting(*args, **kwargs):
        walks.append(args[2])
        return walk(*args, **kwargs)

    monkeypatch.setattr(chain, "_walk_paths", counting)
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(tmp_path / "out"), "format": "csv"})
    assert _run(["evolve", "--config", cfg]) == 0
    assert walks == [8]
    _, rows = _read_csv(tmp_path / "out" / "evolve.csv")
    assert len(rows) == 8


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


@pytest.mark.parametrize("record_file, windows", [(False, [12, 12, 8]), (True, [12, 8])])
def test_x_readout_detector_factors_the_read_window_once(tmp_path, monkeypatch,
                                                        record_file, windows):
    # The sampler and pointer_prior each factor A; the pointer prior is then
    # built and factored on the read window only.
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
], ids=["string-lag", "null-lag", "infinite-lambda", "infinite-epsilon", "infinite-delay",
        "nan-hamiltonian", "boolean-lambda", "boolean-steps", "boolean-samples",
        "boolean-seed"])
def test_non_finite_config_numbers(tmp_path, capsys, blocks, extra, field):
    # json.loads accepts NaN and Infinity, and json.dumps writes them; true
    # and false are not numbers although Python's bool subclasses int.
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(tmp_path / "out"), "format": "csv"}, **blocks)
    assert _run(["detector", "--config", cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected ") and "Traceback" not in err


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
    import time
    cfg = _write_config(tmp_path / "cfg.json", grid={"epsilon": 0.1, "n_steps": 16},
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


def test_manifest_written(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json",
                        output={"directory": str(out), "format": "csv"})
    assert _run(["evolve", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "evolve"
    assert "evolve.csv" in manifest["outputs"]
    assert len(manifest["config_sha256"]) == 64
