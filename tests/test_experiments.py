import gc
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nonlocal_sis import (
    ConfigError,
    SolverFailure,
    SolverInconsistency,
    experiments,
    infection_growth_rate,
    operators,
    parse_config,
    run_scenario,
    write_report,
)
from nonlocal_sis.cli import main as cli_main
from nonlocal_sis.experiments import load_config, make_config, run_verify_suite

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = ROOT / "demos" / "configs"

SPECTRAL_CONFIG = """
# the hand-checkable two-cell instance
scenario = spectral
seed = 7
domain.left = 0.0
domain.right = 1.0
grid.n = 2
kernel.family = tophat
kernel.h = 1.0
beta.family = constant
beta.value = 2.0
gamma.family = constant
gamma.value = 0.5
lambda.family = constant
lambda.value = 1.0
d_S = 1.0
d_I = 1.0
"""


def simulate_config(t_end=80.0):
    return SPECTRAL_CONFIG.replace("scenario = spectral",
                                   "scenario = simulate") + f"""
integrator.dt = 0.01
integrator.t_end = {t_end}
integrator.snapshot_stride = 50
init.s.family = constant
init.s.value = 2.0
init.i.family = constant
init.i.value = 0.1
"""


SWEEP_CONFIG = SPECTRAL_CONFIG.replace("scenario = spectral",
                                      "scenario = threshold_sweep") + """
sweep.lo = 0.1
sweep.hi = 10.0
sweep.count = 4
sweep.spacing = log
"""


class TestParseConfig:
    def test_minimal_spectral(self):
        config = parse_config(SPECTRAL_CONFIG)
        assert config.scenario == "spectral"
        assert config.seed == 7
        assert config.get("kernel.h") == 1.0

    def test_missing_kernel_names_key(self):
        text = "\n".join(line for line in SPECTRAL_CONFIG.splitlines()
                         if not line.startswith("kernel"))
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert "kernel" in str(info.value)

    def test_unknown_key_rejected(self):
        for key in ("mystery.key", "integrator.positivity_floor"):
            with pytest.raises(ConfigError) as info:
                parse_config(SPECTRAL_CONFIG + f"\n{key} = 5\n")
            assert key in str(info.value)

    def test_parse_error_carries_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config("scenario = spectral\nnot a key value line\n")
        assert info.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(SPECTRAL_CONFIG + "\nseed = 9\n")

    def test_table_length_checked(self, tmp_path):
        (tmp_path / "beta.csv").write_text("1.0\n2.0\n3.0\n")
        text = SPECTRAL_CONFIG.replace(
            "beta.family = constant\nbeta.value = 2.0",
            "beta.family = table\nbeta.path = beta.csv")
        with pytest.raises(ConfigError) as info:
            parse_config(text, base_dir=tmp_path)
        assert "beta" in str(info.value)

    @pytest.mark.parametrize("line, bad, key", [
        ("kernel.h = 1.0", "kernel.h = abc", "kernel.h"),
        ("grid.n = 2", "grid.n = abc", "grid.n"),
        ("beta.value = 2.0", "beta.value = abc", "beta.value"),
        ("d_S = 1.0", "d_S = abc", "d_S"),
        ("grid.n = 2", "grid.n = 2.7", "grid.n"),
        ("seed = 7", "seed = 7.5", "seed"),
        ("sweep.spacing = log", "sweep.spacing = cubic", "sweep.spacing"),
        ("sweep.lo = 0.1", "sweep.lo = 20.0", "sweep.lo"),
        ("sweep.lo = 0.1", "sweep.lo = 0.0", "sweep.lo"),
        ("sweep.lo = 0.1", "sweep.lo = nan", "sweep.lo"),
        ("sweep.hi = 10.0", "sweep.hi = nan", "sweep.hi"),
        ("sweep.count = 4", "sweep.count = 1", "sweep.count"),
    ])
    def test_bad_value_exits_two(self, tmp_path, line, bad, key):
        text = SWEEP_CONFIG.replace(line, bad)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.key == key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "report.json").exists()

    def test_values_typed_by_key(self):
        config = parse_config(SWEEP_CONFIG + "output.dir = 2024\n")
        assert config.get("output.dir") == "2024"
        assert config.get("sweep.count") == 4
        assert config.get("d_S") == 1.0
        entries = dict(config.entries, seed="7")
        with pytest.raises(ConfigError) as info:
            make_config(entries)
        assert info.value.key == "seed"

    def test_table_accepted_when_consistent(self, tmp_path):
        (tmp_path / "beta.csv").write_text("1.5\n2.5\n")
        text = SPECTRAL_CONFIG.replace(
            "beta.family = constant\nbeta.value = 2.0",
            "beta.family = table\nbeta.path = beta.csv")
        config = parse_config(text, base_dir=tmp_path)
        assert config.get("beta.path") == "beta.csv"


class TestScenarios:
    def test_spectral_hand_values(self):
        report = run_scenario(parse_config(SPECTRAL_CONFIG))
        assert report.ok
        spectral = report.outputs["spectral"]
        assert spectral["dispersal_eigenvalue"] == pytest.approx(0.5, abs=1e-10)
        assert spectral["growth_rate"] == pytest.approx(1.0, abs=1e-10)
        assert spectral["spectral_bound"] == pytest.approx(-1.0, abs=1e-10)
        assert spectral["r0"] == pytest.approx(2.0, abs=1e-8)

    def test_equilibrium_scenario(self):
        text = SPECTRAL_CONFIG.replace("scenario = spectral",
                                       "scenario = equilibrium")
        report = run_scenario(parse_config(text))
        assert report.ok
        np.testing.assert_allclose(report.outputs["disease_free"]["field"],
                                   [2.0, 2.0], atol=1e-10)
        np.testing.assert_allclose(report.outputs["endemic"]["infected"],
                                   [1.0, 1.0], atol=1e-8)

    def test_simulate_scenario_converges(self):
        report = run_scenario(parse_config(simulate_config()))
        assert report.ok
        conv = report.outputs["convergence"]
        assert conv["regime"] == "persistence"
        assert conv["entered_at"] is not None and conv["entered_at"] < 80.0

    def test_sweep_scenario(self):
        text = SPECTRAL_CONFIG.replace("scenario = spectral",
                                       "scenario = threshold_sweep") + """
sweep.lo = 0.1
sweep.hi = 10.0
sweep.count = 5
"""
        report = run_scenario(parse_config(text))
        assert report.ok
        assert report.outputs["threshold"]["d_critical"] == pytest.approx(
            3.0, abs=1e-5)
        assert len(report.outputs["rows"]) == 5
        # growth rates decrease along the sweep
        mus = [row["mu_p"] for row in report.outputs["rows"]]
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_sweep_without_threshold_reports_error(self):
        text = SPECTRAL_CONFIG.replace("scenario = spectral",
                                       "scenario = threshold_sweep")
        text = text.replace("beta.value = 2.0", "beta.value = 0.4") + """
sweep.lo = 0.1
sweep.hi = 10.0
sweep.count = 4
"""
        report = run_scenario(parse_config(text))
        assert not report.ok
        assert report.outputs["threshold"] is None
        assert report.errors == [report.outputs["threshold_error"]]
        assert report.errors[0].startswith("InvalidBracketError: ")
        assert len(report.outputs["rows"]) == 4

    def test_sweep_reports_threshold_outside_its_rates(self):
        # d* = 3 lies below the swept rates; it is reported all the same
        text = SWEEP_CONFIG.replace("sweep.lo = 0.1", "sweep.lo = 4")
        report = run_scenario(parse_config(text))
        assert report.ok, report.errors
        assert report.outputs["threshold"]["d_critical"] == pytest.approx(
            3.0, abs=1e-5)
        assert report.outputs["rows"][0]["d_I"] == 4.0

    def test_validation_failure_reported(self):
        text = SPECTRAL_CONFIG.replace("kernel.h = 1.0", "kernel.h = 0.5")
        text = text.replace("grid.n = 2", "grid.n = 1")
        report = run_scenario(parse_config(text))
        assert not report.ok
        assert any("dirichlet_leakage" in e for e in report.errors)

    def test_solver_failure_diagnostics_in_errors(self, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverFailure("monotone iteration hit the iteration cap",
                                residual=0.25, iterations=7)

        monkeypatch.setattr("nonlocal_sis.experiments.solve_endemic", fail)
        text = SPECTRAL_CONFIG.replace("scenario = spectral",
                                       "scenario = equilibrium")
        report = run_scenario(parse_config(text))
        assert not report.ok
        assert report.errors == [
            "SolverFailure: monotone iteration hit the iteration cap "
            "(residual=0.25, iterations=7)"]

    def test_solver_inconsistency_diagnostics_in_errors(self, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverInconsistency("direct disease-free solve leaves "
                                      "residual 5.000e-07",
                                      residual=5e-07, iterations=1)

        monkeypatch.setattr("nonlocal_sis.experiments.solve_disease_free", fail)
        text = SPECTRAL_CONFIG.replace("scenario = spectral",
                                       "scenario = equilibrium")
        report = run_scenario(parse_config(text))
        assert not report.ok
        assert report.errors == [
            "SolverInconsistency: direct disease-free solve leaves residual "
            "5.000e-07 (residual=5e-07, iterations=1)"]

    def test_integration_failure_diagnostics_in_errors(self, monkeypatch):
        # the first step takes 1 off every component: I = 0.1 dips to -0.9
        monkeypatch.setattr("nonlocal_sis.dynamics._step",
                            lambda y, dt, f, method: y - 1.0)
        report = run_scenario(parse_config(simulate_config()))
        assert not report.ok
        assert report.errors == [
            "IntegrationFailure: state dipped to -9.000e-01 at t=0.01 "
            f"(residual={0.1 - 1.0}, iterations=1)"]

    def test_failed_eigensolve_diagnostics_in_errors(self, two_cell_K, tmp_path,
                                                     monkeypatch):
        def failing_dsyevr(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.zeros((n, 1)), 0, np.zeros(2, int), 1

        monkeypatch.setattr("scipy.linalg.lapack.dsyevr", failing_dsyevr)
        with pytest.raises(SolverFailure, match="info=1") as info:
            infection_growth_rate(two_cell_K, 1.0, np.zeros(2))
        assert (info.value.residual, info.value.iterations) == (None, 1)
        report = run_scenario(parse_config(SPECTRAL_CONFIG))
        assert report.status == "error"
        assert report.errors == [
            "SolverFailure: dsyevr failed with info=1 (residual=None, iterations=1)"]
        config = str(DEMO_CONFIGS / "spectral_two_cell.cfg")
        assert cli_main(["--config", config, "--out-dir", str(tmp_path)]) == 1
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["errors"] == report.errors

    def test_failed_verify_properties_reported(self, monkeypatch):
        monkeypatch.setattr(experiments, "run_verify_suite",
                            lambda *args: {"failed": 2})
        report = run_scenario(parse_config("scenario = verify\n"))
        assert not report.ok
        assert report.errors == ["2 verify properties failed"]

    @pytest.mark.parametrize("scenario", ["equilibrium", "simulate"])
    def test_one_assembly_per_scenario(self, scenario, monkeypatch):
        # validation reads its row masses off the instance's cached K
        calls = []
        assemble = operators.assemble_dispersal

        def counted(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(operators, "assemble_dispersal", counted)
        monkeypatch.setattr("nonlocal_sis.experiments.assemble_dispersal", counted)
        text = simulate_config(t_end=2.0).replace("scenario = simulate",
                                                  f"scenario = {scenario}")
        report = run_scenario(parse_config(text))
        assert report.ok, report.errors
        assert report.validation["passed"]
        assert len(calls) == 1

    @pytest.mark.parametrize("line, bad", [
        ("integrator.dt = 0.01", "integrator.dt = nan"),
        ("integrator.t_end = 80.0", "integrator.t_end = inf")])
    def test_nonfinite_integrator_setting_reported(self, tmp_path, capsys, line,
                                                   bad):
        # refused before anything runs, with the integrator's own message
        message = "dt and t_end must be finite and positive"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(simulate_config().replace(line, bad))
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.key == bad.split(" = ")[0]
        assert str(info.value).startswith(message)
        assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("bad, key", [
        ("verify.instances = -5", "verify.instances"),
        ("verify.instances = 0", "verify.instances"),
        ("verify.n_max = 7", "verify.n_max"),
    ])
    def test_verify_that_checks_nothing_exits_two(self, tmp_path, bad, key):
        text = f"scenario = verify\nseed = 7\n{bad}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.key == key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_verify_scenario_small(self):
        text = "scenario = verify\nseed = 7\nverify.instances = 8\n"
        report = run_scenario(parse_config(text))
        assert report.ok
        assert report.outputs["passed"] == 8
        assert report.outputs["by_check"]["sign_consistency"] == 8


class TestReports:
    def test_spectral_report_files(self, tmp_path):
        report = run_scenario(parse_config(SPECTRAL_CONFIG))
        paths = write_report(report, tmp_path)
        assert [p.name for p in paths] == ["report.json"]
        loaded = json.loads(paths[0].read_text())
        assert loaded["status"] == "ok"
        assert loaded["tool"] == "nonlocal-sis"

    def test_simulate_report_files(self, tmp_path):
        report = run_scenario(parse_config(simulate_config(t_end=5.0)))
        paths = write_report(report, tmp_path)
        names = [p.name for p in paths]
        assert names == ["report.json", "trajectory.csv", "norms.csv"]
        headers = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert headers.split(",")[0] == "t"
        norms = (tmp_path / "norms.csv").read_text()
        assert norms.splitlines()[0] == "t,sup_norm_I,sup_norm_S_minus_target"
        assert "\r" not in norms

    def test_sweep_csv_dialect(self, tmp_path):
        text = SPECTRAL_CONFIG.replace("scenario = spectral",
                                       "scenario = threshold_sweep") + """
sweep.lo = 0.1
sweep.hi = 10.0
sweep.count = 4
"""
        report = run_scenario(parse_config(text))
        paths = write_report(report, tmp_path)
        sweep = [p for p in paths if p.name == "sweep.csv"][0]
        lines = sweep.read_text().splitlines()
        assert lines[0] == "d_I,mu_p,r0"
        assert len(lines) == 5

    def test_csv_cells_round_trip(self, tmp_path):
        report = run_scenario(parse_config(simulate_config(t_end=1.0)))
        write_report(report, tmp_path / "sim")
        traj, _ = report.outputs["_trajectory_obj"]
        expected = [[t] + list(s.S) + list(s.I)
                    for t, s in zip(traj.times, traj.snapshots)]
        assert self._cells(tmp_path / "sim" / "trajectory.csv") == [
            [repr(float(v)) for v in row] for row in expected]
        norms = zip(traj.times, traj.sup_norm_I, traj.sup_norm_S_minus_target)
        assert self._cells(tmp_path / "sim" / "norms.csv") == [
            [repr(float(v)) for v in row] for row in norms]

        text = SPECTRAL_CONFIG.replace("scenario = spectral",
                                       "scenario = threshold_sweep") + """
sweep.lo = 0.1
sweep.hi = 10.0
sweep.count = 3
"""
        report = run_scenario(parse_config(text))
        write_report(report, tmp_path / "sweep")
        assert self._cells(tmp_path / "sweep" / "sweep.csv") == [
            [repr(float(row[k])) for k in ("d_I", "mu_p", "r0")]
            for row in report.outputs["rows"]]

    @staticmethod
    def _cells(path):
        """Data rows of a CSV file as lists of cell strings."""
        return [line.split(",") for line in path.read_text().splitlines()[1:]]

    def test_different_seeds_differ(self):
        a = run_verify_suite(seed=1, instances=4)
        b = run_verify_suite(seed=2, instances=4)
        assert a != b


class TestCli:
    def test_end_to_end_spectral(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SPECTRAL_CONFIG)
        code = cli_main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_scenario_and_seed_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SPECTRAL_CONFIG + "\nverify.instances = 4\n")
        code = cli_main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                         "--scenario", "verify", "--seed", "3"])
        assert code == 0
        loaded = json.loads((tmp_path / "out" / "report.json").read_text())
        assert loaded["scenario"] == "verify"
        assert loaded["outputs"]["seed"] == 3

    def test_failing_scenario_exits_nonzero(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SPECTRAL_CONFIG.replace("gamma.value = 0.5",
                                               "gamma.value = 2.0"))
        # growth rate negative: equilibrium scenario has no endemic state,
        # spectral still fine; force an error with a broken validation
        cfg.write_text(SPECTRAL_CONFIG.replace("kernel.h = 1.0",
                                               "kernel.h = 0.5")
                       .replace("grid.n = 2", "grid.n = 1"))
        code = cli_main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 1

    def test_bad_config_exits_two(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("scenario = spectral\nmystery = 1\n")
        code = cli_main(["--config", str(cfg)])
        assert code == 2

    def test_non_numeric_table_exits_two(self, tmp_path, capsys):
        (tmp_path / "beta.csv").write_text("1.5\noops\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SPECTRAL_CONFIG.replace(
            "beta.family = constant\nbeta.value = 2.0",
            "beta.family = table\nbeta.path = beta.csv"))
        assert cli_main(["--config", str(cfg)]) == 2
        assert "non-numeric entry" in capsys.readouterr().err
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.key == "beta.path"

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(SPECTRAL_CONFIG.encode() + "# café\n".encode("latin-1"))
        assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "run.cfg is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_table_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        (tmp_path / "beta.csv").write_bytes("1.5\n2.5 # café\n".encode("latin-1"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SPECTRAL_CONFIG.replace(
            "beta.family = constant\nbeta.value = 2.0",
            "beta.family = table\nbeta.path = beta.csv"))
        assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "beta.csv is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.key == "beta.path"

    def test_out_dir_that_is_a_file_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SPECTRAL_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli_main(["--config", str(cfg), "--out-dir", str(taken)]) == 2
        assert "failed to write report" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = cli_main(["--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    @pytest.mark.parametrize("line, key, message", [
        ("init.i.value = -0.5", "init.i", "'init.i' must be finite and nonnegative"),
        ("init.s.value = -2.0", "init.s", "'init.s' must be finite and nonnegative"),
        ("init.s.value = inf", "init.s", "'init.s' must be finite and nonnegative"),
        ("init.i.value = 0.0", "init.i", "positive initial infected mass"),
    ])
    def test_bad_initial_data_exits_two_naming_its_key(self, tmp_path, capsys,
                                                       line, key, message):
        demo = DEMO_CONFIGS / "simulate_persistence.cfg"
        prefix = line.split(" = ")[0]
        text = "".join(line + "\n" if row.startswith(prefix + " ") else row
                       for row in demo.read_text().splitlines(keepends=True))
        assert line in text
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.key == key


def test_load_config_resolves_tables_relative_to_file(tmp_path):
    (tmp_path / "beta.csv").write_text("1.5\n2.5\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SPECTRAL_CONFIG.replace(
        "beta.family = constant\nbeta.value = 2.0",
        "beta.family = table\nbeta.path = beta.csv"))
    config = load_config(cfg)
    report = run_scenario(config)
    assert report.ok


PERSISTENCE_N64 = """
scenario = simulate
domain.left = 0.0
domain.right = 1.0
grid.n = 64
kernel.family = triangle
kernel.h = 0.5
beta.family = bump
beta.base = 1.0
beta.amp = 3.0
beta.center = 0.5
beta.width = 0.2
gamma.family = constant
gamma.value = 0.9
lambda.family = constant
lambda.value = 1.0
d_S = 1.0
d_I = 1.0
integrator.dt = 0.05
integrator.t_end = 80.0
integrator.snapshot_stride = 10
init.s.family = constant
init.s.value = 1.0
init.i.family = constant
init.i.value = 0.1
"""


def test_simulate_result_retains_little_beyond_its_snapshots():
    # the recorded states are one stacked array: a kept result costs little
    # more than the snapshot data itself
    config = parse_config(PERSISTENCE_N64)
    run_scenario(config)  # first run pays for lazy imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_scenario(config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert report.outputs["convergence"]["regime"] == "persistence"
    traj, nodes = report.outputs["_trajectory_obj"]
    snapshot_bytes = traj.times.size * 2 * len(nodes) * 8
    assert retained <= 1.2 * snapshot_bytes


def with_values(text, values):
    """``text`` with each key of ``values`` set to its value: a line that
    sets the key is replaced, a missing key is appended, and a key whose
    value is None is dropped."""
    rows = [row for row in text.splitlines() if row.split(" = ")[0] not in values]
    rows += [f"{key} = {value}" for key, value in values.items() if value is not None]
    return "\n".join(rows) + "\n"


# None of these was refused before anything ran: the integrator, kernel, field,
# domain, grid, rate and sweep cases exited 1 with an error report, a negative
# verify seed with a traceback, and the rest ran to status ok.
NEVER_RUNNABLE = [
    pytest.param({"integrator.method": "rk5"}, "integrator.method",
                 "unknown method 'rk5'", id="method"),
    pytest.param({"integrator.dt": 0.06, "integrator.t_end": 1.0}, "integrator.t_end",
                 "t_end must be a whole number (>= 1) of steps dt", id="t_end"),
    pytest.param({"integrator.dt": 0.5}, "integrator.dt",
                 "stability budget violated", id="dt-budget"),
    pytest.param({"integrator.snapshot_stride": 0}, "integrator.snapshot_stride",
                 "snapshot_stride must be an integer >= 1", id="stride"),
    pytest.param({"beta.value": 0.0}, "beta",
                 "coefficient field beta must be finite and strictly positive",
                 id="beta-zero"),
    pytest.param({"beta.family": "bump", "beta.value": None, "beta.base": 1.0,
                  "beta.amp": -2.0, "beta.center": 0.5, "beta.width": 1.0}, "beta",
                 "coefficient field beta must be finite and strictly positive",
                 id="beta-bump"),
    pytest.param({"gamma.family": "bump", "gamma.value": None, "gamma.base": 1.0,
                  "gamma.amp": 1.0, "gamma.center": 0.5, "gamma.width": 0.0}, "gamma",
                 "bump width must be positive", id="gamma-width"),
    pytest.param({"kernel.h": 0.0}, "kernel.h", "tophat kernel needs finite h > 0",
                 id="h-zero"),
    pytest.param({"kernel.h": -0.5}, "kernel.h", "tophat kernel needs finite h > 0",
                 id="h-negative"),
    pytest.param({"kernel.family": "truncated_gaussian", "kernel.h": None,
                  "kernel.sigma": 0.2, "kernel.cutoff": -1.0}, "kernel.cutoff",
                 "truncated_gaussian needs finite cutoff > 0", id="cutoff"),
    pytest.param({"domain.right": 0.0}, "domain.right",
                 "domain must be finite with right (0.0) > left (0.0)", id="domain"),
    pytest.param({"domain.left": "-inf"}, "domain.left",
                 "domain must be finite with right (1.0) > left (-inf)",
                 id="domain-left"),
    pytest.param({"grid.n": 0}, "grid.n", "grid needs at least one cell", id="grid"),
    pytest.param({"d_S": 0.0}, "d_S", "dispersal rates must be finite and positive",
                 id="d_S"),
    pytest.param({"d_I": "inf"}, "d_I", "dispersal rates must be finite and positive",
                 id="d_I"),
    pytest.param({"scenario": "threshold_sweep", "sweep.lo": 0.1, "sweep.hi": "inf",
                  "sweep.count": 4}, "sweep.hi",
                 "sweep needs finite 0 < lo < hi and count >= 2", id="sweep-hi"),
    pytest.param({"scenario": "verify", "seed": -3, "verify.instances": 2}, "seed",
                 "seed must be >= 0, got -3", id="seed-verify"),
    pytest.param({"seed": -3}, "seed", "seed must be >= 0, got -3", id="seed-simulate"),
    *(pytest.param({"simulate.tol": tol}, "simulate.tol",
                   "simulate.tol must be finite and > 0", id=f"tol-{tol}")
      for tol in ("-1.0", "0.0", "inf", "nan")),
]


# Refused before anything ran, but reached by no other test.
CONFIG_FAULTS = [
    pytest.param({"d_S": ""}, None, "empty key or value", id="empty-value"),
    pytest.param({"scenario": None}, "scenario", "missing required key 'scenario'",
                 id="no-scenario"),
    pytest.param({"scenario": "forecast"}, "scenario", "unknown scenario 'forecast'",
                 id="unknown-scenario"),
    pytest.param({"kernel.family": "cosine"}, "kernel.family",
                 "unknown kernel family 'cosine'", id="kernel-family"),
    pytest.param({"beta.family": "table", "beta.value": None,
                  "beta.path": "absent.csv"}, "beta.path",
                 "table for 'beta' not found", id="missing-table"),
]


@pytest.mark.parametrize("values, key, message", NEVER_RUNNABLE + CONFIG_FAULTS)
def test_config_that_can_never_run_exits_two(tmp_path, capsys, values, key, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_values(
        (DEMO_CONFIGS / "simulate_persistence.cfg").read_text(), values))
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert info.value.key == key
    assert message in str(info.value)
    assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_negative_seed_override_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = verify\nseed = 3\nverify.instances = 2\n")
    assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path),
                     "--seed", "-3"]) == 2
    assert "seed must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_table_read_once_per_parse_and_run(tmp_path, monkeypatch):
    (tmp_path / "beta.csv").write_text("1.5\n2.5\n")
    reads = []
    load = experiments.load_coefficient_table

    def counted(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(experiments, "load_coefficient_table", counted)
    text = SPECTRAL_CONFIG.replace(
        "beta.family = constant\nbeta.value = 2.0",
        "beta.family = table\nbeta.path = beta.csv")
    report = run_scenario(parse_config(text, base_dir=tmp_path))
    assert report.ok, report.errors
    assert len(reads) == 1


@pytest.mark.parametrize("overrides", [[], ["--seed", "3"],
                                       ["--scenario", "equilibrium", "--seed", "3"]],
                         ids=["none", "seed", "scenario-seed"])
def test_cli_builds_config_once(tmp_path, monkeypatch, overrides):
    # an override edits the parsed entries, so the file's own scenario is
    # not built first
    (tmp_path / "beta.csv").write_text("1.5\n2.5\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SPECTRAL_CONFIG.replace(
        "beta.family = constant\nbeta.value = 2.0",
        "beta.family = table\nbeta.path = beta.csv"))
    builds, reads = [], []
    make, load = experiments.make_config, experiments.load_coefficient_table

    def counted_make(*args):
        builds.append(args)
        return make(*args)

    def counted_load(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(experiments, "make_config", counted_make)
    monkeypatch.setattr("nonlocal_sis.cli.make_config", counted_make)
    monkeypatch.setattr(experiments, "load_coefficient_table", counted_load)
    assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                     *overrides]) == 0
    assert len(builds) == 1
    assert len(reads) == 1


def test_scenario_override_needs_only_its_own_keys(tmp_path):
    # the simulate demo without its initial infected data cannot simulate,
    # but its instance is all that the spectral scenario needs
    demo = (DEMO_CONFIGS / "simulate_persistence.cfg").read_text()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(row for row in demo.splitlines(keepends=True)
                           if not row.startswith("init.i.")))
    assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "report.json").exists()
    assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path),
                     "--scenario", "spectral"]) == 0
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["scenario"] == "spectral"
    assert loaded["status"] == "ok"


@pytest.mark.parametrize("demo, line", [
    ("spectral_two_cell", "beta.amp = 3"),
    ("spectral_two_cell", "kernel.sigma = 0.3"),
    ("threshold_sweep", "kernel.cutoff = 0.5"),
    ("threshold_sweep", "beta.value = 1.0"),
    ("simulate_persistence", "init.i.c1 = 0.5"),
])
def test_key_of_another_family_exits_two(tmp_path, capsys, demo, line):
    # a parameter the chosen family does not take would be silently ignored
    key = line.split(" = ")[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text((DEMO_CONFIGS / f"{demo}.cfg").read_text() + line + "\n")
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert info.value.key == key
    assert cli_main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_key_of_another_family_is_checked_only_where_built():
    # verify draws its own instances, and spectral builds no initial data
    entries = parse_config(SPECTRAL_CONFIG).entries
    stray = {**entries, "beta.amp": 3.0, "init.i.family": "constant",
             "init.i.value": 0.1, "init.i.width": 0.2}
    with pytest.raises(ConfigError):
        make_config(stray)
    verify = make_config({**stray, "scenario": "verify", "verify.instances": 2})
    assert verify.instance is None
    del stray["beta.amp"]
    assert make_config(stray).instance is not None


@pytest.mark.parametrize("text", [
    (DEMO_CONFIGS / "simulate_persistence.cfg").read_text(),
    "scenario = verify\nseed = 7\nverify.instances = 2\nverify.n_max = 16\n",
], ids=["simulate", "verify"])
def test_benchmark_setup_probe_runs(text):
    # the benchmark times the CLI's set-up through this script, which
    # builds the instance with the runner's private _build_instance
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "setup_probe.py"), str(ROOT / "src")],
        input=text, text=True, capture_output=True, cwd=ROOT, timeout=120,
        check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    assert probe["passed"] is True
