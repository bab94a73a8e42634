"""Every demo script and every shipped config runs to a zero exit status,
and every scenario writes the same files in any interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonlocal_sis import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.cfg"))


def _env(**extra):
    """This environment and ``extra``, with the source tree first on the path."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_script_runs(script, tmp_path):
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_demo_config_runs(config, tmp_path):
    assert cli.main(["--config", str(config), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").is_file()


@pytest.mark.parametrize("args", [
    ["spectral_two_cell.cfg"],
    ["threshold_sweep.cfg"],
    ["simulate_persistence.cfg"],
    ["simulate_persistence.cfg", "--scenario", "equilibrium"],
    ["verify.cfg"],
], ids=" ".join)
def test_reports_are_byte_stable(args, tmp_path):
    # for a fixed config and seed, everything a run writes but the report's
    # timing is byte-identical; two fresh interpreters with different hash
    # seeds would expose output that depends on the process
    config, *rest = args
    runs = [tmp_path / f"hashseed-{seed}" for seed in (1, 2)]
    for seed, out in enumerate(runs, start=1):
        proc = subprocess.run(
            [sys.executable, "-m", "nonlocal_sis.cli", "--config",
             str(ROOT / "demos" / "configs" / config), "--out-dir", str(out), *rest],
            cwd=tmp_path, env=_env(PYTHONHASHSEED=str(seed)), capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    names = sorted(path.name for path in runs[0].iterdir())
    assert "report.json" in names
    assert sorted(path.name for path in runs[1].iterdir()) == names
    for name in names:
        first, second = (out / name for out in runs)
        if name == "report.json":
            first, second = (json.loads(path.read_text()) for path in (first, second))
            first.pop("timing")
            second.pop("timing")
            assert json.dumps(first) == json.dumps(second)
        else:
            assert first.read_bytes() == second.read_bytes(), name
