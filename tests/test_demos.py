"""Every demo script and every shipped config runs to a zero exit status."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonlocal_sis import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.cfg"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_demo_config_runs(config, tmp_path):
    assert cli.main(["--config", str(config), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").is_file()
