"""Every demo script and both of the README's quick starts run to completion
against the package sources."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from warning_flags import FILTERS, WARNING_FLAGS

from qforage import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demo scripts found"


def test_warning_filters_are_found():
    assert FILTERS, "no filterwarnings entries found in pyproject.toml"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *WARNING_FLAGS, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # The block writes checkpoint.txt into the working directory.
    (code,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "checkpoint.txt").exists()
    assert capsys.readouterr().out


def test_readme_command_line_quick_start_runs(tmp_path, monkeypatch):
    # The commands write into run/ under the working directory.
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("qforage ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
