"""Every script in demos/ runs to exit 0 against the current package.

Each runs from a copy of demos/ and scenarios/ in a temporary directory,
so the files a demo writes next to itself stay out of the checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bansim

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "contention_walkthrough.py",
        "efficiency_curves.py",
        "rate_table_walkthrough.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_the_demo_runs(demo, tmp_path):
    for folder in ("demos", "scenarios"):
        shutil.copytree(ROOT / folder, tmp_path / folder, ignore=shutil.ignore_patterns("__pycache__", "*.csv"))
    src = Path(bansim.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "demos" / demo.name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
