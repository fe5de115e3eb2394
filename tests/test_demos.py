"""Every narrative demo runs to the end against the package under test.

Demos call the public API the README describes, so one that still uses a
deleted or renamed name fails here rather than in a reader's hands.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import module_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9]*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    env = module_env("0")
    env["TMPDIR"] = str(tmp_path)  # demo 08 writes its files under a temp dir
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not list(tmp_path.glob("tropkern-demo-*"))  # temp files removed
