"""Each narrative demo runs to completion as its own process.

Demo 08 (the full experiment) is left out: it takes longer than the rest
together, and test_experiment.py covers run_experiment.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-7]_*.py"))


def test_demo_set():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = {**os.environ, "TMPDIR": str(tmp),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
    assert not list(tmp.iterdir())   # the demo removes the temporary files it makes
