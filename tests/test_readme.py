"""README's quick start runs as written against the package in src/."""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", block],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    final_state = [float(v) for v in run.stdout.splitlines()[0].strip("[]").split()]
    assert np.allclose(final_state, [2.0 / 3.0, 4.0 / 3.0], rtol=0.0, atol=1e-6)
