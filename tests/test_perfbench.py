"""The traced benchmark still finds every entry point it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracing_installs_against_src():
    """``tracing.install`` rebinds names in flgen's modules; a renamed or
    removed one fails here rather than in ``perfbench/run.py --trace 1``.
    It runs in a child process because the rebinding lasts for the process."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = "import tracing, workloads; tracing.install(tracing.Tracer('t'), workloads.REGULAR)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
