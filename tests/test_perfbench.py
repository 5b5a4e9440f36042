"""The traced benchmark still finds every entry point it wraps."""

import json
import os
import subprocess
import sys
import textwrap
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


def test_traced_generate_records_splits_and_examples(tmp_path):
    """A traced ``flgen generate`` records one ``dataset.generate_split`` span
    per split and a ``dataset.generate_example`` span per draw, so a change
    to how cli and dataset call each other cannot leave those per-layer
    counters reading 0."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = textwrap.dedent("""\
        import json, sys, tracing, workloads
        from flgen import cli
        tracer = tracing.Tracer("t")
        tracing.install(tracer, workloads.REGULAR)
        rc = cli.main(["generate", "--language", "parity", "--seed", "3", "--annotate",
                       "--out", sys.argv[1], "--override", "train=6",
                       "--override", "val-short=2", "--override", "val-long=2:0:80",
                       "--override", "test-short=2", "--override", "test-long=3:0:60",
                       "--override", "editdist-probe=4:0:60"])
        names = [span[0] for span in tracer.spans]
        print(json.dumps([rc, names.count("dataset.generate_split"),
                          names.count("dataset.generate_example")]))
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, splits, examples = json.loads(proc.stdout.splitlines()[-1])
    assert (rc, splits) == (0, 6)
    assert examples >= 6 + 2 + 2 + 2 + 3 + 4  # at least one draw per record
