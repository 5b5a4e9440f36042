"""One benchmark pass in a fresh interpreter: set-up, then repetitions of
the workload's flgen commands, each command timed; traced when the job asks
for it.  After ``min_reps`` repetitions, another one starts only if it
should end before the job's ``deadline`` (a ``time.monotonic`` reading,
which every process on the machine shares), and none past ``max_reps``.

Between commands, and between the steps of set-up, the pass times a fixed
loop of Python work, the reference.  The host's other tenants slow this
machine by up to a half, in spells that last from a fraction of a second
to minutes, and they slow the reference and the work beside it alike;
``run.py`` scales each command and step by the reference around it.

Usage: python3 perfbench/worker.py JOB.json  (written by run.py).  Writes
the pass result next to the job file, and the spans when traced.
"""

from __future__ import annotations

import contextlib
import heapq
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# what the reference loop of each workload kind is taken to cost, about
# its cost on an idle host; times are reported as at the machine speed
# where the loop takes this long
REFERENCE_S = {"generate": 2e-3, "editdist": 2.5e-3}
_REFERENCE_RECORDS = [{"text": "ab" * k, "label": k % 2, "next": [[1, 0]] * k}
                      for k in range(40)]


def reference_s(kind: str) -> float:
    """Seconds the reference loop of workload kind ``kind`` takes now.

    Contention slows each kind of work by its own share, so the loop does
    the kinds of work the workload's commands do: interpreted arithmetic,
    then JSON records for suites, or JSON records and tuple-keyed dicts with
    a heap, as in edit distance, for probes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000 if kind == "generate" else 10_000):
        acc += i * i % 7
    for _ in range(2):
        json.loads(json.dumps(_REFERENCE_RECORDS))
    if kind == "editdist":
        heap, arcs = [], {}
        for i in range(1_000):
            heapq.heappush(heap, (i * 7919 % 1000, i))
            arcs[i, i % 13] = i
        while heap:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])

    # set-up in steps, each timed and scaled like a command: the import of
    # flgen (numpy's included), then building the languages and tables
    # the reference loop runs before flgen's import, which it does not use
    kind = job["kind"]
    steps = []
    before = reference_s(kind)

    def step(build, *args):
        nonlocal before
        t0 = time.perf_counter()
        build(*args)
        seconds = time.perf_counter() - t0
        after = reference_s(kind)
        steps.append({"seconds": seconds, "reference_s": (before + after) / 2})
        before = after

    step(importlib.import_module, "flgen.cli")
    import flgen.cli
    import flgen.langlib
    import workloads

    workload = workloads.WORKLOADS[job["workload"]]

    tracer = None
    if job["traced"]:
        import tracing

        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer, workload.languages)

    for name in workload.languages:
        step(flgen.langlib.get_language, name)
    if workload.kind == "generate":
        ranges = sorted({(lo, hi) for _count, lo, hi in workload.counts().values()})
        for name in workload.languages:
            for lo, hi in ranges:
                step(flgen.langlib.get_language(name).sampler_tables, lo, hi)
    result = {"setup_steps": steps}
    if job["setup_only"]:
        Path(job["result"]).write_text(json.dumps(result))
        return

    cli_main = flgen.cli.main
    if tracer is not None:
        cli_main = tracer.wrap("cli.main", cli_main)
    reps = []
    while len(reps) < job["max_reps"]:
        begun = time.monotonic()
        commands = []
        before = reference_s(kind)
        for cmd_kind, lang, ops, argv in workloads.commands(
            workload, job["seed"], len(reps), job["out_dir"], job["probe_dir"]
        ):
            stdout = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                rc = cli_main(argv)
            seconds = time.perf_counter() - t0
            after = reference_s(kind)
            commands.append({"kind": cmd_kind, "language": lang, "ops": ops, "rc": rc,
                             "seconds": seconds, "reference_s": (before + after) / 2,
                             "stdout": stdout.getvalue()})
            before = after
        reps.append(commands)
        last = time.monotonic() - begun
        if len(reps) >= job["min_reps"] and time.monotonic() + last > job["deadline"]:
            break

    result["reps"] = reps
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.save(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
