"""flgen benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload regular-annotated --seed 1 \\
        --seconds 55 --trace 0

A run is made of passes (see ``workloads.py``).  Each pass is a fresh
interpreter, run one at a time with numpy/BLAS pinned to one thread, so
langlib's language and sampler-table caches start cold exactly as they do
for every ``flgen`` invocation.  A pass times its set-up, then repeats the
workload's short commands, timing each one.

With ``--trace 0`` a run first makes set-up-only passes (up to
``SETUP_SAMPLES - 1`` of them, within ``SETUP_SHARE`` of ``--seconds``),
then one measured pass that repeats the commands until ``--seconds`` is
nearly spent.  Each set-up step and command is timed between two runs of
a reference loop, and its time is scaled by them (see ``worker.py``), so
that the metrics read alike whether the shared host is busy or idle.
``setup_s`` is the median scaled set-up.  A repetition's rate is its work
over the scaled time of its commands, and ``ops_per_s`` is the median
rate.  ``raw_setup_s`` and ``raw_ops_per_s`` are the same, unscaled.  With
``--trace 1`` the passes alternate untraced and traced, each with
``TRACE_REPS`` repetitions, while another one fits in ``--seconds``: the
untraced ones give the per-command rates and the time against which
``trace.overhead_ratio`` is taken, the traced ones the layer metrics.

Every pass must write the same bytes (``output_sha256``), traced or not.
The outputs are checked outside the timed region: every ``flgen generate``
exits 0, every ``flgen validate`` passes, every file left has the requested
shape, and every edit-distance answer is re-checked with the benchmark's
own Levenshtein.  A failure counts against ``error_rate`` and makes the run
exit 1.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that ``BENCHMARK.json`` lists for
the mode; everything above it is a readable report, including the
environment.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere, here or in a pass
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# set-up samples per untraced run, the measured pass's included, and the
# share of the run that set-up-only passes may take
SETUP_SAMPLES = 5
SETUP_SHARE = 0.3
# what the measured pass leaves of the run for the checks and the report
CHECK_RESERVE_S = 3.0
MAX_REPS = 1000
# repetitions per pass of a traced run, so traced and untraced passes do
# the same work and the layer counts are exact
TRACE_REPS = 1
# a run must end within 180 s; no pass may run past this
DEADLINE_S = 170.0


class PassError(Exception):
    pass


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "flgen").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0"
                 + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness checks, run on the measured outputs


def check_suites(workload, out_dir: Path, n_reps: int,
                 reps: list[list[dict]]) -> tuple[int, list[str]]:
    """Failed records and their reasons: the exit of every ``flgen
    generate`` and the verdict of every ``flgen validate`` in ``reps``, and
    the shape of every split file the ``n_reps`` repetitions left in
    ``out_dir``."""
    failed, reasons = 0, []
    expected = f"{len(workload.counts())} file(s) pass\n"
    for commands in reps:
        for cmd in commands:
            if cmd["kind"] == "generate" and cmd["rc"] != 0:
                failed += cmd["ops"]
                reasons.append(f"generate {cmd['language']} exited {cmd['rc']}")
            if cmd["kind"] != "validate" or (cmd["rc"] == 0 and cmd["stdout"] == expected):
                continue
            violations = 0
            for line in cmd["stdout"].splitlines():
                more = re.fullmatch(r"\.\.\. and (\d+) more", line)
                violations += int(more.group(1)) if more else 1
            failed += max(violations, 1)
            reasons.append(f"validate {cmd['language']} exited {cmd['rc']}: "
                           f"{cmd['stdout'][:200]!r}")
    for rep in range(n_reps):
        for suite in range(workload.suites):
            suite_dir = Path(workloads.suite_path(out_dir, rep, suite))
            for lang in workload.languages:
                for role, (count, lo, hi) in workload.counts().items():
                    path = suite_dir / f"{lang}.{role}.jsonl"
                    name = path.relative_to(out_dir)
                    if not path.exists():
                        failed += count
                        reasons.append(f"{name}: missing")
                        continue
                    lines = path.read_text(encoding="utf-8").splitlines()
                    try:
                        header = json.loads(lines[0]) if lines else {}
                    except ValueError:
                        header = {}
                    want = {"language": lang, "role": role, "n_min": lo, "n_max": hi,
                            "count": count}
                    got = {key: header.get(key) for key in want}
                    if got != want or len(lines) - 1 != count:
                        failed += count
                        reasons.append(f"{name}: header {got}, {len(lines) - 1} "
                                       f"records; requested {want}")
    return failed, reasons


def levenshtein(a, b) -> int:
    """Row-by-row edit distance; insertions are a running minimum."""
    import numpy as np

    b = np.asarray(b, dtype=np.int64)
    cols = np.arange(len(b) + 1)
    row = cols.copy()
    for i, ai in enumerate(a, start=1):
        sub = row[:-1] + (b != ai)
        cand = np.empty_like(row)
        cand[0] = i
        cand[1:] = np.minimum(sub, row[1:] + 1)
        row = np.minimum.accumulate(cand - cols) + cols
    return int(row[-1])


def check_probes(workload, probes: dict, out_dir: Path,
                 reps: list[list[dict]]) -> tuple[int, list[str]]:
    """Failed probes and reasons: every command exits 0, and each answer's
    witness is a member, lies at the reported distance from the probe, and
    the distance is 0 exactly for members."""
    from flgen.automata import dfa_accepts
    from flgen.errors import UsageError
    from flgen.langlib import get_language

    failed, reasons = 0, []
    for commands in reps:
        for cmd in commands:
            if cmd["rc"] != 0:
                failed += cmd["ops"]
                reasons.append(f"editdist {cmd['language']} exited {cmd['rc']}")
    answers: dict[str, list[str]] = {name: [] for name in probes}
    for name, index in workloads.probe_files(workload):
        path = out_dir / f"{name}.{index}.editdist.tsv"
        if path.exists():
            answers[name] += path.read_text(encoding="utf-8").splitlines()
    for name, words in probes.items():
        lang = get_language(name)
        lines = answers[name]
        if len(lines) != len(words):
            failed += len(words) * len(reps)
            reasons.append(f"editdist {name}: {len(lines)} answers for {len(words)} probes")
            continue
        for index, (word, line) in enumerate(zip(words, lines)):
            fields = line.split("\t")
            problem = None
            if len(fields) != 3:
                problem = f"malformed answer {line[:80]!r}"
            elif fields[2] != lang.render(word):
                problem = "answer is for another input"
            elif not fields[0].isdigit():
                problem = f"distance {fields[0]!r}"
            else:
                distance = int(fields[0])
                try:
                    witness = lang.parse(fields[1])
                except UsageError:
                    witness = None
                if witness is None:
                    problem = f"witness {fields[1][:80]!r} does not tokenize"
                elif not dfa_accepts(lang.dfa, witness):
                    problem = "witness rejected by the DFA"
                elif levenshtein(witness, word) != distance:
                    problem = f"witness is {levenshtein(witness, word)} edits away"
                elif (distance == 0) != lang.contains(word):
                    problem = "distance 0 disagrees with membership"
            if problem:
                failed += len(reps)
                reasons.append(f"editdist {name} probe {index}: {problem}")
    return failed, reasons


# ---------------------------------------------------------------------------
# metrics


def seconds(sample: dict, nominal: float | None) -> float:
    """A command's or set-up step's time, scaled to the reference
    (``worker.py``): multiplied by ``nominal``, the reference's idle cost,
    over the mean of the reference loops just before and after it.  Raw
    when ``nominal`` is None."""
    return sample["seconds"] * (nominal / sample["reference_s"] if nominal else 1.0)


def setup_seconds(result: dict, nominal: float | None) -> float:
    return sum(seconds(step, nominal) for step in result["setup_steps"])


def typical(passes: list[dict], nominal: float) -> dict:
    """Memory at its median over ``passes``, and the rates at their median
    over all their repetitions.  A repetition's rate divides its work by
    the scaled time its commands took."""
    reps = [rep for p in passes for rep in p["reps"]]

    def rate(kinds, scale: float | None = nominal) -> float:
        rates = []
        for rep in reps:
            cmds = [c for c in rep if c["kind"] in kinds]
            if cmds:
                rates.append(sum(c["ops"] for c in cmds) / sum(seconds(c, scale) for c in cmds))
        return median(rates)

    kinds = ("generate", "validate", "editdist")
    return {
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "wall_s": median([setup_seconds(p, nominal) for p in passes])
        + median([sum(seconds(c, nominal) for c in rep) for rep in reps]),
        "ops_per_s": rate(kinds),
        "raw_ops_per_s": rate(kinds, scale=None),
        "reference_ms": 1e3 * median([c["reference_s"] for rep in reps for c in rep]),
        **{kind: rate((kind,)) for kind in kinds},
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "flgen" / "cli.py").is_file():
        fail(f"no flgen sources under {SRC}; run from the root of a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import flgen
    import flgen.langlib

    if Path(flgen.__file__).resolve().parent != (SRC / "flgen").resolve():
        fail(f"imported flgen from {flgen.__file__}, not from {SRC}")

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: "
             f"{', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        fail("seed must be nonnegative")
    workload = workloads.WORKLOADS[args.workload]
    traced_run = bool(args.trace)

    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    probe_dir = work / "probes"
    probe_dir.mkdir(parents=True)
    probes = {}
    if workload.kind == "editdist":
        probes = workloads.make_probes(workload, args.seed)
        for name, index in workloads.probe_files(workload):
            lang = flgen.langlib.get_language(name)
            text = lang.render(probes[name][index]) + "\n"
            (probe_dir / f"{name}.{index}.txt").write_text(text, encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()

    def run_pass(name: str, traced: bool = False, setup_only: bool = False,
                 reps: tuple[int, int] = (TRACE_REPS, TRACE_REPS),
                 deadline: float | None = None) -> dict:
        pass_dir = work / name
        (pass_dir / "out").mkdir(parents=True)
        job = {
            "workload": workload.name, "kind": workload.kind, "seed": args.seed,
            "run_id": f"{workload.name}-seed{args.seed}-{name}",
            "traced": traced, "setup_only": setup_only, "src": str(SRC),
            "min_reps": reps[0], "max_reps": reps[1],
            "deadline": deadline if deadline is not None else started + DEADLINE_S,
            "out_dir": str(pass_dir / "out"), "probe_dir": str(probe_dir),
            "result": str(pass_dir / "result.json"), "spans": str(pass_dir / "spans.npz"),
        }
        (pass_dir / "job.json").write_text(json.dumps(job))
        remaining = DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(pass_dir / "job.json")],
                env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise PassError(f"{name} did not finish within the run's {DEADLINE_S:.0f} s")
        if proc.returncode != 0:
            raise PassError(f"{name} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads((pass_dir / "result.json").read_text())
        result["traced"] = traced
        if not setup_only:
            result["output_sha256"] = digest(pass_dir / "out")
        return result

    passes, setups = [], []
    try:
        if not traced_run:
            # set-up-only passes first, so the measured pass can fill the rest
            while len(setups) < SETUP_SAMPLES - 1:
                begun = time.monotonic()
                name = f"setup{len(setups)}"
                setups.append(run_pass(name, setup_only=True))
                shutil.rmtree(work / name)
                last = time.monotonic() - begun
                if time.monotonic() - started + last > SETUP_SHARE * args.seconds:
                    break
            deadline = started + args.seconds - CHECK_RESERVE_S
            passes.append(run_pass("pass0", reps=(1, MAX_REPS), deadline=deadline))
            setups.append(passes[0])
        else:
            last = 0.0
            while len(passes) < 2 or time.monotonic() - started + last <= args.seconds:
                begun = time.monotonic()
                index = len(passes)
                passes.append(run_pass(f"pass{index}", traced=index % 2 == 1))
                if index > 0:
                    shutil.rmtree(work / f"pass{index}" / "out")
                last = time.monotonic() - begun
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # correctness, outside every timed region
    first = passes[0]
    all_reps = [rep for p in passes for rep in p["reps"]]
    if workload.kind == "editdist":
        failed, reasons = check_probes(workload, probes, work / "pass0" / "out", all_reps)
    else:
        failed, reasons = check_suites(workload, work / "pass0" / "out",
                                       len(first["reps"]), all_reps)
    ops_per_rep = sum(c["ops"] for c in first["reps"][0])
    attempted = ops_per_rep * len(all_reps)
    sha = first["output_sha256"]
    for index, p in enumerate(passes):
        if p["output_sha256"] != sha:
            failed += ops_per_rep * len(p["reps"])
            kind = "traced" if p["traced"] else "untraced"
            reasons.append(f"pass {index} ({kind}) wrote other bytes than pass 0")
    shutil.rmtree(work / "pass0" / "out")
    correct = not reasons

    traced = [p for p in passes if p["traced"]]
    setups += [p for p in passes if traced_run and not p["traced"]]
    nominal = worker.REFERENCE_S[workload.kind]
    untraced = typical([p for p in passes if not p["traced"]], nominal)
    values = {
        "setup_s": median([setup_seconds(r, nominal) for r in setups]),
        "raw_setup_s": median([setup_seconds(r, None) for r in setups]),
        "ops_per_s": untraced["ops_per_s"],
        "raw_ops_per_s": untraced["raw_ops_per_s"],
        "reference_ms": untraced["reference_ms"],
        "peak_rss_mb": untraced["peak_rss_mb"],
        "generate_records_per_s": untraced["generate"],
        "validate_records_per_s": untraced["validate"],
        "editdist_probes_per_s": untraced["editdist"],
        "error_rate": failed / attempted,
    }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = median([p["layers"][name] for p in traced])
        values["trace.overhead_ratio"] = (
            typical(traced, nominal)["wall_s"] / untraced["wall_s"] - 1.0)

    info = environment(args.seed)
    print("env " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {workload.name}: {len(passes)} passes ({len(traced)} traced), "
          f"{len(all_reps)} repetitions, {len(setups)} set-ups, output_sha256 {sha}")
    for reason in reasons[:20]:
        print(f"FAIL {reason}")
    mode = "per_layer" if traced_run else "end_to_end"
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    for name in sorted(values):
        if name in units:
            print(f"  {name:<40} {values[name]:>16.6g} {units[name]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[mode]}
    record = {"env": info, "workload": workload.name, "trace": args.trace,
              "output_sha256": sha, "attempted": attempted, "failed": failed,
              "reasons": reasons, "values": values,
              "setups": [setup_seconds(r, nominal) for r in setups],
              "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes]}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
