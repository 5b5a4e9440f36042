"""Run-to-run spread of the benchmark: one run per seed, then per metric the
median, the quartiles and the interquartile range as a share of the median.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload regular-annotated --seeds 1-10 \\
        [--trace 0] [--out spread.json]

Each run measures ``run_seconds`` of BENCHMARK.json.  A run that fails its
checks stops the sweep.  Spreads are flagged when they exceed a
third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(last)
        record = ROOT / "perfbench" / ".work" / f"{args.workload}-seed{seed}-trace{args.trace}"
        env = json.loads((record / "result.json").read_text())["env"]
        runs.append({"seed": seed, "env": env, **result})
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in bounds or k.endswith("_per_s"))
        print(f"seed {seed}: {shown}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid,) * 3
        spread = (q3 - q1) / mid if mid else 0.0
        summary[name] = {"median": mid, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": values}
        flag = ""
        if bounds.get(name) is not None and spread > bounds[name] / 3:
            flag = "  > bound/3"
        print(f"{name:<40} median {mid:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {spread:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": seconds,
             "seeds": args.seeds, "metrics": summary, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
