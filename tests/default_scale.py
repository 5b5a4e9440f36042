"""Default-scale byte ledger: one committed record of what ``flgen`` writes
and prints at default settings with ``--seed 1``, for all 18 languages.

For each language it holds:

- the SHA-256 of every split file and of the printed summary of
  ``flgen generate``, plain and ``--annotate``; repeat-01 cannot fill
  test-short at default counts, so for it the ledger holds exit code 2 and
  the message instead;
- what ``flgen validate`` prints over the six files of each run, and its
  exit code;
- the SHA-256 of the ``flgen editdist`` report on the plain
  ``editdist-probe`` split, for a regular language that has one;
- the SHA-256 of ``flgen stats`` without its ``preprocessing`` timing lines.

The golden digests in ``test_golden.py`` pin a twentieth of the default
counts; this ledger pins the default counts themselves, where the train
split's 10,000 examples run longest.  A change that must keep the output
bytes passes the check unchanged:

    PYTHONPATH=src python -m tests.default_scale --check

which prints every key that moved and exits 1 if any did.  Re-pin only
when bytes change on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python -m tests.default_scale --pin
"""

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from flgen.cli import main as flgen
from flgen.dataset import ROLES, split_filename
from flgen.langlib import LANGUAGE_NAMES, REGULAR_NAMES

from .test_golden import changed_keys

LEDGER_PATH = Path(__file__).parent / "golden" / "default_scale.json"
SEED = 1


def _run(argv: list[str]) -> tuple[int, str, str]:
    """``flgen argv``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = flgen(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def language_ledger(name: str, work: Path) -> dict[str, str]:
    """The ledger entries of one language, its files written under ``work``."""
    entries = {}
    for mode, extra in (("plain", []), ("annotate", ["--annotate"])):
        out = work / mode
        argv = ["generate", "--language", name, "--seed", str(SEED), "--out", str(out)]
        code, summary, err = _run([*argv, *extra])
        if code:
            entries[f"{mode}/generate"] = f"exit {code}: {err.strip()}"
            continue
        entries[f"{mode}/summary"] = _sha256(summary)
        paths = [out / split_filename(name, role) for role in ROLES]
        for role, path in zip(ROLES, paths):
            entries[f"{mode}/{role}"] = _sha256(path.read_bytes())
        code, report, _err = _run(["validate", *map(str, paths)])
        entries[f"{mode}/validate"] = f"exit {code}: {report.strip()}"
    probes = work / "plain" / split_filename(name, "editdist-probe")
    if name in REGULAR_NAMES and probes.exists():
        report = work / "editdist.tsv"
        code, _out, err = _run(["editdist", "--language", name, str(probes), "--out", str(report)])
        entries["editdist"] = _sha256(report.read_bytes()) if code == 0 else f"exit {code}: {err}"
    code, stats, _err = _run(["stats", name])
    kept = [line for line in stats.splitlines() if not line.startswith("preprocessing")]
    entries["stats"] = _sha256("\n".join([f"exit {code}", *kept]))
    return entries


def build_ledger() -> dict[str, dict[str, str]]:
    """Every language's entries, each written in and read from its own
    temporary directory, which is removed before the next language."""
    table = {}
    for name in LANGUAGE_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            table[name] = language_ledger(name, Path(tmp))
    return table


def ledger_changes() -> list[str]:
    """``language/key`` of every entry that differs from the pinned ledger."""
    return changed_keys(json.loads(LEDGER_PATH.read_text()), build_ledger())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="default-scale byte ledger")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the pinned ledger")
    mode.add_argument("--pin", action="store_true", help="overwrite the pinned ledger")
    args = parser.parse_args(argv)
    table = build_ledger()
    old = json.loads(LEDGER_PATH.read_text()) if LEDGER_PATH.exists() else {}
    changes = changed_keys(old, table)
    for key in changes:
        print(f"changed: {key}")
    if args.pin:
        LEDGER_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"pinned {sum(map(len, table.values()))} entries in {LEDGER_PATH}")
        return 0
    print(f"{len(changes)} of {sum(map(len, table.values()))} entries changed")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
