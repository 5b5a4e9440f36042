"""Golden digests: the SHA-256 of every file ``flgen generate --seed 2026``
writes for all 18 languages, plain and ``--annotate``, at a twentieth of the
default counts, plus the ``flgen editdist`` report of each regular language
on its own probe split.

A change that must keep the output bytes passes this unchanged.  Re-pin only
when bytes change on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python -m tests.test_golden

It prints every key whose digest changed against the file it overwrites.

The bytes also rest on numpy's ``Generator`` streams, which numpy does not
promise to keep across versions.  ``NUMPY_STREAM_SHA256`` pins the output of
every ``Generator`` call flgen makes, so a golden failure can be told apart:

- if the stream test fails too, numpy's ``Generator`` moved, not flgen;
- if ``test_seed_rows_are_seed_sequence_words`` in ``test_dataset.py``
  fails alone, numpy's ``SeedSequence`` moved: flgen computes each
  example's seed words itself, so its bytes stay, but they no longer
  match ``default_rng(SeedSequence(...))``;
- if only golden digests fail, flgen moved.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from flgen.cli import main
from flgen.dataset import ROLES, is_canonical_split, read_lines, split_filename
from flgen.langlib import LANGUAGE_NAMES, REGULAR_NAMES

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"
SEED = 2026
SCALE = 20
# repeat-01 has only 21 members of length <= 40; train and val-short at a
# twentieth of the default counts would see them all, and test-short, which
# excludes their texts, would find no unseen positive
SHRUNK = {"repeat-01": {"train": 20, "val-short": 4}}
NUMPY_STREAM_SHA256 = "809e08a5ed5ce677bcf6f2b25be5c5a1d1ed49b0697ad83d9a79d5330374469a"


def numpy_stream_digest() -> str:
    """SHA-256 over one fixed seed's output of each kind of ``Generator``
    call flgen makes."""
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 0, 0]))
    draws = [
        rng.integers(2),
        rng.integers(5, 41),
        rng.integers(0, 2, size=33),
        rng.integers(3, size=17),
        rng.integers(0, 2, size=70, dtype=np.uint8),
        rng.random(25),
        [rng.geometric(0.5) for _ in range(8)],
        rng.dirichlet([1.0, 1.0, 2.0]),
        rng.dirichlet([2.0, 1.0]),
        rng.permutation([0, 0, 1, 1, 1, 0, 1]),
    ]
    text = repr([np.asarray(d).tolist() for d in draws])
    return hashlib.sha256(text.encode()).hexdigest()


def _override_args(name: str) -> list[str]:
    counts = {role: max(1, count // SCALE) for role, (_id, count, _lo, _hi) in ROLES.items()}
    counts.update(SHRUNK.get(name, {}))
    return [arg for role, count in counts.items() for arg in ("--override", f"{role}={count}")]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def language_digests(name: str, work: Path) -> dict[str, str]:
    """Digest of every generated split file, and of the editdist report."""
    digests = {}
    for mode, extra in (("plain", []), ("annotate", ["--annotate"])):
        out = work / mode
        argv = ["generate", "--language", name, "--seed", str(SEED), "--out", str(out)]
        assert main([*argv, *_override_args(name), *extra]) == 0
        for role in ROLES:
            digests[f"{mode}/{role}"] = _sha256(out / split_filename(name, role))
    if name in REGULAR_NAMES:
        probes = work / "plain" / split_filename(name, "editdist-probe")
        report = work / "editdist.tsv"
        assert main(["editdist", "--language", name, str(probes), "--out", str(report)]) == 0
        digests["editdist"] = _sha256(report)
    return digests


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN_PATH.read_text())


def test_changed_keys_names_every_difference():
    old = {"a": {"x": "1", "y": "2"}, "b": {"x": "3"}}
    new = {"a": {"x": "1", "y": "9", "z": "4"}, "c": {"x": "3"}}
    assert changed_keys(old, new) == ["a/y", "a/z", "b/x", "c/x"]
    assert changed_keys(old, old) == []


def test_numpy_generator_stream_is_pinned():
    assert numpy_stream_digest() == NUMPY_STREAM_SHA256, (
        f"numpy {np.__version__} changed its Generator streams; this is numpy's "
        "stream moving, not flgen's bytes.  Golden digests that fail with it "
        "follow from the new stream."
    )


@pytest.mark.parametrize("name", LANGUAGE_NAMES)
def test_output_matches_golden_digests(name, pinned, tmp_path, capsys):
    got = language_digests(name, tmp_path)
    capsys.readouterr()
    assert got == pinned[name]


@pytest.mark.parametrize("name", LANGUAGE_NAMES)
def test_every_golden_split_passes_the_text_check(name, tmp_path, capsys):
    """``flgen validate`` takes its fast path on every file generate writes,
    so it decodes no record of them as JSON."""
    language_digests(name, tmp_path)
    capsys.readouterr()
    for mode in ("plain", "annotate"):
        for role in ROLES:
            path = tmp_path / mode / split_filename(name, role)
            assert is_canonical_split(read_lines(path)), path


def changed_keys(old: dict, new: dict) -> list[str]:
    """``language/key`` of every digest that differs, appears or disappears."""
    return sorted(
        f"{name}/{key}"
        for name in old.keys() | new.keys()
        for key in old.get(name, {}).keys() | new.get(name, {}).keys()
        if old.get(name, {}).get(key) != new.get(name, {}).get(key)
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        table = {name: language_digests(name, Path(tmp) / name) for name in LANGUAGE_NAMES}
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for key in changed_keys(old, table):
        print(f"changed: {key}")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, table.values()))} digests in {GOLDEN_PATH}")
