"""End-to-end command tests driven through ``main(argv)``: exit codes,
report formats, determinism, and the validate round trip."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flgen.cli import main
from flgen.dataset import (
    DatasetSplit,
    LabeledExample,
    generate_split,
    is_canonical_split,
    read_lines,
    read_split,
    validate_split,
    write_split,
)
from flgen.errors import ConfigurationError
from flgen.langlib import get_language

from .oracles import levenshtein

SMALL = [
    "--override", "train=60",
    "--override", "val-short=20",
    "--override", "val-long=20:0:80",
    "--override", "test-short=20",
    "--override", "test-long=30:0:60",
    "--override", "editdist-probe=10:0:60",
]


def _generate(tmp_path, language="parity", seed=7, extra=()):
    out = tmp_path / "suite"
    rc = main(["generate", "--language", language, "--seed", str(seed),
               "--out", str(out), *SMALL, *extra])
    assert rc == 0
    return out


def _tamper_label(path: Path, record_line: int, out: Path) -> None:
    lines = path.read_text().splitlines()
    rec = json.loads(lines[record_line])
    rec["label"] = 1 - rec["label"]
    lines[record_line] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# generate


def test_generate_builds_a_sampler_table_only_for_a_wider_horizon(tmp_path, monkeypatch):
    import flgen.langlib as langlib

    lang = get_language("parity")
    monkeypatch.setattr(lang, "_tables", None)
    monkeypatch.setattr(lang, "_ranges", {})
    builds = []
    build = langlib.build_sampler_tables

    def counted(dfa, n_min, n_max, base=None):
        builds.append((n_min, n_max))
        return build(dfa, n_min, n_max, base)

    monkeypatch.setattr(langlib, "build_sampler_tables", counted)
    _generate(tmp_path)
    # SMALL asks, in ROLES order, for [0, 40] twice, [0, 80], [0, 40] and
    # [0, 60] twice: a horizon no wider than the table's never rebuilds it
    assert builds == [(0, 40), (0, 80)]


def test_generate_writes_six_files_and_summary(tmp_path, capsys):
    out = _generate(tmp_path)
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted(
        f"parity.{role}.jsonl"
        for role in ("train", "val-short", "val-long", "test-short",
                     "test-long", "editdist-probe")
    )
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["split", "count", "positive", "lengths"]
    assert len(table) == 7
    probe_row = next(line for line in table if line.startswith("editdist-probe"))
    assert "0.000" in probe_row


def test_generate_is_deterministic(tmp_path):
    a = _generate(tmp_path / "a", seed=11)
    b = _generate(tmp_path / "b", seed=11)
    c = _generate(tmp_path / "c", seed=12)
    names = [p.name for p in sorted(a.iterdir())]
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    assert any((a / n).read_bytes() != (c / n).read_bytes() for n in names)


def test_generate_respects_global_length_flags(tmp_path):
    out = tmp_path / "suite"
    counts_only = [arg.split(":")[0] if "=" in arg else arg for arg in SMALL]
    rc = main(["generate", "--language", "majority", "--seed", "3",
               "--out", str(out), "--min-len", "5", "--max-len", "12",
               *counts_only])
    assert rc == 0
    for path in out.iterdir():
        split = read_split(path)
        assert (split.n_min, split.n_max) == (5, 12)
        assert all(5 <= len(ex.symbols) <= 12 for ex in split.examples)


@pytest.mark.parametrize("argv_tail, train", [
    ([], (60, 0, 40)),
    (["--min-len", "5", "--override", "train=3"], (3, 5, 40)),
    (["--override", "train=3:0:9", "--override", "train=4"], (4, 0, 9)),
    (["--override", "train=3:2:9", "--max-len", "30"], (3, 2, 9)),
])
def test_generate_settings_precedence(tmp_path, argv_tail, train):
    """Defaults, then --min-len and --max-len, then each --override in order,
    whatever the order on the command line."""
    out = _generate(tmp_path, extra=argv_tail)
    split = read_split(out / "parity.train.jsonl")
    assert (split.count, split.n_min, split.n_max) == train


@pytest.mark.parametrize("language", ["parity", "marked-reversal"])
@pytest.mark.parametrize("annotate", [False, True])
def test_generate_without_overrides_writes_the_standard_suite(
    tmp_path, monkeypatch, language, annotate
):
    """With no --override and no length flag, generate writes the bytes of
    ``generate_standard_suite``; the split counts are cut down here, with
    every stream id and length range kept."""
    from flgen import dataset

    for role, (role_id, _count, lo, hi) in dataset.ROLES.items():
        monkeypatch.setitem(dataset.ROLES, role, (role_id, 12 if hi <= 80 else 3, lo, hi))
    flag = ["--annotate"] if annotate else []
    out = tmp_path / "cli"
    assert main(["generate", "--language", language, "--seed", "9",
                 "--out", str(out), *flag]) == 0
    suite = dataset.generate_standard_suite(get_language(language), 9, annotate=annotate)
    for role, split in suite.items():
        expected = tmp_path / f"{role}.jsonl"
        write_split(split, expected)
        path = out / dataset.split_filename(language, role)
        assert path.read_bytes() == expected.read_bytes()
    assert len(list(out.iterdir())) == len(suite) == 6


def test_generate_annotate_emits_next_fields(tmp_path):
    out = _generate(tmp_path, extra=["--annotate"])
    split = read_split(out / "parity.train.jsonl")
    for ex in split.examples:
        if ex.label:
            assert ex.next_sets is not None
            assert len(ex.next_sets) == len(ex.symbols) + 1
        else:
            assert ex.next_sets is None


def test_parser_is_reused_without_leaking_between_calls(tmp_path, capsys):
    """main() builds its parser once per process.  An --override list from
    one call must not reach the next, and a failed parse must not break the
    next call.  The probe split stands in for train because its default is
    50 records rather than 10,000."""
    from flgen.cli import _build_parser

    assert _build_parser() is _build_parser()
    assert SMALL[-2:] == ["--override", "editdist-probe=10:0:60"]
    out = tmp_path / "suite"
    probes = out / "parity.editdist-probe.jsonl"
    for argv_tail, count, n_max in [(SMALL, 10, 60), (SMALL[:-2], 50, 500)]:
        assert main(["generate", "--language", "parity", "--out", str(out), *argv_tail]) == 0
        split = read_split(probes)
        assert (split.count, split.n_max) == (count, n_max)

    with pytest.raises(SystemExit) as exc:
        main(["generate", "--language", "parity", "--seed", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["stats", "parity"]) == 0
    assert capsys.readouterr().out.startswith("language: parity\n")


def test_generate_out_naming_a_file_exits_3(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main(["generate", "--language", "parity", "--out", str(out), *SMALL]) == 3
    assert f"cannot create {out}" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_generate_infeasible_range_exits_2(tmp_path, capsys):
    rc = main(["generate", "--language", "repeat-01", "--seed", "0",
               "--out", str(tmp_path / "x"), "--min-len", "3", "--max-len", "3"])
    assert rc == 2
    assert "no strings in range" in capsys.readouterr().err


@pytest.mark.parametrize("language", ["first", "majority"])
def test_generate_negatives_where_no_member_fits(tmp_path, capsys, language):
    """Neither language has a member of length 0, but the empty string is a
    negative, so an all-negative probe split at 0:0 is feasible."""
    out = tmp_path / "suite"
    rc = main(["generate", "--language", language, "--seed", "3", "--out", str(out),
               *[f"--override={role}=0" for role in
                 ("train", "val-short", "val-long", "test-short", "test-long")],
               "--override", "editdist-probe=4:0:0"])
    assert rc == 0, capsys.readouterr().err
    split = read_split(out / f"{language}.editdist-probe.jsonl")
    assert [(ex.text, ex.label) for ex in split.examples] == [("", False)] * 4


def test_generate_where_every_word_is_a_member_exits_2(tmp_path, capsys):
    """dyck-2-3's one word of length 0 is a member and no edit keeps a word
    at length 0, so a probe split at 0:0 has no negative to draw."""
    out = tmp_path / "suite"
    rc = main(["generate", "--language", "dyck-2-3", "--seed", "3", "--out", str(out),
               *[f"--override={role}=0" for role in
                 ("train", "val-short", "val-long", "test-short", "test-long")],
               "--override", "editdist-probe=1:0:0"])
    assert rc == 2
    assert "error: complement too small: no rejected string in [0, 0]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_generate_without_unseen_members_exits_2_naming_the_label(tmp_path, capsys):
    """repeat-01 has 21 members of length at most 40; train, val-short and
    val-long draw them all, so test-short finds no unseen positive."""
    out = tmp_path / "suite"
    rc = main(["generate", "--language", "repeat-01", "--seed", "42", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("error: repeat-01/test-short: no unseen positive example "
            "after 1000 attempts at index 0") in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv_tail", [
    ["--override", "train"],
    ["--override", "train=1:2"],
    ["--override", "train=a"],
    ["--override", "nope=5"],
    ["--override", "train=5:9:2"],
    ["--seed", "-1"],
    ["--language", "no-such-language"],
])
def test_generate_config_errors_exit_2(tmp_path, argv_tail):
    argv = ["generate", "--language", "parity", "--out", str(tmp_path / "x")]
    if argv_tail[0] == "--language":
        argv = ["generate", "--out", str(tmp_path / "x")]
    assert main(argv + argv_tail) == 2


@pytest.mark.parametrize("seed, override, role, settings", [
    (7, "test=5", "test", {"count": 5}),
    (-1, "train=5", "train", {"count": 5}),
    (7, "train=-5", "train", {"count": -5}),
    (7, "train=3:9:3", "train", {"count": 3, "n_min": 9, "n_max": 3}),
    (7, "train=1:0:5001", "train", {"count": 1, "n_min": 0, "n_max": 5001}),
])
def test_generate_prints_the_settings_error_generate_split_raises(
    tmp_path, capsys, seed, override, role, settings
):
    """Each settings rule (unknown role, negative seed, negative count, bad
    length range, length limit) words its error once: the CLI prints what the library
    raises, before the output directory is made."""
    with pytest.raises(ConfigurationError) as exc:
        generate_split(get_language("parity"), role, seed, **settings)
    out = tmp_path / "x"
    assert main(["generate", "--language", "parity", "--seed", str(seed),
                 "--out", str(out), "--override", override]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# validate


def test_validate_fresh_suite_passes(tmp_path, capsys):
    out = _generate(tmp_path, language="marked-reversal")
    paths = [str(p) for p in sorted(out.iterdir())]
    assert main(["validate", *paths]) == 0
    assert "6 file(s) pass" in capsys.readouterr().out


@pytest.mark.parametrize("language", ["parity", "modular-arithmetic", "stack-manipulation"])
def test_validate_decodes_json_only_in_the_header_of_a_written_split(
    tmp_path, capsys, monkeypatch, language
):
    """A file exactly as generate wrote it passes as text: json.loads runs on
    each header and on no record, so a fallback to the general path fails
    here, not only in the bench.  modular-arithmetic's "×" is written as
    an escape, and stack-manipulation's glyphs are longer than one character."""
    out = _generate(tmp_path, language=language, extra=["--annotate"])
    paths = [str(p) for p in sorted(out.iterdir())]
    assert any('"next"' in line for line in (out / f"{language}.train.jsonl").open())
    loads = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: loads.append(a) or real_loads(*a, **k))
    capsys.readouterr()
    assert main(["validate", *paths]) == 0
    assert capsys.readouterr().out == "6 file(s) pass\n"
    assert len(loads) == 6
    assert all(a[0].startswith('{"count":') for a in loads)


def _reorder_next_sets(line: str) -> str:
    record = json.loads(line)
    if "next" in record:
        record["next"] = [glyphs[::-1] for glyphs in record["next"]]
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("rewrite, canonical", [
    (_reorder_next_sets, False),
    (lambda line: json.dumps(json.loads(line), sort_keys=True), False),
    (lambda line: json.dumps(dict(reversed(json.loads(line).items())),
                             separators=(",", ":")), False),
    (lambda line: line + "\r", True),
], ids=["next-glyphs-reordered", "spaces-after-separators", "keys-reordered", "crlf"])
def test_validate_accepts_equivalent_encodings_generate_does_not_write(
    tmp_path, capsys, rewrite, canonical
):
    """Every record rewritten into an equivalent form still passes; all but
    CRLF line ends, which reading drops, are not what generate writes and
    take the general path."""
    path = _generate(tmp_path, extra=["--annotate"]) / "parity.train.jsonl"
    lines = path.read_text().splitlines()
    assert sum(len(g) > 1 for line in lines[1:] for g in json.loads(line).get("next", []))
    path.write_text("\n".join([lines[0], *map(rewrite, lines[1:])]) + "\n")
    assert is_canonical_split(read_lines(path)) is canonical
    capsys.readouterr()
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "1 file(s) pass\n"


def test_validate_flags_flipped_label(tmp_path, capsys):
    out = _generate(tmp_path)
    bad = tmp_path / "bad.jsonl"
    _tamper_label(out / "parity.val-short.jsonl", 4, bad)
    assert main(["validate", str(bad)]) == 1
    assert "label" in capsys.readouterr().out


def test_validate_flags_a_positive_without_next_in_an_annotated_split(tmp_path, capsys):
    """generate annotates every positive of a split or none of them, so one
    positive without next is a violation that names its example."""
    path = _generate(tmp_path, extra=["--annotate"]) / "parity.train.jsonl"
    lines = path.read_text().splitlines()
    line_no = next(n for n, line in enumerate(lines, 1) if '"next"' in line)
    record = json.loads(lines[line_no - 1])
    del record["next"]
    lines[line_no - 1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[:1] == [
        f"{path}: example {line_no - 2}: positive example has no next sets in an annotated split"
    ]


def test_validate_flags_a_positive_in_a_probe_split(tmp_path, capsys):
    """An editdist-probe split holds only negatives, so one member labeled 1
    is a violation, in memory and in the file that validate reads."""
    lang = get_language("parity")
    probes = generate_split(lang, "editdist-probe", 5, count=4, n_max=12)
    member = LabeledExample((1,), lang.render((1,)), True)
    split = DatasetSplit(probes.language, probes.role, probes.n_min, probes.n_max,
                         probes.seed, [*probes.examples, member])
    message = "editdist-probe split contains a positive example"
    assert validate_split(split) == [message]
    path = tmp_path / "parity.editdist-probe.jsonl"
    write_split(split, path)
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{path}: {message}"]


def test_validate_flags_truncated_file(tmp_path, capsys):
    out = _generate(tmp_path)
    lines = (out / "parity.val-short.jsonl").read_text().splitlines()
    bad = tmp_path / "short.jsonl"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    report = capsys.readouterr().out
    assert "promises" in report
    assert report.splitlines() == [f"{bad}: line 1: header promises 20 examples, file has 19"]


def test_validate_unknown_language_exits_2(tmp_path):
    out = _generate(tmp_path)
    lines = (out / "parity.val-short.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["language"] = "martian"
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "martian.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(bad)]) == 2


def test_validate_caps_report_at_twenty(tmp_path, capsys):
    out = _generate(tmp_path)
    src = out / "parity.train.jsonl"
    lines = src.read_text().splitlines()
    for i in range(1, 31):
        rec = json.loads(lines[i])
        rec["label"] = 1 - rec["label"]
        lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "many.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    report = capsys.readouterr().out.splitlines()
    assert len(report) == 21
    assert report[-1] == "... and 10 more"


@pytest.fixture(scope="module")
def annotated_split(tmp_path_factory):
    path = tmp_path_factory.mktemp("split") / "parity.val-short.jsonl"
    lang = get_language("parity")
    write_split(generate_split(lang, "val-short", 3, annotate=True, count=6, n_max=10), path)
    assert main(["validate", str(path)]) == 0
    return path


@pytest.mark.parametrize("changes, records, message", [
    ({"seed": -1, "count": 0}, 0, "seed must be non-negative, got -1"),
    ({"n_min": -4, "count": 1}, 1, "val-short: bad length range [-4, 10]"),
    ({"n_min": 7, "n_max": 5, "count": 0}, 0, "val-short: bad length range [7, 5]"),
    ({"n_max": 5001, "count": 0}, 0,
     "val-short: n_max 5001 is past the length limit MAX_LENGTH = 5000"),
])
def test_validate_rejects_a_header_no_generator_writes(
    annotated_split, tmp_path, capsys, changes, records, message
):
    """A header whose settings generate would refuse is one violation that
    names the header, so validate exits 1; the records kept are sound."""
    lines = annotated_split.read_text().splitlines()
    header = {**json.loads(lines[0]), **changes}
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header), *lines[1:1 + records]]) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{bad}: header: {message}"]


@pytest.mark.parametrize("where, field, value", [
    ("header", "n_min", "0"),
    ("header", "n_max", True),
    ("header", "count", "6"),
    ("header", "seed", None),
    ("header", "language", ["parity"]),
    ("header", "role", ["val-short"]),
    ("record", "next", 5),
    ("record", "next", [5]),
    ("record", "next", ["01"]),
    ("record", "label", True),
    ("record", "text", 5),
])
def test_mistyped_field_exits_1_with_line_number(
    annotated_split, tmp_path, capsys, where, field, value
):
    """validate and editdist, which both read splits, reject a field of the
    wrong JSON type with its line number instead of a traceback."""
    lines = annotated_split.read_text().splitlines()
    line_no = 1 if where == "header" else next(
        n for n, line in enumerate(lines, 1) if '"next"' in line)
    obj = json.loads(lines[line_no - 1])
    obj[field] = value
    lines[line_no - 1] = json.dumps(obj)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    assert f"line {line_no}: " in capsys.readouterr().out
    assert main(["editdist", "--language", "parity", str(bad)]) == 1
    assert f"line {line_no}: " in capsys.readouterr().err


@pytest.mark.parametrize("record", ["5", "[1]"])
def test_record_that_is_not_an_object_exits_1_with_line_number(
    annotated_split, tmp_path, capsys, record
):
    """A record line that is JSON but not an object is malformed for
    validate and for editdist alike."""
    lines = annotated_split.read_text().splitlines()
    lines[3] = record
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{bad}: line 4: record is not an object"]
    assert main(["editdist", "--language", "parity", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 4: record is not an object\n"


def test_non_utf8_split_exits_1_with_line_number(annotated_split, tmp_path, capsys):
    """A byte that is not UTF-8 is a malformed file, not a traceback."""
    data = bytearray(annotated_split.read_bytes())
    third_line = data.index(b"\n", data.index(b"\n") + 1) + 1
    data[third_line + 1] = 0xFF
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 1
    assert "line 3: not UTF-8" in capsys.readouterr().out
    assert main(["editdist", "--language", "parity", str(bad)]) == 1
    assert "line 3: not UTF-8" in capsys.readouterr().err


def _parity_two_records(tmp_path, third_next) -> Path:
    """A parity split whose lines 2 and 3 both hold "1"; line 3 carries
    ``third_next`` as its next field."""
    lang = get_language("parity")
    nexts = tuple(lang.next_sets([1]))
    ex = LabeledExample((1,), "1", True, nexts)
    path = tmp_path / "parity.val-short.jsonl"
    write_split(DatasetSplit("parity", "val-short", 0, 10, 3, [ex, ex]), path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    assert record["next"] == [["0", "1"], ["0", "1", "</s>"]]
    record["next"] = third_next
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("third_next, message", [
    ([["0", 1], ["0", "1", "</s>"]], "line 3: unknown symbol 1 in next field"),
    ([[["0"]], ["0", "1", "</s>"]], "line 3: unknown symbol ['0'] in next field"),
    ([["0", "1", "</s>"], ["0", "1", "</s>"]], "example 1: next sets do not match re-derivation"),
])
def test_next_entries_parsed_once_per_file_are_still_checked(
    tmp_path, capsys, third_next, message
):
    """Line 2's entries are parsed and kept for the rest of the file; line 3
    repeats them with a non-str glyph, an unhashable glyph, or a set that is
    an earlier entry but wrong at its position."""
    path = _parity_two_records(tmp_path, third_next)
    capsys.readouterr()
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().out


# ---------------------------------------------------------------------------
# editdist


def test_editdist_on_probe_split(tmp_path, capsys):
    out = _generate(tmp_path, language="repeat-01")
    capsys.readouterr()
    rc = main(["editdist", "--language", "repeat-01",
               str(out / "repeat-01.editdist-probe.jsonl")])
    assert rc == 0
    lang = get_language("repeat-01")
    report = capsys.readouterr().out.splitlines()
    assert len(report) == 10
    for line in report:
        dist, witness, text = line.split("\t")
        assert int(dist) >= 1
        assert lang.contains(lang.parse(witness))
        assert levenshtein(lang.parse(witness), lang.parse(text)) == int(dist)


def test_editdist_reads_a_split_file_once(tmp_path, capsys, monkeypatch):
    """The split is parsed from the lines read to recognise it, and a bad
    record still reports its own line number."""
    out = _generate(tmp_path, language="repeat-01")
    path = out / "repeat-01.editdist-probe.jsonl"
    lines = path.read_text().splitlines()
    lines[3] = '{"text": "01"'
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    reads = []
    read_bytes = Path.read_bytes

    def counted(self):
        reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counted)
    capsys.readouterr()
    assert main(["editdist", "--language", "repeat-01", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert reads == [path]
    reads.clear()
    assert main(["editdist", "--language", "repeat-01", str(bad)]) == 1
    assert "line 4: bad record" in capsys.readouterr().err
    assert reads == [bad]


def test_editdist_plain_lines_and_out_file(tmp_path):
    src = tmp_path / "strings.txt"
    src.write_text("0101\n11\n\n")
    report_path = tmp_path / "report.tsv"
    rc = main(["editdist", "--language", "repeat-01", str(src),
               "--out", str(report_path)])
    assert rc == 0
    rows = report_path.read_text().splitlines()
    assert rows[0] == "0\t0101\t0101"
    assert rows[1].startswith("1\t")
    # the empty line is the empty string, a member
    assert rows[2] == "0\t\t"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.tsv", "strings.txt"]


@pytest.mark.parametrize("content, message", [
    (b"01\n0x1\n", "line 2: cannot tokenize '0x1'"),
    (b"01\n0\xff1\n", "line 2: not UTF-8"),
    # a form feed does not end a line, so it is part of an untokenizable text
    (b"01\n01\x0c1\n", "line 2: cannot tokenize"),
])
def test_editdist_malformed_plain_line_exits_1_with_line_number(
    tmp_path, capsys, content, message
):
    src = tmp_path / "strings.txt"
    src.write_bytes(content)
    capsys.readouterr()
    assert main(["editdist", "--language", "parity", str(src)]) == 1
    assert message in capsys.readouterr().err


def test_editdist_nonregular_language_exits_2(tmp_path, capsys):
    src = tmp_path / "strings.txt"
    src.write_text("01\n")
    rc = main(["editdist", "--language", "majority", str(src)])
    assert rc == 2
    assert "requires a regular language" in capsys.readouterr().err


def test_editdist_split_of_another_language_exits_2(tmp_path, capsys):
    out = _generate(tmp_path, language="repeat-01")
    capsys.readouterr()
    rc = main(["editdist", "--language", "parity",
               str(out / "repeat-01.editdist-probe.jsonl")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is a repeat-01 split, but --language is parity" in captured.err


def test_editdist_split_whose_count_disagrees_exits_1_naming_line_1(
    annotated_split, tmp_path, capsys
):
    lines = annotated_split.read_text().splitlines()
    bad = tmp_path / "short.jsonl"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert main(["editdist", "--language", "parity", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: header promises 6 examples, file has 5\n"


def test_editdist_unwritable_out_names_the_destination(tmp_path, capsys):
    src = tmp_path / "strings.txt"
    src.write_text("01\n")
    rc = main(["editdist", "--language", "parity", str(src),
               "--out", str(tmp_path / "nodir" / "x.tsv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "No such file or directory" in err and "x.tsv" in err
    assert ".tmp" not in err


def test_editdist_missing_input_exits_3(tmp_path):
    rc = main(["editdist", "--language", "parity", str(tmp_path / "nope.txt")])
    assert rc == 3


# ---------------------------------------------------------------------------
# stats


def test_stats_regular(capsys):
    assert main(["stats", "parity"]) == 0
    out = capsys.readouterr().out
    assert "class: R" in out
    assert "dfa states: 2" in out
    assert "valid lengths [0,40]: 1-40" in out
    assert "preprocessing n_max=500" in out


def test_stats_lists_the_alphabet_in_id_order(capsys):
    assert main(["stats", "stack-manipulation"]) == 0
    assert "alphabet (5): 0 1 POP PUSH =\n" in capsys.readouterr().out


def test_stats_dyck_state_count(capsys):
    assert main(["stats", "dyck-2-3"]) == 0
    assert "dfa states: 15" in capsys.readouterr().out


def test_stats_procedural(capsys):
    assert main(["stats", "majority"]) == 0
    out = capsys.readouterr().out
    assert "class: DCF" in out
    assert "procedural" in out
    assert "dfa states" not in out


def test_stats_unknown_language(capsys):
    assert main(["stats", "atlantean"]) == 2
    assert "unknown language" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# packaging


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flgen.cli", "stats", "repeat-01"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "valid lengths [0,40]: 0, 2, 4" in proc.stdout


def test_package_runs_as_module_from_a_checkout():
    """``PYTHONPATH=src python -m flgen`` works without an install."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "flgen", "stats", "parity"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("language: parity\n")


def test_running_the_cli_never_loads_the_semiring_module():
    """``flgen.semiring`` serves only the tests and the bench, so importing
    the command line leaves it unloaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, flgen.cli; print('flgen.semiring' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """numpy.random loads on the first example drawn, so ``validate``,
    ``editdist`` and ``stats`` never pay for its import."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, flgen.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
