"""Fuzz ``flgen validate`` with mutated split files: every input ends in a
documented exit code, never a traceback; and a file that the text check
``is_canonical_split`` passes is one that the general path, ``read_split``
then ``validate_split``, passes too."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flgen import cli
from flgen.cli import main
from flgen.dataset import (
    ROLES,
    generate_split,
    is_canonical_split,
    read_lines,
    read_split,
    validate_split,
    write_split,
)
from flgen.langlib import get_language

LANGUAGES = ("parity", "stack-manipulation", "binary-addition", "bucket-sort")

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.text(max_size=3), max_size=3),
    st.lists(st.lists(st.sampled_from(["0", "1", "#", "</s>", "x"]), max_size=3), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)

MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(min_value=0), st.integers(0, 255)),
    st.tuples(st.just("drop"), st.integers(min_value=0)),
    st.tuples(st.just("duplicate"), st.integers(min_value=0)),
    st.tuples(
        st.just("retype"),
        st.integers(min_value=0),
        st.sampled_from(["format", "language", "role", "n_min", "n_max", "seed",
                         "count", "text", "label", "next"]),
        JSON_VALUES,
    ),
)


@pytest.fixture(scope="module")
def split_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name in LANGUAGES:
        split = generate_split(get_language(name), "val-short", 5, annotate=True,
                               count=6, n_max=14)
        path = root / f"{name}.jsonl"
        write_split(split, path)
        files[name] = path.read_bytes()
    return root, files


def _mutate(data: bytes, mutation) -> bytes:
    kind, index, *rest = mutation
    if kind == "flip":
        if not data:
            return data
        out = bytearray(data)
        out[index % len(out)] = rest[0]
        return bytes(out)
    lines = data.split(b"\n")
    i = index % len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        field, value = rest
        try:
            obj = json.loads(lines[i])
        except ValueError:
            return data
        if not isinstance(obj, dict):
            return data
        obj[field] = value
        lines[i] = json.dumps(obj, sort_keys=True).encode()
    return b"\n".join(lines)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(name=st.sampled_from(LANGUAGES), mutations=st.lists(MUTATIONS, min_size=1, max_size=3))
def test_validate_survives_mutated_files(split_files, name, mutations):
    root, files = split_files
    data = files[name]
    for mutation in mutations:
        data = _mutate(data, mutation)
    path = root / "mutated.jsonl"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["validate", str(path)])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert "unknown language" in err.getvalue()


# ---------------------------------------------------------------------------
# soundness of the text check: mutations that keep every line in the form
# write_split gives it, so that the check, not only the general path, judges


def _write_canonical(path, objs: list) -> None:
    path.write_text("".join(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
                            for obj in objs), encoding="utf-8")


HEADER_INTS = ("n_min", "n_max", "seed", "count")
TEXT_CHARS = ("0", "1", "#", "=", "+", "×", "POP", "PUSH", "x", " ", '"', "\\")

CANONICAL_MUTATIONS = st.one_of(
    st.tuples(
        st.just("retype"),
        st.integers(min_value=0),
        st.sampled_from(["format", "language", "role", *HEADER_INTS, "text", "label", "next"]),
        JSON_VALUES,
    ),
    st.tuples(st.just("bool"), st.sampled_from(HEADER_INTS)),
    st.tuples(st.just("shift"), st.sampled_from(HEADER_INTS), st.integers(-4, 4)),
    st.tuples(st.just("role"), st.sampled_from(list(ROLES))),
    st.tuples(st.just("label"), st.integers(min_value=0)),
    st.tuples(st.just("text"), st.integers(min_value=0), st.integers(min_value=0),
              st.sampled_from(TEXT_CHARS)),
    st.tuples(st.just("next"), *[st.integers(min_value=0)] * 4),
    st.tuples(st.just("drop"), st.integers(min_value=0)),
)


# modular-arithmetic writes its "×" as an escape
CANONICAL_LANGUAGES = (*LANGUAGES, "modular-arithmetic")
CANONICAL_NAMES = sorted(f"{name}{kind}" for name in CANONICAL_LANGUAGES for kind in ("", ".one"))


@pytest.fixture(scope="module")
def canonical_files(tmp_path_factory):
    """name -> bytes of an annotated six-record split of each language, and,
    as name.one, of a one-record split whose header fields 0 and 1 can each
    turn into a bool (n_max too on parity, the one language here with
    members of length at most 1)."""
    root = tmp_path_factory.mktemp("canonical")
    files = {}
    for name in CANONICAL_LANGUAGES:
        lang = get_language(name)
        for kind, split in (
            ("", generate_split(lang, "val-short", 5, annotate=True, count=6, n_max=14)),
            (".one", generate_split(lang, "val-short", 1, annotate=True, count=1,
                                    n_min=0, n_max=1 if name == "parity" else 14)),
        ):
            path = root / f"{name}{kind}.jsonl"
            write_split(split, path)
            files[f"{name}{kind}"] = path.read_bytes()
    return root, files


def _mutate_canonical(objs: list, mutation) -> None:
    """Apply ``mutation`` in place to the header and records of a split."""
    kind, *args = mutation
    records = [obj for obj in objs[1:] if isinstance(obj, dict)]
    if kind == "retype":
        index, field, value = args
        obj = objs[index % len(objs)]
        if isinstance(obj, dict):
            obj[field] = value
    elif kind == "bool":
        value = objs[0].get(args[0])
        if type(value) is bool:
            objs[0][args[0]] = int(value)
        elif type(value) is int:
            objs[0][args[0]] = bool(value)
    elif kind == "shift":
        if type(objs[0].get(args[0])) is int:
            objs[0][args[0]] += args[1]
    elif kind == "role":
        objs[0]["role"] = args[0]
    elif kind == "label" and records:
        record = records[args[0] % len(records)]
        if record.get("label") in (0, 1):
            record["label"] = 1 - record["label"]
    elif kind == "text" and records:
        record = records[args[0] % len(records)]
        text = record.get("text")
        if type(text) is str:
            at = args[1] % (len(text) + 1)
            record["text"] = text[:at] + args[2] + text[at + 1:]
    elif kind == "next":
        annotated = [r for r in records if type(r.get("next")) is list and r["next"]]
        if annotated:
            a = annotated[args[0] % len(annotated)]["next"]
            b = annotated[args[2] % len(annotated)]["next"]
            i, j = args[1] % len(a), args[3] % len(b)
            a[i], b[j] = b[j], a[i]
    elif kind == "drop" and len(objs) > 1:
        del objs[1 + args[0] % (len(objs) - 1)]


def _validate(path, general: bool) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``flgen validate path``; ``general``
    declines the text check, so that read_split and validate_split judge."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if general:
            mp.setattr(cli, "is_canonical_split", lambda lines: False)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["validate", str(path)])
    return rc, out.getvalue(), err.getvalue()


def _assert_sound(path) -> bool:
    """The check passes only what the general path passes, and validate says
    the same with and without it; returns whether the check passed."""
    passed = is_canonical_split(read_lines(path))
    if passed:
        assert validate_split(read_split(path)) == []
    assert _validate(path, general=False) == _validate(path, general=True)
    return passed


@settings(derandomize=True, max_examples=300, deadline=None)
@given(name=st.sampled_from(CANONICAL_NAMES),
       mutations=st.lists(CANONICAL_MUTATIONS, min_size=1, max_size=3))
def test_text_check_passes_only_what_the_general_path_passes(canonical_files, name, mutations):
    root, files = canonical_files
    objs = [json.loads(line) for line in files[name].decode().splitlines()]
    for mutation in mutations:
        _mutate_canonical(objs, mutation)
    path = root / "canonical-mutated.jsonl"
    _write_canonical(path, objs)
    _assert_sound(path)


@pytest.mark.parametrize("name", CANONICAL_LANGUAGES)
@pytest.mark.parametrize("field, value", [("count", True), ("n_min", False)])
def test_a_bool_header_field_fails_the_check_and_validate(
    canonical_files, tmp_path, name, field, value
):
    """``"count": true`` on a one-record split parses and re-dumps to the
    same header line; only read_split's type check, which the text check
    shares, rejects it."""
    root, files = canonical_files
    objs = [json.loads(line) for line in files[f"{name}.one"].decode().splitlines()]
    assert objs[0][field] == value
    objs[0][field] = value
    path = tmp_path / "bool.jsonl"
    _write_canonical(path, objs)
    assert not _assert_sound(path)
    assert _validate(path, general=False) == (
        1, f"{path}: line 1: {field!r} must be int, got {value!r}\n", "")


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_text_check_passes_every_unmutated_fuzz_split(canonical_files, name):
    root, files = canonical_files
    path = root / "unmutated.jsonl"
    path.write_bytes(files[name])
    assert _assert_sound(path)
