"""Fuzz ``flgen validate`` with mutated split files: every input ends in a
documented exit code, never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flgen.cli import main
from flgen.dataset import generate_split, write_split
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
