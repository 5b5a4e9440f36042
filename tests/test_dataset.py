"""Dataset generation and serialization tests."""

import numpy as np
import pytest

from flgen import dataset
from flgen.dataset import (
    MAX_LENGTH,
    ROLES,
    DatasetSplit,
    LabeledExample,
    generate_example,
    generate_split,
    generate_standard_suite,
    read_split,
    _example_streams,
    _seed_rows,
    _split_lines,
    split_filename,
    split_settings,
    validate_split,
    write_split,
)
from flgen.automata import EOS, Alphabet
from flgen.errors import ConfigurationError, GenerationError, ParseError
from flgen.langlib import LANGUAGE_NAMES, get_language
from flgen.perturb import sample_negative

from .oracles import example_rng, json_dumps_split_lines, per_example_split


def test_generate_example_properties():
    lang = get_language("parity")
    rng = np.random.default_rng(3)
    n_pos = 0
    for _ in range(10_000):
        ex = generate_example(lang, 0, 40, True, rng)
        assert lang.contains(list(ex.symbols)) == ex.label
        assert 0 <= len(ex.symbols) <= 40
        assert ex.text == lang.render(list(ex.symbols))
        if ex.label:
            n_pos += 1
            assert ex.next_sets is not None
            assert len(ex.next_sets) == len(ex.symbols) + 1
            assert EOS in ex.next_sets[-1]
        else:
            assert ex.next_sets is None
    # fair coin within 3 sigma of binomial(10000, 1/2)
    assert abs(n_pos - 5_000) <= 3 * 50


def test_generate_example_unannotated():
    lang = get_language("majority")
    rng = np.random.default_rng(4)
    for _ in range(50):
        ex = generate_example(lang, 0, 20, False, rng)
        assert ex.next_sets is None


def test_split_determinism():
    lang = get_language("marked-reversal")
    a = generate_split(lang, "val-short", 77, count=40, n_max=20)
    b = generate_split(lang, "val-short", 77, count=40, n_max=20)
    assert a == b
    c = generate_split(lang, "val-long", 77, count=40, n_max=20)
    assert [e.text for e in a.examples] != [e.text for e in c.examples]
    d = generate_split(lang, "val-short", 78, count=40, n_max=20)
    assert [e.text for e in a.examples] != [e.text for e in d.examples]


def test_split_defaults_and_overrides():
    lang = get_language("parity")
    split = generate_split(lang, "editdist-probe", 5)
    assert split.count == 50
    assert (split.n_min, split.n_max) == (0, 500)
    assert all(not ex.label for ex in split.examples)
    small = generate_split(lang, "train", 5, count=25, n_min=2, n_max=10)
    assert small.count == 25
    assert all(2 <= len(ex.symbols) <= 10 for ex in small.examples)


def test_standard_suite_shapes():
    lang = get_language("parity")
    suite = generate_standard_suite(lang, 123)
    expected = {
        "train": (10_000, 0, 40),
        "val-short": (1_000, 0, 40),
        "val-long": (1_000, 0, 80),
        "test-short": (1_000, 0, 40),
        "test-long": (5_010, 0, 500),
        "editdist-probe": (50, 0, 500),
    }
    assert set(suite) == set(expected)
    for role, (count, lo, hi) in expected.items():
        split = suite[role]
        assert split.count == count
        assert (split.n_min, split.n_max) == (lo, hi)
        assert all(lo <= len(ex.symbols) <= hi for ex in split.examples)
    seen = {
        ex.text
        for role in ("train", "val-short", "val-long")
        for ex in suite[role].examples
    }
    assert all(ex.text not in seen for ex in suite["test-short"].examples)
    n_pos = sum(ex.label for ex in suite["train"].examples)
    assert abs(n_pos - 5_000) <= 3 * 50
    for role in expected:
        assert validate_split(suite[role]) == []


def test_roundtrip(tmp_path):
    lang = get_language("majority")
    split = generate_split(lang, "val-short", 9, annotate=True, count=30, n_max=12)
    path = tmp_path / split_filename("majority", "val-short")
    write_split(split, path)
    assert read_split(path) == split
    # byte-identical across rewrites and regenerations
    first = path.read_bytes()
    write_split(split, path)
    assert path.read_bytes() == first
    again = generate_split(lang, "val-short", 9, annotate=True, count=30, n_max=12)
    write_split(again, path)
    assert path.read_bytes() == first


def test_next_field_rendering(tmp_path):
    lang = get_language("majority")
    split = generate_split(lang, "train", 1, annotate=True, count=5, n_max=8)
    path = tmp_path / "m.jsonl"
    write_split(split, path)
    lines = path.read_text().splitlines()
    import json

    for line in lines[1:]:
        record = json.loads(line)
        if record["label"] == 1:
            for cur in record["next"]:
                assert cur == sorted(set(cur) - {"</s>"}) + (
                    ["</s>"] if "</s>" in cur else []
                )


@pytest.mark.parametrize("annotate", [False, True], ids=["plain", "annotate"])
@pytest.mark.parametrize("name", LANGUAGE_NAMES)
def test_split_lines_match_the_json_dumps_writer(name, annotate):
    """The writer formats records itself; its lines are byte-equal to
    json.dumps with sorted keys and no whitespace, record by record."""
    split = generate_split(get_language(name), "val-long", 7, annotate=annotate, count=12)
    assert list(_split_lines(split)) == list(json_dumps_split_lines(split))


def test_split_lines_match_the_json_dumps_writer_on_edge_cases():
    empty = generate_split(get_language("parity"), "train", 1, annotate=True, count=0)
    assert list(_split_lines(empty)) == list(json_dumps_split_lines(empty))
    # non-ASCII glyphs are escaped as json.dumps escapes them
    mod = generate_split(get_language("modular-arithmetic"), "train", 3, annotate=True, count=40)
    assert any("\u00d7" in ex.text for ex in mod.examples)
    lines = list(_split_lines(mod))
    assert lines == list(json_dumps_split_lines(mod))
    assert all(line.isascii() for line in lines)
    assert any("\\u00d7" in line for line in lines[1:])
    # texts the generator never makes still escape alike
    odd = LabeledExample((), '"\\\x00\t\u2028\U0001f600', False)
    split = DatasetSplit("parity", "val-short", 0, 40, 0, [odd, odd])
    assert list(_split_lines(split)) == list(json_dumps_split_lines(split))


@pytest.mark.parametrize("name", ["parity", "marked-reversal", "dyck-2-3"])
def test_ids_are_checked_once_per_example(name, monkeypatch):
    """An annotated positive draw and the validation of each example check
    the word's ids once, shared by membership, next sets and text; a
    negative draw checks each attempt once, and its text shares the check
    of the attempt it keeps."""
    lang = get_language(name)
    split = generate_split(lang, "val-short", 4, annotate=True, count=40, n_max=12)
    assert any(ex.label for ex in split.examples)
    checks = 0
    ids = Alphabet.ids

    def counted(*args):
        nonlocal checks
        checks += 1
        return ids(*args)

    monkeypatch.setattr(Alphabet, "ids", counted)
    assert validate_split(split) == []
    assert checks == 40

    checks = 0
    ex = generate_example(lang, 0, 12, True, np.random.default_rng(9), label=True)
    assert checks == 1
    assert ex.text == lang.render(ex.symbols)
    assert ex.next_sets == tuple(lang.next_sets(ex.symbols))

    checks = 0
    attempts = sum(
        sample_negative(lang, 0, 12, np.random.default_rng(seed), return_info=True)[1].attempts
        for seed in range(100)
    )
    assert checks == attempts
    checks = 0
    negatives = [generate_example(lang, 0, 12, False, np.random.default_rng(seed), label=False)
                 for seed in range(100)]
    assert checks == attempts
    assert all(ex.text == lang.render(ex.symbols) for ex in negatives)


def test_validate_catches_tampering():
    lang = get_language("even-pairs")
    split = generate_split(lang, "val-short", 2, annotate=True, count=20, n_max=12)
    assert validate_split(split) == []

    flipped = DatasetSplit(
        split.language, split.role, split.n_min, split.n_max, split.seed,
        [
            LabeledExample(ex.symbols, ex.text, not ex.label, None)
            for ex in split.examples[:1]
        ],
    )
    problems = validate_split(flipped)
    assert len(problems) == 1 and "label" in problems[0]

    ex = split.examples[0]
    shrunk = DatasetSplit("even-pairs", "val-short", 0, 1, 2,
                          [e for e in split.examples if len(e.symbols) > 1][:1])
    assert any("length" in p for p in validate_split(shrunk))

    if any(e.label and e.next_sets for e in split.examples):
        pos = next(e for e in split.examples if e.label and e.next_sets)
        bad = LabeledExample(pos.symbols, pos.text, True,
                             (frozenset(),) * (len(pos.symbols) + 1))
        wrong = DatasetSplit("even-pairs", "val-short", 0, 12, 2, [bad])
        assert any("next sets" in p for p in validate_split(wrong))

    neg = LabeledExample((1,), "1", False, (frozenset({0}),) * 2)
    carried = DatasetSplit("repeat-01", "val-short", 0, 12, 2, [neg])
    assert any("negative" in p for p in validate_split(carried))

    unknown = DatasetSplit("no-such", "val-short", 0, 12, 2, [])
    assert validate_split(unknown)
    assert ex  # silence unused warning paths


def test_validate_judges_the_text_that_is_written(tmp_path):
    """write_split writes an example's text, not its symbols, so a text that
    spells other symbols, or does not tokenize, is a violation; spaces,
    which encode skips, are not."""
    def problems(*examples):
        return validate_split(DatasetSplit("parity", "train", 0, 40, 0, list(examples)))

    assert problems(LabeledExample((1,), " 1 ", True)) == []
    assert problems(LabeledExample((1,), "0", True)) == [
        "example 0: text '0' does not spell its symbols"]
    assert problems(LabeledExample((1,), "x", True)) == [
        "example 0: text 'x' does not spell its symbols"]
    # the file written for the first agrees: its text decides its symbols
    path = tmp_path / "parity.train.jsonl"
    write_split(DatasetSplit("parity", "train", 0, 40, 0, [LabeledExample((1,), "0", True)]), path)
    assert validate_split(read_split(path)) == ["example 0: label 1 but membership is 0"]


def test_read_errors(tmp_path):
    good = generate_split(get_language("parity"), "val-short", 1, count=3, n_max=10)
    path = tmp_path / "x.jsonl"

    def rewrite(mutate):
        write_split(good, path)
        lines = path.read_text().splitlines()
        mutate(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    rewrite(lambda lines: lines.__setitem__(2, "{not json"))
    with pytest.raises(ParseError) as err:
        read_split(path)
    assert err.value.line == 3

    rewrite(lambda lines: lines.__setitem__(2, '{"text":"1","label":' + "1" * 5000 + "}"))
    with pytest.raises(ParseError, match="bad record: Exceeds the limit") as err:
        read_split(path)
    assert err.value.line == 3

    rewrite(lambda lines: lines.__setitem__(2, "[" * 100_000 + "]" * 100_000))
    with pytest.raises(ParseError, match="bad record: maximum recursion depth") as err:
        read_split(path)
    assert err.value.line == 3

    rewrite(lambda lines: lines.__setitem__(1, '{"label":1}'))
    with pytest.raises(ParseError, match="text"):
        read_split(path)

    rewrite(lambda lines: lines.__setitem__(2, '{"text":"11","label":"yes"}'))
    with pytest.raises(ParseError, match="label"):
        read_split(path)

    rewrite(lambda lines: lines.__setitem__(3, '{"text":"2abc","label":0}'))
    with pytest.raises(ParseError, match="tokenize"):
        read_split(path)

    # only \n ends a line, so a raw U+2028 stays inside its record
    rewrite(lambda lines: lines.__setitem__(2, '{"text":"1\u20281","label":0}'))
    with pytest.raises(ParseError, match="tokenize") as err:
        read_split(path)
    assert err.value.line == 3

    rewrite(lambda lines: lines.pop())
    with pytest.raises(ParseError, match="line 1: header promises 3"):
        read_split(path)

    rewrite(lambda lines: lines.__setitem__(
        0, lines[0].replace("flgen-split-v1", "flgen-split-v0")))
    with pytest.raises(ParseError, match="format"):
        read_split(path)

    write_split(good, path)
    path.write_bytes(path.read_bytes().replace(b'"label"', b'"l\xe9bel"', 2))
    with pytest.raises(ParseError, match="not UTF-8") as err:
        read_split(path)
    assert err.value.line == 2

    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        read_split(path)

    header_only = (
        '{"count":0,"format":"flgen-split-v1","language":"parity","n_max":10,'
        '"role":"val-short"}'
    )
    path.write_text(header_only + "\n")
    with pytest.raises(ParseError, match="n_min"):
        read_split(path)


def test_crlf_split_reads_as_lf(tmp_path):
    good = generate_split(get_language("parity"), "val-short", 1, count=3, n_max=10)
    path = tmp_path / "x.jsonl"
    write_split(good, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_split(path) == good


def test_dedup_retry_and_exhaustion():
    lang = get_language("repeat-01")
    natural = generate_split(lang, "test-short", 3, count=5, n_max=6)
    forbidden = {natural.examples[0].text}
    deduped = generate_split(
        lang, "test-short", 3, count=5, n_max=6, forbidden=forbidden
    )
    assert deduped.examples[0].text not in forbidden
    assert deduped.examples[0] != natural.examples[0]
    assert generate_split(lang, "test-short", 3, count=5, n_max=6, forbidden=set()) == natural

    everything = {"", "0", "1", "00", "01", "10", "11"}
    with pytest.raises(GenerationError, match="no unseen negative example"):
        generate_split(
            lang, "test-short", 3, count=5, n_max=2,
            forbidden=everything,
        )


def test_write_failing_part_way_keeps_the_earlier_file(tmp_path, monkeypatch):
    """write_split goes through a temporary file and a rename, so a write
    that fails on the third record leaves the earlier file byte for byte and
    no temporary file behind."""
    lang = get_language("parity")
    path = tmp_path / "parity.val-short.jsonl"
    write_split(generate_split(lang, "val-short", 1, annotate=True, count=5), path)
    before = path.read_bytes()
    replacement = generate_split(lang, "val-short", 2, annotate=True, count=5)

    escape = dataset.encode_basestring_ascii
    calls = []

    def failing_escape(text):
        calls.append(text)
        if len(calls) == 3:  # the third record's text
            raise OSError(28, "No space left on device")
        return escape(text)

    monkeypatch.setattr(dataset, "encode_basestring_ascii", failing_escape)
    # the error names the destination, not the temporary file
    with pytest.raises(OSError, match=r"No space left on device: '.*/parity\.val-short\.jsonl'$"):
        write_split(replacement, path)
    monkeypatch.undo()
    assert len(calls) == 3
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_config_errors():
    lang = get_language("parity")
    with pytest.raises(ConfigurationError, match="unknown role"):
        generate_split(lang, "test", 0)
    with pytest.raises(ConfigurationError, match="seed"):
        generate_split(lang, "train", -1, count=1)


@pytest.mark.parametrize("settings, message", [
    ({"count": -5}, "train: negative count -5"),
    ({"n_min": 9, "n_max": 3}, r"train: bad length range \[9, 3\]"),
])
def test_generate_split_rejects_settings_no_generator_writes(settings, message):
    """A negative count or a range that is not 0 <= n_min <= n_max is a
    configuration error naming the role, not an empty split or a sampler's
    UsageError."""
    with pytest.raises(ConfigurationError, match=message):
        generate_split(get_language("parity"), "train", 0, **settings)


def test_role_table():
    assert [r[0] for r in ROLES.values()] == [0, 1, 2, 3, 4, 5]
    assert split_filename("dyck-2-3", "test-long") == "dyck-2-3.test-long.jsonl"


def test_split_settings_enforce_the_length_limit():
    """n_max may reach MAX_LENGTH but not pass it; the check alone runs, so
    no sampler table of that size is built."""
    assert split_settings("train", 0, 1, 0, MAX_LENGTH) == (1, 0, MAX_LENGTH)
    with pytest.raises(ConfigurationError, match=(
            f"^train: n_max {MAX_LENGTH + 1} is past the length limit "
            f"MAX_LENGTH = {MAX_LENGTH}$")):
        split_settings("train", 0, 1, 0, MAX_LENGTH + 1)


# seeds of one to seven uint32 words: 2**96 + 3 and 2**200 + 11 have more
# entropy words than the pool, which takes SeedSequence's extra mixing stage
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 3, 2**200 + 11]
CHUNK = dataset._SEED_CHUNK


def _derived(seed: int, role_id: int, start: int, stop: int) -> np.ndarray:
    return np.concatenate(list(_seed_rows(seed, role_id, start, stop)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("role_id", [r[0] for r in ROLES.values()])
def test_seed_rows_are_seed_sequence_words(seed, role_id):
    """Each derived row is SeedSequence's PCG64 seed for its index, on both
    sides of a chunk boundary and of 2**32, where the index takes a second
    word; the large indices go through the start index alone."""
    low = _derived(seed, role_id, 0, CHUNK + 2)
    high = _derived(seed, role_id, 2**32 - 1, 2**32 + 1)
    for index, row in [(0, low[0]), (CHUNK - 1, low[CHUNK - 1]), (CHUNK, low[CHUNK]),
                       (CHUNK + 1, low[CHUNK + 1]), (2**32 - 1, high[0]), (2**32, high[1])]:
        expected = np.random.SeedSequence([seed, role_id, index]).generate_state(4, np.uint64)
        assert row.tolist() == expected.tolist(), index


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start", [0, CHUNK - 1, 2**32 - 1])
def test_example_streams_draw_as_seed_sequence_streams(seed, start):
    """The first draws of each stream equal those of numpy's own
    SeedSequence route, which a row not contiguous in memory would miss."""
    for offset, rng in enumerate(_example_streams(seed, 4, start, start + 3)):
        oracle = example_rng(seed, 4, start + offset)
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert rng.integers(0, 2**63, 4).tolist() == oracle.integers(0, 2**63, 4).tolist()
        assert rng.random(3).tolist() == oracle.random(3).tolist()


def test_seed_rows_come_in_aligned_chunks():
    """No chunk crosses a multiple of _SEED_CHUNK, so memory stays per chunk
    and a chunk never straddles 2**32."""
    assert [len(rows) for rows in _seed_rows(1, 0, 250, 600)] == [6, CHUNK, 88]
    assert [len(rows) for rows in _seed_rows(1, 0, 2**32 - 2, 2**32 + 1)] == [2, 1]
    assert list(_seed_rows(1, 0, 7, 7)) == []
    assert all(rows.flags.c_contiguous for rows in _seed_rows(2**70, 3, 0, 300))


@pytest.mark.parametrize("language", ["dyck-2-3", "majority"])
def test_generate_split_across_chunks_equals_per_example_seeding(language):
    lang = get_language(language)
    count = 2 * CHUNK + 1
    split = generate_split(lang, "train", 5, annotate=True, count=count)
    assert split.examples == per_example_split(lang, "train", 5, annotate=True, count=count,
                                               n_min=0, n_max=40)


def test_dedup_retries_continue_the_per_example_stream():
    lang = get_language("parity")
    count = 2 * CHUNK + 1
    natural = generate_split(lang, "test-short", 8, count=count)
    forbidden = {ex.text for ex in natural.examples[::3]}
    deduped = generate_split(lang, "test-short", 8, count=count, forbidden=forbidden)
    assert deduped.examples == per_example_split(lang, "test-short", 8, annotate=False,
                                                 count=count, n_min=0, n_max=40,
                                                 forbidden=forbidden)
    moved = [i for i in range(count) if deduped.examples[i] != natural.examples[i]]
    assert moved and moved[-1] > 2 * CHUNK - 3
    assert generate_split(lang, "test-short", 8, count=0).examples == []
