"""Split generation and serialization.

A dataset is six splits per language, each fully determined by
(language, master seed): every example draws from its own RNG stream keyed
by (master seed, split role, example index), so generation order — and even
concurrency — cannot change the output.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .automata import EOS, EOS_GLYPH
from .errors import ConfigurationError, GenerationError, ParseError, UsageError
from .langlib import LanguageSpec, get_language
from .perturb import sample_negative

FORMAT_VERSION = "flgen-split-v1"

# role -> (stream id, default count, default n_min, default n_max)
ROLES: dict[str, tuple[int, int, int, int]] = {
    "train": (0, 10_000, 0, 40),
    "val-short": (1, 1_000, 0, 40),
    "val-long": (2, 1_000, 0, 80),
    "test-short": (3, 1_000, 0, 40),
    "test-long": (4, 5_010, 0, 500),
    "editdist-probe": (5, 50, 0, 500),
}

# role -> the earlier splits whose texts it must not repeat
DEDUP_AGAINST: dict[str, tuple[str, ...]] = {"test-short": ("train", "val-short", "val-long")}

# the roles whose splits hold only negatives
NEGATIVES_ONLY = frozenset({"editdist-probe"})

DEFAULT_DEDUP_ATTEMPTS = 1_000

# the longest word a split may hold: a regular language's sampler table
# grows with it, and dyck-2-3's, the costliest, takes 0.26-0.37 s and 33 MB
# of peak RSS to build at this n_max (fresh process, 2 shared vCPUs)
MAX_LENGTH = 5_000

# required field -> its JSON type; a record's optional "next" is _NextSetIds's
HEADER_FIELDS = {"format": str, "language": str, "role": str,
                 "n_min": int, "n_max": int, "seed": int, "count": int}
RECORD_FIELDS = {"text": str, "label": int}


@dataclass(frozen=True)
class LabeledExample:
    symbols: tuple[int, ...]
    text: str
    label: bool
    next_sets: tuple[frozenset[int], ...] | None = None


@dataclass
class DatasetSplit:
    language: str
    role: str
    n_min: int
    n_max: int
    seed: int
    examples: list[LabeledExample]

    @property
    def count(self) -> int:
        return len(self.examples)


def split_settings(role: str, seed: int, count: int | None = None, n_min: int | None = None,
                   n_max: int | None = None) -> tuple[int, int, int]:
    """A split's (count, n_min, n_max), each unset value taken from ROLES.
    Raises ConfigurationError for what no generator writes: an unknown role,
    a negative seed or count, a range that is not 0 <= n_min <= n_max, or an
    n_max past MAX_LENGTH."""
    if role not in ROLES:
        raise ConfigurationError(f"unknown role {role!r}; known: {', '.join(ROLES)}")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    _role_id, default_count, default_min, default_max = ROLES[role]
    count = default_count if count is None else count
    n_min = default_min if n_min is None else n_min
    n_max = default_max if n_max is None else n_max
    if count < 0:
        raise ConfigurationError(f"{role}: negative count {count}")
    if not 0 <= n_min <= n_max:
        raise ConfigurationError(f"{role}: bad length range [{n_min}, {n_max}]")
    if n_max > MAX_LENGTH:
        raise ConfigurationError(f"{role}: n_max {n_max} is past the length limit "
                                 f"MAX_LENGTH = {MAX_LENGTH}")
    return count, n_min, n_max


# numpy's SeedSequence hash (O'Neill 2015, "Developing a seed_seq
# alternative"), in uint32 arithmetic, which wraps as numpy's C code does
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFF_FFFF
# the examples whose streams are seeded in one pass: a power of two, so that
# no aligned chunk holds both sides of a multiple of 2**32, where an index
# takes another word
_SEED_CHUNK = 1 << 8


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an int: its little-endian 32-bit words,
    one word for 0."""
    return [(n >> shift) & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _lanes(consts: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) pair of each lane as two column arrays."""
    xor, mult = zip(*consts)
    return np.array(xor, np.uint32)[:, None], np.array(mult, np.uint32)[:, None]


@functools.cache
def _hash_lanes(n_entropy: int) -> tuple:
    """The lane constants of each stage of SeedSequence's hash over
    ``n_entropy`` words, in the order the hash uses them: the pool's first
    hash, one set per pool word mixed into the others (its own lane
    unused), one set per entropy word past the pool, and the output hash of
    ``generate_state(4, np.uint64)``."""
    def chain(init, mult, steps):
        values = [init]
        for _ in range(steps):
            values.append(values[-1] * mult & _MASK32)
        return list(zip(values, values[1:]))

    steps = iter(chain(_INIT_A, _MULT_A, _POOL * (_POOL + max(n_entropy - _POOL, 0))))
    first = _lanes([next(steps) for _ in range(_POOL)])
    into_others = [_lanes([(0, 0) if dst == src else next(steps) for dst in range(_POOL)])
                   for src in range(_POOL)]
    past_pool = [_lanes([next(steps) for _ in range(_POOL)]) for _ in range(_POOL, n_entropy)]
    return first, into_others, past_pool, _lanes(chain(_INIT_B, _MULT_B, 2 * _POOL))


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each lane of ``words``, with that lane's
    constants."""
    words = words ^ xor
    words *= mult
    words ^= words >> _XSHIFT
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of ``y`` into ``x``, lane by lane."""
    mixed = x * _MIX_L - y * _MIX_R
    mixed ^= mixed >> _XSHIFT
    return mixed


def _seed_rows(master_seed: int, role_id: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """For the indices ``start`` to ``stop``, one aligned chunk of at most
    _SEED_CHUNK at a time, a C-contiguous (chunk size, 4) uint64 array whose
    row i is ``SeedSequence([master_seed, role_id, index]).generate_state(4,
    np.uint64)``.  Within a chunk only the index's low word varies, so
    SeedSequence's hash runs once per chunk, on lanes that each hold one
    entropy or pool word of every index."""
    head = _uint32_words(int(master_seed)) + _uint32_words(role_id)
    lo = start
    while lo < stop:
        hi = min(stop, (lo // _SEED_CHUNK + 1) * _SEED_CHUNK)
        words = head + _uint32_words(lo)
        first, into_others, past_pool, output = _hash_lanes(len(words))
        entropy = np.zeros((max(len(words), _POOL), hi - lo), np.uint32)
        entropy[:len(words)] = np.array(words, np.uint32)[:, None]
        entropy[len(head)] += np.arange(hi - lo, dtype=np.uint32)
        pool = _hash(entropy[:_POOL], *first)
        for src, consts in enumerate(into_others):
            mixed = _mix(pool, _hash(pool[src], *consts))
            mixed[src] = pool[src]
            pool = mixed
        for word, consts in zip(entropy[_POOL:], past_pool):
            pool = _mix(pool, _hash(word, *consts))
        state = _hash(np.concatenate((pool, pool)), *output)
        # PCG64 reads a row through its data pointer, so each row must be
        # contiguous; word pairs join low word first, as numpy joins them
        yield state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)
        lo = hi


@functools.cache
def _seed_words_type() -> type:
    """The ISeedSequence whose ``generate_state`` returns a row of
    ``_seed_rows``, which is what PCG64, its one caller, asks for.  It is
    made on first use, so that numpy.random loads only in a run that draws:
    ``validate``, ``editdist`` and ``stats`` never do."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("row",)

        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.row

    return SeedWords


def _example_streams(master_seed: int, role_id: int, start: int,
                     stop: int) -> Iterator[np.random.Generator]:
    """For each index from ``start`` to ``stop``, the Generator that
    ``default_rng(SeedSequence([master_seed, role_id, index]))`` gives, in
    the same state."""
    seed_words = _seed_words_type()
    for rows in _seed_rows(master_seed, role_id, start, stop):
        for row in rows:
            yield np.random.Generator(np.random.PCG64(seed_words(row)))


def generate_example(
    lang: LanguageSpec,
    n_min: int,
    n_max: int,
    annotate: bool,
    rng: np.random.Generator,
    label: bool | None = None,
) -> LabeledExample:
    """One labeled example: fair-coin label, then a string of that class.

    A caller that must redraw a colliding example passes the already-drawn
    ``label`` so retries resample only the string; redrawing the coin under
    rejection would bias labels toward whichever class has more unseen
    strings left."""
    if label is None:
        label = bool(rng.integers(2))
    if label:
        word = lang.check(lang.sample_positive(n_min, n_max, rng))
    else:
        word = sample_negative(lang, n_min, n_max, rng, checked=True)
    next_sets = tuple(word.next_sets()) if annotate and label else None
    return LabeledExample(tuple(word.ids), word.text(), label, next_sets)


def generate_split(
    lang: LanguageSpec,
    role: str,
    master_seed: int,
    *,
    annotate: bool = False,
    count: int | None = None,
    n_min: int | None = None,
    n_max: int | None = None,
    forbidden: set[str] | frozenset[str] = frozenset(),
) -> DatasetSplit:
    """``count`` examples of ``role``; ``split_settings`` fills and checks the
    settings.  Example i draws from the stream of
    ``default_rng(SeedSequence([master_seed, role id, i]))``, which
    ``_example_streams`` seeds a chunk of examples at a time, and one whose
    text is in ``forbidden`` is redrawn, with its label, from the rest of
    that stream."""
    count, n_min, n_max = split_settings(role, master_seed, count, n_min, n_max)
    streams = _example_streams(master_seed, ROLES[role][0], 0, count)
    examples: list[LabeledExample] = []
    for index, rng in enumerate(streams):
        # a negatives-only split's fixed label draws no coin
        label: bool | None = False if role in NEGATIVES_ONLY else None
        for _attempt in range(DEFAULT_DEDUP_ATTEMPTS):
            example = generate_example(lang, n_min, n_max, annotate, rng, label)
            label = example.label
            if example.text not in forbidden:
                break
        else:
            kind = "positive" if label else "negative"
            raise GenerationError(
                f"{lang.name}/{role}: no unseen {kind} example after "
                f"{DEFAULT_DEDUP_ATTEMPTS} attempts at index {index}"
            )
        examples.append(example)
    return DatasetSplit(lang.name, role, n_min, n_max, master_seed, examples)


def generate_standard_suite(
    lang: LanguageSpec,
    master_seed: int,
    *,
    annotate: bool = False,
) -> dict[str, DatasetSplit]:
    """All six splits at their default settings, in ROLES order."""
    splits: dict[str, DatasetSplit] = {}
    for role in ROLES:
        splits[role] = generate_split(lang, role, master_seed, annotate=annotate,
                                      forbidden=forbidden_texts(splits, role))
    return splits


def forbidden_texts(splits: dict[str, DatasetSplit], role: str) -> set[str]:
    """The texts ``role`` must not repeat: those of the earlier ``splits``
    that DEDUP_AGAINST names for it, and none for any other role."""
    return {ex.text for earlier in DEDUP_AGAINST.get(role, ()) for ex in splits[earlier].examples}


def split_filename(language: str, role: str) -> str:
    return f"{language}.{role}.jsonl"


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, then rename it
    over ``path``: a write that fails part way leaves any earlier file
    intact and no temporary file behind.  An OSError names ``path``, not
    the temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


class _NextSetJson(dict):
    """Each distinct next set of one file mapped to its JSON text, e.g.
    ``["0","1","</s>"]``, encoded on first use: the glyphs of its ids in
    ascending order, each through ``Alphabet.decode`` so that an id outside
    the alphabet raises UsageError, then ``</s>`` if it holds EOS."""

    def __init__(self, lang: LanguageSpec):
        super().__init__()
        self.decode = lang.alphabet.decode

    def __missing__(self, cur: frozenset[int]) -> str:
        glyphs = [self.decode([s]) for s in sorted(cur) if s != EOS]
        if EOS in cur:
            glyphs.append(EOS_GLYPH)
        encoded = self[cur] = json.dumps(glyphs, separators=(",", ":"))
        return encoded

    def join(self, next_sets: Iterable[frozenset[int]]) -> str:
        return ",".join(map(self.__getitem__, next_sets))


class _NextSetIds(dict):
    """Each distinct glyph tuple of one file's next fields mapped to its id
    set, parsed on first use: the reading twin of ``_NextSetJson``."""

    def __init__(self, lang: LanguageSpec):
        super().__init__()
        self.ids = {glyph: i for i, glyph in enumerate(lang.alphabet.glyphs)}
        self.ids[EOS_GLYPH] = EOS

    def __missing__(self, glyphs: tuple) -> frozenset[int]:
        ids = self[glyphs] = frozenset(map(self.ids.__getitem__, glyphs))
        return ids

    def parse(self, arrays, line_no: int) -> tuple[frozenset[int], ...]:
        """The next sets of the record on line ``line_no``.  A glyph that is
        not ``</s>`` or a str of the alphabet, unhashable ones included, is a
        lookup miss; the error names the record's first."""
        if type(arrays) is not list or not {list}.issuperset(map(type, arrays)):
            raise ParseError("next must be a list of lists of symbols", line_no)
        try:
            return tuple(map(self.__getitem__, map(tuple, arrays)))
        except (KeyError, TypeError):
            glyph = next(g for arr in arrays for g in arr
                         if type(g) is not str or g not in self.ids)
            raise ParseError(f"unknown symbol {glyph!r} in next field", line_no) from None


def _record_line(label: bool, text: str, nexts: str | None) -> str:
    """One record as ``write_split`` writes it, without its newline: the keys
    in the order sort_keys gives, the text escaped as json.dumps escapes
    strings, and ``nexts`` (None: no next field) from ``_NextSetJson.join``."""
    text = encode_basestring_ascii(text)
    if nexts is None:
        return f'{{"label":{int(label)},"text":{text}}}'
    return f'{{"label":{int(label)},"next":[{nexts}],"text":{text}}}'


def _split_lines(split: DatasetSplit) -> Iterator[str]:
    """The lines of a split file: a sorted-key header of HEADER_FIELDS, then one
    ``_record_line`` per example, the formatter ``is_canonical_split``
    compares each record line of a file with."""
    lang = get_language(split.language)
    header = {field: FORMAT_VERSION if field == "format" else getattr(split, field)
              for field in HEADER_FIELDS}
    yield json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    next_json = _NextSetJson(lang)
    for ex in split.examples:
        nexts = None if ex.next_sets is None else next_json.join(ex.next_sets)
        yield _record_line(ex.label, ex.text, nexts) + "\n"


def write_split(split: DatasetSplit, path) -> None:
    """Serialize a split, JSON-encoding each distinct next set once per file."""
    write_atomic(path, _split_lines(split))


def read_lines(path) -> list[str]:
    r"""The lines of a UTF-8 text file, split at ``\n`` only, so that U+2028,
    form feeds and the like stay inside their line; one trailing ``\r`` is
    dropped from each line.  Bytes that do not decode are a ParseError on
    their line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", line_no) from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _load(lines: list[str], line_no: int, fields: dict[str, type]) -> dict:
    """Line ``line_no`` (1-based) of ``lines`` as a JSON object holding each
    of ``fields`` with exactly its type, or a ParseError naming the line."""
    try:
        obj = json.loads(lines[line_no - 1])
    # a JSONDecodeError is a ValueError; so is an integer of more than
    # 4300 digits, and nesting deeper than the stack is a RecursionError
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad record: {getattr(exc, 'msg', exc)}", line_no) from exc
    if not isinstance(obj, dict):
        raise ParseError("record is not an object", line_no)
    for field, kind in fields.items():
        if field not in obj:
            raise ParseError(f"missing field {field!r}", line_no)
        if type(obj[field]) is not kind:  # so a bool is not an int
            raise ParseError(f"{field!r} must be {kind.__name__}, got {obj[field]!r}", line_no)
    return obj


def _read_header(lines: list[str]) -> tuple[dict, LanguageSpec]:
    """The header of a split file's ``lines`` and its language, checked in
    this order: the file is not empty, every HEADER_FIELDS field has its
    type, the format is FORMAT_VERSION, the language is known
    (ConfigurationError if not), and the count is the number of records."""
    if not lines:
        raise ParseError("empty split file", 1)
    header = _load(lines, 1, HEADER_FIELDS)
    if header["format"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format {header['format']!r}", 1)
    lang = get_language(header["language"])
    if len(lines) - 1 != header["count"]:
        raise ParseError(f"header promises {header['count']} examples, "
                         f"file has {len(lines) - 1}", 1)
    return header, lang


def read_split(path, lines: list[str] | None = None) -> DatasetSplit:
    """Parse the split file at ``path``; a caller that has already read it
    passes its ``lines`` so the file is read once."""
    if lines is None:
        lines = read_lines(path)
    header, lang = _read_header(lines)
    examples = []
    next_ids = _NextSetIds(lang)
    for line_no in range(2, len(lines) + 1):
        record = _load(lines, line_no, RECORD_FIELDS)
        if record["label"] not in (0, 1):
            raise ParseError(f"label must be 0 or 1, got {record['label']!r}", line_no)
        try:
            symbols = tuple(lang.alphabet.encode(record["text"]))
        except UsageError as exc:
            raise ParseError(f"cannot tokenize text: {exc}", line_no) from exc
        next_sets = None
        if "next" in record:
            next_sets = next_ids.parse(record["next"], line_no)
        examples.append(
            LabeledExample(symbols, record["text"], bool(record["label"]), next_sets)
        )
    return DatasetSplit(
        header["language"], header["role"], header["n_min"], header["n_max"],
        header["seed"], examples,
    )


def validate_split(split: DatasetSplit) -> list[str]:
    """Re-derive everything checkable about a split; returns human-readable
    violation descriptions, empty when the split is sound."""
    violations = []
    try:
        lang = get_language(split.language)
    except ConfigurationError as exc:
        return [str(exc)]
    # generate annotates every positive of a split or none of them
    annotated = any(ex.next_sets is not None for ex in split.examples)
    try:
        split_settings(split.role, split.seed, split.count, split.n_min, split.n_max)
    except ConfigurationError as exc:
        violations.append(f"header: {exc}")
    for idx, ex in enumerate(split.examples):
        where = f"example {idx}"
        if not split.n_min <= len(ex.symbols) <= split.n_max:
            violations.append(
                f"{where}: length {len(ex.symbols)} outside "
                f"[{split.n_min}, {split.n_max}]"
            )
        try:
            spelled = lang.alphabet.encode(ex.text) == list(ex.symbols)
        except UsageError:
            spelled = False
        if not spelled:
            violations.append(f"{where}: text {ex.text!r} does not spell its symbols")
        word = lang.check(ex.symbols)
        truth = word.contains()
        if truth != ex.label:
            violations.append(
                f"{where}: label {int(ex.label)} but membership is {int(truth)}"
            )
        if ex.next_sets is not None:
            if not ex.label:
                violations.append(f"{where}: negative example carries next sets")
            elif len(ex.next_sets) != len(ex.symbols) + 1:
                violations.append(
                    f"{where}: next has {len(ex.next_sets)} entries for "
                    f"{len(ex.symbols)} symbols"
                )
            else:
                expected = tuple(word.next_sets())
                if ex.next_sets != expected:
                    violations.append(f"{where}: next sets do not match re-derivation")
        elif annotated and ex.label:
            violations.append(f"{where}: positive example has no next sets in an annotated split")
    if split.role in NEGATIVES_ONLY and any(ex.label for ex in split.examples):
        violations.append(f"{split.role} split contains a positive example")
    return violations


def is_canonical_split(lines: list[str]) -> bool:
    """Whether the ``lines`` of a split file are exactly what ``write_split``
    writes for a sound split, checked as text.  True guarantees that
    ``read_split`` parses them and ``validate_split`` reports nothing:

    - the header passes ``_read_header``, the check ``read_split`` makes,
      and ``split_settings``;
    - every record line equals the ``_record_line`` of its own text, that
      text's membership label and, where the line carries next sets, their
      re-derivation;
    - every length is in range, a NEGATIVES_ONLY split holds no positive,
      and the first positive decides whether every positive carries next
      sets.

    Only the header is decoded as JSON.  It stops at the first record that
    differs and never raises: False means only that the file is not
    confirmed here, and the general path then words what is wrong, if
    anything is."""
    try:
        header, lang = _read_header(lines)
        split_settings(header["role"], header["seed"], header["count"],
                       header["n_min"], header["n_max"])
    except (ParseError, ConfigurationError):
        return False
    n_min, n_max = header["n_min"], header["n_max"]
    negatives_only = header["role"] in NEGATIVES_ONLY
    next_json = _NextSetJson(lang)
    annotated = None
    for line in lines[1:]:
        # a written text literal holds no unescaped quote, so the last
        # "text":" opens it
        try:
            text = scanstring(line, line.rfind('"text":"') + 8)[0]
            word = lang.check(lang.alphabet.encode(text))
        except (ValueError, UsageError):
            return False
        if not n_min <= len(word.ids) <= n_max:
            return False
        label = word.contains()
        nexts = None
        if label:
            if negatives_only:
                return False
            if annotated is None:
                annotated = line.startswith('{"label":1,"next":')
            if annotated:
                nexts = next_json.join(word.next_sets())
        if line != _record_line(label, text, nexts):
            return False
    return True
