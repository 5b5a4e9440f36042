"""Command-line entry points: dataset suite generation, edit-distance
reports, split validation, and per-language statistics.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 I/O failure.  All randomness flows from ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .dataset import (
    ROLES,
    DatasetSplit,
    forbidden_texts,
    generate_split,
    is_canonical_split,
    read_lines,
    read_split,
    split_filename,
    split_settings,
    validate_split,
    write_atomic,
    write_split,
)
from .editdist import edit_distance
from .errors import (
    ConfigurationError,
    GenerationError,
    ParseError,
    UsageError,
)
from .langlib import LanguageSpec, get_language

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CONFIG = 2
EXIT_IO = 3

MAX_REPORTED_VIOLATIONS = 20


def _parse_override(text: str) -> tuple[str, list[int]]:
    """ROLE=COUNT or ROLE=COUNT:MIN:MAX as (role, [count]) or (role, [count, min, max])."""
    role, sep, rest = text.partition("=")
    parts = rest.split(":") if sep else []
    try:
        if len(parts) in (1, 3):
            return role, [int(part) for part in parts]
    except ValueError:
        pass
    raise ConfigurationError(
        f"override {text!r} is not ROLE=COUNT or ROLE=COUNT:MIN:MAX"
    )


def _split_settings(args: argparse.Namespace) -> dict[str, tuple[int, int, int]]:
    """Every role's (count, n_min, n_max): the defaults in ROLES, then
    --min-len and --max-len, then each --override in order; split_settings
    fills the defaults and rejects what no generator writes."""
    given = (None, args.min_len, args.max_len)
    settings = dict.fromkeys(ROLES, given)
    for text in args.override:
        role, values = _parse_override(text)
        settings[role] = (*values, *settings.get(role, given)[len(values):])
    return {role: split_settings(role, args.seed, *asked) for role, asked in settings.items()}


# ---------------------------------------------------------------------------
# generate


def _generate_suite(
    lang: LanguageSpec,
    seed: int,
    settings: dict[str, tuple[int, int, int]],
    annotate: bool,
) -> dict[str, DatasetSplit]:
    """The six splits in ROLES order, with test-short deduplicated against
    the train and validation texts."""
    splits: dict[str, DatasetSplit] = {}
    for role, (count, n_min, n_max) in settings.items():
        splits[role] = generate_split(
            lang,
            role,
            seed,
            annotate=annotate,
            count=count,
            n_min=n_min,
            n_max=n_max,
            forbidden=forbidden_texts(splits, role),
        )
    return splits


def _summarize(split: DatasetSplit) -> str:
    if split.count == 0:
        return f"{split.role:<15} {0:>6}  {'-':>8}  -"
    positive = sum(ex.label for ex in split.examples) / split.count
    lengths = [len(ex.symbols) for ex in split.examples]
    return (
        f"{split.role:<15} {split.count:>6}  {positive:>8.3f}  "
        f"{min(lengths)}-{max(lengths)}"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    lang = get_language(args.language)
    settings = _split_settings(args)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    splits = _generate_suite(lang, args.seed, settings, args.annotate)
    print(f"{'split':<15} {'count':>6}  {'positive':>8}  lengths")
    for role, split in splits.items():
        write_split(split, args.out / split_filename(lang.name, role))
        print(_summarize(split))
    return EXIT_OK


# ---------------------------------------------------------------------------
# editdist


def _read_input_strings(path: Path, language: str) -> list[tuple[int, str]]:
    """(line number, text) pairs: a generated split file of ``language``
    contributes its example texts; anything else is treated as one input
    string per line."""
    lines = read_lines(path)
    if lines and lines[0].startswith("{"):
        split = read_split(path, lines)
        if split.language != language:
            raise ConfigurationError(
                f"{path} is a {split.language} split, but --language is {language}"
            )
        return list(enumerate((ex.text for ex in split.examples), start=2))
    return list(enumerate(lines, start=1))


def cmd_editdist(args: argparse.Namespace) -> int:
    lang = get_language(args.language)
    if lang.dfa is None:
        print(
            f"error: edit distance requires a regular language; "
            f"{lang.name} is {lang.class_label}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    lines = []
    for line_no, text in _read_input_strings(args.input, lang.name):
        try:
            symbols = lang.parse(text)
        except UsageError as exc:
            raise ParseError(str(exc), line_no) from None
        result = edit_distance(lang.dfa, symbols)
        lines.append(f"{result.distance}\t{lang.render(result.witness)}\t{text}")
    report = "\n".join(lines) + ("\n" if lines else "")
    if args.out is None:
        sys.stdout.write(report)
    else:
        write_atomic(args.out, [report])
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def cmd_validate(paths: list[Path]) -> int:
    violations = []
    for path in paths:
        try:
            lines = read_lines(path)
            if is_canonical_split(lines):
                continue
            split = read_split(path, lines)
        except ParseError as exc:
            violations.append(f"{path}: {exc}")
            continue
        violations.extend(f"{path}: {v}" for v in validate_split(split))
    if violations:
        for line in violations[:MAX_REPORTED_VIOLATIONS]:
            print(line)
        extra = len(violations) - MAX_REPORTED_VIOLATIONS
        if extra > 0:
            print(f"... and {extra} more")
        return EXIT_INVALID
    print(f"{len(paths)} file(s) pass")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats


def _format_lengths(lengths: tuple[int, ...]) -> str:
    if not lengths:
        return "none"
    runs = []
    start = prev = lengths[0]
    for n in lengths[1:]:
        if n == prev + 1:
            prev = n
            continue
        runs.append((start, prev))
        start = prev = n
    runs.append((start, prev))
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def cmd_stats(name: str) -> int:
    lang = get_language(name)
    print(f"language: {lang.name}")
    print(f"class: {lang.class_label}")
    print(f"alphabet ({len(lang.alphabet)}): {' '.join(lang.alphabet.glyphs)}")
    if lang.dfa is None:
        print("membership: procedural")
        return EXIT_OK
    print(f"dfa states: {lang.dfa.n_states}")
    tables = lang.sampler_tables(0, 40)
    print(f"valid lengths [0,40]: {_format_lengths(tables.valid_lengths)}")
    for n_max in (80, 500):  # widening the table, as generate does
        t0 = time.perf_counter()
        lang.sampler_tables(0, n_max)
        print(f"preprocessing n_max={n_max}: {time.perf_counter() - t0:.2f}s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flgen",
        description="Formal-language benchmark dataset generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write the six dataset splits")
    gen.add_argument("--language", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, default=Path("."))
    gen.add_argument("--min-len", type=int, default=None)
    gen.add_argument("--max-len", type=int, default=None)
    gen.add_argument("--annotate", action="store_true",
                     help="emit valid next-symbol sets on positive examples")
    gen.add_argument("--override", action="append", default=[],
                     metavar="ROLE=COUNT[:MIN:MAX]",
                     help="reshape one split (repeatable)")

    ed = sub.add_parser("editdist", help="distance-to-language report")
    ed.add_argument("--language", required=True)
    ed.add_argument("input", type=Path,
                    help="split file or plain text, one string per line")
    ed.add_argument("--out", type=Path, default=None)

    val = sub.add_parser("validate", help="re-derive labels and annotations")
    val.add_argument("paths", nargs="+", type=Path)

    st = sub.add_parser("stats", help="print language statistics")
    st.add_argument("language")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "editdist":
            return cmd_editdist(args)
        if args.command == "validate":
            return cmd_validate(args.paths)
        return cmd_stats(args.language)
    except (ConfigurationError, UsageError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
