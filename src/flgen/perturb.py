"""Negative examples: uniform strings mixed with randomly edited positives.

Each proposal flips a fair coin between (a) a fully uniform string over the
alphabet at a uniform length and (b) a positive sample hit with a geometric
number of random single-symbol edits, then keeps the result only if the
membership predicate rejects it.  Edits that would leave the length range,
or replacements over a one-letter alphabet, are never proposed.  An edited
word is returned as its symbols alone, and each negative gets a fixed budget
of ``DEFAULT_MAX_ATTEMPTS`` proposals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import require_range
from .errors import ConfigurationError, GenerationError, UsageError

INSERT = "insert"
REPLACE = "replace"
DELETE = "delete"

DEFAULT_MAX_ATTEMPTS = 10_000


@dataclass(frozen=True)
class NegativeInfo:
    """How an accepted negative was produced."""

    branch: str
    attempts: int


def sample_edit_count(rng: np.random.Generator) -> int:
    """Geometric with success probability 1/2 on support {1, 2, ...}."""
    return int(rng.geometric(0.5))


def _legal_kinds(length: int, n_symbols: int, n_min: int, n_max: int) -> list[str]:
    kinds = []
    if length + 1 <= n_max:
        kinds.append(INSERT)
    if length >= 1 and n_symbols >= 2:
        kinds.append(REPLACE)
    if length >= 1 and length - 1 >= n_min:
        kinds.append(DELETE)
    return kinds


def apply_edits(
    symbols: list[int],
    edit_count: int,
    n_symbols: int,
    n_min: int,
    n_max: int,
    rng: np.random.Generator,
) -> list[int]:
    """Apply ``edit_count`` sequential random edits, each drawn uniformly
    from the kinds that keep the length inside [n_min, n_max]."""
    if not n_min <= len(symbols) <= n_max:
        raise UsageError(
            f"start length {len(symbols)} outside range [{n_min}, {n_max}]"
        )
    word = list(symbols)
    for _ in range(edit_count):
        kinds = _legal_kinds(len(word), n_symbols, n_min, n_max)
        if not kinds:
            raise UsageError(
                f"no legal edit at length {len(word)} in range [{n_min}, {n_max}]"
            )
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == INSERT:
            pos = int(rng.integers(len(word) + 1))
            sym = int(rng.integers(n_symbols))
            word.insert(pos, sym)
        elif kind == REPLACE:
            pos = int(rng.integers(len(word)))
            sym = int(rng.integers(n_symbols - 1))
            if sym >= word[pos]:
                sym += 1
            word[pos] = sym
        else:
            del word[int(rng.integers(len(word)))]
    return word


def sample_negative(
    lang,
    n_min: int,
    n_max: int,
    rng: np.random.Generator,
    *,
    return_info: bool = False,
    checked: bool = False,
):
    """Draw one string in [n_min, n_max] that the language rejects.

    Every attempt re-flips the branch coin; a perturbation whose result is
    still a member restarts from scratch, and one in a range with no member
    or no edit ([0, 0]) is spent, so negatives need no member there.  With
    ``checked``, the string comes back as the ``CheckedWord`` that its
    membership test used, so its text needs no second id check.
    """
    require_range(n_min, n_max)
    n_symbols = len(lang.alphabet)
    # a wider range always allows an edit, a one-length range only a replacement
    stuck = n_min == n_max and not _legal_kinds(n_max, n_symbols, n_min, n_max)
    for attempt in range(1, DEFAULT_MAX_ATTEMPTS + 1):
        if int(rng.integers(2)) == 0:
            branch = "uniform"
            n = int(rng.integers(n_min, n_max + 1))
            word = rng.integers(n_symbols, size=n).tolist()
        else:
            branch = "perturbation"
            try:
                base = lang.sample_positive(n_min, n_max, rng)
            except ConfigurationError:  # raised before any draw
                continue
            if stuck:
                continue
            word = apply_edits(
                base, sample_edit_count(rng), n_symbols, n_min, n_max, rng
            )
        candidate = lang.check(word)
        if not candidate.contains():
            kept = candidate if checked else candidate.ids
            if return_info:
                return kept, NegativeInfo(branch, attempt)
            return kept
    raise GenerationError(
        f"complement too small: no rejected string in [{n_min}, {n_max}] "
        f"after {DEFAULT_MAX_ATTEMPTS} attempts"
    )
