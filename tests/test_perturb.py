"""Edit legality, edit distance to the start, branch behavior, and rejection loops."""

import numpy as np
import pytest

from flgen.automata import Alphabet
from flgen.errors import GenerationError, UsageError
from flgen.langlib import CheckedWord, get_language
from flgen.perturb import apply_edits, sample_edit_count, sample_negative

from .oracles import levenshtein

BITS = Alphabet(["0", "1"])


class StubLang:
    def __init__(self, alphabet, contains, sample_positive):
        self.alphabet = alphabet
        self._contains = contains
        self._sample = sample_positive

    def contains(self, symbols):
        return self._contains(symbols)

    def check(self, symbols):
        return CheckedWord(self, list(symbols))

    def sample_positive(self, n_min, n_max, rng):
        return self._sample(n_min, n_max, rng)


def even_length_lang():
    def sample(n_min, n_max, rng):
        lens = [n for n in range(n_min, n_max + 1) if n % 2 == 0]
        n = lens[int(rng.integers(len(lens)))]
        return [int(b) for b in rng.integers(2, size=n)]

    return StubLang(BITS, lambda w: len(w) % 2 == 0, sample)


def odd_popcount_lang():
    def sample(n_min, n_max, rng):
        n = int(rng.integers(max(n_min, 1), n_max + 1))
        bits = [int(b) for b in rng.integers(2, size=n - 1)]
        bits.append(1 - sum(bits) % 2)
        return bits

    return StubLang(BITS, lambda w: sum(w) % 2 == 1, sample)


def test_edit_count_support_and_rates():
    rng = np.random.default_rng(29)
    draws = np.array([sample_edit_count(rng) for _ in range(20_000)])
    assert draws.min() >= 1
    assert abs((draws == 1).mean() - 0.5) < 0.02
    assert abs((draws == 2).mean() - 0.25) < 0.02


def test_apply_edits_stays_in_range_and_within_k_edits():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n_min = int(rng.integers(0, 4))
        n_max = n_min + int(rng.integers(1, 8))
        start_len = int(rng.integers(n_min, n_max + 1))
        start = [int(b) for b in rng.integers(2, size=start_len)]
        k = int(rng.integers(1, 6))
        word = apply_edits(start, k, 2, n_min, n_max, rng)
        assert n_min <= len(word) <= n_max
        assert levenshtein(start, word) <= k


def test_apply_edits_respects_boundaries():
    """One edit reaches exactly the lengths its legal kinds allow: at n_max
    no insertion, from the empty word only insertion, at n_min no deletion."""
    rng = np.random.default_rng(37)
    for start, n_min, n_max, lengths in [
        ([0, 1, 0], 0, 3, {2, 3}),
        ([], 0, 5, {1}),
        ([0, 1], 2, 5, {2, 3}),
    ]:
        seen = {len(apply_edits(start, 1, 2, n_min, n_max, rng)) for _ in range(200)}
        assert seen == lengths


def test_apply_edits_never_replaces_over_unary_alphabet():
    """A replacement over one symbol would draw from an empty range and
    raise; insertions and deletions keep the word all zeros."""
    rng = np.random.default_rng(41)
    for _ in range(200):
        word = apply_edits([0, 0, 0], 2, 1, 0, 10, rng)
        assert word == [0] * len(word)


def test_apply_edits_replacement_changes_the_symbol():
    """At a fixed length only replacement is legal, and it changes exactly
    one position."""
    rng = np.random.default_rng(43)
    for _ in range(300):
        start = [int(b) for b in rng.integers(3, size=4)]
        word = apply_edits(start, 1, 3, 4, 4, rng)
        assert len(word) == 4
        assert sum(a != b for a, b in zip(start, word)) == 1


def test_apply_edits_error_cases():
    rng = np.random.default_rng(47)
    with pytest.raises(UsageError, match="no legal edit"):
        apply_edits([0, 0], 1, 1, 2, 2, rng)
    with pytest.raises(UsageError, match="outside range"):
        apply_edits([0, 0, 0], 1, 2, 0, 2, rng)


def test_sample_negative_rejected_and_in_range():
    lang = even_length_lang()
    rng = np.random.default_rng(53)
    for _ in range(300):
        word = sample_negative(lang, 0, 9, rng)
        assert not lang.contains(word)
        assert 0 <= len(word) <= 9
        assert all(0 <= s < 2 for s in word)


def test_sample_negative_is_deterministic_per_stream():
    lang = even_length_lang()

    def draws(seed):
        rng = np.random.default_rng(seed)
        return [sample_negative(lang, 0, 9, rng) for _ in range(20)]

    assert draws(57) == draws(57)
    assert draws(57) != draws(58)


def test_sample_negative_reports_both_branches():
    lang = even_length_lang()
    rng = np.random.default_rng(59)
    branches = set()
    for _ in range(200):
        word, info = sample_negative(lang, 0, 9, rng, return_info=True)
        branches.add(info.branch)
        assert info.attempts >= 1
    assert branches == {"uniform", "perturbation"}


def test_sample_negative_full_language_exhausts():
    lang = StubLang(
        BITS,
        lambda w: True,
        lambda n_min, n_max, rng: [int(b) for b in rng.integers(2, size=n_min)],
    )
    with pytest.raises(GenerationError, match="complement too small"):
        sample_negative(lang, 0, 4, np.random.default_rng(61))


@pytest.mark.parametrize("lang, n", [
    (get_language("dyck-2-3"), 0),
    (get_language("even-pairs"), 0),
    (get_language("unmarked-reversal"), 0),
    (StubLang(Alphabet(["a"]), lambda w: True, lambda n_min, n_max, rng: [0] * n_min), 3),
], ids=["dyck-2-3", "even-pairs", "unmarked-reversal", "one-glyph"])
def test_sample_negative_where_no_edit_stays_in_range_exhausts(lang, n):
    """Every word of length n is a member and no edit keeps a word at that
    length, so each perturbation is spent, as one with no base is."""
    with pytest.raises(GenerationError, match="complement too small"):
        sample_negative(lang, n, n, np.random.default_rng(71))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_min, n_max", [(5, 3), (-1, 3)])
def test_sample_negative_checks_the_range_before_any_draw(seed, n_min, n_max):
    lang = get_language("parity")
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    with pytest.raises(UsageError, match="bad length range"):
        sample_negative(lang, n_min, n_max, rng)
    assert rng.bit_generator.state == state


def test_uniform_branch_is_conditionally_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    lang = odd_popcount_lang()
    rng = np.random.default_rng(67)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(40_000):
        word, info = sample_negative(lang, 3, 3, rng, return_info=True)
        if info.branch == "uniform":
            counts[tuple(word)] = counts.get(tuple(word), 0) + 1
    # complement of odd-popcount within {0,1}^3: the four even-popcount words
    assert set(counts) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    result = scipy_stats.chisquare(list(counts.values()))
    assert result.pvalue > 0.001
