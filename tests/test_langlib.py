"""Language registry tests: golden membership lists, dual-oracle agreement
for the regular languages, sampler invariants, and next-set checks."""

import numpy as np
import pytest

from flgen.automata import EOS, dfa_accepts
from flgen.errors import ConfigurationError, UsageError
from flgen.langlib import (
    LANGUAGE_NAMES,
    REGULAR_NAMES,
    _decode_le,
    get_language,
)
from flgen.lcsampler import build_sampler_tables, sample_positive_regular
from flgen.perturb import apply_edits, sample_negative

from .oracles import OLD_BINARY_SAMPLERS, bounded_next_oracle, old_next_set_walker

# Hand-checked positive/negative example strings per language.  Each entry
# was re-verified against the membership definition before freezing.
GOLDEN = {
    "even-pairs": (
        ["", "0", "11", "010100", "11101101"],
        ["01", "10100", "100110"],
    ),
    "repeat-01": (
        ["", "01", "0101"],
        ["0", "10101", "011001"],
    ),
    "parity": (
        ["1", "01011"],
        ["", "101110"],
    ),
    "cycle-navigation": (
        ["0", ">=>><2", "<=<>=<3", ">=>==<1"],
        ["3", ">=>><4", "<=<>=<", "4=31<"],
    ),
    "modular-arithmetic": (
        ["3=3", "2+4+0-3=3", "1-3×2=1"],
        ["", "1=4", "2+4+0-3=2", "1-3×2=0", "-1=4", "=×3+-0+"],
    ),
    "dyck-2-3": (
        ["", "([])", "[()]", "([()]())[()]"],
        ["](]))[(]", "([]", "[(])", "([(())]())[()]", ")][("],
    ),
    "first": (
        ["1", "101110"],
        ["", "0", "0111010"],
    ),
    "majority": (
        ["1", "110", "011011010"],
        ["", "001", "1100"],
    ),
    "stack-manipulation": (
        [
            "=",
            "01011 POP PUSH0 PUSH1 = 101010",
            "11 POP PUSH0 = 01",
            "01 POP POP PUSH0 PUSH1 = 10",
        ],
        [
            "",
            "01011 POP PUSH0 PUSH1 = 010101",
            "11 = POP PUSH = 01",
            "01 POP POP POP PUSH0 PUSH1 = 10",
        ],
    ),
    "marked-reversal": (
        ["#", "011#110", "0#0", "01001#10010"],
        ["", "011#101101", "011#11", "0#11#110#", "011110"],
    ),
    "unmarked-reversal": (
        ["", "011110", "00", "0100110010"],
        ["1", "01110", "011100", "11110"],
    ),
    "marked-copy": (
        ["#", "011#011", "0#0", "01001#01001"],
        ["", "011#01", "011011", "0##11#01#1"],
    ),
    "missing-duplicate": (
        ["_1", "001000_0", "11_01001110100"],
        ["", "00100_10", "11101001110100", "_01_1_00"],
    ),
    "odds-first": (
        ["#", "1#1", "010101#000111", "0101010#0000111", "10011011#10110101"],
        ["", "010101#000110", "010101000111", "0#1##"],
    ),
    "binary-addition": (
        ["0+0=0", "001+1=101", "001000+100=1010000", "101+01011=11111", "1+11=001"],
        ["", "+=", "001+1=011", "100+1=101", "0011101", "=0+10=1+"],
    ),
    "binary-multiplication": (
        ["0×0=0", "001×11=0011", "001000×1100=0011000", "1001×0111=0111111"],
        ["", "×=", "001×11=1011", "100×1010=0101000", "0011101", "=0×10=1×"],
    ),
    "compute-sqrt": (
        ["0=0", "00101=001", "00101000=00100"],
        ["", "=", "0=11=1"],
    ),
    "bucket-sort": (
        ["#", "4512345#1234455", "31204124#01122344", "41#14"],
        ["", "4512345#1434255", "31204124#0112", "1#2##12"],
    ),
}

GOLDEN_CASES = [
    (name, text, expected)
    for name, (pos, neg) in GOLDEN.items()
    for text, expected in [(t, True) for t in pos] + [(t, False) for t in neg]
]


@pytest.mark.parametrize(
    "name,text,expected",
    GOLDEN_CASES,
    ids=[f"{n}-{'pos' if e else 'neg'}-{i}" for i, (n, t, e) in enumerate(GOLDEN_CASES)],
)
def test_golden_membership(name, text, expected):
    lang = get_language(name)
    assert lang.contains(lang.parse(text)) is expected


@pytest.mark.parametrize(
    "name,text",
    [
        ("binary-addition", "110+01=10100"),  # little-endian 3 + 2 = 5
        ("compute-sqrt", "01010=1100"),  # x = 10, isqrt = 3, trailing zero
        ("modular-arithmetic", "1-3×2=1"),  # left-assoc (1-3)*2 = -4 = 1 mod 5
    ],
)
def test_verified_example_rows(name, text):
    lang = get_language(name)
    assert lang.contains(lang.parse(text))


def test_documented_corrections():
    # These strings are excluded from the golden lists above because the
    # source lists misclassify them; the true classifications are pinned here.
    mult = get_language("binary-multiplication")
    # little-endian x=3, y=2, z=6: a correct member despite being flagged.
    assert mult.contains(mult.parse("110×0100=011"))
    sqrt = get_language("compute-sqrt")
    # x=6 -> isqrt 2 = "01"; the listed classifications are swapped.
    assert not sqrt.contains(sqrt.parse("011=11"))
    assert sqrt.contains(sqrt.parse("011=01"))


EXPECTED_DFA_SIZES = {
    "parity": 2,
    "repeat-01": 2,
    "first": 2,
    "even-pairs": 5,
    "cycle-navigation": 6,
    "dyck-2-3": 15,
    "modular-arithmetic": 27,
}


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_dfa_shapes(name):
    dfa = get_language(name).dfa
    assert dfa.n_states == EXPECTED_DFA_SIZES[name]


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_dual_oracle_regular(name):
    """dfa_accepts and the independent predicate agree on random strings,
    both uniform noise and single-edit corruptions of members."""
    lang = get_language(name)
    dfa = lang.dfa
    n_syms = len(lang.alphabet)
    rng = np.random.default_rng(404 + hash(name) % 1000)
    for i in range(10_000):
        if i % 2 == 0:
            n = int(rng.integers(0, 13))
            word = [int(s) for s in rng.integers(0, n_syms, size=n)]
        else:
            word = lang.sample_positive(0, 16, rng)
            if word and rng.integers(2):
                pos = int(rng.integers(len(word)))
                word[pos] = int(rng.integers(n_syms))
        assert dfa_accepts(dfa, word) == lang.contains(word), word
    assert repr(lang).endswith(", regular)>")


@pytest.mark.parametrize("name", LANGUAGE_NAMES)
def test_sampler_soundness(name):
    lang = get_language(name)
    rng = np.random.default_rng(7)
    for _ in range(300):
        word = lang.sample_positive(0, 40, rng)
        assert 0 <= len(word) <= 40
        assert lang.contains(word)


@pytest.mark.parametrize(
    "name",
    [
        "parity", "marked-reversal", "binary-addition", "bucket-sort",
        "missing-duplicate", "stack-manipulation", "compute-sqrt",
    ],
)
def test_sampler_narrow_range(name):
    lang = get_language(name)
    rng = np.random.default_rng(11)
    for _ in range(150):
        word = lang.sample_positive(7, 9, rng)
        assert 7 <= len(word) <= 9
        assert lang.contains(word)


@pytest.mark.parametrize("name", LANGUAGE_NAMES)
def test_sampler_determinism(name):
    lang = get_language(name)
    draws_a = [lang.sample_positive(0, 30, np.random.default_rng(99)) for _ in range(1)]
    rng_a, rng_b = np.random.default_rng(1234), np.random.default_rng(1234)
    a = [lang.sample_positive(0, 30, rng_a) for _ in range(40)]
    b = [lang.sample_positive(0, 30, rng_b) for _ in range(40)]
    assert a == b
    assert draws_a  # keep the warm-up draw from being optimized away


def test_majority_singleton_range():
    lang = get_language("majority")
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert lang.sample_positive(1, 1, rng) == [1]


def test_marked_reversal_shape():
    lang = get_language("marked-reversal")
    rng = np.random.default_rng(5)
    for _ in range(100):
        word = lang.sample_positive(0, 21, rng)
        assert len(word) % 2 == 1
        assert word[len(word) // 2] == 2
        assert word[: len(word) // 2][::-1] == word[len(word) // 2 + 1:]


def test_stack_manipulation_structure():
    lang = get_language("stack-manipulation")
    rng = np.random.default_rng(21)
    for _ in range(200):
        word = lang.sample_positive(0, 40, rng)
        assert lang.contains(word)
        # replay the action part and confirm no POP ever hits an empty stack
        depth = 0
        i = 0
        while word[i] <= 1:
            depth += 1
            i += 1
        while word[i] != 4:
            if word[i] == 2:
                assert depth > 0
                depth -= 1
                i += 1
            else:
                assert word[i] == 3
                depth += 1
                i += 2


def test_binary_addition_bulk():
    lang = get_language("binary-addition")
    rng = np.random.default_rng(31)
    lengths = set()
    for _ in range(100_000):
        word = lang.sample_positive(5, 40, rng)
        lengths.add(len(word))
        assert lang.contains(word)
    assert lengths == set(range(5, 41))


@pytest.mark.parametrize("name", sorted(OLD_BINARY_SAMPLERS))
@pytest.mark.parametrize("n_min, n_max", [(5, 5), (5, 6), (0, 40), (0, 500)])
def test_shared_binary_sampler_matches_the_old_samplers(name, n_min, n_max):
    """binary-addition and binary-multiplication share one sampler; it
    returns what each one's own sampler did, draw for draw, and leaves the
    stream where that sampler left it."""
    lang, old = get_language(name), OLD_BINARY_SAMPLERS[name]
    for seed in range(4):
        rng, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            assert lang.sample_positive(n_min, n_max, rng) == old(n_min, n_max, rng_old)
            assert rng.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("name", [n for n in LANGUAGE_NAMES if n not in REGULAR_NAMES])
def test_procedural_samplers_raise_before_any_draw_or_return_members_in_range(name):
    """perturb's contract with a procedural sampler: on every range it
    either raises ConfigurationError with the stream untouched, so the
    attempt is spent, or returns members whose lengths lie in the range."""
    lang = get_language(name)
    rng = np.random.default_rng(37)
    for n_min in range(25):
        for n_max in range(n_min, 25):
            state = rng.bit_generator.state
            try:
                words = [lang.sample_positive(n_min, n_max, rng) for _ in range(3)]
            except ConfigurationError:
                assert rng.bit_generator.state == state, (n_min, n_max)
                continue
            for word in words:
                assert n_min <= len(word) <= n_max and lang.contains(word), (n_min, n_max)


def test_decode_le_matches_the_bitwise_loop():
    """The linear decoder agrees with the old one-bit-at-a-time loop on
    random little-endian operands: empty, all zeros, with trailing zeros
    (high zero bits) and up to 3,000 bits long."""

    def bitwise(bits):
        out = 0
        for i, b in enumerate(bits):
            out |= int(b) << i
        return out

    rng = np.random.default_rng(2_024)
    cases = [[], [0], [1], [0, 0, 0], [1, 0, 0], [0, 1, 0, 0, 0]]
    for n in [*range(1, 40), 64, 65, 500, 3_000]:
        bits = rng.integers(2, size=n).tolist()
        cases += [bits, bits + [0] * int(rng.integers(1, 5)), [0] * n]
    for bits in cases:
        assert _decode_le(bits) == bitwise(bits), bits


@pytest.mark.parametrize("name", LANGUAGE_NAMES)
def test_next_sets_vs_completion_oracle(name):
    lang = get_language(name)
    rng = np.random.default_rng(17)
    for _ in range(6):
        word = lang.sample_positive(0, 14, rng)
        sets = lang.next_sets(word)
        assert len(sets) == len(word) + 1
        for t in range(len(word) + 1):
            mismatches = bounded_next_oracle(
                lang, word[:t], sets[t], member_suffix=word[t:]
            )
            assert not mismatches, (word, t, mismatches)


@pytest.mark.parametrize("name", LANGUAGE_NAMES)
def test_next_sets_eos_matches_membership(name):
    lang = get_language(name)
    n_syms = len(lang.alphabet)
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(0, 10))
        word = [int(s) for s in rng.integers(0, n_syms, size=n)]
        assert (EOS in lang.next_sets(word)[-1]) == lang.contains(word)


def test_next_sets_frozen_examples():
    def sets_of(name, text):
        lang = get_language(name)
        return lang.next_sets(lang.parse(text))

    assert sets_of("majority", "1")[-1] == {0, 1, EOS}
    assert sets_of("marked-reversal", "01#")[-1] == {1}
    assert sets_of("unmarked-reversal", "00")[-1] == {0, 1, EOS}
    assert sets_of("parity", "")[-1] == {0, 1}
    assert sets_of("even-pairs", "")[-1] == {0, 1, EOS}
    assert sets_of("repeat-01", "")[-1] == {0, EOS}
    assert sets_of("cycle-navigation", "")[-1] == {0, 1, 2, 3}
    assert sets_of("dyck-2-3", "(((")[-1] == {1}
    # forced result digits of 4+1=5 (little-endian "101")
    add = sets_of("binary-addition", "001+1=101")
    assert add[6] == {1} and add[7] == {0} and add[8] == {1}
    assert add[9] == {0, EOS}
    stack = get_language("stack-manipulation")
    assert stack.next_sets([])[0] == {0, 1, 3, 4}
    assert stack.next_sets([0])[1] == {0, 1, 2, 3, 4}
    assert stack.next_sets([0, 2])[2] == {3, 4}
    assert stack.next_sets([3])[1] == {0, 1}
    mdup = get_language("missing-duplicate")
    assert mdup.next_sets([2, 2])[2] == frozenset()
    assert mdup.next_sets([1, 2])[2] == {0, 1, EOS}


def _short_words(n_symbols, rng, cap=300):
    """Every word of length at most 5, or ``cap`` distinct ones at random at
    a length that has more."""
    for n in range(6):
        total = n_symbols ** n
        picks = range(total) if total <= cap else rng.choice(total, size=cap, replace=False)
        for index in picks:
            yield [int(index) // n_symbols ** i % n_symbols for i in range(n)]


# words that end where a walker changes state: a second blank, odd-length
# palindromes, trailing zeros and then a 1 after a sum, a stack suffix that
# breaks after "="; each maps to the next sets of its last three prefixes
NEXT_SET_HAND_CASES = {
    "missing-duplicate": {"1_1_": [{0, 1, EOS}, {0, 1}, set()],
                          "0_01_0": [{0, 1, EOS}, set(), set()]},
    "unmarked-reversal": {"010": [{0, 1}, {0, 1}, {0, 1}],
                          "0110": [{0, 1}, {0, 1}, {0, 1, EOS}]},
    "binary-addition": {"001+1=10100": [{0, EOS}, {0, EOS}, {0, EOS}],
                        "001+1=101001": [{0, EOS}, {0, EOS}, set()]},
    "stack-manipulation": {"01 PUSH1 = 110": [{1}, {0}, {EOS}],
                           "01 PUSH1 = 1101": [{0}, {EOS}, set()],
                           "01 PUSH1 = 10": [{1}, {1}, set()]},
}


@pytest.mark.parametrize("name", [n for n in LANGUAGE_NAMES if n not in REGULAR_NAMES])
def test_next_sets_match_the_old_walkers(name):
    lang = get_language(name)
    old = old_next_set_walker(lang)
    n_syms = len(lang.alphabet)
    rng = np.random.default_rng(41)
    words = list(_short_words(n_syms, rng))
    for n_max, count in ((12, 60), (40, 60), (500, 15)):
        for _ in range(count):
            member = lang.sample_positive(0, n_max, rng)
            edits = int(rng.integers(1, 4))
            words.append(member)
            words.append(apply_edits(member, edits, n_syms, 0, n_max, rng))
            words.append(sample_negative(lang, 0, n_max, rng))
    for text, last_three in NEXT_SET_HAND_CASES.get(name, {}).items():
        word = lang.parse(text)
        assert lang.next_sets(word)[-3:] == last_three, text
        words.append(word)
    for word in words:
        assert lang.next_sets(word) == old(word), word


def test_infeasible_ranges():
    cases = [
        ("binary-addition", 0, 4),
        ("compute-sqrt", 1, 2),
        ("majority", 0, 0),
        ("marked-reversal", 0, 0),
        ("unmarked-reversal", 1, 1),
        ("missing-duplicate", 1, 1),
        ("stack-manipulation", 4, 4),
        ("repeat-01", 3, 3),
    ]
    rng = np.random.default_rng(0)
    for name, lo, hi in cases:
        with pytest.raises(ConfigurationError):
            get_language(name).sample_positive(lo, hi, rng)


def test_procedural_language_has_no_sampler_tables():
    with pytest.raises(UsageError, match="majority is procedural and has no sampler tables"):
        get_language("majority").sampler_tables(0, 40)


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_shared_table_serves_narrow_range_exactly(name):
    lang = get_language(name)
    wide = lang.sampler_tables(0, 500)
    narrow = lang.sampler_tables(0, 40)
    assert narrow.pushed is wide.pushed
    assert (narrow.n_min, narrow.n_max) == (0, 40)
    fresh = build_sampler_tables(lang.dfa, 0, 40)
    assert narrow.valid_lengths == fresh.valid_lengths
    assert all(w.rows[:41] == f.rows for w, f in zip(wide.pushed, fresh.pushed))
    for seed in range(3):
        rng_shared, rng_fresh = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            assert (sample_positive_regular(narrow, rng_shared)
                    == sample_positive_regular(fresh, rng_fresh))


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_wider_horizon_reuses_the_narrow_rows(name, monkeypatch):
    lang = get_language(name)
    monkeypatch.setattr(lang, "_tables", None)
    monkeypatch.setattr(lang, "_ranges", {})
    narrow = lang.sampler_tables(0, 40)
    wide = lang.sampler_tables(0, 500)
    for n, w in zip(narrow.pushed, wide.pushed):
        assert len(n.rows) == 41 and len(w.rows) == 501
        assert all(a is b for a, b in zip(w.rows[:41], n.rows))


def test_out_of_alphabet_symbols():
    with pytest.raises(UsageError):
        get_language("parity").contains([0, 2])
    with pytest.raises(UsageError):
        get_language("bucket-sort").contains([7])
    with pytest.raises(UsageError):
        get_language("parity").next_sets([-1])


@pytest.mark.parametrize("name", ["parity", "bucket-sort"])
@pytest.mark.parametrize("call", ["contains", "next_sets", "check"])
def test_out_of_alphabet_message_names_the_first_bad_id(name, call):
    lang = get_language(name)
    n = len(lang.alphabet)
    for ids, bad in [([0, 1, -1], -1), ([1, 0, n], n), ([0, 1, np.int64(n)], n),
                     ([0, n, -1], n), ([1, -1, n], -1)]:
        with pytest.raises(UsageError) as err:
            getattr(lang, call)(ids)
        assert str(err.value) == f"symbol id {bad} outside the {name} alphabet of size {n}"
    with pytest.raises(TypeError):  # an id must be an integer, not a float
        getattr(lang, call)([0, 1.0])


def test_registry():
    assert len(LANGUAGE_NAMES) == 18
    assert len(REGULAR_NAMES) == 7
    classes = {}
    for name in LANGUAGE_NAMES:
        classes.setdefault(get_language(name).class_label, []).append(name)
    assert len(classes["R"]) == 7
    assert len(classes["DCF"]) == 3
    assert classes["CF"] == ["unmarked-reversal"]
    assert len(classes["CS"]) == 7
    assert get_language("parity") is get_language("parity")
    with pytest.raises(ConfigurationError):
        get_language("no-such-language")


@pytest.mark.parametrize("name", LANGUAGE_NAMES)
def test_parse_render_roundtrip(name):
    lang = get_language(name)
    rng = np.random.default_rng(13)
    for _ in range(20):
        word = lang.sample_positive(0, 30, rng)
        assert lang.parse(lang.render(word)) == word


def test_multiglyph_tokenization():
    lang = get_language("stack-manipulation")
    ids = lang.parse("01011 POP PUSH0 PUSH1 = 101010")
    assert len(ids) == 17
    assert ids[5] == 2 and ids[6] == 3


def test_uniform_branch_conditional_uniformity():
    """Conditioned on the uniform proposal branch and a fixed length, the
    negatives are uniform over the complement slice."""
    stats = pytest.importorskip("scipy.stats")
    lang = get_language("parity")
    rng = np.random.default_rng(2024)
    counts = {}
    for _ in range(100_000):
        word, info = sample_negative(lang, 3, 3, rng, return_info=True)
        if info.branch == "uniform":
            counts[tuple(word)] = counts.get(tuple(word), 0) + 1
    complement = [w for w in counts if sum(w) % 2 == 0]
    assert len(complement) == 4  # even-popcount length-3 strings
    observed = [counts[w] for w in sorted(counts)]
    assert len(observed) == 4
    assert stats.chisquare(observed).pvalue > 0.001
