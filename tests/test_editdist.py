"""Edit-distance tests: the column DP against the product reference route,
brute-force enumeration and the per-column witness oracle; the reference
route's chain automaton against a direct Levenshtein oracle, tropical
lifting, product composition and allsum."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from flgen import editdist
from flgen.automata import Alphabet, PartialDfa, Wfa, dfa_accepts
from flgen.editdist import (
    EditDistanceResult,
    build_chain_wfa,
    edit_distance,
    shortest_allsum,
    wfa_intersect,
)
from flgen.errors import UsageError
from flgen.langlib import REGULAR_NAMES, get_language
from flgen.perturb import apply_edits, sample_negative

from .oracles import (
    BITS,
    batch_min_levenshtein,
    enumerate_members,
    levenshtein,
    lift_tropical,
    wagner_column_dp,
    wfa_stringsum,
)

LANGS = ["repeat-01", "parity", "even-pairs", "dyck-2-3"]
SRC = Path(__file__).resolve().parent.parent / "src"


def _random_word(rng, n_syms, max_len, min_len=0):
    n = int(rng.integers(min_len, max_len + 1))
    return [int(s) for s in rng.integers(n_syms, size=n)]


def _mixed_pool(lang, rng, count, max_len):
    """Half random noise, half members with a chance of one edit applied."""
    pool = []
    n_syms = len(lang.alphabet)
    for i in range(count):
        if i % 2 == 0:
            pool.append(_random_word(rng, n_syms, max_len))
        else:
            word = lang.sample_positive(0, max_len, rng)
            if int(rng.integers(2)):
                word = apply_edits(word, 1, n_syms, 0, max_len, rng)
            pool.append(list(word))
    return pool


# ---------------------------------------------------------------------------
# chain automaton


def test_chain_empty_input_costs_full_deletion():
    chain = build_chain_wfa([0, 1, 0], BITS)
    assert wfa_stringsum(chain, []) == 3.0


def test_chain_frozen_stringsums():
    chain = build_chain_wfa([0, 1], BITS)
    assert wfa_stringsum(chain, [0, 1]) == 0.0
    assert wfa_stringsum(chain, [1, 1]) == 1.0
    assert wfa_stringsum(chain, [0]) == 1.0
    assert wfa_stringsum(chain, [0, 1, 1]) == 1.0


def test_chain_shape():
    word = [0, 1, 1, 0]
    chain = build_chain_wfa(word, BITS)
    assert chain.n_states == 5
    assert chain.start == 0
    assert chain.accept_weights[:4] == [math.inf] * 4
    assert chain.accept_weights[4] == 0.0
    n, n_syms = len(word), len(BITS)
    # per position: one match, one deletion, n_syms - 1 substitutions;
    # per state: n_syms insertion self-loops.
    assert len(chain.arcs) == n * (n_syms + 1) + (n + 1) * n_syms


def test_chain_stringsum_is_levenshtein():
    rng = default_rng(7341)
    for _ in range(250):
        w = _random_word(rng, 2, 6)
        u = _random_word(rng, 2, 6)
        chain = build_chain_wfa(w, BITS)
        assert wfa_stringsum(chain, u) == levenshtein(u, w)


def test_chain_rejects_foreign_symbols():
    with pytest.raises(UsageError):
        build_chain_wfa([0, 5], BITS)


# ---------------------------------------------------------------------------
# lifting and product


def test_lift_parity_weights():
    dfa = get_language("parity").dfa
    lifted = lift_tropical(dfa)
    assert lifted.n_states == dfa.n_states
    assert lifted.start == dfa.start
    for q in range(dfa.n_states):
        expected = 0.0 if dfa.is_accepting(q) else math.inf
        assert lifted.accept_weights[q] == expected
        for sym, dst in dfa.transitions_from(q):
            assert lifted.transitions[(q, sym)] == (dst, 0.0)
    assert len(lifted.transitions) == sum(
        len(dfa.transitions_from(q)) for q in range(dfa.n_states)
    )


def test_product_with_universal_acceptor_is_chain():
    universal = PartialDfa(1, BITS, {(0, 0): 0, (0, 1): 0}, 0, [0])
    rng = default_rng(912)
    for _ in range(40):
        w = _random_word(rng, 2, 5)
        u = _random_word(rng, 2, 5)
        chain = build_chain_wfa(w, BITS)
        product = wfa_intersect(lift_tropical(universal), chain)
        assert wfa_stringsum(product, u) == wfa_stringsum(chain, u)


def test_product_frozen_parity_example():
    parity = get_language("parity").dfa
    product = wfa_intersect(lift_tropical(parity), build_chain_wfa([0, 0], BITS))
    assert wfa_stringsum(product, [0, 0, 1]) == 1.0


def test_product_rejects_mismatched_alphabets():
    dyck = get_language("dyck-2-3")
    with pytest.raises(UsageError):
        wfa_intersect(lift_tropical(dyck.dfa), build_chain_wfa([0], BITS))


# ---------------------------------------------------------------------------
# allsum


def test_allsum_start_accepting():
    wfa = Wfa(1, BITS, [], 0, [0.0])
    assert shortest_allsum(wfa) == EditDistanceResult(0, ())


def test_allsum_single_arc():
    wfa = Wfa(2, BITS, [(0, 1, 3.0, 1)], 0, [math.inf, 0.0])
    result = shortest_allsum(wfa)
    assert result.distance == 3
    assert result.witness == (1,)


def test_allsum_unreachable_accept():
    wfa = Wfa(1, BITS, [], 0, [math.inf])
    assert shortest_allsum(wfa) == EditDistanceResult(math.inf, None)


# ---------------------------------------------------------------------------
# end-to-end


def _probes(lang, rng, count=10, max_len=500):
    """The empty word, then ``count`` probes over length strata of
    [0, max_len]: uniform strings and members with 1-3 random edits, in turn."""
    n_syms = len(lang.alphabet)
    probes = [[]]
    for i in range(count):
        lo, hi = max_len * i // count, max_len * (i + 1) // count
        if i % 2 == 0:
            probes.append(_random_word(rng, n_syms, hi, min_len=lo))
        else:
            member = lang.sample_positive(lo, hi, rng)
            word = apply_edits(member, int(rng.integers(1, 4)), n_syms, 0, max_len, rng)
            probes.append(word)
    return probes


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_column_dp_matches_product_reference(name):
    """On every shipped DFA the column DP gives the product route's distance
    on probes of up to 500 symbols, and its witness is a member at exactly
    that distance."""
    lang = get_language(name)
    rng = default_rng(70_000 + len(name))
    lifted = lift_tropical(lang.dfa)
    for word in _probes(lang, rng):
        result = edit_distance(lang.dfa, word)
        reference = shortest_allsum(wfa_intersect(lifted, build_chain_wfa(word, lang.alphabet)))
        assert result.distance == reference.distance
        assert dfa_accepts(lang.dfa, result.witness)
        assert levenshtein(result.witness, word) == result.distance


# DFAs whose shape the shipped ones do not cover: a self-loop at the start, a
# start without incoming arcs that does not accept, and two accepting states
# that tie for the empty word
EDGE_DFAS = {
    "start-self-loop": PartialDfa(2, BITS, {(0, 0): 0, (0, 1): 1, (1, 1): 1, (1, 0): 0}, 0, [1]),
    "no-arcs-into-start": PartialDfa(
        3, BITS, {(0, 0): 1, (0, 1): 2, (1, 1): 2, (2, 0): 1, (2, 1): 2}, 0, [2]),
    "tied-accepting": PartialDfa(3, BITS, {(0, 0): 2, (0, 1): 1, (1, 0): 2, (2, 1): 1}, 0, [1, 2]),
}


def test_witness_matches_column_oracle():
    """The automaton's DP reports the same distance and witness as the
    per-column DP that records each move: on every word of length <= 4 over
    each shipped alphabet, 20 seeded words of length 0-500 per language, and
    every word of length <= 7 on the edge-case DFAs."""
    rng = default_rng(7_007)
    cases = []
    for name in REGULAR_NAMES:
        dfa = get_language(name).dfa
        n_syms = len(dfa.alphabet)
        cases += [(dfa, w) for n in range(5) for w in itertools.product(range(n_syms), repeat=n)]
        cases += [(dfa, _random_word(rng, n_syms, 500)) for _ in range(20)]
    for dfa in EDGE_DFAS.values():
        cases += [(dfa, w) for n in range(8) for w in itertools.product(range(2), repeat=n)]
    for dfa, word in cases:
        assert edit_distance(dfa, word) == wagner_column_dp(dfa, word), (dfa.alphabet, word)


def test_every_short_word_on_edge_dfas_matches_column_oracle():
    """Every word of length 0-9 on each edge-case shape, so each shape's
    automaton meets every column that a short word reaches, and every move
    back from it."""
    for dfa in EDGE_DFAS.values():
        for n in range(10):
            for word in itertools.product(range(2), repeat=n):
                assert edit_distance(dfa, word) == wagner_column_dp(dfa, word), word


def test_fixed_length_words_match_column_oracle():
    """On every shipped DFA, three seeded random words at every length 0 to
    34; on each edge-case shape, every word of length <= 12; on a
    one-symbol alphabet, every word of length 0 to 49."""
    rng = default_rng(3_141)
    for name in REGULAR_NAMES:
        dfa = get_language(name).dfa
        for n in range(35):
            for _ in range(3):
                word = _random_word(rng, len(dfa.alphabet), n, min_len=n)
                assert edit_distance(dfa, word) == wagner_column_dp(dfa, word), (name, word)
    for dfa in EDGE_DFAS.values():
        for n in range(13):
            for word in itertools.product(range(2), repeat=n):
                assert edit_distance(dfa, word) == wagner_column_dp(dfa, word), word
    even = PartialDfa(2, Alphabet(["a"]), {(0, 0): 1, (1, 0): 0}, 0, [0])
    for n in range(50):
        assert edit_distance(even, [0] * n) == wagner_column_dp(even, [0] * n), n


# start -0-> A with a 0-loop, start -1-> B with a 1-loop: the gap between the
# entries of A and B grows with the word, so nearly every position makes a
# new column
DIVERGING = PartialDfa(3, BITS, {(0, 0): 1, (1, 0): 1, (0, 1): 2, (2, 1): 2}, 0, [1, 2])


def test_diverging_columns_match_column_oracle():
    """Exact where the columns never repeat: every word of length <= 11,
    0^N 1^(2N) for N = 5, 50 and 500, and seeded words of up to 300
    symbols."""
    words = [list(w) for n in range(12) for w in itertools.product(range(2), repeat=n)]
    words += [[0] * n + [1] * (2 * n) for n in (5, 50, 500)]
    rng = default_rng(2_718)
    words += [_random_word(rng, 2, 300) for _ in range(40)]
    for word in words:
        assert edit_distance(DIVERGING, word) == wagner_column_dp(DIVERGING, word), word


def test_clipped_start_entry_matches_column_oracle():
    """A start with no incoming arcs: its entry is the word's length, far
    above the clip once the word is long, yet the distance, the witness and
    the held columns stay as the oracle and the clip say; every word of
    length <= 8 agrees on three small such shapes; on the language {ε},
    every word is deleted whole."""
    # {ε} ∪ 0(0|1)*: the start accepts, so the final choice reads its entry
    zero_first = PartialDfa(2, BITS, {(0, 0): 1, (1, 0): 1, (1, 1): 1}, 0, [0, 1])
    sealed = [zero_first, EDGE_DFAS["no-arcs-into-start"], get_language("modular-arithmetic").dfa]
    rng = default_rng(1_985)
    for dfa in sealed:
        n_syms = len(dfa.alphabet)
        words = [[1] * 1_000, [1] + [0] * 999]
        words += [_random_word(rng, n_syms, 300) for _ in range(30)]
        for word in words:
            assert edit_distance(dfa, word) == wagner_column_dp(dfa, word), word
    # without the clip, 1^1000 alone would make 1,000 columns
    assert len(editdist._AUTOMATA[zero_first].cols) <= 4
    assert edit_distance(zero_first, [1]) == EditDistanceResult(1, ())  # the start wins the tie
    assert edit_distance(zero_first, [1] * 1_000) == EditDistanceResult(1, (0,) + (1,) * 999)
    # small shapes on which a clip to (the largest other entry) + 1 would
    # take an arc out of the start that only ties, and so a wrong witness
    for arcs, accepting in [({(0, 0): 1, (0, 1): 1, (1, 0): 1}, [1]),
                            ({(0, 0): 1, (0, 1): 2, (1, 1): 2, (2, 1): 1}, [2]),
                            ({(0, 0): 1, (1, 0): 2, (1, 1): 1, (2, 0): 2}, [1, 2])]:
        dfa = PartialDfa(1 + max(arcs.values()), BITS, arcs, 0, accepting)
        for n in range(9):
            for word in itertools.product(range(2), repeat=n):
                assert edit_distance(dfa, word) == wagner_column_dp(dfa, word), (arcs, word)
    epsilon = PartialDfa(1, BITS, {}, 0, [0])
    for n in (0, 1, 7, 1_000):
        assert edit_distance(epsilon, [1] * n) == EditDistanceResult(n, ())
        assert edit_distance(epsilon, [1] * n) == wagner_column_dp(epsilon, [1] * n)


def test_reset_between_words_changes_no_result(monkeypatch):
    """With the column cap at 3, the automata of the larger DFAs start again
    before nearly every word, and every word still matches the oracle."""
    resets = []
    reset = editdist._Automaton.reset

    def counted(auto):
        resets.append(auto)
        reset(auto)

    monkeypatch.setattr(editdist, "_MAX_COLUMNS", 3)
    monkeypatch.setattr(editdist._Automaton, "reset", counted)
    rng = default_rng(1_974)
    for dfa in (get_language("dyck-2-3").dfa, get_language("modular-arithmetic").dfa, DIVERGING):
        before = len(resets)
        for _ in range(40):
            word = _random_word(rng, len(dfa.alphabet), 60)
            assert edit_distance(dfa, word) == wagner_column_dp(dfa, word), word
        assert len(resets) - before >= 20


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_long_word_peak_memory_per_symbol():
    """One 20,000-symbol modular-arithmetic word raises the peak RSS by at
    most 128 B per symbol: the word's ids and one column code per position,
    16 B, the columns and moves it adds to the automaton, and nothing else
    that grows with the word.  It runs in a child process, after a short
    word has set up the automaton, so that neither this process's peak nor
    the one-off set-up counts.  The child reads its peak as VmHWM, the
    high-water mark of its own address space: Linux starts an exec'd
    child's ``ru_maxrss`` at its parent's size, which would hide the growth
    whenever this process is the larger."""
    code = textwrap.dedent("""\
        from numpy.random import default_rng
        from flgen.editdist import edit_distance
        from flgen.langlib import get_language

        def peak_kib():
            with open("/proc/self/status") as status:
                return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

        dfa = get_language("modular-arithmetic").dfa
        word = default_rng(20_000).integers(len(dfa.alphabet), size=20_000).tolist()
        edit_distance(dfa, word[:100])
        before = peak_kib()
        edit_distance(dfa, word)
        print((peak_kib() - before) * 1024 / len(word))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 128


def test_long_word_matches_column_oracle():
    """The "no path" sentinel does not depend on the word: 5,000 symbols."""
    dfa = get_language("modular-arithmetic").dfa
    word = _random_word(default_rng(5_000), len(dfa.alphabet), 5_000, min_len=5_000)
    assert edit_distance(dfa, word) == wagner_column_dp(dfa, word)


def test_tables_are_built_once_per_dfa(monkeypatch):
    build, built = editdist._Automaton, []

    def counted(dfa):
        built.append(dfa)
        return build(dfa)

    monkeypatch.setattr(editdist, "_Automaton", counted)
    first, second = (PartialDfa(2, BITS, {(0, 0): 1, (1, 1): 0}, 0, [0]) for _ in range(2))
    assert edit_distance(first, [0]) == EditDistanceResult(1, ())
    assert edit_distance(first, [1, 1, 0]) == EditDistanceResult(2, (0, 1))
    assert built == [first]
    assert edit_distance(second, [1]) == EditDistanceResult(1, (0, 1))
    assert built == [first, second]


def test_edge_dfa_frozen_examples():
    # the empty word is one insertion from both accepting states; the lower id wins
    assert edit_distance(EDGE_DFAS["tied-accepting"], []) == EditDistanceResult(1, (1,))
    # reading 0s at the start costs nothing along its self-loop
    assert edit_distance(EDGE_DFAS["start-self-loop"], [0, 0, 0]) == EditDistanceResult(1, (0, 0, 1))
    assert edit_distance(EDGE_DFAS["no-arcs-into-start"], [0]) == EditDistanceResult(1, (1,))


def test_pipeline_frozen_examples():
    rep = get_language("repeat-01")
    result = edit_distance(rep.dfa, rep.alphabet.encode("0"))
    # deleting the 0 and inserting a 1 after it both cost 1; an insertion
    # wins only when strictly cheaper
    assert result == EditDistanceResult(1, ())

    # into the accepting state, the 1-arc from state 0 (substituting the
    # last 0) ties with and comes before the 0-arc from state 1 (a match
    # after substituting the first 0)
    parity = get_language("parity")
    result = edit_distance(parity.dfa, parity.alphabet.encode("00"))
    assert result == EditDistanceResult(1, tuple(parity.alphabet.encode("01")))

    dyck = get_language("dyck-2-3")
    result = edit_distance(dyck.dfa, dyck.alphabet.encode("[(])"))
    assert result == EditDistanceResult(2, tuple(dyck.alphabet.encode("[]()")))


def test_members_have_distance_zero():
    rng = default_rng(4242)
    for name in LANGS:
        lang = get_language(name)
        for _ in range(20):
            word = lang.sample_positive(0, 16, rng)
            result = edit_distance(lang.dfa, word)
            assert result.distance == 0
            assert result.witness == tuple(word)


def test_distance_zero_iff_member():
    rng = default_rng(31337)
    for name in LANGS:
        lang = get_language(name)
        n_syms = len(lang.alphabet)
        for _ in range(60):
            word = _random_word(rng, n_syms, 8)
            result = edit_distance(lang.dfa, word)
            assert (result.distance == 0) == lang.contains(word)


@pytest.mark.parametrize("name", LANGS)
def test_matches_brute_force(name):
    lang = get_language(name)
    rng = default_rng(60_000 + len(name))
    pool = _mixed_pool(lang, rng, 80, max_len=6)
    results = [edit_distance(lang.dfa, w) for w in pool]
    bound = max(len(w) + r.distance for w, r in zip(pool, results))
    members = enumerate_members(lang.dfa, int(bound))
    for word, result in zip(pool, results):
        # any member strictly closer than the reported distance would be
        # shorter than the enumeration bound, so the minimum is exact.
        assert batch_min_levenshtein(tuple(word), members) == result.distance
        assert dfa_accepts(lang.dfa, result.witness)
        assert levenshtein(result.witness, word) == result.distance


def test_distance_bounded_by_rebuild_cost():
    """d(L, w) can never beat deleting w and inserting a shortest member."""
    rng = default_rng(2718)
    for name in LANGS:
        lang = get_language(name)
        shortest = min(len(m) for m in enumerate_members(lang.dfa, 4))
        n_syms = len(lang.alphabet)
        for _ in range(50):
            word = _random_word(rng, n_syms, 10)
            result = edit_distance(lang.dfa, word)
            assert result.distance <= len(word) + shortest


def test_single_edit_shifts_distance_by_at_most_one():
    rng = default_rng(1618)
    for name in ["parity", "dyck-2-3"]:
        lang = get_language(name)
        n_syms = len(lang.alphabet)
        for _ in range(80):
            word = _random_word(rng, n_syms, 10, min_len=1)
            before = edit_distance(lang.dfa, word).distance
            edited = apply_edits(word, 1, n_syms, 0, 12, rng)
            after = edit_distance(lang.dfa, edited).distance
            assert abs(before - after) <= 1


def test_dyck_negatives_cluster_near_the_language():
    """Over many sampled negatives a large share sits within two edits of
    membership, so the discrimination task stays hard."""
    lang = get_language("dyck-2-3")
    rng = default_rng(20240822)
    near = 0
    draws = 10_000
    for _ in range(draws):
        word = sample_negative(lang, 0, 12, rng)
        d = edit_distance(lang.dfa, word).distance
        assert d >= 1
        if d in (1, 2):
            near += 1
    assert near / draws > 0.30


# ---------------------------------------------------------------------------
# validation


def test_untrimmed_dfa_rejected():
    dfa = PartialDfa(2, BITS, {(0, 0): 0, (0, 1): 0}, 0, [0])
    with pytest.raises(UsageError):
        edit_distance(dfa, [0])
    with pytest.raises(UsageError):  # no automaton was kept from the first call
        edit_distance(dfa, [])


def test_out_of_alphabet_symbol_rejected():
    parity = get_language("parity")
    with pytest.raises(UsageError):
        edit_distance(parity.dfa, [0, 9])
    with pytest.raises(UsageError):  # not an OverflowError from a fixed-width cast
        edit_distance(parity.dfa, [0, 2**63])


def test_ids_must_be_integers():
    """Ids are checked as ``LanguageSpec.contains`` checks them: a float
    raises rather than being truncated, and numpy integers are accepted."""
    parity = get_language("parity")
    with pytest.raises(TypeError):
        edit_distance(parity.dfa, [1.5, 0])
    with pytest.raises(TypeError):
        parity.contains([1.5, 0])
    ids = np.array([1, 0, 0], dtype=np.int64)
    assert edit_distance(parity.dfa, ids) == edit_distance(parity.dfa, [1, 0, 0])
    assert edit_distance(parity.dfa, list(ids)) == EditDistanceResult(0, (1, 0, 0))
