"""Alphabet handling, partial-DFA mechanics, trim checks, and weighted automata."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flgen.automata import (
    EOS,
    EPSILON,
    Alphabet,
    PartialDfa,
    Wfa,
    check_trim,
    compute_next_sets,
    dfa_accepts,
)
from flgen.editdist import (
    build_chain_wfa,
    edit_distance,
    shortest_allsum,
    wfa_intersect,
)
from flgen.errors import UsageError
from flgen.langlib import LANGUAGE_NAMES, get_language

from .oracles import BITS, first_dfa, lift_tropical, parity_dfa, repeat01_dfa, wfa_stringsum


def test_alphabet_round_trip_and_greedy_tokenization():
    ab = Alphabet(["0", "1", "POP", "PUSH", "="])
    ids = ab.encode("01011 POP PUSH0 PUSH1 = 101010")
    pop, push, eq = ab.encode("POP PUSH =")
    assert ids == [0, 1, 0, 1, 1, pop, push, 0, push, 1, eq, 1, 0, 1, 0, 1, 0]
    assert ab.encode(ab.decode(ids)) == ids


def test_alphabet_rejects_bad_input():
    with pytest.raises(UsageError):
        Alphabet([])
    with pytest.raises(UsageError):
        Alphabet(["0", "0"])
    with pytest.raises(UsageError):
        Alphabet(["a b"])
    ab = Alphabet(["0", "1"])
    with pytest.raises(UsageError):
        ab.encode("012")
    with pytest.raises(UsageError):
        ab.decode([0, 2])


@pytest.mark.parametrize("ids, bad", [
    ([0, 1, -1], -1),
    ([1, 0, 2], 2),
    ([0, 1, np.int64(2)], 2),
    ([0, 2, -1], 2),
    ([1, -1, 2], -1),
])
def test_decode_names_the_first_bad_id(ids, bad):
    with pytest.raises(UsageError) as err:
        BITS.decode(ids)
    assert str(err.value) == f"symbol id {bad} outside alphabet of size 2"


def test_every_alphabet_but_stack_manipulation_is_one_character():
    multi = {n for n in LANGUAGE_NAMES if not get_language(n).alphabet._one_char}
    assert multi == {"stack-manipulation"}


_FOREIGN = ["x", "\t", "\n", "ß", "</s>", "PUS", "P", "PO"]


@st.composite
def _alphabet_and_text(draw):
    alphabet = get_language(draw(st.sampled_from(sorted(LANGUAGE_NAMES)))).alphabet
    glyph = st.sampled_from(alphabet.glyphs)
    pieces = draw(st.lists(st.one_of(glyph, glyph, glyph, st.sampled_from([" ", "  "])),
                           max_size=30))
    for at, foreign in draw(st.lists(st.tuples(st.integers(0, len(pieces)),
                                               st.sampled_from(_FOREIGN)), max_size=2)):
        pieces.insert(at, foreign)
    return alphabet, "".join(pieces)


def _outcome(encode, text):
    try:
        return encode(text)
    except UsageError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_alphabet_and_text())
def test_one_character_lookup_agrees_with_greedy_tokenizing(case):
    """On every shipped alphabet, encode gives the greedy loop's ids, or its
    error, on glyphs mixed with spaces and foreign characters."""
    alphabet, text = case
    assert _outcome(alphabet.encode, text) == _outcome(alphabet._encode_greedy, text)


def test_parity_dfa_membership():
    dfa = parity_dfa()
    assert dfa_accepts(dfa, BITS.encode("11011001"))
    assert not dfa_accepts(dfa, [])
    assert dfa_accepts(dfa, [1])
    assert not dfa_accepts(dfa, [1, 1])


def test_partial_dfa_missing_transition_rejects():
    dfa = repeat01_dfa()
    assert dfa_accepts(dfa, [])
    assert dfa_accepts(dfa, BITS.encode("0101"))
    assert not dfa_accepts(dfa, [0])
    assert not dfa_accepts(dfa, BITS.encode("10"))


def test_dfa_accepts_rejects_foreign_symbols():
    with pytest.raises(UsageError):
        dfa_accepts(parity_dfa(), [0, 5])


_PARITY = get_language("parity")


def _product_route(word):
    dfa = _PARITY.dfa
    return shortest_allsum(wfa_intersect(lift_tropical(dfa), build_chain_wfa(word, dfa.alphabet)))


#: every entry point that takes symbol ids, each on parity
_ID_ENTRY_POINTS = {
    "LanguageSpec.check": lambda w: _PARITY.check(w).ids,
    "LanguageSpec.contains": _PARITY.contains,
    "LanguageSpec.next_sets": _PARITY.next_sets,
    "Alphabet.decode": _PARITY.alphabet.decode,
    "dfa_accepts": lambda w: dfa_accepts(_PARITY.dfa, w),
    "edit_distance": lambda w: edit_distance(_PARITY.dfa, w),
    "build_chain_wfa": _product_route,
}


@pytest.mark.parametrize("entry", sorted(_ID_ENTRY_POINTS))
def test_every_entry_point_checks_ids_alike(entry):
    """Every entry point that takes ids checks them as ``Alphabet.ids``
    does: a float raises TypeError rather than being truncated or used as
    an index, an id outside the alphabet raises UsageError, and numpy ints
    and bools give the answer of the equal ints, down to its repr."""
    call = _ID_ENTRY_POINTS[entry]
    for word in ([0, 1.0], [1.7, 0]):
        with pytest.raises(TypeError):
            call(word)
    for bad in (-1, len(_PARITY.alphabet)):
        with pytest.raises(UsageError):
            call([1, bad, 0])
    ints = [1, 0, 1, 1]
    want = repr(call(ints))
    assert repr(call([np.int64(s) for s in ints])) == want
    assert repr(call([bool(s) for s in ints])) == want


def test_transitions_from_is_sorted():
    dfa = PartialDfa(2, BITS, {(0, 1): 1, (0, 0): 0, (1, 1): 1}, 0, [1])
    assert dfa.transitions_from(0) == [(0, 0), (1, 1)]
    assert int((dfa.delta >= 0).sum()) == 3


def test_dfa_tables_are_read_only():
    """Tables derived from a DFA and kept per DFA cannot go stale."""
    dfa = parity_dfa()
    with pytest.raises(ValueError):
        dfa.delta[0, 0] = 1
    assert dfa_accepts(dfa, [1]) and not dfa_accepts(dfa, [1, 1])


def test_dfa_constructor_checks_symbols_and_states_as_indices():
    """Transition symbols go through ``Alphabet.ids`` and states through
    ``operator.index``: a bool symbol is the equal int rather than a numpy
    mask over the row, and a float symbol or state raises TypeError."""
    dfa = PartialDfa(2, BITS, {(0, True): 1}, 0, [1])
    assert dfa.rows == ((-1, 1), (-1, -1))
    for transitions, start, accepting in [
        ({(0, 1.0): 1}, 0, [1]),
        ({(0.0, 1): 1}, 0, [1]),
        ({(0, 1): 1.0}, 0, [1]),
        ({(0, 1): 1}, 0, [1.0]),
        ({(0, 1): 1}, 0.0, [1]),
    ]:
        with pytest.raises(TypeError):
            PartialDfa(2, BITS, transitions, start, accepting)


@pytest.mark.parametrize("n_states, transitions, start, accepting, message", [
    (0, {}, 0, [], "a DFA needs at least one state"),
    (2, {}, 2, [1], "start state 2 out of range"),
    (2, {}, -1, [1], "start state -1 out of range"),
    (2, {}, 0, [2], "accepting state 2 out of range"),
    (2, {(0, 1): 2}, 0, [1], "transition (0, 1, 2) out of range"),
    (2, {(2, 1): 0}, 0, [1], "transition (2, 1, 0) out of range"),
])
def test_dfa_constructor_rejects_states_out_of_range(
    n_states, transitions, start, accepting, message
):
    with pytest.raises(UsageError) as err:
        PartialDfa(n_states, BITS, transitions, start, accepting)
    assert str(err.value) == message


def test_check_trim_flags_unreachable_state():
    dfa = PartialDfa(3, BITS, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, 0, [1])
    ok, witness = check_trim(dfa)
    assert not ok and witness == 2


def test_check_trim_flags_dead_end_state():
    dfa = PartialDfa(2, BITS, {(0, 0): 1}, 0, [0])
    ok, witness = check_trim(dfa)
    assert not ok and witness == 1


def test_check_trim_accepts_live_dfa():
    assert check_trim(parity_dfa()) == (True, None)


def test_next_sets_on_trim_dfas():
    nxt = compute_next_sets(repeat01_dfa())
    assert nxt[0] == frozenset({0, EOS})
    assert nxt[1] == frozenset({1})
    nxt = compute_next_sets(first_dfa())
    assert nxt[0] == frozenset({1})
    assert nxt[1] == frozenset({0, 1, EOS})


def test_next_sets_requires_trim():
    dfa = PartialDfa(3, BITS, {(0, 0): 0, (0, 1): 1}, 0, [1])
    with pytest.raises(UsageError, match="state 2"):
        compute_next_sets(dfa)


def test_even_pairs_inline_dfa():
    # start (accepting), then one state per (first, last) symbol pair
    trans = {(0, 0): 1, (0, 1): 4}
    for first in (0, 1):
        for last in (0, 1):
            q = 1 + 2 * first + last
            for b in (0, 1):
                trans[(q, b)] = 1 + 2 * first + b
    dfa = PartialDfa(5, BITS, trans, 0, [0, 1, 4])
    assert dfa_accepts(dfa, BITS.encode("010110"))
    assert dfa_accepts(dfa, [])
    assert not dfa_accepts(dfa, BITS.encode("01"))


def test_wfa_stringsum_with_epsilon_chain():
    ab = Alphabet(["a"])
    wfa = Wfa(
        3,
        ab,
        [(0, EPSILON, 1.0, 1), (1, EPSILON, 1.0, 2), (0, 0, 0.0, 2), (2, 0, 1.0, 2)],
        0,
        [math.inf, math.inf, 0.0],
    )
    assert wfa_stringsum(wfa, []) == 2.0
    assert wfa_stringsum(wfa, [0]) == 0.0
    assert wfa_stringsum(wfa, [0, 0]) == 1.0


def test_wfa_unreachable_accept_is_infinite():
    ab = Alphabet(["a"])
    wfa = Wfa(2, ab, [], 0, [math.inf, 0.0])
    assert wfa_stringsum(wfa, []) == math.inf


def test_wfa_validates_arcs():
    ab = Alphabet(["a"])
    with pytest.raises(UsageError):
        Wfa(1, ab, [(0, 3, 0.0, 0)], 0, [0.0])
    with pytest.raises(UsageError):
        Wfa(1, ab, [(0, 0, 0.0, 4)], 0, [0.0])
