"""Finite automata: alphabets, partial DFAs, and weighted machines.

States are dense integers.  Symbols are dense integer ids into an
``Alphabet`` that maps them to printable glyphs; the end-of-string marker
``EOS`` lives outside every alphabet and renders as ``"</s>"``.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import UsageError

EOS = -1
EOS_GLYPH = "</s>"

#: transition label for an epsilon move in a nondeterministic machine
EPSILON = None


class Alphabet:
    """Ordered set of glyphs; symbol ids are positions in the glyph tuple.

    ``encode`` tokenizes greedily, longest glyph first, and skips ASCII
    spaces so glyphs longer than one character can be written readably.
    When every glyph is one character, greedy tokenizing is a lookup per
    character, so ``encode`` tries that first and falls back to the greedy
    loop, which words every error, on the first miss.
    """

    def __init__(self, glyphs: Sequence[str]):
        glyphs = tuple(glyphs)
        if not glyphs:
            raise UsageError("alphabet needs at least one glyph")
        if len(set(glyphs)) != len(glyphs):
            raise UsageError(f"duplicate glyphs in {glyphs!r}")
        for g in glyphs:
            if not g or " " in g or g == EOS_GLYPH:
                raise UsageError(f"bad glyph {g!r}")
        self.glyphs = glyphs
        self._ids = {g: i for i, g in enumerate(glyphs)}
        self._greedy = sorted(glyphs, key=len, reverse=True)
        self._one_char = all(len(g) == 1 for g in glyphs)
        self._valid_ids = frozenset(range(len(glyphs)))

    def __len__(self) -> int:
        return len(self.glyphs)

    def encode(self, text: str) -> list[int]:
        if self._one_char:
            try:
                return [self._ids[c] for c in text if c != " "]
            except KeyError:
                pass
        return self._encode_greedy(text)

    def _encode_greedy(self, text: str) -> list[int]:
        out = []
        i = 0
        while i < len(text):
            if text[i] == " ":
                i += 1
                continue
            for g in self._greedy:
                if text.startswith(g, i):
                    out.append(self._ids[g])
                    i += len(g)
                    break
            else:
                raise UsageError(f"cannot tokenize {text!r} at position {i}")
        return out

    def ids(self, symbols: Iterable[int], language: str | None = None) -> list[int]:
        """``symbols`` as ids of this alphabet: the one id check.  Each passes
        through ``operator.index``, so a float raises TypeError and numpy ints
        and bools become ints; then one subset test, a single pass in C,
        raises UsageError naming the first id outside the alphabet, and the
        ``language`` whose alphabet it is when given."""
        out = list(map(operator.index, symbols))
        if not self._valid_ids.issuperset(out):
            bad = next(s for s in out if s not in self._valid_ids)
            whose = f"the {language} alphabet" if language else "alphabet"
            raise UsageError(f"symbol id {bad} outside {whose} of size {len(self.glyphs)}")
        return out

    def decode(self, symbols: Sequence[int]) -> str:
        glyphs = self.glyphs
        return "".join([glyphs[s] for s in self.ids(symbols)])


class PartialDfa:
    """Deterministic automaton whose transition function may be undefined.

    A missing transition means immediate rejection.  The table is stored
    densely: ``delta[q, a]`` is the target state or -1.  It is read-only
    once built, so tables derived from it and kept per DFA stay valid.
    ``rows`` is the same table as tuples of Python ints, for walks that
    index it one symbol at a time.  States pass through ``operator.index``
    and transition symbols through ``Alphabet.ids``, so a float raises
    TypeError and a bool stands for the equal int.
    """

    def __init__(
        self,
        n_states: int,
        alphabet: Alphabet,
        transitions: Mapping[tuple[int, int], int],
        start: int,
        accepting: Iterable[int],
    ):
        if n_states <= 0:
            raise UsageError("a DFA needs at least one state")
        start = operator.index(start)
        if not 0 <= start < n_states:
            raise UsageError(f"start state {start} out of range")
        self.n_states = n_states
        self.alphabet = alphabet
        self.start = start
        self.accepting = frozenset(map(operator.index, accepting))
        for q in self.accepting:
            if not 0 <= q < n_states:
                raise UsageError(f"accepting state {q} out of range")
        self.delta = np.full((n_states, len(alphabet)), -1, dtype=np.int32)
        for (src, sym), dst in transitions.items():
            src, dst = operator.index(src), operator.index(dst)
            if not 0 <= src < n_states or not 0 <= dst < n_states:
                raise UsageError(f"transition ({src}, {sym}, {dst}) out of range")
            [sym] = alphabet.ids([sym])
            self.delta[src, sym] = dst
        self.delta.flags.writeable = False
        self.rows = tuple(map(tuple, self.delta.tolist()))

    def transitions_from(self, state: int) -> list[tuple[int, int]]:
        """(symbol, target) pairs leaving ``state``, sorted by symbol id."""
        return [(a, q) for a, q in enumerate(self.rows[state]) if q >= 0]

    def is_accepting(self, state: int) -> bool:
        return state in self.accepting


def dfa_accepts(dfa: PartialDfa, symbols: Sequence[int]) -> bool:
    """Run the DFA; out-of-alphabet ids raise rather than reject."""
    rows, state = dfa.rows, dfa.start
    for s in dfa.alphabet.ids(symbols):
        state = rows[state][s]
        if state < 0:
            return False
    return dfa.is_accepting(state)


#: stands for "no path": above every finite hop and edit-distance column
#: entry whatever the word's length, and far from int64 overflow in a sum of a
#: few of them
BIG = 2**40


def hop_distances(dfa: PartialDfa) -> np.ndarray:
    """hop[p, q]: the fewest arcs from p to q, ``BIG`` where q is unreachable;
    the one reachability routine.  A last row of ``BIG`` stands for a missing
    transition, so hop[delta] is ``BIG`` wherever delta is -1.  It is a
    breadth-first search from all states at once, one |Q| x |Q| matrix
    product per depth level."""
    n_states = dfa.n_states
    adjacent = np.zeros((n_states, n_states))  # float, so each product is one BLAS call
    src, sym = np.nonzero(dfa.delta >= 0)
    adjacent[src, dfa.delta[src, sym]] = 1
    hop = np.full((n_states + 1, n_states), BIG, dtype=np.int64)
    reached = np.eye(n_states, dtype=bool)
    frontier = reached
    depth = 0
    while frontier.any():
        hop[:-1][frontier] = depth  # a self-loop's diagonal was reached at depth 0
        depth += 1
        frontier = (frontier @ adjacent > 0) & ~reached
        reached = reached | frontier
    return hop


def check_trim(dfa: PartialDfa) -> tuple[bool, int | None]:
    """Whether every state is reachable and co-reachable; else a witness state,
    the lowest that is not."""
    hop = hop_distances(dfa)[:-1]
    live = (hop[dfa.start] < BIG) & (hop[:, sorted(dfa.accepting)] < BIG).any(axis=1)
    if live.all():
        return True, None
    return False, int(np.nonzero(~live)[0][0])


def require_trim(dfa: PartialDfa, purpose: str) -> None:
    """Raise UsageError, saying that ``purpose`` needs it, unless ``dfa`` is
    trim; the one check-and-raise."""
    ok, witness = check_trim(dfa)
    if not ok:
        raise UsageError(f"{purpose} needs a trim DFA; state {witness} is not live")


def require_range(n_min: int, n_max: int) -> None:
    """Raise UsageError unless 0 <= n_min <= n_max: the one library range check."""
    if not 0 <= n_min <= n_max:
        raise UsageError(f"bad length range [{n_min}, {n_max}]")


def compute_next_sets(dfa: PartialDfa) -> list[frozenset[int]]:
    """Per state, the symbols that can extend some accepted string, plus EOS
    at accepting states.  Requires a trim DFA: there, a transition existing
    is the same as it being completable."""
    require_trim(dfa, "next-set computation")
    out = []
    for q in range(dfa.n_states):
        syms = {a for a, _ in dfa.transitions_from(q)}
        if dfa.is_accepting(q):
            syms.add(EOS)
        out.append(frozenset(syms))
    return out


class Wfa:
    """Nondeterministic weighted automaton with optional epsilon arcs."""

    def __init__(self, n_states, alphabet, arcs, start, accept_weights):
        self.n_states = n_states
        self.alphabet = alphabet
        self.start = start
        self.arcs = list(arcs)
        for src, label, _w, dst in self.arcs:
            if not (0 <= src < n_states and 0 <= dst < n_states):
                raise UsageError(f"arc ({src} -> {dst}) out of range")
            if label is not EPSILON and not 0 <= label < len(alphabet):
                raise UsageError(f"arc label {label} outside the alphabet")
        accept_weights = list(accept_weights)
        if len(accept_weights) != n_states:
            raise UsageError("need one accept weight per state")
        self.accept_weights = accept_weights
