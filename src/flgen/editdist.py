"""Exact edit distance from a string to a regular language.

``edit_distance`` is Wagner's column DP (Wagner 1974, *Order-n correction for
regular languages*): column i holds, per DFA state, the fewest edits that
turn the first i symbols into a string leading there, and each symbol's step
is one min-plus product with a transfer matrix (Mohri 2003, *Edit-distance of
weighted automata*).  Over a fixed DFA, columns taken relative to their
minimum take few values, the fact Ukkonen (1985, *Finding approximate
patterns in strings*) used to turn approximate matching into a DFA.  So each
trim DFA gets a lazily built automaton of normalized columns: the first time
a column meets a symbol, one numpy product finds the next column and the
rise in the minimum; after that the step is one list lookup.  The walk-back's
move into a state depends only on the previous column, the symbol and the
state, so it too is found once.  The shipped DFAs reach 2 (parity) to 4,665
(modular-arithmetic) columns.

A word of n symbols costs n lookups forward and one per move back, plus
O(|Q|²) numpy work per new (column, symbol) pair and O(arcs) per new move.
It keeps a column code and a symbol id per position, about 16 B per symbol;
a held column costs O(|Q| + |Σ|).  The automaton is held while its DFA lives;
before a word, one holding over ``_MAX_COLUMNS`` columns starts again empty,
which changes no result, but a word's own columns are not capped: where they
diverge (start -0-> A with a 0-loop, start -1-> B with a 1-loop, on 0^N
1^2N), nearly every position is a new column, and 0^10,000 1^20,000 raised
the peak RSS by 455-488 B per symbol, at ten times a plain column DP's time.
The chain-WFA product route at the end of the module is the tests' reference.

A start s with no incoming arcs (modular-arithmetic, even-pairs, first) has
entry i in column i, the deletion of everything so far, which would make a
new column at every position.  So the key clips N[s] to M + 2, with N the
normalized column and M the largest other entry.  This is exact.  Suppose
N[s] >= M + 2 and q != s.  A route from s to q leaves along an arc s -b-> r
with r != s, and costs at least N[s] + [b != a] + hop(r, q), or N[s] + 1 +
hop(s, q) if it deletes a.  Deleting a at r and inserting up to q costs N[r]
+ 1 + hop(r, q) <= M + 1 + hop(r, q), strictly less.  So s's entry produces
or ties no entry of the next column, and passes none of the walk-back's
tests as a source.  Each entry rises by at most 1 (a deletion), so the next
column's M + 2 is at most s's next entry, and a clipped and an exact column
give the same next key.  Wherever s's entry is read, it is exact: a clipped
entry exceeds every other, so it is never the cheapest accepting state, and
the walk-back reaches s at column i only through a test its entry passes,
and an exact entry follows only exact ones.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .automata import EPSILON, PartialDfa, Wfa, hop_distances, require_trim
from .errors import UsageError

#: the most columns one DFA's automaton holds before the next word resets it;
#: the shipped DFAs reach at most 4,665
_MAX_COLUMNS = 2**14


@dataclass(frozen=True)
class EditDistanceResult:
    distance: int | float
    witness: tuple[int, ...] | None


class _Automaton:
    """The normalized columns of one trim DFA seen so far and the steps
    between them.  A column's code is its id times |Σ|, so the step of
    column code c on symbol a is entry c + a of the step lists."""

    def __init__(self, dfa: PartialDfa):
        """With hop[p, q] the fewest arcs from p to q, T_a[p, q] = min(1 +
        hop[p, q], min over arcs p -b-> r of [b != a] + hop[r, q]): delete a,
        or read it along any arc, then insert along a shortest path."""
        require_trim(dfa, "edit distance")
        hop = hop_distances(dfa)
        after = hop[dfa.delta]  # [p, b, q]: read b along the arc out of p, then insert to q
        either = np.minimum(hop[:-1], after.min(axis=1)) + 1
        self.transfer = np.minimum(either[None], after.transpose(1, 0, 2))  # [a, p, q]
        self.into: list[list[tuple[int, int]]] = [[] for _ in range(dfa.n_states)]
        for p, row in enumerate(dfa.rows):  # the arcs into each state, in (source, symbol) order
            for b, q in enumerate(row):
                if q >= 0:
                    self.into[q].append((p, b))
        self.n_syms = len(dfa.alphabet)
        self.clip = None if self.into[dfa.start] else dfa.start  # the state to clip
        self.first = tuple(hop[dfa.start].tolist())  # the column of the empty prefix
        self.reset()

    def reset(self) -> None:
        self.codes: dict[tuple[int, ...], int] = {}
        self.cols: list[tuple[int, ...]] = []
        self.steps: list[int] = []  # the next column's code, -1 until computed
        self.rises: list[int] = []  # the rise in the minimum
        self.moves: list[list | None] = []  # per state, the move into it, once needed
        self._intern(self.first)

    def _intern(self, col: tuple[int, ...]) -> int:
        code = self.codes.get(col)
        if code is None:
            code = self.codes[col] = len(self.cols) * self.n_syms
            self.cols.append(col)
            self.steps += [-1] * self.n_syms
            self.rises += [0] * self.n_syms
            self.moves += [None] * self.n_syms
        return code

    def step(self, k: int) -> int:
        """The code of the column after code + symbol k, computed once."""
        col, a = divmod(k, self.n_syms)
        total = (np.array(self.cols[col])[:, None] + self.transfer[a]).min(axis=0).tolist()
        low = min(total)
        key = [v - low for v in total]
        s = self.clip
        if s is not None:
            key[s] = min(key[s], max(key[:s] + key[s + 1:], default=0) + 2)
        self.steps[k], self.rises[k] = self._intern(tuple(key)), low
        return self.steps[k]

    def move(self, k: int, q: int) -> tuple[int, int | None, bool]:
        """The move into q at the column after code + symbol k, found once, as
        (source, symbol or None for a deletion, consumed): the first arc whose
        step accounts for the entry, else the deletion, else an insertion."""
        row = self.moves[k]
        if row is None:
            row = self.moves[k] = [None] * len(self.first)
        if row[q] is None:
            col, a = divmod(k, self.n_syms)
            prev, cur = self.cols[col], self.cols[self.steps[k] // self.n_syms]
            c = cur[q] + self.rises[k]
            arc = next((pb for pb in self.into[q] if prev[pb[0]] + (pb[1] != a) == c), None)
            if arc is not None:
                row[q] = (*arc, True)
            elif prev[q] + 1 == c:
                row[q] = (q, None, True)
            else:
                row[q] = self.inserted(cur, q)
        return row[q]

    def inserted(self, col: tuple[int, ...], q: int) -> tuple[int, int, bool]:
        """The insertion into q from the first source one edit cheaper."""
        p, b = next(pb for pb in self.into[q] if col[pb[0]] + 1 == col[q])
        return p, b, False


# weak keys: a DFA's automaton goes with it; the shipped DFAs, which langlib
# caches, keep theirs for the life of the process
_AUTOMATA: weakref.WeakKeyDictionary[PartialDfa, _Automaton] = weakref.WeakKeyDictionary()


def edit_distance(dfa: PartialDfa, word) -> EditDistanceResult:
    """d(L, word): fewest single-symbol edits from ``word`` to a member, and
    one member at that distance.

    Column i holds, per state q, the fewest edits that turn word[:i] into a
    string leading from the start to q.  Column i comes from column i-1 by
    consuming word[i-1] along an arc (cost 0 on a match, 1 otherwise) or by
    deleting it (cost 1, same state); insertions (cost 1 along an arc) then
    relax the column until it stops changing: col_i = col_{i-1} ⊗ T_a.  The
    forward pass follows the DFA's automaton of normalized columns (see the
    module docstring) and keeps only each column's code and the running
    minimum; the witness is walked back from the final column, one looked-up
    move at a time.

    Ties, which fix the witness: into each state, a consuming step beats a
    deletion of equal cost; among arcs, the first in (source, symbol) order
    wins; an insertion replaces a step only when strictly cheaper.  The
    witness ends at the lowest-id cheapest accepting state.
    """
    auto = _AUTOMATA.get(dfa)
    if auto is None:
        auto = _AUTOMATA[dfa] = _Automaton(dfa)
    elif len(auto.cols) > _MAX_COLUMNS:
        auto.reset()
    w = dfa.alphabet.ids(word)

    steps, rises = auto.steps, auto.rises
    code, low, codes = 0, 0, []  # codes[i]: the code of column i
    for a in w:
        codes.append(code)
        k = code + a
        code = steps[k]
        if code < 0:
            code = auto.step(k)
        low += rises[k]

    i, last = len(w), auto.cols[code // auto.n_syms]
    q = min(dfa.accepting, key=lambda s: (last[s], s))  # the lowest-id cheapest
    distance = low + last[q]
    moves, witness = auto.moves, []
    while i or q != dfa.start:
        if i:
            k = codes[i - 1] + w[i - 1]
            move = moves[k] and moves[k][q] or auto.move(k, q)
        else:  # column 0's insertions
            move = auto.inserted(auto.first, q)
        q, b, consumed = move
        i -= consumed
        if b is not None:
            witness.append(b)
    return EditDistanceResult(distance, tuple(reversed(witness)))


def build_chain_wfa(word, alphabet) -> Wfa:
    """Tropical chain automaton for one query string: match costs 0,
    substitution and deletion cost 1, and every state carries cost-1
    insertion self-loops; only the final state accepts."""
    n_syms = len(alphabet)
    word = alphabet.ids(word)
    n = len(word)
    arcs = []
    for i, wi in enumerate(word):
        arcs.append((i, wi, 0.0, i + 1))
        arcs.append((i, EPSILON, 1.0, i + 1))
        for a in range(n_syms):
            if a != wi:
                arcs.append((i, a, 1.0, i + 1))
    for q in range(n + 1):
        for a in range(n_syms):
            arcs.append((q, a, 1.0, q))
    accept = [math.inf] * (n + 1)
    accept[n] = 0.0
    return Wfa(n + 1, alphabet, arcs, 0, accept)


def wfa_intersect(a, b: Wfa) -> Wfa:
    """Product of weighted DFA ``a`` and ``b``; epsilon arcs of ``b`` advance only b."""
    if len(a.alphabet) != len(b.alphabet):
        raise UsageError("intersection requires matching alphabets")
    nb = b.n_states

    a_by_sym: dict[int, list[tuple[int, int, float]]] = {}
    for (src, sym), (dst, w) in a.transitions.items():
        a_by_sym.setdefault(sym, []).append((src, dst, w))

    arcs = []
    for bsrc, label, bw, bdst in b.arcs:
        if label is EPSILON:
            for qa in range(a.n_states):
                arcs.append((qa * nb + bsrc, EPSILON, bw, qa * nb + bdst))
        else:
            for asrc, adst, aw in a_by_sym.get(label, []):
                arcs.append((asrc * nb + bsrc, label, aw + bw, adst * nb + bdst))
    accept = [
        a.accept_weights[qa] + b.accept_weights[qb]
        for qa in range(a.n_states)
        for qb in range(nb)
    ]
    return Wfa(a.n_states * nb, a.alphabet, arcs, a.start * nb + b.start, accept)


def shortest_allsum(wfa: Wfa) -> EditDistanceResult:
    """Minimum-cost accepted run weight from the start state by Dijkstra,
    which is exact for these nonnegative weights, with one optimal run's
    consumed symbols as witness; infinite, without one, when no accepting
    state is reachable."""
    n = wfa.n_states
    adjacency: list[list[tuple[float, int, object]]] = [[] for _ in range(n)]
    for src, label, w, dst in wfa.arcs:
        adjacency[src].append((w, dst, label))
    dist = np.full(n, np.inf)
    prev: dict[int, tuple[int, object]] = {}
    dist[wfa.start] = 0.0
    heap = [(0.0, wfa.start)]
    while heap:
        d, q = heapq.heappop(heap)
        if d > dist[q]:
            continue
        for w, dst, label in adjacency[q]:
            alt = d + w
            if alt < dist[dst]:
                dist[dst] = alt
                prev[dst] = (q, label)
                heapq.heappush(heap, (alt, dst))

    totals = dist + np.asarray(wfa.accept_weights)
    r = int(np.argmin(totals))
    if not np.isfinite(totals[r]):
        return EditDistanceResult(math.inf, None)
    labels = []
    q = r
    while q in prev:
        q, label = prev[q]
        labels.append(label)
    labels.reverse()
    witness = tuple(lab for lab in labels if lab is not EPSILON)
    return EditDistanceResult(int(round(totals[r])), witness)
