"""Exact edit distance from a string to a regular language: ``edit_distance``
is Wagner's column DP (Wagner 1974, *Order-n correction for regular
languages*) with each input symbol's column step folded into one min-plus
transfer matrix over the DFA states, and each pair of symbols into the
min-plus product of two of them.  The tables cost O(|Σ|² · |Q|³ + depth ·
|Q|³) once per DFA and are held, keyed by the DFA, for as long as it lives
(the shipped DFAs for the life of the process).  A word then costs ⌊|w|/2⌋
min-plus steps for its even columns and one batched step for its odd ones,
O(|w| · |Q|²) in all.  The chain-WFA product route after it is the reference
the tests check it against.
"""

from __future__ import annotations

import heapq
import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from .automata import BIG, EPSILON, PartialDfa, Wfa, WeightedDfa, check_trim, hop_distances
from .errors import UsageError
from .semiring import TROPICAL


@dataclass(frozen=True)
class EditDistanceResult:
    distance: int | float
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class _Tables:
    """What ``edit_distance`` needs of one trim DFA, whatever the word."""

    col0: np.ndarray  # the column of the empty prefix
    transfer: np.ndarray  # [a, p, q]: T_a
    pairs: list[np.ndarray]  # [a * |Σ| + b][p, q]: T_a ⊗ T_b
    into: list[list[tuple[int, int]]]  # the arcs into each state, in (source, symbol) order


# weak keys: a DFA's tables go with it; the shipped DFAs, which langlib
# caches, keep theirs for the life of the process
_TABLES: weakref.WeakKeyDictionary[PartialDfa, _Tables] = weakref.WeakKeyDictionary()


def _build_tables(dfa: PartialDfa) -> _Tables:
    """With hop[p, q] the fewest arcs from p to q, T_a[p, q] = min(1 + hop[p, q],
    min over arcs p -b-> r of [b != a] + hop[r, q]): delete a, or read it along
    any arc (a match or a substitution), then insert along a shortest path.
    The pair tables are built one (a, b) at a time, one |Q|³ temporary each."""
    ok, state = check_trim(dfa)
    if not ok:
        raise UsageError(f"edit distance needs a trim DFA (dead state {state})")
    hop = hop_distances(dfa)
    after = hop[dfa.delta]  # [p, b, q]: read b along the arc out of p, then insert to q
    # delete the symbol, or read it along any arc as a substitution
    either = np.minimum(hop[:-1], after.min(axis=1)) + 1
    transfer = np.minimum(either[None], after.transpose(1, 0, 2))  # [a, p, q]
    pairs = [(t_a[:, :, None] + t_b).min(axis=1) for t_a in transfer for t_b in transfer]
    into: list[list[tuple[int, int]]] = [[] for _ in range(dfa.n_states)]
    for p, row in enumerate(dfa.delta.tolist()):
        for b, q in enumerate(row):
            if q >= 0:
                into[q].append((p, b))
    return _Tables(hop[dfa.start], transfer, pairs, into)


def edit_distance(dfa: PartialDfa, word) -> EditDistanceResult:
    """d(L, word): fewest single-symbol edits from ``word`` to a member, and
    one member at that distance.

    Column i holds, per state q, the fewest edits that turn word[:i] into a
    string leading from the start to q.  Column i comes from column i-1 by
    consuming word[i-1] along an arc (cost 0 on a match, 1 otherwise) or by
    deleting it (cost 1, same state); insertions (cost 1 along an arc) then
    relax the column until it stops changing.

    All of that is one min-plus product per symbol, col_i = col_{i-1} ⊗ T_a
    with a = word[i-1] (see ``_build_tables``), and min-plus products are
    associative over exact ints.  So the even columns come two symbols per
    step, col_{2k+2} = col_{2k} ⊗ (T_a ⊗ T_b), from a pair table built once
    per DFA: one add and one min-reduction over |Q|² entries in C each.  The
    odd columns then come from the even ones in one batched step.  The
    columns are kept, and the witness is walked back through them,
    re-deriving at each step which move the tie rule picks.

    Ties, which fix the witness: into each state, a consuming step beats a
    deletion of equal cost; among arcs, the first in (source, symbol) order
    wins; an insertion replaces a step only when strictly cheaper.  The
    witness ends at the lowest-id cheapest accepting state.
    """
    tables = _TABLES.get(dfa)
    if tables is None:
        tables = _TABLES[dfa] = _build_tables(dfa)
    w = list(map(operator.index, word))  # exact ints; a float raises TypeError
    bad = dfa.alphabet.first_bad_id(w)
    if bad is not None:
        raise UsageError(f"symbol id {bad} outside the alphabet")

    n_syms, n_states = len(dfa.alphabet), dfa.n_states
    ids = np.array(w, dtype=np.intp)
    firsts, seconds = ids[0::2], ids[1::2]
    cols = np.empty((len(w) + 1, n_states), dtype=np.int64)
    cols[0] = tables.col0
    even = cols[0::2]
    reach = np.empty((n_states, n_states), dtype=np.int64)
    add, least, pairs = np.add, np.minimum.reduce, tables.pairs
    pair_ids = (firsts[: len(seconds)] * n_syms + seconds).tolist()
    for prev, pair, col in zip(even[:, :, None], pair_ids, even[1:]):
        least(add(prev, pairs[pair], out=reach), axis=0, out=col)
    # col_{2k+1} = col_{2k} ⊗ T_{word[2k]}, all k at once
    odd = tables.transfer[firsts]
    odd += even[: len(firsts), :, None]
    least(odd, axis=1, out=cols[1::2])

    into = tables.into
    cols = cols.tolist()
    q = min(dfa.accepting, key=lambda s: (cols[-1][s], s))  # the lowest-id cheapest
    distance = cols[-1][q]
    witness = []
    i = len(w)
    while i or q != dfa.start:
        cur = cols[i]
        step, arc, deletion = BIG, None, BIG
        if i:
            prev, a = cols[i - 1], w[i - 1]
            for p, b in into[q]:
                if prev[p] + (b != a) < step:
                    step, arc = prev[p] + (b != a), (p, b)
            deletion = prev[q] + 1
        if cur[q] < min(deletion, step):  # inserted, from the first cheapest source
            arc = min(into[q], key=lambda pb: cur[pb[0]])
        else:
            i -= 1
            if deletion < step:
                continue
        q, b = arc
        witness.append(b)
    return EditDistanceResult(distance, tuple(reversed(witness)))


def build_chain_wfa(word, alphabet) -> Wfa:
    """Tropical chain automaton for one query string: match costs 0,
    substitution and deletion cost 1, and every state carries cost-1
    insertion self-loops; only the final state accepts."""
    n_syms = len(alphabet)
    n = len(word)
    arcs = []
    for i, wi in enumerate(word):
        wi = int(wi)
        if not 0 <= wi < n_syms:
            raise UsageError(f"symbol id {wi} outside the alphabet")
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


def lift_tropical(dfa: PartialDfa) -> WeightedDfa:
    """The DFA with every transition and accepting state at cost 0."""
    transitions = {
        (q, sym): (dst, 0.0)
        for q in range(dfa.n_states)
        for sym, dst in dfa.transitions_from(q)
    }
    accept = [0.0 if dfa.is_accepting(q) else math.inf for q in range(dfa.n_states)]
    return WeightedDfa(dfa.n_states, dfa.alphabet, TROPICAL, transitions, dfa.start, accept)


def wfa_intersect(a: WeightedDfa, b: Wfa) -> Wfa:
    """Product automaton; epsilon arcs of ``b`` advance only the b side."""
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
