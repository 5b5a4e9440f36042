"""Exact edit distance from a string to a regular language: ``edit_distance``
is Wagner's column DP (Wagner 1974, *Order-n correction for regular
languages*), O(|w| · arcs).  The chain-WFA product route after it is the
reference the tests check it against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .automata import EPSILON, PartialDfa, Wfa, WeightedDfa, check_trim
from .errors import UsageError
from .semiring import TROPICAL


@dataclass(frozen=True)
class EditDistanceResult:
    distance: int | float
    witness: tuple[int, ...] | None


def edit_distance(dfa: PartialDfa, word) -> EditDistanceResult:
    """d(L, word): fewest single-symbol edits from ``word`` to a member, and
    one member at that distance.

    Column i holds, per state q, the fewest edits that turn word[:i] into a
    string leading from the start to q.  Column i comes from column i-1 by
    consuming word[i-1] along an arc (cost 0 on a match, 1 otherwise) or by
    deleting it (cost 1, same state); insertions (cost 1 along an arc) then
    relax the column until it stops changing.

    Ties, which fix the witness: into each state, a consuming step beats a
    deletion of equal cost; among arcs, the first in (source, symbol) order
    wins; an insertion replaces a step only when strictly cheaper.  The
    witness ends at the lowest-id cheapest accepting state.
    """
    ok, state = check_trim(dfa)
    if not ok:
        raise UsageError(f"edit distance needs a trim DFA (dead state {state})")
    n_states, n_syms = dfa.delta.shape
    w = np.asarray(word, dtype=np.int64)
    foreign = w[(w < 0) | (w >= n_syms)]
    if foreign.size:
        raise UsageError(f"symbol id {foreign[0]} outside the alphabet")

    src, sym = np.nonzero(dfa.delta >= 0)  # arcs in (source, symbol) order
    n_arcs = len(src)
    big = len(w) + n_states  # above every reachable column entry
    # in_arc[q]: the arcs into q in that order, padded with a dummy id n_arcs
    # whose step costs big; argmin over a row then picks the first cheapest
    into: list[list[int]] = [[] for _ in range(n_states)]
    for k, q in enumerate(dfa.delta[src, sym]):
        into[q].append(k)
    width = max(1, max(map(len, into)))
    in_arc = np.array([arcs + [n_arcs] * (width - len(arcs)) for arcs in into])
    pad = in_arc == n_arcs
    in_src = np.append(src, 0)[in_arc]
    mismatch = np.append(sym, 0)[in_arc] != np.arange(n_syms)[:, None, None]
    consume_cost = np.where(pad, big, mismatch)  # per symbol read
    insert_cost = np.where(pad, big, 1)
    states = np.arange(n_states)

    col = np.full(n_states, big)
    col[dfa.start] = 0
    # via[i, q]: arc into q at column i, n_arcs + it if inserted, -1 if deleted or the start
    via = np.full((len(w) + 1, n_states), -1)
    for i in range(len(w) + 1):
        if i:
            cost = col[in_src] + consume_cost[w[i - 1]]
            first = cost.argmin(axis=1)
            step = cost[states, first]
            deleted = col + 1 < step
            via[i] = np.where(deleted, -1, in_arc[states, first])
            col = np.minimum(col + 1, step)
        stepped = col
        while True:
            cost = col[in_src] + insert_cost
            first = cost.argmin(axis=1)
            inserted = cost[states, first]
            if not (inserted < col).any():
                break
            col = np.minimum(col, inserted)
        relaxed = col < stepped
        via[i, relaxed] = n_arcs + in_arc[states, first][relaxed]

    q = min(dfa.accepting, key=lambda s: (col[s], s))  # the lowest-id cheapest
    distance = int(col[q])
    witness = []
    i = len(w)
    while i or q != dfa.start:
        k = int(via[i, q])
        if k < n_arcs:  # word[i-1] consumed along arc k, or deleted if k is -1
            i -= 1
        else:
            k -= n_arcs
        if k >= 0:
            witness.append(int(sym[k]))
            q = int(src[k])
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
