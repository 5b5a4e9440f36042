"""Exact edit distance from a string to a regular language: ``edit_distance``
is Wagner's column DP (Wagner 1974, *Order-n correction for regular
languages*) with each input symbol's column step folded into one min-plus
transfer matrix over the DFA states (Mohri 2003, *Edit-distance of weighted
automata*, for the min-plus framing), and each block of up to k symbols into
the min-plus product of their matrices.  Per DFA, k is the largest block size
whose tables, all levels 1..k together, hold at most ``_TABLE_ENTRIES``
entries, never less than 2 and never more than ``_MAX_BLOCK``: 11 on the
two-state DFAs, 8 on even-pairs and 2 on the others.  The tables cost
O(|Σ|^k · |Q|³ + depth · |Q|³) once per DFA and are held, keyed by the DFA,
for as long as it lives (the shipped DFAs for the life of the process).  A
word then costs ⌊|w|/k⌋ sequential min-plus steps for the columns at block
starts, and batched steps, each gathering at most ``_BATCH_ENTRIES`` table
entries, for the columns inside the blocks: O(|w| · |Q|²) in all.  The
walk-back turns the kept int64 columns into Python ints ``_WALK_COLUMNS`` at
a time, from the end, as it reaches them, so the peak memory grows by about
0.3 KB per symbol on modular-arithmetic (|Q| = 27).  The chain-WFA product
route after it is the reference the tests check it against; they lift the
DFA to the weighted DFA it takes.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .automata import EPSILON, PartialDfa, Wfa, hop_distances, require_trim
from .errors import UsageError

#: the most entries the block tables of one DFA hold, all levels together,
#: unless k = 2 alone goes over it
_TABLE_ENTRIES = 2**14
#: the most table entries one batched min-plus step gathers
_BATCH_ENTRIES = 2**15
#: the largest block size, which only a one-symbol alphabet reaches
_MAX_BLOCK = 16
#: how many kept columns the walk-back turns into Python ints at a time
_WALK_COLUMNS = 2**10


@dataclass(frozen=True)
class EditDistanceResult:
    distance: int | float
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class _Tables:
    """What ``edit_distance`` needs of one trim DFA, whatever the word."""

    col0: np.ndarray  # the column of the empty prefix
    k: int  # the block size
    place: np.ndarray  # [i, j]: |Σ|^(j - i) where i <= j, else 0
    # levels 1..k one after another: the table of symbols a1 … aj, the min-plus
    # product T_a1 ⊗ … ⊗ T_aj transposed ([q, p]) so that a step reduces over
    # the last axis, is blocks[offsets[j - 1] + (a1 … aj read in base |Σ|)]
    blocks: np.ndarray
    offsets: np.ndarray  # where levels 1..k-1 begin in ``blocks``
    top: list[np.ndarray]  # level k by code, for the sequential steps
    into: list[list[tuple[int, int]]]  # the arcs into each state, in (source, symbol) order


# weak keys: a DFA's tables go with it; the shipped DFAs, which langlib
# caches, keep theirs for the life of the process
_TABLES: weakref.WeakKeyDictionary[PartialDfa, _Tables] = weakref.WeakKeyDictionary()


def _block_size(n_syms: int, n_states: int) -> int:
    """The largest k up to ``_MAX_BLOCK`` whose levels 1..k fit in
    ``_TABLE_ENTRIES``, and at least 2."""
    def entries(k: int) -> int:
        return sum(n_syms**j for j in range(1, k + 1)) * n_states**2

    k = 2
    while k < _MAX_BLOCK and entries(k + 1) <= _TABLE_ENTRIES:
        k += 1
    return k


def _build_tables(dfa: PartialDfa) -> _Tables:
    """With hop[p, q] the fewest arcs from p to q, T_a[p, q] = min(1 + hop[p, q],
    min over arcs p -b-> r of [b != a] + hop[r, q]): delete a, or read it along
    any arc (a match or a substitution), then insert along a shortest path.
    Level j + 1 prepends a symbol to level j, T_a ⊗ P_u for every a and u,
    in batches of at most ``_BATCH_ENTRIES`` entries."""
    require_trim(dfa, "edit distance")
    n_states, n_syms = dfa.n_states, len(dfa.alphabet)
    hop = hop_distances(dfa)
    after = hop[dfa.delta]  # [p, b, q]: read b along the arc out of p, then insert to q
    # delete the symbol, or read it along any arc as a substitution
    either = np.minimum(hop[:-1], after.min(axis=1)) + 1
    transfer = np.minimum(either[None], after.transpose(1, 0, 2))  # [a, p, q]
    k = _block_size(n_syms, n_states)
    offsets = np.cumsum([0] + [n_syms**j for j in range(1, k + 1)])
    blocks = np.empty((offsets[-1], n_states, n_states), dtype=np.int64)
    blocks[:n_syms] = transfer.transpose(0, 2, 1)
    rows = max(1, _BATCH_ENTRIES // n_states**3)
    for lo, hi in zip(offsets, offsets[1:-1]):
        level = blocks[lo:hi]
        prepended = blocks[hi:hi + n_syms * len(level)].reshape(n_syms, *level.shape)
        for t_a, out in zip(transfer, prepended):
            # (T_a ⊗ P_u)ᵀ[q, p] = min over r of P_uᵀ[q, r] + T_a[p, r]
            for u in range(0, len(level), rows):
                np.minimum.reduce(level[u:u + rows, :, None, :] + t_a, axis=3, out=out[u:u + rows])
    into: list[list[tuple[int, int]]] = [[] for _ in range(n_states)]
    for p, row in enumerate(dfa.rows):
        for b, q in enumerate(row):
            if q >= 0:
                into[q].append((p, b))
    j = np.arange(k)
    place = np.triu(n_syms ** np.maximum(j - j[:, None], 0))
    top = list(blocks[offsets[-2]:])
    return _Tables(hop[dfa.start], k, place, blocks, offsets[:-2], top, into)


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
    associative over exact ints.  So the columns at block starts come k
    symbols per step, col_{(b+1)k} = col_{bk} ⊗ (T_{w[bk]} ⊗ … ⊗ T_{w[bk+k-1]}),
    from a table built once per DFA: one add and one min-reduction over
    |Q|² entries in C each.  Every column inside a block then comes straight
    from its block's start, col_{bk+j} = col_{bk} ⊗ P_{w[bk:bk+j]}, for all
    blocks and j < k at once, in batches that gather at most
    ``_BATCH_ENTRIES`` table entries each.  The columns are kept, and the
    witness is walked back through them: into state q at column i it takes
    the first arc in (source, symbol) order whose step costs col_i[q], else
    the deletion if it does, else the insertion from the first source p with
    col_i[p] + 1 = col_i[q].

    Ties, which fix the witness: into each state, a consuming step beats a
    deletion of equal cost; among arcs, the first in (source, symbol) order
    wins; an insertion replaces a step only when strictly cheaper.  The
    witness ends at the lowest-id cheapest accepting state.
    """
    tables = _TABLES.get(dfa)
    if tables is None:
        tables = _TABLES[dfa] = _build_tables(dfa)
    w = dfa.alphabet.ids(word)

    n_states, k = dfa.n_states, tables.k
    n_blocks = len(w) // k
    padded = np.zeros((n_blocks + 1) * k, dtype=np.intp)  # whole blocks
    padded[: len(w)] = w
    codes = padded.reshape(-1, k) @ tables.place  # [b, j]: w[bk:bk+j+1] in base |Σ|
    # cols[b, j]: column bk + j, the padding's columns past the word unused
    cols = np.empty((n_blocks + 1, k, n_states), dtype=np.int64)
    cols[0, 0] = tables.col0
    starts = cols[:, 0]
    reach = np.empty((n_states, n_states), dtype=np.int64)
    add, least, top = np.add, np.minimum.reduce, tables.top
    for prev, block, col in zip(starts, codes[:n_blocks, -1].tolist(), starts[1:]):
        least(add(top[block], prev, out=reach), axis=1, out=col)
    ids = codes[:, :-1] + tables.offsets
    rows = max(1, _BATCH_ENTRIES // ((k - 1) * n_states**2))
    for b in range(0, n_blocks + 1, rows):
        inner = tables.blocks[ids[b:b + rows]]  # [b, j, q, p]
        inner += starts[b:b + rows, None, None]
        least(inner, axis=3, out=cols[b:b + rows, 1:])

    into, flat = tables.into, cols.reshape(-1, n_states)
    i = len(w)
    lo = max(0, i + 1 - _WALK_COLUMNS)
    part = flat[lo:i + 1].tolist()  # columns lo..i as Python ints
    q = min(dfa.accepting, key=lambda s: (part[-1][s], s))  # the lowest-id cheapest
    distance = part[-1][q]
    witness = []
    while i or q != dfa.start:
        if i == lo and i:  # column i - 1 is next: turn the chunk that ends at i
            lo = max(0, i + 1 - _WALK_COLUMNS)
            part = flat[lo:i + 1].tolist()
        cur, arcs = part[i - lo], into[q]
        c = cur[q]
        arc = None
        if i:
            prev, a = part[i - 1 - lo], w[i - 1]
            for p, b in arcs:
                if prev[p] + (b != a) == c:  # consumed, along the first arc that costs c
                    arc = p, b
                    break
            if arc is None and prev[q] + 1 == c:  # deleted
                i -= 1
                continue
        if arc is None:  # inserted, from the first source one edit cheaper
            arc = next(pb for pb in arcs if cur[pb[0]] + 1 == c)
        else:
            i -= 1
        q, b = arc
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
