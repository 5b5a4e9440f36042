"""Independent reference implementations the test suite checks against.

Everything here recomputes expected values from first principles (plain
dynamic programming, exhaustive enumeration, textbook edit distance, the
generic semiring closure over length-binned weights, the tropical lift and
weighted-automaton stringsum of the edit-distance product route and the
weighted DFA they build on, a split writer that runs ``json.dumps`` on
every record, a split's examples drawn from one numpy ``SeedSequence`` per
example, the procedural next-set walkers as first written, and the
binary-addition and binary-multiplication samplers as first written)
without touching the production code paths under test.
"""

import json
import math
import operator
from collections import deque
from fractions import Fraction

import numpy as np

from flgen.automata import EOS, EPSILON, Alphabet, PartialDfa, Wfa, check_trim
from flgen.dataset import (
    DEFAULT_DEDUP_ATTEMPTS,
    FORMAT_VERSION,
    NEGATIVES_ONLY,
    ROLES,
    DatasetSplit,
    LabeledExample,
    generate_example,
)
from flgen.editdist import EditDistanceResult
from flgen.errors import ConfigurationError, UsageError
from flgen.langlib import _dirichlet_parts, _encode_le, _uniform_int, get_language
from flgen.semiring import LOG, TROPICAL, BinningSemiring, Semiring

BITS = Alphabet(["0", "1"])


def parity_dfa():
    return PartialDfa(2, BITS, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, 0, [1])


def repeat01_dfa():
    return PartialDfa(2, BITS, {(0, 0): 1, (1, 1): 0}, 0, [0])


def first_dfa():
    return PartialDfa(2, BITS, {(0, 1): 1, (1, 0): 1, (1, 1): 1}, 0, [1])


def even_pairs_dfa():
    trans = {(0, 0): 1, (0, 1): 4}
    for first in (0, 1):
        for last in (0, 1):
            q = 1 + 2 * first + last
            for b in (0, 1):
                trans[(q, b)] = 1 + 2 * first + b
    return PartialDfa(5, BITS, trans, 0, [0, 1, 4])


def uniform_policy_length_probs(dfa: PartialDfa, n_top: int) -> np.ndarray:
    """P(the uniform-policy walk from the start emits exactly n symbols),
    for n = 0..n_top, by plain real-valued dynamic programming."""
    n_states = dfa.n_states
    k = np.array(
        [len(dfa.transitions_from(q)) + dfa.is_accepting(q) for q in range(n_states)],
        dtype=float,
    )
    stop = np.array([dfa.is_accepting(q) / k[q] for q in range(n_states)])
    step = np.zeros((n_states, n_states))
    for q in range(n_states):
        for _sym, dst in dfa.transitions_from(q):
            step[q, dst] += 1.0 / k[q]
    cur = stop.copy()
    out = [cur[dfa.start]]
    for _ in range(n_top):
        cur = step @ cur
        out.append(cur[dfa.start])
    return np.array(out)


def uniform_policy_beta_exact(dfa: PartialDfa, n_top: int) -> list[list[Fraction]]:
    """beta[q][i] = P(the uniform-policy walk from q emits exactly i symbols
    and stops), for i = 0..n_top, by dynamic programming over lengths in
    exact rational arithmetic."""
    n_states = dfa.n_states
    step = [Fraction(1, len(dfa.transitions_from(q)) + dfa.is_accepting(q))
            for q in range(n_states)]
    beta = [[step[q] if dfa.is_accepting(q) else Fraction(0)] for q in range(n_states)]
    for i in range(1, n_top + 1):
        for q in range(n_states):
            beta[q].append(
                step[q] * sum((beta[dst][i - 1] for _sym, dst in dfa.transitions_from(q)),
                              Fraction(0))
            )
    return beta


def path_weights(dfa: PartialDfa, n_max: int):
    """For i = 0..n_max, exact path weights V_i over the states and the log
    scale that turns them into beta: log beta_i(q) = log V_i(q) + scale_i.

    The plain recursion, every bin summed: with d_q the number of choices at
    q (its transitions, plus stopping when accepting) and D their lcm,
    W_0(q) = [q accepting] * D/d_q and W_i(q) = D/d_q * (sum of W_{i-1} over
    q's targets); V_i is W_i over the gcd of its entries.
    """
    outs = [[dst for _sym, dst in dfa.transitions_from(q)] for q in range(dfa.n_states)]
    accepting = [dfa.is_accepting(q) for q in range(dfa.n_states)]
    degrees = [len(o) + a for o, a in zip(outs, accepting)]
    big_d = math.lcm(*degrees)
    scale = [big_d // k for k in degrees]
    row, removed = [s * a for s, a in zip(scale, accepting)], 1
    yield -math.log(big_d), row
    for i in range(1, n_max + 1):
        row = [s * sum(map(row.__getitem__, o)) for s, o in zip(scale, outs)]
        g = math.gcd(*row) or 1
        row = [w // g for w in row]
        removed *= g
        yield math.log(removed) - (i + 1) * math.log(big_d), row


def plain_sampler_tables(dfa: PartialDfa, n_max: int):
    """The rows of every state and allsum_z, bins 0..n_max, from
    ``path_weights``: bin i of a row normalizes the targets' V_{i-1} by
    their total, and allsum_z[i] is the start state's log beta_i."""
    rows = [[None] for _ in range(dfa.n_states)]
    allsum_z = []
    for i, (log_scale, v) in enumerate(path_weights(dfa, n_max)):
        w = v[dfa.start]
        allsum_z.append(math.log(w) + log_scale if w else -math.inf)
        if i == n_max:
            break
        for q, state_rows in enumerate(rows):
            masses = [v[dst] for _sym, dst in dfa.transitions_from(q)]
            total = sum(masses)
            state_rows.append(
                tuple(sum(masses[:k + 1]) / total for k in range(len(masses)))
                if total else None
            )
    return rows, tuple(allsum_z)


class WeightedDfa:
    """Deterministic automaton whose transitions carry (target, weight) pairs
    and whose states carry accept weights, over an explicit semiring."""

    def __init__(self, n_states, alphabet, semiring, transitions, start, accept_weights):
        self.n_states = n_states
        self.alphabet = alphabet
        self.semiring = semiring
        self.start = start
        self.transitions = dict(transitions)
        for (src, sym), (dst, _w) in self.transitions.items():
            if not (0 <= src < n_states and 0 <= dst < n_states):
                raise UsageError(f"transition ({src}, {sym}) -> {dst} out of range")
            if not 0 <= sym < len(alphabet):
                raise UsageError(f"transition symbol {sym} outside the alphabet")
        accept_weights = list(accept_weights)
        if len(accept_weights) != n_states:
            raise UsageError("need one accept weight per state")
        self.accept_weights = accept_weights


def lift_weights(dfa: PartialDfa, n_max: int) -> WeightedDfa:
    """Attach length-binned log weights for the uniform-policy distribution.

    At a state with j outgoing transitions (plus stopping, when accepting)
    every choice gets probability 1/k, k = j + accepting.  Transition
    weights put that mass in bin 1 (one symbol consumed); accept weights
    put it in bin 0.
    """
    sr = BinningSemiring(LOG, n_max)
    transitions = {}
    accept_weights = []
    for q in range(dfa.n_states):
        outs = dfa.transitions_from(q)
        k = len(outs) + (1 if dfa.is_accepting(q) else 0)
        p = -np.log(k)
        for sym, dst in outs:
            w = sr.zero
            if n_max >= 1:
                w[1] = p
            transitions[(q, sym)] = (dst, w)
        rho = sr.zero
        if dfa.is_accepting(q):
            rho[0] = p
        accept_weights.append(rho)
    return WeightedDfa(dfa.n_states, dfa.alphabet, sr, transitions, dfa.start, accept_weights)


def lift_tropical(dfa: PartialDfa) -> WeightedDfa:
    """The DFA with every transition and accepting state at cost 0, the
    weighted side of the edit-distance product route."""
    transitions = {
        (q, sym): (dst, 0.0)
        for q in range(dfa.n_states)
        for sym, dst in dfa.transitions_from(q)
    }
    accept = [0.0 if dfa.is_accepting(q) else math.inf for q in range(dfa.n_states)]
    return WeightedDfa(dfa.n_states, dfa.alphabet, TROPICAL, transitions, dfa.start, accept)


def wfa_stringsum(wfa: Wfa, symbols) -> float:
    """Minimum-cost accepting run on ``symbols`` (tropical weights), with
    epsilon arcs relaxed to a fixed point between consumed symbols."""
    by_label: dict[object, list[tuple[int, float, int]]] = {}
    for src, label, w, dst in wfa.arcs:
        by_label.setdefault(label, []).append((src, w, dst))
    eps_arcs = by_label.get(EPSILON, [])

    def relax(cost: np.ndarray) -> None:
        for _ in range(wfa.n_states):
            changed = False
            for src, w, dst in eps_arcs:
                alt = cost[src] + w
                if alt < cost[dst]:
                    cost[dst] = alt
                    changed = True
            if not changed:
                return

    cost = np.full(wfa.n_states, np.inf)
    cost[wfa.start] = 0.0
    relax(cost)
    for s in symbols:
        nxt = np.full(wfa.n_states, np.inf)
        for src, w, dst in by_label.get(int(s), []):
            alt = cost[src] + w
            if alt < nxt[dst]:
                nxt[dst] = alt
        relax(nxt)
        cost = nxt
    return float((cost + np.asarray(wfa.accept_weights)).min())


def lehmann(matrix: list[list], semiring: Semiring) -> list[list]:
    """All-pairs closure of a weighted adjacency matrix over a closed semiring.

    Entry (i, j) of the result sums every path from i to j, the empty path
    included on the diagonal.  Eliminates one pivot state per round, taking
    the star of its self-loop weight.
    """
    n = len(matrix)
    cur = [[matrix[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        a = semiring.star(cur[k][k])
        pivot_row = cur[k]
        nxt = []
        for i in range(n):
            through = semiring.mul(cur[i][k], a)
            nxt.append(
                [semiring.add(cur[i][j], semiring.mul(through, pivot_row[j])) for j in range(n)]
            )
        cur = nxt
    for i in range(n):
        cur[i][i] = semiring.add(cur[i][i], semiring.one)
    return cur


def backward(wdfa: WeightedDfa) -> list:
    """Per state, the summed weight of all accepting runs that start there,
    through the generic closure: O(n_states^3) semiring operations."""
    sr = wdfa.semiring
    n = wdfa.n_states
    adj = [[sr.zero for _ in range(n)] for _ in range(n)]
    for (src, _sym), (dst, w) in wdfa.transitions.items():
        adj[src][dst] = sr.add(adj[src][dst], w)
    closure = lehmann(adj, sr)
    beta = []
    for q in range(n):
        acc = sr.zero
        for r in range(n):
            acc = sr.add(acc, sr.mul(closure[q][r], wdfa.accept_weights[r]))
        beta.append(acc)
    return beta


def enumerate_with_probs(dfa: PartialDfa, n: int) -> dict[tuple[int, ...], float]:
    """Every accepted string of exact length n with its uniform-policy
    probability, by depth-first path enumeration."""
    results: dict[tuple[int, ...], float] = {}

    def rec(state: int, prefix: tuple[int, ...], prob: float) -> None:
        outs = dfa.transitions_from(state)
        k = len(outs) + (1 if dfa.is_accepting(state) else 0)
        if len(prefix) == n:
            if dfa.is_accepting(state):
                results[prefix] = prob / k
            return
        for sym, dst in outs:
            rec(dst, prefix + (sym,), prob / k)

    rec(dfa.start, (), 1.0)
    return results


def enumerate_members(dfa: PartialDfa, max_len: int) -> list[tuple[int, ...]]:
    """All accepted strings of length <= max_len, pruned by the exact number
    of symbols still needed to reach acceptance."""
    back: list[list[int]] = [[] for _ in range(dfa.n_states)]
    for q in range(dfa.n_states):
        for _sym, dst in dfa.transitions_from(q):
            back[dst].append(q)
    dist = np.full(dfa.n_states, np.inf)
    queue = deque()
    for q in dfa.accepting:
        dist[q] = 0
        queue.append(q)
    while queue:
        q = queue.popleft()
        for src in back[q]:
            if dist[src] == np.inf:
                dist[src] = dist[q] + 1
                queue.append(int(src))

    out: list[tuple[int, ...]] = []

    def rec(state: int, prefix: tuple[int, ...]) -> None:
        if dfa.is_accepting(state):
            out.append(prefix)
        if len(prefix) == max_len:
            return
        for sym, dst in dfa.transitions_from(state):
            if dist[dst] <= max_len - len(prefix) - 1:
                rec(dst, prefix + (sym,))

    rec(dfa.start, ())
    return out


def levenshtein(a, b) -> int:
    """Textbook two-row edit distance between two symbol sequences."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def batch_min_levenshtein(word: tuple[int, ...], members: list[tuple[int, ...]]) -> int:
    """min over members of Levenshtein(word, member), vectorized across
    members of equal length; falls back to infinity on an empty list."""
    best = math.inf
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for m in members:
        by_len.setdefault(len(m), []).append(m)
    w = np.array(word, dtype=np.int64)
    for length, group in sorted(by_len.items()):
        if abs(length - len(word)) >= best:
            continue
        mat = np.array(group, dtype=np.int64).reshape(len(group), length)
        prev = np.tile(np.arange(length + 1), (len(group), 1))
        for i in range(1, len(word) + 1):
            cur = np.empty_like(prev)
            cur[:, 0] = i
            for j in range(1, length + 1):
                sub = prev[:, j - 1] + (mat[:, j - 1] != w[i - 1])
                np.minimum(sub, prev[:, j] + 1, out=sub)
                np.minimum(sub, cur[:, j - 1] + 1, out=sub)
                cur[:, j] = sub
            prev = cur
        group_best = int(prev[:, -1].min())
        best = min(best, group_best)
    return best


def wagner_column_dp(dfa: PartialDfa, word) -> EditDistanceResult:
    """d(L, word) and its witness by Wagner's column DP with a per-column
    record of the move into each state: the witness tie-rule oracle for
    ``flgen.editdist.edit_distance``, which derives the same moves from its
    columns instead.

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


def refutation_depth(n_symbols: int, node_budget: int = 400) -> int:
    """Largest depth whose full completion tree fits in the node budget,
    but at least 2."""
    depth, nodes, layer = 0, 1, 1
    while True:
        layer *= n_symbols
        if nodes + layer > node_budget:
            break
        nodes += layer
        depth += 1
    return max(depth, 2)


_DIST_CACHE: dict[int, np.ndarray] = {}


def _accept_distances(dfa: PartialDfa) -> np.ndarray:
    key = id(dfa)
    if key not in _DIST_CACHE:
        back: list[list[int]] = [[] for _ in range(dfa.n_states)]
        for q in range(dfa.n_states):
            for _sym, dst in dfa.transitions_from(q):
                back[dst].append(q)
        dist = np.full(dfa.n_states, np.inf)
        queue = deque()
        for q in dfa.accepting:
            dist[q] = 0
            queue.append(q)
        while queue:
            q = queue.popleft()
            for src in back[q]:
                if dist[src] == np.inf:
                    dist[src] = dist[q] + 1
                    queue.append(int(src))
        _DIST_CACHE[key] = dist
    return _DIST_CACHE[key]


def _dfa_completion(dfa: PartialDfa, ids: list[int]):
    """Shortest word driving the DFA from the state after ``ids`` into
    acceptance, or None when ``ids`` is dead."""
    state = dfa.start
    for s in ids:
        state = int(dfa.delta[state, s])
        if state < 0:
            return None
    dist = _accept_distances(dfa)
    if not np.isfinite(dist[state]):
        return None
    out = []
    while not dfa.is_accepting(state):
        sym, state = min(
            dfa.transitions_from(state), key=lambda t: (dist[t[1]], t[0])
        )
        out.append(sym)
    return out


def _decode_le(bits) -> int:
    out = 0
    for i, b in enumerate(bits):
        out |= int(b) << i
    return out


def _minimal_le(x: int) -> list[int]:
    return [(x >> i) & 1 for i in range(max(1, x.bit_length()))]


def _marker_completion(start: list[int], marker: int, transform) -> list[int] | None:
    if start.count(marker) == 0:
        return [marker] + transform(start)
    if start.count(marker) > 1:
        return None
    pos = start.index(marker)
    expected = transform(start[:pos])
    right = start[pos + 1:]
    if right != expected[: len(right)]:
        return None
    return expected[len(right):]


def _arith_completion(start: list[int], op_sym: int, eq_sym: int, combine) -> list[int] | None:
    n_ops, n_eqs = start.count(op_sym), start.count(eq_sym)
    if n_ops > 1 or n_eqs > 1:
        return None
    if n_ops == 0:
        if n_eqs or not start:
            return None
        return [op_sym, 1, eq_sym] + _minimal_le(combine(_decode_le(start), 1))
    op_pos = start.index(op_sym)
    x_bits = start[:op_pos]
    if not x_bits or any(b > 1 for b in x_bits):
        return None
    x = _decode_le(x_bits)
    if n_eqs == 0:
        y_bits = start[op_pos + 1:]
        if not y_bits:
            return [1, eq_sym] + _minimal_le(combine(x, 1))
        return [eq_sym] + _minimal_le(combine(x, _decode_le(y_bits)))
    eq_pos = start.index(eq_sym)
    if eq_pos < op_pos:
        return None
    y_bits = start[op_pos + 1:eq_pos]
    if not y_bits:
        return None
    expected = _minimal_le(combine(x, _decode_le(y_bits)))
    z_part = start[eq_pos + 1:]
    if z_part[: len(expected)] != expected[: len(z_part)]:
        return None
    if len(z_part) > len(expected) and any(b != 0 for b in z_part[len(expected):]):
        return None
    return expected[len(z_part):]


def _sqrt_completion(start: list[int]) -> list[int] | None:
    if start.count(2) > 1:
        return None
    if start.count(2) == 0:
        if not start:
            return None
        return [2] + _minimal_le(math.isqrt(_decode_le(start)))
    eq_pos = start.index(2)
    x_bits = start[:eq_pos]
    if not x_bits:
        return None
    expected = _minimal_le(math.isqrt(_decode_le(x_bits)))
    z_part = start[eq_pos + 1:]
    if z_part[: len(expected)] != expected[: len(z_part)]:
        return None
    if len(z_part) > len(expected) and any(b != 0 for b in z_part[len(expected):]):
        return None
    return expected[len(z_part):]


def _stack_completion(start: list[int]) -> list[int] | None:
    pop_sym, push_sym, eq_sym = 2, 3, 4
    stack: list[int] = []
    i = 0
    while i < len(start) and start[i] <= 1:
        stack.append(start[i])
        i += 1
    while i < len(start) and start[i] != eq_sym:
        if start[i] == pop_sym:
            if not stack:
                return None
            stack.pop()
            i += 1
        elif start[i] == push_sym:
            if i + 1 == len(start):
                return [0, eq_sym] + (stack + [0])[::-1]
            if start[i + 1] > 1:
                return None
            stack.append(start[i + 1])
            i += 2
        else:
            return None
    if i == len(start):
        return [eq_sym] + stack[::-1]
    expected = stack[::-1]
    suffix = start[i + 1:]
    if suffix != expected[: len(suffix)]:
        return None
    return expected[len(suffix):]


def _missing_dup_completion(start: list[int]) -> list[int] | None:
    blanks = start.count(2)
    if blanks > 1:
        return None
    if blanks == 1:
        return [1 if s == 2 else s for s in start]
    return [1] + list(start) + [2]


def construct_completion(lang, start: list[int]) -> list[int] | None:
    """A candidate completion of ``start`` into a member, built from the
    language's structure.  Only trusted once the membership predicate
    accepts start + completion."""
    if lang.dfa is not None:
        return _dfa_completion(lang.dfa, start)
    name = lang.name
    if name == "majority":
        ones = sum(1 for s in start if s == 1)
        return [1] * max(0, len(start) - 2 * ones + 1)
    if name == "unmarked-reversal":
        return list(reversed(start))
    if name == "marked-reversal":
        return _marker_completion(start, 2, lambda u: u[::-1])
    if name == "marked-copy":
        return _marker_completion(start, 2, list)
    if name == "odds-first":
        return _marker_completion(start, 2, lambda u: u[::2] + u[1::2])
    if name == "bucket-sort":
        return _marker_completion(start, 6, sorted)
    if name == "missing-duplicate":
        return _missing_dup_completion(start)
    if name == "stack-manipulation":
        return _stack_completion(start)
    if name == "binary-addition":
        return _arith_completion(start, 2, 3, lambda a, b: a + b)
    if name == "binary-multiplication":
        return _arith_completion(start, 2, 3, lambda a, b: a * b)
    if name == "compute-sqrt":
        return _sqrt_completion(start)
    raise ValueError(f"no completion builder for {name}")


def bounded_next_oracle(lang, prefix: list[int], claimed: frozenset,
                        bound_extra: int = 8, member_suffix=None):
    """Check one claimed next-set by independent completion search.

    Each symbol is decided by hunting for a certificate completion: first
    the constructive per-language builder (verified through the membership
    predicate, so a wrong builder cannot certify anything), then exhaustive
    search to a budgeted depth.  A certificate for a claimed-invalid symbol
    or a missing certificate for a claimed-valid one is a mismatch.  EOS is
    decided directly by membership.  When the prefix comes from a known
    member, pass its remaining suffix so that branch is certified for free.
    """
    n_syms = len(lang.alphabet)
    allowance = len(prefix) + bound_extra
    depth = min(bound_extra, refutation_depth(n_syms))
    mismatches = []

    def exhaustive_search(start_ids: list[int]) -> bool:
        queue = deque([tuple(start_ids)])
        limit = len(start_ids) + depth
        while queue:
            ids = queue.popleft()
            if lang.contains(list(ids)):
                return True
            if len(ids) < limit:
                for s in range(n_syms):
                    queue.append(ids + (s,))
        return False

    for sym in range(n_syms):
        extended = prefix + [sym]
        found = False
        if member_suffix and sym == member_suffix[0]:
            found = lang.contains(prefix + list(member_suffix))
        if not found:
            cand = construct_completion(lang, extended)
            found = (
                cand is not None
                and len(cand) <= allowance
                and lang.contains(extended + cand)
            )
        if not found:
            found = exhaustive_search(extended)
        if sym in claimed and not found:
            mismatches.append((sym, "claimed valid, no completion found"))
        elif sym not in claimed and found:
            mismatches.append((sym, "claimed invalid, completion exists"))
    truth_eos = lang.contains(prefix)
    if truth_eos != (EOS in claimed):
        mismatches.append((EOS, f"EOS should be {truth_eos}"))
    return mismatches


def json_dumps_split_lines(split: DatasetSplit):
    """The lines of a split file, each record through ``json.dumps`` with
    sorted keys and no whitespace; a next set lists the glyphs of its ids in
    ascending order, then ``</s>`` if it holds EOS."""
    lang = get_language(split.language)
    header = {
        "format": FORMAT_VERSION,
        "language": split.language,
        "role": split.role,
        "n_min": split.n_min,
        "n_max": split.n_max,
        "seed": split.seed,
        "count": split.count,
    }
    yield json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    rendered: dict[frozenset[int], list[str]] = {}
    for ex in split.examples:
        record = {"text": ex.text, "label": int(ex.label)}
        if ex.next_sets is not None:
            nexts = []
            for cur in ex.next_sets:
                glyphs = rendered.get(cur)
                if glyphs is None:
                    glyphs = [lang.alphabet.glyphs[s] for s in sorted(cur - {EOS})]
                    if EOS in cur:
                        glyphs.append("</s>")
                    rendered[cur] = glyphs
                nexts.append(glyphs)
            record["next"] = nexts
        yield json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def example_rng(master_seed: int, role_id: int, index: int) -> np.random.Generator:
    """The stream example ``index`` of a split draws from, built as
    ``numpy.random.default_rng`` builds it from a SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, role_id, index]))


def per_example_split(lang, role: str, master_seed: int, *, annotate: bool, count: int,
                      n_min: int, n_max: int, forbidden=frozenset()) -> list[LabeledExample]:
    """The examples of ``generate_split`` as first written: each example
    seeds its own ``example_rng``, and one whose text is in ``forbidden``
    is redrawn, with its label, from the rest of that stream."""
    examples = []
    for index in range(count):
        rng = example_rng(master_seed, ROLES[role][0], index)
        label = False if role in NEGATIVES_ONLY else None
        for _attempt in range(DEFAULT_DEDUP_ATTEMPTS):
            example = generate_example(lang, n_min, n_max, annotate, rng, label)
            label = example.label
            if example.text not in forbidden:
                break
        else:
            raise AssertionError(f"no unseen example at index {index}")
        examples.append(example)
    return examples


# ---------------------------------------------------------------------------
# the procedural next-set walkers as flgen.langlib first wrote them: a state
# machine per family that builds a fresh set at every position, and a
# missing-duplicate walker that calls the member predicate on each prefix

_POP, _PUSH, _SEQ = 2, 3, 4
_UND = 2
_MARKED_COMPLETIONS = {
    "marked-reversal": lambda u: u[::-1],
    "marked-copy": lambda u: list(u),
    "odds-first": lambda u: u[::2] + u[1::2],
    "bucket-sort": sorted,
}
_ARITH_COMBINE = {
    "binary-addition": operator.add,
    "binary-multiplication": operator.mul,
    "compute-sqrt": math.isqrt,
}


def old_next_set_walker(lang):
    """The old next-set walker of the procedural language ``lang``."""
    if lang.name == "majority":
        return _old_majority_next_sets
    if lang.name == "stack-manipulation":
        return _old_stack_next_sets
    if lang.name == "unmarked-reversal":
        return _old_unmarked_reversal_next_sets
    if lang.name == "missing-duplicate":
        return _old_missing_duplicate_walker(lang._contains)
    if lang.name in _MARKED_COMPLETIONS:
        return _old_marked_walker(lang.alphabet, _MARKED_COMPLETIONS[lang.name])
    if lang.name in _ARITH_COMBINE:
        return _old_arith_walker(lang.alphabet, _ARITH_COMBINE[lang.name])
    raise ValueError(f"{lang.name} has no procedural walker")


def _old_majority_next_sets(w: list[int]) -> list[frozenset[int]]:
    out = []
    ones = 0
    for t in range(len(w) + 1):
        cur = {0, 1}
        if ones > t - ones:
            cur.add(EOS)
        out.append(frozenset(cur))
        if t < len(w):
            ones += w[t]
    return out


def _old_stack_next_sets(w: list[int]) -> list[frozenset[int]]:
    sets: list[frozenset[int]] = []
    phase = "init"  # init | actions | after_push | final
    stack: list[int] = []
    expected: list[int] = []
    matched = 0
    invalid = False
    for t in range(len(w) + 1):
        if invalid:
            sets.append(frozenset())
        elif phase == "init":
            cur = {0, 1, _PUSH, _SEQ}
            if stack:
                cur.add(_POP)
            sets.append(frozenset(cur))
        elif phase == "actions":
            cur = {_PUSH, _SEQ}
            if stack:
                cur.add(_POP)
            sets.append(frozenset(cur))
        elif phase == "after_push":
            sets.append(frozenset({0, 1}))
        elif matched < len(expected):
            sets.append(frozenset({expected[matched]}))
        else:
            sets.append(frozenset({EOS}))
        if t == len(w):
            break
        c = w[t]
        if invalid:
            continue
        if phase in ("init", "actions"):
            if c <= 1 and phase == "init":
                stack.append(c)
            elif c == _POP and stack:
                stack.pop()
                phase = "actions"
            elif c == _PUSH:
                phase = "after_push"
            elif c == _SEQ:
                expected = stack[::-1]
                phase = "final"
            else:
                invalid = True
        elif phase == "after_push":
            if c <= 1:
                stack.append(c)
                phase = "actions"
            else:
                invalid = True
        else:
            if matched < len(expected) and c == expected[matched]:
                matched += 1
            else:
                invalid = True
    return sets


def _old_marked_walker(alphabet: Alphabet, complete):
    marker = len(alphabet) - 1
    anything = frozenset(range(len(alphabet)))

    def next_sets(w: list[int]) -> list[frozenset[int]]:
        # any symbol up to the marker, then the forced completion of the
        # left part and EOS, then nothing once a symbol breaks it
        if marker not in w:
            return [anything] * (len(w) + 1)
        pos = w.index(marker)
        forced = complete(w[:pos]) + [EOS]
        tail = w[pos + 1:]
        sets = [anything] * (pos + 1)
        for k in range(len(tail) + 1):
            if k and tail[k - 1] != forced[k - 1]:
                break
            sets.append(frozenset({forced[k]}))
        return sets + [frozenset()] * (len(w) + 1 - len(sets))

    return next_sets


def _old_unmarked_reversal_next_sets(w: list[int]) -> list[frozenset[int]]:
    out = []
    for t in range(len(w) + 1):
        cur = {0, 1}
        prefix = w[:t]
        if t % 2 == 0 and prefix == prefix[::-1]:
            cur.add(EOS)
        out.append(frozenset(cur))
    return out


def _old_missing_duplicate_walker(member):
    def next_sets(w: list[int]) -> list[frozenset[int]]:
        out = []
        blanks = 0
        for t in range(len(w) + 1):
            if blanks == 0:
                out.append(frozenset({0, 1, _UND}))
            elif blanks == 1:
                cur = {0, 1}
                if member(w[:t]):
                    cur.add(EOS)
                out.append(frozenset(cur))
            else:
                out.append(frozenset())
            if t < len(w) and w[t] == _UND:
                blanks += 1
        return out

    return next_sets


def _old_arith_walker(alphabet: Alphabet, combine):
    seps = range(2, len(alphabet))

    def next_sets(w: list[int]) -> list[frozenset[int]]:
        sets: list[frozenset[int]] = []
        operands: list[list[int]] = [[]]
        expected: list[int] | None = None
        matched = 0
        invalid = False
        for t in range(len(w) + 1):
            if invalid:
                sets.append(frozenset())
            elif expected is None:
                sep = seps[len(operands) - 1]
                sets.append(frozenset({0, 1, sep}) if operands[-1] else frozenset({0, 1}))
            elif matched < len(expected):
                sets.append(frozenset({expected[matched]}))
            else:
                sets.append(frozenset({0, EOS}))
            if t == len(w) or invalid:
                continue
            c = w[t]
            if expected is None:
                if c <= 1:
                    operands[-1].append(c)
                elif c == seps[len(operands) - 1] and operands[-1]:
                    if len(operands) == len(seps):
                        expected = _minimal_le(combine(*map(_decode_le, operands)))
                    else:
                        operands.append([])
                else:
                    invalid = True
            elif matched < len(expected) and c == expected[matched]:
                matched += 1
            elif matched < len(expected) or c != 0:
                invalid = True
        return sets

    return next_sets


# ---------------------------------------------------------------------------
# binary-addition's and binary-multiplication's samplers as flgen.langlib
# wrote them before they shared one sampler, with the range check they called


def _range_or_error(name: str, lo: int, hi: int, n_min: int, n_max: int) -> tuple[int, int]:
    if lo > hi:
        raise ConfigurationError(
            f"{name}: sampler cannot realize a length in [{n_min}, {n_max}]"
        )
    return lo, hi


def _addition_sampler(n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
    lo, hi = _range_or_error("binary-addition", max(5, n_min), n_max, n_min, n_max)
    n = int(rng.integers(lo, hi + 1))
    parts = _dirichlet_parts(rng, (1.0, 1.0, 1.0), n - 5)
    n_x, n_y, n_z = (p + 1 for p in parts)
    n_x, n_y = min(n_x, n_y), max(n_x, n_y)
    x = _uniform_int(rng, min(2 ** n_x - 1, 2 ** n_z - 1))
    y = _uniform_int(rng, min(2 ** n_y - 1, 2 ** n_z - 1 - x))
    u_x, u_y = _encode_le(x, n_x), _encode_le(y, n_y)
    if int(rng.integers(2)):
        u_x, u_y = u_y, u_x
    return u_x + [2] + u_y + [3] + _encode_le(x + y, n_z)


def _multiplication_sampler(n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
    lo, hi = _range_or_error("binary-multiplication", max(5, n_min), n_max, n_min, n_max)
    n = int(rng.integers(lo, hi + 1))
    parts = _dirichlet_parts(rng, (1.0, 1.0, 2.0), n - 5)
    n_x, n_y, n_z = (p + 1 for p in parts)
    n_x, n_y = min(n_x, n_y), max(n_x, n_y)
    x = _uniform_int(rng, 2 ** n_x - 1)
    if x > 0:
        y = _uniform_int(rng, min(2 ** n_y - 1, (2 ** n_z - 1) // x))
    else:
        y = _uniform_int(rng, 2 ** n_y - 1)
    u_x, u_y = _encode_le(x, n_x), _encode_le(y, n_y)
    if int(rng.integers(2)):
        u_x, u_y = u_y, u_x
    return u_x + [2] + u_y + [3] + _encode_le(x * y, n_z)


OLD_BINARY_SAMPLERS = {
    "binary-addition": _addition_sampler,
    "binary-multiplication": _multiplication_sampler,
}
