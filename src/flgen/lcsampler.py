"""Length-constrained sampling from the uniform-policy distribution of a DFA.

Every DFA arc consumes exactly one symbol, so beta_i(q), the probability
that the uniform-policy walk from q emits exactly i more symbols and stops,
is a plain recursion over lengths: bin i of beta(q) sums its targets' bin
i-1, scaled by the policy probability, and bin 0 holds the stopping
probability.  The recursion runs over exact integer path weights (the
counting semiring), so every table entry is a correctly rounded quotient
and the tables are the same on every IEEE platform.  The per-state local
tables normalize the targets' weights within each remaining-length bin, and
a draw walks them symbol by symbol.  A bin costs O(arcs) integer operations
until its reduced weights cycle, which Brent's search finds keeping one
saved weight vector; every later bin repeats that cycle and costs O(|Q|).
A table resumes from its last bin, so widening one to a larger n_max costs
only the new bins.  Each draw step is one bisect over the state's fan-out.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .automata import PartialDfa, require_range, require_trim
from .errors import ConfigurationError, UsageError


@dataclass
class StateTable:
    """Local sampling table for one state.

    ``rows[i]`` is the cumulative probability over the state's transitions
    (sorted by symbol id) given that exactly i more symbols will be consumed
    before stopping, as a tuple whose last entry is 1.0, or None where no
    mass remains.  Bin 0 is always None.
    """

    symbols: list[int]
    targets: list[int]
    rows: list[tuple[float, ...] | None]


@dataclass(frozen=True)
class Frontier:
    """Where a table's recursion stopped, all that a wider table needs to
    resume it: the reduced weights of the last bin, the product of the gcds
    divided out so far and, once the weights cycle, the (gcd, start weight)
    of each bin of one period, the next bin's first (the weights are then
    not needed)."""

    weights: list[int]
    removed: int
    cycle: tuple[tuple[int, int], ...]


@dataclass
class SamplerTables:
    """Everything needed to draw strings of an exact length from a DFA."""

    dfa: PartialDfa
    n_min: int
    n_max: int
    pushed: list[StateTable]
    allsum_z: tuple[float, ...]
    valid_lengths: tuple[int, ...]
    frontier: Frontier

    def restrict(self, n_min: int, n_max: int) -> SamplerTables:
        """The same tables serving [n_min, n_max].  Bin i of beta reads only
        bin i-1, so a table built to a wider horizon holds exactly the bins a
        narrower build would."""
        return replace(
            self, n_min=n_min, n_max=n_max,
            valid_lengths=valid_lengths(self.allsum_z, n_min, n_max),
        )


_CERTAIN = (1.0,)


def _row(weights: list[int], targets: list[int]) -> tuple[float, ...] | None:
    """Cumulative choice probabilities over the targets' weights, each a
    correctly rounded int/int quotient, so the last entry is exactly 1.0;
    None where no target carries weight."""
    prefix = list(accumulate(map(weights.__getitem__, targets)))
    if not prefix or not prefix[-1]:
        return None
    total = prefix[-1]
    return tuple([p / total for p in prefix])


def valid_lengths(allsum_z: tuple[float, ...], n_min: int, n_max: int) -> tuple[int, ...]:
    """Lengths in [n_min, n_max] whose total probability mass is nonzero."""
    require_range(n_min, n_max)
    if n_max >= len(allsum_z):
        raise UsageError(
            f"n_max {n_max} exceeds the preprocessed bound {len(allsum_z) - 1}"
        )
    return tuple(n for n in range(n_min, n_max + 1) if allsum_z[n] > -math.inf)


def build_sampler_tables(
    dfa: PartialDfa, n_min: int, n_max: int, base: SamplerTables | None = None
) -> SamplerTables:
    """Preprocess a trim DFA for exact-length sampling over [n_min, n_max].

    Given ``base``, an earlier table of the same DFA, the new table keeps
    base's bins and resumes the recursion at base's frontier, so it holds
    exactly the bins a fresh build would; base itself is left as it was.

    With d_q the number of choices at q (its transitions, plus stopping when
    accepting) and D their lcm, W_i(q) = beta_i(q) * D**(i+1) is an integer:
    W_0(q) = [q accepting] * D/d_q and W_i(q) = D/d_q * (sum of W_{i-1} over
    q's targets).  The recursion carries V_i, W_i over the gcd of its
    entries, which keeps the integers small and every ratio within a bin as
    it is; ``removed`` is the product of those gcds, so that
    log beta_i(q) = log V_i(q) + log(removed) - (i+1) * log D.  Once V_i
    equals an earlier V_j, every later bin repeats the bin p = i - j before
    it, gcd and start weight included, and needs no sums.  Brent's cycle
    search (1980) keeps one saved V_j, re-saved at each power-of-two bin.
    """
    require_range(n_min, n_max)
    require_trim(dfa, "sampling")
    outs = [dfa.transitions_from(q) for q in range(dfa.n_states)]
    targets = [[dst for _sym, dst in o] for o in outs]
    accepting = [dfa.is_accepting(q) for q in range(dfa.n_states)]
    degrees = [len(t) + a for t, a in zip(targets, accepting)]
    big_d = math.lcm(*degrees)
    scale = [big_d // k for k in degrees]
    log_d = math.log(big_d)
    if base is None:
        pushed = [StateTable([sym for sym, _dst in o], t, [None]) for o, t in zip(outs, targets)]
        frontier = Frontier([s * a for s, a in zip(scale, accepting)], 1, ())
        w = frontier.weights[dfa.start]
        log_z = [math.log(w) - log_d if w else -math.inf]
    else:
        if base.dfa is not dfa:
            raise UsageError("a sampler table widens only a table of the same DFA")
        pushed = [StateTable(st.symbols, st.targets, st.rows.copy()) for st in base.pushed]
        frontier = base.frontier
        log_z = list(base.allsum_z)
    rows = [st.rows for st in pushed]
    # a state with one arc takes it whenever its target carries weight
    one_arc = [(r, t[0]) for r, t in zip(rows, targets) if len(t) == 1]
    more_arcs = [(r, t) for r, t in zip(rows, targets) if len(t) != 1]
    v, removed, cycle = frontier.weights, frontier.removed, deque(frontier.cycle)
    # Brent's cycle search: the weights of the last power-of-two bin or of the
    # bin the build resumes from, and the (gcd, start weight) of each bin since
    saved, since = v, []
    for i in range(len(log_z), n_max + 1):
        if cycle:
            period = len(cycle)
            for r in rows:
                r.append(r[-period])
            g, w = cycle[0]
            cycle.rotate(-1)
            removed *= g
        else:
            for r, t in one_arc:
                r.append(_CERTAIN if v[t] else None)
            for r, t in more_arcs:
                r.append(_row(v, t))
            v = [s * sum(map(v.__getitem__, t)) for s, t in zip(scale, targets)]
            g = math.gcd(*v) or 1
            if g != 1:
                v = [x // g for x in v]
            removed *= g
            w = v[dfa.start]
            since.append((g, w))
            if v == saved:
                # exactly one period, the next bin's first
                cycle.extend(since)
            elif i & (i - 1) == 0:
                saved, since = v, []
        log_z.append(math.log(w) + (math.log(removed) - (i + 1) * log_d) if w else -math.inf)
    z = tuple(log_z)
    return SamplerTables(
        dfa=dfa,
        n_min=n_min,
        n_max=n_max,
        pushed=pushed,
        allsum_z=z,
        valid_lengths=valid_lengths(z, n_min, n_max),
        frontier=Frontier([] if cycle else v, removed, tuple(cycle)),
    )


def sample_string(tables: SamplerTables, n: int, rng: np.random.Generator) -> list[int]:
    """Draw one accepted string of exact length ``n``."""
    if not (tables.n_min <= n <= tables.n_max and tables.allsum_z[n] > -math.inf):
        raise UsageError(f"length {n} is not a valid length for this table")
    pushed = tables.pushed
    q = tables.dfa.start
    out: list[int] = []
    # one call draws the same PCG64 stream as n scalar rng.random() calls
    for remaining, u in zip(range(n, 0, -1), rng.random(n).tolist()):
        st = pushed[q]
        row = st.rows[remaining]
        if row is None:
            raise AssertionError(
                f"no mass at state {q} with {remaining} symbols remaining"
            )
        j = bisect_right(row, u)
        out.append(st.symbols[j])
        q = st.targets[j]
    if not tables.dfa.is_accepting(q):
        raise AssertionError(f"sampler stopped in non-accepting state {q}")
    return out


def sample_positive_regular(tables: SamplerTables, rng: np.random.Generator) -> list[int]:
    """Uniform valid length, then one string of that exact length."""
    if not tables.valid_lengths:
        raise ConfigurationError(
            f"language has no strings in range [{tables.n_min}, {tables.n_max}]"
        )
    n = tables.valid_lengths[int(rng.integers(len(tables.valid_lengths)))]
    return sample_string(tables, n, rng)
