"""Length-constrained sampling from the uniform-policy distribution of a DFA.

Every DFA arc consumes exactly one symbol, so beta_i(q), the probability
that the uniform-policy walk from q emits exactly i more symbols and stops,
is a plain recursion over lengths: bin i of beta(q) sums its targets' bin
i-1, scaled by the policy probability, and bin 0 holds the stopping
probability.  The recursion runs over exact integer path weights (the
counting semiring), so every table entry is a correctly rounded quotient
and the tables are the same on every IEEE platform.  The per-state local
tables normalize the targets' weights within each remaining-length bin, and
a draw walks them symbol by symbol.  Preprocessing costs O(arcs * n_max)
integer operations; each draw step is one bisect over the state's fan-out.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
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


@dataclass
class SamplerTables:
    """Everything needed to draw strings of an exact length from a DFA."""

    dfa: PartialDfa
    n_min: int
    n_max: int
    pushed: list[StateTable]
    allsum_z: tuple[float, ...]
    valid_lengths: tuple[int, ...]

    def restrict(self, n_min: int, n_max: int) -> SamplerTables:
        """The same tables serving [n_min, n_max].  Bin i of beta reads only
        bin i-1, so a table built to a wider horizon holds exactly the bins a
        narrower build would."""
        return replace(
            self, n_min=n_min, n_max=n_max,
            valid_lengths=valid_lengths(self.allsum_z, n_min, n_max),
        )


def path_weights(dfa: PartialDfa, n_max: int) -> Iterator[tuple[float, list[int]]]:
    """For i = 0..n_max, exact path weights V_i over the states and the log
    scale that turns them into beta: log beta_i(q) = log V_i(q) + scale_i.

    With d_q the number of choices at q (its transitions, plus stopping when
    accepting) and D their lcm, W_i(q) = beta_i(q) * D**(i+1) is an integer:
    W_0(q) = [q accepting] * D/d_q and W_i(q) = D/d_q * (sum of W_{i-1} over
    q's targets).  V_i is W_i over the gcd of its entries, which keeps the
    integers small and every ratio within a bin as it is.
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


def build_sampler_tables(dfa: PartialDfa, n_min: int, n_max: int) -> SamplerTables:
    """Preprocess a trim DFA for exact-length sampling over [n_min, n_max]."""
    require_range(n_min, n_max)
    require_trim(dfa, "sampling")
    pushed = [
        StateTable([sym for sym, _dst in o], [dst for _sym, dst in o], [None])
        for o in map(dfa.transitions_from, range(dfa.n_states))
    ]
    log_z = []
    # the reduced weights of most DFAs repeat within a few bins, and equal
    # weights give equal rows
    seen: dict[tuple[int, ...], list[tuple[float, ...] | None]] = {}
    for i, (log_scale, v) in enumerate(path_weights(dfa, n_max)):
        w = v[dfa.start]
        log_z.append(math.log(w) + log_scale if w else -math.inf)
        if i < n_max:
            key = tuple(v)
            if key not in seen:
                seen[key] = [_row(v, st.targets) for st in pushed]
            for st, row in zip(pushed, seen[key]):
                st.rows.append(row)
    z = tuple(log_z)
    return SamplerTables(
        dfa=dfa,
        n_min=n_min,
        n_max=n_max,
        pushed=pushed,
        allsum_z=z,
        valid_lengths=valid_lengths(z, n_min, n_max),
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
