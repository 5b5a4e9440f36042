"""Length-constrained sampling from the uniform-policy distribution of a DFA.

Every DFA arc consumes exactly one symbol, so beta(q)[i], the probability
that the uniform-policy walk from q emits exactly i more symbols and stops,
is a plain recursion over lengths: bin i of beta(q) log-sum-exps its
targets' bin i-1, scaled by the policy probability, and bin 0 holds the
stopping probability.  The per-state local tables normalize the
targets' shifted weights within each remaining-length bin, and a draw walks
them symbol by symbol.  Preprocessing costs O(arcs * n_max); each draw step
is one bisect over the state's fan-out.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .automata import PartialDfa, check_trim
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
    allsum_z: np.ndarray
    valid_lengths: tuple[int, ...]
    _valid_set: frozenset[int] = field(init=False)

    def __post_init__(self):
        self._valid_set = frozenset(self.valid_lengths)

    def restrict(self, n_min: int, n_max: int) -> SamplerTables:
        """The same tables serving [n_min, n_max].  Bin i of beta reads only
        bin i-1, so a table built to a wider horizon holds exactly the bins a
        narrower build would."""
        return replace(
            self, n_min=n_min, n_max=n_max,
            valid_lengths=valid_lengths(self.allsum_z, n_min, n_max),
        )


def _policy(dfa: PartialDfa) -> tuple[list[list[tuple[int, int]]], np.ndarray]:
    """Each state's (symbol, target) transitions, sorted by symbol, and the
    log-probability of each choice there: at a state with j transitions
    (plus stopping, when accepting) every choice has probability 1/k, k = j
    + accepting."""
    outs = [dfa.transitions_from(q) for q in range(dfa.n_states)]
    log_p = np.array([-np.log(len(o) + dfa.is_accepting(q)) for q, o in enumerate(outs)])
    return outs, log_p


def beta_by_length(dfa: PartialDfa, n_max: int) -> np.ndarray:
    """log beta, shape (n_states, n_max + 1): entry (q, i) is the
    log-probability that the uniform-policy walk from q emits exactly i more
    symbols and stops."""
    return _beta(dfa, *_policy(dfa), n_max)


def _beta(
    dfa: PartialDfa, outs: list[list[tuple[int, int]]], log_p: np.ndarray, n_max: int
) -> np.ndarray:
    n = dfa.n_states
    accepting = np.array([dfa.is_accepting(q) for q in range(n)])
    # padded target matrix; index n points at an all -inf row
    targets = np.full((n, max(map(len, outs), default=0)), n)
    for q, o in enumerate(outs):
        targets[q, :len(o)] = [dst for _sym, dst in o]
    beta = np.full((n_max + 1, n + 1), -np.inf)
    beta[0, :n] = np.where(accepting, log_p, -np.inf)
    for i in range(1, n_max + 1):
        gathered = beta[i - 1, targets]
        peak = gathered.max(axis=1, initial=-np.inf)
        shift = np.where(peak > -np.inf, peak, 0.0)
        with np.errstate(divide="ignore"):
            total = np.log(np.exp(gathered - shift[:, None]).sum(axis=1))
        beta[i, :n] = log_p + shift + total
    return beta[:, :n].T.copy()


def _state_table(outs: list[tuple[int, int]], log_p: float, beta: np.ndarray) -> StateTable:
    """Normalize each transition's weight times its target's beta at bin i-1
    across the state's transitions, for every bin i >= 1."""
    n_bins = beta.shape[1]
    symbols = [sym for sym, _dst in outs]
    targets = [dst for _sym, dst in outs]
    if not outs:
        return StateTable(symbols, targets, [None] * n_bins)
    logits = np.full((len(outs), n_bins), -np.inf)
    logits[:, 1:] = beta[targets, :-1] + log_p
    peak = logits.max(axis=0)
    cols = np.flatnonzero(peak > -np.inf)
    shifted = np.exp(logits[:, cols] - peak[cols])
    # cumulative along the transition axis; the last entry of every row is
    # forced to 1.0 so a uniform draw u < 1 always lands on a transition
    cum = np.cumsum(shifted / shifted.sum(axis=0), axis=0).T
    cum[:, -1] = 1.0
    rows: list[tuple[float, ...] | None] = [None] * n_bins
    for i, row in zip(cols.tolist(), cum.tolist()):
        rows[i] = tuple(row)
    return StateTable(symbols, targets, rows)


def valid_lengths(allsum_z: np.ndarray, n_min: int, n_max: int) -> tuple[int, ...]:
    """Lengths in [n_min, n_max] whose total probability mass is nonzero."""
    if n_min < 0 or n_min > n_max:
        raise UsageError(f"bad length range [{n_min}, {n_max}]")
    if n_max >= allsum_z.shape[0]:
        raise UsageError(
            f"n_max {n_max} exceeds the preprocessed bound {allsum_z.shape[0] - 1}"
        )
    return tuple(n for n in range(n_min, n_max + 1) if allsum_z[n] > -np.inf)


def build_sampler_tables(dfa: PartialDfa, n_min: int, n_max: int) -> SamplerTables:
    """Preprocess a trim DFA for exact-length sampling over [n_min, n_max]."""
    if n_min < 0 or n_min > n_max:
        raise UsageError(f"bad length range [{n_min}, {n_max}]")
    ok, witness = check_trim(dfa)
    if not ok:
        raise UsageError(f"sampling needs a trim DFA; state {witness} is not live")
    outs, log_p = _policy(dfa)
    beta = _beta(dfa, outs, log_p, n_max)
    pushed = [_state_table(o, lp, beta) for o, lp in zip(outs, log_p)]
    z = beta[dfa.start]
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
    if n not in tables._valid_set:
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
