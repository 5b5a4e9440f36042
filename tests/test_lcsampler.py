"""Exact-length sampling: the DP over lengths against the generic closure
oracle, local tables, distributions."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from flgen.automata import PartialDfa, check_trim
from flgen.errors import ConfigurationError, UsageError
from flgen.langlib import REGULAR_NAMES, get_language
from flgen.lcsampler import (
    build_sampler_tables,
    sample_positive_regular,
    sample_string,
    valid_lengths,
)
from flgen.semiring import LOG, REAL, TROPICAL

from .oracles import (
    BITS,
    backward,
    enumerate_with_probs,
    even_pairs_dfa,
    first_dfa,
    lehmann,
    lift_weights,
    parity_dfa,
    path_weights,
    plain_sampler_tables,
    repeat01_dfa,
    uniform_policy_beta_exact,
    uniform_policy_length_probs,
)

ALL_DFAS = {
    "parity": parity_dfa,
    "repeat01": repeat01_dfa,
    "first": first_dfa,
    "even-pairs": even_pairs_dfa,
}

# SHA-256 of repr(rows) of every state table at n_max 500, per shipped DFA.
# The rows are correctly rounded quotients of exact integers, so these hold
# on every IEEE platform and numpy build.
ROW_DIGESTS = {
    "even-pairs": "2a157f69f778e6d48f421df289ab33ab03612d5cf879c1a21c9d02849f19b664",
    "repeat-01": "e4dc9251c7a7a8f7a0e71465af634c5f24c1d32ffd12b4f510b978dd1c6fe81a",
    "parity": "7f777c406ef86434a247ad9e436fc0833dbde18b51dcc1e6e2b04489fc015822",
    "cycle-navigation": "179c42b4c034188edfeb20442bf42369d203313ec1b4ba4e4405800cb68d5529",
    "modular-arithmetic": "fb297dd0d584e3005ba99ac8a909d103f26ae486757ba2210336c0d6000a2220",
    "dyck-2-3": "de05ca85c6436d0b9546f815118f704c35ef1e2e9e1db7bad7ff639b986037c9",
    "first": "f9ecd22b3c220ed2b017d257b5236b97b54c698279cba52e634f91bd1351511d",
}

# SHA-256 of repr(allsum_z) at n_max 500, per shipped DFA, pinned from the
# plain recursion that sums every bin.  Each entry is a float expression
# over exact integers, so these hold on every IEEE platform.
ALLSUM_DIGESTS = {
    "even-pairs": "e7065188a39b8ec618057953e48325bbda5176b3615c3cf946dbe367d6c52639",
    "repeat-01": "af6106c635a93f3300ec0aa383c15cec6242c6ae60f9d77d96e2803aba207fd8",
    "parity": "3768f1961c043b97b5658da39dbfb52d7ba9d7a84a2eddd7a73f7f5e86cf902d",
    "cycle-navigation": "29a8207a6cd9025a9dfb3aadaf009c3e01bf926e1606e8cfa1f3c6ea5fe0730f",
    "modular-arithmetic": "aed0b48a5cef8f24b2c5c00e9dc76cd111c950ffeb676bd46fb0591483ee4729",
    "dyck-2-3": "34c173ed9b3f899aa4c917ab0d86c7233484037f1dd0706bb8c0756acbd38af6",
    "first": "8555a647cd8072a560b843544b27bc11dd2bf43b75604f1c4d44ca9d4ed0a7e9",
}


# Trim DFAs, found by a random search, whose reduced weights start to cycle
# at bin 5 with period 3 and with period 4: a fresh build's cycle search has
# saved the weights of bins 0, 1, 2 and 4, all before the cycle, and finds
# it from a later save.
PERIOD_3 = PartialDfa(8, BITS, {
    (0, 0): 1, (0, 1): 6, (1, 0): 3, (3, 0): 0, (4, 1): 5, (5, 1): 2,
    (6, 1): 7, (7, 1): 4,
}, 0, [0, 2, 7])
PERIOD_4 = PartialDfa(9, BITS, {
    (0, 0): 5, (0, 1): 7, (1, 1): 7, (2, 0): 8, (3, 0): 4, (3, 1): 8,
    (4, 0): 1, (4, 1): 8, (5, 1): 6, (6, 0): 2, (7, 1): 3,
}, 0, [0, 2, 4, 5, 6, 8])
SRC = Path(__file__).resolve().parent.parent / "src"


def _all_dfas():
    """The seven shipped DFAs, the inline ones and the two longer cycles."""
    dfas = {name: get_language(name).dfa for name in REGULAR_NAMES}
    dfas.update((f"inline {name}", make()) for name, make in ALL_DFAS.items())
    dfas.update({"period 3": PERIOD_3, "period 4": PERIOD_4})
    return dfas


def beta_by_length(dfa, n_max):
    """log beta, shape (n_states, n_max + 1), as a log view over the exact
    path weights: entry (q, i) is log V_i(q) plus the bin's log scale."""
    return np.array([
        [math.log(w) + log_scale if w else -np.inf for w in row]
        for log_scale, row in path_weights(dfa, n_max)
    ]).T


def test_lehmann_real_singleton():
    out = lehmann([[0.5]], REAL)
    assert REAL.isclose(out[0][0], 2.0)


def test_lehmann_real_two_state_dag():
    out = lehmann([[0.0, 0.5], [0.0, 0.0]], REAL)
    want = [[1.0, 0.5], [0.0, 1.0]]
    for i in range(2):
        for j in range(2):
            assert REAL.isclose(out[i][j], want[i][j])


def test_lehmann_tropical_two_cycle():
    inf = math.inf
    out = lehmann([[inf, 1.0], [1.0, inf]], TROPICAL)
    assert out[0][0] == 0.0 and out[1][1] == 0.0
    assert out[0][1] == 1.0 and out[1][0] == 1.0


def test_lift_weights_structure():
    dfa = parity_dfa()
    lifted = lift_weights(dfa, 6)
    # state 0: two outgoing, not accepting; state 1: two outgoing plus stop
    _, w = lifted.transitions[(0, 0)]
    assert LOG.isclose(float(w[1]), -math.log(2.0))
    assert np.all(w[np.arange(7) != 1] == -np.inf)
    _, w = lifted.transitions[(1, 1)]
    assert LOG.isclose(float(w[1]), -math.log(3.0))
    rho0, rho1 = lifted.accept_weights
    assert np.all(rho0 == -np.inf)
    assert LOG.isclose(float(rho1[0]), -math.log(3.0))
    assert np.all(rho1[1:] == -np.inf)


def test_build_sampler_tables_requires_trim():
    from flgen.automata import PartialDfa
    from .oracles import BITS

    dfa = PartialDfa(3, BITS, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, 0, [1])
    with pytest.raises(UsageError, match="trim"):
        build_sampler_tables(dfa, 0, 4)


@pytest.mark.parametrize("name", sorted(ALL_DFAS))
def test_backward_matches_dp_oracle(name):
    dfa = ALL_DFAS[name]()
    assert check_trim(dfa) == (True, None)
    beta = backward(lift_weights(dfa, 8))
    want = uniform_policy_length_probs(dfa, 8)
    got = np.exp(np.asarray(beta[dfa.start]))
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(np.exp(beta_by_length(dfa, 8)[dfa.start]), want, atol=1e-12)


def _oracle_beta(dfa, n_max):
    return np.array([np.asarray(b) for b in backward(lift_weights(dfa, n_max))])


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_beta_by_length_matches_lehmann_oracle(name):
    dfa = get_language(name).dfa
    got = beta_by_length(dfa, 80)
    want = _oracle_beta(dfa, 80)
    assert got.shape == want.shape == (dfa.n_states, 81)
    assert np.array_equal(got > -np.inf, want > -np.inf)
    finite = want > -np.inf
    assert np.abs(got[finite] - want[finite]).max() <= 1e-9


def test_valid_lengths_examples():
    reps = build_sampler_tables(repeat01_dfa(), 0, 10)
    assert reps.valid_lengths == (0, 2, 4, 6, 8, 10)
    par = build_sampler_tables(parity_dfa(), 0, 5)
    assert par.valid_lengths == (1, 2, 3, 4, 5)
    fst = build_sampler_tables(first_dfa(), 0, 3)
    assert fst.valid_lengths == (1, 2, 3)


def test_valid_lengths_validates_range():
    z = np.array([0.0, -np.inf, -1.0])
    assert valid_lengths(z, 0, 2) == (0, 2)
    with pytest.raises(UsageError):
        valid_lengths(z, 2, 1)
    with pytest.raises(UsageError):
        valid_lengths(z, 0, 5)
    with pytest.raises(UsageError):
        valid_lengths(z, -1, 2)


def test_allsum_total_mass_bounded_and_near_one():
    tables = build_sampler_tables(parity_dfa(), 0, 60)
    total = np.exp(tables.allsum_z).sum()
    assert total <= 1.0 + 1e-9
    assert total >= 0.99


def test_push_weights_columns_normalize():
    """Each row's increments are the transition probabilities given the
    remaining length, recomputed from the closure oracle's backward weights;
    a row is None exactly where no transition carries mass.  Covers the
    seven shipped DFAs and the inline ones."""
    for name, dfa in _all_dfas().items():
        tables = build_sampler_tables(dfa, 0, 12)
        beta = np.exp(_oracle_beta(dfa, 12))
        for q, st in enumerate(tables.pushed):
            outs = dfa.transitions_from(q)
            assert st.symbols == [sym for sym, _dst in outs]
            assert st.targets == [dst for _sym, dst in outs]
            assert st.rows[0] is None
            for i in range(1, 13):
                mass = beta[st.targets, i - 1]
                row = st.rows[i]
                if mass.sum() == 0.0:
                    assert row is None, (name, q, i)
                    continue
                assert row[-1] == 1.0
                steps = np.diff(row, prepend=0.0)
                assert np.abs(steps - mass / mass.sum()).max() <= 1e-9, (name, q, i)


def test_rows_are_correctly_rounded_quotients():
    """Every row entry is exactly the double nearest to its prefix mass over
    the row's total mass, computed in rational arithmetic: no tolerance."""
    for name, dfa in _all_dfas().items():
        tables = build_sampler_tables(dfa, 0, 12)
        beta = uniform_policy_beta_exact(dfa, 12)
        for q, st in enumerate(tables.pushed):
            for i in range(1, 13):
                prefix = list(accumulate(beta[dst][i - 1] for dst in st.targets))
                if not prefix or not prefix[-1]:
                    assert st.rows[i] is None, (name, q, i)
                    continue
                want = tuple(float(p / prefix[-1]) for p in prefix)
                assert st.rows[i] == want, (name, q, i)


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_row_digest_at_n_max_500(name):
    tables = build_sampler_tables(get_language(name).dfa, 0, 500)
    rows = [st.rows for st in tables.pushed]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ROW_DIGESTS[name]


@pytest.mark.parametrize("name", REGULAR_NAMES)
def test_allsum_digest_at_n_max_500(name):
    tables = build_sampler_tables(get_language(name).dfa, 0, 500)
    assert hashlib.sha256(repr(tables.allsum_z).encode()).hexdigest() == ALLSUM_DIGESTS[name]


def _widened(dfa, horizons):
    tables = None
    for n_max in horizons:
        tables = build_sampler_tables(dfa, 0, n_max, tables)
    return tables


@pytest.mark.parametrize("name", sorted(_all_dfas()))
def test_every_build_route_matches_the_plain_recursion(name):
    """A fresh build and tables widened step by step hold exactly the bins of
    the plain recursion, across the point where the weights start to cycle
    and in the cycle itself, where each bin's gcd comes from the bin one
    period back."""
    dfa = _all_dfas()[name]
    rows, allsum_z = plain_sampler_tables(dfa, 500)
    want_lengths = tuple(n for n, z in enumerate(allsum_z) if z > -math.inf)
    routes = {
        "fresh": build_sampler_tables(dfa, 0, 500),
        "3-40-80-500": _widened(dfa, (3, 40, 80, 500)),
        "40-500": _widened(dfa, (40, 500)),
    }
    for route, tables in routes.items():
        assert [st.rows for st in tables.pushed] == rows, route
        assert tables.allsum_z == allsum_z, route
        assert tables.valid_lengths == want_lengths, route


@pytest.mark.parametrize("name,period", [
    ("parity", 1), ("modular-arithmetic", 2), ("repeat-01", 2), ("dyck-2-3", 0),
    ("period 3", 3), ("period 4", 4),
])
def test_route_cases_cover_cycles_of_each_kind(name, period):
    """The route test above sees cycles of periods 1 to 4 and weights that
    never cycle within 500 bins."""
    tables = build_sampler_tables(_all_dfas()[name], 0, 500)
    assert len(tables.frontier.cycle) == period
    assert bool(tables.frontier.weights) == (period == 0)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_build_peak_memory_at_the_length_limit():
    """A fresh dyck-2-3 build at MAX_LENGTH, whose weights never cycle,
    raises the peak RSS by at most 8 MB: the tables it returns and the
    cycle search's one saved weight vector and one (gcd, start weight) pair
    per bin since, nothing that keeps a weight vector per bin.  It runs in a
    child process, after a small build, so that neither this process's peak
    nor the one-off set-up counts; the child reads its peak as VmHWM, as
    ``test_long_word_peak_memory_per_symbol`` explains."""
    code = textwrap.dedent("""\
        from flgen.dataset import MAX_LENGTH
        from flgen.langlib import get_language
        from flgen.lcsampler import build_sampler_tables

        def peak_kib():
            with open("/proc/self/status") as status:
                return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

        dfa = get_language("dyck-2-3").dfa
        build_sampler_tables(dfa, 0, 40)
        before = peak_kib()
        build_sampler_tables(dfa, 0, MAX_LENGTH)
        print((peak_kib() - before) / 1024)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 8


def test_widening_leaves_the_base_table_as_it_was():
    base = build_sampler_tables(get_language("modular-arithmetic").dfa, 0, 40)
    rows, allsum_z = [list(st.rows) for st in base.pushed], base.allsum_z
    for n_max in (80, 500):
        build_sampler_tables(base.dfa, 0, n_max, base)
    assert [st.rows for st in base.pushed] == rows
    assert base.allsum_z is allsum_z and base.n_max == 40


def test_widening_requires_the_same_dfa():
    base = build_sampler_tables(parity_dfa(), 0, 4)
    with pytest.raises(UsageError, match="same DFA"):
        build_sampler_tables(parity_dfa(), 0, 8, base)


def test_push_weights_parity_of_available_bins():
    tables = build_sampler_tables(repeat01_dfa(), 0, 10)
    rows0 = tables.pushed[0].rows
    # from the start only even totals remain, so a transition is only
    # conditionable on even remaining counts >= 2
    assert [i for i, row in enumerate(rows0) if row is not None] == [2, 4, 6, 8, 10]


def test_sample_string_rejects_invalid_length():
    tables = build_sampler_tables(repeat01_dfa(), 0, 10)
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError, match="not a valid length"):
        sample_string(tables, 3, rng)
    # every length of [0, 500] but 0 is a parity length, so only the
    # restricted range rules out 41, and -1 must not index from the end
    restricted = build_sampler_tables(parity_dfa(), 0, 500).restrict(0, 40)
    for n in (-1, 41):
        with pytest.raises(UsageError, match="not a valid length"):
            sample_string(restricted, n, rng)


def test_sample_positive_empty_range_is_configuration_error():
    tables = build_sampler_tables(first_dfa(), 0, 0)
    assert tables.valid_lengths == ()
    with pytest.raises(ConfigurationError, match="no strings in range"):
        sample_positive_regular(tables, np.random.default_rng(0))


def test_repeat01_samples_are_forced():
    tables = build_sampler_tables(repeat01_dfa(), 0, 10)
    rng = np.random.default_rng(7)
    assert sample_string(tables, 6, rng) == [0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize("name,n", [("parity", 3), ("even-pairs", 4)])
def test_conditional_distribution_matches_enumeration(name, n):
    dfa = ALL_DFAS[name]()
    want = enumerate_with_probs(dfa, n)
    total = sum(want.values())
    tables = build_sampler_tables(dfa, 0, 8)
    rng = np.random.default_rng(13)
    draws = 20_000
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(draws):
        key = tuple(sample_string(tables, n, rng))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(want)
    tv = 0.5 * sum(
        abs(counts.get(w, 0) / draws - p / total) for w, p in want.items()
    )
    assert tv <= 0.05


def test_length_draw_is_uniform_over_valid_lengths():
    tables = build_sampler_tables(repeat01_dfa(), 0, 10)
    rng = np.random.default_rng(17)
    draws = 6_000
    counts: dict[int, int] = {}
    for _ in range(draws):
        ids = sample_positive_regular(tables, rng)
        counts[len(ids)] = counts.get(len(ids), 0) + 1
    assert set(counts) == set(tables.valid_lengths)
    for c in counts.values():
        assert abs(c / draws - 1 / 6) < 0.03


def test_build_sampler_tables_validates_range():
    with pytest.raises(UsageError):
        build_sampler_tables(parity_dfa(), 3, 2)
    with pytest.raises(UsageError):
        build_sampler_tables(parity_dfa(), -1, 2)
