"""The benchmark's workloads: what each pass runs, and why.

A pass is one fresh interpreter that imports flgen, builds the workload's
languages and sampler tables (the set-up), then runs the workload's
``flgen`` commands through ``flgen.cli.main``, once or several times over.
Each command is a short unit of work (one small suite of one language,
or one probe), so that the reference loop timed around it (``worker.py``)
sees the machine in the state the command did.  Every repetition
generates suites of its own, so the work of a run varies little from seed
to seed; every repetition answers the same probes, whose lengths are
spread evenly for the same reason.  Every input is derived from the workload
seed: it gives the ``--seed`` of each ``flgen generate``, and it seeds the
benchmark's own probe generator.

Which layer metric (traced run) should move which end-to-end metric, per
workload, is written beside each definition below.  On a workload that
bypasses a layer, a change to that layer must show no change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# role -> (default count, n_min, n_max); mirrors flgen.dataset.ROLES, which
# the checks compare against so a change of defaults shows up as a failure
DEFAULT_ROLES = {
    "train": (10_000, 0, 40),
    "val-short": (1_000, 0, 40),
    "val-long": (1_000, 0, 80),
    "test-short": (1_000, 0, 40),
    "test-long": (5_010, 0, 500),
    "editdist-probe": (50, 0, 500),
}

REGULAR = (
    "even-pairs", "repeat-01", "parity", "cycle-navigation",
    "modular-arithmetic", "dyck-2-3", "first",
)


@dataclass(frozen=True)
class Workload:
    name: str
    languages: tuple[str, ...]
    # "generate": set-up builds the sampler tables of every default length
    # range, then each language's suite is generated with --annotate and
    # validated; "editdist": one editdist report per language over probes
    # the benchmark makes
    kind: str
    # every split count is divided by this (keeping at least one record),
    # so that one command is short; length ranges stay at their defaults
    count_divisor: int = 1
    # suites per language in one repetition, each with its own flgen seed
    suites: int = 1
    probes_per_language: int = 0

    def counts(self) -> dict[str, tuple[int, int, int]]:
        return {
            role: (max(1, count // self.count_divisor), lo, hi)
            for role, (count, lo, hi) in DEFAULT_ROLES.items()
        }


WORKLOADS = {
    w.name: w
    for w in (
        # Why: lcsampler preprocessing and draws, the binned closure in
        # semiring, DFA next-set annotation and annotated records do most of
        # the work.  The three DFAs (27, 15 and 2 states) span two orders of
        # magnitude in preprocessing cost.  A repetition is 20 suites per
        # language at 1/200 of the default counts (91 records; 1820 per
        # language in all), so that each command takes a few hundredths of a
        # second.  editdist
        # does no work here (editdist.probe_s is 0), so an edit-distance
        # change must show no change.
        #   lcsampler.build_s, semiring.binning_s  -> setup_s
        #   lcsampler.draw_ns_per_symbol, langlib.next_sets_s,
        #   automata.decode_s, dataset.write_s     -> generate_records_per_s
        #   dataset.read_s, automata.encode_s,
        #   langlib.contains_s, langlib.next_sets_s -> validate_records_per_s
        # and both rates -> ops_per_s.
        Workload(
            name="regular-annotated",
            languages=("modular-arithmetic", "dyck-2-3", "parity"),
            kind="generate",
            count_divisor=200,
            suites=20,
        ),
        # Why: only editdist and Alphabet.encode work here.  The benchmark
        # makes the probes itself, so no sampler preprocessing enters the
        # run: lcsampler, semiring, perturb, dataset and annotation do none
        # of the work (lcsampler.build_s and langlib.next_sets_calls are 0),
        # so a sampler or next-set change must show no change here.  Each
        # command answers one probe.
        #   editdist.chain_s, editdist.intersect_s, editdist.allsum_s,
        #   editdist.product_arcs                  -> editdist_probes_per_s,
        #                                             editdist_probe_p95_ms
        #   automata.encode_s                      -> editdist_probes_per_s
        # and the probe rate is ops_per_s.
        Workload(
            name="editdist-probes",
            languages=REGULAR,
            kind="editdist",
            probes_per_language=30,
        ),
    )
}

MAX_PROBE_LENGTH = 500


def generate_argv(workload: Workload, language: str, seed: int, out_dir: str) -> list[str]:
    argv = ["generate", "--language", language, "--seed", str(seed), "--out", out_dir,
            "--annotate"]
    for role, (count, _lo, _hi) in workload.counts().items():
        argv += ["--override", f"{role}={count}"]
    return argv


def probe_files(workload: Workload) -> list[tuple[str, int]]:
    """(language, probe index) for every editdist command."""
    return [(lang, index) for lang in workload.languages
            for index in range(workload.probes_per_language)]


def commands(workload: Workload, seed: int, rep: int, out_dir: str, probe_dir: str):
    """(kind, language, ops, argv) for every flgen command of repetition
    ``rep``, in order; ``ops`` is the records written or validated, or the
    probes answered."""
    if workload.kind == "editdist":
        return [
            ("editdist", lang, 1,
             ["editdist", "--language", lang, f"{probe_dir}/{lang}.{index}.txt",
              "--out", f"{out_dir}/{lang}.{index}.editdist.tsv"])
            for lang, index in probe_files(workload)
        ]
    records = sum(count for count, _lo, _hi in workload.counts().values())
    out = []
    for suite in range(workload.suites):
        suite_dir = suite_path(out_dir, rep, suite)
        # every suite of a run has its own flgen seed
        first = seed * 100_000 + (rep * workload.suites + suite) * len(workload.languages)
        out += [("generate", lang, records,
                 generate_argv(workload, lang, first + index, suite_dir))
                for index, lang in enumerate(workload.languages)]
        out += [("validate", lang, records,
                 ["validate", *(f"{suite_dir}/{lang}.{role}.jsonl" for role in DEFAULT_ROLES)])
                for lang in workload.languages]
    return out


def suite_path(out_dir, rep: int, suite: int) -> str:
    return f"{out_dir}/r{rep}/s{suite}"


# ---------------------------------------------------------------------------
# editdist probes


def _accepting_lengths(dfa, max_len: int) -> np.ndarray:
    """ok[r, q]: some accepted string of exactly r symbols starts at q."""
    ok = np.zeros((max_len + 1, dfa.n_states), dtype=bool)
    ok[0, sorted(dfa.accepting)] = True
    delta = dfa.delta
    defined = delta >= 0
    for r in range(1, max_len + 1):
        ok[r] = (defined & ok[r - 1][np.where(defined, delta, 0)]).any(axis=1)
    return ok


def _stratum(index: int, count: int) -> tuple[int, int]:
    """The index-th of ``count`` equal slices of the lengths 0..500.  Drawing
    one length per slice keeps the total probe length, and so the work of
    a pass, nearly the same for every seed."""
    span = MAX_PROBE_LENGTH + 1
    return index * span // count, (index + 1) * span // count


def _walk(dfa, ok: np.ndarray, lo: int, hi: int, rng: np.random.Generator) -> list[int]:
    """A member of a length drawn uniformly from the accepted lengths in
    [lo, hi) (from all of them if none is), choosing uniformly among the
    arcs that can still finish on time."""
    lengths = np.nonzero(ok[:, dfa.start])[0]
    inside = lengths[(lengths >= lo) & (lengths < hi)]
    if inside.size:
        lengths = inside
    n = int(lengths[rng.integers(len(lengths))])
    q, word = dfa.start, []
    for remaining in range(n, 0, -1):
        row = dfa.delta[q]
        syms = [a for a in range(row.shape[0]) if row[a] >= 0 and ok[remaining - 1, row[a]]]
        a = syms[int(rng.integers(len(syms)))]
        word.append(a)
        q = int(row[a])
    return word


def _edit(word: list[int], n_symbols: int, rng: np.random.Generator) -> list[int]:
    """0-3 random single-symbol edits, keeping the length in 0..500."""
    word = list(word)
    for _ in range(int(rng.integers(4))):
        kinds = []
        if len(word) < MAX_PROBE_LENGTH:
            kinds.append("insert")
        if word:
            kinds += ["replace", "delete"]
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "insert":
            word.insert(int(rng.integers(len(word) + 1)), int(rng.integers(n_symbols)))
        elif kind == "replace":
            word[int(rng.integers(len(word)))] = int(rng.integers(n_symbols))
        else:
            del word[int(rng.integers(len(word)))]
    return word


def make_probes(workload: Workload, seed: int) -> dict[str, list[list[int]]]:
    """Per language, half uniform strings and half edited DFA walks, lengths
    spread over 0..500; the same seed gives the same probes."""
    from flgen.langlib import get_language

    probes = {}
    for index, name in enumerate(workload.languages):
        lang = get_language(name)
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        n_symbols = len(lang.alphabet)
        ok = _accepting_lengths(lang.dfa, MAX_PROBE_LENGTH)
        half = workload.probes_per_language // 2
        words = []
        for i in range(half):
            n = int(rng.integers(*_stratum(i, half)))
            words.append([int(s) for s in rng.integers(n_symbols, size=n)])
            walk = _walk(lang.dfa, ok, *_stratum(i, half), rng)
            words.append(_edit(walk, n_symbols, rng))
        probes[name] = words
    return probes
