"""Span tracing around flgen's public entry points, installed from outside.

``install`` rebinds each layer's public functions and methods where callers
look them up (``flgen.dataset.sample_negative``, ``flgen.cli.edit_distance``,
``LanguageSpec.contains`` ...) with wrappers that record one span per call.
A span is (name, start_ns, end_ns, parent, tag, n): ``parent`` is the index
of the enclosing span or -1, ``tag`` an optional label such as the language,
and ``n`` an exact count measured at the boundary (symbols drawn, attempts,
product arcs, bytes written).  Spans stay in memory until the pass ends;
``save`` writes them out and ``layer_metrics`` reduces them.

The wrappers only observe: they draw no randomness and return what the
wrapped call returns, so a traced pass writes the same bytes as an untraced
one (the benchmark checks this).
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from workloads import REGULAR, WORKLOADS

# languages whose sampler-table builds and probes are reported one by one
BUILD_LANGUAGES = WORKLOADS["regular-annotated"].languages
PROBE_LANGUAGES = REGULAR


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple | None] = []
        self._stack = [-1]

    def wrap(self, name, fn, measure=None):
        """``fn`` recording a span per call; ``measure(args, kwargs, result)``
        returns the span's (tag, n) after the clock has stopped."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None, 0)
            if measure is not None:
                tag, n = measure(args, kwargs, result)
                spans[idx] = (name, start, end, parent, tag, n)
            return result

        return traced

    def save(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        tags = sorted({s[4] for s in self.spans if s[4] is not None})
        tag_code = {t: i for i, t in enumerate(tags)}
        np.savez_compressed(
            path,
            names=np.array(names),
            tags=np.array(tags),
            name=np.array([code[s[0]] for s in self.spans], dtype=np.int32),
            start_ns=np.array([s[1] for s in self.spans], dtype=np.int64),
            end_ns=np.array([s[2] for s in self.spans], dtype=np.int64),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            tag=np.array([-1 if s[4] is None else tag_code[s[4]] for s in self.spans],
                         dtype=np.int32),
            n=np.array([s[5] for s in self.spans], dtype=np.int64),
            run_id=np.full(len(self.spans), self.run_id),
        )


def install(tracer: Tracer, languages) -> None:
    """Wrap the entry points of every layer.  Call after importing flgen and
    before any language is built."""
    import flgen.cli as cli
    import flgen.dataset as dataset
    import flgen.editdist as editdist
    import flgen.langlib as langlib
    from flgen.automata import Alphabet
    from flgen.semiring import BinningSemiring

    wrap = tracer.wrap
    dfa_names: dict[int, str] = {}

    def dfa_tag(args, kwargs, result):
        dfa = args[0]
        if id(dfa) not in dfa_names:
            for name in languages:
                lang_dfa = langlib.get_language(name).dfa
                if lang_dfa is not None:
                    dfa_names[id(lang_dfa)] = name
        return dfa_names.get(id(dfa)), 0

    def length_of_result(args, kwargs, result):
        return None, len(result)

    def length_of_arg(args, kwargs, result):
        return None, len(args[1])

    # semiring: the binned vector algebra behind sampler preprocessing
    for op in ("add", "mul", "star"):
        setattr(BinningSemiring, op,
                wrap("semiring.binning", getattr(BinningSemiring, op)))

    # automata: symbol coding at the text boundary
    Alphabet.encode = wrap("automata.encode", Alphabet.encode, length_of_result)
    Alphabet.decode = wrap("automata.decode", Alphabet.decode, length_of_arg)

    # lcsampler, as langlib calls it
    langlib.build_sampler_tables = wrap(
        "lcsampler.build", langlib.build_sampler_tables, dfa_tag)
    langlib.sample_positive_regular = wrap(
        "lcsampler.draw", langlib.sample_positive_regular, length_of_result)

    # langlib: the three per-language operations
    spec = langlib.LanguageSpec
    spec.contains = wrap("langlib.contains", spec.contains)
    spec.sample_positive = wrap("langlib.sample_positive", spec.sample_positive)
    spec.next_sets = wrap("langlib.next_sets", spec.next_sets)

    # perturb, as dataset calls it; return_info only reports how the word
    # was found and draws nothing extra
    original_negative = dataset.sample_negative

    def negative_with_info(lang, n_min, n_max, rng, **kwargs):
        return original_negative(lang, n_min, n_max, rng, return_info=True, **kwargs)

    traced_negative = wrap(
        "perturb.sample_negative", negative_with_info,
        lambda a, k, r: (r[1].branch, r[1].attempts))
    dataset.sample_negative = lambda *a, **k: traced_negative(*a, **k)[0]

    # dataset, as cli calls it (the workloads always pass --override, so cli
    # calls generate_split itself rather than generate_standard_suite)
    def split_count(args, kwargs, result):
        return None, result.count

    cli.generate_split = wrap("dataset.generate_split", cli.generate_split, split_count)
    dataset.generate_example = wrap("dataset.generate_example", dataset.generate_example)
    cli.write_split = wrap(
        "dataset.write", cli.write_split,
        lambda a, k, r: (None, os.path.getsize(a[1])))
    cli.read_split = wrap("dataset.read", cli.read_split, split_count)
    cli.validate_split = wrap("dataset.validate", cli.validate_split)

    # editdist, as cli calls it, and its pipeline stages
    cli.edit_distance = wrap("editdist.probe", cli.edit_distance, dfa_tag)
    editdist.build_chain_wfa = wrap("editdist.chain", editdist.build_chain_wfa)
    editdist.wfa_intersect = wrap(
        "editdist.intersect", editdist.wfa_intersect,
        lambda a, k, r: (None, len(r.arcs)))
    editdist.shortest_allsum = wrap("editdist.allsum", editdist.shortest_allsum)

    # cli commands, as main dispatches them
    cli.cmd_generate = wrap("cli.generate", cli.cmd_generate)
    cli.cmd_validate = wrap("cli.validate", cli.cmd_validate)
    cli.cmd_editdist = wrap("cli.editdist", cli.cmd_editdist)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, times and ratios of one traced pass."""
    child_ns = [0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for idx, (_name, start, end, parent, _tag, _n) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            children[parent].append(idx)

    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    total_n: dict[str, int] = defaultdict(int)
    build_ns: dict[str, int] = defaultdict(int)
    probe_ms: dict[str, list[float]] = defaultdict(list)
    perturbations = 0
    dedup_retries = 0
    for idx, (name, start, end, parent, tag, n) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total_ns[name] += dur
        self_ns[name] += dur - child_ns[idx]
        total_n[name] += n
        if name == "lcsampler.build":
            build_ns[tag] += dur
        elif name == "editdist.probe":
            probe_ms[tag].append(dur / 1e6)
        elif name == "perturb.sample_negative":
            perturbations += tag == "perturbation"
        elif name == "dataset.generate_split":
            # every draw of the dedup loop is a direct child of its split
            draws = sum(
                spans[c][0] in ("dataset.generate_example", "perturb.sample_negative")
                for c in children[idx]
            )
            dedup_retries += draws - n

    def secs(table, name):
        return table[name] / 1e9

    negatives = calls["perturb.sample_negative"]
    symbols_drawn = total_n["lcsampler.draw"]
    probes = [ms for tag in probe_ms for ms in probe_ms[tag]]
    out = {
        "lcsampler.build_calls": calls["lcsampler.build"],
        "lcsampler.build_s": secs(total_ns, "lcsampler.build"),
        **{f"lcsampler.build_s.{lang}": build_ns[lang] / 1e9 for lang in BUILD_LANGUAGES},
        "lcsampler.draws": calls["lcsampler.draw"],
        "lcsampler.draw_ns_per_symbol":
            total_ns["lcsampler.draw"] / symbols_drawn if symbols_drawn else 0.0,
        "semiring.binning_ops": calls["semiring.binning"],
        "semiring.binning_s": secs(total_ns, "semiring.binning"),
        "perturb.negatives": negatives,
        "perturb.attempts_per_negative":
            total_n["perturb.sample_negative"] / negatives if negatives else 0.0,
        "perturb.perturbation_share": perturbations / negatives if negatives else 0.0,
        "perturb.negative_self_s": secs(self_ns, "perturb.sample_negative"),
        "langlib.contains_calls": calls["langlib.contains"],
        "langlib.contains_s": secs(total_ns, "langlib.contains"),
        "langlib.sample_positive_calls": calls["langlib.sample_positive"],
        "langlib.sample_positive_self_s": secs(self_ns, "langlib.sample_positive"),
        "langlib.next_sets_calls": calls["langlib.next_sets"],
        "langlib.next_sets_s": secs(total_ns, "langlib.next_sets"),
        "automata.decode_s": secs(total_ns, "automata.decode"),
        "automata.encode_s": secs(total_ns, "automata.encode"),
        "automata.symbols_coded": total_n["automata.decode"] + total_n["automata.encode"],
        "dataset.generate_split_self_s": secs(self_ns, "dataset.generate_split"),
        "dataset.dedup_retries": dedup_retries,
        "dataset.write_s": secs(total_ns, "dataset.write"),
        "dataset.write_bytes": total_n["dataset.write"],
        "dataset.read_s": secs(total_ns, "dataset.read"),
        "dataset.validate_self_s": secs(self_ns, "dataset.validate"),
        "editdist.probe_s": secs(total_ns, "editdist.probe"),
        "editdist.chain_s": secs(total_ns, "editdist.chain"),
        "editdist.intersect_s": secs(total_ns, "editdist.intersect"),
        "editdist.allsum_s": secs(total_ns, "editdist.allsum"),
        "editdist.product_arcs": total_n["editdist.intersect"],
        **{f"editdist.probe_ms.{lang}":
           statistics.median(probe_ms[lang]) if probe_ms[lang] else 0.0
           for lang in PROBE_LANGUAGES},
        "editdist_probe_p50_ms": percentile(probes, 50),
        "editdist_probe_p95_ms": percentile(probes, 95),
        "cli.generate_s": secs(total_ns, "cli.generate"),
        "cli.validate_s": secs(total_ns, "cli.validate"),
        "cli.editdist_s": secs(total_ns, "cli.editdist"),
        "cli.self_s": sum(
            secs(self_ns, name)
            for name in ("cli.main", "cli.generate", "cli.validate", "cli.editdist")
        ),
    }
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no values."""
    if not values:
        return 0.0
    return float(np.percentile(values, q))
