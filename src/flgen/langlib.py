"""The benchmark languages: membership, positive samplers, next-symbol sets.

Regular languages carry a trim partial DFA used for exact-length sampling
and next-set computation (one next set per state, ``LanguageSpec._state_next``),
while membership goes through an independently coded predicate so the two
routes can be checked against each other.  Non-regular languages implement
all three operations procedurally, sharing code by family: ``u # f(u)`` for
marked-reversal, marked-copy, odds-first and bucket-sort, and little-endian
binary ``x op y = z`` for binary-addition, binary-multiplication (which
share one sampler) and, as its one-operand case, compute-sqrt.  Each
procedural next-set walker is one linear pass over the word that returns
prebuilt sets and calls no membership predicate, so every family's
predicate stays independent of its walker.  ``_forced_sets`` is the one
forced-completion routine: the marked and binary families and
stack-manipulation all end in a suffix that the prefix fixes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Callable, Sequence

import numpy as np

from .automata import EOS, Alphabet, PartialDfa, compute_next_sets, require_range
from .errors import ConfigurationError, UsageError
from .lcsampler import SamplerTables, build_sampler_tables, sample_positive_regular

BIT_ALPHABET = Alphabet(["0", "1"])


class LanguageSpec:
    """One language: identity, alphabet, and its three core operations."""

    def __init__(
        self,
        name: str,
        class_label: str,
        alphabet: Alphabet,
        contains: Callable[[list[int]], bool],
        sample_positive: Callable[[int, int, np.random.Generator], list[int]] | None = None,
        next_sets: Callable[[list[int]], list[frozenset[int]]] | None = None,
        dfa: PartialDfa | None = None,
    ):
        self.name = name
        self.class_label = class_label
        self.alphabet = alphabet
        self.dfa = dfa
        self._contains = contains
        self._sample_positive = sample_positive
        self._next_sets = next_sets
        # one table per language, widened to the widest horizon requested so
        # far; each length range is a restriction of it
        self._tables: SamplerTables | None = None
        self._ranges: dict[tuple[int, int], SamplerTables] = {}
        if dfa is not None:
            self._state_next = compute_next_sets(dfa)
            self._next_sets = self._dfa_next_sets

    def contains(self, symbols: Sequence[int]) -> bool:
        return self._contains(self.alphabet.ids(symbols, self.name))

    def check(self, symbols: Sequence[int]) -> CheckedWord:
        """``symbols`` with its ids checked once, for a caller that needs
        more than one of membership, next sets and text."""
        return CheckedWord(self, self.alphabet.ids(symbols, self.name))

    def sample_positive(self, n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
        require_range(n_min, n_max)
        if self.dfa is not None:
            return sample_positive_regular(self.sampler_tables(n_min, n_max), rng)
        return self._sample_positive(n_min, n_max, rng)

    def next_sets(self, symbols: Sequence[int]) -> list[frozenset[int]]:
        return self._next_sets(self.alphabet.ids(symbols, self.name))

    def sampler_tables(self, n_min: int, n_max: int) -> SamplerTables:
        if self.dfa is None:
            raise UsageError(f"{self.name} is procedural and has no sampler tables")
        key = (n_min, n_max)
        if key not in self._ranges:
            if self._tables is None or n_max > self._tables.n_max:
                self._tables = build_sampler_tables(self.dfa, n_min, n_max, self._tables)
                self._ranges.clear()
            self._ranges[key] = self._tables.restrict(n_min, n_max)
        return self._ranges[key]

    def _dfa_next_sets(self, symbols: list[int]) -> list[frozenset[int]]:
        rows, state_next = self.dfa.rows, self._state_next
        state = self.dfa.start
        out = [state_next[state]]
        for s in symbols:
            state = rows[state][s]
            if state < 0:
                break
            out.append(state_next[state])
        # past a missing transition every prefix is dead
        out.extend([frozenset()] * (len(symbols) + 1 - len(out)))
        return out

    def parse(self, text: str) -> list[int]:
        return self.alphabet.encode(text)

    def render(self, symbols: Sequence[int]) -> str:
        return self.alphabet.decode(symbols)

    def __repr__(self) -> str:
        kind = "regular" if self.dfa is not None else "procedural"
        return f"<language {self.name} ({self.class_label}, {kind})>"


@dataclass(frozen=True)
class CheckedWord:
    """A word whose ids ``LanguageSpec.check`` has checked against ``lang``'s
    alphabet.  Membership and next sets still come from independent routes
    (the member predicate and the next-set walker); only the check is shared."""

    lang: LanguageSpec
    ids: list[int]

    def contains(self) -> bool:
        return self.lang._contains(self.ids)

    def next_sets(self) -> list[frozenset[int]]:
        return self.lang._next_sets(self.ids)

    def text(self) -> str:
        glyphs = self.lang.alphabet.glyphs
        return "".join([glyphs[s] for s in self.ids])


# ---------------------------------------------------------------------------
# shared numeric helpers

def _uniform_int(rng: np.random.Generator, hi: int) -> int:
    """Uniform integer in [0, hi], exact at arbitrary precision."""
    if hi < 0:
        raise UsageError(f"empty integer range [0, {hi}]")
    if hi == 0:
        return 0
    k = hi.bit_length()
    while True:
        bits = rng.integers(0, 2, size=k, dtype=np.uint8)
        val = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        if val <= hi:
            return val


def _dirichlet_parts(rng: np.random.Generator, alphas: Sequence[float], total: int) -> list[int]:
    """Split ``total`` into integer parts with Dirichlet-distributed
    proportions, rounding by largest remainder."""
    if total == 0:
        return [0] * len(alphas)
    raw = rng.dirichlet(alphas) * total
    parts = np.floor(raw).astype(int)
    frac = raw - parts
    for idx in np.argsort(-frac, kind="stable")[: total - parts.sum()]:
        parts[idx] += 1
    return [int(p) for p in parts]


def _encode_le(x: int, width: int) -> list[int]:
    """Little-endian bits of x, zero-padded to exactly ``width``."""
    return [(x >> i) & 1 for i in range(width)]


def _minimal_le(x: int) -> list[int]:
    return _encode_le(x, max(1, x.bit_length()))


def _decode_le(bits: Sequence[int]) -> int:
    # one linear parse of the bits, most significant first; () decodes as 0
    return int("".join(map(str, reversed(bits))) or "0", 2)


def _draw_count(rng: np.random.Generator, name: str, lo: int, hi: int,
                n_min: int, n_max: int) -> int:
    """A uniform count in [lo, hi], or ConfigurationError before any draw."""
    if lo > hi:
        raise ConfigurationError(
            f"{name}: sampler cannot realize a length in [{n_min}, {n_max}]"
        )
    return int(rng.integers(lo, hi + 1))


def _half_range(n_min: int, n_max: int, extra: int) -> tuple[int, int]:
    """Bounds for m when the produced length is 2*m + extra."""
    lo = (max(0, n_min - extra) + 1) // 2
    hi = (n_max - extra) // 2
    return lo, hi


# ---------------------------------------------------------------------------
# shared next-set pieces: procedural walkers return only prebuilt sets

_EMPTY: frozenset[int] = frozenset()
_BITS = frozenset({0, 1})
_BITS_EOS = frozenset({0, 1, EOS})
_EOS_ONLY = frozenset({EOS})
_ZERO_EOS = frozenset({0, EOS})
_ONLY = tuple(frozenset({s}) for s in range(7))  # up to bucket-sort's 7 glyphs


def _forced_sets(tail: list[int], forced: list[int], final: frozenset[int]) -> list[frozenset[int]]:
    """The next sets over ``tail`` once the rest of a member is fixed:
    ``forced`` one symbol at a time, then ``final`` for as long as the tail
    stays in it, and nothing past the first symbol that breaks this."""
    k = 0
    while k < len(forced) and k < len(tail) and tail[k] == forced[k]:
        k += 1
    sets = [_ONLY[s] for s in forced[:k + 1]]
    if k == len(forced):
        while k < len(tail) and tail[k] in final:
            k += 1
        sets += [final] * (k + 1 - len(forced))
    return sets + [_EMPTY] * (len(tail) + 1 - len(sets))


def _prefix_function(s: list[int]) -> list[int]:
    """pi[i]: the longest proper border of s[:i + 1] (Knuth-Morris-Pratt)."""
    pi, k = [0] * len(s), 0
    for i in range(1, len(s)):
        while k and s[i] != s[k]:
            k = pi[k - 1]
        if s[i] == s[k]:
            k += 1
        pi[i] = k
    return pi


def _z_function(s: list[int]) -> list[int]:
    """z[i]: the longest common prefix of s and s[i:], for i >= 1 (Gusfield)."""
    z, lo, hi = [0] * len(s), 0, 0
    for i in range(1, len(s)):
        if i < hi:
            z[i] = min(hi - i, z[i - lo])
        while i + z[i] < len(s) and s[z[i]] == s[i + z[i]]:
            z[i] += 1
        if i + z[i] > hi:
            lo, hi = i, i + z[i]
    return z


# ---------------------------------------------------------------------------
# regular languages

def _even_pairs_dfa() -> PartialDfa:
    # start (accepting, covers lengths < 2), then one state per (first, last)
    trans = {(0, 0): 1, (0, 1): 4}
    for first in (0, 1):
        for last in (0, 1):
            q = 1 + 2 * first + last
            for b in (0, 1):
                trans[(q, b)] = 1 + 2 * first + b
    return PartialDfa(5, BIT_ALPHABET, trans, 0, [0, 1, 4])


def _build_even_pairs() -> LanguageSpec:
    def member(w: list[int]) -> bool:
        return len(w) < 2 or w[0] == w[-1]

    return LanguageSpec("even-pairs", "R", BIT_ALPHABET, member, dfa=_even_pairs_dfa())


def _build_repeat01() -> LanguageSpec:
    dfa = PartialDfa(2, BIT_ALPHABET, {(0, 0): 1, (1, 1): 0}, 0, [0])

    def member(w: list[int]) -> bool:
        return len(w) % 2 == 0 and all(b == i % 2 for i, b in enumerate(w))

    return LanguageSpec("repeat-01", "R", BIT_ALPHABET, member, dfa=dfa)


def _build_parity() -> LanguageSpec:
    dfa = PartialDfa(2, BIT_ALPHABET, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, 0, [1])

    def member(w: list[int]) -> bool:
        return sum(w) % 2 == 1

    return LanguageSpec("parity", "R", BIT_ALPHABET, member, dfa=dfa)


def _build_first() -> LanguageSpec:
    dfa = PartialDfa(2, BIT_ALPHABET, {(0, 1): 1, (1, 0): 1, (1, 1): 1}, 0, [1])

    def member(w: list[int]) -> bool:
        return bool(w) and w[0] == 1

    return LanguageSpec("first", "R", BIT_ALPHABET, member, dfa=dfa)


_CYCLE_ALPHABET = Alphabet(["<", ">", "=", "0", "1", "2", "3", "4"])


def _build_cycle_navigation() -> LanguageSpec:
    left, right, stay = 0, 1, 2
    acc = 5
    trans = {}
    for p in range(5):
        trans[(p, left)] = (p - 1) % 5
        trans[(p, right)] = (p + 1) % 5
        trans[(p, stay)] = p
        trans[(p, 3 + p)] = acc
    dfa = PartialDfa(6, _CYCLE_ALPHABET, trans, 0, [acc])

    def member(w: list[int]) -> bool:
        if not w or w[-1] < 3:
            return False
        pos = 0
        for s in w[:-1]:
            if s == left:
                pos -= 1
            elif s == right:
                pos += 1
            elif s != stay:
                return False
        return w[-1] - 3 == pos % 5

    return LanguageSpec("cycle-navigation", "R", _CYCLE_ALPHABET, member, dfa=dfa)


_MOD_ALPHABET = Alphabet(["0", "1", "2", "3", "4", "+", "-", "×", "="])
_MOD_OPS = {5: lambda a, b: (a + b) % 5, 6: lambda a, b: (a - b) % 5, 7: lambda a, b: (a * b) % 5}


def _build_modular_arithmetic() -> LanguageSpec:
    # states: start; have(v); pending(v, op); expect(v); accept
    have = lambda v: 1 + v
    pend = lambda v, op: 6 + 3 * v + op
    expect = lambda v: 21 + v
    acc = 26
    trans = {}
    for d in range(5):
        trans[(0, d)] = have(d)
    for v in range(5):
        for op_idx, op_sym in enumerate((5, 6, 7)):
            trans[(have(v), op_sym)] = pend(v, op_idx)
            for d in range(5):
                trans[(pend(v, op_idx), d)] = have(_MOD_OPS[op_sym](v, d))
        trans[(have(v), 8)] = expect(v)
        trans[(expect(v), v)] = acc
    dfa = PartialDfa(27, _MOD_ALPHABET, trans, 0, [acc])

    def member(w: list[int]) -> bool:
        eq_positions = [i for i, s in enumerate(w) if s == 8]
        if len(eq_positions) != 1:
            return False
        lhs, rhs = w[: eq_positions[0]], w[eq_positions[0] + 1:]
        if len(rhs) != 1 or rhs[0] > 4:
            return False
        if len(lhs) % 2 == 0:
            return False
        if any(s > 4 for s in lhs[::2]) or any(s < 5 or s > 7 for s in lhs[1::2]):
            return False
        value = lhs[0]
        for op_sym, operand in zip(lhs[1::2], lhs[2::2]):
            value = _MOD_OPS[op_sym](value, operand)
        return value == rhs[0]

    return LanguageSpec("modular-arithmetic", "R", _MOD_ALPHABET, member, dfa=dfa)


_DYCK_ALPHABET = Alphabet(["(", ")", "[", "]"])


def _build_dyck() -> LanguageSpec:
    max_depth = 2 + 1  # two bracket kinds, nesting bounded by three
    stacks = []
    for depth in range(max_depth + 1):
        stacks.extend(product((0, 1), repeat=depth))
    index = {s: i for i, s in enumerate(stacks)}
    trans = {}
    for s in stacks:
        q = index[s]
        for kind, (open_sym, close_sym) in enumerate(((0, 1), (2, 3))):
            if len(s) < max_depth:
                trans[(q, open_sym)] = index[s + (kind,)]
            if s and s[-1] == kind:
                trans[(q, close_sym)] = index[s[:-1]]
    dfa = PartialDfa(len(stacks), _DYCK_ALPHABET, trans, index[()], [index[()]])

    def member(w: list[int]) -> bool:
        stack = []
        for s in w:
            if s in (0, 2):
                stack.append(s)
                if len(stack) > max_depth:
                    return False
            elif not stack or stack.pop() != s - 1:
                return False
        return not stack

    return LanguageSpec("dyck-2-3", "R", _DYCK_ALPHABET, member, dfa=dfa)


# ---------------------------------------------------------------------------
# deterministic context-free languages

def _build_majority() -> LanguageSpec:
    def member(w: list[int]) -> bool:
        ones = sum(w)
        return ones > len(w) - ones

    def sample(n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
        n = _draw_count(rng, "majority", max(n_min, 1), n_max, n_min, n_max)
        ones = int(rng.integers(n // 2 + 1, n + 1))
        word = np.array([0] * (n - ones) + [1] * ones)
        return rng.permutation(word).tolist()

    def next_sets(w: list[int]) -> list[frozenset[int]]:
        # EOS once the ones in the prefix outnumber its zeros
        sums = enumerate(accumulate(w), start=1)
        return [_BITS] + [_BITS_EOS if 2 * ones > t else _BITS for t, ones in sums]

    return LanguageSpec("majority", "DCF", BIT_ALPHABET, member, sample, next_sets)


_STACK_ALPHABET = Alphabet(["0", "1", "POP", "PUSH", "="])
_POP, _PUSH, _SEQ = 2, 3, 4


def _stack_member(w: list[int]) -> bool:
    i = 0
    stack: list[int] = []
    while i < len(w) and w[i] <= 1:
        stack.append(w[i])
        i += 1
    while i < len(w) and w[i] != _SEQ:
        if w[i] == _POP:
            if not stack:
                return False
            stack.pop()
            i += 1
        elif w[i] == _PUSH:
            if i + 1 >= len(w) or w[i + 1] > 1:
                return False
            stack.append(w[i + 1])
            i += 2
        else:
            return False
    if i == len(w):
        return False
    suffix = w[i + 1:]
    if any(s > 1 for s in suffix):
        return False
    return suffix == stack[::-1]


def _stack_sample(n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
    # the length is 2 * n_stack + 3 * n_push + 1, and n_stack alone reaches n_min
    n_stack = _draw_count(rng, "stack-manipulation", *_half_range(n_min, n_max, 1), n_min, n_max)
    n_push = int(rng.integers(0, (n_max - 2 * n_stack - 1) // 3 + 1))
    stack = rng.integers(0, 2, size=n_stack).tolist()
    word = list(stack)
    pushes = 0
    while True:
        can_pop = bool(stack)
        action = _PUSH if not can_pop else (_PUSH, _POP)[int(rng.integers(2))]
        if action == _PUSH:
            if pushes == n_push:
                break
            bit = int(rng.integers(2))
            word += [_PUSH, bit]
            stack.append(bit)
            pushes += 1
        else:
            word.append(_POP)
            stack.pop()
    return word + [_SEQ] + stack[::-1]


# the next symbols in each stack-manipulation phase, indexed by whether the
# stack is non-empty: the leading bits, the actions, the bit after PUSH
_STACK_BITS = (frozenset({0, 1, _PUSH, _SEQ}), frozenset({0, 1, _POP, _PUSH, _SEQ}))
_STACK_ACTIONS = (frozenset({_PUSH, _SEQ}), frozenset({_POP, _PUSH, _SEQ}))
_STACK_PUSHED = (_BITS, _BITS)


def _stack_next_sets(w: list[int]) -> list[frozenset[int]]:
    stack, phase = [], _STACK_BITS
    sets = [phase[0]]
    for t, c in enumerate(w):
        if phase is _STACK_PUSHED:
            if c > 1:
                break
            stack.append(c)
            phase = _STACK_ACTIONS
        elif c <= 1 and phase is _STACK_BITS:
            stack.append(c)
        elif c == _POP and stack:
            stack.pop()
            phase = _STACK_ACTIONS
        elif c == _PUSH:
            phase = _STACK_PUSHED
        elif c == _SEQ:
            return sets + _forced_sets(w[t + 1:], stack[::-1], _EOS_ONLY)
        else:
            break
        sets.append(phase[bool(stack)])
    return sets + [_EMPTY] * (len(w) + 1 - len(sets))


def _build_stack_manipulation() -> LanguageSpec:
    return LanguageSpec(
        "stack-manipulation", "DCF", _STACK_ALPHABET,
        _stack_member, _stack_sample, _stack_next_sets,
    )


_MARK_ALPHABET = Alphabet(["0", "1", "#"])
_SORT_ALPHABET = Alphabet(["0", "1", "2", "3", "4", "5", "#"])


def _marked_family(
    name: str,
    class_label: str,
    complete: Callable[[list[int]], list[int]],
    alphabet: Alphabet = _MARK_ALPHABET,
    digits: tuple[int, int] = (0, 2),
) -> LanguageSpec:
    """Languages ``u # f(u)``: the marker is the alphabet's last glyph, u is
    free over the glyphs before it, and the sampler draws u's symbols from
    ``range(*digits)``."""
    marker = len(alphabet) - 1
    anything = frozenset(range(len(alphabet)))

    def member(w: list[int]) -> bool:
        if w.count(marker) != 1:
            return False
        pos = w.index(marker)
        return w[pos + 1:] == complete(w[:pos])

    def sample(n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
        m = _draw_count(rng, name, *_half_range(n_min, n_max, 1), n_min, n_max)
        u = rng.integers(*digits, size=m).tolist()
        return u + [marker] + complete(u)

    def next_sets(w: list[int]) -> list[frozenset[int]]:
        # any symbol up to the marker, then the forced completion of the
        # left part and EOS
        if marker not in w:
            return [anything] * (len(w) + 1)
        pos = w.index(marker)
        return [anything] * (pos + 1) + _forced_sets(w[pos + 1:], complete(w[:pos]), _EOS_ONLY)

    return LanguageSpec(name, class_label, alphabet, member, sample, next_sets)


def _build_marked_reversal() -> LanguageSpec:
    return _marked_family("marked-reversal", "DCF", lambda u: u[::-1])


def _build_marked_copy() -> LanguageSpec:
    return _marked_family("marked-copy", "CS", lambda u: list(u))


def _build_odds_first() -> LanguageSpec:
    return _marked_family("odds-first", "CS", lambda u: u[::2] + u[1::2])


def _build_bucket_sort() -> LanguageSpec:
    return _marked_family("bucket-sort", "CS", sorted, _SORT_ALPHABET, digits=(1, 6))


# ---------------------------------------------------------------------------
# the remaining context-free / context-sensitive languages

def _build_unmarked_reversal() -> LanguageSpec:
    def member(w: list[int]) -> bool:
        return len(w) % 2 == 0 and w == w[::-1]

    def sample(n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
        m = _draw_count(rng, "unmarked-reversal", *_half_range(n_min, n_max, 0), n_min, n_max)
        u = rng.integers(0, 2, size=m).tolist()
        return u + u[::-1]

    def next_sets(w: list[int]) -> list[frozenset[int]]:
        # EOS after each even-length palindromic prefix w[:t]: the t that are
        # borders of w + [2] + reversed(w), down the prefix function's chain
        sets = [_BITS_EOS] + [_BITS] * len(w)
        pi = _prefix_function(w + [2] + w[::-1])
        border = pi[-1]
        while border:
            if border % 2 == 0:
                sets[border] = _BITS_EOS
            border = pi[border - 1]
        return sets

    return LanguageSpec("unmarked-reversal", "CF", BIT_ALPHABET, member, sample, next_sets)


_UND_ALPHABET = Alphabet(["0", "1", "_"])
_UND = 2
_UND_ANY = frozenset({0, 1, _UND})


def _build_missing_duplicate() -> LanguageSpec:
    def member(w: list[int]) -> bool:
        if len(w) % 2 != 0 or w.count(_UND) != 1:
            return False
        filled = [1 if s == _UND else s for s in w]
        half = len(filled) // 2
        return filled[:half] == filled[half:]

    def sample(n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
        lo, hi = max(1, (n_min + 1) // 2), n_max // 2
        m = _draw_count(rng, "missing-duplicate", lo, hi, n_min, n_max)
        u = rng.integers(0, 2, size=m).tolist()
        u[int(rng.integers(m))] = 1
        w = u + u
        ones = [i for i, b in enumerate(w) if b == 1]
        w[ones[int(rng.integers(len(ones)))]] = _UND
        return w

    def next_sets(w: list[int]) -> list[frozenset[int]]:
        # anything up to the blank; after it, EOS at the squares w[:2h] of
        # w with the blank filled as 1, where the Z-function has z[h] >= h;
        # nothing past a second blank (blanks past the end change nothing)
        first, end = ([i for i, s in enumerate(w) if s == _UND] + [len(w)] * 2)[:2]
        z = _z_function([1 if s == _UND else s for s in w[:end]])
        sets = [_UND_ANY] * (first + 1) + [_BITS] * (end - first)
        for h in range(first // 2 + 1, end // 2 + 1):
            if z[h] >= h:
                sets[2 * h] = _BITS_EOS
        return sets + [_EMPTY] * (len(w) - end)

    return LanguageSpec("missing-duplicate", "CS", _UND_ALPHABET, member, sample, next_sets)


def _arith_spec(
    name: str, alphabet: Alphabet, combine: Callable[..., int], sampler
) -> LanguageSpec:
    """Little-endian binary operands, each closed by its separator, then the
    result ``combine(*operands)``, which may carry trailing zeros.  The
    separators are the glyphs after "0" and "1", in order, so there is one
    operand per separator."""
    seps = range(2, len(alphabet))

    def member(w: list[int]) -> bool:
        if any(w.count(s) != 1 for s in seps):
            return False
        cuts = [-1] + [w.index(s) for s in seps] + [len(w)]
        parts = [w[a + 1:b] for a, b in zip(cuts, cuts[1:])]
        if cuts != sorted(cuts) or not all(parts):
            return False
        *operands, result = map(_decode_le, parts)
        return combine(*operands) == result

    with_sep = tuple(frozenset({0, 1, s}) for s in seps)

    def next_sets(w: list[int]) -> list[frozenset[int]]:
        # operand bits, each closed by its separator, then the forced result
        sets = [_BITS]
        operands, start = [], 0  # the closed operands; where the open one begins
        for t, c in enumerate(w):
            if c > 1:
                if c != seps[len(operands)] or t == start:
                    break
                operands.append(_decode_le(w[start:t]))
                if len(operands) == len(seps):
                    result = _minimal_le(combine(*operands))
                    return sets + _forced_sets(w[t + 1:], result, _ZERO_EOS)
                start = t + 1
            sets.append(with_sep[len(operands)] if t >= start else _BITS)
        return sets + [_EMPTY] * (len(w) + 1 - len(sets))

    return LanguageSpec(name, "CS", alphabet, member, sampler, next_sets)


_ADD_ALPHABET = Alphabet(["0", "1", "+", "="])
_MUL_ALPHABET = Alphabet(["0", "1", "×", "="])
_SQRT_ALPHABET = Alphabet(["0", "1", "="])


def _binary_op(name: str, alphabet: Alphabet, combine: Callable[[int, int], int],
               alphas: tuple[float, ...], room: Callable[[int, int], float]) -> LanguageSpec:
    """Binary ``x op y = z``: the sampler caps y by ``room(x, top)``, the largest
    y with ``combine(x, y) <= top = 2**n_z - 1``, and x by ``room(0, top)``."""

    def sample(n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
        n = _draw_count(rng, name, max(5, n_min), n_max, n_min, n_max)
        n_x, n_y, n_z = (p + 1 for p in _dirichlet_parts(rng, alphas, n - 5))
        n_x, n_y = min(n_x, n_y), max(n_x, n_y)
        top = 2 ** n_z - 1
        x = _uniform_int(rng, min(2 ** n_x - 1, room(0, top)))
        y = _uniform_int(rng, min(2 ** n_y - 1, room(x, top)))
        u_x, u_y = _encode_le(x, n_x), _encode_le(y, n_y)
        if int(rng.integers(2)):
            u_x, u_y = u_y, u_x
        return u_x + [2] + u_y + [3] + _encode_le(combine(x, y), n_z)

    return _arith_spec(name, alphabet, combine, sample)


def _sqrt_sampler(n_min: int, n_max: int, rng: np.random.Generator) -> list[int]:
    n = _draw_count(rng, "compute-sqrt", max(3, n_min), n_max, n_min, n_max)
    parts = _dirichlet_parts(rng, (2.0, 1.0), n - 3)
    n_x, n_z = parts[0] + 1, parts[1] + 1
    x = _uniform_int(rng, min(2 ** n_x - 1, 2 ** (2 * n_z) - 1))
    return _encode_le(x, n_x) + [2] + _encode_le(math.isqrt(x), n_z)


def _build_binary_addition() -> LanguageSpec:
    return _binary_op("binary-addition", _ADD_ALPHABET, operator.add, (1.0, 1.0, 1.0),
                      lambda x, top: top - x)


def _build_binary_multiplication() -> LanguageSpec:
    return _binary_op("binary-multiplication", _MUL_ALPHABET, operator.mul, (1.0, 1.0, 2.0),
                      lambda x, top: top // x if x else math.inf)


def _build_compute_sqrt() -> LanguageSpec:
    return _arith_spec("compute-sqrt", _SQRT_ALPHABET, math.isqrt, _sqrt_sampler)


# ---------------------------------------------------------------------------
# registry

_BUILDERS: dict[str, Callable[[], LanguageSpec]] = {
    "even-pairs": _build_even_pairs,
    "repeat-01": _build_repeat01,
    "parity": _build_parity,
    "cycle-navigation": _build_cycle_navigation,
    "modular-arithmetic": _build_modular_arithmetic,
    "dyck-2-3": _build_dyck,
    "first": _build_first,
    "majority": _build_majority,
    "stack-manipulation": _build_stack_manipulation,
    "marked-reversal": _build_marked_reversal,
    "unmarked-reversal": _build_unmarked_reversal,
    "marked-copy": _build_marked_copy,
    "missing-duplicate": _build_missing_duplicate,
    "odds-first": _build_odds_first,
    "binary-addition": _build_binary_addition,
    "binary-multiplication": _build_binary_multiplication,
    "compute-sqrt": _build_compute_sqrt,
    "bucket-sort": _build_bucket_sort,
}

LANGUAGE_NAMES: tuple[str, ...] = tuple(_BUILDERS)
REGULAR_NAMES: tuple[str, ...] = (
    "even-pairs", "repeat-01", "parity", "cycle-navigation",
    "modular-arithmetic", "dyck-2-3", "first",
)

_CACHE: dict[str, LanguageSpec] = {}


def get_language(name: str) -> LanguageSpec:
    if name not in _BUILDERS:
        raise ConfigurationError(
            f"unknown language {name!r}; known: {', '.join(LANGUAGE_NAMES)}"
        )
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]
