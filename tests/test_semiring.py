"""Algebra laws and frozen closed-form values for the weight semirings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flgen.errors import DomainError, UsageError
from flgen.semiring import LOG, REAL, TROPICAL, BinningSemiring


def naive_convolve(u, v):
    """O(D^2) reference: one scalar log fold per output diagonal."""
    out = []
    for k in range(len(u)):
        acc = LOG.zero
        for i in range(k + 1):
            acc = LOG.add(acc, LOG.mul(float(u[i]), float(v[k - i])))
        out.append(acc)
    return np.array(out)


def random_scalar(base, rng):
    if base is REAL:
        return 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 2.0))
    if base is LOG:
        return -math.inf if rng.random() < 0.1 else float(rng.uniform(-30.0, 0.0))
    return math.inf if rng.random() < 0.1 else float(rng.integers(0, 20))


def random_value(sr, rng):
    if isinstance(sr, BinningSemiring):
        return np.array([random_scalar(sr.base, rng) for _ in range(sr.order + 1)])
    return random_scalar(sr, rng)


SEMIRINGS = [REAL, LOG, TROPICAL, BinningSemiring(LOG, 12)]
IDS = [sr.name for sr in SEMIRINGS]


@pytest.mark.parametrize("sr", SEMIRINGS, ids=IDS)
def test_add_commutative_and_associative(sr):
    rng = np.random.default_rng(101)
    for _ in range(200):
        a, b, c = (random_value(sr, rng) for _ in range(3))
        assert sr.isclose(sr.add(a, b), sr.add(b, a))
        assert sr.isclose(sr.add(sr.add(a, b), c), sr.add(a, sr.add(b, c)))


@pytest.mark.parametrize("sr", SEMIRINGS, ids=IDS)
def test_mul_associative(sr):
    rng = np.random.default_rng(202)
    for _ in range(200):
        a, b, c = (random_value(sr, rng) for _ in range(3))
        assert sr.isclose(sr.mul(sr.mul(a, b), c), sr.mul(a, sr.mul(b, c)))


@pytest.mark.parametrize("sr", SEMIRINGS, ids=IDS)
def test_identities_and_annihilator(sr):
    rng = np.random.default_rng(303)
    for _ in range(100):
        a = random_value(sr, rng)
        assert sr.isclose(sr.add(sr.zero, a), a)
        assert sr.isclose(sr.mul(sr.one, a), a)
        assert sr.isclose(sr.mul(a, sr.one), a)
        assert sr.isclose(sr.mul(sr.zero, a), sr.zero)
        assert sr.isclose(sr.mul(a, sr.zero), sr.zero)


@pytest.mark.parametrize("sr", SEMIRINGS, ids=IDS)
def test_distributivity(sr):
    rng = np.random.default_rng(404)
    for _ in range(200):
        a, b, c = (random_value(sr, rng) for _ in range(3))
        assert sr.isclose(sr.mul(a, sr.add(b, c)), sr.add(sr.mul(a, b), sr.mul(a, c)))
        assert sr.isclose(sr.mul(sr.add(a, b), c), sr.add(sr.mul(a, c), sr.mul(b, c)))


def test_real_star_values():
    assert REAL.star(0.5) == 2.0
    assert REAL.star(0.0) == 1.0
    assert REAL.isclose(REAL.star(-1.0), 0.5)
    for bad in (1.0, 1.5, 100.0):
        with pytest.raises(DomainError, match="divergent star"):
            REAL.star(bad)


def test_log_star_values():
    assert LOG.star(-math.inf) == 0.0
    for a in (0.1, 0.5, 0.9, 0.99):
        assert LOG.isclose(LOG.star(math.log(a)), math.log(REAL.star(a)))
    for bad in (0.0, 0.5):
        with pytest.raises(DomainError, match="divergent star"):
            LOG.star(bad)


def test_log_star_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for a in (-1e-9, -1e-3, -0.5, -5.0, -50.0):
        expect = float(-mpmath.log(1 - mpmath.e ** mpmath.mpf(a)))
        got = LOG.star(a)
        assert math.isclose(got, expect, rel_tol=1e-12)


def test_tropical_star_is_always_one():
    for a in (0.0, 5.0, math.inf):
        assert TROPICAL.star(a) == 0.0


def test_log_add_is_shift_stable():
    assert LOG.isclose(LOG.add(-1000.0, -1000.0), -1000.0 + math.log(2.0))
    assert LOG.add(0.0, -math.inf) == 0.0
    assert LOG.add(-math.inf, -math.inf) == -math.inf


@pytest.mark.parametrize("base", [LOG], ids=["log"])
def test_bin_star_satisfies_fixpoint(base):
    sr = BinningSemiring(base, 16)
    rng = np.random.default_rng(505)
    for _ in range(50):
        v = np.array([random_scalar(base, rng) for _ in range(sr.order + 1)])
        v[0] = -math.inf if rng.random() < 0.2 else rng.uniform(-30.0, -0.1)
        w = sr.star(v)
        rhs = sr.add(sr.one, sr.mul(v, w))
        assert sr.isclose(w, rhs)


def test_bin_star_of_zero_is_one():
    sr = BinningSemiring(LOG, 8)
    assert sr.isclose(sr.star(sr.zero), sr.one)


_LOG_ELEMENT = st.one_of(st.just(-math.inf), st.floats(-40.0, 0.0))


@st.composite
def _conv_case(draw):
    size = draw(st.integers(1, 65))
    u = draw(st.lists(_LOG_ELEMENT, min_size=size, max_size=size))
    v = draw(st.lists(_LOG_ELEMENT, min_size=size, max_size=size))
    return np.array(u), np.array(v)


@given(_conv_case())
@settings(max_examples=60, deadline=None)
def test_bin_mul_matches_naive_oracle(case):
    u, v = case
    sr = BinningSemiring(LOG, len(u) - 1)
    got = sr.mul(u, v)
    want = naive_convolve(u, v)
    assert got.shape == want.shape
    assert sr.isclose(got, want)


@pytest.mark.parametrize("order", [64, 65, 130, 200])
def test_log_convolve_multiblock_matches_naive(order):
    rng = np.random.default_rng(606)
    sr = BinningSemiring(LOG, order)
    u = rng.uniform(-30.0, 0.0, size=order + 1)
    v = rng.uniform(-30.0, 0.0, size=order + 1)
    u[rng.random(order + 1) < 0.2] = -math.inf
    v[rng.random(order + 1) < 0.2] = -math.inf
    got = sr.mul(u, v)
    for k in range(order + 1):
        terms = u[:k + 1] + v[k::-1]
        finite = terms[terms != -math.inf]
        if finite.size == 0:
            assert got[k] == -math.inf
        else:
            m = finite.max()
            want = m + math.log(np.exp(finite - m).sum())
            assert LOG.isclose(float(got[k]), float(want))


def test_log_convolve_extreme_spread_takes_exact_path():
    sr = BinningSemiring(LOG, 2)
    v = np.array([0.0, -700.0, -1400.0])
    got = sr.mul(v, v)
    assert LOG.isclose(float(got[0]), 0.0)
    assert LOG.isclose(float(got[1]), -700.0 + math.log(2.0))
    assert LOG.isclose(float(got[2]), -1400.0 + math.log(3.0))


def test_order_zero_binning():
    sr = BinningSemiring(LOG, 0)
    u = np.array([math.log(3.0)])
    assert sr.isclose(sr.mul(u, np.array([math.log(2.0)])), np.array([math.log(6.0)]))
    assert sr.isclose(sr.star(np.array([math.log(0.5)])), np.array([math.log(2.0)]))


def test_bin_vector_shape_is_checked():
    sr = BinningSemiring(LOG, 4)
    with pytest.raises(UsageError):
        sr.mul(np.zeros(3), np.zeros(5))
    with pytest.raises(UsageError):
        sr.add(np.zeros(5), np.zeros(4))


def test_binning_constructor_rejects_bad_arguments():
    with pytest.raises(UsageError):
        BinningSemiring(BinningSemiring(LOG, 4), 4)
    for base in (REAL, TROPICAL):
        with pytest.raises(UsageError, match="log semiring only"):
            BinningSemiring(base, 4)
    with pytest.raises(UsageError):
        BinningSemiring(LOG, -1)
