"""Weight algebras for path counting: real, log and tropical scalars, plus
length-binned log vectors.

Scalar operations live on the semiring singletons (``REAL``, ``LOG``,
``TROPICAL``); ``BinningSemiring`` holds log weights in vectors indexed by
consumed length, where multiplication is truncated convolution.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UsageError


def _logsumexp(arr: np.ndarray) -> float:
    m = arr.max()
    if m == -np.inf:
        return -np.inf
    return float(m + np.log(np.exp(arr - m).sum()))


class Semiring:
    """Scalar weight algebra: (add, mul) with identities, plus a partial star."""

    name: str
    zero: float
    one: float
    default_tol: float

    def add(self, a: float, b: float) -> float:
        raise NotImplementedError

    def mul(self, a: float, b: float) -> float:
        raise NotImplementedError

    def star(self, a: float) -> float:
        """Solution of x = 1 + a*x, when it exists."""
        raise NotImplementedError

    def isclose(self, a: float, b: float, tol: float | None = None) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<semiring {self.name}>"


class RealSemiring(Semiring):
    """Nonnegative reals under (+, *)."""

    name = "real"
    zero = 0.0
    one = 1.0
    default_tol = 1e-9

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def star(self, a):
        if a >= 1.0:
            raise DomainError(f"divergent star: real star is undefined for {a!r} >= 1")
        return 1.0 / (1.0 - a)

    def isclose(self, a, b, tol=None):
        tol = self.default_tol if tol is None else tol
        return math.isclose(a, b, rel_tol=tol, abs_tol=1e-12)


class LogSemiring(Semiring):
    """Log-weights under (logaddexp, +); the image of the reals under log."""

    name = "log"
    zero = -math.inf
    one = 0.0
    default_tol = 1e-9

    def add(self, a, b):
        return float(np.logaddexp(a, b))

    def mul(self, a, b):
        return a + b

    def star(self, a):
        if a >= 0.0:
            raise DomainError(f"divergent star: log star is undefined for {a!r} >= 0")
        # -log(1 - e^a), split for accuracy on both small and large -a
        if a > -math.log(2):
            return -math.log(-math.expm1(a))
        return -math.log1p(-math.exp(a))

    def isclose(self, a, b, tol=None):
        tol = self.default_tol if tol is None else tol
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= tol


class TropicalSemiring(Semiring):
    """Costs under (min, +); star is constant one because costs are nonnegative."""

    name = "tropical"
    zero = math.inf
    one = 0.0
    default_tol = 0.0

    def add(self, a, b):
        return min(a, b)

    def mul(self, a, b):
        return a + b

    def star(self, a):
        return 0.0

    def isclose(self, a, b, tol=None):
        return a == b


REAL = RealSemiring()
LOG = LogSemiring()
TROPICAL = TropicalSemiring()


class BinningSemiring(Semiring):
    """Length-binned log weights.

    A value is a float64 array of ``order + 1`` bins, bin i holding the log
    weight of everything that consumes exactly i symbols.  add is elementwise
    logaddexp, mul is convolution truncated at ``order``, and star solves the
    one-sided fixpoint bin by bin in O(order^2) operations.  ``base`` must be
    ``LOG``.
    """

    def __init__(self, base: Semiring, order: int):
        if base is not LOG:
            raise UsageError(f"binning is over the log semiring only, got {base!r}")
        if order < 0:
            raise UsageError(f"order must be nonnegative, got {order}")
        self.base = base
        self.order = order
        self.name = f"binning({base.name}, order={order})"
        self.default_tol = base.default_tol
        # the (k, i) pairs with i <= k: output bin k gathers u[i] + v[k - i]
        self._pairs = np.tril_indices(order + 1)
        self._lag = self._pairs[0] - self._pairs[1]

    @property
    def zero(self) -> np.ndarray:
        return np.full(self.order + 1, -np.inf)

    @property
    def one(self) -> np.ndarray:
        out = self.zero
        out[0] = 0.0
        return out

    def _check(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.order + 1,):
            raise UsageError(
                f"expected a bin vector of order {self.order} "
                f"(shape {(self.order + 1,)}), got shape {v.shape}"
            )
        return v

    def add(self, u, v):
        return np.logaddexp(self._check(u), self._check(v))

    def mul(self, u, v):
        """out[k] = logsumexp over i <= k of u[i] + v[k - i], each output bin
        shifted by its own largest term, so it is exact at any spread."""
        u, v = self._check(u), self._check(v)
        if u.max() == -np.inf or v.max() == -np.inf:
            return self.zero
        terms = np.full((self.order + 1, self.order + 1), -np.inf)
        terms[self._pairs] = u[self._pairs[1]] + v[self._lag]
        shift = terms.max(axis=1, keepdims=True)
        shift[shift == -np.inf] = 0.0
        with np.errstate(divide="ignore"):
            return shift[:, 0] + np.log(np.exp(terms - shift).sum(axis=1))

    def star(self, v):
        v = self._check(v)
        s0 = LOG.star(float(v[0]))
        out = self.zero
        out[0] = s0
        for i in range(1, self.order + 1):
            out[i] = s0 + _logsumexp(v[1:i + 1] + out[i - 1::-1])
        return out

    def isclose(self, u, v, tol=None):
        u, v = self._check(u), self._check(v)
        return all(LOG.isclose(float(a), float(b), tol) for a, b in zip(u, v))
