"""Shared fixtures and randomized-fixture helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from maxitive import (
    INF,
    ONE,
    ZERO,
    DiscreteChain,
    ExtNonneg,
    MaxMeasure,
    MeasurableFn,
    Minimum,
    Space,
    StandardProduct,
)
from maxitive.extreal import ext_ratio

LABELS = "abcdefghij"


def float_times(s: float, t: float) -> float:
    """The product on floats with the 0 · ∞ = 0 convention made explicit.

    IEEE arithmetic yields nan at (0, ∞), which would violate the
    annihilator axiom; a well-formed custom operation must decide it."""
    return 0.0 if s == 0.0 or t == 0.0 else s * t


class FaultyMap:
    """``fn`` with its k-th call (counting from 0) replaced by ``fault``:
    a value returned in place of fn's, or, for an exception, a fresh one
    of its type and arguments raised.  ``calls`` counts the calls made."""

    def __init__(self, k, fault, fn=float_times):
        self.k, self.fault, self.fn = k, fault, fn
        self.calls = 0

    def __call__(self, s, t):
        self.calls += 1
        if self.calls - 1 != self.k:
            return self.fn(s, t)
        if isinstance(self.fault, BaseException):
            raise type(self.fault)(*self.fault.args)
        return self.fault


def outcome(call, *args):
    """("value", call(*args)), or what it raised: its type, message and bracket."""
    try:
        return ("value", call(*args))
    except Exception as exc:  # the exception itself is the outcome compared
        return ("raises", type(exc), str(exc), getattr(exc, "bracket", None))


def literal_sup(pm, lefts, rights):
    """⊕_i lefts[i] ⊙ rights[i] written out, the oracle for ``sup_products``:
    one ``pm.omul`` call a pair, in order, the max kept in the value order,
    and 0 for no pairs; a fault raises at its pair."""
    best = ZERO
    for s, t in zip(lefts, rights, strict=True):
        term = pm.omul(s, t)
        if best < term:
            best = term
    return best


class CountingTimes(StandardProduct):
    """The standard product, counting its ⊙ calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def omul(self, s, t):
        self.calls += 1
        return super().omul(s, t)


@pytest.fixture
def times():
    return StandardProduct()


@pytest.fixture
def minimum():
    return Minimum()


@pytest.fixture
def chain():
    """The standard finite-frontier fixture: {0, 1, 2, ∞} with clamped products."""
    return DiscreteChain.clamped_product(["0", "1", "2", "inf"])


@pytest.fixture
def space3():
    return Space(["a", "b", "c"])


# -- randomized fixtures (seeded, exact) ------------------------------------

def rand_mass(rng: random.Random, allow_inf=False, allow_zero=True,
              num_max=12, den_max=6) -> ExtNonneg:
    if allow_inf and rng.random() < 0.15:
        return INF
    lo = 0 if allow_zero else 1
    return ExtNonneg(Fraction(rng.randint(lo, num_max), rng.randint(1, den_max)))


def rand_space(rng: random.Random, lo=1, hi=6) -> Space:
    return Space(list(LABELS[: rng.randint(lo, hi)]))


def rand_measure(rng: random.Random, space: Space, **kw) -> MaxMeasure:
    return MaxMeasure(space, [rand_mass(rng, **kw) for _ in space.atoms])


def rand_fn(rng: random.Random, space: Space, **kw) -> MeasurableFn:
    return MeasurableFn(space, [rand_mass(rng, **kw) for _ in space.atoms])


def random_chain(rng):
    """A clamped product over {0, 1, ...} or an idempotent uninorm (min up
    to the identity e, max above it) on a random carrier."""
    vals = {Fraction(rng.randint(2, 16), rng.randint(1, 2)) for _ in range(rng.randint(1, 4))}
    carrier = [ZERO, ONE] + [ExtNonneg(v) for v in sorted(vals)]
    if rng.random() < 0.5:
        carrier.append(INF)
    if rng.random() < 0.5:
        return DiscreteChain.clamped_product(carrier)
    e = rng.choice(carrier[1:])
    carrier = list(dict.fromkeys(carrier))  # a drawn 2/2 is 1 again: each element once

    def uninorm(a, b):
        if a.is_zero or b.is_zero:
            return ZERO
        return max(a, b) if a >= e and b >= e else min(a, b)

    return DiscreteChain(carrier, [[uninorm(a, b) for b in carrier] for a in carrier], e)


def chain_tables(k):
    """Rows of carrier ranks of every table on k elements in which 0
    annihilates, some positive rank is a two-sided identity, and the
    operation is monotone and associative, by backtracking over the
    positive cells in row order."""
    cells = [(i, j) for i in range(1, k) for j in range(1, k)]
    for e in range(1, k):
        rows = [[0] * k for _ in range(k)]

        def fill(n):
            if n == len(cells):
                if all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
                       for a in range(k) for b in range(k) for c in range(k)):
                    yield tuple(map(tuple, rows))
                return
            i, j = cells[n]
            lo = max(rows[i - 1][j], rows[i][j - 1])
            for v in ([j if i == e else i] if e in (i, j) else range(lo, k)):
                if v >= lo:
                    rows[i][j] = v
                    yield from fill(n + 1)
        for table in fill(0):
            yield e, table


def small_chains(k):
    """The chain on {0, 1, .., k − 2, ∞} of each table that chain_tables(k)
    yields, with its identity."""
    carrier = [ExtNonneg(v) for v in range(k - 1)] + [INF]
    for e, rows in chain_tables(k):
        yield DiscreteChain(carrier, [[carrier[r] for r in row] for row in rows], carrier[e])


def min_chain(k):
    """The carrier {0, 1, .., k − 2, ∞} and min's table on it, as rows of values."""
    carrier = [ExtNonneg(v) for v in range(k - 1)] + [INF]
    return carrier, [[min(a, b) for b in carrier] for a in carrier]


def probe_values(pm, t: ExtNonneg) -> list:
    """pm's finiteness probes for t, read from their pairs (n, d) as values."""
    return [ext_ratio(n, d) for n, d in pm.finiteness_probes(t)]


def fraction_key(x: ExtNonneg) -> tuple:
    """Fraction's own order, with ∞ above every Fraction: a sort key that
    does not use ExtNonneg's comparisons."""
    return (1, 0) if x.is_inf else (0, x.as_fraction())


# -- hypothesis strategies ---------------------------------------------------

finite_extnn = st.fractions(min_value=0, max_value=64, max_denominator=16).map(ExtNonneg)
extnn = st.one_of(st.just(INF), finite_extnn)
