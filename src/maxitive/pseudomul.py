"""Pseudo-multiplications ⊙ on [0, ∞] and their finiteness theory.

A pseudo-multiplication is a binary operation on [0, ∞] that is
associative, monotone in both arguments, continuous on (0, ∞) × [0, ∞]
and in its first argument on (0, ∞], has a left identity 1_⊙, has 0 as
an annihilator, and has no zero divisors.  The usual product and the
minimum are the two classical instances (giving the Shilkret and Sugeno
integrals respectively).

The zero map O(t) = inf_{s>0} s ⊙ t classifies elements: t is ⊙-finite
when O(t) = 0.  The set F_⊙ of ⊙-finite elements is always [0, ∞] or a
half-open interval [0, φ); φ = sup F_⊙ is the finiteness frontier.

Two deliberate extensions of the continuous theory live here:

* ``DiscreteChain`` is a finite totally ordered carrier with an explicit
  operation table.  It drops the continuity axiom, which makes the raw
  infimum O(t) unreachable below the smallest positive carrier element;
  ⊙-finiteness on a chain is therefore decided by the invertibility
  criterion (some s > 0 with s ⊙ t ≤ 1_⊙, and symmetrically on the
  right), which coincides with O(t) = 0 in the continuous case.  Chains
  exist chiefly to exercise the finite-φ branch of the frontier theory.
* ``CustomContinuous`` wraps an arbitrary float-valued operation; its
  zero map is estimated along a dyadic descent and all comparisons carry
  a relative tolerance.
"""

from __future__ import annotations

import abc
import bisect
import enum
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import CarrierDomainError, UnresolvedInfimumError
from .extreal import INF, ONE, ZERO, ExtNonneg, as_extnn, ext_ratio
from .spaces import CHAIN_CARRIER_CAP, check_fixed_cap

__all__ = [
    "AchievableSet",
    "FrontierShape",
    "FinitenessProfile",
    "PseudoMul",
    "StandardProduct",
    "Minimum",
    "DiscreteChain",
    "CustomContinuous",
    "NAMED_OPERATIONS",
    "OPERATION_FAULTS",
    "AxiomCheck",
    "AxiomReport",
    "validate_pseudo_mul",
]


class FrontierShape(enum.Enum):
    """Shape of the set of ⊙-finite elements."""

    WHOLE_INTERVAL = "whole-interval"  # F = [0, ∞]
    HALF_OPEN = "half-open"            # F = [0, φ)


class FinitenessProfile(NamedTuple):
    """Classification of F_⊙ for one pseudo-multiplication.

    ``phi`` is sup F_⊙.  ``finite_elements`` is the explicit finite set
    for discrete chains and None for continuous kinds (where F is an
    interval).  Whether ⊙ is a pseudo-multiplication at all is
    ``validate_pseudo_mul``'s question, not the profile's.
    """

    shape: FrontierShape
    phi: ExtNonneg
    degenerate: bool
    finite_elements: Optional[frozenset] = None
    approximate: bool = False


class AchievableSet(NamedTuple):
    """The image { c ⊙ t : c ∈ [0, ∞] } for a fixed t.

    For a continuous ⊙ this is {0} ∪ [O(t), ∞ ⊙ t]; whether the lower
    end is attained is known exactly only for the built-ins
    (``lower_attained`` is None when undetermined).  For a discrete
    chain the set is finite and listed explicitly.
    """

    lower: ExtNonneg
    upper: ExtNonneg
    lower_attained: Optional[bool]
    explicit_values: Optional[frozenset] = None

    def contains(self, v: ExtNonneg) -> Optional[bool]:
        """Membership; None when it hinges on unknown lower-end attainment."""
        if self.explicit_values is not None:
            return v in self.explicit_values
        if v.is_zero:
            return True
        if v < self.lower or v > self.upper:
            return False
        if v == self.lower:
            return self.lower_attained
        return True

    def __str__(self):
        if self.explicit_values is not None:
            return "{" + ", ".join(str(v) for v in sorted(self.explicit_values)) + "}"
        if self.lower == self.upper:
            if self.lower.is_zero:
                return "{0}"
            return "{0, " + str(self.lower) + "}"
        left = "[" if self.lower_attained else "("
        zero = "{0} ∪ " if not self.lower.is_zero else ""
        return f"{zero}{left}{self.lower}, {self.upper}]"


# The base finiteness probes' dyadic descent 2^-k, k = 0, 6, .., 60, as pairs.
_DYADIC_PROBES = tuple((1, 2 ** k) for k in range(0, 61, 6))


class PseudoMul(abc.ABC):
    """Base class for pseudo-multiplications.

    Instances are immutable; every method is a pure function of the
    arguments, so unrestricted concurrent use is safe.  The finiteness
    profile is computed lazily and cached (idempotent, hence benign).
    The methods after ``describe`` are the operation's closed forms: the
    base class answers for any ⊙, a subclass overrides what it knows exactly.
    """

    kind: str = "abstract"
    exact: bool = True
    tolerance: float = 0.0

    def __init__(self, identity: ExtNonneg):
        self.identity = as_extnn(identity)
        self._profile: Optional[FinitenessProfile] = None

    @abc.abstractmethod
    def omul(self, s: ExtNonneg, t: ExtNonneg) -> ExtNonneg:
        """Return s ⊙ t."""

    def __call__(self, s: ExtNonneg, t: ExtNonneg) -> ExtNonneg:
        return self.omul(s, t)

    @abc.abstractmethod
    def zero_map(self, t: ExtNonneg) -> ExtNonneg:
        """Return O(t) = inf_{s > 0} s ⊙ t."""

    def is_odot_finite(self, t: ExtNonneg) -> bool:
        """Whether t is ⊙-finite, that is O(t) = 0."""
        return self.zero_map(t).is_zero

    @abc.abstractmethod
    def _compute_profile(self) -> FinitenessProfile:
        ...

    def finiteness_profile(self) -> FinitenessProfile:
        if self._profile is None:
            self._profile = self._compute_profile()
        return self._profile

    @property
    def degenerate(self) -> bool:
        """True when 0 is the only ⊙-finite element."""
        return self.finiteness_profile().degenerate

    def representable(self, t: ExtNonneg) -> bool:
        """Whether t belongs to this operation's carrier."""
        return True

    def values_equal(self, a: ExtNonneg, b: ExtNonneg) -> bool:
        """Equality, exact or within the relative tolerance: ``pairs_equal``
        on the two values' pairs, after the common case of equal values."""
        return a == b or self.pairs_equal((a._n, a._d), (b._n, b._d))

    def pairs_equal(self, a: tuple, b: tuple) -> bool:
        """``values_equal`` on integer pairs (n, d), ∞ = (1, 0), in lowest
        terms or not: equal when n·d′ = n′·d, and for an inexact ⊙ also
        when both are finite and their floats n/d are within the relative
        tolerance."""
        (n, d), (m, e) = a, b
        if n * e == m * d:
            return True
        if self.exact or not d or not e:
            return False
        fa, fb = n / d, m / e
        return abs(fa - fb) <= self.tolerance * max(1.0, abs(fa), abs(fb))

    def finiteness_probes(self, t: ExtNonneg) -> list:
        """The positive values s, as pairs (n, d), on which the validator
        tries the criteria s ⊙ t ≤ 1_⊙ and t ⊙ s ≤ 1_⊙: the dyadic descent
        and 1_⊙, and when the arithmetic is exact and t finite and
        positive, 1_⊙ / 2t, so that a large t still finds s ~ 1/t."""
        e = self.identity
        if e.is_zero:
            return list(_DYADIC_PROBES)
        probes = [*_DYADIC_PROBES, (e._n, e._d)]
        if self.exact and t._n and t._d:
            probes.append((e._n * t._d, 2 * e._d * t._n))
        return probes

    def describe(self) -> str:
        return self.kind

    def products(self, lefts: Iterable[tuple], rights: Iterable[tuple]) -> Iterable[tuple]:
        """lefts[i] ⊙ rights[i] for each i, in order, on integer pairs:
        each value is a pair (n, d) for n/d, ∞ = (1, 0), in lowest terms
        or not, and so is each product.  The base class builds each
        argument, calls ``omul`` once per pair and reads the pair of its
        value, lazily: a consumer that collects them with ``list.extend``
        keeps the values before a fault, so the failing pair's position
        is the number of values received.  An override returns pairs of
        the same values; a closed form that cannot fault may return a
        list.  The validator and ``sup_products`` consume it: they compare
        the pairs by cross-multiplying and build no value for a product."""
        mul = self.omul
        for (n, d), (m, e) in zip(lefts, rights, strict=True):
            v = mul(ext_ratio(n, d), ext_ratio(m, e))
            yield v._n, v._d

    def _omul_is(self, cls: type) -> bool:
        """Whether this ⊙ is ``cls.omul`` itself, read from the class (so a
        traced run that wraps ``omul`` in place keeps the closed form): a
        subclass or an instance that redefines ``omul`` keeps the base loop."""
        return type(self).omul is cls.omul and "omul" not in vars(self)

    def sup_products(self, lefts: Iterable[ExtNonneg], rights: Iterable[ExtNonneg]) -> ExtNonneg:
        """⊕_i lefts[i] ⊙ rights[i], and 0 for no pairs: the max of
        ``products`` on the values' pairs, read in pair order and kept by
        cross-multiplying (∞ = (1, 0) needs no case), with one value built
        from it.  ``products`` is each operation's one closed form, so a
        fault is raised at the same pair as there."""
        bn, bd = 0, 1
        for n, d in self.products([(s._n, s._d) for s in lefts], [(t._n, t._d) for t in rights]):
            if bn * d < n * bd:
                bn, bd = n, d
        return ext_ratio(bn, bd) if bn else ZERO

    def achievable_set(self, t: ExtNonneg) -> AchievableSet:
        """{ c ⊙ t : c ∈ [0, ∞] } as {0} ∪ [O(t), ∞ ⊙ t].  ∞ ⊙ t is attained
        (at c = ∞), so O(t) is known attained if 0 or, when exact, ∞ ⊙ t."""
        lower = self.zero_map(t)
        upper = self(INF, t)
        attained = True if lower.is_zero or (self.exact and lower == upper) else None
        return AchievableSet(lower, upper, attained)

    def image_gap(self, t: ExtNonneg) -> Optional[ExtNonneg]:
        """For a ⊙-finite t, a value ≤ ∞ ⊙ t that no c ⊙ t equals, or None
        when every value up to ∞ ⊙ t is some c ⊙ t.  For a continuous ⊙
        the image is {0} ∪ [O(t), ∞ ⊙ t], and O(t) = 0 is what ⊙-finite
        means here (is_odot_finite), so the base class answers None."""
        return None

    def reaches(self, nu_x: ExtNonneg, tau_x: ExtNonneg) -> Callable[[float], bool]:
        """The test c ↦ c ⊙ tau_x ≥ nu_x on floats c that least_solution bisects."""
        return lambda c: self(ExtNonneg(c), tau_x) >= nu_x

    def least_solution(self, nu_x: ExtNonneg, tau_x: ExtNonneg) -> Optional[ExtNonneg]:
        """The least c with c ⊙ tau_x = nu_x > 0, or None when none exists.

        c ↦ c ⊙ t is monotone, so bisect on floats for the least c with
        c ⊙ t ≥ ν_x and accept it only if equality holds within tolerance
        (a gap means the target sits below O(t) or in a jump); an exact ⊙
        that no float solves leaves it unresolved (UnresolvedInfimumError).
        """
        lower = self.zero_map(tau_x)
        if nu_x < lower and not self.values_equal(nu_x, lower):
            return None
        if self.values_equal(nu_x, lower):
            # the target is the infimum of the positive branch; a least
            # solution need not exist, and the identity is the canonical
            # representative when it solves
            if self.values_equal(self(self.identity, tau_x), nu_x):
                return self.identity
        reaches = self.reaches(nu_x, tau_x)
        hi = None
        for k in range(0, 101, 4):
            if reaches(2.0 ** k):
                hi = 2.0 ** k
                break
        if hi is None:
            if self.values_equal(self(INF, tau_x), nu_x):
                return INF
            return None
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:  # float saturation, finer than any tolerance
                break
            if reaches(mid):
                hi = mid
            else:
                lo = mid
        else:
            raise UnresolvedInfimumError(
                f"bisection for c ⊙ {tau_x} = {nu_x} did not converge",
                bracket=(ExtNonneg(lo), ExtNonneg(hi)))
        c = ExtNonneg(hi)
        if self.values_equal(self(c, tau_x), nu_x):
            return c
        if self.exact:
            raise UnresolvedInfimumError(
                f"bisection for c ⊙ {tau_x} = {nu_x} found no float solving it exactly",
                bracket=(ExtNonneg(lo), c))
        return None

    def threshold_grid(self, f, B=None) -> list:
        """The integral oracle's thresholds for f on B; see canonical_grid."""
        depth = 20 if self.exact else 40
        values = [v.as_fraction() for v in f.finite_positive_values(B)]
        # Every point times ``scale`` is an integer, so the points are
        # collected, deduplicated and sorted as ints and built once each.
        scale = math.lcm(*(q.denominator for q in values)) << depth
        units = [q.numerator * (scale // q.denominator) for q in values]
        keys = {0, *units}
        for unit in units:  # v·(1 − 2^-k); unit is a multiple of 2^depth
            keys.update(unit - (unit >> k) for k in range(1, depth + 1))
        keys.update((a + b) >> 1 for a, b in zip(units, units[1:]))
        if f.attains_inf(B):
            keys.add(scale << 40)
        return [ext_ratio(key, scale) for key in sorted(keys)]

    def axiom_samples(self, seed: int) -> list:
        """The ascending, distinct values the validator checks the axioms on."""
        rng = random.Random(seed)
        values = {*_SPECIAL_SAMPLES, INF, self.identity}
        while len(values) < len(_SPECIAL_SAMPLES) + 2 + RANDOM_SAMPLES:
            values.add(ext_ratio(rng.randint(0, 64), rng.randint(1, 16)))
        return sorted(values)

    def extra_axiom_checks(self) -> tuple:
        """Checks of this operation beyond the ones on sample tables."""
        return ()

    def spec_form(self):
        """The ``pseudo_mul`` value of a spec document; None for a library-only ⊙."""
        names = (name for name, cls in NAMED_OPERATIONS.items() if isinstance(self, cls))
        return next(names, None)


class StandardProduct(PseudoMul):
    """The usual product on [0, ∞] with 0 · ∞ = 0; identity 1.

    Gives the Shilkret integral.  F_⊙ = [0, ∞): every finite value is
    ⊙-finite and ∞ is not, so the frontier is half-open with φ = ∞.
    """

    kind = "times"

    def __init__(self):
        super().__init__(ONE)

    def omul(self, s: ExtNonneg, t: ExtNonneg) -> ExtNonneg:
        return s * t

    # The closed form reads each value as its integer pair n/d (∞ = 1/0):
    # a product is n·n′ / d·d′, and 0 where either factor is 0 (0 · ∞ = 0).
    def products(self, lefts: Iterable[tuple], rights: Iterable[tuple]) -> Iterable[tuple]:
        """Each pair's product n·n′ / d·d′, unreduced, and (0, 1) where
        either factor is 0."""
        if not self._omul_is(StandardProduct):
            return super().products(lefts, rights)
        return [(n * m, d * e) if n and m else (0, 1)
                for (n, d), (m, e) in zip(lefts, rights, strict=True)]

    def zero_map(self, t: ExtNonneg) -> ExtNonneg:
        return INF if t.is_inf else ZERO

    def _compute_profile(self) -> FinitenessProfile:
        return FinitenessProfile(FrontierShape.HALF_OPEN, INF, degenerate=False)

    def least_solution(self, nu_x: ExtNonneg, tau_x: ExtNonneg) -> Optional[ExtNonneg]:
        if tau_x.is_zero:
            return None
        if tau_x.is_inf:
            return ONE if nu_x.is_inf else None
        return nu_x / tau_x


class Minimum(PseudoMul):
    """The minimum on [0, ∞]; identity ∞ (min(∞, t) = t).

    Gives the Sugeno integral.  O ≡ 0, so every element is ⊙-finite and
    F_⊙ is the whole interval.
    """

    kind = "min"

    def __init__(self):
        super().__init__(INF)

    def omul(self, s: ExtNonneg, t: ExtNonneg) -> ExtNonneg:
        return s if s < t else t

    # The closed form picks the lesser input by cross-multiplying the
    # integer pairs n/d (∞ = 1/0) and builds no value.
    def products(self, lefts: Iterable[tuple], rights: Iterable[tuple]) -> Iterable[tuple]:
        """Each pair's lesser value, the very pair given."""
        if not self._omul_is(Minimum):
            return super().products(lefts, rights)
        return [s if s[0] * t[1] < t[0] * s[1] else t
                for s, t in zip(lefts, rights, strict=True)]

    def zero_map(self, t: ExtNonneg) -> ExtNonneg:
        return ZERO

    def _compute_profile(self) -> FinitenessProfile:
        return FinitenessProfile(FrontierShape.WHOLE_INTERVAL, INF, degenerate=False)

    def least_solution(self, nu_x: ExtNonneg, tau_x: ExtNonneg) -> Optional[ExtNonneg]:
        return nu_x if nu_x <= tau_x else None


# The operations a spec document or the CLI's --op names by their kind.
NAMED_OPERATIONS = {cls.kind: cls for cls in (StandardProduct, Minimum)}


class DiscreteChain(PseudoMul):
    """A pseudo-multiplication on a finite chain, given by a full table.

    The carrier is a finite totally ordered subset of [0, ∞] containing
    0, at most ``CHAIN_CARRIER_CAP`` elements; the table must be closed
    over the carrier.  Continuity is vacuous, which is the point: chains
    can realize a finite frontier φ, which no shipped continuous ⊙ does.

    ``table`` is rows that follow ``carrier`` as written, row a's entries
    in the same order.  It is stored as carrier ranks: ``carrier``
    ascending, ``_rank`` the rank of each element's integer pair (n, d),
    and ``_rows[i][j]`` the rank of carrier[i] ⊙ carrier[j].  Rank order is value order, so
    every scan below compares ints.

    O(t) is the exhaustive minimum of s ⊙ t over positive carrier
    elements.  Because a chain has a least positive element and no zero
    divisors, O(t) > 0 for every t > 0; ⊙-finiteness is therefore
    decided by the invertibility criterion (s ⊙ t ≤ 1_⊙ and t ⊙ s' ≤ 1_⊙
    for some positive carrier s, s'), which agrees with O(t) = 0 on
    continuous operations.
    """

    kind = "chain"

    def __init__(self, carrier: Sequence, table, identity):
        written = [as_extnn(v) for v in carrier]
        check_fixed_cap(len(written), CHAIN_CARRIER_CAP, "chain carrier elements")
        values = tuple(sorted(set(written)))
        if len(values) < 2:
            raise ValueError("chain carrier needs at least two elements")
        if values[0] != ZERO:
            raise ValueError("chain carrier must contain 0")
        ident = as_extnn(identity)
        if ident not in values:
            raise ValueError("chain identity must belong to the carrier")
        if ident.is_zero:
            raise ValueError("chain identity must be positive")
        self.carrier = values
        self._pairs = tuple((v._n, v._d) for v in values)
        self._rank = {pair: i for i, pair in enumerate(self._pairs)}
        self._rows = self._rank_rows(written, table)
        super().__init__(ident)

    def _rank_rows(self, written: list, table) -> tuple:
        """``table``, rows following ``written``, as rows of ranks."""
        rank = self._rank
        k = len(self.carrier)
        if len(written) != k:
            raise ValueError("chain carrier elements must be distinct")
        rows = [list(row) for row in table]
        if len(rows) != k:
            raise ValueError(f"table must have {k} rows, got {len(rows)}")
        for a, row in zip(written, rows):
            if len(row) != k:
                raise ValueError(f"table row for {a} must have {k} entries")
        ranks = [rank[a._n, a._d] for a in written]
        out = [[0] * k for _ in range(k)]
        for i, a, row in zip(ranks, written, rows):
            for j, b, v in zip(ranks, written, map(as_extnn, row)):
                r = rank.get((v._n, v._d))
                if r is None:
                    raise ValueError(f"table entry {a} ⊙ {b} = {v} leaves the carrier")
                out[i][j] = r
        return tuple(map(tuple, out))

    @classmethod
    def clamped_product(cls, carrier: Sequence) -> "DiscreteChain":
        """Chain whose operation is the product rounded down into the carrier;
        its identity is 1.  Rows are made as read, so none past the cap."""
        values = tuple(sorted({as_extnn(v) for v in carrier}))
        rows = ([values[bisect.bisect_right(values, a * b) - 1] for b in values]
                for a in values)
        return cls(values, rows, ONE)

    def representable(self, t: ExtNonneg) -> bool:
        return (t._n, t._d) in self._rank

    def _index(self, t: ExtNonneg) -> int:
        """The rank of t in the carrier; CarrierDomainError off it."""
        v = as_extnn(t)
        i = self._rank.get((v._n, v._d))
        if i is None:
            raise CarrierDomainError(
                f"{t} is not in the chain carrier {[str(c) for c in self.carrier]}")
        return i

    def omul(self, s: ExtNonneg, t: ExtNonneg) -> ExtNonneg:
        return self.carrier[self._rows[self._index(s)][self._index(t)]]

    # The closed form reads each argument's rank from ``_rank`` and the
    # product's from ``_rows``.  An argument off the carrier (or a pair
    # not in lowest terms) is no key; it then hands the pairs to the
    # base loop, which calls omul and so faults at the same pair.
    def products(self, lefts: Iterable[tuple], rights: Iterable[tuple]) -> Iterable[tuple]:
        """Each pair's product, read from the table as a carrier pair."""
        if not self._omul_is(DiscreteChain):
            return super().products(lefts, rights)
        lefts, rights = list(lefts), list(rights)
        pairs, rank, rows = self._pairs, self._rank, self._rows
        try:
            return [pairs[rows[rank[s]][rank[t]]] for s, t in zip(lefts, rights, strict=True)]
        except KeyError:
            return super().products(lefts, rights)

    def zero_map(self, t: ExtNonneg) -> ExtNonneg:
        j = self._index(t)
        return self.carrier[min(row[j] for row in self._rows[1:])]

    def is_odot_finite(self, t: ExtNonneg) -> bool:
        j = self._index(t)
        e = self._rank[self.identity._n, self.identity._d]
        rows = self._rows
        return j == 0 or (any(row[j] <= e for row in rows[1:])
                          and any(r <= e for r in rows[j][1:]))

    def finiteness_probes(self, t: ExtNonneg) -> list:
        return list(self._pairs[1:])

    def _compute_profile(self) -> FinitenessProfile:
        carrier = self.carrier
        finite = [self.is_odot_finite(c) for c in carrier]
        elements = frozenset(c for c, ok in zip(carrier, finite) if ok)
        if all(finite):
            shape, phi = FrontierShape.WHOLE_INTERVAL, INF
        else:  # φ is the least element that is not ⊙-finite
            shape, phi = FrontierShape.HALF_OPEN, carrier[finite.index(False)]
        return FinitenessProfile(shape, phi, degenerate=elements == {ZERO},
                                 finite_elements=elements)

    def describe(self) -> str:
        return "chain{" + ", ".join(str(c) for c in self.carrier) + "}"

    def achievable_set(self, t: ExtNonneg) -> AchievableSet:
        j = self._index(t)
        image = {row[j] for row in self._rows}
        carrier = self.carrier
        lower = min(image - {0}, default=0)
        return AchievableSet(carrier[lower], carrier[max(image)], True,
                             explicit_values=frozenset(carrier[r] for r in image))

    def image_gap(self, t: ExtNonneg) -> Optional[ExtNonneg]:
        """The least carrier value below ∞ ⊙ t missing from t's column."""
        j = self._index(t)
        image = {row[j] for row in self._rows}
        gap = next((r for r in range(max(image)) if r not in image), None)
        return None if gap is None else self.carrier[gap]

    def least_solution(self, nu_x: ExtNonneg, tau_x: ExtNonneg) -> Optional[ExtNonneg]:
        j = self._index(tau_x)
        r = self._rank.get((nu_x._n, nu_x._d))
        for i, row in enumerate(self._rows):  # ascending, so the first hit is the least
            if row[j] == r:
                return self.carrier[i]
        return None

    def threshold_grid(self, f, B=None) -> list:
        return [c for c in self.carrier if c.is_finite]

    def axiom_samples(self, seed: int) -> list:
        return list(self.carrier)

    def spec_form(self):
        names = [str(c) for c in self.carrier]
        return {"chain": {
            "carrier": names,
            "table": [[names[r] for r in row] for row in self._rows],
            "identity": str(self.identity),
        }}


# The zero map's dyadic descent s = 2^-k, k = 0..60, and the finiteness
# probes 2^-k, k = 0, 4, .., 60, taken from it as pairs.
_DESCENT = tuple(2.0 ** -k for k in range(61))
_CUSTOM_PROBES = tuple(s.as_integer_ratio() for s in _DESCENT[::4])
# The points of CustomContinuous's ε-δ continuity grid.
_CUSTOM_SAMPLE_DOMAIN = (0.0, 0.25, 0.5, 1.0, 2.0, 8.0, 1024.0)


class CustomContinuous(PseudoMul):
    """A user-supplied operation on floats, checked numerically.

    ``fn`` must accept two nonnegative floats (possibly ``math.inf``)
    and return one.  All derived quantities (zero map, frontier,
    equality) are estimated with the relative tolerance ``tolerance``;
    nothing symbolic is attempted.
    """

    kind = "custom"
    exact = False
    tolerance = 1e-12

    def __init__(self, fn: Callable[[float, float], float], identity, name: str = "custom"):
        self.fn = fn
        self.name = name
        super().__init__(identity)

    @staticmethod
    def _value(r) -> float:
        """r, a value of fn, refused unless it is a number in [0, ∞]."""
        if isinstance(r, bool) or not isinstance(r, (int, float)):
            raise TypeError(f"custom operation returned {r!r}")
        if math.isnan(r) or r < 0:
            raise ValueError(f"custom operation returned {r!r} outside [0, inf]")
        return r

    def _checked(self, s: float, t: float) -> float:
        """fn(s, t), refused unless it is a number in [0, ∞]: a float ≥ 0
        passes at once (nan fails it), anything else goes through _value."""
        r = self.fn(s, t)
        return r if type(r) is float and r >= 0.0 else self._value(r)

    def omul(self, s: ExtNonneg, t: ExtNonneg) -> ExtNonneg:
        return ExtNonneg(self._checked(float(s), float(t)))

    def products(self, lefts: Iterable[tuple], rights: Iterable[tuple]) -> Iterable[tuple]:
        """The base loop's values, lazily, with no ExtNonneg between: each
        pair's float is n/d, as ``float`` of its value, each value is
        checked as ``_checked`` does (written out, a call a product fewer),
        and its pair is read from the float or int, as ExtNonneg reads it."""
        if not self._omul_is(CustomContinuous):
            return super().products(lefts, rights)
        fn, value, inf = self.fn, self._value, math.inf

        def checked_pairs():
            for (n, d), (m, e) in zip(lefts, rights, strict=True):
                r = fn(n / d if d else inf, m / e if e else inf)
                if not (type(r) is float and r >= 0.0):
                    r = value(r)
                yield (1, 0) if r == inf else r.as_integer_ratio()
        return checked_pairs()

    def _descent(self, t: ExtNonneg) -> list:
        """fn(2^-k, t) for k = 0..60, refused unless each is a number in [0, ∞].

        The list is checked in one pass that accepts only floats ≥ 0 (nan
        fails it); only if that pass fails is _value applied term by term,
        to accept an int or refuse the first bad term with its message.
        """
        tf = float(t)
        fn = self.fn
        values = [fn(s, tf) for s in _DESCENT]
        if not all(type(r) is float and r >= 0.0 for r in values):
            for r in values:
                self._value(r)
        return values

    def zero_map(self, t: ExtNonneg) -> ExtNonneg:
        """Estimate inf_{s>0} s ⊙ t along s = 2^-k, k = 0..60.

        Monotonicity makes the sampled sequence non-increasing, so the
        final term is an upper bound of the infimum.  The estimate is
        declared 0 below tolerance and accepted as the limit once the
        tail has stabilized; otherwise the bracket is surfaced.
        """
        values = self._descent(t)
        last = values[-1]
        scale = max(1.0, abs(values[0])) if math.isfinite(values[0]) else 1.0
        if math.isinf(last):
            return INF
        if last <= self.tolerance * scale:
            return ZERO
        prev = values[-6]
        if math.isfinite(prev) and abs(prev - last) <= 1e-9 * max(1.0, last):
            return ExtNonneg(last)
        raise UnresolvedInfimumError(
            f"zero-map descent for t = {t} still moving at k = 60",
            bracket=(ZERO, ExtNonneg(last)),
        )

    def _compute_profile(self) -> FinitenessProfile:
        degenerate = not self.is_odot_finite(self.identity)
        if self.is_odot_finite(INF):
            return FinitenessProfile(
                FrontierShape.WHOLE_INTERVAL, INF, degenerate=degenerate, approximate=True)
        # ∞ is not ⊙-finite; locate the frontier among finite values.
        probes = [float(self.identity) if self.identity.is_finite else 1.0,
                  1.0, 2.0, 2.0 ** 10, 2.0 ** 20, 2.0 ** 40]
        finite_probes = [p for p in probes if self.is_odot_finite(ExtNonneg(p))]
        infinite_probes = [p for p in probes if p not in finite_probes]
        if not infinite_probes:
            return FinitenessProfile(
                FrontierShape.HALF_OPEN, INF, degenerate=degenerate, approximate=True)
        if not finite_probes:
            return FinitenessProfile(
                FrontierShape.HALF_OPEN, ZERO, degenerate=True, approximate=True)
        lo, hi = max(finite_probes), min(infinite_probes)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
            if self.is_odot_finite(ExtNonneg(mid)):
                lo = mid
            else:
                hi = mid
        return FinitenessProfile(
            FrontierShape.HALF_OPEN, ExtNonneg(hi), degenerate=degenerate,
            approximate=True)

    def finiteness_probes(self, t: ExtNonneg) -> list:
        return list(_CUSTOM_PROBES)

    def describe(self) -> str:
        return f"custom({self.name})"

    def reaches(self, nu_x: ExtNonneg, tau_x: ExtNonneg) -> Callable[[float], bool]:
        tf, target = float(tau_x), float(nu_x)  # compared as the map computes, in floats
        return lambda c: self._checked(c, tf) >= target

    def extra_axiom_checks(self) -> tuple:
        # Heuristic grid check: perturbations of shrinking size must produce
        # shrinking output changes at interior sample points; a finite value
        # that the smallest takes to ∞ fails, as ∞ − ∞ is nan.
        worst, detail = None, "ε-δ grid on the sample domain"
        try:
            for s in (p for p in _CUSTOM_SAMPLE_DOMAIN if p > 0):
                for t in _CUSTOM_SAMPLE_DOMAIN:
                    base = self._checked(s, t)
                    if math.isinf(base):
                        continue
                    deltas = []
                    for d in (1e-3, 1e-6, 1e-9):
                        hs = min(d * max(1.0, s), s / 2)
                        ht = d * max(1.0, t)
                        jump = max(abs(self._checked(s + hs, t + ht) - base),
                                   abs(self._checked(s - hs, max(t - ht, 0.0)) - base))
                        deltas.append(jump)
                    if not deltas[2] - deltas[0] <= 1e-9 * max(1.0, abs(base)):
                        worst = (ExtNonneg(s), ExtNonneg(t))
        except OPERATION_FAULTS as exc:  # the map raised at or near (s, t)
            worst, detail = (ExtNonneg(s), ExtNonneg(t)), str(exc)
        return (AxiomCheck("continuity (sampled)", worst is None, worst, detail),)


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------

# What a custom map may raise on some pair: the validator reports it as
# an axiom failure, solve_density as a fault located at an atom.
OPERATION_FAULTS = (ValueError, TypeError, ArithmeticError)


class AxiomCheck(NamedTuple):
    name: str
    passed: bool
    witness: Optional[tuple] = None
    detail: str = ""

    def __str__(self):
        mark = "pass" if self.passed else "FAIL"
        extra = ""
        if self.witness is not None:
            extra = " witness=(" + ", ".join(str(w) for w in self.witness) + ")"
        if self.detail:
            extra += f" [{self.detail}]"
        return f"{mark:4} {self.name}{extra}"


class AxiomReport(NamedTuple):
    operation: str
    degenerate: bool
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        head = f"axiom report for {self.operation}" + (" (degenerate)" if self.degenerate else "")
        return "\n".join([head] + ["  " + str(c) for c in self.checks])


_SPECIAL_SAMPLES = tuple(map(ExtNonneg, (
    Fraction(0), Fraction(1, 1024), Fraction(1, 16), Fraction(1, 4), Fraction(1, 2),
    Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4), Fraction(16),
    Fraction(256), Fraction(2 ** 12), Fraction(2 ** 20),
)))
# Random values added to the special samples of a ⊙ without a finite
# carrier, and the triples drawn from them for associativity: all k³
# triples of k = 39 samples would cost 30 times the ⊙ calls.
RANDOM_SAMPLES = 24
ASSOCIATIVITY_TRIPLES = 2_000


def seeded_picks(rng: random.Random, k: int, count: int) -> list:
    """``count`` indices below k: the very ones that ``count`` calls of
    ``rng.choice(range(k))`` pick, leaving ``rng`` in the same state.

    choice keeps the first ``rng.getrandbits(b)`` below k, b = k.bit_length(),
    and each such draw is the top b bits of one 32-bit word of the
    generator.  For k < 256 a round reads as many words as picks are still
    needed in one ``getrandbits(32·m)`` call, which puts word i at bits
    32i to 32i + 31, and keeps the top b bits of each word's top byte
    where they are below k.  Each pick takes at least one word, so no
    round reads past the last pick.  For k ≥ 256 each is rng.randrange(k).
    """
    bits = k.bit_length()
    if bits > 8:
        return [rng.randrange(k) for _ in range(count)]
    shift = 8 - bits
    top_bits = bytes(b >> shift for b in range(256))
    too_large = bytes(range(k << shift, 256))
    picks = []
    while len(picks) < count:
        m = count - len(picks)
        words = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        picks += words[3::4].translate(top_bits, too_large)
    return picks


def _first_break(name: str, cases, broken, detail: str = "") -> AxiomCheck:
    """The check ``name``: its witness is the first case that ``broken``
    holds on, or on which ⊙ or its zero map faults (whose message is
    then the detail)."""
    case = None
    try:
        for case in cases:
            if broken(*case):
                return AxiomCheck(name, False, case, detail)
    except (UnresolvedInfimumError, *OPERATION_FAULTS) as exc:
        return AxiomCheck(name, False, case, str(exc))
    return AxiomCheck(name, True, None, detail)


def _collect(pm: PseudoMul, lefts: list, rights: list) -> tuple:
    """``(values, fault)``: ``pm.products(lefts, rights)`` up to its first
    fault, and that fault (None when there is none); the fault is at the
    pair whose position is ``len(values)``."""
    values = []
    try:
        values.extend(pm.products(lefts, rights))
    except OPERATION_FAULTS as exc:
        return values, exc
    return values, None


def _associativity(pm: PseudoMul, samples: list, pairs: list, op: list, seed: int) -> AxiomCheck:
    """Associativity on every triple when each product in the table ``op``
    is a sample (in lowest terms) and ranks fit a byte, as rows of rank
    bytes: (x ⊙ y) ⊙ z over all z is row ``rows[x][y]``, x ⊙ (y ⊙ z) row y
    translated by row x.  Else on ``ASSOCIATIVITY_TRIPLES`` triples drawn
    by ``seed``, each side in one ``products`` call, the right one on the
    triples before the left one's first fault.  The witness is the first
    triple, row-major, where the sides differ or one faults, left first."""
    eq = pm.pairs_equal
    k = len(samples)
    rank = {pair: i for i, pair in enumerate(pairs)}
    if k <= CHAIN_CARRIER_CAP and all(p in rank for row in op for p in row):
        rows = [bytes(map(rank.__getitem__, row)) for row in op]
        tables = [row.ljust(256) for row in rows]  # translate's table: 256 bytes, k of them read
        for x, y in itertools.product(range(k), repeat=2):
            left, right = rows[rows[x][y]], rows[y].translate(tables[x])
            if left != right:  # unequal ranks may be values equal within tolerance
                z = next((z for z in range(k) if not eq(pairs[left[z]], pairs[right[z]])), None)
                if z is not None:
                    return AxiomCheck("associativity", False, (samples[x], samples[y], samples[z]))
        return AxiomCheck("associativity", True)
    picks = seeded_picks(random.Random(seed + 1), k, 3 * ASSOCIATIVITY_TRIPLES)
    S, T, U = picks[0::3], picks[1::3], picks[2::3]
    lefts, fault = _collect(pm, [op[s][t] for s, t in zip(S, T)], [pairs[u] for u in U])
    m = len(lefts)
    rights, right_fault = _collect(pm, [pairs[s] for s in S[:m]],
                                   [op[t][u] for t, u in zip(T[:m], U[:m])])
    fault = fault if right_fault is None else right_fault
    if lefts != rights:  # equal pairs are equal values; unequal ones may be too
        broken = next((i for i, (a, b) in enumerate(zip(lefts, rights)) if not eq(a, b)), None)
        if broken is not None:
            return AxiomCheck("associativity", False,
                              (samples[S[broken]], samples[T[broken]], samples[U[broken]]))
    if fault is not None:
        i = len(rights)
        return AxiomCheck("associativity", False,
                          (samples[S[i]], samples[T[i]], samples[U[i]]), str(fault))
    return AxiomCheck("associativity", True)


def validate_pseudo_mul(pm: PseudoMul, seed: int = 0) -> AxiomReport:
    """Check the pseudo-multiplication axioms and structural consequences.

    ⊙ is computed once on every pair of sample values (the whole carrier
    for chains, special and seeded random values otherwise), in one
    ``pm.products`` call.  Monotonicity and the no-crossing property at φ
    scan that table completely.  Associativity takes every triple, as
    rank bytes, when the table is closed over the samples (always on a
    chain), and otherwise ``ASSOCIATIVITY_TRIPLES`` seeded triples, each
    side in one ``products`` call.  Every check reads integer pairs
    (n, d): the samples', the products' and the finiteness probes'.
    Order is cross-multiplied; so is equality, by ``pm.pairs_equal``,
    which also applies an inexact ⊙'s tolerance.  No value is built for a
    product; a witness is a tuple of samples (and of φ).  Failures are
    report entries carrying a witness tuple, never exceptions: a ⊙ that
    raises on a sampled pair fails the totality check there, and one that
    raises past the sample table fails the check it raised in.  A
    non-degenerate ⊙ is also checked for commutativity below the
    identity, the frontier identities at φ and the agreement of the left
    and right invertibility criteria for ⊙-finiteness.
    """
    samples = pm.axiom_samples(seed)
    pairs = [(v._n, v._d) for v in samples]
    eq = pm.pairs_equal
    # Samples ascend without repeats, so indices compare as their values.
    k = len(samples)
    idx = range(k)
    positives = [i for i in idx if not samples[i].is_zero]
    checks = []

    def values(*indices):
        return tuple(samples[i] for i in indices)

    # Totality gate: a custom map may blow up (nan, negatives) on some
    # pair; that is itself an axiom failure and must not crash the rest.
    # Its results are the sample table: op[i][j] = samples[i] ⊙ samples[j],
    # computed row by row in one products call.
    table, fault = _collect(pm, [s for s in pairs for _ in idx], pairs * k)
    if fault is not None:
        s, t = divmod(len(table), k)
        gate = AxiomCheck("defined on all sampled pairs", False, values(s, t), str(fault))
        return AxiomReport(pm.describe(), False, (gate,))
    op = [table[i:i + k] for i in range(0, k * k, k)]

    # Left identity, annihilator, zero divisors: over all samples.
    one, zero = samples.index(pm.identity), samples.index(ZERO)
    witness = next((t for t in idx if not eq(op[one][t], pairs[t])), None)
    checks.append(AxiomCheck("left identity", witness is None,
                             None if witness is None else (pm.identity, samples[witness])))

    witness = next((t for t in idx if op[zero][t][0] or op[t][zero][0]), None)
    checks.append(AxiomCheck("annihilator", witness is None,
                             None if witness is None else (ZERO, samples[witness])))

    witness = next((values(s, t) for s in positives for t in positives
                    if not op[s][t][0]), None)
    checks.append(AxiomCheck("no zero divisors", witness is None, witness))

    # Monotonicity in both arguments: by transitivity, every row and
    # every column of the table is non-decreasing between adjacent
    # samples.  At (i, t) the row pair is op[i][t] = n/d, op[i+1][t] = m/e
    # and the column pair op[t][i] = p/q, op[t][i+1] = r/w.
    cols = list(zip(*op))
    mono_witness = next((values(i, i + 1, t) for i in idx[:-1]
                         for t, ((n, d), (m, e), (p, q), (r, w))
                         in enumerate(zip(op[i], op[i + 1], cols[i], cols[i + 1]))
                         if m * d < n * e or r * q < p * w), None)
    checks.append(AxiomCheck("monotonicity", mono_witness is None, mono_witness))

    checks.append(_associativity(pm, samples, pairs, op, seed))

    checks.extend(pm.extra_axiom_checks())

    try:
        profile = pm.finiteness_profile()
    except (UnresolvedInfimumError, *OPERATION_FAULTS) as exc:
        checks.append(AxiomCheck("finiteness profile resolves", False, None, str(exc)))
        return AxiomReport(pm.describe(), False, tuple(checks))
    if not profile.degenerate:
        below = idx[:one + 1]  # the samples ≤ 1_⊙
        # eq is symmetric, so the first failing pair in row-major order has
        # a < b; equal pairs are equal values, and only unequal ones need eq
        comm_witness = next((values(a, b) for a in below for b in below[a + 1:]
                             if op[a][b] != op[b][a] and not eq(op[a][b], op[b][a])), None)
        checks.append(AxiomCheck("commutative on [0, 1_⊙]", comm_witness is None, comm_witness))

        if profile.shape is FrontierShape.HALF_OPEN and pm.representable(profile.phi):
            phi = profile.phi
            at_phi = (phi._n, phi._d)
            checks.append(AxiomCheck("φ exceeds the identity", pm.identity < phi,
                                     None if pm.identity < phi else (pm.identity, phi),
                                     detail="a non-degenerate frontier lies in (1_⊙, ∞]"))
            # Products read through an iterator, one a case: a lazy ⊙
            # computes each only when its case is read, so a fault is met there.
            square = iter(pm.products([at_phi], [at_phi]))
            checks.append(_first_break("φ ⊙ φ = φ", [(phi, phi)],
                                       lambda a, b: not eq(next(square), at_phi)))
            lows, upto = bisect.bisect_left(samples, phi), bisect.bisect_right(samples, phi)
            absorbed = [i for i in positives if i < upto]  # the samples in (0, φ]
            ts, phis = [pairs[i] for i in absorbed], [at_phi] * len(absorbed)
            left, right = iter(pm.products(ts, phis)), iter(pm.products(phis, ts))
            checks.append(_first_break(
                "φ absorbing on (0, φ]", ((samples[i], phi) for i in absorbed),
                lambda t, p: not (eq(next(left), at_phi) and eq(next(right), at_phi))))

            cross_witness = next((values(t, u) for t in idx[:lows] for u in idx[upto:]
                                  if eq(op[t][u], at_phi)), None)
            checks.append(AxiomCheck("no crossing at φ", cross_witness is None, cross_witness,
                                     detail="no t < φ, t' > φ with t ⊙ t' = φ"))

        en, ed = pairs[one]

        def criteria_disagree(t):
            probes = pm.finiteness_probes(t)
            at = [(t._n, t._d)] * len(probes)  # v = n/d ≤ 1_⊙ is n·ed ≤ en·d
            left = any(n * ed <= en * d for n, d in pm.products(probes, at))
            right = any(n * ed <= en * d for n, d in pm.products(at, probes))
            fin = pm.is_odot_finite(t)
            return not t.is_zero and not (left == right == fin)

        checks.append(_first_break("finiteness criteria agree", ((t,) for t in samples),
                                   criteria_disagree,
                                   detail="O(t)=0 ⇔ ∃s: s⊙t ≤ 1_⊙ ⇔ ∃s': t⊙s' ≤ 1_⊙"))

    return AxiomReport(pm.describe(), profile.degenerate, tuple(checks))
