"""σ-maxitive measures, measurable functions, σ-ideals, and finiteness diagnostics.

On a finite powerset a σ-maxitive measure is determined by its atom
masses: μ(B) = ⊕_{x ∈ B} mass(x) with μ(∅) = 0, where ⊕ is max.  All
σ-notions (σ-maxitivity, σ-ideals, σ-⊙-finiteness) collapse to their
finite counterparts, which keeps every hypothesis decidable.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .bytetable import max_rank_table
from .extreal import ONE, ZERO, ExtNonneg, as_extnn, ext_max
from .pseudomul import PseudoMul
from .spaces import MAXITIVE_ORACLE_CAP, SEMI_FINITE_ORACLE_CAP
from .spaces import Space, SubsetB, _same_space, check_fixed_cap, submasks

__all__ = [
    "MaxMeasure",
    "MeasurableFn",
    "SigmaIdeal",
    "SetFunctionTable",
    "SpotReport",
    "delta_sharp",
    "measure_eval",
    "is_negligible",
    "is_sigma_odot_finite",
    "is_semi_odot_finite",
    "semi_odot_finite_bruteforce",
    "find_odot_spots",
    "check_maxitive",
    "check_maxitive_bruteforce",
]


def _values_from(space: Space, values) -> tuple:
    if isinstance(values, Mapping):
        missing = [a for a in space.atoms if a not in values]
        if missing:
            raise ValueError(f"missing masses for atoms {missing}")
        extra = [k for k in values if k not in space.positions]
        if extra:
            raise ValueError(f"values given for unknown atoms {extra}")
        return tuple(as_extnn(values[a]) for a in space.atoms)
    values = tuple(map(as_extnn, values))
    if len(values) != space.n:
        raise ValueError(f"expected {space.n} values, got {len(values)}")
    return values


class _AtomMap:
    """Shared storage for atom-indexed ExtNonneg values."""

    __slots__ = ("space", "_values")

    def __init__(self, space: Space, values):
        self.space = space
        self._values = _values_from(space, values)

    def __eq__(self, other) -> bool:
        return (type(self) is type(other)
                and self.space == other.space and self._values == other._values)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.space, self._values))

    def as_dict(self) -> dict:
        return dict(zip(self.space.atoms, self._values))

    @classmethod
    def constant(cls, space: Space, value):
        v = as_extnn(value)
        return cls(space, [v] * space.n)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}: {v}" for a, v in zip(self.space.atoms, self._values))
        return f"{type(self).__name__}({{{inner}}})"


class MaxMeasure(_AtomMap):
    """A σ-maxitive measure on a finite powerset, stored as atom masses."""

    def mass(self, label: str) -> ExtNonneg:
        return self._values[self.space.index(label)]

    @property
    def masses(self) -> tuple:
        return self._values

    def __call__(self, B: SubsetB) -> ExtNonneg:
        return measure_eval(self, B)

    @property
    def total(self) -> ExtNonneg:
        return ext_max(self._values)

    @property
    def support(self) -> SubsetB:
        """The atoms of positive mass."""
        mask = 0
        for i, v in enumerate(self._values):
            if not v.is_zero:
                mask |= 1 << i
        return SubsetB(self.space, mask)

    def table(self) -> "SetFunctionTable":
        """The full induced set function (2^n entries, one byte each).

        Each entry is the rank of μ(B) among the ≤ n + 1 distinct values
        0 and the atom masses, built by max_rank_table, which refuses
        past the enumeration cap.
        """
        universe = tuple(sorted({ZERO, *self._values}))
        index = {v: r for r, v in enumerate(universe)}
        return SetFunctionTable.from_ranks(
            self.space, universe, max_rank_table([index[v] for v in self._values]))


class MeasurableFn(_AtomMap):
    """A map from atoms to [0, ∞]; integrands and densities.

    Level sets are read from one table built on first use and kept (see
    _level_sets); it takes no part in ==, hash or repr.
    """

    __slots__ = ("_levels",)

    def __call__(self, label: str) -> ExtNonneg:
        return self._values[self.space.index(label)]

    @property
    def values(self) -> tuple:
        return self._values

    @classmethod
    def indicator(cls, B: SubsetB, height=ONE) -> "MeasurableFn":
        h = as_extnn(height)
        return cls(B.space, [h if (B.mask >> i & 1) else ZERO
                             for i in range(B.space.n)])

    def _level_sets(self) -> tuple:
        """``(values, masks, order)``, built once.

        ``values`` holds the distinct values of f ascending and
        ``masks[j]`` the atoms where f ≥ values[j], with a last entry 0,
        so the level {f = values[j]} is masks[j] ^ masks[j + 1].
        ``order`` lists the atoms by descending value, ties by index.
        """
        try:
            return self._levels
        except AttributeError:
            pass
        vals = self._values
        order = tuple(sorted(range(len(vals)), key=vals.__getitem__, reverse=True))
        values, masks, mask = [], [0], 0
        for v, group in itertools.groupby(order, vals.__getitem__):
            for i in group:
                mask |= 1 << i
            values.append(v)
            masks.append(mask)
        self._levels = (tuple(reversed(values)), tuple(reversed(masks)), order)
        return self._levels

    @property
    def level_table(self) -> tuple:
        """``(values, masks)``: the distinct values of f ascending, and
        masks[j] the atoms where f ≥ values[j], with a last entry 0."""
        values, masks, _ = self._level_sets()
        return values, masks

    @property
    def descending_order(self) -> tuple:
        """The atom indices by descending value, ties by index: every
        level set {f ≥ v} is a prefix."""
        return self._level_sets()[2]

    def strictly_above(self, t: ExtNonneg) -> SubsetB:
        """The level set {f > t}."""
        values, masks, _ = self._level_sets()
        return SubsetB(self.space, masks[bisect_right(values, as_extnn(t))])

    def at_least(self, v: ExtNonneg) -> SubsetB:
        """The level set {f ≥ v}."""
        values, masks, _ = self._level_sets()
        return SubsetB(self.space, masks[bisect_left(values, as_extnn(v))])

    def level(self, v: ExtNonneg) -> SubsetB:
        """The level set {f = v}."""
        v = as_extnn(v)
        values, masks, _ = self._level_sets()
        j = bisect_left(values, v)
        found = j < len(values) and values[j] == v
        return SubsetB(self.space, masks[j] ^ masks[j + 1] if found else 0)

    @property
    def support(self) -> SubsetB:
        return self.strictly_above(ZERO)

    def finite_positive_values(self, B: Optional[SubsetB] = None) -> list:
        """Distinct finite nonzero values taken on B (default: everywhere), ascending."""
        if B is not None:
            _same_space(self.space, B.space)
        values, masks, _ = self._level_sets()
        within = -1 if B is None else B.mask
        return [v for j, v in enumerate(values)
                if v.is_finite and not v.is_zero and (masks[j] ^ masks[j + 1]) & within]

    def attains_inf(self, B: Optional[SubsetB] = None) -> bool:
        values, masks, _ = self._level_sets()
        within = -1 if B is None else B.mask
        return values[-1].is_inf and bool(masks[-2] & within)

    def pointwise_max(self, other: "MeasurableFn") -> "MeasurableFn":
        _same_space(self.space, other.space)
        return MeasurableFn(self.space, [max(a, b) for a, b in zip(self._values, other._values)])

    def scale_left(self, pm: PseudoMul, r) -> "MeasurableFn":
        """The pointwise map x ↦ r ⊙ f(x)."""
        r = as_extnn(r)
        return MeasurableFn(self.space, [pm(r, v) for v in self._values])

    def with_value(self, label: str, value) -> "MeasurableFn":
        vals = list(self._values)
        vals[self.space.index(label)] = as_extnn(value)
        return MeasurableFn(self.space, vals)


class SigmaIdeal:
    """A σ-ideal of the powerset: downward closed and union closed.

    On a finite powerset every σ-ideal equals the powerset of its union,
    so the top set determines membership; generator sets are retained
    only for reporting.
    """

    __slots__ = ("space", "top", "generators")

    def __init__(self, space: Space, top: SubsetB, generators: Optional[Sequence[SubsetB]] = None):
        _same_space(space, top.space)
        self.space = space
        self.top = top
        self.generators = tuple(generators) if generators is not None else None

    @classmethod
    def from_generators(cls, space: Space, generators: Iterable[SubsetB]) -> "SigmaIdeal":
        gens = tuple(generators)
        top = space.empty
        for g in gens:
            top = top | g
        return cls(space, top, gens)

    @classmethod
    def full(cls, space: Space) -> "SigmaIdeal":
        return cls(space, space.full)

    @classmethod
    def trivial(cls, space: Space) -> "SigmaIdeal":
        """The ideal containing only the empty set."""
        return cls(space, space.empty)

    def contains(self, B: SubsetB) -> bool:
        return B.issubset(self.top)

    def members(self) -> Iterator[SubsetB]:
        """All member sets (the powerset of the top set)."""
        return self.top.subsets()

    def __eq__(self, other) -> bool:
        return (isinstance(other, SigmaIdeal)
                and self.space == other.space and self.top == other.top)

    def __hash__(self) -> int:
        return hash((self.space, self.top))

    def __repr__(self) -> str:
        return f"SigmaIdeal(top={self.top!r})"


class SetFunctionTable:
    """An arbitrary set function given by all 2^n values; zero at ∅.

    Stored as ``universe``, the ascending tuple of the distinct values
    taken (0 first), and ``ranks``, where ranks[mask] is the position in
    ``universe`` of the value at mask: one byte per subset when at most
    256 values occur, a tuple of ints otherwise.  The form is canonical,
    so equal set functions have equal ``(universe, ranks)``; ``values``
    is decoded on each access.
    """

    __slots__ = ("space", "universe", "ranks")

    def __init__(self, space: Space, values: Sequence[ExtNonneg]):
        values = [as_extnn(v) for v in values]
        if len(values) != (1 << space.n):
            raise ValueError(f"expected {1 << space.n} values, got {len(values)}")
        if not values[0].is_zero:
            raise ValueError("a set function must vanish at the empty set")
        self.space = space
        self.universe = tuple(sorted(set(values)))
        index = {v: r for r, v in enumerate(self.universe)}
        ranks = [index[v] for v in values]
        self.ranks = bytes(ranks) if len(self.universe) <= 256 else tuple(ranks)

    @classmethod
    def from_ranks(cls, space: Space, universe: Sequence[ExtNonneg],
                   ranks: bytes) -> "SetFunctionTable":
        """The table with value universe[ranks[mask]] at each mask.

        ``universe`` must be ascending; the values in it that no entry
        takes are dropped, which keeps the form canonical.
        """
        if len(ranks) != (1 << space.n):
            raise ValueError(f"expected {1 << space.n} ranks, got {len(ranks)}")
        if not universe[ranks[0]].is_zero:
            raise ValueError("a set function must vanish at the empty set")
        kept = [r for r in range(len(universe)) if bytes([r]) in ranks]
        if len(kept) < len(universe):
            remap = bytearray(256)
            for new, old in enumerate(kept):
                remap[old] = new
            ranks = ranks.translate(remap)
        table = object.__new__(cls)
        table.space = space
        table.universe = tuple(universe[r] for r in kept)
        table.ranks = bytes(ranks)
        return table

    @property
    def values(self) -> tuple:
        return tuple(map(self.universe.__getitem__, self.ranks))

    def value(self, B: SubsetB) -> ExtNonneg:
        _same_space(self.space, B.space)
        return self.universe[self.ranks[B.mask]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SetFunctionTable) and self.space == other.space
                and self.universe == other.universe and self.ranks == other.ranks)

    def __hash__(self) -> int:
        return hash((self.space, self.universe, self.ranks))

    def __repr__(self) -> str:
        return f"SetFunctionTable(n={self.space.n})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def measure_eval(mu: MaxMeasure, B: SubsetB) -> ExtNonneg:
    """μ(B) = ⊕ of atom masses over B; 0 at the empty set."""
    _same_space(mu.space, B.space)
    best = ZERO
    mask = B.mask
    values = mu.masses
    while mask:
        low = mask & -mask
        v = values[low.bit_length() - 1]
        if best < v:
            best = v
        mask ^= low
    return best


def delta_sharp(space: Space) -> MaxMeasure:
    """The measure assigning 1 to every nonempty set (all atom masses 1)."""
    return MaxMeasure.constant(space, ONE)


def is_negligible(mu: MaxMeasure, N: SubsetB) -> bool:
    """Whether N is contained in a set of measure zero (here: μ(N) = 0)."""
    return measure_eval(mu, N).is_zero


def is_sigma_odot_finite(pm: PseudoMul, mu: MaxMeasure) -> bool:
    """Whether a countable cover by sets of ⊙-finite measure exists.

    On a finite space: exactly when every atom mass is ⊙-finite, that is
    when μ has no ⊙-spot, or μ(E) is ⊙-finite.  The singletons then
    cover, and F_⊙ being downward closed, a set holding an atom of
    ⊙-infinite mass has ⊙-infinite measure.
    """
    return not find_odot_spots(pm, mu).has_spots


def is_semi_odot_finite(pm: PseudoMul, mu: MaxMeasure) -> bool:
    """Whether μ(B) = ⊕ {μ(A) : A ⊆ B, μ(A) ⊙-finite} for every B.

    μ(A) is ⊙-finite exactly when every atom of A has ⊙-finite mass, so
    the supremum is μ(B ∩ Fin), Fin the atoms of ⊙-finite mass: μ(B) for
    every B exactly when μ has no ⊙-spot, every atom mass ⊙-finite (an
    atom x of ⊙-infinite, so positive, mass fails at B = {x}).
    """
    return not find_odot_spots(pm, mu).has_spots


def semi_odot_finite_bruteforce(pm: PseudoMul, mu: MaxMeasure) -> bool:
    """Literal sub-enumeration form of semi-⊙-finiteness (test oracle).

    Enumerates, for every B, all A ⊆ B, keeping those with μ(A)
    ⊙-finite.  Exponentially slower than is_semi_odot_finite; they must
    agree.
    """
    check_fixed_cap(mu.space.n, SEMI_FINITE_ORACLE_CAP, "atoms")
    table = mu.table().values
    finite = [pm.is_odot_finite(v) for v in table]
    for bmask in submasks(mu.space.full.mask):
        if table[bmask] != ext_max(table[a] for a in submasks(bmask) if finite[a]):
            return False
    return True


class SpotReport(NamedTuple):
    """⊙-spots of a measure: sets of ⊙-infinite measure whose subsets all
    have measure zero or ⊙-infinite.

    ``maximal_spot`` is the set of atoms of ⊙-infinite mass: the largest
    spot modulo null atoms.  Adding atoms of mass 0 to a spot leaves a
    spot, so the largest spot in the literal sense is this set together
    with every null atom; ``atom_spots`` are the labels of ``maximal_spot``.
    """

    maximal_spot: Optional[SubsetB]
    atom_spots: tuple

    @property
    def has_spots(self) -> bool:
        return self.maximal_spot is not None

    def __str__(self):
        if not self.has_spots:
            return "no ⊙-spots"
        return f"maximal ⊙-spot {self.maximal_spot!r}; atom spots {list(self.atom_spots)}"


def find_odot_spots(pm: PseudoMul, mu: MaxMeasure) -> SpotReport:
    """The maximal ⊙-spot modulo null atoms, and the atom-level spots.

    Any subset of the ⊙-infinite-mass atoms has measure 0 (empty) or
    ⊙-infinite (the max of ⊙-infinite masses stays outside the downward
    closed finite set), so that atom set is a spot whenever nonempty; a
    set with an atom of ⊙-finite positive mass is none.  A spot may also
    hold atoms of mass 0, which change no measure: under the product,
    μ = {a: ∞, b: 5/4, c: 0, d: 4} has the spots {a} and {a, c}, and the
    reported maximal spot is {a}, the largest spot with no null atom.
    """
    mask = sum(1 << i for i, v in enumerate(mu.masses) if not pm.is_odot_finite(v))
    if mask == 0:
        return SpotReport(None, ())
    spot = SubsetB(mu.space, mask)
    return SpotReport(spot, spot.labels)


def check_maxitive(table: SetFunctionTable) -> bool:
    """Whether table(B ∪ B') = table(B) ⊕ table(B') for all pairs.

    Checks the equivalent atom-generation property
    table(B) = ⊕_{x ∈ B} table({x}), which on a powerset characterizes
    the same set functions: the measure with the singleton values as
    atom masses must have the same table, rank for rank.
    ``check_maxitive_bruteforce`` is the literal all-pairs scan.
    """
    singletons = [table.universe[table.ranks[1 << i]] for i in range(table.space.n)]
    return MaxMeasure(table.space, singletons).table() == table


def check_maxitive_bruteforce(table: SetFunctionTable) -> bool:
    """Literal all-pairs form of check_maxitive (test oracle).

    Scans every pair (B, B') for table(B ∪ B') = table(B) ⊕ table(B');
    quadratic in 2^n, so capped lower than check_maxitive.  They must
    agree.
    """
    check_fixed_cap(table.space.n, MAXITIVE_ORACLE_CAP, "atoms")
    values = table.values
    size = len(values)
    for a in range(size):
        va = values[a]
        for b in range(a, size):
            vb = values[b]
            if values[a | b] != (va if vb < va else vb):
                return False
    return True
