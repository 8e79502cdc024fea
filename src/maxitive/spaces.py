"""Finite measurable spaces and their subsets.

A space is an ordered tuple of distinct atom labels; the σ-algebra is
implicitly the full powerset, so every subset is measurable and is
represented as a bitmask over the atom order.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import SizeCapError, SpaceMismatchError

__all__ = ["Space", "SubsetB", "ENUM_CAP", "check_enum_cap", "check_fixed_cap", "within_cap",
           "submasks"]

# Hard ceiling for exhaustive powerset enumeration; operations refuse
# beyond it rather than sample.
ENUM_CAP = 20
# The CLI's default --max-n.  Every CLI cross-check takes about 50 ms or less
# at ENUM_CAP; the default stays 12 because the goldens and perfbench's
# cli-docs workload are built on it.
DEFAULT_MAX_N = 12
# Quotient σ-ideals are found among all down-sets of the 2^k classes, whose
# number grows as the Dedekind numbers: 7 581 at k = 5, 7.8e6 at k = 6.
SIGMA_IDEAL_ENUM_CAP = 5
# The brute-force oracles' caps: semi_odot_finite_bruteforce visits
# 3^n pairs A ⊆ B, check_maxitive_bruteforce 4^n pairs, and
# disjoint_variation_bruteforce Bell(n) partitions (203 at n = 6).
SEMI_FINITE_ORACLE_CAP = 12
MAXITIVE_ORACLE_CAP = 10
PARTITION_ORACLE_CAP = 6
# A number string may have at most this many characters and an exponent
# of ten at most this large: Fraction would build 10**exponent first.
# So a number's numerator has at most 1 995 digits ("9"*995 + "e1000") and
# its denominator at most 1 993 ("0." + "9"*992 + "e-1000"); the first over
# the second, a density, prints with 3 987, within Python's default 4 300.
NUMBER_DIGITS_CAP = 1000
# A chain's carrier ranks fit a byte, so the validator checks associativity
# on rows of rank bytes, every triple at once.
CHAIN_CARRIER_CAP = 256
# gallery --trials: a trial takes 0.1 to 0.2 ms (2 vCPU), so the cap runs in 20 s at most.
GALLERY_TRIALS_CAP = 100_000


def within_cap(size: int, limit: int) -> bool:
    """Whether a cross-check over ``size`` atoms runs: ``limit`` (the
    CLI's --max-n) is taken at most ENUM_CAP.  It decides a skip; no
    limit moves a refusal."""
    return size <= min(limit, ENUM_CAP)


def check_fixed_cap(size: int, cap: int, what: str) -> None:
    """Refuse ``size`` of ``what`` past ``cap``, a cap that no argument moves."""
    if size > cap:
        raise SizeCapError(f"{size} {what} exceed the cap of {cap}")


def check_enum_cap(size: int) -> None:
    """Refuse an enumeration over ``size`` atoms past ENUM_CAP."""
    check_fixed_cap(size, ENUM_CAP, "atoms")


def submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask``, ascending from 0 to ``mask`` itself.

    The one 2^k loop: a mask of more than ENUM_CAP bits is refused
    before anything is yielded.
    """
    check_enum_cap(mask.bit_count())
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


class Space:
    """A finite set of named atoms carrying the full powerset σ-algebra."""

    __slots__ = ("atoms", "positions")

    def __init__(self, atoms: Sequence[str]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("a space needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom labels must be distinct")
        if not all(isinstance(a, str) and a for a in atoms):
            raise ValueError("atom labels must be nonempty strings")
        self.atoms = atoms
        # label -> its position in atoms; not to be mutated
        self.positions = {a: i for i, a in enumerate(atoms)}

    @property
    def n(self) -> int:
        return len(self.atoms)

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except KeyError:
            raise ValueError(f"unknown atom {label!r}") from None

    def subset(self, labels: Iterable[str]) -> "SubsetB":
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return SubsetB(self, mask)

    @property
    def empty(self) -> "SubsetB":
        return SubsetB(self, 0)

    @property
    def full(self) -> "SubsetB":
        return SubsetB(self, (1 << self.n) - 1)

    def subsets(self) -> Iterator["SubsetB"]:
        """All 2^n subsets, ascending by mask (SubsetB.subsets)."""
        return self.full.subsets()

    def __eq__(self, other) -> bool:
        return isinstance(other, Space) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Space({list(self.atoms)!r})"


def _same_space(a: Space, b: Space) -> None:
    if a != b:
        raise SpaceMismatchError(f"objects live on different spaces: {a!r} vs {b!r}")


class SubsetB:
    """A measurable set: a bitmask bound to one space."""

    __slots__ = ("space", "mask")

    def __init__(self, space: Space, mask: int):
        if not 0 <= mask < (1 << space.n):
            raise ValueError(f"mask {mask:#x} is out of range for {space!r}")
        self.space = space
        self.mask = mask

    def _check(self, other: "SubsetB") -> None:
        if not isinstance(other, SubsetB):
            raise TypeError("expected a SubsetB")
        _same_space(self.space, other.space)

    def __or__(self, other: "SubsetB") -> "SubsetB":
        self._check(other)
        return SubsetB(self.space, self.mask | other.mask)

    def __and__(self, other: "SubsetB") -> "SubsetB":
        self._check(other)
        return SubsetB(self.space, self.mask & other.mask)

    def __sub__(self, other: "SubsetB") -> "SubsetB":
        self._check(other)
        return SubsetB(self.space, self.mask & ~other.mask)

    def __invert__(self) -> "SubsetB":
        return SubsetB(self.space, self.space.full.mask & ~self.mask)

    def issubset(self, other: "SubsetB") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __le__ = issubset

    def subsets(self) -> Iterator["SubsetB"]:
        """Every subset of this set, ascending by mask: the one subset
        enumerator, refusing past the enumeration cap (submasks)."""
        for mask in submasks(self.mask):
            yield SubsetB(self.space, mask)

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.space.index(label) & 1)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        # the mask's bits read once, lowest first: bit i is atom i
        return compress(self.space.atoms, map("1".__eq__, reversed(format(self.mask, "b"))))

    @property
    def labels(self) -> tuple:
        return tuple(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubsetB)
                and self.space == other.space and self.mask == other.mask)

    def __hash__(self) -> int:
        return hash((self.space, self.mask))

    def __repr__(self) -> str:
        return "{" + ", ".join(self) + "}"
