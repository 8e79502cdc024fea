"""The quotient lattice modulo null sets, σ-principality, and ideal measures.

Two subsets are equivalent modulo τ when they differ only by τ-null
atoms; classes are canonically represented by stripping null atoms, and
the quotient is ordered by inclusion of representatives.  On a finite
powerset the quotient is the (complete) powerset lattice of the
non-null atoms, every σ-ideal is principal, and the countable chain
condition is trivially satisfied; the failure of these properties on
uncountable spaces is represented only by intensional certificates.

Also here: the disjoint variation (the least σ-additive measure
dominating τ, realized by the atomic partition) and the two measure
constructions attached to a σ-ideal, ν(B) = ⊕_{I∈𝕀} τ(B ∩ I) and the
Nguyen threshold measure ν(B) = inf{t > 0 : B ∈ 𝒥_t}.

Every construction here is a closed form.  Each has an exhaustive
cross-check of its own over all 2^n subsets, which only a caller runs:
verify_lattice_complete, verify_localization, verify_nguyen_measure and
same_null_sets.  They read τ's byte rank table (``bytetable``), where
rank 0 is the value 0: the 𝒥_t infimum for every subset at once is a
subset-min transform over the ideal's top, the localization's scan
reads the subsets of the top and of L, and the quotient and the null
sets share one compare of whole tables (_null_sets_are).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional

from .bytetable import NONZERO, max_rank_table, subset_min
from .errors import CrossCheckError
from .extreal import ZERO, ExtNonneg, as_extnn, ext_min
from .measure import MaxMeasure, SigmaIdeal, _AtomMap, measure_eval
from .spaces import PARTITION_ORACLE_CAP, SIGMA_IDEAL_ENUM_CAP
from .spaces import SubsetB, _same_space, check_fixed_cap, submasks

__all__ = [
    "QuotientClass",
    "QuotientLattice",
    "AdditiveMeasure",
    "CCCWitness",
    "CCCVerdict",
    "canonical_rep",
    "quotient_leq",
    "build_quotient",
    "verify_lattice_complete",
    "localize",
    "verify_localization",
    "ideal_restriction_measure",
    "nguyen_measure",
    "verify_nguyen_measure",
    "nguyen_bruteforce",
    "disjoint_variation",
    "same_null_sets",
    "disjoint_variation_bruteforce",
    "set_partitions",
    "check_ccc",
    "enumerate_quotient_sigma_ideals",
]


class QuotientClass(NamedTuple):
    """An equivalence class modulo τ-null sets, canonically represented."""

    measure: MaxMeasure
    representative: SubsetB

    def leq(self, other: "QuotientClass") -> bool:
        if self.measure != other.measure:
            raise ValueError("classes belong to different quotients")
        return self.representative.issubset(other.representative)

    def __repr__(self):
        return f"[{self.representative!r}]"


def canonical_rep(tau: MaxMeasure, B: SubsetB) -> QuotientClass:
    """The class of B: strip τ-null atoms (idempotent)."""
    _same_space(tau.space, B.space)
    return QuotientClass(tau, B & tau.support)


def quotient_leq(tau: MaxMeasure, A: SubsetB, B: SubsetB) -> bool:
    """The quotient order: A ≤ B modulo null sets (A ⊆ B ∪ N, τ(N) = 0)."""
    return canonical_rep(tau, A).leq(canonical_rep(tau, B))


class QuotientLattice:
    """The quotient of the powerset by τ-null sets.

    Isomorphic to the powerset of the non-null atoms; joins and meets
    are unions and intersections of representatives, so the lattice is
    complete and τ is localizable.
    """

    def __init__(self, tau: MaxMeasure):
        self.tau = tau
        self.non_null_atoms = tau.support

    @property
    def k(self) -> int:
        return len(self.non_null_atoms)

    @property
    def count(self) -> int:
        return 1 << self.k

    def contains(self, cls: QuotientClass) -> bool:
        return (cls.measure == self.tau
                and cls.representative.issubset(self.non_null_atoms))

    def classes(self) -> Iterator[QuotientClass]:
        return (QuotientClass(self.tau, B) for B in self.non_null_atoms.subsets())

    def join(self, a: QuotientClass, b: QuotientClass) -> QuotientClass:
        return QuotientClass(self.tau, a.representative | b.representative)

    def meet(self, a: QuotientClass, b: QuotientClass) -> QuotientClass:
        return QuotientClass(self.tau, a.representative & b.representative)

    def __repr__(self):
        return f"QuotientLattice(non_null={self.non_null_atoms!r}, classes={self.count})"


def build_quotient(tau: MaxMeasure) -> QuotientLattice:
    """The quotient lattice of the powerset modulo τ-null sets."""
    return QuotientLattice(tau)


def _null_sets_are(tau: MaxMeasure, flags: list) -> bool:
    """Whether τ(B) = 0 exactly when B holds no atom flagged 1, on all 2^n B.

    τ's rank 0 is the value 0, and the max over B of a 0/1 flag per atom
    (max_rank_table) is 0 exactly when B holds no flagged atom, so this
    is one compare of two byte tables, refused past the enumeration cap.
    """
    return tau.table().ranks.translate(NONZERO) == max_rank_table(flags)


def verify_lattice_complete(lattice: QuotientLattice) -> bool:
    """Verify that the quotient is the powerset lattice of the non-null atoms.

    The class of B is B ∩ support, so the classes modulo τ-null sets
    correspond to the subsets of the support exactly when τ(B) = 0 ⇔
    B ∩ support = ∅ for every B; that powerset lattice is complete.  The
    flags are the support's bits (_null_sets_are).
    """
    support = lattice.non_null_atoms.mask
    return _null_sets_are(lattice.tau, [support >> i & 1 for i in range(lattice.tau.space.n)])


def localize(tau: MaxMeasure, ideal: SigmaIdeal) -> SubsetB:
    """The canonical set localizing a σ-ideal: its top with null atoms stripped.

    L = top ∩ support; verify_localization checks both conditions of the
    definition: L absorbs the ideal modulo null sets, and is least so.
    """
    _same_space(tau.space, ideal.space)
    return ideal.top & tau.support


def verify_localization(tau: MaxMeasure, ideal: SigmaIdeal, L: SubsetB) -> None:
    """Assert that L localizes the ideal; a CrossCheckError names the first B that fails.

    L must absorb the ideal, τ(I ∖ L) = 0 for every member I, and be least
    so: τ(L ∖ B) = 0 for every B with τ(I ∖ B) = 0 for every I.  Members
    lie in the top, so together these say τ(top ∖ B) = 0 ⇔ τ(L ∖ B) = 0
    for every B (B = L gives absorption, and absorption gives ⇐).  Both
    sides depend on B only through B ∩ (top ∪ L), so the scan reads the
    subsets of top ∪ L, ascending: the first failing B is among them.
    """
    _same_space(tau.space, ideal.space)
    _same_space(tau.space, L.space)
    ranks = tau.table().ranks  # rank 0 is the value 0
    top, local = ideal.top.mask, L.mask
    for b in submasks(top | local):
        if (not ranks[top & ~b]) != (not ranks[local & ~b]):
            fault = "not minimal" if ranks[local & ~b] else "does not absorb the ideal"
            raise CrossCheckError(f"localization {fault} against {SubsetB(tau.space, b)!r}")


def ideal_restriction_measure(tau: MaxMeasure, ideal: SigmaIdeal) -> MaxMeasure:
    """The measure B ↦ ⊕_{I ∈ 𝕀} τ(B ∩ I), i.e. τ restricted to the ideal's top."""
    _same_space(tau.space, ideal.space)
    top = ideal.top.mask
    return MaxMeasure(tau.space,
                      [v if (top >> i & 1) else ZERO for i, v in enumerate(tau.masses)])


def nguyen_measure(tau: MaxMeasure, ideal: SigmaIdeal) -> MaxMeasure:
    """The threshold measure ν(B) = inf{t > 0 : B ∈ 𝒥_t}.

    𝒥_t collects the unions I ∪ B' with I in the ideal and τ(B') ≤ t; on
    a finite powerset the infimum collapses to the closed form
    ν(B) = τ(B ∖ top), which verify_nguyen_measure checks against the
    definition.
    """
    _same_space(tau.space, ideal.space)
    top = ideal.top.mask
    return MaxMeasure(tau.space,
                      [ZERO if (top >> i & 1) else v for i, v in enumerate(tau.masses)])


def verify_nguyen_measure(tau: MaxMeasure, ideal: SigmaIdeal, nu: MaxMeasure) -> None:
    """Assert that ν(B) = inf{t > 0 : B ∈ 𝒥_t} for every subset B.

    The least τ(B ∖ I) over every I ⊆ B ∩ top, for every B at once, is
    the subset-min transform of τ's rank table over the top's bits
    (subset_min).  ν's table is built straight in τ's universe: τ's
    ranks ascend with its values, so the max of ν's masses' ranks is the
    rank of their max, and a mass τ never takes ranks 255, above every
    rank of τ's.  The minima are compared with that table, and a
    CrossCheckError names the first B that differs.  nguyen_bruteforce
    is the per-subset form.
    """
    _same_space(tau.space, ideal.space)
    _same_space(tau.space, nu.space)
    tau_table = tau.table()
    position = {v: r for r, v in enumerate(tau_table.universe)}
    # a value τ never takes is no 𝒥_t minimum: 255 is no rank of τ's
    got = max_rank_table([position.get(v, 255) for v in nu.masses])
    least = subset_min(tau_table.ranks, ideal.top.mask)  # the 𝒥_t minimum, as ranks
    if got != least:
        b = next(b for b in range(len(got)) if got[b] != least[b])
        raise CrossCheckError("Nguyen closed form disagrees with 𝒥_t enumeration "
                              f"at {SubsetB(tau.space, b)!r}")


def nguyen_bruteforce(tau: MaxMeasure, ideal: SigmaIdeal, B: SubsetB) -> ExtNonneg:
    """Literal evaluation of inf{t > 0 : B ∈ 𝒥_t} by enumerating decompositions.

    B belongs to 𝒥_t exactly when B = I ∪ B' for some ideal member I and
    some B' with τ(B') ≤ t; minimizing τ(B') over all decompositions
    evaluates the infimum directly.  Only I ⊆ B ∩ top matter, and their
    enumeration refuses past the enumeration cap.
    """
    return ext_min(measure_eval(tau, B - I) for I in (B & ideal.top).subsets())


class AdditiveMeasure(_AtomMap):
    """A σ-additive measure on the powerset, stored as atom masses.

    Evaluation is the exact sum over atoms, with ∞ absorbing."""

    @property
    def masses(self) -> tuple:
        return self._values

    def __call__(self, B: SubsetB) -> ExtNonneg:
        _same_space(self.space, B.space)
        total = ZERO
        mask = B.mask
        while mask:
            low = mask & -mask
            total = total + self._values[low.bit_length() - 1]
            mask ^= low
        return total


def disjoint_variation(tau: MaxMeasure) -> AdditiveMeasure:
    """The least σ-additive measure dominating τ.

    Defined as m(B) = ⊕_π Σ_{B' ∈ π} τ(B ∩ B') over finite partitions π
    of the space; the supremum is attained at the atomic partition, so m
    carries τ's atom masses evaluated additively.  m ≥ τ setwise and m
    has exactly τ's null sets.
    """
    return AdditiveMeasure(tau.space, tau.masses)


def same_null_sets(tau: MaxMeasure, m: AdditiveMeasure) -> bool:
    """Whether τ and m vanish on the same subsets, compared on all 2^n.

    A sum of masses in [0, ∞] is 0 exactly when every mass in B is 0, so
    the flags are m's nonzero masses (_null_sets_are).
    """
    _same_space(tau.space, m.space)
    return _null_sets_are(tau, [0 if v.is_zero else 1 for v in m.masses])


def set_partitions(items: List) -> Iterator[List[List]]:
    """All set partitions of a finite list (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def disjoint_variation_bruteforce(tau: MaxMeasure, B: SubsetB) -> ExtNonneg:
    """Literal sup over all finite partitions of Σ_{B'∈π} τ(B ∩ B')."""
    _same_space(tau.space, B.space)
    check_fixed_cap(tau.space.n, PARTITION_ORACLE_CAP, "atoms")
    best = ZERO
    for part in set_partitions(list(tau.space.atoms)):
        total = ZERO
        for block in part:
            total = total + measure_eval(tau, B & tau.space.subset(block))
        if best < total:
            best = total
    return best


# ---------------------------------------------------------------------------
# Countable chain condition
# ---------------------------------------------------------------------------

class CCCWitness(NamedTuple):
    """Either the trivial finite-space certificate or an intensional family.

    An intensional family describes (without constructing) a family of
    pairwise disjoint non-negligible sets; an uncountable one certifies
    CCC failure, hence failure of σ-principality.
    """

    kind: str  # "finite-space-trivial" | "intensional-family"
    description: str = ""
    cardinality: str = "countable"  # "countable" | "uncountable"
    member_mass: ExtNonneg = ZERO

    @classmethod
    def finite_space_trivial(cls) -> "CCCWitness":
        return cls("finite-space-trivial",
                   "a finite powerset admits only finitely many disjoint sets")

    @classmethod
    def intensional_family(cls, description: str, cardinality: str,
                           member_mass) -> "CCCWitness":
        if cardinality not in ("countable", "uncountable"):
            raise ValueError("cardinality must be 'countable' or 'uncountable'")
        return cls("intensional-family", description, cardinality, as_extnn(member_mass))


class CCCVerdict(NamedTuple):
    satisfied: bool
    certificate: CCCWitness
    conditions: tuple  # pairs (name, verdict) for the four equivalent conditions

    def __str__(self):
        head = "CCC satisfied" if self.satisfied else "CCC fails"
        lines = [head + f" ({self.certificate.kind}: {self.certificate.description})"]
        lines += [f"  {name}: {v}" for name, v in self.conditions]
        return "\n".join(lines)


def check_ccc(tau: MaxMeasure, witness: Optional[CCCWitness] = None) -> CCCVerdict:
    """The countable chain condition, with its equivalent reformulations.

    Executable finite spaces satisfy CCC trivially, and with it
    σ-principality, principality of every quotient σ-ideal, and the
    existence of a dominating σ-additive measure with the same null sets
    (the disjoint variation).  An uncountable intensional family of
    non-negligible pairwise disjoint sets certifies failure instead; a
    witness whose members are negligible is rejected as inconsistent.
    """
    holds = True
    if witness is not None and witness.kind == "intensional-family":
        if witness.member_mass.is_zero:
            raise ValueError("inconsistent witness: members of mass 0 are negligible")
        holds = witness.cardinality != "uncountable"
        if holds:
            witness = None  # a countable family never violates CCC
    conditions = (
        ("sigma_principal", holds),
        ("countable_chain_condition", holds),
        ("quotient_sigma_ideals_principal", holds),
        ("dominating_sigma_additive_measure",
         holds and "disjoint variation, with exactly the τ-null sets"),
    )
    return CCCVerdict(holds, witness or CCCWitness.finite_space_trivial(), conditions)


def enumerate_quotient_sigma_ideals(lattice: QuotientLattice) -> list:
    """All σ-ideals of the quotient lattice, as frozensets of class masks.

    Enumerates every downward closed family (refused past
    SIGMA_IDEAL_ENUM_CAP non-null atoms) and keeps those closed under
    joins.  On a finite Boolean lattice each one is principal; callers
    assert that its top (the join of its members) is a member.
    """
    check_fixed_cap(lattice.k, SIGMA_IDEAL_ENUM_CAP, "non-null atoms")
    masks = sorted(submasks(lattice.non_null_atoms.mask),
                   key=lambda x: (bin(x).count("1"), x))
    pos = {m: i for i, m in enumerate(masks)}
    included = [False] * len(masks)
    downsets: list = []

    def rec(i: int) -> None:
        if i == len(masks):
            downsets.append(frozenset(mm for mm, inc in zip(masks, included) if inc))
            return
        mm = masks[i]
        included[i] = False
        rec(i + 1)
        covers_ok = True
        rest = mm
        while rest:
            low = rest & -rest
            if not included[pos[mm ^ low]]:
                covers_ok = False
                break
            rest ^= low
        if covers_ok:
            included[i] = True
            rec(i + 1)
            included[i] = False

    rec(0)
    ideals = []
    for family in downsets:
        if not family:
            continue
        if all((a | b) in family for a in family for b in family):
            ideals.append(family)
    return ideals
