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
subset-min transform over the ideal's top, the localization's
minimality scan reads the subsets of the top, and the quotient and the
null sets share one compare of whole tables (_null_sets_are).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional

from .bytetable import NONZERO, max_rank_table, subset_min
from .errors import CrossCheckError
from .extreal import ZERO, ExtNonneg, as_extnn
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

    Checks that every member leaves L only by a negligible remainder,
    τ(top ∖ L) = 0, and raises CrossCheckError if not.
    verify_localization checks that L is minimal.
    """
    _same_space(tau.space, ideal.space)
    L = ideal.top & tau.support
    if not measure_eval(tau, ideal.top - L).is_zero:
        raise CrossCheckError("localization failed: some member leaves L non-negligibly")
    return L


def verify_localization(tau: MaxMeasure, ideal: SigmaIdeal, L: SubsetB) -> None:
    """Assert that L is minimal among sets absorbing the ideal modulo null sets.

    For every B, τ(top ∖ B) = 0 must imply τ(L ∖ B) = 0; a
    CrossCheckError names the first B that fails.  Both sides depend on B
    only through B ∩ (top ∪ L), so the scan reads τ's table at the
    subsets of top ∪ L, ascending: the first B that fails among all 2^n
    is one of them.
    """
    _same_space(tau.space, ideal.space)
    _same_space(tau.space, L.space)
    ranks = tau.table().ranks  # rank 0 is the value 0
    top, local = ideal.top.mask, L.mask
    for b in submasks(top | local):
        if not ranks[top & ~b] and ranks[local & ~b]:
            raise CrossCheckError(f"localization not minimal against {SubsetB(tau.space, b)!r}")


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
    (subset_min); those minima are compared with ν's table, and a
    CrossCheckError names the first B that differs.  nguyen_bruteforce
    is the per-subset form.
    """
    _same_space(tau.space, ideal.space)
    _same_space(tau.space, nu.space)
    tau_table = tau.table()
    closed = nu.table()
    position = {v: r for r, v in enumerate(tau_table.universe)}
    # a value τ never takes is no 𝒥_t minimum: 255 is no rank of τ's
    into_tau = bytes(position.get(v, 255) for v in closed.universe).ljust(256, b"\0")
    got = closed.ranks.translate(into_tau)
    del closed  # at most three 2^n-byte tables live: τ's, got and least
    least = subset_min(tau_table.ranks, ideal.top.mask)  # the 𝒥_t minimum, as ranks
    if got != least:
        b = next(b for b in range(len(got)) if got[b] != least[b])
        raise CrossCheckError("Nguyen closed form disagrees with 𝒥_t enumeration "
                              f"at {SubsetB(tau.space, b)!r}")


def nguyen_bruteforce(tau: MaxMeasure, ideal: SigmaIdeal, B: SubsetB) -> ExtNonneg:
    """Literal evaluation of inf{t > 0 : B ∈ 𝒥_t} by enumerating decompositions.

    B belongs to 𝒥_t exactly when B = I ∪ B' for some ideal member I and
    some B' with τ(B') ≤ t; minimizing τ(B') over all decompositions
    evaluates the infimum directly.
    """
    _same_space(tau.space, B.space)
    inside = B.mask & ideal.top.mask
    best = None
    for i_mask in submasks(inside):
        v = measure_eval(tau, SubsetB(tau.space, B.mask & ~i_mask))
        if best is None or v < best:
            best = v
    return best


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
    if witness is not None and witness.kind == "intensional-family":
        if witness.member_mass.is_zero:
            raise ValueError("inconsistent witness: members of mass 0 are negligible")
        if witness.cardinality == "uncountable":
            conditions = (
                ("sigma_principal", False),
                ("countable_chain_condition", False),
                ("quotient_sigma_ideals_principal", False),
                ("dominating_sigma_additive_measure", False),
            )
            return CCCVerdict(False, witness, conditions)
    cert = witness if witness is not None else CCCWitness.finite_space_trivial()
    if cert.kind == "intensional-family":
        # A countable family never violates CCC; fall back to the trivial
        # finite-space certificate for the verdict itself.
        cert = CCCWitness.finite_space_trivial()
    conditions = (
        ("sigma_principal", True),
        ("countable_chain_condition", True),
        ("quotient_sigma_ideals_principal", True),
        ("dominating_sigma_additive_measure",
         "disjoint variation, with exactly the τ-null sets"),
    )
    return CCCVerdict(True, cert, conditions)


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
