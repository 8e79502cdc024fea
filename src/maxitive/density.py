"""⊙-absolute continuity, Radon-Nikodym densities, and the RN-property diagnosis.

A density of ν with respect to τ is a map c with ν(B) = ∫_B c ⊙ dτ for
every B.  On a finite powerset the identity reduces atom by atom to
c(x) ⊙ τ({x}) = ν({x}), so the solver works pointwise, returning the
minimal solution where one exists and a per-atom failure certificate
otherwise.  The diagnosis assembles the finiteness conditions that
characterize when every ⊙-dominated measure admits a density: for a
continuous ⊙ on a finite space that happens exactly when τ is
σ-⊙-finite (σ-principality being automatic).  A chain's image
{c ⊙ τ({x})} can skip a dominated value even where τ is σ-⊙-finite, so
the diagnosis decides the property atom by atom, and names each atom
and the value its image skips.

All operations here refuse degenerate ⊙ (only 0 is ⊙-finite), which the
density theory excludes.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from operator import gt
from typing import NamedTuple, Optional

from .bytetable import max_rank_table
from .errors import (
    CrossCheckError,
    DegenerateOperationError,
    PreconditionError,
    UnresolvedInfimumError,
)
from .extreal import INF, ZERO, ExtNonneg, as_extnn
from .integral import pushforward_measure, threshold_sweep
from .measure import (
    MaxMeasure,
    MeasurableFn,
    SpotReport,
    find_odot_spots,
    is_semi_odot_finite,
)
from .pseudomul import OPERATION_FAULTS, AchievableSet, FrontierShape, PseudoMul
from .spaces import _same_space

__all__ = [
    "AchievableSet",
    "FailureReason",
    "AtomFailure",
    "DensityResult",
    "TotalVsPhi",
    "RNDiagnosis",
    "achievable_set",
    "is_abs_continuous",
    "is_abs_continuous_exhaustive",
    "solve_atom_density",
    "solve_density",
    "verify_density",
    "finitize_density",
    "diagnose_rn",
    "rn_failure_witness",
]


def _require_non_degenerate(pm: PseudoMul, op: str) -> None:
    if pm.degenerate:
        raise DegenerateOperationError(
            f"{op} requires a non-degenerate ⊙ (some positive element must be ⊙-finite)")


def achievable_set(pm: PseudoMul, t: ExtNonneg) -> AchievableSet:
    """Describe { c ⊙ t : c ∈ [0, ∞] }; exact for the built-ins."""
    return pm.achievable_set(as_extnn(t))


def _bound(pm: PseudoMul, t: ExtNonneg) -> ExtNonneg:
    """∞ ⊙ t, the most any c ⊙ t reaches; a chain whose carrier lacks ∞
    takes the top of its achievable set, t's column maximum."""
    return pm(INF, t) if pm.representable(INF) else pm.achievable_set(t).upper


def is_abs_continuous(pm: PseudoMul, nu: MaxMeasure, tau: MaxMeasure) -> bool:
    """Whether ν(B) ≤ ∞ ⊙ τ(B) for every B with τ(B) ⊙-finite.

    Sets with ⊙-infinite τ-measure are deliberately unconstrained.  The
    check runs atom by atom, sound on a powerset since F_⊙ is downward
    closed; is_abs_continuous_exhaustive is the same verdict over all
    subsets.
    """
    _require_non_degenerate(pm, "is_abs_continuous")
    _same_space(nu.space, tau.space)
    return all(
        not pm.is_odot_finite(tv) or nv <= _bound(pm, tv)
        for nv, tv in zip(nu.masses, tau.masses))


def is_abs_continuous_exhaustive(pm: PseudoMul, nu: MaxMeasure, tau: MaxMeasure) -> bool:
    """is_abs_continuous's verdict from every subset, on the rank tables of ν and τ.

    A cross-check of the atom-wise verdict: past the enumeration cap it
    refuses, in ν's table, before any ⊙ call.
    """
    _require_non_degenerate(pm, "is_abs_continuous_exhaustive")
    _same_space(nu.space, tau.space)
    nu_table = nu.table()
    tau_table = tau.table()
    # per τ value: the highest rank of ν allowed where τ takes it
    # (255, no bound, where the value is ⊙-infinite)
    allowed = bytes(
        bisect_right(nu_table.universe, _bound(pm, tv)) - 1
        if pm.is_odot_finite(tv) else 255 for tv in tau_table.universe)
    bounds = tau_table.ranks.translate(allowed.ljust(256, b"\0"))
    return not any(map(gt, nu_table.ranks, bounds))


# ---------------------------------------------------------------------------
# The density solver
# ---------------------------------------------------------------------------

class FailureReason(enum.Enum):
    TARGET_OUTSIDE_ACHIEVABLE = "target outside achievable set"
    NULL_TAU_POSITIVE_NU = "τ-null atom with positive ν"
    UNRESOLVED_NUMERIC = "numeric solve did not resolve"


class AtomFailure(NamedTuple):
    atom: str
    target: ExtNonneg
    tau_mass: ExtNonneg
    reason: FailureReason
    achievable: Optional[AchievableSet] = None
    bracket: Optional[tuple] = None

    def __str__(self):
        extra = f"; achievable {self.achievable}" if self.achievable is not None else ""
        if self.bracket is not None:
            extra += f"; bracket ({self.bracket[0]}, {self.bracket[1]})"
        return (f"atom {self.atom}: no c with c ⊙ {self.tau_mass} = {self.target} "
                f"({self.reason.value}{extra})")


class DensityResult(NamedTuple):
    density: Optional[MeasurableFn]
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return self.density is not None

    def __str__(self):
        if self.ok:
            return f"density found: {self.density!r}"
        return "no density:\n" + "\n".join("  " + str(f) for f in self.failures)


def solve_atom_density(pm: PseudoMul, nu_x: ExtNonneg, tau_x: ExtNonneg) -> Optional[ExtNonneg]:
    """The least c with c ⊙ tau_x = nu_x, or None when no solution exists.

    ν = 0 gives 0; otherwise the operation's ``least_solution`` answers:
    closed forms for the built-ins, an exhaustive ascending scan for
    chains, bisection inside the achievable bracket otherwise.  One case
    has no least solution: under the standard product with
    nu_x = tau_x = ∞ every positive c works, and the canonical choice
    1_⊙ is returned.
    """
    _require_non_degenerate(pm, "solve_atom_density")
    nu_x = as_extnn(nu_x)
    tau_x = as_extnn(tau_x)
    if nu_x.is_zero:
        return ZERO
    return pm.least_solution(nu_x, tau_x)


def solve_density(pm: PseudoMul, nu: MaxMeasure, tau: MaxMeasure) -> DensityResult:
    """Solve ν(B) = ∫_B c ⊙ dτ for all B, atom by atom.

    Success returns the pointwise-minimal density.  Failure lists every
    offending atom with the target value and the achievable set of its
    τ-mass.  When ν is ⊙-absolutely continuous with respect to a
    σ-⊙-finite τ (and ⊙ is continuous), the solve always succeeds: a
    finite space is σ-principal, so those hypotheses are the whole story.
    """
    _require_non_degenerate(pm, "solve_density")
    _same_space(nu.space, tau.space)
    values = []
    failures = []
    for atom, nv, tv in zip(nu.space.atoms, nu.masses, tau.masses):
        try:
            c = _solve_or_fail(pm, atom, nv, tv)
        except OPERATION_FAULTS as exc:  # ⊙ failed: name the atom it was solving
            raise ValueError(
                f"solve_density: atom {atom} (ν = {nv}, τ = {tv}): {exc}") from exc
        if isinstance(c, AtomFailure):
            failures.append(c)
        else:
            values.append(c)
    if failures:
        return DensityResult(None, tuple(failures))
    return DensityResult(MeasurableFn(nu.space, values))


def _solve_or_fail(pm: PseudoMul, atom: str, nv: ExtNonneg, tv: ExtNonneg):
    """The least c with c ⊙ tv = nv, or the AtomFailure saying why there is none."""
    if tv.is_zero and not nv.is_zero:
        return AtomFailure(atom, nv, tv, FailureReason.NULL_TAU_POSITIVE_NU,
                           achievable_set(pm, tv))
    try:
        c = solve_atom_density(pm, nv, tv)
    except UnresolvedInfimumError as exc:
        return AtomFailure(atom, nv, tv, FailureReason.UNRESOLVED_NUMERIC, bracket=exc.bracket)
    if c is None:
        return AtomFailure(atom, nv, tv, FailureReason.TARGET_OUTSIDE_ACHIEVABLE,
                           achievable_set(pm, tv))
    return c


def verify_density(pm: PseudoMul, c: MeasurableFn, nu: MaxMeasure, tau: MaxMeasure) -> bool:
    """Exhaustively check ν(B) = ∫_B c ⊙ dτ over every subset.

    The integrals come from the whole-powerset threshold sweep
    (threshold_sweep), whose rank dict holds ν's masses too; ν's table is
    built from the list of its atoms' ranks in that dict, taken in the
    sweep's atom order (max_rank_table).  The two tables are compared
    in one compare: in one universe equal values have equal ranks, so
    under an exact ⊙ that is the verdict, and an inexact ⊙ still accepts
    where values_equal holds at every position whose ranks differ.
    Refuses past the enumeration cap before any ⊙ call.
    """
    _require_non_degenerate(pm, "verify_density")
    _same_space(c.space, nu.space)
    _same_space(c.space, tau.space)
    index, order, swept = threshold_sweep(pm, c, tau, extra=nu.masses)
    expected = max_rank_table([index[nu.masses[i]] for i in order])
    if swept == expected:
        return True
    if pm.exact:  # equal values have equal ranks, so only an inexact ⊙ can still accept
        return False
    universe = tuple(index)
    return all(pm.values_equal(universe[a], universe[b])
               for a, b in zip(swept, expected) if a != b)


def finitize_density(pm: PseudoMul, c: MeasurableFn, nu: MaxMeasure,
                     tau: MaxMeasure) -> MeasurableFn:
    """Replace a density by the ⊙-finite-valued one c ⊙ 1_F.

    F is the set where c is ⊙-finite.  Requires c to be a density and ν
    to be semi-⊙-finite; under those hypotheses the truncation is again a
    density (asserted before returning).  c ⊙ τ = ν is checked atom by
    atom, which on a powerset is verify_density's check on all subsets:
    singletons are subsets, and a monotone ⊙ commutes with a finite max.
    """
    _require_non_degenerate(pm, "finitize_density")
    _same_space(c.space, nu.space)
    def is_density(d: MeasurableFn) -> bool:
        return all(map(pm.values_equal, pushforward_measure(pm, d, tau).masses, nu.masses))
    if not is_density(c):
        raise PreconditionError("finitize_density: c is not a density of ν w.r.t. τ")
    if not is_semi_odot_finite(pm, nu):
        raise PreconditionError("finitize_density: ν is not semi-⊙-finite")
    c1 = MeasurableFn(c.space, [v if pm.is_odot_finite(v) else ZERO for v in c.values])
    if not is_density(c1):
        raise CrossCheckError("finitized density failed to verify; this cannot happen "
                              "for a semi-⊙-finite ν")
    return c1


# ---------------------------------------------------------------------------
# Diagnosis of the Radon-Nikodym property
# ---------------------------------------------------------------------------

class TotalVsPhi(NamedTuple):
    """Verdict of the necessary condition τ(E) ≤ φ."""

    total: ExtNonneg
    phi: ExtNonneg
    satisfied: bool
    total_odot_finite: bool
    at_boundary: bool

    def __str__(self):
        rel = "=" if self.at_boundary else ("≤" if self.satisfied else ">")
        fin = "⊙-finite" if self.total_odot_finite else "⊙-infinite"
        return f"τ(E) = {self.total} {rel} φ = {self.phi} (total is {fin})"


class RNDiagnosis(NamedTuple):
    """Whether every measure ⊙-dominated by τ has a density w.r.t. τ."""

    sigma_odot_finite: bool
    sigma_principal: bool
    spots: SpotReport
    semi_finite: bool
    total_vs_phi: TotalVsPhi
    rn_property: bool
    failed_conditions: tuple = ()
    note: str = ""

    def __str__(self):
        lines = [
            f"σ-⊙-finite:      {self.sigma_odot_finite}",
            f"σ-principal:     {self.sigma_principal}" + (f"  ({self.note})" if self.note else ""),
            f"⊙-spots:         {self.spots}",
            f"semi-⊙-finite:   {self.semi_finite}",
            f"frontier check:  {self.total_vs_phi}",
            f"RN property:     {self.rn_property}",
        ]
        if self.failed_conditions:
            lines.append("failed necessary conditions: " + "; ".join(self.failed_conditions))
        return "\n".join(lines)


def diagnose_rn(pm: PseudoMul, tau: MaxMeasure) -> RNDiagnosis:
    """Assemble the Radon-Nikodym-property verdict for τ.

    Every ν ≪_⊙ τ has a density exactly when, at every atom x, each
    value ν({x}) may take is some c ⊙ τ({x}).  At an atom of ⊙-infinite
    mass ν({x}) is unconstrained, and 1_⊙ is no c ⊙ τ({x}); at a
    ⊙-finite one it is any value ≤ ∞ ⊙ τ({x}), which ``image_gap``
    decides.  So the verdict is: no ⊙-spot and no gap.  On a finite
    space σ-principality is automatic, and σ-⊙-finiteness, the absence
    of ⊙-spots and semi-⊙-finiteness each say that every atom mass is
    ⊙-finite, so one scan of τ's atoms (find_odot_spots) decides all
    three; ``image_gap`` is asked only at the atoms outside the spot.
    The report carries each necessary condition (no ⊙-spots,
    semi-⊙-finiteness, τ(E) ≤ φ) and a line per gap naming the atom and
    the value no c ⊙ τ({x}) reaches.
    """
    _require_non_degenerate(pm, "diagnose_rn")
    spots = find_odot_spots(pm, tau)
    finite = not spots.has_spots
    spot_mask = spots.maximal_spot.mask if spots.has_spots else 0
    gaps = [(atom, t, gap)
            for i, (atom, t) in enumerate(zip(tau.space.atoms, tau.masses))
            if not spot_mask >> i & 1 and (gap := pm.image_gap(t)) is not None]
    profile = pm.finiteness_profile()
    total = tau.total
    half_open = profile.shape is FrontierShape.HALF_OPEN  # only [0, φ) has a boundary φ
    satisfied = not half_open or total <= profile.phi
    tv = TotalVsPhi(total, profile.phi, satisfied,
                    pm.is_odot_finite(total),
                    at_boundary=half_open and total == profile.phi)
    failed = []
    if not finite:
        failed.append(f"has a ⊙-spot ({spots.maximal_spot!r})")
    if not satisfied:
        failed.append("total mass exceeds the frontier φ")
    if not finite:
        failed += ["not semi-⊙-finite", "not σ-⊙-finite"]
    failed += [f"atom {atom}: no c ⊙ {t} equals {gap} (< ∞ ⊙ {t}); "
               f"a ⊙-dominated ν({atom}) = {gap} has no density" for atom, t, gap in gaps]
    return RNDiagnosis(
        sigma_odot_finite=finite,
        sigma_principal=True,
        spots=spots,
        semi_finite=finite,
        total_vs_phi=tv,
        rn_property=finite and not gaps,
        failed_conditions=tuple(failed),
        note="every σ-ideal of a finite powerset is principal",
    )


def rn_failure_witness(pm: PseudoMul, tau: MaxMeasure) -> MaxMeasure:
    """A ⊙-dominated measure with no density, for τ not σ-⊙-finite.

    Values 0 on the ideal generated by the sets of ⊙-finite measure and
    1_⊙ elsewhere: as atom masses, 1_⊙ on every atom of ⊙-infinite mass.
    It is ⊙-absolutely continuous with respect to τ (the constraint only
    sees ⊙-finite sets), yet c ⊙ τ({x}) = 1_⊙ is unsolvable on a
    ⊙-infinite atom, because c ⊙ τ({x}) ≤ 1_⊙ forces τ({x}) ⊙-finite.
    """
    _require_non_degenerate(pm, "rn_failure_witness")
    return MaxMeasure(
        tau.space,
        [ZERO if pm.is_odot_finite(v) else pm.identity for v in tau.masses])
