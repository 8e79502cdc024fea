"""The idempotent ⊙-integral ∫_B f ⊙ dν = sup_{t ≥ 0} t ⊙ ν(B ∩ {f > t}).

Three independent evaluation routes are provided:

* ``integrate_threshold`` realizes the defining supremum exactly through
  the finite sweep ⊕_v v ⊙ ν(B ∩ {f ≥ v}) over the distinct finite
  positive values of f, plus ∞ ⊙ ν(B ∩ {f = ∞}) for the infinite level.
  The reduction from {f > t} to {f ≥ v} leans on left-continuity of
  s ↦ s ⊙ t, so it is cross-checked against the grid oracle rather than
  assumed.
* ``integrate_atomwise`` uses the finite-space closed form
  ⊕_{x ∈ B} f(x) ⊙ ν({x}); it must agree with the threshold sweep
  exactly in exact mode.
* ``integrate_oracle`` evaluates the defining supremum on an explicit
  grid of thresholds, calling ⊙ at every grid point; ν(B ∩ {f > t})
  is read once per level of f, since it changes only where t crosses a
  value of f.  It is a lower bound of the integral, converging as the
  grid refines around the values of f (except on discrete chains,
  where no refinement is possible and it stays a bound).

On a discrete chain the thresholds range over the carrier, and the
integral the library computes is sup_t t ⊙ ν(B ∩ {f ≥ t}) over the
carrier, the usual form on a finite ordinal scale (Sugeno's); the sweep
and the atomwise route give this value.  The {f > t} form equals it
when s ↦ s ⊙ t is left-continuous, a hypothesis of the continuous ⊙
that a chain lacks: with no threshold between two carrier elements,
t ⊙ ν(B ∩ {f > t}) cannot approach the term at a value of f from
below.  There ``integrate_oracle`` is only a lower bound: on the
clamped chain {0, 1, 2, ∞}, with f = 2 and ν = 1 on one atom, it gives
1 where the sweep gives 2.

Each route lists its pairs (s_i, t_i) and takes ⊕_i s_i ⊙ t_i in one
call, ``pm.sup_products``, the max of ``pm.products``.  ``products`` is
each operation's one batch closed form: integer pairs for times, min
and chains (unless a subclass redefines ⊙), one call of the float map
per pair for a ``CustomContinuous``, and one ⊙ call per pair for any
other operation.  So the oracle still evaluates ⊙ at every grid point
and stays independent of the sweep.

Whole-powerset work (``pushforward`` and ``verify_density``) runs the
threshold sweep for all 2^n subsets at once through ``threshold_sweep``,
which returns one byte table of 2^n ranks, built and combined by the
primitives of ``bytetable``: a level's terms and the levels above it
meet in one lane-wise max per level of f, and the atoms where f = 0
repeat the table, with no per-subset Python loop.  The
per-subset routes above stay independent and serve as its cross-checks.
"""

from __future__ import annotations

import itertools
from array import array
from operator import lt
from typing import Optional, Sequence

from .bytetable import lane_max, max_rank_table
from .errors import CrossCheckError
from .extreal import INF, ZERO, ExtNonneg, as_extnn
from .measure import MaxMeasure, MeasurableFn, SetFunctionTable, measure_eval
from .pseudomul import PseudoMul
from .spaces import SubsetB, _same_space

__all__ = [
    "integrate_threshold",
    "integrate_atomwise",
    "integrate_oracle",
    "canonical_grid",
    "pushforward",
    "pushforward_measure",
    "threshold_sweep",
]


def _check_spaces(f: MeasurableFn, nu: MaxMeasure, B: SubsetB) -> None:
    _same_space(f.space, nu.space)
    _same_space(f.space, B.space)


def integrate_threshold(pm: PseudoMul, f: MeasurableFn, nu: MaxMeasure, B: SubsetB) -> ExtNonneg:
    """∫_B f ⊙ dν via the finite threshold sweep."""
    _check_spaces(f, nu, B)
    levels = f.finite_positive_values(B)
    masses = [measure_eval(nu, B & f.at_least(v)) for v in levels]
    inf_level = B & f.level(INF)
    if not inf_level.is_empty:
        levels.append(INF)
        masses.append(measure_eval(nu, inf_level))
    return pm.sup_products(levels, masses)


def integrate_atomwise(pm: PseudoMul, f: MeasurableFn, nu: MaxMeasure, B: SubsetB) -> ExtNonneg:
    """∫_B f ⊙ dν via ⊕_{x ∈ B} f(x) ⊙ ν({x})."""
    _check_spaces(f, nu, B)
    inside = [B.mask >> i & 1 for i in range(f.space.n)]
    return pm.sup_products(itertools.compress(f.values, inside),
                           itertools.compress(nu.masses, inside))


def integrate_oracle(pm: PseudoMul, f: MeasurableFn, nu: MaxMeasure, B: SubsetB,
                     grid: Sequence[ExtNonneg]) -> ExtNonneg:
    """max over grid thresholds t of t ⊙ ν(B ∩ {f > t}).

    Every term is one term of the defining supremum, so the result never
    exceeds the integral.  ν(B ∩ {f > t}) changes only where t crosses a
    value of f, so it is read once per level of f's level table, as a
    running max from the top level down; the ascending grid is then
    walked against f's ascending values, one ⊙ term per grid point.
    """
    _check_spaces(f, nu, B)
    grid = list(map(as_extnn, grid))
    if not grid:
        raise ValueError("oracle grid must be nonempty")
    if any(map(lt, grid[1:], grid)):
        raise ValueError("oracle grid must be sorted ascending")
    values, masks = f.level_table
    masses = nu.masses
    above = [ZERO] * (len(values) + 1)  # above[j] = ν(B ∩ {f ≥ values[j]})
    best = ZERO
    for j in range(len(values) - 1, -1, -1):
        level = (masks[j] ^ masks[j + 1]) & B.mask
        while level:
            low = level & -level
            v = masses[low.bit_length() - 1]
            if best < v:
                best = v
            level ^= low
        above[j] = best
    beyond = []  # beyond[i] = ν(B ∩ {f > grid[i]})
    j, top = 0, len(values)
    for t in grid:
        while j < top and values[j] <= t:  # then {f > t} = {f ≥ values[j]}
            j += 1
        beyond.append(above[j])
    return pm.sup_products(grid, beyond)


def canonical_grid(pm: PseudoMul, f: MeasurableFn, B: Optional[SubsetB] = None) -> list:
    """The canonical threshold grid for cross-checking the sweep.

    For continuous operations: every distinct finite positive value v of
    f, the left approach points v·(1 − 2^{-k}), midpoints of consecutive
    values, and a large probe 2^40 when f attains ∞.  The approach depth
    is 20 in exact mode and 40 in approximate mode (deep enough for a
    1e-9 relative tolerance).  For discrete chains the grid is the
    carrier itself, the only representable thresholds (``threshold_grid``).
    """
    return pm.threshold_grid(f, B)


def threshold_sweep(pm: PseudoMul, f: MeasurableFn, nu: MaxMeasure,
                    extra: Sequence[ExtNonneg] = ()) -> tuple:
    """The threshold sweep for every subset at once, as byte ranks.

    The rule is integrate_threshold's: ∫_B f ⊙ dν is the max of the
    terms v ⊙ ν(B ∩ L_v) over the levels v that f takes on B, where L_v
    is {f ≥ v} for a finite positive v and {f = ∞} for v = ∞.  Each
    term v ⊙ m is computed once, for just the masses m that ν(B ∩ L_v)
    takes on some such B, so a ⊙ that raises does so before any subset
    is looked at.

    The atoms are taken in ``order``: by descending f, the atoms where
    f = 0 last, so every L_v is a prefix.  If the last atom of a mask B
    lies in level v, then B ⊆ L_v and the levels above v meet B only in
    B_h = B ∖ {f ≤ v}, hence ∫_B = max(∫_{B_h}, v ⊙ ν(B)), and every
    result equals integrate_threshold's for any ⊙.  The masks whose last
    atom lies in the level's atoms start..stop-1 are the run from 2^start
    to 2^stop: one slice of ν's table translated to term ranks, and one
    lane_max with the table so far repeated 2^(stop-start) - 1 times, the
    integrals over their B_h (the first level takes the slice alone).
    A mask whose last atom is one where f = 0 has the integral of the
    mask without it, so those atoms repeat the table so far.  ν's table
    is built in that order straight from the list of its atoms' ranks
    among 0 and its masses (max_rank_table); no re-ordered measure is made.

    Returns ``(index, order, table)``.  ``index`` maps 0, the term values
    and ``extra`` to their ranks in ascending order, so ``tuple(index)``
    is the universe; at most n(n + 1)/2 + len(extra) + 1 values, so a
    byte holds a rank up to the cap.  ``table`` is one ``bytes`` of 2^n ranks, table[m] being
    the rank of the integral over the subset whose mask in ``order``
    is m.  Refuses past the enumeration cap before any ⊙ call: ν's table
    (max_rank_table, which refuses) is built before the levels.
    """
    _same_space(f.space, nu.space)
    n = f.space.n
    order = f.descending_order
    masses = tuple(sorted({ZERO, *nu.masses}))
    rank = {v: r for r, v in enumerate(masses)}
    atom_ranks = [rank[nu.masses[i]] for i in order]  # atom_ranks[p]: ν at the sweep's atom p
    nu_ranks = max_rank_table(atom_ranks)
    levels = []  # (start, stop, terms): f = v on the atoms start..stop-1
    support = 0  # f > 0 on the atoms before it
    for v, group in itertools.groupby(f.values[i] for i in order):
        if v.is_zero:
            break
        start, stop = support, support + len(list(group))
        lowest = min(atom_ranks[start:stop])
        reached = {r for r in atom_ranks[:stop] if r >= lowest}
        levels.append((start, stop, {r: pm.omul(v, masses[r]) for r in reached}))
        support = stop
    universe = sorted({ZERO, *extra}.union(*(t.values() for _, _, t in levels)))
    index = {v: r for r, v in enumerate(universe)}

    table = b"\0"  # table[m]: the rank of ∫ over the subset of mask m in order
    for start, stop, terms in levels:
        row = bytearray(256)  # ν's rank ↦ the rank of this level's term
        for r, term in terms.items():
            row[r] = index[term]
        # the masks whose last atom lies in this level: 2^start up to 2^stop
        ys = nu_ranks[1 << start:1 << stop].translate(row)
        # the integrals over their B_h: the table so far, once per 2^start masks
        table += lane_max(ys, table * ((1 << (stop - start)) - 1)) if start else ys
    # an atom where f = 0 adds no term: each such atom repeats the table so far
    return index, order, table * (1 << (n - support))


def pushforward(pm: PseudoMul, f: MeasurableFn, nu: MaxMeasure) -> SetFunctionTable:
    """The set function B ↦ ∫_B f ⊙ dν over the whole powerset.

    Computed by the whole-powerset sweep (threshold_sweep).
    σ-maxitivity of the integral makes this a maxitive measure; callers
    verify with check_maxitive.
    """
    index, order, swept = threshold_sweep(pm, f, nu)
    # moved[B]: the mask of B in the sweep's order, in 4 bytes (every mask
    # is below 2^20)
    moved = array("I", [0])
    for p in sorted(range(f.space.n), key=order.__getitem__):
        bit = 1 << p
        moved += array("I", (m | bit for m in moved))
    return SetFunctionTable.from_ranks(f.space, tuple(index), bytes(map(swept.__getitem__, moved)))


def pushforward_measure(pm: PseudoMul, f: MeasurableFn, nu: MaxMeasure) -> MaxMeasure:
    """The pushforward as a MaxMeasure, via its atom masses f(x) ⊙ ν({x})."""
    _same_space(f.space, nu.space)
    return MaxMeasure(f.space, [pm(a, b) for a, b in zip(f.values, nu.masses)])


ORACLE_REL_TOL = 1e-9  # the relative gap an inexact ⊙'s oracle may leave below its sweep


def assert_oracle_consistent(pm: PseudoMul, f: MeasurableFn, nu: MaxMeasure, B: SubsetB) -> None:
    """Cross-check the threshold sweep against the canonical-grid oracle.

    The oracle must never exceed the sweep; for continuous operations in
    approximate mode it must also match within ``ORACLE_REL_TOL``.  A custom ⊙
    violating either bound is surfaced as a CrossCheckError, not reconciled.
    """
    sweep = integrate_threshold(pm, f, nu, B)
    oracle = integrate_oracle(pm, f, nu, B, canonical_grid(pm, f, B))
    if oracle > sweep:
        raise CrossCheckError(f"grid oracle {oracle} exceeds threshold sweep {sweep}")
    if not pm.exact and sweep.is_finite and oracle.is_finite:
        gap = float(sweep) - float(oracle)
        if gap > ORACLE_REL_TOL * max(1.0, float(sweep)):
            raise CrossCheckError(
                f"grid oracle {float(oracle)} differs from sweep {float(sweep)} "
                f"beyond tolerance {ORACLE_REL_TOL}")
