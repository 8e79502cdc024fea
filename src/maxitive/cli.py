"""File-driven command line front end.

Commands: validate-op, integrate, density, diagnose, quotient,
ideal-measures, variation, gallery.  Data commands read a JSON spec
document (--space-file) naming the space, measures, functions, and
ideals; --op picks the pseudo-multiplication ("times", "min", or
"chain" to use the document's chain), defaulting to the document's
choice and then to "times".  integrate, density and diagnose compute
under the document's chain only once validate_pseudo_mul passes it and
it represents every value they read: a failed check is an issue at
pseudo_mul.chain.table, a value off the carrier one at its place (exit
2, nothing on stdout).  validate-op still reports every check.  main is
the one way from argv to a handler: each command takes only the options
its handler reads, and every option must be spelled in full.  The one
exception is diagnose's --max-n, which no handler reads: perfbench's
cli-docs workload passes it, and a diagnose cross-check would read it.

Every answer is a closed form.  The handlers here are the one place
that decides whether an exhaustive cross-check over all 2^n subsets
runs: each one runs when within_cap(n, --max-n) holds, and its report
field is omitted or null otherwise.  density runs verify_density;
quotient, verify_lattice_complete; ideal-measures,
verify_nguyen_measure, verify_localization and check_maxitive on both
measures; variation, same_null_sets.  diagnose gates none.

Four fixed caps refuse here, each with exit 3 and no flag to raise it: a
chain carrier past CHAIN_CARRIER_CAP, gallery --trials past
GALLERY_TRIALS_CAP, quotient past QUOTIENT_NON_NULL_CAP non-null atoms,
and variation on a finite total whose numerator or denominator has more
than VARIATION_TOTAL_DIGITS_CAP digits, the most Python prints.

Exit codes: 0 computed (a negative mathematical verdict such as "no
density" is still a computation), 2 invalid input, 3 size cap exceeded,
4 negative verdict when --fatal-verdicts is set, 1 unexpected internal
failure: a CrossCheckError from a cross-check, one "error:" line on
stderr, or a failing gallery self-assertion, whose report is still
printed on stdout.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from decimal import Decimal
from typing import Optional

from .density import diagnose_rn, finitize_density, solve_density, verify_density
from .errors import (
    CarrierDomainError,
    DegenerateOperationError,
    MaxitiveError,
    PreconditionError,
    SizeCapError,
    SpaceMismatchError,
    SpecIssue,
    SpecValidationError,
)
from .gallery import GALLERY, run_gallery
from .integral import canonical_grid, integrate_atomwise, integrate_oracle, integrate_threshold
from .measure import SigmaIdeal, check_maxitive
from .pseudomul import NAMED_OPERATIONS, PseudoMul, validate_pseudo_mul
from .quotient import (
    build_quotient,
    ideal_restriction_measure,
    disjoint_variation,
    localize,
    nguyen_measure,
    same_null_sets,
    verify_lattice_complete,
    verify_localization,
    verify_nguyen_measure,
)
from .report import Report, jsonable
from .spaces import (DEFAULT_MAX_N, QUOTIENT_NON_NULL_CAP, VARIATION_TOTAL_DIGITS_CAP, SubsetB,
                     check_fixed_cap, within_cap)
from .specdoc import SpecDoc, load_spec

__all__ = ["main"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_SIZE_CAP = 3
EXIT_NEGATIVE = 4


def _maybe_doc(args) -> Optional[SpecDoc]:
    """The --space-file document, if one is given."""
    return load_spec(args.space_file) if args.space_file else None


def _load_doc(args) -> SpecDoc:
    doc = _maybe_doc(args)
    if doc is None:
        raise ValueError("this command needs --space-file")
    return doc


def _resolve_pm(args, doc: Optional[SpecDoc]) -> PseudoMul:
    own = doc.pseudo_mul if doc is not None else None
    if args.op in NAMED_OPERATIONS:
        return NAMED_OPERATIONS[args.op]()
    if args.op == "chain" and (own is None or own.kind != "chain"):
        raise ValueError("--op chain needs a chain pseudo_mul in the spec document")
    return own if own is not None else NAMED_OPERATIONS["times"]()


def _lawful_pm(args, doc: SpecDoc) -> PseudoMul:
    """The ⊙ a data command computes under.  Every answer assumes a
    pseudo-multiplication, so the document's chain is refused, one issue
    a failed check and its witness, unless ``validate_pseudo_mul`` passes
    it; times and min are never re-validated."""
    pm = _resolve_pm(args, doc)
    failed = validate_pseudo_mul(pm).failed() if pm.kind == "chain" else []
    if failed:  # every check a chain fails names the samples it fails at
        raise SpecValidationError(
            SpecIssue("pseudo_mul.chain.table",
                      f"{c.name} fails at ({', '.join(map(str, c.witness))})")
            for c in failed)
    return pm


def _named(kind: str, table: dict, name: Optional[str]):
    if name is None:
        if len(table) == 1:
            return next(iter(table.values()))
        raise ValueError(f"--{kind} is required (document has {len(table)} {kind}s)")
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}; document has: {', '.join(sorted(table)) or 'none'}")
    return table[name]


def _carried(pm: PseudoMul, doc: SpecDoc, *wanted) -> list:
    """Each ``(kind, name)`` of ``wanted`` as ``_named`` finds it, once pm
    represents their values: each one off its carrier is a located issue."""
    operands, issues = [], []
    for kind, name in wanted:
        table = getattr(doc, f"{kind}s")
        operands.append(_named(kind, table, name))
        issues += (SpecIssue(f"{kind}s.{name or next(iter(table))}.{atom}",
                             f"value {v} is not a carrier element")
                   for atom, v in operands[-1].as_dict().items() if not pm.representable(v))
    if issues:  # --nu and --tau may name one measure: its issues once
        raise SpecValidationError(dict.fromkeys(issues))
    return operands


def _parse_subset(doc: SpecDoc, text: Optional[str]) -> SubsetB:
    if text is None:
        return doc.space.full
    return doc.space.subset(a for a in text.split(",") if a)


def _resolve_ideal(doc: SpecDoc, text: str) -> SigmaIdeal:
    if text in doc.ideals:
        return doc.ideals[text]
    return SigmaIdeal(doc.space, _parse_subset(doc, text))


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_validate_op(args) -> Report:
    pm = _resolve_pm(args, _maybe_doc(args))
    report = validate_pseudo_mul(pm, args.seed)
    body = {
        "operation": pm.describe(),
        "identity": jsonable(pm.identity),
        "degenerate": report.degenerate,
        "profile": jsonable(pm.finiteness_profile()),
        "checks": [jsonable(c) for c in report.checks],
        "passed": report.passed,
    }
    return Report("validate-op", body, negative_verdict=not report.passed)


def _cmd_integrate(args) -> Report:
    doc = _load_doc(args)
    pm = _lawful_pm(args, doc)
    nu, f = _carried(pm, doc, ("measure", args.measure), ("function", args.function))
    B = _parse_subset(doc, args.subset)
    sweep = integrate_threshold(pm, f, nu, B)
    atomwise = integrate_atomwise(pm, f, nu, B)
    oracle = integrate_oracle(pm, f, nu, B, canonical_grid(pm, f, B))
    body = {
        "operation": pm.describe(),
        "subset": jsonable(B),
        "value": jsonable(sweep),
        "threshold_sweep": jsonable(sweep),
        "atomwise": jsonable(atomwise),
        "oracle_lower_bound": jsonable(oracle),
        "paths_agree": pm.values_equal(sweep, atomwise),
    }
    return Report("integrate", body)


def _cmd_density(args) -> Report:
    doc = _load_doc(args)
    pm = _lawful_pm(args, doc)
    nu, tau = _carried(pm, doc, ("measure", args.nu), ("measure", args.tau))
    result = solve_density(pm, nu, tau)
    body = {"operation": pm.describe(), "nu": jsonable(nu), "tau": jsonable(tau),
            "found": result.ok}
    negative = not result.ok
    if result.ok:
        body["density"] = jsonable(result.density)
        if within_cap(doc.space.n, args.max_n):
            body["verified_on_all_subsets"] = verify_density(pm, result.density, nu, tau)
        if args.finitize:
            try:
                c1 = finitize_density(pm, result.density, nu, tau)
            except PreconditionError as exc:
                # a hypothesis of the finitization fails: a verdict, not a fault
                body["finitized_density"] = None
                body["finitize_refused"] = str(exc)
                negative = True
            else:
                body["finitized_density"] = jsonable(c1)
    else:
        body["failures"] = [jsonable(f) for f in result.failures]
        body["certificate"] = [str(f) for f in result.failures]
    return Report("density", body, negative_verdict=negative)


def _cmd_diagnose(args) -> Report:
    doc = _load_doc(args)
    pm = _lawful_pm(args, doc)
    (tau,) = _carried(pm, doc, ("measure", args.tau))
    diag = diagnose_rn(pm, tau)
    body = {"operation": pm.describe(), "tau": jsonable(tau),
            "diagnosis": jsonable(diag), "text": str(diag).splitlines()}
    return Report("diagnose", body, negative_verdict=not diag.rn_property)


def _cmd_quotient(args) -> Report:
    doc = _load_doc(args)
    tau = _named("measure", doc.measures, args.tau)
    lattice = build_quotient(tau)
    check_fixed_cap(lattice.k, QUOTIENT_NON_NULL_CAP, "non-null atoms")
    verified = verify_lattice_complete(lattice) if within_cap(doc.space.n, args.max_n) else None
    body = {
        "tau": jsonable(tau),
        "non_null_atoms": jsonable(lattice.non_null_atoms),
        "class_count": lattice.count,
        "complete_lattice_verified": verified,
    }
    return Report("quotient", body)


def _cmd_ideal_measures(args) -> Report:
    doc = _load_doc(args)
    tau = _named("measure", doc.measures, args.tau)
    ideal = _resolve_ideal(doc, args.ideal)
    restricted = ideal_restriction_measure(tau, ideal)
    threshold = nguyen_measure(tau, ideal)
    local = localize(tau, ideal)
    body = {
        "tau": jsonable(tau),
        "ideal_top": jsonable(ideal.top),
        "restricted_to_ideal": jsonable(restricted),
        "nguyen_threshold": jsonable(threshold),
        "localization": jsonable(local),
    }
    if within_cap(doc.space.n, args.max_n):
        verify_nguyen_measure(tau, ideal, threshold)
        verify_localization(tau, ideal, local)
        body["restricted_maxitive"] = check_maxitive(restricted.table())
        body["nguyen_maxitive"] = check_maxitive(threshold.table())
        body["nguyen_below_tau"] = all(
            nv <= tv for nv, tv in zip(threshold.masses, tau.masses))
    return Report("ideal-measures", body)


def _cmd_variation(args) -> Report:
    doc = _load_doc(args)
    tau = _named("measure", doc.measures, args.tau)
    m = disjoint_variation(tau)
    total = m(doc.space.full)
    if total.is_finite:  # Decimal counts the digits of an int str() refuses
        q = total.as_fraction()
        check_fixed_cap(Decimal(max(q.numerator, q.denominator)).adjusted() + 1,
                        VARIATION_TOTAL_DIGITS_CAP, "digits in the total's numerator or denominator")
    same_nulls = same_null_sets(tau, m) if within_cap(doc.space.n, args.max_n) else None
    body = {
        "tau": jsonable(tau),
        "disjoint_variation": jsonable(m),
        "total": jsonable(total),
        "dominates_tau": all(v <= w for v, w in zip(tau.masses, m.masses)),
        "same_null_sets": same_nulls,
    }
    return Report("variation", body)


def _cmd_gallery(args) -> Report:
    return run_gallery(args.scenario, seed=args.seed, trials=args.trials)


_HANDLERS = {
    "validate-op": _cmd_validate_op,
    "integrate": _cmd_integrate,
    "density": _cmd_density,
    "diagnose": _cmd_diagnose,
    "quotient": _cmd_quotient,
    "ideal-measures": _cmd_ideal_measures,
    "variation": _cmd_variation,
    "gallery": _cmd_gallery,
}


def _nonnegative_int(text: str) -> int:
    """The type of --max-n: an int of at least 0, else argparse's exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


# The options commands share, in --help's order; each command names those it reads.
_SHARED = {
    "--space-file": dict(metavar="PATH", help="JSON document: space, measures, functions, ideals"),
    "--op": dict(choices=[*NAMED_OPERATIONS, "chain"],
                 help="pseudo-multiplication (default: document's, then times)"),
    "--json-out": dict(metavar="PATH", help="write the machine-readable report ('-' for stdout)"),
    "--seed": dict(type=int, default=0, help="seed for sampled checks"),
    "--max-n": dict(type=_nonnegative_int, default=DEFAULT_MAX_N,
                    help=f"largest n for the exhaustive cross-checks (default {DEFAULT_MAX_N})"),
    "--fatal-verdicts": dict(action="store_true", help="exit 4 on a negative mathematical verdict"),
}


@functools.cache  # parsing neither changes the parser nor keeps state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxitive", allow_abbrev=False,
        description="Maxitive measures, idempotent ⊙-integrals, and densities on finite spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *shared):
        p = sub.add_parser(name, help=help, allow_abbrev=False)  # options in full only
        for option, spec in _SHARED.items():
            if option in shared or option == "--json-out":
                p.add_argument(option, **spec)
        return p

    command("validate-op", "check the pseudo-multiplication axioms",
            "--space-file", "--op", "--seed", "--fatal-verdicts")

    p = command("integrate", "compute an idempotent ⊙-integral", "--space-file", "--op")
    p.add_argument("--measure", help="name of the measure in the document")
    p.add_argument("--function", help="name of the integrand in the document")
    p.add_argument("--subset", help="comma-separated atoms (default: whole space)")

    p = command("density", "solve ν(B) = ∫_B c ⊙ dτ",
                "--space-file", "--op", "--max-n", "--fatal-verdicts")
    p.add_argument("--nu", required=True, help="dominated measure name")
    p.add_argument("--tau", required=True, help="dominating measure name")
    p.add_argument("--finitize", action="store_true",
                   help="also return the ⊙-finite-valued density")

    p = command("diagnose", "Radon-Nikodym property diagnosis for τ",
                "--space-file", "--op", "--max-n", "--fatal-verdicts")
    p.add_argument("--tau", required=True)

    p = command("quotient", "summary of the quotient lattice modulo null sets",
                "--space-file", "--max-n")
    p.add_argument("--tau", required=True)

    p = command("ideal-measures", "the two measures attached to a σ-ideal, side by side",
                "--space-file", "--max-n")
    p.add_argument("--tau", required=True)
    p.add_argument("--ideal", required=True,
                   help="ideal name from the document, or comma-separated atoms")

    p = command("variation", "the disjoint variation of τ", "--space-file", "--max-n")
    p.add_argument("--tau", required=True)

    p = command("gallery", "run a named self-asserting scenario", "--seed")
    p.add_argument("scenario", help=f"one of: {', '.join(sorted(GALLERY))}")
    p.add_argument("--trials", type=int, default=None,
                   help="randomized trial count (scenario default otherwise)")
    p.set_defaults(seed=None)  # the scenario's own seed, unless one is given

    return parser


def _unwritable(path: str) -> Optional[str]:
    """Why --json-out ``path`` cannot be opened for writing, as the OS would
    say it, seen before any work: it is empty or a directory, or its parent
    is no directory; None when opening it may be tried."""
    if not path:
        return os.strerror(errno.ENOENT)
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    return None


def _refuse_json_out(path: str, cause: str) -> int:
    print(f"error: --json-out {path}: {cause}", file=sys.stderr)
    return EXIT_INVALID


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.json_out not in (None, "-") and (cause := _unwritable(args.json_out)):
        return _refuse_json_out(args.json_out, cause)
    try:
        report = _HANDLERS[args.command](args)
    except SpecValidationError as exc:
        print("invalid spec document:", file=sys.stderr)
        for issue in exc.issues:
            print(f"  {issue}", file=sys.stderr)
        return EXIT_INVALID
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}; this cap is fixed; no flag raises it", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (CarrierDomainError, DegenerateOperationError, SpaceMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MaxitiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json_out not in (None, "-"):  # the file first: a failed write prints nothing
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            return _refuse_json_out(args.json_out, exc.strerror or str(exc))
    print(report.to_json() if args.json_out == "-" else report.render())
    if args.command == "gallery" and report.negative_verdict:
        return EXIT_INTERNAL
    if report.negative_verdict and args.fatal_verdicts:
        return EXIT_NEGATIVE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
