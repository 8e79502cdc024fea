"""The benchmark's workloads: seeded inputs, the timed call and its check.

Every workload is a fixed list of operations built from the seed.  The
seed picks values and atom positions only; sizes, value counts, null
atoms and ⊙-infinite atoms are fixed per workload, so every seed asks
the program for the same amount of work.

An operation is timed through ``call`` alone.  ``reference`` computes
the expected answer in the benchmark's own arithmetic (``reference.py``)
after set-up is timed, and ``check`` compares the two and returns the
first problem found, or None.  Calls go through attributes of the
``maxitive`` package (``mx.solve_density``, ``mx.cli.main``) at call
time, so the traced run sees them once it has patched those names.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import reference as ref
from reference import INF

__all__ = ["Op", "WORKLOADS", "build"]

# Positive finite rationals as in the package's own randomized tests.
RATIONALS = tuple(sorted({Fraction(p, q) for p in range(1, 13) for q in range(1, 7)}))
# Dyadic rationals: float products of these are exact, so the float
# operation's integrals can be checked exactly.
DYADICS = tuple(sorted({Fraction(p, 1 << q) for p in range(1, 17) for q in range(4)}))


class Op:
    """One timed operation and how to check its result.

    A pass calls it ``repeats`` times in a row; each call is timed and
    checked on its own.
    """

    __slots__ = ("name", "call", "reference", "check", "expected", "repeats")

    def __init__(self, name, call, reference, check, repeats=1):
        self.name = name
        self.call = call
        self.reference = reference
        self.check = check
        self.expected = None
        self.repeats = repeats


def labels(n: int) -> list:
    return [f"x{i}" for i in range(n)]


def arg(v) -> str:
    """A value as a user writes it in a spec document or a constructor."""
    return ref.show(v)


def values_of(ext_values) -> list:
    """Read the package's ExtNonneg values through their printed form."""
    return [ref.parse(str(v)) for v in ext_values]


def make_ops(mx) -> dict:
    """The four pseudo-multiplications, with their lazy profiles computed."""
    pms = {
        "times": mx.StandardProduct(),
        "min": mx.Minimum(),
        "chain": mx.DiscreteChain.clamped_product([arg(c) for c in ref.CHAIN_CARRIER]),
        "float": mx.CustomContinuous(ref.float_times, 1, name="float-times"),
    }
    for pm in pms.values():
        pm.finiteness_profile()
    return pms


def draw(rng: random.Random, kind: str, count: int) -> list:
    """count distinct positive finite values: dyadic for the float kind."""
    return rng.sample(DYADICS if kind == "float" else RATIONALS, count)


def shuffled(rng: random.Random, values: list) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# roundtrip-n10
# ---------------------------------------------------------------------------

ROUNDTRIP_N = 10
ROUNDTRIP_TRIALS = 20  # per kind: 60 operations a pass


def roundtrip_inputs(rng: random.Random, kind: str, n: int):
    """τ without null atoms and c with exactly one 0 (and one ∞ under min)."""
    if kind == "chain":
        tau = shuffled(rng, [Fraction(1)] * 4 + [Fraction(2)] * 3 + [INF] * 3)
        c = shuffled(rng, [Fraction(0)] * 3 + [Fraction(1)] * 3
                     + [Fraction(2)] * 2 + [INF] * 2)
        return tau, c
    tau = rng.sample(RATIONALS, n)
    extra = [Fraction(0), INF] if kind == "min" else [Fraction(0)]
    c = shuffled(rng, extra + rng.sample(RATIONALS, n - len(extra)))
    return tau, c


def check_density(kind, tau, c, nu, density) -> str | None:
    """d ⊙ τ = ν atom by atom, d least, and d ≤ c where the solution is unique."""
    d = values_of(density.values)
    for i, (dx, tx, cx, nx) in enumerate(zip(d, tau, c, nu)):
        if not ref.close(kind, ref.omul(kind, dx, tx), nx):
            return f"atom x{i}: d ⊙ τ = {ref.show(ref.omul(kind, dx, tx))}, ν = {ref.show(nx)}"
        if not ref.close(kind, dx, ref.least_solution(kind, nx, tx)):
            return f"atom x{i}: d = {ref.show(dx)} is not the least solution"
        if ref.solution_unique(kind, nx, tx) and not (dx <= cx or ref.close(kind, dx, cx)):
            return f"atom x{i}: d = {ref.show(dx)} exceeds c = {ref.show(cx)}"
    return None


def build_roundtrip(mx, rng: random.Random, workdir: Path) -> list:
    pms = make_ops(mx)
    space = mx.Space(labels(ROUNDTRIP_N))
    ops = []
    for _ in range(ROUNDTRIP_TRIALS):
        for kind in ("times", "min", "chain"):
            tau, c = roundtrip_inputs(rng, kind, ROUNDTRIP_N)
            ops.append(roundtrip_op(mx, pms[kind], kind, space, tau, c))
    return ops


def roundtrip_op(mx, pm, kind, space, tau, c) -> Op:
    tau_m = mx.MaxMeasure(space, [arg(v) for v in tau])
    c_f = mx.MeasurableFn(space, [arg(v) for v in c])

    def call():
        nu = mx.pushforward_measure(pm, c_f, tau_m)
        result = mx.solve_density(pm, nu, tau_m)
        accepted = result.ok and mx.verify_density(pm, result.density, nu, tau_m)
        return nu, result, accepted

    def check(expected, out):
        nu, result, accepted = out
        if values_of(nu.masses) != expected:
            return "pushforward ν differs from c ⊙ τ"
        if not result.ok:
            return "no density found for a pushforward"
        problem = check_density(kind, tau, c, expected, result.density)
        if problem:
            return problem
        if accepted is not True:
            return "verify_density rejected the solved density"
        return None

    return Op(f"{kind}/roundtrip", call, lambda: ref.pushforward(kind, c, tau), check)


# ---------------------------------------------------------------------------
# atomwise-n10
# ---------------------------------------------------------------------------

ATOMWISE_N = 10
ATOMWISE_INSTANCES = 4  # per kind and call: 4 kinds x 8 calls x 4 = 128 a pass
SUBSET_SIZE = 6
# The frontier φ of each kind; None where every element is ⊙-finite.
PHI = {"times": INF, "min": None, "chain": Fraction(2), "float": INF}
# The mass of the one atom that keeps τ from being σ-⊙-finite in the odd
# diagnose_rn instances (under min every mass is ⊙-finite, ∞ included).
ODOT_INFINITE = {"times": INF, "min": INF, "chain": Fraction(2), "float": INF}


def solvable_pair(rng: random.Random, kind: str, n: int):
    """(τ, c) with τ free of null atoms, c with exactly one 0 and c(x0) > 0.

    Under min both τ and c hold one ∞; the chain uses fixed multisets.
    """
    if kind == "chain":
        tau = shuffled(rng, [Fraction(1)] * 4 + [Fraction(2)] * 3 + [INF] * 3)
        c = [Fraction(1)] + shuffled(rng, [Fraction(0)] + [Fraction(1)] * 3
                                     + [Fraction(2)] * 3 + [INF] * 2)
        return tau, c
    if kind == "min":
        tau = shuffled(rng, [INF] + draw(rng, kind, n - 1))
        c = draw(rng, kind, n - 2) + [INF]
    else:
        tau = draw(rng, kind, n)
        c = draw(rng, kind, n - 1)
    return tau, [c[0]] + shuffled(rng, [Fraction(0)] + c[1:])


def unsolvable_pair(rng: random.Random, kind: str, n: int):
    """(τ, ν, bad): ν solvable except on the two atoms in bad.

    One bad atom has τ-mass 0 under a positive ν; on the other ν lies
    outside the achievable set {c ⊙ τ(x)}.
    """
    tau, c = solvable_pair(rng, kind, n)
    nu = ref.pushforward(kind, c, tau)
    bad = sorted(rng.sample(range(n), 2))
    null, outside = bad
    tau[null], nu[null] = Fraction(0), Fraction(1)
    if kind == "min":
        tau[outside] = Fraction(1)
        nu[outside] = Fraction(2)
    elif kind == "chain":
        tau[outside], nu[outside] = Fraction(2), Fraction(1)
    else:
        tau[outside], nu[outside] = INF, Fraction(1)
    return tau, nu, bad


def random_values(rng: random.Random, kind: str, n: int, with_inf: bool) -> list:
    """n values with one 0 and, unless float, one ∞."""
    if kind == "chain":
        return shuffled(rng, [Fraction(0), INF] + [rng.choice(ref.CHAIN_CARRIER[1:3])
                                                   for _ in range(n - 2)])
    head = [Fraction(0), INF] if with_inf else [Fraction(0)]
    pool = DYADICS if kind == "float" else RATIONALS
    return shuffled(rng, head + rng.sample(pool, n - len(head)))


def diagnose_tau(rng: random.Random, kind: str, n: int, finite: bool) -> list:
    tau = [Fraction(1)] * n if kind == "chain" else draw(rng, kind, n)
    if not finite:
        tau[rng.randrange(n)] = ODOT_INFINITE[kind]
    return tau


def build_atomwise(mx, rng: random.Random, workdir: Path) -> list:
    pms = make_ops(mx)
    n = ATOMWISE_N
    space = mx.Space(labels(n))
    ops = []
    for inst in range(ATOMWISE_INSTANCES):
        for kind in ref.KINDS:
            pm = pms[kind]
            tau, c = solvable_pair(rng, kind, n)
            nu = ref.pushforward(kind, c, tau)
            bad_tau, bad_nu, bad = unsolvable_pair(rng, kind, n)
            f = random_values(rng, kind, n, with_inf=kind != "float")
            mu = random_values(rng, kind, n, with_inf=kind != "float")
            mask = sum(1 << i for i in rng.sample(range(n), SUBSET_SIZE))
            dtau = diagnose_tau(rng, kind, n, finite=inst % 2 == 0)
            ops += atomwise_ops(mx, pm, kind, space, tau, c, nu, bad_tau, bad_nu, bad,
                                f, mu, mask, dtau, dominated=inst % 2 == 0)
    return ops


def atomwise_ops(mx, pm, kind, space, tau, c, nu, bad_tau, bad_nu, bad,
                 f, mu, mask, dtau, dominated) -> list:
    M, F = mx.MaxMeasure, mx.MeasurableFn
    tau_m, nu_m = M(space, [arg(v) for v in tau]), M(space, [arg(v) for v in nu])
    bad_tau_m, bad_nu_m = M(space, [arg(v) for v in bad_tau]), M(space, [arg(v) for v in bad_nu])
    f_f, mu_m = F(space, [arg(v) for v in f]), M(space, [arg(v) for v in mu])
    B = mx.SubsetB(space, mask)
    dtau_m = M(space, [arg(v) for v in dtau])
    # The least density, wrong on the first atom: ν(x0) > 0 by construction.
    least = [ref.least_solution(kind, nx, tx) for nx, tx in zip(nu, tau)]
    wrong_m = F(space, [arg(Fraction(0))] + [arg(v) for v in least[1:]])
    ac_nu, ac_tau = (nu_m, tau_m) if dominated else (bad_nu_m, bad_tau_m)
    ac_vals = (nu, tau) if dominated else (bad_nu, bad_tau)
    sweep = lambda: ref.integral(kind, f, mu, mask)
    name = kind + "/"

    def solved(expected, res):
        if not res.ok:
            return "no density found for a dominated pair"
        return check_density(kind, tau, c, nu, res.density)

    def certificate(expected, res):
        if res.ok:
            return "a density was found for an unsolvable pair"
        atoms = sorted(space.index(fl.atom) for fl in res.failures)
        return None if atoms == expected else f"certificate names atoms {atoms}, not {expected}"

    def equals(expected, got):
        return None if got == expected else f"got {got!r}, expected {expected!r}"

    def integral_equals(expected, got):
        value = ref.parse(str(got))
        return None if value == expected else f"integral {ref.show(value)} != {ref.show(expected)}"

    def oracle_bound(expected, got):
        value = ref.parse(str(got))
        if value > expected:
            return f"oracle {ref.show(value)} exceeds the sweep {ref.show(expected)}"
        if kind == "float" and expected != INF:
            gap = float(expected) - float(value)
            if gap > 1e-9 * max(1.0, float(expected)):
                return f"float oracle {float(value)} is not within 1e-9 of {float(expected)}"
        return None

    def diagnosis(expected, diag):
        got = (diag.rn_property, diag.sigma_odot_finite, diag.semi_finite,
               sorted(space.index(a) for a in diag.spots.atom_spots),
               diag.total_vs_phi.satisfied)
        return equals(expected, got)

    def diagnosis_expected():
        spots = [i for i, t in enumerate(dtau) if not ref.odot_finite(kind, t)]
        total = max(dtau)
        within = PHI[kind] is None or total <= PHI[kind]
        return (not spots, not spots, not spots, spots, within)

    return [
        Op(name + "solve-dominated", lambda: mx.solve_density(pm, nu_m, tau_m),
           lambda: None, solved),
        Op(name + "solve-certificate", lambda: mx.solve_density(pm, bad_nu_m, bad_tau_m),
           lambda: bad, certificate),
        Op(name + "is-abs-continuous", lambda: mx.is_abs_continuous(pm, ac_nu, ac_tau),
           lambda: ref.abs_continuous(kind, *ac_vals), equals),
        Op(name + "integrate-threshold", lambda: mx.integrate_threshold(pm, f_f, mu_m, B),
           sweep, integral_equals),
        Op(name + "integrate-atomwise", lambda: mx.integrate_atomwise(pm, f_f, mu_m, B),
           sweep, integral_equals),
        Op(name + "integrate-oracle",
           lambda: mx.integrate_oracle(pm, f_f, mu_m, B, mx.canonical_grid(pm, f_f, B)),
           sweep, oracle_bound),
        Op(name + "diagnose-rn", lambda: mx.diagnose_rn(pm, dtau_m),
           diagnosis_expected, diagnosis),
        Op(name + "verify-reject", lambda: mx.verify_density(pm, wrong_m, nu_m, tau_m),
           lambda: False, equals),
    ]


# ---------------------------------------------------------------------------
# cli-docs
# ---------------------------------------------------------------------------

CLI_DOCS = (("times", 8), ("times", 12), ("times", 16), ("times", 20),
            ("min", 8), ("min", 12), ("chain", 8), ("chain", 12))
IDEAL_SIZE = 4
# density, quotient and ideal-measures at n = 12 and diagnose beyond it
# take 0.07 to 3 s and run once a pass.  The other commands take 5 to
# 150 ms, where the shared machine's jitter is a large share of the
# time, so a pass runs each of them this many times in a row.
CHEAP_REPEATS = 5


def doc_values(rng: random.Random, kind: str, n: int):
    """τ, the density c behind ν = c ⊙ τ, f and the ideal's top for one document.

    One null atom at n = 8 and two otherwise, so the quotient sizes are
    fixed, and fixed counts of distinct values.  ν stays semi-⊙-finite,
    which --finitize requires.  τ has one ⊙-infinite atom in the times
    documents of 8 and 16 atoms and two in the 12-atom chain; elsewhere
    it is σ-⊙-finite.
    """
    nulls = set(rng.sample(range(n), 1 if n == 8 else 2))
    live = shuffled(rng, [i for i in range(n) if i not in nulls])
    tau = [Fraction(0)] * n
    c = [Fraction(0)] * n
    if kind == "chain":
        half = len(live) // 2
        for j, i in enumerate(live):
            tau[i], c[i] = Fraction(1), Fraction(1 if j < half else 0)
        if n == 12:
            tau[live[-1]], tau[live[-2]] = Fraction(2), INF
        f = shuffled(rng, [ref.CHAIN_CARRIER[i % 4] for i in range(n)])
    else:
        for i, v in zip(live, draw(rng, kind, len(live))):
            tau[i] = v
        extra = [INF] if kind == "min" else []
        for i, v in zip(live, shuffled(rng, extra + draw(rng, kind, len(live) - len(extra)))):
            c[i] = v
        if kind == "times" and n in (8, 16):
            tau[live[0]], c[live[0]] = INF, Fraction(0)
        if kind == "min":
            tau[live[0]] = INF
        f = shuffled(rng, extra + draw(rng, kind, n - len(extra)))
    top = sorted(rng.sample(range(n), IDEAL_SIZE))
    return tau, c, f, top


def spec_document(kind: str, atoms: list, tau, nu, f, top) -> dict:
    if kind == "chain":
        carrier = ref.CHAIN_CARRIER
        pm = {"chain": {"carrier": [arg(a) for a in carrier],
                        "table": [[arg(ref.CHAIN_TABLE[(a, b)]) for b in carrier]
                                  for a in carrier],
                        "identity": arg(ref.CHAIN_IDENTITY)}}
    else:
        pm = kind
    half = IDEAL_SIZE // 2
    return {
        "space": {"atoms": atoms},
        "pseudo_mul": pm,
        "measures": {name: dict(zip(atoms, map(arg, vals)))
                     for name, vals in (("tau", tau), ("nu", nu))},
        "functions": {"f": dict(zip(atoms, map(arg, f)))},
        "ideals": {"I": [[atoms[i] for i in top[:half]], [atoms[i] for i in top[half:]]]},
    }


def run_cli(mx, argv: list):
    """mx.cli.main(argv) in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mx.cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def read_report(out, json_file):
    """The JSON report of one command: from stdout, or from --json-out's file."""
    code, stdout, stderr = out
    if code != 0:
        return None, f"exit code {code}: {stderr.strip()[:200]}"
    try:
        text = stdout if json_file is None else json_file.read_text(encoding="utf-8")
        return json.loads(text), None
    except (OSError, ValueError) as exc:
        return None, f"unreadable report: {exc}"


def compare_values(got: dict, expected: dict, what: str) -> str | None:
    values = {k: ref.parse(v) for k, v in got.items()}
    if values != expected:
        return f"{what} {got} != {({k: ref.show(v) for k, v in expected.items()})}"
    return None


def cli_expectations(kind: str, atoms: list, tau, c, nu, f, top) -> dict:
    """Closed forms for every command's report on one document."""
    n = len(atoms)
    exhaustive = n <= 12  # the default --max-n
    support = [i for i, t in enumerate(tau) if t != 0]
    spots = [atoms[i] for i, t in enumerate(tau) if not ref.odot_finite(kind, t)]
    least = [ref.least_solution(kind, nx, tx) for nx, tx in zip(nu, tau)]
    value = ref.integral(kind, f, tau, (1 << n) - 1)
    by_atom = lambda vals: dict(zip(atoms, vals))
    return {
        "integrate": {"value": value, "subset": sorted(atoms)},
        "density": {"density": by_atom(least), "exhaustive": exhaustive,
                    "finitized": by_atom([d if ref.odot_finite(kind, d) else Fraction(0)
                                          for d in least])},
        "diagnose": {"rn": not spots, "spots": sorted(spots)},
        "quotient": {"count": 1 << len(support),
                     "non_null": sorted(atoms[i] for i in support),
                     "verified": True if len(support) <= 12 else None},
        "ideal-measures": {
            "top": sorted(atoms[i] for i in top),
            "restricted": by_atom([t if i in top else Fraction(0) for i, t in enumerate(tau)]),
            "threshold": by_atom([Fraction(0) if i in top else t for i, t in enumerate(tau)]),
            "localization": sorted(atoms[i] for i in top if tau[i] != 0),
            "exhaustive": exhaustive},
        "variation": {"masses": by_atom(tau), "total": ref.ext_sum(tau),
                      "same_nulls": True if exhaustive else None},
    }


def check_cli_body(command: str, exp: dict, report: dict) -> str | None:
    body = report["body"]
    if command == "integrate":
        for key in ("value", "threshold_sweep", "atomwise"):
            if ref.parse(body[key]) != exp["value"]:
                return f"{key} {body[key]} != {ref.show(exp['value'])}"
        if ref.parse(body["oracle_lower_bound"]) > exp["value"]:
            return "oracle exceeds the sweep"
        if body["paths_agree"] is not True or body["subset"] != exp["subset"]:
            return "paths_agree or subset is wrong"
        return None
    if command == "density":
        if body["found"] is not True or report["negative_verdict"]:
            return "no density found for ν = c ⊙ τ"
        problem = compare_values(body["density"], exp["density"], "density")
        if problem:
            return problem
        if exp["exhaustive"]:
            if body.get("verified_on_all_subsets") is not True:
                return "density not verified on all subsets"
            return compare_values(body["finitized_density"], exp["finitized"], "finitized")
        return None if "verified_on_all_subsets" not in body else "verified beyond --max-n"
    if command == "diagnose":
        diag = body["diagnosis"]
        got = (diag["rn_property"], diag["sigma_odot_finite"], diag["semi_finite"],
               sorted(diag["spots"]["atom_spots"]), report["negative_verdict"])
        want = (exp["rn"], exp["rn"], exp["rn"], exp["spots"], not exp["rn"])
        return None if got == want else f"diagnosis {got} != {want}"
    if command == "quotient":
        got = (body["class_count"], body["non_null_atoms"], body["complete_lattice_verified"])
        want = (exp["count"], exp["non_null"], exp["verified"])
        return None if got == want else f"quotient {got} != {want}"
    if command == "ideal-measures":
        if body["ideal_top"] != exp["top"] or body["localization"] != exp["localization"]:
            return "ideal top or localization is wrong"
        problem = (compare_values(body["restricted_to_ideal"], exp["restricted"], "restricted")
                   or compare_values(body["nguyen_threshold"], exp["threshold"], "threshold"))
        if problem:
            return problem
        flags = [body.get(k) for k in ("restricted_maxitive", "nguyen_maxitive",
                                       "nguyen_below_tau")]
        want = [True] * 3 if exp["exhaustive"] else [None] * 3
        return None if flags == want else f"maxitivity flags {flags} != {want}"
    if command == "variation":
        problem = compare_values(body["disjoint_variation"], exp["masses"], "variation")
        if problem:
            return problem
        if ref.parse(body["total"]) != exp["total"]:
            return f"total {body['total']} != {ref.show(exp['total'])}"
        got = (body["dominates_tau"], body["same_null_sets"])
        return None if got == (True, exp["same_nulls"]) else f"variation flags {got}"
    if command == "validate-op":
        profile = body["profile"]
        got = (body["passed"], body["degenerate"], profile["shape"], profile["phi"],
               all(ch["passed"] for ch in body["checks"]), report["negative_verdict"])
        return None if got == exp else f"validate-op {got} != {exp}"
    raise ValueError(command)


# Lines the text rendering must contain, for commands run with --json-out FILE.
TEXT_LINES = {
    "integrate": lambda exp: ["== integrate ==", f"value: {ref.show(exp['value'])}"],
    "variation": lambda exp: ["== variation ==", f"total: {ref.show(exp['total'])}"],
    "validate-op": lambda exp: ["== validate-op ==", "passed: yes"],
}


def cli_op(mx, name: str, argv: list, command: str, expected, json_file,
           repeats: int) -> Op:
    if json_file is not None:
        argv = argv + ["--json-out", str(json_file)]
    else:
        argv = argv + ["--json-out", "-"]

    def check(exp, out):
        report, problem = read_report(out, json_file)
        if problem:
            return problem
        if report.get("command") != command:
            return f"report names command {report.get('command')!r}"
        if json_file is not None:
            lines = out[1].splitlines()
            missing = [ln for ln in TEXT_LINES[command](exp) if ln not in lines]
            if missing:
                return f"text report lacks {missing}"
        try:
            return check_cli_body(command, exp, report)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed report: {exc!r}"

    return Op(name, lambda: run_cli(mx, argv), lambda: expected, check, repeats)


def build_cli(mx, rng: random.Random, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    report_file = workdir / "report.json"
    ops = []
    for kind, n in CLI_DOCS:
        atoms = labels(n)
        tau, c, f, top = doc_values(rng, kind, n)
        nu = ref.pushforward(kind, c, tau)
        path = workdir / f"{kind}-{n}.json"
        path.write_text(json.dumps(spec_document(kind, atoms, tau, nu, f, top), indent=2),
                        encoding="utf-8")
        mx.parse_spec(str(path))  # set-up builds the inputs through the parser once
        exp = cli_expectations(kind, atoms, tau, c, nu, f, top)
        doc = ["--space-file", str(path)]
        commands = [
            ("integrate", ["--measure", "tau", "--function", "f"], report_file),
            ("density", ["--nu", "nu", "--tau", "tau"] + (["--finitize"] if n <= 12 else []),
             None),
            ("diagnose", ["--tau", "tau", "--max-n", str(n)], None),
            ("quotient", ["--tau", "tau"], None),
            ("ideal-measures", ["--tau", "tau", "--ideal", "I"], None),
            ("variation", ["--tau", "tau"], report_file),
        ]
        for command, extra, json_file in commands:
            heavy = ((n == 12 and command in ("density", "quotient", "ideal-measures"))
                     or (n > 12 and command == "diagnose"))
            ops.append(cli_op(mx, f"{kind}-{n}/{command}", [command] + doc + extra,
                              command, exp[command], json_file,
                              1 if heavy else CHEAP_REPEATS))
    for kind, shape, phi in (("times", "half-open", "inf"), ("min", "whole-interval", "inf")):
        ops.append(cli_op(mx, f"{kind}/validate-op", ["validate-op", "--op", kind],
                          "validate-op", (True, False, shape, phi, True, False), report_file,
                          CHEAP_REPEATS))
    return ops


# ---------------------------------------------------------------------------

class Workload(NamedTuple):
    build: Callable
    # Percentile of call times reported as op_ms_tail.  At least ten
    # calls of one pass lie above it (60, 128 and 206 calls a pass), and
    # it falls among calls of like cost, where run-to-run jitter does
    # not change which call sits at the rank.
    tail: int


WORKLOADS = {
    "roundtrip-n10": Workload(build_roundtrip, 80),
    "atomwise-n10": Workload(build_atomwise, 86),
    "cli-docs": Workload(build_cli, 92),
}


def build(name: str, mx, seed: int, workdir: Path) -> list:
    """The workload's operations for this seed, built through the package."""
    return WORKLOADS[name].build(mx, random.Random(f"{name}:{seed}"), workdir)
