"""Each pseudo-multiplication's closed forms, held to oracles.

The operation-specific answers (achievable set, least solution, grid,
axiom samples, spec form, the products and their max) are methods of
PseudoMul and its subclasses.  These tests hold them to independent
forms: the literal times and min achievable sets, the chain's image
{c ⊙ t : c ∈ carrier}, the float bisection written against the custom
map itself, the base class's loop over ``omul`` for every override of
``products``, and a literal loop over ``omul`` for ``sup_products``,
which only the base class defines.  A product written out with only
the abstract methods gets its answers from the base class.
"""

import ast
import importlib
import math
import pkgutil
import random
from fractions import Fraction
from pathlib import Path

import pytest

import maxitive
from maxitive import (
    INF,
    ONE,
    ZERO,
    AchievableSet,
    CarrierDomainError,
    CustomContinuous,
    DiscreteChain,
    ExtNonneg,
    FailureReason,
    FinitenessProfile,
    FrontierShape,
    MaxMeasure,
    Minimum,
    PseudoMul,
    Space,
    StandardProduct,
    UnresolvedInfimumError,
    achievable_set,
    canonical_grid,
    solve_atom_density,
    solve_density,
    validate_pseudo_mul,
)

from maxitive import extreal
from maxitive.extreal import ext_ratio

from conftest import (CountingTimes, FaultyMap, float_times, literal_sup, outcome, rand_fn,
                      random_chain)

SRC = Path(__file__).resolve().parent.parent / "src" / "maxitive"


class WrittenProduct(PseudoMul):
    """The product on [0, ∞], written out with only the abstract methods."""

    kind = "written-product"

    def __init__(self):
        super().__init__(ONE)

    def omul(self, s, t):
        if s.is_zero or t.is_zero:
            return ZERO
        if s.is_inf or t.is_inf:
            return INF
        return ExtNonneg(s.as_fraction() * t.as_fraction())

    def zero_map(self, t):
        return INF if t.is_inf else ZERO

    def is_odot_finite(self, t):
        return t.is_finite

    def _compute_profile(self):
        return FinitenessProfile(FrontierShape.HALF_OPEN, INF, degenerate=False)


# -- a bare subclass gets answers ----------------------------------------------

def test_bare_subclass_solves_exact_targets():
    pm = WrittenProduct()
    assert solve_atom_density(pm, ONE, ExtNonneg(2)) == ExtNonneg("1/2")
    assert solve_atom_density(pm, ExtNonneg(3), ExtNonneg("3/4")) == ExtNonneg(4)
    assert solve_atom_density(pm, ZERO, ExtNonneg(3)) == ZERO
    assert solve_atom_density(pm, ONE, ZERO) is None
    assert solve_atom_density(pm, INF, ExtNonneg(2)) == INF


def test_bare_subclass_reports_an_unhit_target_as_unresolved():
    # 1/3 is no float, so the bisection cannot land on c ⊙ 3 = 1 exactly
    pm = WrittenProduct()
    sp = Space(["a", "b"])
    res = solve_density(pm, MaxMeasure(sp, {"a": 1, "b": 1}),
                        MaxMeasure(sp, {"a": 2, "b": 3}))
    assert not res.ok
    (failure,) = res.failures
    assert failure.atom == "b"
    assert failure.reason is FailureReason.UNRESOLVED_NUMERIC
    lo, hi = failure.bracket
    assert lo < ExtNonneg("1/3") < hi
    assert float(hi) == math.nextafter(float(lo), math.inf)  # adjacent floats
    with pytest.raises(UnresolvedInfimumError):
        solve_atom_density(pm, ONE, ExtNonneg(3))


def level_past_one(s, t):
    """s·t for t ≤ 1, max(s·t, t − 1) above it, and 0 at s = 0: c ⊙ 2 stays
    1 however small c > 0 is, so no bisection for c ⊙ 2 = 1 settles."""
    if s == 0.0:
        return 0.0
    return s * t if t <= 1.0 else max(s * t, t - 1.0)


def test_a_bisection_that_never_settles_is_unresolved():
    pm = CustomContinuous(level_past_one, identity=1)
    sp = Space(["a"])
    res = solve_density(pm, MaxMeasure(sp, {"a": 1}), MaxMeasure(sp, {"a": 2}))
    (failure,) = res.failures
    assert failure.reason is FailureReason.UNRESOLVED_NUMERIC
    assert failure.bracket == (ZERO, ExtNonneg(Fraction(1, 2 ** 200)))
    with pytest.raises(UnresolvedInfimumError, match="did not converge"):
        pm.least_solution(ONE, ExtNonneg(2))


def test_bare_subclass_validates_and_grids_like_times():
    pm, times = WrittenProduct(), StandardProduct()
    assert validate_pseudo_mul(pm).passed
    rng = random.Random(4)
    for _ in range(20):
        f = rand_fn(rng, Space(list("abcd")), allow_inf=True)
        assert canonical_grid(pm, f) == canonical_grid(times, f)
    for t in ("0", "1/3", "5", "inf"):
        assert achievable_set(pm, t) == achievable_set(times, t)


# -- the float bisection, unchanged for custom maps ------------------------------

def bisection_oracle(pm, nu_x, tau_x, max_iter=200):
    """The solve for a custom ⊙ as written against its float map."""
    lower = pm.zero_map(tau_x)
    if nu_x < lower and not pm.values_equal(nu_x, lower):
        return None
    if pm.values_equal(nu_x, lower):
        if pm.values_equal(pm(pm.identity, tau_x), nu_x):
            return pm.identity
    target = float(nu_x)
    tf = float(tau_x)
    g = pm.fn
    hi = None
    for k in range(0, 101, 4):
        if g(2.0 ** k, tf) >= target:
            hi = 2.0 ** k
            break
    if hi is None:
        if pm.values_equal(pm(INF, tau_x), nu_x):
            return INF
        return None
    lo = 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid, tf) >= target:
            hi = mid
        else:
            lo = mid
    else:
        raise UnresolvedInfimumError(
            f"bisection for c ⊙ {tau_x} = {nu_x} did not converge",
            bracket=(ExtNonneg(Fraction(lo)), ExtNonneg(Fraction(hi))))
    c = ExtNonneg(Fraction(hi))
    if pm.values_equal(pm(c, tau_x), nu_x):
        return c
    return None


def doubled(s, t):
    return 0.0 if s == 0.0 or t == 0.0 else 2.0 * s * t


def nan_for_large_c(s, t):
    return math.nan if s > 64.0 else float_times(s, t)


def nan_for_large_t(s, t):
    return math.nan if t > 100.0 else float_times(s, t)


def raising(s, t):
    if s > 1000.0:
        raise ValueError("map undefined above 1000")
    return float_times(s, t)


def zero_division(s, t):
    return float_times(s, t) / (0.0 if s > 512.0 else 1.0)


def jump(s, t):
    return float_times(s, t) * (1.0 if s < 1.0 else 3.0)


def bump(s, t):
    return float_times(s, t) * (2.0 if 0.3 < s < 0.6 else 1.0)


def negative(s, t):
    return -1.0 if s > 8.0 else float_times(s, t)


def saturating(s, t):
    return min(float_times(s, t), 5.0)


def tiny(s, t):
    return float_times(s, t) * 1e-300


CUSTOM_MAPS = [(float_times, 1), (doubled, "1/2"), (nan_for_large_c, 1),
               (nan_for_large_t, 1), (raising, 1), (zero_division, 1), (jump, 1), (bump, 1),
               (negative, 1), (saturating, 1), (tiny, 1)]
TARGETS = ["1/1024", "1/3", "1/2", "1", "2", "3", "7/2", "5", "1024", "2^80", "inf"]


@pytest.mark.parametrize("fn, identity", CUSTOM_MAPS, ids=[f.__name__ for f, _ in CUSTOM_MAPS])
def test_custom_least_solution_equals_the_float_bisection(fn, identity):
    pm = CustomContinuous(fn, identity=identity, name=fn.__name__)
    values = [INF if v == "inf" else ExtNonneg(Fraction(2) ** 80 if v == "2^80" else v)
              for v in TARGETS]
    seen = set()
    for nu_x in values:
        for tau_x in [ZERO] + values:
            got = outcome(pm.least_solution, nu_x, tau_x)
            assert got == outcome(bisection_oracle, pm, nu_x, tau_x), (nu_x, tau_x)
            seen.add(got[0] if got[0] == "raises" else got[1] is None)
    assert len(seen) >= 2  # each map both solves and refuses something


def test_custom_maps_reach_every_outcome():
    kinds = set()
    for fn, identity in CUSTOM_MAPS:
        pm = CustomContinuous(fn, identity=identity)
        for nu_x, tau_x in [("1", "2"), ("1", "inf"), ("1", "1/3"), ("5", "1"), ("1", "1e-300")]:
            got = outcome(pm.least_solution, ExtNonneg(nu_x), ExtNonneg(tau_x))
            kinds.add(got[1].__name__ if got[0] == "raises" else got[1] is None)
    assert {True, False, "ValueError", "ZeroDivisionError"} <= kinds


# -- the achievable set: base method against the literal forms -----------------

def literal_achievable(pm, t):
    """The closed forms times and min had before the base method covered them."""
    if isinstance(pm, StandardProduct):
        if t.is_zero:
            return AchievableSet(ZERO, ZERO, True)
        if t.is_inf:
            return AchievableSet(INF, INF, True)
        return AchievableSet(ZERO, INF, True)
    return AchievableSet(ZERO, t, True)


@pytest.mark.parametrize("pm", [StandardProduct(), Minimum()], ids=["times", "min"])
def test_base_achievable_set_equals_the_literal_forms(pm):
    for seed in range(4):
        samples = pm.axiom_samples(seed)
        for t in samples + [ZERO, INF]:
            got, want = achievable_set(pm, t), literal_achievable(pm, t)
            assert got == want and str(got) == str(want), t


def test_chain_achievable_set_is_its_image():
    rng = random.Random(11)
    valid = 0
    for _ in range(120):
        pm = random_chain(rng)
        if not validate_pseudo_mul(pm).passed:
            continue
        valid += 1
        for t in pm.carrier:
            image = frozenset(pm(c, t) for c in pm.carrier)
            got = achievable_set(pm, t)
            positive = [v for v in image if not v.is_zero]
            assert got.explicit_values == image
            assert got.upper == max(image)
            assert got.lower == (min(positive) if positive else ZERO)
            assert got.lower_attained is True
            assert all(got.contains(v) == (v in image) for v in pm.carrier)
    assert valid >= 60


# -- no module outside pseudomul.py dispatches on the operation's class --------
# -- and only the CLI tests its kind, twice ------------------------------------

OPERATION_CLASSES = {"StandardProduct", "Minimum", "DiscreteChain", "CustomContinuous"}
OPERATION_KINDS = {"times", "min", "chain", "custom"}
# The CLI's two tests of the kind: --op chain needs the document's chain,
# and only a chain is validated before a data command computes.
CLI_KIND_TESTS = ('own.kind != "chain"', 'pm.kind == "chain"')


def _named_classes(node) -> set:
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes
            if isinstance(n, (ast.Name, ast.Attribute))}


def _is_dispatch(node) -> bool:
    """An isinstance test against an operation class, or a comparison of a
    ``.kind`` with the name of an operation kind."""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2
                and bool(_named_classes(node.args[1]) & OPERATION_CLASSES))
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return (any(isinstance(n, ast.Attribute) and n.attr == "kind" for n in sides)
                and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                        and n.value in OPERATION_KINDS for n in sides))
    return False


def operation_dispatches(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = sorted((node for node in ast.walk(tree) if _is_dispatch(node)),
                  key=lambda node: node.lineno)
    return [f"{path.name}:{node.lineno}" for node in hits]


def test_no_isinstance_dispatch_on_operations():
    assert sorted(SRC.glob("*.py"))
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in operation_dispatches(path)]
    cli = (SRC / "cli.py").read_text(encoding="utf-8").splitlines()
    sites = [f"cli.py:{i}" for i, line in enumerate(cli, 1)
             if any(test in line for test in CLI_KIND_TESTS)]
    assert len(sites) == len(CLI_KIND_TESTS)
    assert found == sites


def test_dispatch_guard_sees_a_dispatch(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def f(pm):\n"
                    "    if isinstance(pm, (int, maxitive.DiscreteChain)):\n"
                    "        return isinstance(pm, Minimum)\n"
                    "    flag = pm.name == \"min\" or pm.kind == \"measure\" or \"min\" != pm.kind\n"
                    "    return isinstance(pm, PseudoMul)\n", encoding="utf-8")
    assert operation_dispatches(path) == ["probe.py:2", "probe.py:3", "probe.py:4"]


class SubclassedProduct(StandardProduct):
    pass


def test_spec_forms():
    chain = DiscreteChain.clamped_product(["0", "1", "2", "inf"])
    assert StandardProduct().spec_form() == "times"
    assert SubclassedProduct().spec_form() == "times"  # rendered as its named base
    assert Minimum().spec_form() == "min"
    assert chain.spec_form()["chain"]["identity"] == "1"
    assert CustomContinuous(float_times, identity=1).spec_form() is None
    assert WrittenProduct().spec_form() is None


# -- products and sup_products: held to the base and the literal loops ---------

SUP_POOL = [ZERO, INF] + [ExtNonneg(Fraction(p, 1 << q)) for p in range(1, 17) for q in range(4)]


def int_floor(s, t):
    """The floor of a finite product as an int, and inf for an infinite one."""
    p = float_times(s, t)
    return math.floor(p) if math.isfinite(p) else p


def inf_above_four(s, t):
    p = float_times(s, t)
    return math.inf if p > 4.0 else p


def custom_cases():
    for fn in (float_times, int_floor, inf_above_four, doubled, saturating, tiny):
        yield CustomContinuous(fn, identity=1, name=fn.__name__)


class CountingMin(Minimum):
    """The minimum, counting its ⊙ calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def omul(self, s, t):
        self.calls += 1
        return super().omul(s, t)


def times_cases():
    yield from (StandardProduct(), SubclassedProduct(), CountingTimes())


def min_cases():
    yield from (Minimum(), CountingMin())


class CountingChain(DiscreteChain):
    """A chain, counting its ⊙ calls."""

    def __init__(self, carrier, table, identity):
        super().__init__(carrier, table, identity)
        self.calls = 0

    def omul(self, s, t):
        self.calls += 1
        return super().omul(s, t)


def shuffled_chain(pm, rng):
    """pm again, built from rows that follow a shuffled carrier."""
    order = list(pm.carrier)
    rng.shuffle(order)
    return DiscreteChain(order, [[pm(a, b) for b in order] for a in order], pm.identity)


def chain_cases():
    rng = random.Random(22)
    clamped = DiscreteChain.clamped_product(["0", "1/2", "1", "2", "inf"])
    yield clamped
    yield shuffled_chain(clamped, rng)
    carrier = (0, 1, "3/2", 4)
    left = DiscreteChain(carrier, [[a if b else 0 for b in carrier] for a in carrier], 1)
    yield left  # a ⊙ b = a for b > 0: the order of the arguments shows
    yield shuffled_chain(left, rng)
    for _ in range(8):
        pm = random_chain(rng)
        yield pm
        yield shuffled_chain(pm, rng)
    yield CountingChain(clamped.carrier, [[clamped(a, b) for b in clamped.carrier]
                                          for a in clamped.carrier], clamped.identity)


# Every class of the package that overrides products, with the instances
# on which its override is held to the base loop and sup_products to the
# literal one: among them a subclass that redefines omul, which keeps the
# base loop.
OVERRIDES = {CustomContinuous: custom_cases, StandardProduct: times_cases,
             Minimum: min_cases, DiscreteChain: chain_cases}


def pool_of(pm):
    """The values pm's products are drawn from: a chain's carrier, else SUP_POOL."""
    return list(pm.carrier) if isinstance(pm, DiscreteChain) else SUP_POOL


def random_pairs(rng, size, pool=SUP_POOL):
    return [rng.choice(pool) for _ in range(size)], [rng.choice(pool) for _ in range(size)]


def all_pool_pairs(pool=SUP_POOL):
    """Every ordered pair of the pool (SUP_POOL: 0 and ∞ among them)."""
    return [a for a in pool for _ in pool], pool * len(pool)


def pairs_of(values):
    """The integer pairs (n, d) that products reads and returns."""
    return [(v._n, v._d) for v in values]


def values_of(pairs):
    """The values of integer pairs, in lowest terms or not."""
    return [ext_ratio(n, d) for n, d in pairs]


@pytest.mark.parametrize("cls", list(OVERRIDES), ids=lambda cls: cls.__name__)
def test_sup_products_override_equals_the_base_loop(cls):
    """sup_products, the base class's max over each override of products,
    against the literal loop over omul."""
    rng = random.Random(15)
    seen = set()
    for pm in OVERRIDES[cls]():
        pool = pool_of(pm)
        top = pool[-1] if pool is not SUP_POOL else INF
        assert pm.sup_products([], []) == literal_sup(pm, [], []) == ZERO
        for _ in range(150):
            lefts, rights = random_pairs(rng, rng.randint(1, 10), pool)
            got = pm.sup_products(iter(lefts), iter(rights))
            assert got == literal_sup(pm, lefts, rights), (pm.describe(), lefts, rights)
            seen.add(got)
        for lefts, rights in [([ZERO, top], [top, ZERO]), ([top], [top]), all_pool_pairs(pool)]:
            got = pm.sup_products(lefts, rights)
            assert got == literal_sup(pm, lefts, rights), (pm.describe(), lefts, rights)
            seen.add(got)
    assert {ZERO, INF} < seen and any(not float(v).is_integer() for v in seen)


@pytest.mark.parametrize("cls", list(OVERRIDES), ids=lambda cls: cls.__name__)
def test_sup_products_builds_one_value_and_none_for_zero(cls, monkeypatch):
    """Over a closed form, the max is one value built from the largest
    product's pair, or ZERO itself, none built, when no product is positive."""
    made = []
    real_new, real_init = extreal._new, ExtNonneg.__init__

    def counted_new(kind):
        made.append(kind)
        return real_new(kind)

    def counted_init(self, value):
        made.append(value)
        real_init(self, value)
    monkeypatch.setattr(extreal, "_new", counted_new)
    monkeypatch.setattr(ExtNonneg, "__init__", counted_init)
    rng = random.Random(25)
    for pm in OVERRIDES[cls]():
        if not pm._omul_is(cls):
            continue
        pool = pool_of(pm)
        cases = [random_pairs(rng, rng.randint(1, 10), pool) for _ in range(30)]
        cases += [([], []), ([ZERO] * 3, pool[-3:]), (pool[-3:], [ZERO] * 3)]
        for lefts, rights in cases:
            made.clear()
            got = pm.sup_products(lefts, rights)
            built = len(made)
            assert got == literal_sup(pm, lefts, rights)
            assert (got is ZERO and built == 0) if got == ZERO else built == 1, pm.describe()


@pytest.mark.parametrize("cls", list(OVERRIDES), ids=lambda cls: cls.__name__)
def test_products_override_equals_the_base_loop(cls):
    assert "products" in cls.__dict__
    rng = random.Random(17)
    for pm in OVERRIDES[cls]():
        pool = pool_of(pm)
        assert list(pm.products([], [])) == []
        for _ in range(150):
            lefts, rights = map(pairs_of, random_pairs(rng, rng.randint(1, 10), pool))
            got = values_of(pm.products(iter(lefts), iter(rights)))
            assert got == values_of(PseudoMul.products(pm, lefts, rights)), (lefts, rights)
        lefts, rights = map(pairs_of, all_pool_pairs(pool))
        got = values_of(pm.products(lefts, rights))
        assert got == values_of(PseudoMul.products(pm, lefts, rights))
        assert got[1] == got[len(pool)] == ZERO  # 0 ⊙ pool[1] and pool[1] ⊙ 0, ∞ in SUP_POOL
        if pool is SUP_POOL and cls is not CustomContinuous:
            assert INF in got


def test_times_products_are_unreduced_pairs():
    pm = StandardProduct()
    lefts = [(2, 3), (0, 1), (1, 0), (1, 0), (4, 2)]
    rights = [(3, 2), (1, 0), (0, 1), (1, 0), (3, 1)]
    assert pm.products(lefts, rights) == [(6, 6), (0, 1), (0, 1), (1, 0), (12, 2)]


@pytest.mark.parametrize("pm", [CountingTimes(), CountingMin()], ids=["times", "min"])
def test_a_subclass_that_redefines_omul_keeps_the_per_pair_loop(pm):
    lefts, rights = random_pairs(random.Random(18), 40)
    base = type(pm).__mro__[1]()
    pm.calls = 0
    assert pm.sup_products(lefts, rights) == base.sup_products(lefts, rights)
    assert pm.calls == 40
    lefts, rights = pairs_of(lefts), pairs_of(rights)
    products = pm.products(lefts, rights)
    assert pm.calls == 40  # lazy: nothing is called before it is read
    assert values_of(products) == values_of(base.products(lefts, rights))
    assert pm.calls == 80


def test_a_chain_subclass_that_redefines_omul_keeps_the_per_pair_loop():
    pm = list(chain_cases())[-1]
    assert type(pm) is CountingChain
    lefts, rights = random_pairs(random.Random(23), 40, pool_of(pm))
    plain = DiscreteChain(pm.carrier, [[pm(a, b) for b in pm.carrier] for a in pm.carrier],
                          pm.identity)
    pm.calls = 0
    assert pm.sup_products(lefts, rights) == plain.sup_products(lefts, rights)
    assert pm.calls == 40
    lefts, rights = pairs_of(lefts), pairs_of(rights)
    assert values_of(pm.products(lefts, rights)) == values_of(plain.products(lefts, rights))
    assert pm.calls == 80


@pytest.mark.parametrize("k", range(6))
def test_chain_closed_forms_fault_off_the_carrier_where_the_loop_does(k):
    pm = DiscreteChain.clamped_product(["0", "1/2", "1", "2", "inf"])
    lefts, rights = random_pairs(random.Random(24 + k), 6, pool_of(pm))
    lefts[k] = ExtNonneg("3/7")
    got = outcome(pm.sup_products, lefts, rights)
    assert got == outcome(literal_sup, pm, lefts, rights)
    assert got[:2] == ("raises", CarrierDomainError)
    received = []
    with pytest.raises(CarrierDomainError, match="^3/7 is not in the chain carrier"):
        received.extend(pm.products(pairs_of(lefts), pairs_of(rights)))
    assert values_of(received) == [pm(s, t) for s, t in zip(lefts[:k], rights[:k])]
    # a pair not in lowest terms is no key, and is read as its value
    assert values_of(pm.products([(2, 2), (4, 2), (6, 0)], [(4, 2), (0, 5), (1, 2)])) == [
        ExtNonneg(2), ZERO, INF]


def test_finiteness_probes_are_pairs_of_the_documented_values():
    dyadic = [ExtNonneg(Fraction(1, 2 ** k)) for k in range(0, 61, 6)]
    for pm in (StandardProduct(), Minimum(), WrittenProduct()):
        for t in (ZERO, ExtNonneg("2/3"), ExtNonneg(5), INF):
            adapted = [pm.identity / (ExtNonneg(2) * t)] if t.is_finite and not t.is_zero else []
            assert values_of(pm.finiteness_probes(t)) == dyadic + [pm.identity] + adapted
    chain = DiscreteChain.clamped_product(["0", "1/2", "1", "2", "inf"])
    assert values_of(chain.finiteness_probes(ONE)) == list(chain.carrier[1:])
    custom = CustomContinuous(float_times, identity=1)
    assert values_of(custom.finiteness_probes(ONE)) == [ExtNonneg(2.0 ** -k)
                                                        for k in range(0, 61, 4)]


# How each class of OVERRIDES is built anew, once its omul is wrapped.
MAKERS = {StandardProduct: StandardProduct, Minimum: Minimum,
          CustomContinuous: lambda: CustomContinuous(float_times, 1),
          DiscreteChain: lambda: DiscreteChain.clamped_product(["0", "1/2", "1", "2", "inf"])}


@pytest.mark.parametrize("cls", list(OVERRIDES), ids=lambda cls: cls.__name__)
def test_closed_forms_follow_the_class_omul_not_a_wrapper_of_it(cls, monkeypatch):
    make = MAKERS[cls]
    lefts, rights = all_pool_pairs(pool_of(make()))
    want = values_of(PseudoMul.products(make(), pairs_of(lefts), pairs_of(rights)))
    calls = []
    own = cls.omul

    def wrapped(self, s, t):  # the class's own ⊙, wrapped in place as a tracer does
        calls.append((s, t))
        return own(self, s, t)
    monkeypatch.setattr(cls, "omul", wrapped)
    pm = make()
    assert values_of(pm.products(pairs_of(lefts), pairs_of(rights))) == want
    assert pm.sup_products(lefts, rights) == max(want)
    assert calls == []

    def counted(s, t):  # an instance whose omul is replaced keeps the loops
        calls.append((s, t))
        return own(pm, s, t)
    pm.omul = counted
    assert values_of(pm.products(pairs_of(lefts), pairs_of(rights))) == want
    assert pm.sup_products(lefts, rights) == max(want)
    assert len(calls) == 2 * len(want)


@pytest.mark.parametrize("k", range(8))
def test_the_lazy_base_stops_at_a_raising_pair(k):
    # the custom closed form and the base loop alike
    lefts, rights = map(pairs_of, random_pairs(random.Random(19), 8))
    for products_of in (CustomContinuous.products, PseudoMul.products):
        fn = FaultyMap(k, ValueError("map undefined here"))
        products = products_of(CustomContinuous(fn, 1), lefts, rights)
        assert fn.calls == 0
        got = []
        with pytest.raises(ValueError, match="map undefined here"):
            got.extend(products)
        assert fn.calls == k + 1
        times = CustomContinuous(float_times, 1)
        assert values_of(got) == [times.omul(ext_ratio(*s), ext_ratio(*t))
                                  for s, t in zip(lefts[:k], rights[:k])]


FAULTS = [math.nan, -1.0, -math.inf, True, None, "2",
          ValueError("map undefined here"), ZeroDivisionError("float division by zero"),
          OverflowError("math range error")]


@pytest.mark.parametrize("fault", FAULTS, ids=repr)
def test_sup_products_refuses_a_bad_value_at_the_same_pair(fault):
    rng = random.Random(16)
    for k in range(8):
        lefts, rights = random_pairs(rng, 8)
        ours, base = FaultyMap(k, fault), FaultyMap(k, fault)
        got = outcome(CustomContinuous(ours, 1).sup_products, lefts, rights)
        want = outcome(literal_sup, CustomContinuous(base, 1), lefts, rights)
        assert got == want and got[0] == "raises", (k, got, want)
        assert ours.calls == base.calls == k + 1


def method_overrides(root: type, module: str, method: str = "sup_products") -> set:
    """The subclasses of ``root`` defined in ``module`` or its submodules
    that define ``method`` themselves."""
    found, pending = set(), [root]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if (cls is not root and method in cls.__dict__
                and (cls.__module__ == module or cls.__module__.startswith(module + "."))):
            found.add(cls)
    return found


def package_overrides(method: str) -> set:
    for info in pkgutil.iter_modules(maxitive.__path__):
        importlib.import_module(f"maxitive.{info.name}")
    return method_overrides(PseudoMul, "maxitive", method)


def test_no_class_of_the_package_overrides_sup_products():
    # the max is taken once, on the base class, over each class's products
    assert package_overrides("sup_products") == set()


def test_every_products_override_is_held_to_the_base_loop():
    overrides = package_overrides("products")
    assert {StandardProduct, Minimum, CustomContinuous, DiscreteChain} <= overrides
    assert overrides <= set(OVERRIDES), "add each new override to OVERRIDES"


def test_override_guard_sees_an_override():
    class Probe(StandardProduct):
        def sup_products(self, lefts, rights):
            return INF

    class Heir(Probe):
        pass

    assert method_overrides(PseudoMul, __name__) == {Probe}


def test_products_override_guard_sees_an_override():
    class ProductsProbe(Minimum):
        def products(self, lefts, rights):
            return []

    class Heir(ProductsProbe):
        pass

    assert method_overrides(PseudoMul, __name__, "products") == {ProductsProbe}
