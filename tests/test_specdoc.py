"""Spec document parsing, located errors, and the canonical roundtrip."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxitive.extreal as extreal
import maxitive.specdoc as specdoc

from maxitive import (
    INF,
    ONE,
    CustomContinuous,
    DiscreteChain,
    ExtNonneg,
    Minimum,
    Space,
    SpecValidationError,
    StandardProduct,
    parse_spec,
)
from maxitive.cli import main
from maxitive.spaces import NUMBER_DIGITS_CAP
from maxitive.specdoc import SpecDoc

from conftest import scan_free


MINIMAL = {
    "space": {"atoms": ["a"]},
    "pseudo_mul": "times",
    "measures": {"mu": {"a": "1"}},
}


def _issues(source):
    with pytest.raises(SpecValidationError) as err:
        parse_spec(source)
    return {(i.path, i.message) for i in err.value.issues}, err.value.issues


def test_minimal_document():
    doc = parse_spec(MINIMAL)
    assert doc.space.atoms == ("a",)
    assert isinstance(doc.pseudo_mul, StandardProduct)
    assert doc.measures["mu"].mass("a") == ExtNonneg(1)


def test_full_document():
    doc = parse_spec({
        "space": {"atoms": ["a", "b"]},
        "pseudo_mul": "min",
        "measures": {"tau": {"a": "2", "b": "inf"}},
        "functions": {"f": {"a": "1/3", "b": "0.5"}},
        "ideals": {"I": [["a"]], "J": ["a", "b"]},
    })
    assert isinstance(doc.pseudo_mul, Minimum)
    assert doc.measures["tau"].mass("b") == INF
    assert doc.functions["f"]("b") == ExtNonneg("1/2")
    assert doc.ideals["I"].top == doc.space.subset(["a"])
    assert doc.ideals["J"].top == doc.space.full  # flat list = one generator set


def test_chain_document_and_identity_inference():
    doc = parse_spec({
        "space": {"atoms": ["a"]},
        "pseudo_mul": {"chain": {
            "carrier": ["0", "1", "2", "inf"],
            "table": [["0", "0", "0", "0"],
                      ["0", "1", "2", "inf"],
                      ["0", "2", "2", "inf"],
                      ["0", "inf", "inf", "inf"]],
        }},
    })
    chain = doc.pseudo_mul
    assert isinstance(chain, DiscreteChain)
    assert chain.identity == ExtNonneg(1)  # inferred from the table
    assert chain(ExtNonneg(2), ExtNonneg(2)) == ExtNonneg(2)


def test_a_custom_operation_has_no_file_form():
    doc = SpecDoc(Space(["a"]), CustomContinuous(min, ONE))
    with pytest.raises(ValueError, match=r"^custom\(custom\) has no file representation "
                                         r"\(library-only\)$"):
        doc.render()


def test_negative_mass_located():
    issues, _ = _issues({**MINIMAL, "measures": {"mu": {"a": "-1"}}})
    assert any(path == "measures.mu.a" for path, _ in issues)


def test_float_mass_rejected():
    issues, _ = _issues({**MINIMAL, "measures": {"mu": {"a": 0.5}}})
    assert any(path == "measures.mu.a" and "float" in msg for path, msg in issues)


def test_missing_and_unknown_atoms_located():
    issues, _ = _issues({
        "space": {"atoms": ["a", "b"]},
        "measures": {"mu": {"a": "1", "z": "2"}},
    })
    paths = {path for path, _ in issues}
    assert "measures.mu.b" in paths  # missing
    assert "measures.mu.z" in paths  # unknown


def test_chain_wrong_arity_located():
    issues, _ = _issues({
        "space": {"atoms": ["a"]},
        "pseudo_mul": {"chain": {"carrier": ["0", "1"], "table": [["0", "0"]]}},
    })
    assert any("2 rows" in msg for _, msg in issues)


def test_unknown_pseudo_mul_located():
    issues, _ = _issues({**MINIMAL, "pseudo_mul": "plus"})
    assert any(path == "pseudo_mul" for path, _ in issues)


def test_integer_masses_are_bounded_as_number_strings_are():
    least_long = 10 ** NUMBER_DIGITS_CAP  # NUMBER_DIGITS_CAP + 1 digits
    doc = parse_spec({**MINIMAL, "measures": {"mu": {"a": least_long - 1}}})
    assert doc.measures["mu"].mass("a") == ExtNonneg(least_long - 1)
    for mass in (least_long, -least_long):
        issues, _ = _issues({**MINIMAL, "measures": {"mu": {"a": mass}}})
        with pytest.raises(ValueError) as as_string:
            ExtNonneg(str(mass))
        assert issues == {("measures.mu.a", str(as_string.value))}


def test_duplicate_keys_detected():
    for text, key in [
        ('{"space": {"atoms": ["a"]}, "measures": {"m": {"a": "1"}}, "measures": {"m": {"a": "2"}}}',
         "measures"),
        # a repeated atom inside one measure, after a key that does not repeat
        ('{"space": {"atoms": ["a", "b"]}, "measures": {"tau": {"a": "1", "b": "2", "b": "3"}}}',
         "b"),
    ]:
        with pytest.raises(SpecValidationError) as err:
            parse_spec(text)
        assert f"duplicate key {key!r}" in str(err.value)


def test_error_collection_is_complete():
    _, issues = _issues({
        "space": {"atoms": ["a"]},
        "pseudo_mul": "plus",
        "measures": {"m": {"a": "-3"}},
        "functions": {"f": {"a": "nan"}},
        "extra": 1,
    })
    assert len(issues) >= 4


def test_parse_render_parse_identity():
    docs = [
        MINIMAL,
        {"space": {"atoms": ["x", "y"]}},  # no pseudo_mul section at all
        {
            "space": {"atoms": ["a", "b", "c"]},
            "pseudo_mul": {"chain": {
                "carrier": ["0", "1", "2", "inf"],
                "table": [["0", "0", "0", "0"],
                          ["0", "1", "2", "inf"],
                          ["0", "2", "2", "inf"],
                          ["0", "inf", "inf", "inf"]],
                "identity": "1"}},
            "measures": {"tau": {"a": "2", "b": "inf", "c": "0"},
                         "nu": {"a": "1", "b": "1", "c": "1/3"}},
            "functions": {"f": {"a": "0.25", "b": "7", "c": "inf"}},
            "ideals": {"I": [["a"], ["b"]]},
        },
    ]
    for raw in docs:
        doc = parse_spec(raw)
        again = parse_spec(doc.render())
        assert doc == again
        assert doc.render() == again.render()


def test_masses_are_canonicalized():
    doc = parse_spec({**MINIMAL, "measures": {"mu": {"a": "0.5"}}})
    assert doc.to_jsonable()["measures"]["mu"]["a"] == "1/2"


def test_path_loading(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"space": {"atoms": ["a"]}}')
    doc = parse_spec(path)
    assert isinstance(doc, SpecDoc)
    assert doc.pseudo_mul is None


def test_missing_path_is_a_located_read_error(tmp_path, monkeypatch):
    missing = tmp_path / "doc.json"
    for source in (str(missing), missing):
        issues, _ = _issues(source)
        assert issues == {(str(missing), "cannot read the file: No such file or directory")}
    monkeypatch.chdir(tmp_path)
    issues, _ = _issues("doc.json")
    assert issues == {("doc.json", "cannot read the file: No such file or directory")}


def test_json_text_is_told_by_its_first_character():
    assert parse_spec('\n  {"space": {"atoms": ["a"]}}').space.atoms == ("a",)
    issues, _ = _issues("  [1, 2]")
    assert issues == {("$", "document must be a JSON object")}
    issues, _ = _issues('{"space": ')
    assert {path for path, _ in issues} == {"$"}


@pytest.mark.parametrize("section, raw", [
    ("measures", [1]), ("functions", "f"), ("ideals", 5), ("measures", None), ("ideals", [])])
def test_a_section_that_is_not_an_object_is_located(section, raw):
    issues, _ = _issues({**MINIMAL, section: raw})
    assert issues == {(section, f"expected an object mapping names to {section}")}


def test_ideal_generators_of_any_json_are_located():
    issues, _ = _issues({**MINIMAL, "ideals": {"I": [["a", [1], {"x": 2}, None, 5]]}})
    assert issues == {("ideals.I[0]", "unknown atoms [[1], {'x': 2}, None, 5]")}


def test_ideal_generators_are_looked_up_not_scanned(monkeypatch):
    monkeypatch.setattr(specdoc, "Space", lambda atoms: scan_free(Space(atoms)))
    doc = {"space": {"atoms": ["a", "b", "c"]}, "measures": {"mu": {"a": 1, "b": 2, "c": 0}},
           "ideals": {"I": [["a"], ["c", "b"]]}}
    parsed = parse_spec(doc)
    assert parsed.ideals["I"].top == parsed.space.full
    issues, _ = _issues({**doc, "ideals": {"I": [["a", "z", 1]]}})
    assert issues == {("ideals.I[0]", "unknown atoms ['z', 1]")}


# -- one read path for number strings ---------------------------------------------

# Spellings a spec document may hold: plain and ratio strings, and every
# other form the general route takes or refuses.
NUMBER_CORPUS = [
    "0", "7", "007", "10", "1/3", "6/4", "0/5", "01/02", "007/010", "1/1",
    "1/0", "0/0", "1/2/3", "/3", "3/", "+1/2", "1/-2", "-1", "-0", "-1/2",
    " 7", "7 ", "\t1/3\n", "1 / 3", "1_0", "1_0/3", "0.25", ".5", "5.", "1.5/2",
    "1e3", "1E-3", "2.5e+1", "1e1000", "inf", "INF", " Infinity ", "oo", "∞", "-inf", "nan",
    "\u0661/\u0662", "\u0663\u0660", "\u00b2", "\uff11", "", " ", "x", "1/x", "0x10",
    "9" * NUMBER_DIGITS_CAP, "1/" + "7" * (NUMBER_DIGITS_CAP - 2), "9" * (NUMBER_DIGITS_CAP + 1),
    "1/" + "3" * NUMBER_DIGITS_CAP, "1e5000", "1e-1001",
]
INF_NAMES = {"inf", "infinity", "oo", "∞"}


def fraction_reading(text):
    """ExtNonneg(Fraction(text)) for a text within the number caps, or None where
    Fraction refuses it or reads a negative number; "inf" and its names are ∞."""
    s = text.strip().lower()
    if s in INF_NAMES:
        return INF
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None
    return ExtNonneg(q) if q >= 0 else None


def within_caps(text):
    s = text.strip().lower()
    exponent = s.partition("e")[2].lstrip("+-") if "e" in s else ""
    return len(s) <= NUMBER_DIGITS_CAP and not (exponent.isdecimal()
                                                 and int(exponent) > NUMBER_DIGITS_CAP)


def assert_read_once_as_fraction_reads(text):
    """The value ExtNonneg and the spec parser give ``text``, at two atoms of
    one document, is Fraction's; a refusal is ExtNonneg's message at each atom."""
    doc = {"space": {"atoms": ["a", "b"]}, "measures": {"m": {"a": text, "b": text}}}
    expected = fraction_reading(text) if within_caps(text) else None
    if expected is not None:
        assert ExtNonneg(text) == expected
        assert parse_spec(doc).measures["m"].masses == (expected, expected)
        return
    with pytest.raises(ValueError) as refused:
        ExtNonneg(text)
    _, issues = _issues(doc)
    assert [(i.path, i.message) for i in issues] == [
        ("measures.m.a", str(refused.value)), ("measures.m.b", str(refused.value))]


@pytest.mark.parametrize("text", NUMBER_CORPUS)
def test_number_strings_read_as_fraction_reads_them(text):
    assert_read_once_as_fraction_reads(text)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(
    st.from_regex(r"\A[0-9]{1,30}(/[0-9]{1,30})?\Z"),
    st.text(alphabet="0123456789/._+- \t\n\u0660\u0661\u0662\u00b2\uff11", max_size=10)))
def test_drawn_number_strings_read_as_fraction_reads_them(text):
    assert_read_once_as_fraction_reads(text)


def test_a_bad_string_is_reported_at_every_place_it_stands():
    bad = "1/0"
    with pytest.raises(ValueError) as refused:
        ExtNonneg(bad)
    message = str(refused.value)
    _, issues = _issues({
        "space": {"atoms": ["a", "b"]},
        "pseudo_mul": {"chain": {"carrier": ["0", "1", "2"],
                                 "table": [["0", "0", "0"], ["0", "1", bad], ["0", bad, "2"]]}},
        "measures": {"tau": {"a": bad, "b": bad}, "nu": {"a": "2", "b": bad}},
    })
    # each cell and each atom is read on its own
    assert [(i.path, i.message) for i in issues] == [
        ("pseudo_mul.chain.table[1][2]", message), ("pseudo_mul.chain.table[2][1]", message),
        ("measures.tau.a", message),
        ("measures.tau.b", message), ("measures.nu.b", message)]


def test_a_chain_reports_every_bad_carrier_entry_row_and_cell():
    _, issues = _issues({**MINIMAL, "pseudo_mul": {"chain": {
        "carrier": ["0", "x", "2", "y"],
        "table": [["0", "1", "0", "0"], ["0", "1", "2"], ["0", "2", "z", "2"], 5]}}})
    # the carrier did not parse, so no cell is held to it: "1" is no issue
    assert [i.path for i in issues] == [
        "pseudo_mul.chain.carrier[1]", "pseudo_mul.chain.carrier[3]",
        "pseudo_mul.chain.table[1]", "pseudo_mul.chain.table[2][2]", "pseudo_mul.chain.table[3]"]
    assert issues[2].message == issues[4].message == "expected 4 entries"
    _, issues = _issues({**MINIMAL, "pseudo_mul": {"chain": {
        "carrier": ["0", "1"], "table": [["0", "3"], ["4", "1"]], "identity": "-1"}}})
    assert [(i.path, i.message) for i in issues][:2] == [
        ("pseudo_mul.chain.table[0][1]", "value 3 is not a carrier element"),
        ("pseudo_mul.chain.table[1][0]", "value 4 is not a carrier element")]
    assert [i.path for i in issues[2:]] == ["pseudo_mul.chain.identity"]


def test_a_repeated_cell_outside_the_carrier_is_refused():
    _, issues = _issues({**MINIMAL, "pseudo_mul": {"chain": {
        "carrier": ["0", "1"], "table": [["0", "0"], ["0", "2"]]}}})
    assert [(i.path, i.message) for i in issues] == [
        ("pseudo_mul.chain.table[1][1]", "value 2 is not a carrier element")]


def test_chain_rows_are_read_in_the_carrier_order_as_written():
    written = parse_spec({**MINIMAL, "pseudo_mul": {"chain": {
        "carrier": ["inf", "1", "0", "2"],
        "table": [["inf", "inf", "0", "inf"], ["inf", "1", "0", "2"],
                  ["0", "0", "0", "0"], ["inf", "2", "0", "2"]]}}})
    chain = parse_spec(MINIMAL | {"pseudo_mul": {"chain": {
        "carrier": ["0", "1", "2", "inf"],
        "table": [["0", "0", "0", "0"], ["0", "1", "2", "inf"],
                  ["0", "2", "2", "inf"], ["0", "inf", "inf", "inf"]]}}}).pseudo_mul
    assert written.pseudo_mul.spec_form() == chain.spec_form()
    assert written.pseudo_mul.identity == ExtNonneg(1)


def test_a_document_of_plain_and_ratio_strings_builds_no_fraction(monkeypatch):
    atoms = [f"x{i}" for i in range(20)]

    def masses(shift):
        return {a: "inf" if i == shift else f"{i + shift}" if i % 2 else f"{i + shift}/{i % 7 + 2}"
                for i, a in enumerate(atoms)}

    text = json.dumps({"space": {"atoms": atoms}, "pseudo_mul": "times",
                       "measures": {"tau": masses(0), "nu": masses(3)},
                       "functions": {"f": masses(5)}, "ideals": {"I": [atoms[:4]]}})
    seven_sixths = ExtNonneg(Fraction(7, 6))
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(extreal, "Fraction", CountingFraction)
    doc = parse_spec(text)
    assert made == []
    assert doc.measures["nu"].mass("x4") == seven_sixths
    ExtNonneg("0.5")  # the general route does build one, so the patch is seen
    assert len(made) == 1


def _chain(chain) -> dict:
    return {**MINIMAL, "pseudo_mul": {"chain": chain}}


# One document per located issue the parser raises alone, with that issue.
LOCATED = [
    (_chain(5), "pseudo_mul.chain", "chain spec must be an object"),
    (_chain({"carrier": [], "table": []}), "pseudo_mul.chain.carrier", "expected a nonempty list"),
    (_chain({"carrier": ["0", "1", "1/1"], "table": []}), "pseudo_mul.chain.carrier",
     "carrier elements must be distinct"),
    (_chain({"carrier": ["0", "1"], "table": [["0", "0"], ["0", "0"]]}), "pseudo_mul.chain",
     "table has no left identity; give one explicitly"),
    (_chain({"carrier": ["0", "1", "2", "inf"],
             "table": [["0", "0", "0", "0"], ["0", "1", "2", "inf"],
                       ["0", "1", "2", "inf"], ["0", "inf", "inf", "inf"]]}),
     "pseudo_mul.chain", "table has several left identities (1, 2); give one explicitly"),
    (_chain({"carrier": ["1", "inf"], "table": [["1", "inf"], ["inf", "inf"]]}),
     "pseudo_mul.chain", "chain carrier must contain 0"),
    (_chain({"carrier": ["0"], "table": [["0"]], "identity": "0"}),
     "pseudo_mul.chain", "chain carrier needs at least two elements"),
    ({**MINIMAL, "measures": {"m": ["1"]}}, "measures.m",
     "expected an object mapping atoms to values"),
    ({**MINIMAL, "space": {"atoms": []}}, "space.atoms", "expected a nonempty list of labels"),
    ({**MINIMAL, "space": {"atoms": ["a", "a"]}}, "space.atoms", "atom labels must be distinct"),
]


@pytest.mark.parametrize("source, path, message", LOCATED, ids=[m for _, _, m in LOCATED])
def test_each_located_issue_has_its_path_and_message(source, path, message):
    _, issues = _issues(source)
    assert [(i.path, i.message) for i in issues] == [(path, message)]


@pytest.mark.parametrize("source, path, message", [LOCATED[4], LOCATED[9]],
                         ids=["several-identities", "repeated-atoms"])
def test_a_located_issue_exits_2_through_the_cli(source, path, message, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(source))
    assert main(["validate-op", "--space-file", str(doc)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"invalid spec document:\n  {path}: {message}\n"
