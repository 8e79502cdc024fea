"""Spec document parsing, located errors, and the canonical roundtrip."""

import pytest

from maxitive import (
    INF,
    DiscreteChain,
    ExtNonneg,
    Minimum,
    SpecValidationError,
    StandardProduct,
    parse_spec,
)
from maxitive.spaces import NUMBER_DIGITS_CAP
from maxitive.specdoc import SpecDoc


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
    text = '{"space": {"atoms": ["a"]}, "measures": {"m": {"a": "1"}}, "measures": {"m": {"a": "2"}}}'
    with pytest.raises(SpecValidationError) as err:
        parse_spec(text)
    assert "duplicate" in str(err.value)


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
