import pytest
from conftest import data_path

from suturekup import ExteriorAlgebra, LaurentRing, NumberField, QQ, Representation
from suturekup.files import (
    canonical_json,
    detect_input,
    diagram_from_data,
    diagram_to_data,
    load_diagram,
    representation_from_data,
)


def test_detect_input(tmp_path):
    d = tmp_path / "d.json"
    d.write_text(canonical_json(diagram_to_data(load_diagram(data_path("trefoil.json")))))
    assert detect_input(str(d)) == "diagram"
    p = tmp_path / "p.json"
    p.write_text(canonical_json({"generators": ["g"], "closed_count": 1,
                                 "relators": ["g"]}))
    assert detect_input(str(p)) == "presentation"
    bad = tmp_path / "x.json"
    bad.write_text("{}")
    with pytest.raises(ValueError):
        detect_input(str(bad))


@pytest.mark.parametrize("extra", [{}, {"min_poly": [0, 1]}], ids=["absent", "linear"])
def test_rational_representation_shares_qq(extra):
    # Q is one constant, and a field of higher degree is built once per process
    doc = {"dimension": 1, "generators": {"a": [["2"]]}, **extra}
    assert representation_from_data(doc).field is QQ
    doc["min_poly"] = [1, 1, 1]
    field = representation_from_data(doc).field
    assert field == NumberField([1, 1, 1])
    assert representation_from_data(dict(doc, generators={"b": [["x"]]})).field is field
    doc["min_poly"] = [1, 0, 1]
    other = representation_from_data(doc).field
    assert other == NumberField([1, 0, 1]) and other is not field


@pytest.mark.parametrize("valid, refused", [
    ([0, 1], [0, True]),
    ([1, 1, 1], [1, True, 1]),
    ([1, 1], [1.0, 1]),
    ([1, 1, 1], "x^2 + x + 1"),
], ids=["bool-equal-to-q", "bool-equal-to-xi", "float", "string"])
def test_min_poly_equal_to_a_shared_one_is_still_refused(valid, refused):
    # each refused min_poly equals, or reads as, one whose field is already shared
    doc = {"dimension": 1, "min_poly": valid, "generators": {"a": [["2"]]}}
    representation_from_data(doc)
    with pytest.raises(ValueError) as err:
        representation_from_data(dict(doc, min_poly=refused))
    assert str(err.value) == f"min_poly must be a list of integers, not {refused!r}"


def counting_parse(monkeypatch):
    """The texts NumberField.parse is called with, in order, from now on."""
    texts, real = [], NumberField.parse

    def parse(field, text):
        texts.append(text)
        return real(field, text)

    monkeypatch.setattr(NumberField, "parse", parse)
    return texts


def test_repeated_entries_are_parsed_once_per_document(monkeypatch):
    xi = NumberField([1, 1, 1])
    doc = {"dimension": 2, "min_poly": [1, 1, 1],
           "generators": {"a": [["1", "0"], ["x", "1"]], "b": [["1", "x"], ["0", "1"]],
                          "c": [["-1/2 + x", 0], [0, "-1/2 + x"]]}}
    texts = counting_parse(monkeypatch)
    matrices = representation_from_data(doc).matrices
    assert sorted(texts) == ["-1/2 + x", "0", "1", "x"]
    assert matrices == {name: [[xi.parse(str(entry)) for entry in row] for row in rows]
                        for name, rows in doc["generators"].items()}


def test_repeated_bad_entry_gives_the_first_error():
    doc = {"dimension": 2, "generators": {"a": [["1", "y"], ["y", "1"]], "b": [["y", "1/0"]] * 2}}
    with pytest.raises(ValueError) as err:
        representation_from_data(doc)
    assert str(err.value) == "cannot parse field element 'y' at 'y'"


def test_documents_over_qq_parse_their_own_entries(monkeypatch):
    texts = counting_parse(monkeypatch)
    for entries in (["2", "3"], ["2", "5"]):
        del texts[:]
        doc = {"dimension": 2, "generators": {"a": [entries, entries[::-1]]}}
        matrix = representation_from_data(doc).matrices["a"]
        assert sorted(texts) == sorted(entries)
        assert matrix == [[QQ.parse(e) for e in entries], [QQ.parse(e) for e in entries[::-1]]]


def test_iterated_coproduct_rejects_negative():
    H = ExteriorAlgebra(2)
    with pytest.raises(ValueError):
        H.iterated_coproduct(H.cointegral(), -1)


def test_lambda_extend_rejects_wrong_size():
    from paper_laws import lambda_extend

    H = ExteriorAlgebra(2)
    with pytest.raises(ValueError):
        lambda_extend([[QQ.one]], H)


def test_lambda_extend_laurent_needs_unit_determinant():
    from paper_laws import lambda_extend

    ring = LaurentRing(QQ, 1)
    H = ExteriorAlgebra(1, ring)
    non_unit = ring.from_terms({(0,): QQ.one, (1,): QQ.one})
    with pytest.raises(ValueError):
        lambda_extend([[non_unit]], H)
    # a monomial determinant is fine
    from paper_laws import r_of

    unit = ring.monomial((2,), QQ.from_rational(3))
    assert r_of(lambda_extend([[unit]], H)) == unit


def test_singular_generator_matrix_rejected():
    with pytest.raises(ValueError):
        Representation(QQ, 2, [[[QQ.one, QQ.one], [QQ.one, QQ.one]]])


def test_diagram_from_data_tolerates_unreferenced_crossings():
    data = {
        "alpha_closed": [{"name": "alpha", "crossings": ["x1", "orphan"]}],
        "arcs": [],
        "beta": [{"name": "b", "crossings": [["x1", 1]], "basepoint_index": 0}],
    }
    D = diagram_from_data(data)
    from suturekup import validate

    assert not validate(D).valid
