import pytest
from conftest import data_path
from paper_laws import (
    Multipoint,
    basepoints_from_multipoint,
    beta_subword,
    enumerate_multipoints,
    epsilon_class,
    fox_consistency,
    move_basepoint,
    reverse_beta,
)

from suturekup import (
    GroupRingElement,
    QQ,
    Word,
    abelianize,
    presentation,
    random_datum,
    relator_word,
    validate,
)
from suturekup.diagram import (
    CLOSED,
    BetaCurve,
    Crossing,
    HeegaardDatum,
    Presentation,
)
from suturekup.files import load_diagram


def test_trefoil_valid():
    assert validate(load_diagram(data_path("trefoil.json"))).valid


def test_figure_eight_valid():
    assert validate(load_diagram(data_path("figure8.json"))).valid


def test_empty_datum_valid():
    D = HeegaardDatum([], [], [], {})
    assert validate(D).valid


def test_duplicate_beta_listing_invalid():
    c = {
        "x1": Crossing("x1", CLOSED, 0, 0, 1),
    }
    D = HeegaardDatum(
        [["x1"]], [], [BetaCurve(("x1", "x1"), 0)], c
    )
    report = validate(D)
    assert not report.valid
    assert any("x1" in e and "twice" in e for e in report.errors)


def test_missing_on_alpha_side_invalid():
    c = {"x1": Crossing("x1", CLOSED, 0, 0, 1)}
    D = HeegaardDatum([[]], [], [BetaCurve(("x1",), 0)], c)
    assert not validate(D).valid


def test_trefoil_relator_and_subwords():
    D = load_diagram(data_path("trefoil.json"))
    names = presentation(D).generator_names()
    assert relator_word(D, 0).format(names) == "a*alpha*a^-1*alpha^-1*a^-1*alpha"
    assert beta_subword(D, "x1").format(names) == "a"
    assert beta_subword(D, "x2").format(names) == "a*alpha*a^-1*alpha^-1"
    assert beta_subword(D, "x3").format(names) == "a*alpha*a^-1*alpha^-1*a^-1"


def test_first_positive_crossing_has_empty_subword():
    c = {"x1": Crossing("x1", CLOSED, 0, 0, 1)}
    D = HeegaardDatum([["x1"]], [], [BetaCurve(("x1",), 0)], c)
    assert not beta_subword(D, "x1").letters
    assert relator_word(D, 0) == Word.generator(0)


def test_beta_with_no_crossings():
    D = HeegaardDatum([[]], [], [BetaCurve((), 0)], {})
    assert not relator_word(D, 0).letters


def test_fox_consistency_fixtures():
    assert fox_consistency(load_diagram(data_path("trefoil.json")))
    assert fox_consistency(load_diagram(data_path("figure8.json")))


def test_fox_consistency_random():
    for seed in range(100):
        D = random_datum(seed, d=1 + seed % 2, l=seed % 3, max_crossings=5)
        assert validate(D).valid
        assert fox_consistency(D)


def test_trefoil_fox_derivative_matches_subwords():
    # the closed-generator Fox derivative is the signed sum of the subwords
    D = load_diagram(data_path("trefoil.json"))
    rel = relator_word(D, 0)
    from suturekup import fox_derivative

    total = GroupRingElement(QQ)
    for cid, sign in (("x1", 1), ("x2", -1), ("x3", 1)):
        coeff = QQ.one if sign == 1 else -QQ.one
        total = total + GroupRingElement(QQ, {beta_subword(D, cid): coeff})
    assert fox_derivative(rel, 0) == total


def test_basepoints_from_multipoint_rules():
    D = load_diagram(data_path("trefoil.json"))
    # x1 sits at cyclic position 1 and is positive: basepoint lands at 1
    m1 = Multipoint(("x1",))
    moved = basepoints_from_multipoint(D, m1)
    assert moved.betas[0].basepoint == 1
    # x2 at position 3 is negative: basepoint lands just after, at 4
    m2 = Multipoint(("x2",))
    moved2 = basepoints_from_multipoint(D, m2)
    assert moved2.betas[0].basepoint == 4
    # idempotence
    again = basepoints_from_multipoint(moved2, m2)
    assert again.betas[0].basepoint == moved2.betas[0].basepoint


def test_epsilon_class_properties():
    D = load_diagram(data_path("trefoil.json"))
    amap = abelianize(2, [relator_word(D, 0)])
    mps = enumerate_multipoints(D)
    assert len(mps) == 3
    x, y, z = mps
    assert epsilon_class(D, x, x, amap) == (0,) * amap.rank
    e_xy = epsilon_class(D, x, y, amap)
    e_yx = epsilon_class(D, y, x, amap)
    assert tuple(-v for v in e_xy) == e_yx
    e_yz = epsilon_class(D, y, z, amap)
    e_xz = epsilon_class(D, x, z, amap)
    assert tuple(a + b for a, b in zip(e_xy, e_yz)) == e_xz


def test_epsilon_after_rebasing_vanishes():
    for seed in range(20):
        D = random_datum(seed, d=2, l=1, max_crossings=4)
        mps = enumerate_multipoints(D, limit=1)
        if not mps:
            continue
        amap = abelianize(D.num_generators,
                          [relator_word(D, j) for j in range(D.d)])
        rebased = basepoints_from_multipoint(D, mps[0])
        assert epsilon_class(rebased, mps[0], mps[0], amap) == (0,) * amap.rank


def test_move_basepoint_word():
    D = load_diagram(data_path("trefoil.json"))
    moved, word = move_basepoint(D, 0, 2)
    names = D.generator_names()
    # crossings passed: y1 (+), x1 (+)
    assert word.format(names) == "a*alpha"
    assert moved.betas[0].basepoint == 2
    # moving around the full circle reads the whole relator
    _, full = move_basepoint(D, 0, 0)
    assert not full.letters


def test_reverse_beta_negates_letters():
    D = load_diagram(data_path("trefoil.json"))
    rev = reverse_beta(D, 0)
    orig = relator_word(D, 0)
    new = relator_word(rev, 0)
    # multiset of generators with negated signs matches
    from collections import Counter

    assert Counter((g, -e) for g, e in orig.letters) == Counter(new.letters)
    # and the reversed relator is the inverse word up to cyclic rotation
    inv = orig.inverse()
    k = len(inv)
    rotations = [
        Word(inv.letters[s:] + inv.letters[:s]) for s in range(k)
    ]
    assert new in rotations


def test_multipoint_validation():
    D = load_diagram(data_path("trefoil.json"))
    with pytest.raises(ValueError):
        Multipoint(("x1", "x2")).validate(D)
    with pytest.raises(ValueError):
        Multipoint(("y1",)).validate(D)


def test_random_datum_deterministic():
    a = random_datum(42, 2, 1, 4)
    b = random_datum(42, 2, 1, 4)
    assert a.alphas == b.alphas
    assert a.arcs == b.arcs
    assert [bc.crossings for bc in a.betas] == [bc.crossings for bc in b.betas]


# -- the record classes ---------------------------------------------------------


def test_records_compare_by_value_within_their_class():
    assert Crossing("x1", CLOSED, 0, 0, 1) == Crossing("x1", CLOSED, 0, 0, 1)
    assert Crossing("x1", CLOSED, 0, 0, 1) != Crossing("x1", CLOSED, 0, 0, -1)
    assert BetaCurve(("x1",), 0) == BetaCurve(("x1",))
    assert Multipoint(("x1",)) == Multipoint(("x1",))
    trefoil = load_diagram(data_path("trefoil.json"))
    assert trefoil == load_diagram(data_path("trefoil.json"))
    assert trefoil != load_diagram(data_path("figure8.json"))
    pres = presentation(load_diagram(data_path("trefoil.json")))
    assert pres == presentation(load_diagram(data_path("trefoil.json")))
    assert Presentation(1, 1, [Word.generator(0)]) != Presentation(1, 1, [Word.generator(0)], ["g"])
    # never equal to a tuple of the same values or to another record class
    assert Multipoint(("x1",)) != (("x1",),)
    assert BetaCurve(("x1",), 0) != (("x1",), 0)
    assert Crossing("x1", CLOSED, 0, 0, 1) != ("x1", CLOSED, 0, 0, 1)
    assert Multipoint(("x1", 0)) != BetaCurve(("x1", 0))


def test_frozen_records_hash_by_value_and_refuse_assignment():
    for make, name in ((lambda: Crossing("x1", CLOSED, 0, 0, 1), "sign"),
                       (lambda: BetaCurve(("x1", "x2"), 1), "basepoint"),
                       (lambda: Multipoint(("x1", "x2")), "crossing_ids")):
        a, b = make(), make()
        assert a is not b and hash(a) == hash(b) and len({a, b}) == 1
        with pytest.raises(AttributeError):
            setattr(a, name, "other")
        assert a == b


def test_mutable_records_are_unhashable():
    for record in (load_diagram(data_path("trefoil.json")),
                   Presentation(1, 1, [Word.generator(0)])):
        with pytest.raises(TypeError):
            hash(record)
    D = load_diagram(data_path("trefoil.json"))
    D.alpha_names = ["u"]
    assert D.generator_names()[0] == "u"


def test_record_defaults():
    assert BetaCurve(("x1", "x2")).basepoint == 0
    a = HeegaardDatum([], [], [], {})
    b = HeegaardDatum([], [], [], {})
    assert a.alpha_names == [] and a.arc_names == []
    assert a.alpha_names is not b.alpha_names and a.arc_names is not b.arc_names
    a.alpha_names.append("u")
    assert b.alpha_names == [] and HeegaardDatum([], [], [], {}).alpha_names == []
    p, q = Presentation(0, 0, []), Presentation(0, 0, [])
    assert p.names == [] and p.names is not q.names


def test_record_construction_forms():
    # positional, as bench/gen.py builds its data
    c = Crossing("c0", CLOSED, 0, 0, -1)
    beta = BetaCurve(("c0",), 0)
    D = HeegaardDatum([["c0"]], [], [beta], {"c0": c})
    assert (c.id, c.alpha_kind, c.alpha_index, c.beta_index, c.sign) == ("c0", CLOSED, 0, 0, -1)
    assert c.epsilon == 1 and beta.crossings == ("c0",) and D.crossings["c0"] is c
    # by keyword, and mixed
    assert Crossing(id="c0", alpha_kind=CLOSED, alpha_index=0, beta_index=0, sign=-1) == c
    assert BetaCurve(("c0",), basepoint=0) == beta == BetaCurve(crossings=("c0",))
    named = HeegaardDatum([["c0"]], [], [beta], {"c0": c}, arc_names=[], alpha_names=["u"])
    assert named.alpha_names == ["u"] and named == HeegaardDatum(
        [["c0"]], [], [beta], {"c0": c}, ["u"], [])
    assert validate(D).valid
    for bad in (lambda: Crossing("c0", CLOSED, 0, 0),
                lambda: BetaCurve(("c0",), 0, 1),
                lambda: BetaCurve(("c0",), basepoint=0, offset=1),
                lambda: BetaCurve(("c0",), crossings=("c0",)),
                lambda: Multipoint()):
        with pytest.raises(TypeError):
            bad()


def test_records_copy_and_pickle_by_value():
    import copy
    import pickle

    for record in (Crossing("x1", CLOSED, 0, 0, 1), BetaCurve(("x1",), 0),
                   Multipoint(("x1",)), load_diagram(data_path("figure8.json")),
                   presentation(load_diagram(data_path("trefoil.json")))):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)
    D = load_diagram(data_path("figure8.json"))
    assert copy.deepcopy(D).alphas is not D.alphas and copy.copy(D).alphas is D.alphas


def test_record_repr_is_the_dataclass_format():
    assert repr(Crossing("x1", CLOSED, 0, 1, -1)) == (
        "Crossing(id='x1', alpha_kind='closed', alpha_index=0, beta_index=1, sign=-1)")
    assert repr(BetaCurve(("x1",))) == "BetaCurve(crossings=('x1',), basepoint=0)"
    assert repr(Multipoint(("x1",))) == "Multipoint(crossing_ids=('x1',))"
    assert repr(HeegaardDatum([], [], [], {})) == (
        "HeegaardDatum(alphas=[], arcs=[], betas=[], crossings={}, "
        "alpha_names=[], arc_names=[])")


def two_curve_datum(**changes):
    """Closed curves A0 = (x1, x2), A1 = (y1, y2); betas B0 = (x1, y1), B1 = (x2, y2)."""
    crossings = {cid: Crossing(cid, CLOSED, int(cid[0] == "y"), int(cid[1]) - 1, 1)
                 for cid in ("x1", "x2", "y1", "y2")}
    crossings.update(changes)
    return HeegaardDatum([["x1", "x2"], ["y1", "y2"]], [],
                         [BetaCurve(("x1", "y1")), BetaCurve(("x2", "y2"))], crossings)


@pytest.mark.parametrize("D, message", [
    pytest.param(HeegaardDatum([["x1"], ["x1"]], [], [BetaCurve(("x1",)), BetaCurve(())],
                               {"x1": Crossing("x1", CLOSED, 1, 0, 1)}),
                 "crossing 'x1' listed twice on the alpha side", id="alpha-twice"),
    pytest.param(two_curve_datum(z9=Crossing("z9", CLOSED, 0, 0, 1)),
                 "crossing table does not match the curve lists", id="extra-table-entry"),
    pytest.param(two_curve_datum(x2=Crossing("x2", CLOSED, 1, 1, 1)),
                 "crossing 'x2' has inconsistent alpha reference", id="alpha-reference"),
    pytest.param(two_curve_datum(y1=Crossing("y1", CLOSED, 1, 1, 1)),
                 "crossing 'y1' has inconsistent beta reference", id="beta-reference"),
])
def test_validate_reports_inconsistent_tables(D, message):
    assert validate(two_curve_datum()).valid
    assert message in validate(D).errors


def test_multipoint_must_be_bijective_and_meet_every_beta():
    D = two_curve_datum()
    Multipoint(("x1", "y2")).validate(D)
    for ids in (("x1", "x2"), ("x1", "y1")):
        with pytest.raises(ValueError, match="multipoint must be bijective on both curve"):
            Multipoint(ids).validate(D)
    assert Multipoint(("x1", "y2")).on_beta(D, 1).id == "y2"
    with pytest.raises(ValueError, match="multipoint misses beta 1"):
        Multipoint(("x1", "y1")).on_beta(D, 1)
