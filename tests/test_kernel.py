"""The contraction kernel: the forms it reads and its packed, integral state.

The degree-one forms are pinned entry for entry against the Fox block, on the
acceptance data and on drawn data, which still checks something where
Z = det = 0.  The kernel keys its state by one
int, (packed exponent << dn) | mask, scales every form to integer
coefficients and packs each integral coefficient into one int as well; the
packing, the rescaling, the final division and the width of the packed
coefficients are checked here on their own, and the values against the
enumerator and the Fox side.
"""

import os
import random
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from conftest import acceptance_data, data_path, dense_datum, random_invertible
from contraction_reference import reference_evaluate_z
from hypothesis import given, settings
from hypothesis import strategies as st

from suturekup import (
    QQ,
    ExteriorAlgebra,
    NumberField,
    bareiss_det,
    kuperberg,
    presentation,
    random_datum,
)
from suturekup.diagram import CLOSED
from suturekup.files import load_diagram, load_representation
from suturekup.kuperberg import _pack, _unpack, degree_one_forms, evaluate_z, representation_for
from suturekup.laurent import LaurentPoly, LaurentRing
from suturekup.linalg import matmul, transpose
from suturekup.numberfield import FieldElement
from suturekup.torsion import _assemble, _fox_block_det, _fox_grid, fox_matrix

NONINTEGRAL_REP = os.path.join(os.path.dirname(__file__), "data", "figure8_nonintegral_rep.json")


ACCEPTANCE = acceptance_data()


def _form_matrix(forms, rep):
    """The forms as a dn x dn matrix over rep's ring: row i*n + k is form i*n + k,
    column b is bit 1 << b."""
    return [[rep.wrap(form.get(1 << b, {})) for b in range(len(forms))] for form in forms]


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_forms_are_the_transposed_fox_block(twisted):
    vacuous = nonzero_block = 0
    for seed, D, n, mats in ACCEPTANCE:
        pres = presentation(D)
        rep = representation_for(pres, n, mats, twisted=twisted)
        H = ExteriorAlgebra(n, rep.ring)
        block = _assemble(_fox_grid(pres, rep)[0], range(pres.closed_count), rep)
        assert _form_matrix(degree_one_forms(D, rep), rep) == transpose(block), seed
        if evaluate_z(D, H, rep).is_zero():
            vacuous += 1
            nonzero_block += any(x for row in block for x in row)
    # where Z = det = 0 the identity still compares nonzero entries
    assert vacuous == 11
    assert nonzero_block >= 10


def test_walk_stays_at_field_level(monkeypatch):
    """The forms, the Fox blocks and the word images of the 50 acceptance data,
    twisted, come out the same with every Laurent product refused."""
    def walked(D, pres, rep):
        closed, inverse = range(pres.closed_count), rep.inverse_transpose()
        return (degree_one_forms(D, rep), _assemble(_fox_grid(pres, rep)[0], closed, rep),
                _assemble(_fox_grid(pres, inverse)[0], closed, inverse),
                [rep.word_matrix(rel) for rel in pres.relators])

    cases = []
    for seed, D, n, mats in ACCEPTANCE:
        pres = presentation(D)
        rep = representation_for(pres, n, mats, twisted=True)
        cases.append((seed, (D, pres, rep), walked(D, pres, rep)))

    def refuse(*args):
        raise AssertionError("the walk multiplied Laurent polynomials")

    monkeypatch.setattr(LaurentRing, "dot", refuse)
    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    for seed, args, expected in cases:
        assert walked(*args) == expected, seed
    # the patch is live: the reference route multiplies the lifted matrices
    D, pres, rep = cases[0][1]
    with pytest.raises(AssertionError, match="Laurent"):
        rep.apply_to_groupring(fox_matrix(pres, rep.field).closed_square()[0][0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), l=st.integers(0, 2),
       crossings=st.integers(1, 4), n=st.integers(1, 2), twisted=st.booleans())
def test_forms_are_the_transposed_fox_block_on_drawn_data(seed, d, l, crossings, n, twisted):
    D = random_datum(seed, d, l, crossings)
    pres = presentation(D)
    rng = random.Random(seed)
    mats = [random_invertible(rng, n) for _ in range(pres.num_generators)]
    rep = representation_for(pres, n, mats, twisted=twisted)
    forms = degree_one_forms(D, rep)
    assert _form_matrix(forms, rep) == transpose(_assemble(_fox_grid(pres, rep)[0], range(d), rep))


@st.composite
def packed_boxes(draw):
    """(nvars, width, a, b, dn, mask): a, b and a + b inside +-2^(width - 1)."""
    nvars = draw(st.integers(0, 3))
    spread = draw(st.one_of(st.integers(1, 64), st.integers(2**64, 2**80)))
    width = spread.bit_length() + 1
    half = 1 << width - 1
    box = st.lists(st.integers(-half + 1, half - 1), min_size=nvars, max_size=nvars)
    a, total = draw(box), draw(box)
    b = [s - x for s, x in zip(total, a)]
    dn = draw(st.integers(0, 24))
    return nvars, width, tuple(a), tuple(b), dn, draw(st.integers(0, (1 << dn) - 1))


@given(packed_boxes())
def test_pack_round_trip_and_additivity(case):
    nvars, width, a, b, dn, mask = case
    assert _unpack(_pack(a, width), nvars, width) == a
    assert _unpack(_pack(a, width) + _pack(b, width), nvars, width) == tuple(map(add, a, b))
    # the state key: a mask below the packed exponent leaves it intact
    key = (_pack(a, width) << dn) | mask
    assert key >> dn == _pack(a, width) and key & ((1 << dn) - 1) == mask


def test_rank_zero_packs_to_zero():
    assert _pack((), 2) == 0 and _unpack(0, 0, 2) == ()


def _rank_data(rank, count):
    """count small data with rank arcs, d = 1 and 2 in turn, whose free
    abelianization has that rank, with two crossings on every closed alpha
    and a closed crossing on every beta."""
    out, seed = [], 8800
    while len(out) < count:
        D = random_datum(seed, 1 + len(out) % 2, rank, 4)
        on_beta = {c.beta_index for c in D.crossings.values() if c.alpha_kind == CLOSED}
        rep = representation_for(presentation(D), 1, twisted=True)
        if (rep.ring.nvars == rank and on_beta == set(range(D.d))
                and min(map(len, D.alphas)) >= 2):
            out.append((seed, D))
        seed += 1
    return out


@pytest.mark.parametrize("rank", [2, 3])
def test_twisted_rank_matches_reference_and_fox(rank):
    nonzero = 0
    for seed, D in _rank_data(rank, 6):
        pres = presentation(D)
        rng = random.Random(seed)
        for n in (1, 2):
            mats = [random_invertible(rng, n) for _ in range(pres.num_generators)]
            rep = representation_for(pres, n, mats, twisted=True)
            assert rep.ring == LaurentRing(rep.ring.field, rank)
            H = ExteriorAlgebra(n, rep.ring)
            z = evaluate_z(D, H, rep)
            ref = reference_evaluate_z(D, H, rep)
            det = _fox_block_det(pres, rep)
            assert z == ref == det
            assert str(z) == str(ref) == str(det)
            nonzero += not z.is_zero()
    assert nonzero


def _nonintegral(D):
    rep_file = load_representation(NONINTEGRAL_REP)
    return rep_file.field, rep_file.matrices_for(D.generator_names())


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_mixed_denominators_give_lowest_terms(twisted):
    D = load_diagram(data_path("figure8.json"))
    field, mats = _nonintegral(D)
    pres = presentation(D)
    rep = representation_for(pres, 2, mats, field, twisted)
    z = evaluate_z(D, ExteriorAlgebra(2, rep.ring), rep)
    assert z == _fox_block_det(pres, rep)
    coeffs = list(z.terms.values()) if twisted else [z]
    assert any(c.den > 1 for c in coeffs)
    for c in coeffs:
        assert c.den > 0 and gcd(c.den, *c.num) == 1


def _counting(monkeypatch):
    """{built: FieldElements constructed, canonical: kuperberg._canonical calls}."""
    counts = {"built": 0, "canonical": 0}
    init, canonical = FieldElement.__init__, kuperberg._canonical

    def build(self, *args):
        counts["built"] += 1
        init(self, *args)

    def canon(*args):
        counts["canonical"] += 1
        return canonical(*args)

    monkeypatch.setattr(FieldElement, "__init__", build)
    monkeypatch.setattr(kuperberg, "_canonical", canon)
    return counts


def _integral_data(twisted):
    """(datum, n, matrices, field) with integer entries and nonzero Z."""
    rep_file = load_representation(data_path("figure8_parabolic_rep.json"))
    figure_eight = load_diagram(data_path("figure8.json"))
    out = [(load_diagram(data_path("trefoil.json")), 1, None, None), (figure_eight, 1, None, None)]
    if twisted:
        out.append((figure_eight, 2, rep_file.matrices_for(figure_eight.generator_names()),
                    rep_file.field))
    rng, seed = random.Random(7), 9700
    while len(out) < 5:
        D, n = random_datum(seed, 2, 1, 4), 2 + seed % 2
        mats = [_unimodular(rng, n) for _ in range(D.num_generators)]
        rep = representation_for(presentation(D), n, mats, twisted=twisted)
        if evaluate_z(D, ExteriorAlgebra(n, rep.ring), rep):
            out.append((D, n, mats, None))
        seed += 1
    return out


def _unimodular(rng, n):
    """L * U for unit triangular integer L and U, so its inverse is integral too."""
    def triangular(lower):
        return [[QQ.from_rational(1 if i == j else rng.randint(-2, 2) if (i > j) == lower else 0)
                 for j in range(n)] for i in range(n)]
    return matmul(triangular(True), triangular(False), QQ)


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_kernel_builds_field_elements_only_for_z(monkeypatch, twisted):
    """From the forms to Z the state holds ints: the kernel builds no FieldElement
    but Z's own coefficients, each brought to lowest terms once by _canonical."""
    assert not hasattr(kuperberg, "FieldElement")
    field, mats = _nonintegral(load_diagram(data_path("figure8.json")))
    # integral forms, and forms with denominators to rescale
    data = _integral_data(twisted) + [(load_diagram(data_path("figure8.json")), 2, mats, field)]
    counts = _counting(monkeypatch)
    for D, n, mats, field in data:
        pres = presentation(D)
        rep = representation_for(pres, n, mats, field, twisted)
        H = ExteriorAlgebra(n, rep.ring)
        forms = degree_one_forms(D, rep)
        monkeypatch.setattr(kuperberg, "degree_one_forms", lambda *args, forms=forms: forms)
        counts.update(built=0, canonical=0)
        z = evaluate_z(D, H, rep)
        terms = len(z.terms) if twisted else 1
        assert counts == {"built": terms, "canonical": terms}
        assert z == _fox_block_det(pres, rep) and not z.is_zero()
    # the count is live: the forms themselves build field elements
    counts.update(built=0, canonical=0)
    degree_one_forms(D, rep)
    assert counts["built"] > 0 and counts["canonical"] == 0


# Q, Q(xi) with xi^2 + xi + 1 = 0, and Q(2^(1/3)): degrees 1, 2 and 3
WIDTH_FIELDS = [QQ, NumberField([1, 1, 1]), NumberField([-2, 0, 0, 1])]


def _wide_invertible(rng, n, field, digits, den_digits, uniform):
    """An invertible matrix whose coefficients have numerators of up to `digits`
    digits over denominators of up to den_digits digits.  With `uniform`, an entry
    is +-(10^digits - 1)(1 + x + ... + x^(D-1)) / q: the digits of its products
    all add up with one sign, to the bound the Kronecker width leaves room for."""
    top = 10 ** digits - 1

    def entry():
        q = rng.randint(1, 10 ** den_digits)
        if uniform:
            return field.element([Fraction(rng.choice((top, -top)), q)] * field.degree)
        return field.element([Fraction(rng.randint(-top, top), q) for _ in range(field.degree)])

    while True:
        m = [[entry() for _ in range(n)] for _ in range(n)]
        if bareiss_det(m, field):
            return m


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(WIDTH_FIELDS),
       twisted=st.booleans(), d=st.integers(1, 3), l=st.integers(0, 2),
       crossings=st.integers(1, 4), n=st.integers(1, 3), digits=st.integers(1, 30),
       den_digits=st.integers(0, 10), uniform=st.booleans())
def test_kronecker_width_holds_for_wide_coefficients(seed, field, twisted, d, l, crossings, n,
                                                     digits, den_digits, uniform):
    D = random_datum(seed, d, l, crossings)
    pres = presentation(D)
    rng = random.Random(seed)
    mats = [_wide_invertible(rng, n, field, digits, den_digits, uniform)
            for _ in range(pres.num_generators)]
    rep = representation_for(pres, n, mats, field, twisted)
    assert evaluate_z(D, ExteriorAlgebra(n, rep.ring), rep) == _fox_block_det(pres, rep)


@pytest.mark.parametrize("field", WIDTH_FIELDS[1:], ids=["xi", "cubic"])
def test_kronecker_width_on_dense_shapes(field):
    """Twisted (d, n, L) = (4, 3, 3): every key collects many products per step."""
    D = dense_datum(4, 4, 3)
    pres = presentation(D)
    rng = random.Random(433)
    mats = [_wide_invertible(rng, 3, field, 30, 0, True) for _ in range(pres.num_generators)]
    rep = representation_for(pres, 3, mats, field, twisted=True)
    z = evaluate_z(D, ExteriorAlgebra(3, rep.ring), rep)
    assert z == _fox_block_det(pres, rep) and not z.is_zero()
