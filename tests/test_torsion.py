import random

import pytest
from conftest import (
    data_path,
    figure_eight_sl2,
    random_invertible,
    trefoil_braid_sl2,
    twisted_z,
)
from linalg_reference import minor_det
from paper_laws import beta_subword

from suturekup import (
    AbelianizationMap,
    LaurentRing,
    NumberField,
    Presentation,
    QQ,
    Representation,
    Word,
    abelianize,
    bareiss_det,
    evaluate_z,
    fox_matrix,
    normalize_unit,
    parse_word,
    presentation,
    random_datum,
    sigma,
    twisted_alexander_knot,
    twisted_torsion,
)
from suturekup import linalg
from suturekup.diagram import BetaCurve, HeegaardDatum, validation_error
from suturekup.files import load_diagram, load_presentation
from suturekup.hopf import ExteriorAlgebra
from suturekup.kuperberg import EvaluationError, EvaluationOptions, representation_for
from suturekup.torsion import (
    AlexanderResult,
    CrosscheckReport,
    TorsionResult,
    _assemble,
    _fox_block_det,
    _fox_grid,
    crosscheck,
)

R1 = LaurentRing(QQ, 1)


def lp(ring, terms):
    return ring.from_terms({e: ring.field.from_rational(c) for e, c in terms.items()})


def rand_laurent(rng, ring, nterms=3):
    return ring.from_terms(
        {(rng.randint(-2, 2),): ring.field.from_rational(rng.randint(-3, 3))
         for _ in range(nterms)}
    )


def test_bareiss_identity():
    ident = [[R1.one, R1.zero], [R1.zero, R1.one]]
    assert bareiss_det(ident, R1) == R1.one


def test_bareiss_diag_units():
    m = [[lp(R1, {(1,): 1}), R1.zero], [R1.zero, lp(R1, {(-1,): 1})]]
    assert bareiss_det(m, R1) == R1.one


def test_bareiss_two_by_two():
    t = lp(R1, {(1,): 1})
    m = [[t, R1.one], [R1.one, t]]
    assert bareiss_det(m, R1) == lp(R1, {(2,): 1, (0,): -1})


def test_bareiss_zero_row_and_pivoting():
    z = R1.zero
    assert bareiss_det([[z, z], [z, z]], R1) == z
    t = lp(R1, {(1,): 1})
    m = [[z, t], [t, z]]
    assert bareiss_det(m, R1) == lp(R1, {(2,): -1})


def test_det_multiplicative():
    rng = random.Random(21)
    for _ in range(10):
        A = [[rand_laurent(rng, R1, 2) for _ in range(2)] for _ in range(2)]
        B = [[rand_laurent(rng, R1, 2) for _ in range(2)] for _ in range(2)]
        AB = [
            [A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)]
            for i in range(2)
        ]
        assert bareiss_det(AB, R1) == bareiss_det(A, R1) * bareiss_det(B, R1)


def test_fox_matrix_trefoil():
    pres = presentation(load_diagram(data_path("trefoil.json")))
    fm = fox_matrix(pres)
    assert [len(row) for row in fm.rows] == [2]
    square = fm.closed_square()
    assert len(square) == 1 and len(square[0]) == 1
    # the closed entry is the signed sum of the three subwords
    from suturekup import GroupRingElement

    D = load_diagram(data_path("trefoil.json"))
    expected = GroupRingElement(QQ)
    for cid, sign in (("x1", 1), ("x2", -1), ("x3", 1)):
        coeff = QQ.one if sign == 1 else -QQ.one
        expected = expected + GroupRingElement(QQ, {beta_subword(D, cid): coeff})
    assert square[0][0] == expected


def test_single_generator_relator_entry():
    pres = Presentation(1, 1, [Word.generator(0)], ["g"])
    fm = fox_matrix(pres)
    from suturekup import GroupRingElement

    assert fm.rows[0][0] == GroupRingElement(QQ, {Word.identity(): QQ.one})


def test_twisted_torsion_trefoil_trivial():
    pres = presentation(load_diagram(data_path("trefoil.json")))
    result = twisted_torsion(pres)
    assert str(result.normalized) == "1 - t + t^2"


def test_twisted_torsion_figure_eight_trivial():
    pres = presentation(load_diagram(data_path("figure8.json")))
    assert str(twisted_torsion(pres).normalized) == "1 - 3*t + t^2"


def test_wirtinger_oracle_matches_diagram():
    wp = load_presentation(data_path("figure8_wirtinger.json"))
    oracle = twisted_torsion(wp).normalized
    diagram_side = twisted_torsion(presentation(load_diagram(data_path("figure8.json")))).normalized
    assert str(oracle) == "1 - 3*t + t^2"
    assert oracle == diagram_side


def test_unit_relator_normalizes_to_one():
    pres = Presentation(1, 1, [Word.generator(0)], ["g"])
    result = twisted_torsion(pres)
    assert result.raw.is_monomial()
    assert str(result.normalized) == "1"


def test_torsion_invariance_up_to_unit():
    pres = presentation(load_diagram(data_path("figure8.json")))
    base = twisted_torsion(pres).normalized
    # conjugating the relator by a generator word
    g = Word.generator(0)
    conj = Presentation(
        pres.num_generators, pres.closed_count,
        [g * pres.relators[0] * g.inverse()], pres.names,
    )
    assert twisted_torsion(conj).normalized == base
    # inverting the relator
    inv = Presentation(
        pres.num_generators, pres.closed_count,
        [pres.relators[0].inverse()], pres.names,
    )
    assert twisted_torsion(inv).normalized == base


def test_torsion_relator_permutation():
    rng = random.Random(33)
    for seed in range(6):
        D = random_datum(400 + seed, d=2, l=1, max_crossings=4)
        pres = presentation(D)
        base = twisted_torsion(pres).normalized
        swapped = Presentation(
            pres.num_generators, pres.closed_count,
            [pres.relators[1], pres.relators[0]], pres.names,
        )
        # swapping relators swaps matrix columns: det changes by a unit sign
        assert twisted_torsion(swapped).normalized == base


def test_twisted_alexander_trefoil_trivial_rho():
    pres = presentation(load_diagram(data_path("trefoil.json")))
    meridian = parse_word("a", pres.generator_names())
    result = twisted_alexander_knot(pres, None, meridian, n=1)
    assert str(normalize_unit(result.boundary_factor)) == "1 - t"
    assert str(normalize_unit(result.torsion)) == "1 - t + t^2"
    # trivial rho is trivial over Ker(h): the division is not exact
    assert not result.exact
    assert result.quotient is None


def test_twisted_alexander_figure_eight_sl2():
    field, mats = figure_eight_sl2()
    pres = presentation(load_diagram(data_path("figure8.json")))
    meridian = parse_word("a", pres.generator_names())
    result = twisted_alexander_knot(pres, mats, meridian, n=2, field=field)
    assert result.exact
    assert result.quotient * result.boundary_factor == result.torsion
    # the holonomy twisted Alexander polynomial of the figure-eight
    assert str(normalize_unit(result.quotient)) == "1 - 4*t + t^2"
    assert str(normalize_unit(result.boundary_factor)) == "1 - 2*t + t^2"


def test_twisted_alexander_rejects_vanishing_boundary():
    # meridian with trivial homology image makes det(t rho(m) - I) vanish
    pres = presentation(load_diagram(data_path("trefoil.json")))
    names = pres.generator_names()
    meridian = parse_word("a*alpha^-1", names)   # h = 0
    with pytest.raises(ValueError):
        twisted_alexander_knot(pres, None, meridian, n=1)


def test_trefoil_sl2_oracle_equivalence():
    # parabolic SL(2) images hosted over Q(xi), xi^2 + xi + 1 = 0
    from suturekup import NumberField

    field = NumberField([1, 1, 1])
    D = load_diagram(data_path("trefoil.json"))
    mats = trefoil_braid_sl2(field)
    report = crosscheck(D, 2, mats, twisted=True, field=field)
    assert report.passed
    pres = presentation(D)
    rep0 = Representation(field, 2, mats)
    assert rep0.check_relators(pres) == []
    tor = twisted_torsion(pres, mats, field=field)
    amap = abelianize(pres.num_generators, pres.relators)
    rep = Representation.twisted(mats, amap, 2, field)
    z_it = evaluate_z(D, ExteriorAlgebra(2, rep.ring), rep.inverse_transpose())
    assert normalize_unit(z_it) == tor.normalized


def test_inverse_transpose_relation_figure_eight():
    field, mats = figure_eight_sl2()
    D = load_diagram(data_path("figure8.json"))
    pres = presentation(D)
    tor = twisted_torsion(pres, mats, field=field)
    amap = abelianize(pres.num_generators, pres.relators)
    rep = Representation.twisted(mats, amap, 2, field)
    z_it = evaluate_z(D, ExteriorAlgebra(2, rep.ring), rep.inverse_transpose())
    assert normalize_unit(z_it) == tor.normalized


def test_crosscheck_fixtures_all_dimensions():
    for D in (load_diagram(data_path("trefoil.json")), load_diagram(data_path("figure8.json"))):
        for n in (1, 2):
            assert crosscheck(D, n, twisted=True).passed
            assert crosscheck(D, n, twisted=False).passed


def test_crosscheck_random_gl2():
    rng = random.Random(41)
    D = load_diagram(data_path("trefoil.json"))
    mats = [random_invertible(rng, 2) for _ in range(2)]
    assert crosscheck(D, 2, mats, twisted=False).passed
    assert crosscheck(D, 2, mats, twisted=True).passed


def _invalid_data():
    """random_datum(5, 2, 1, 4) without its second beta, and with "zz" appended to its first."""
    D = random_datum(5, 2, 1, 4)
    fields = dict(zip(D.__slots__, D._values()))
    first = D.betas[0]
    longer = BetaCurve(first.crossings + ("zz",), first.basepoint)
    return {"dropped-beta": HeegaardDatum(**dict(fields, betas=D.betas[:1])),
            "unknown-crossing": HeegaardDatum(**dict(fields, betas=[longer] + D.betas[1:]))}


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("case", ["dropped-beta", "unknown-crossing"])
def test_crosscheck_refuses_invalid_diagram(case, twisted):
    # before the presentation is built, which read a missing beta or crossing
    # as an IndexError or a KeyError
    D = _invalid_data()[case]
    with pytest.raises(EvaluationError) as refused:
        crosscheck(D, 1, twisted=twisted)
    with pytest.raises(EvaluationError) as z_refused:
        evaluate_z(D, ExteriorAlgebra(1), Representation.trivial(D.num_generators, 1))
    assert str(refused.value) == str(z_refused.value) == validation_error(D)
    assert str(refused.value).startswith("invalid diagram: ")


def test_abelian_sanity_torsion_vs_z():
    # n = 1 trivial rho: the two routes agree up to unit on the trefoil
    D = load_diagram(data_path("trefoil.json"))
    z = twisted_z(D, 1)
    tor = twisted_torsion(presentation(D))
    assert normalize_unit(z) == tor.normalized


def test_non_square_submatrix_rejected():
    pres = Presentation(2, 2, [Word.generator(0)], ["g", "h"])
    with pytest.raises(ValueError):
        twisted_torsion(pres)


XI = NumberField([1, 1, 1])


def rand_entry(rng, ring, max_terms):
    """Random Laurent (or field, for a NumberField ring) entry; often zero."""
    if isinstance(ring, NumberField):
        return ring.element([rng.randint(-3, 3) for _ in range(ring.degree)])
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-2, 2) for _ in range(ring.nvars))
        terms[exps] = ring.field.element([rng.randint(-2, 2), rng.randint(-2, 2)])
    return ring.from_terms(terms)


@pytest.mark.parametrize("ring", [QQ, LaurentRing(XI, 1), LaurentRing(XI, 2)],
                         ids=["QQ", "Q(xi)[t]", "Q(xi)[t1,t2]"])
@pytest.mark.parametrize("max_terms", [1, 3])
def test_bareiss_matches_permutation_expansion(ring, max_terms, monkeypatch):
    # record the pivots that go through divide_exact: a unit pivot is scaled
    # to one and leaves nothing to divide by
    calls = []
    real = linalg.divide_exact
    monkeypatch.setattr(linalg, "divide_exact",
                        lambda a, b: calls.append(b) or real(a, b))
    rng = random.Random(4000 + max_terms)
    for size in range(1, 6):
        for _ in range(4 if size < 5 else 2):
            m = [[rand_entry(rng, ring, max_terms) for _ in range(size)]
                 for _ in range(size)]
            want = minor_det(m, list(range(size)), list(range(size)), ring)
            got = bareiss_det(m, ring)
            assert got == want and str(got) == str(want)
    assert not any(b.is_monomial() for b in calls)
    if not isinstance(ring, LaurentRing):
        assert not calls, "a field pivot went through divide_exact"
    elif max_terms > 1:
        assert calls, "no pivot took the divide_exact branch"


def _pending_division_matrix(ring, p, u, rng):
    """A 4x4 matrix whose elimination owes a division across a unit step.

    Column 0 holds no unit, so step 0 is fraction-free with the non-unit
    pivot p.  Step 1 then finds the unit u = 2p - q at (1, 1) and, in row 2,
    a zero multiplier p*1 - p*1 whose row must still be divided by p.
    """
    one, two = ring.one, ring.one + ring.one
    q = two * p - u
    r0 = p - u - u  # not a unit, so row 0 stays the step-0 pivot
    assert not (p.is_monomial() or q.is_monomial() or r0.is_monomial())
    rest = [[rand_entry(rng, ring, 3) for _ in range(2)] for _ in range(4)]
    return [[p, one] + rest[0],
            [q, two] + rest[1],
            [p, one] + rest[2],
            [r0, rand_entry(rng, ring, 3)] + rest[3]]


@pytest.mark.parametrize("ring", [LaurentRing(XI, 1), LaurentRing(XI, 2)],
                         ids=["Q(xi)[t]", "Q(xi)[t1,t2]"])
def test_bareiss_unit_step_pays_pending_division(ring, monkeypatch):
    calls = []
    real = linalg.divide_exact
    monkeypatch.setattr(linalg, "divide_exact",
                        lambda a, b: calls.append(b) or real(a, b))
    xi = XI.element([0, 1])
    nv = ring.nvars
    p = ring.one + ring.monomial((1,) * nv, xi)
    u = ring.monomial((-1,) + (2,) * (nv - 1), -xi)
    rng = random.Random(4100 + nv)
    for _ in range(6):
        m = _pending_division_matrix(ring, p, u, rng)
        want = minor_det(m, list(range(4)), list(range(4)), ring)
        got = bareiss_det(m, ring)
        assert got == want and str(got) == str(want)
    assert calls and all(b == p for b in calls)


def _walk_presentation(rng, identity_relator, d=3, num_arcs=2):
    """Random presentation covering every case the Fox prefix walk handles.

    Relator 0 has arc letters before and after its last closed letter, and
    one closed generator three times, the last time as g^-1; the others
    hold every closed generator once and random letters, with both signs,
    and the last one is the identity when asked for.
    """
    m = d + num_arcs
    arcs = range(d, m)
    g = rng.randrange(d)
    first = [(rng.choice(arcs), rng.choice((1, -1))), (g, 1), (rng.choice(arcs), 1),
             (g, 1), (rng.choice(arcs), 1), (g, -1), (rng.choice(arcs), 1),
             (rng.choice(arcs), 1)]
    relators = [Word(first)]
    for _ in range(1, d):
        letters = [(k, rng.choice((1, -1))) for k in range(d)]
        letters += [(rng.randrange(m), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
        rng.shuffle(letters)
        relators.append(Word(letters))
    if identity_relator:
        relators[-1] = Word.identity()
    return Presentation(m, d, relators, [f"g{k}" for k in range(m)])


def _walk_representation(rng, ring, m, n=2):
    """(representation, field matrices, abelianization): random invertible images,
    with xi in their entries over Q(xi); over a Laurent ring, twisted by random
    classes, and with no abelianization otherwise."""
    field = ring.field if isinstance(ring, LaurentRing) else ring
    # a rational matrix times a unitriangular one with xi above the diagonal
    above = field.element([0, 1]) if field.degree > 1 else field.one
    shear = [[field.one if i == j else above if i < j else field.zero
              for j in range(n)] for i in range(n)]
    mats = [linalg.matmul(random_invertible(rng, n, field), shear, field) for _ in range(m)]
    if not isinstance(ring, LaurentRing):
        return Representation(ring, n, mats), mats, None
    images = [tuple(rng.randint(-2, 2) for _ in range(ring.nvars)) for _ in range(m)]
    amap = AbelianizationMap(m, ring.nvars, images, [])
    return Representation.twisted(mats, amap, n, field), mats, amap


def _assemble_blocks(blocks, n, ring):
    """The dn x dn matrix whose (bi, bj) block of size n is blocks[bi][bj]."""
    d = len(blocks)
    big = [[ring.zero] * (d * n) for _ in range(d * n)]
    for bi in range(d):
        for bj in range(d):
            for i, row in enumerate(blocks[bi][bj]):
                big[bi * n + i][bj * n:bj * n + n] = row
    return big


def _reference_blocks(pres, rep, torsion_convention):
    """The Fox block through FoxMatrix, sigma and apply_to_groupring."""
    square = fox_matrix(pres, rep.ring.field if isinstance(rep.ring, LaurentRing)
                        else rep.ring).closed_square()
    d = len(square)
    blocks = [[rep.apply_to_groupring(sigma(square[j][i]) if torsion_convention
                                      else square[i][j]) for j in range(d)]
              for i in range(d)]
    return _assemble_blocks(blocks, rep.n, rep.ring)


@pytest.mark.parametrize("ring", [QQ, XI, LaurentRing(XI, 1), LaurentRing(XI, 2)],
                         ids=["QQ", "Q(xi)", "Q(xi)[t]", "Q(xi)[t1,t2]"])
def test_fox_walk_matches_reference_route(ring):
    rng = random.Random(4200)
    nonzero = 0
    for trial in range(6):
        pres = _walk_presentation(rng, identity_relator=trial % 2 == 1)
        rep, mats, amap = _walk_representation(rng, ring, pres.num_generators)
        d = pres.closed_count
        walk = _assemble(_fox_grid(pres, rep)[0], range(d), rep)
        assert walk == _reference_blocks(pres, rep, torsion_convention=False)
        # the torsion convention is the transpose of the walk through rho^-T
        inverse = rep.inverse_transpose()
        transposed = linalg.transpose(_assemble(_fox_grid(pres, inverse)[0], range(d), inverse))
        reference = _reference_blocks(pres, rep, torsion_convention=True)
        assert transposed == reference
        if isinstance(ring, LaurentRing):
            raw = twisted_torsion(pres, mats, amap, rep.n, ring.field).raw
            assert raw == bareiss_det(reference, ring)
            # an identity relator is a zero row
            assert raw.is_zero() or trial % 2 == 0
            nonzero += not raw.is_zero()
    assert nonzero or not isinstance(ring, LaurentRing), "every torsion vanished"


def _draw_presentation(rng, d, num_arcs):
    """d relators of up to five random letters over d closed generators and
    num_arcs arcs; with arcs, about a third of the relators hold arc letters only."""
    m = d + num_arcs
    relators = []
    for _ in range(d):
        pool = range(d, m) if num_arcs and rng.random() < 0.35 else range(m)
        relators.append(Word([(rng.choice(pool), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, 5))]))
    return Presentation(m, d, relators, [f"g{k}" for k in range(m)])


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_fox_block_det_at_dimension_zero(twisted):
    # at n = 0 the Fox block is 0 x 0 whatever the relators hold, so its
    # determinant is the empty product, also when a relator has no closed letter
    rng = random.Random(4300 + twisted)
    no_closed_letter = 0
    for _ in range(40):
        pres = _draw_presentation(rng, rng.randint(1, 4), rng.randint(0, 2))
        no_closed_letter += any(all(g >= pres.closed_count for g, _ in rel.letters)
                                for rel in pres.relators)
        rep = representation_for(pres, 0, None, rng.choice((QQ, XI)), twisted)
        for r in (rep, rep.inverse_transpose()):
            assert _assemble(_fox_grid(pres, r)[0], range(pres.closed_count), r) == []
            assert _fox_block_det(pres, r) == rep.ring.one
    assert no_closed_letter > 10


# -- the result records ---------------------------------------------------------


def test_result_records():
    one, t = R1.one, R1.monomial((1,))
    # the forms bench/tracing.py uses
    assert CrosscheckReport(one, one).passed and not CrosscheckReport(one, t).passed
    report = CrosscheckReport(z_value=one, det_value=t)
    assert (report.z_value, report.det_value) == (one, t)
    exact = AlexanderResult(t, one, t, True)
    assert (exact.torsion, exact.boundary_factor, exact.quotient, exact.exact) == (t, one, t, True)
    assert AlexanderResult(t, one, None, False).quotient is None
    assert exact == AlexanderResult(torsion=t, boundary_factor=one, quotient=t, exact=True)
    assert exact != AlexanderResult(t, one, None, False)
    assert TorsionResult(t, one) == TorsionResult(raw=t, normalized=one)
    assert TorsionResult(t, one) != (t, one)
    assert TorsionResult(t, one) != CrosscheckReport(t, one)
    assert repr(CrosscheckReport(one, t)) == "CrosscheckReport(z_value=1, det_value=t)"
    for record in (report, exact, TorsionResult(t, one), EvaluationOptions()):
        with pytest.raises(TypeError):
            hash(record)
    assert EvaluationOptions().homology_orientation_sign == 1
    assert EvaluationOptions(homology_orientation_sign=-1) == EvaluationOptions(-1)
    assert EvaluationOptions(-1) != EvaluationOptions()
    assert repr(EvaluationOptions()) == "EvaluationOptions(homology_orientation_sign=1)"
