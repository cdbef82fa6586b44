"""The Fox determinant by block elimination over the field.

A block grid is a list of block rows {column: {exponent vector: n x n field
matrix}}, the form torsion._fox_grid builds.  Drawn grids are pinned
against the permutation expansion of their scalar matrix at tiny sizes and
against bareiss_det of it at larger ones, over three fields, with 0, 1 and
2 Laurent variables and over the field itself.  On the benchmark's dense
twisted shapes, the scalar remainder that bareiss_det sees over the Laurent
ring is at most one n x n block, and no block made by one letter is swept.
On the acceptance data the Fox determinant equals bareiss_det of the scalar
Fox block, plain and twisted, in both conventions.
"""

import random

import pytest
from conftest import acceptance_data, dense_datum
from linalg_reference import minor_det
from make_cli_golden import TESTS_DATA

from suturekup import AbelianizationMap, NumberField, QQ, Representation, presentation, torsion
from suturekup.files import load_diagram, load_representation
from suturekup.kuperberg import representation_for
from suturekup.laurent import LaurentRing
from suturekup.linalg import SingularMatrix, bareiss_det, inverse_and_det
from suturekup.torsion import _assemble, _fox_block_det, _fox_grid, _grid_det, _pivot

XI = NumberField([1, 1, 1])
CUBIC = NumberField([-2, 0, 0, 1])


def _rep_over(field, nvars, n):
    """A representation with no generators: its ring is the field when nvars is
    None and the Laurent ring on nvars variables otherwise."""
    if nvars is None:
        return Representation(field, n, [])
    return Representation.twisted([], AbelianizationMap(0, nvars, [], []), n, field)


def _matrix(rng, field, n, singular):
    """A nonzero n x n matrix with entries a + b*x + ..., |a|, |b| <= 2; rank one
    when singular (n >= 2)."""
    def entry():
        return field.element([rng.randint(-2, 2) for _ in range(field.degree)])
    if singular:
        u, v = [entry() for _ in range(n)], [entry() for _ in range(n)]
        u[0] = v[0] = field.one
        return [[a * b for b in v] for a in u]
    while True:
        m = [[entry() for _ in range(n)] for _ in range(n)]
        if any(map(any, m)):
            return m


def _invertible(rng, field, n):
    while True:
        m = _matrix(rng, field, n, False)
        if not bareiss_det(m, field).is_zero():
            return m


def _draw_grid(rng, field, nvars, d, n, fill):
    """d block rows over d block columns; each block is present with probability
    fill, has one term, or over Laurent variables one to three terms with one
    half the time, and a one-term block is singular a third of the time."""
    grid = []
    for _ in range(d):
        row = {}
        for j in range(d):
            if rng.random() >= fill:
                continue
            block = {}
            for _ in range(rng.choice((1, 1, 2, 3)) if nvars else 1):
                e = tuple(rng.randint(-2, 2) for _ in range(nvars or 0))
                block[e] = _matrix(rng, field, n, False)
            if len(block) == 1 and n > 1 and rng.random() < 1 / 3:
                block = {e: _matrix(rng, field, n, True)}
            row[j] = block
        grid.append(row)
    return grid


def _scalar(grid, rep):
    return _assemble(grid, range(len(grid)), rep)


RINGS = [pytest.param(None, id="field"), pytest.param(0, id="t0"),
         pytest.param(1, id="t"), pytest.param(2, id="t1t2")]
FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(XI, id="Qxi"),
          pytest.param(CUBIC, id="Qcbrt2")]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("nvars", RINGS)
def test_block_det_matches_permutation_expansion(field, nvars):
    rng = random.Random(4400 + 10 * field.degree + (nvars if nvars is not None else 9))
    nonzero = 0
    for d, n in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1)] * 3:
        rep = _rep_over(field, nvars, n)
        grid = _draw_grid(rng, field, nvars, d, n, fill=0.8)
        big = _scalar(grid, rep)
        want = minor_det(big, list(range(d * n)), list(range(d * n)), rep.ring)
        assert _grid_det(grid, rep) == want
        nonzero += not want.is_zero()
    assert nonzero > 5


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("nvars", RINGS)
def test_block_det_matches_bareiss(field, nvars, monkeypatch):
    # the Schur steps, singular one-term blocks passed over as pivots over the
    # field, and a Laurent remainder when there are variables
    calls = {"singular": 0, "schur": 0, "remainder": 0}
    real_inverse, real_bareiss = torsion.inverse_and_det, torsion.bareiss_det

    def inverse_and_det(m, f):
        try:
            out = real_inverse(m, f)
        except torsion.SingularMatrix:
            calls["singular"] += 1
            raise
        calls["schur"] += 1
        return out

    def bareiss(m, ring):
        calls["remainder"] += ring != field and len(m) > rep.n
        return real_bareiss(m, ring)

    monkeypatch.setattr(torsion, "inverse_and_det", inverse_and_det)
    monkeypatch.setattr(torsion, "bareiss_det", bareiss)
    rng = random.Random(4500 + 10 * field.degree + (nvars if nvars is not None else 9))
    nonzero = 0
    for d, n in [(2, 3), (3, 2), (4, 1), (5, 1), (2, 2), (3, 1)] * 2:
        rep = _rep_over(field, nvars, n)
        grid = _draw_grid(rng, field, nvars, d, n, fill=0.7)
        scalar = _scalar(grid, rep)
        got = _grid_det(grid, rep)
        assert _scalar(grid, rep) == scalar, "the grid was changed"
        assert got == real_bareiss(scalar, rep.ring)
        nonzero += not got.is_zero()
    assert nonzero > 3
    assert calls["schur"] and (calls["singular"] or nvars is not None)
    assert calls["remainder"] or not nvars


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("nvars", RINGS)
def test_singular_one_term_blocks_are_passed_over(field, nvars, monkeypatch):
    # dense 3 x 3 grids of one-term blocks: every block has four others in its
    # row and column, so block (0, 0) is tried first, and it is singular; in
    # the second grid every block is singular and bareiss_det takes them all
    singular = []
    real = torsion.inverse_and_det

    def inverse_and_det(m, f):
        try:
            return real(m, f)
        except torsion.SingularMatrix:
            singular.append(m)
            raise

    monkeypatch.setattr(torsion, "inverse_and_det", inverse_and_det)
    rng = random.Random(4550 + field.degree)
    rep = _rep_over(field, nvars, 2)
    for all_singular in (False, True):
        grid = [{j: {tuple(rng.randint(-2, 2) for _ in range(nvars or 0)):
                     _matrix(rng, field, 2, True) if all_singular or (i, j) == (0, 0)
                     else _invertible(rng, field, 2)}
                 for j in range(3)} for i in range(3)]
        del singular[:]
        assert _grid_det(grid, rep) == bareiss_det(_scalar(grid, rep), rep.ring)
        assert singular[0] == grid[0][0][next(iter(grid[0][0]))]
        # with no Schur step each block is tried once
        assert len(singular) == 9 or not all_singular


@pytest.mark.parametrize("nvars", RINGS)
def test_empty_block_row_or_column_gives_zero(nvars):
    rng = random.Random(4600)
    for d, n in [(1, 1), (1, 2), (2, 2), (3, 1), (3, 2)]:
        rep = _rep_over(XI, nvars, n)
        grid = _draw_grid(rng, XI, nvars, d, n, fill=1.0)
        k = rng.randrange(d)
        no_row = [row if i != k else {} for i, row in enumerate(grid)]
        no_col = [{j: b for j, b in row.items() if j != k} for row in grid]
        for g in (no_row, no_col):
            assert _grid_det(g, rep) == rep.ring.zero
            assert bareiss_det(_scalar(g, rep), rep.ring).is_zero()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_dense_shapes_leave_at_most_one_block_to_bareiss(d, n, monkeypatch):
    sizes = []
    real = torsion.bareiss_det

    def recording(m, ring):
        if isinstance(ring, LaurentRing):
            sizes.append(len(m))
        return real(m, ring)

    rng = random.Random(4700 + 10 * d + n)
    for seed in range(3):
        pres = presentation(dense_datum(100 * d + 10 * n + seed, d, 2))
        mats = [_invertible(rng, XI, n) for _ in range(pres.num_generators)]
        rep = representation_for(pres, n, mats, XI, twisted=True)
        for r in (rep, rep.inverse_transpose()):
            want = real(_scalar(_fox_grid(pres, r)[0], r), r.ring)
            monkeypatch.setattr(torsion, "bareiss_det", recording)
            assert _fox_block_det(pres, r) == want
            monkeypatch.setattr(torsion, "bareiss_det", real)
    assert max(sizes, default=0) <= n


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_one_occurrence_blocks_are_never_swept(d, n, monkeypatch):
    # a block made by one letter takes its inverse and determinant from the walk;
    # only blocks a Schur step made or updated reach the sweep
    swept, grids = [], []
    real_inverse, real_grid = torsion.inverse_and_det, torsion._fox_grid

    def inverse_and_det(m, f):
        swept.append(m)
        return real_inverse(m, f)

    def fox_grid(pres, rep):
        grids.append(real_grid(pres, rep))
        return grids[-1]

    monkeypatch.setattr(torsion, "inverse_and_det", inverse_and_det)
    monkeypatch.setattr(torsion, "_fox_grid", fox_grid)
    rng = random.Random(4800 + 10 * d + n)
    walked = 0
    for seed in range(3):
        pres = presentation(dense_datum(100 * d + 10 * n + seed, d, 2))
        mats = [_invertible(rng, XI, n) for _ in range(pres.num_generators)]
        rep = representation_for(pres, n, mats, XI, twisted=True)
        for r in (rep, rep.inverse_transpose()):
            del swept[:], grids[:]
            assert _fox_block_det(pres, r) == bareiss_det(_scalar(_fox_grid(pres, r)[0], r), r.ring)
            grid, origins = grids[0]
            singles = [m for (i, g) in origins for m in grid[i][g].values()]
            assert not [m for m in swept if any(m is single for single in singles)]
            walked += len(origins)
    assert walked


def test_lone_blocks_walk_no_inverse(monkeypatch):
    # a block alone in its column needs only its determinant, the product of its
    # letters' determinants; only Schur pivots walk an inverse, and a grid of d
    # block rows takes at most d - 1 of them, since its last block is alone
    walks, lone = [], 0
    real = Representation.word_inverse

    def recording(rep, letters):
        walks.append(letters)
        return real(rep, letters)

    monkeypatch.setattr(Representation, "word_inverse", recording)
    for _, D, n, mats in acceptance_data():
        pres = presentation(D)
        d = len(pres.relators)
        for twisted in (False, True):
            rep = representation_for(pres, n, mats, twisted=twisted)
            for r in (rep, rep.inverse_transpose()):
                del walks[:]
                scalar = _scalar(_fox_grid(pres, r)[0], r)
                assert _fox_block_det(pres, r) == bareiss_det(scalar, r.ring)
                assert len(walks) <= d - 1
                lone += d == 1 and bool(_fox_grid(pres, r)[1])
    assert lone


def test_acceptance_data_match_the_scalar_fox_block():
    nonzero = 0
    for _, D, n, mats in acceptance_data():
        pres = presentation(D)
        for twisted in (False, True):
            rep = representation_for(pres, n, mats, twisted=twisted)
            for r in (rep, rep.inverse_transpose()):
                det = _fox_block_det(pres, r)
                assert det == bareiss_det(_scalar(_fox_grid(pres, r)[0], r), r.ring)
                nonzero += not det.is_zero()
    assert nonzero > 100


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", ["several", "unit", "singular", "origin+1", "origin-1"])
def test_pivot_evaluates_every_kind_of_candidate(case, n):
    # against bareiss_det of the block over the ring and the sweep of sign * rep(prefix)
    rng = random.Random(4900 + n)
    amap = AbelianizationMap(3, 1, [(1,), (-1,), (2,)], [])
    rep = Representation.twisted([_invertible(rng, XI, n) for _ in range(3)], amap, n, XI)
    if case == "several":
        block = {(0,): _matrix(rng, XI, n, False), (2,): _matrix(rng, XI, n, False)}
        lifted = [rep.lift(e, m) for e, m in block.items()]
        want = bareiss_det([[a + b for a, b in zip(*rows)] for rows in zip(*lifted)], rep.ring)
        for inverse in (False, True):
            assert _pivot(block, None, rep, inverse) == (None, want, None)
        return
    origin = None
    if case.startswith("origin"):
        letters, sign = [(0, 1), (2, -1), (1, 1)], int(case[len("origin"):])
        e, m = rep.prefix_walk(letters)[-1]
        m, origin = [[sign * x for x in r] for r in m], (letters, sign)
    elif case == "singular":
        e, m = (1,), _matrix(rng, XI, n, True) if n > 1 else [[XI.zero]]
    else:
        e, m = (-1,), _invertible(rng, XI, n)
    block = {e: m}
    assert _pivot(block, origin, rep, False) == (e, bareiss_det(m, XI), None)
    if case == "singular":
        with pytest.raises(SingularMatrix):
            _pivot(block, origin, rep, True)
        return
    inv, det = inverse_and_det(m, XI)
    assert _pivot(block, origin, rep, True) == (e, det, [[-x for x in r] for r in inv])


@pytest.mark.parametrize("rep_file, singular", [("fill_in_rep.json", False),
                                                ("fill_in_singular_rep.json", True)])
def test_fill_in_data_reach_the_sweep_and_the_remainder(rep_file, singular, monkeypatch):
    # the CLI golden records on these files replay both paths: after the first
    # Schur step a fill-in pivot is swept; when it is singular no other candidate
    # is usable and bareiss_det takes the two block rows left
    events = []
    real_inverse, real_bareiss, real_add = (torsion.inverse_and_det, torsion.bareiss_det,
                                            torsion._add_products)

    def inverse(m, f):
        try:
            out = real_inverse(m, f)
        except SingularMatrix:
            events.append("singular")
            raise
        events.append("swept")
        return out

    def bareiss(m, ring):
        events.append("remainder" if isinstance(ring, LaurentRing) and len(m) > 2 else "det")
        return real_bareiss(m, ring)

    def add_products(*args):
        events.append("schur")
        return real_add(*args)

    D = load_diagram(TESTS_DATA / "fill_in.json")
    pres, loaded = presentation(D), load_representation(TESTS_DATA / rep_file)
    rep = representation_for(pres, 2, loaded.matrices_for(pres.generator_names()),
                             loaded.field, twisted=True)
    for r in (rep, rep.inverse_transpose()):
        want = real_bareiss(_scalar(_fox_grid(pres, r)[0], r), r.ring)
        monkeypatch.setattr(torsion, "inverse_and_det", inverse)
        monkeypatch.setattr(torsion, "bareiss_det", bareiss)
        monkeypatch.setattr(torsion, "_add_products", add_products)
        del events[:]
        assert _fox_block_det(pres, r) == want
        monkeypatch.undo()
        sweep = "singular" if singular else "swept"
        assert events.count(sweep) == 1 and "schur" in events[:events.index(sweep)]
        assert events.count("remainder") == singular
