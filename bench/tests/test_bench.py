"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import filecmp
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402  (first: puts the checkout's src/ on sys.path)
import gen  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from suturekup import files  # noqa: E402
from suturekup.abelian import abelianize  # noqa: E402
from suturekup.diagram import CLOSED, presentation, random_datum, validate  # noqa: E402
from suturekup.kuperberg import Representation  # noqa: E402
from suturekup.laurent import LaurentPoly  # noqa: E402
from suturekup.numberfield import QQ, FieldElement  # noqa: E402
from suturekup.torsion import bareiss_det, twisted_torsion  # noqa: E402
from suturekup.words import parse_word  # noqa: E402

# the cheapest operations of each workload, for smoke runs
SMOKE = {
    "oracle50": ["o00-plain", "o01-twisted", "o05-twisted"],
    "contraction-sweep": ["d1n2L10v0", "d3n2L2.2.3v1", "trefoil-n2"],
    "torsion-nf": ["d3n2r1v0", "d3n2r2v1", "figure8-parabolic"],
}


def smoke_ops(workload, seed, directory):
    ops = workloads.build(workload, seed, str(directory))
    return [op for op in ops if op["id"] in SMOKE[workload]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    workloads.build(workload, 7, str(first))
    workloads.build(workload, 7, str(second))
    names = sorted(os.listdir(first))
    assert names and names == sorted(os.listdir(second))
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert not mismatch and not errors


def test_seeds_change_contents_not_shapes(tmp_path):
    plans = []
    for seed in (1, 2):
        directory = tmp_path / str(seed)
        directory.mkdir()
        plans.append(workloads.build("torsion-nf", seed, str(directory)))
    a, b = plans
    assert [op["id"] for op in a] == [op["id"] for op in b]
    assert any(open(x["rep"]).read() != open(y["rep"]).read() for x, y in zip(a, b))


def test_default_seed_reproduces_acceptance_criterion_3():
    rng = random.Random(20260809)

    def acceptance_matrix(n):
        while True:
            m = [[QQ.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                  for _ in range(n)] for _ in range(n)]
            if not gen.field_det(m, QQ).is_zero():
                return m

    for k, D, n, mats in gen.oracle_data(workloads.DEFAULT_SEED):
        assert n == 1 + k % 3
        expected = random_datum(9000 + k, 1 + k % 2, k % 3, 6)
        assert files.diagram_to_data(D) == files.diagram_to_data(expected)
        assert mats == [acceptance_matrix(n) for _ in range(D.num_generators)]


@pytest.mark.parametrize("workload", ["contraction-sweep", "torsion-nf"])
def test_generated_inputs_are_well_formed(workload, tmp_path):
    ops = workloads.build(workload, 3, str(tmp_path))
    loaded = workloads.load_inputs(ops)
    for op in ops:
        D = loaded[op["diagram"]]
        assert validate(D).valid
        if op["rep"] is None:
            continue
        rep_file = files.load_representation(op["rep"])
        field, mats = rep_file.field, loaded[op["rep"]]
        assert all(not gen.field_det(m, field).is_zero() for m in mats)
        if workload == "contraction-sweep":
            betas = {D.crossings[c].beta_index for curve in D.alphas for c in curve}
            assert all(D.alphas) and betas == set(range(D.d))
            assert all(D.crossings[c].alpha_kind == CLOSED for curve in D.alphas
                       for c in curve)
        else:
            pres = presentation(D)
            amap = abelianize(pres.num_generators, pres.relators)
            meridian = parse_word(rep_file.meridian, pres.generator_names())
            assert any(amap.word_image(meridian))
            rho = Representation.twisted(mats, amap, rep_file.dimension, field)
            m = rho.word_matrix(meridian)
            n = rep_file.dimension
            factor = [[m[i][j] - (rho.ring.one if i == j else rho.ring.zero)
                       for j in range(n)] for i in range(n)]
            assert not bareiss_det(factor, rho.ring).is_zero()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 5])
def test_smoke_run_has_no_failures(workload, seed, tmp_path):
    ops = smoke_ops(workload, seed, tmp_path)
    loaded = workloads.load_inputs(ops)
    passes = run.timed_passes(ops, loaded, seconds=0)
    assert len(passes) == run.MIN_PASSES
    assert all(len(scales) == len(ops) for _, _, scales in passes)
    runs = [outputs for _, outputs, _ in passes]
    assert run.check_outputs(workload, seed, ops, runs) == 0
    metrics, _ = run.end_to_end(ops, passes, setup_s=0.1)
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_output_is_a_failure(workload, tmp_path):
    ops = smoke_ops(workload, 5, tmp_path)
    loaded = workloads.load_inputs(ops)
    good = [workloads.run_op(op, loaded) for op in ops]
    bad = [(text.replace("t", "t^2", 1) + "0\n", code) for text, code in good]
    assert run.check_outputs(workload, 5, ops, [good, bad]) == len(ops)
    for op, (text, code) in zip(ops, bad):
        assert verify.problems(op, text, code)


def test_evaluated_torsion_catches_a_wrong_determinant(tmp_path):
    op = smoke_ops("torsion-nf", 5, tmp_path)[0]
    D = files.load_diagram(op["diagram"])
    rep_file = files.load_representation(op["rep"])
    pres = presentation(D)
    mats = rep_file.matrices_for(pres.generator_names())
    amap = abelianize(pres.num_generators, pres.relators)
    field, n = rep_file.field, rep_file.dimension
    images = verify.evaluated_images(mats, amap, field, verify.POINTS[0][:amap.rank])
    value = verify.evaluated_torsion(pres, images, n, field)
    torsion = twisted_torsion(pres, mats, amap, n, field).raw
    point = verify.POINTS[0][:amap.rank]
    assert verify.evaluate_laurent(torsion, point) == value
    doubled = torsion + torsion
    assert verify.evaluate_laurent(doubled, point) != value or value.is_zero()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_driver_matches_cli_output(workload, tmp_path):
    ops = smoke_ops(workload, 5, tmp_path)
    loaded = workloads.load_inputs(ops)
    mul = (LaurentPoly.__mul__, FieldElement.__mul__, FieldElement.__rmul__)
    tracer, traced, _ = tracing.traced_pass(ops, loaded)
    assert (LaurentPoly.__mul__, FieldElement.__mul__, FieldElement.__rmul__) == mul
    assert traced == [workloads.run_op(op, loaded)[0] for op in ops]
    assert all(span[2] is not None and span[4] in SMOKE[workload] for span in tracer.spans)


def test_counters_repeat_exactly(tmp_path):
    ops = smoke_ops("contraction-sweep", 5, tmp_path) + smoke_ops("torsion-nf", 5, tmp_path)
    loaded = workloads.load_inputs(ops)
    names = ("kuperberg.terms", "hopf.slot_images", "laurent.mul_calls",
             "numberfield.mul_calls", "torsion.fox_terms")
    first, second = [
        tracing.layer_metrics(tracing.traced_pass(ops, loaded)[0], 1.0, 1.0)
        for _ in range(2)
    ]
    assert all(first[name] == second[name] and first[name][0] > 0 for name in names)


def test_contraction_is_zero_without_contractions(tmp_path):
    ops = smoke_ops("torsion-nf", 5, tmp_path)
    tracer, _, _ = tracing.traced_pass(ops, workloads.load_inputs(ops))
    metrics = tracing.layer_metrics(tracer, 2.0, 1.0)
    assert metrics["kuperberg.contract_s"][0] == 0
    assert metrics["kuperberg.terms"][0] == 0
    assert metrics["torsion.det_s"][0] > 0
    assert metrics["trace.overhead_ratio"][0] == 2.0


def test_span_self_time_arithmetic():
    spans = [
        ["kuperberg.contract", 0.0, 10.0, -1, "a"],
        ["hopf.coproduct", 1.0, 3.0, 0, "a"],
        ["hopf.slot_image", 4.0, 5.0, 0, "a"],
        ["hopf.slot_image", 5.0, 5.5, 0, "a"],
        ["torsion.det", 11.0, 12.0, -1, "a"],
    ]
    total, self_time = tracing.span_totals(spans)
    assert total["kuperberg.contract"] == 10.0
    assert self_time["kuperberg.contract"] == 10.0 - 2.0 - 1.5
    assert total["hopf.slot_image"] == self_time["hopf.slot_image"] == 1.5
    assert self_time["torsion.det"] == 1.0


def test_traced_contraction_self_time(tmp_path):
    ops = smoke_ops("contraction-sweep", 5, tmp_path)
    tracer, _, _ = tracing.traced_pass(ops, workloads.load_inputs(ops))
    total, self_time = tracing.span_totals(tracer.spans)
    children = total["hopf.coproduct"] + total["hopf.slot_image"]
    assert 0 < children < total["kuperberg.contract"]
    assert self_time["kuperberg.contract"] == pytest.approx(
        total["kuperberg.contract"] - children)


def test_tail_latency_is_geometric_mean_of_slowest_ten():
    latencies = [1.0] * 90 + [2.0] * 5 + [8.0] * 5
    value, q = run.tail_latency(latencies)
    assert q == 90.0
    assert value == pytest.approx(4.0)
