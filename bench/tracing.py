"""Traced run: spans around the public calls into each layer, and counters.

The driver below issues the same public functions, in the same order, as
``cli.main`` or ``torsion.crosscheck`` would for one operation, with one span
per call.  Spans are kept in memory and written out once at the end.

Counters that no public call boundary exposes (arithmetic calls, Hopf slot
images) come from method wrappers that ``instrument`` installs on the
library's classes for the traced run only; the function it returns puts the
original methods back.
"""

from __future__ import annotations

import json
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

from suturekup import cli, files
from suturekup.abelian import abelianize
from suturekup.diagram import presentation, validate
from suturekup.hopf import ExteriorAlgebra, HopfAutomorphism
from suturekup.kuperberg import EvaluationOptions, Representation, evaluate_z
from suturekup.laurent import InexactDivision, LaurentPoly, divide_exact, normalize_unit
from suturekup.numberfield import QQ, FieldElement
from suturekup.torsion import AlexanderResult, CrosscheckReport, bareiss_det, fox_matrix
from suturekup.words import parse_word, sigma

import verify
import workloads

# span names whose summed duration is reported as <name>_s
TIMED_SPANS = (
    "cli.parse", "files.load", "diagram.validate", "diagram.presentation",
    "abelian.abelianize", "kuperberg.rep_build", "kuperberg.contract",
    "hopf.coproduct", "hopf.slot_image", "torsion.fox", "torsion.block",
    "torsion.det", "laurent.divide", "laurent.normalize",
)


class Tracer:
    """Spans (name, start, end, parent index, operation id) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self.maxima = defaultdict(int)
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path, header):
        doc = dict(header)
        doc["spans"] = [dict(zip(("name", "start", "end", "parent", "op"), s))
                        for s in self.spans]
        doc["counters"] = {**self.counts, **self.seconds, **self.maxima}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def span_totals(spans):
    """Summed duration and summed self time per span name.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    for k, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[k]
    return total, self_time


def _bits(element):
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in element.vec)


def instrument(tracer):
    """Wrap the arithmetic and Hopf methods; return the function that restores them."""
    saved = []
    perf = time.perf_counter
    counts, seconds, maxima = tracer.counts, tracer.seconds, tracer.maxima

    def patch(cls, attrs, make):
        original = cls.__dict__.get(attrs[0])
        if original is None:
            return
        wrapped = make(original)
        for attr in attrs:
            saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)

    def laurent_mul(original):
        def __mul__(self, other):
            t0 = perf()
            out = original(self, other)
            seconds["laurent.mul_s"] += perf() - t0
            counts["laurent.mul_calls"] += 1
            if len(out.terms) > maxima["laurent.support_max"]:
                maxima["laurent.support_max"] = len(out.terms)
            return out
        return __mul__

    def field_mul(original):
        def __mul__(self, other):
            t0 = perf()
            out = original(self, other)
            seconds["numberfield.mul_s"] += perf() - t0
            counts["numberfield.mul_calls"] += 1
            bits = _bits(out)
            if bits > maxima["numberfield.height_bits"]:
                maxima["numberfield.height_bits"] = bits
            return out
        return __mul__

    def field_inv(original):
        def inv(self):
            counts["numberfield.inv_calls"] += 1
            return original(self)
        return inv

    def coproduct(original):
        def iterated_coproduct(self, e, k):
            with tracer.span("hopf.coproduct"):
                out = original(self, e, k)
            counts["hopf.coproduct_terms"] += len(out.terms)
            return out
        return iterated_coproduct

    def slot_image(original):
        def apply_label(self, label):
            counts["hopf.slot_images"] += 1
            with tracer.span("hopf.slot_image"):
                return original(self, label)
        return apply_label

    try:
        patch(LaurentPoly, ("__mul__",), laurent_mul)
        patch(FieldElement, ("__mul__", "__rmul__"), field_mul)
        patch(FieldElement, ("inv",), field_inv)
        patch(ExteriorAlgebra, ("iterated_coproduct",), coproduct)
        patch(HopfAutomorphism, ("apply_label",), slot_image)
    except BaseException:
        _restore(saved)
        raise
    return lambda: _restore(saved)


def _restore(saved):
    for cls, attr, original in reversed(saved):
        setattr(cls, attr, original)
    saved.clear()


# -- the traced driver ---------------------------------------------------------


def _contract(t, D, H, rep, opts):
    with t.span("kuperberg.contract"):
        z = evaluate_z(D, H, rep, opts)
    terms = 1
    for curve in D.alphas:
        terms *= len(curve) ** H.n
    t.counts["kuperberg.terms"] += terms
    t.counts["kuperberg.contractions"] += 1
    t.counts["kuperberg.nonzero"] += not z.is_zero()
    return z


def _fox_det(t, pres, rep, n, field, torsion_convention):
    """Fox block through the representation and its Bareiss determinant.

    The torsion convention puts sigma(d rel_j / d gen_i) at block (i, j); the
    crosscheck puts d rel_i / d gen_j there.
    """
    fm = t.call("torsion.fox", fox_matrix, pres, field)
    square = fm.closed_square()
    t.counts["torsion.fox_terms"] += sum(len(e.terms) for row in square for e in row)
    d = len(square)
    with t.span("torsion.block"):
        if torsion_convention:
            blocks = [[rep.apply_to_groupring(sigma(square[j][i])) for j in range(d)]
                      for i in range(d)]
        else:
            blocks = [[rep.apply_to_groupring(square[i][j]) for j in range(d)]
                      for i in range(d)]
    t.maxima["torsion.det_dim"] = max(t.maxima["torsion.det_dim"], d * n)
    return t.call("torsion.det", bareiss_det, verify.assemble(blocks, n), rep.ring)


def _crosscheck(t, D, n, matrices, twisted, field=QQ):
    pres = t.call("diagram.presentation", presentation, D)
    if twisted:
        amap = t.call("abelian.abelianize", abelianize, pres.num_generators, pres.relators)
        rep = t.call("kuperberg.rep_build", Representation.twisted, matrices, amap, n, field)
    else:
        rep = t.call("kuperberg.rep_build", Representation, field, n, matrices)
    z = _contract(t, D, ExteriorAlgebra(n, rep.ring), rep, EvaluationOptions())
    det = _fox_det(t, pres, rep, n, field, torsion_convention=False)
    return workloads.crosscheck_text(CrosscheckReport(z, det))


def _kuperberg(t, args):
    if not args.twisted:
        raise ValueError("the traced driver covers kuperberg --twisted only")
    D = t.call("files.load", files.load_diagram, args.diagram)
    report = t.call("diagram.validate", validate, D)
    if not report.valid:
        raise ValueError("invalid diagram: " + "; ".join(report.errors))
    pres = t.call("diagram.presentation", presentation, D)
    n = int(args.hopf.partition(":")[2])
    field, matrices = QQ, None
    if args.rep:
        rep_file = t.call("files.load", files.load_representation, args.rep)
        field, matrices = rep_file.field, rep_file.matrices_for(pres.generator_names())
    # evaluate_z_twisted
    pres = t.call("diagram.presentation", presentation, D)
    amap = t.call("abelian.abelianize", abelianize, pres.num_generators, pres.relators)
    rep = t.call("kuperberg.rep_build", Representation.twisted, matrices, amap, n, field)
    opts = EvaluationOptions(homology_orientation_sign=args.sign)
    return f"{_contract(t, D, ExteriorAlgebra(n, rep.ring), rep, opts)}\n"


def _twisted_alexander(t, args):
    if t.call("files.load", files.detect_input, args.input) != "diagram":
        raise ValueError("the traced driver covers diagram inputs only")
    D = t.call("files.load", files.load_diagram, args.input)
    report = t.call("diagram.validate", validate, D)
    if not report.valid:
        raise ValueError("invalid diagram: " + "; ".join(report.errors))
    pres = t.call("diagram.presentation", presentation, D)
    rep_file = t.call("files.load", files.load_representation, args.representation)
    names = pres.generator_names()
    matrices = rep_file.matrices_for(names)
    meridian = parse_word(rep_file.meridian, names)
    n, field = rep_file.dimension, rep_file.field
    # twisted_alexander_knot, with twisted_torsion inlined
    amap = t.call("abelian.abelianize", abelianize, pres.num_generators, pres.relators)
    rep = t.call("kuperberg.rep_build", Representation.twisted, matrices, amap, n, field)
    torsion = _fox_det(t, pres, rep, n, field, torsion_convention=True)
    t.call("laurent.normalize", normalize_unit, torsion)
    rep = t.call("kuperberg.rep_build", Representation.twisted, matrices, amap, n, field)
    ring = rep.ring
    m = rep.word_matrix(meridian)
    factor = [[m[i][j] - (ring.one if i == j else ring.zero) for j in range(n)]
              for i in range(n)]
    boundary = t.call("torsion.det", bareiss_det, factor, ring)
    if boundary.is_zero():
        raise ValueError("boundary factor det(t*rho(m) - I) vanishes")
    try:
        result = AlexanderResult(torsion, boundary,
                                 t.call("laurent.divide", divide_exact, torsion, boundary), True)
    except InexactDivision:
        result = AlexanderResult(torsion, boundary, None, False)
    with t.span("laurent.normalize"):
        return verify.alexander_text(result)


def traced_op(t, op, loaded):
    """Output text of one operation, issued through the traced driver."""
    t.op = op["id"]
    try:
        if op["kind"] == "crosscheck":
            return _crosscheck(t, loaded[op["diagram"]], op["n"], loaded[op["rep"]],
                               op["twisted"])
        args = t.call("cli.parse", cli.build_parser().parse_args, op["argv"])
        if args.command == "kuperberg":
            return _kuperberg(t, args)
        if args.command == "twisted-alexander":
            return _twisted_alexander(t, args)
        raise ValueError(f"the traced driver does not cover {args.command!r}")
    finally:
        t.op = None


def layer_metrics(t, traced_s, untraced_s):
    """Every per-layer metric of one traced pass, as {name: (value, unit)}."""
    total, _ = span_totals(t.spans)
    out = {f"{name}_s": (total[name], "s") for name in TIMED_SPANS}
    contract_s = total["kuperberg.contract"]
    terms = t.counts["kuperberg.terms"]
    contractions = t.counts["kuperberg.contractions"]
    out.update({
        "kuperberg.terms": (terms, "count"),
        "kuperberg.terms_per_s": (terms / contract_s if contract_s else 0.0, "1/s"),
        "kuperberg.nonzero_ratio": (
            t.counts["kuperberg.nonzero"] / contractions if contractions else 0.0, "ratio"),
        "hopf.coproduct_terms": (t.counts["hopf.coproduct_terms"], "count"),
        "hopf.slot_images": (t.counts["hopf.slot_images"], "count"),
        "torsion.fox_terms": (t.counts["torsion.fox_terms"], "count"),
        "torsion.det_dim": (t.maxima["torsion.det_dim"], "count"),
        "laurent.support_max": (t.maxima["laurent.support_max"], "count"),
        "laurent.mul_calls": (t.counts["laurent.mul_calls"], "count"),
        "laurent.mul_s": (t.seconds["laurent.mul_s"], "s"),
        "numberfield.mul_calls": (t.counts["numberfield.mul_calls"], "count"),
        "numberfield.mul_s": (t.seconds["numberfield.mul_s"], "s"),
        "numberfield.inv_calls": (t.counts["numberfield.inv_calls"], "count"),
        "numberfield.height_bits": (t.maxima["numberfield.height_bits"], "bits"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    return out


def traced_pass(ops, loaded):
    """One pass through the traced driver: (tracer, outputs, wall seconds)."""
    t = Tracer()
    restore = instrument(t)
    try:
        start = time.perf_counter()
        outputs = []
        for op in ops:
            try:
                outputs.append(traced_op(t, op, loaded))
            except (Exception, SystemExit) as exc:
                traceback.print_exc()
                outputs.append(f"raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
    finally:
        restore()
    return t, outputs, wall

