import json
import os
import subprocess
import sys
import time

import pytest
from conftest import data_path
from make_cli_golden import run

import suturekup
from suturekup import diagram, hopf, presentation, torsion, validate
from suturekup.cli import MAX_AXIOMS_DIM, build_parser, main
from suturekup.files import (
    DIAGRAM,
    PAIR,
    PRESENTATION,
    REPRESENTATION,
    canonical_json,
    diagram_from_data,
    diagram_to_data,
    load_diagram,
    load_representation,
    presentation_from_data,
    presentation_to_data,
    representation_from_data,
)
from suturekup.hopf import MAX_DIM, ExteriorAlgebra
from suturekup.kuperberg import evaluate_z, representation_for


def test_diagram_roundtrip_byte_identical():
    for D in (load_diagram(data_path("trefoil.json")), load_diagram(data_path("figure8.json"))):
        text = canonical_json(diagram_to_data(D))
        parsed = diagram_from_data(json.loads(text))
        again = canonical_json(diagram_to_data(parsed))
        assert text == again
        assert validate(parsed).valid


def test_shipped_fixtures_load():
    for name in ("trefoil.json", "figure8.json"):
        D = load_diagram(data_path(name))
        assert validate(D).valid


def test_presentation_file_roundtrip():
    pres = presentation(load_diagram(data_path("trefoil.json")))
    data = presentation_to_data(pres)
    back = presentation_from_data(data)
    assert back.relators == pres.relators
    assert back.closed_count == pres.closed_count
    assert canonical_json(presentation_to_data(back)) == canonical_json(data)


def test_representation_file_parse():
    data = {
        "min_poly": [1, 0, 1],
        "dimension": 2,
        "generators": {
            "alpha": [["1", "x"], ["0", "1"]],
            "a": [["1", "0"], ["-x", "1"]],
        },
        "meridian": "a",
    }
    rf = representation_from_data(data)
    assert rf.dimension == 2
    mats = rf.matrices_for(["alpha", "a"])
    assert len(mats) == 2
    with pytest.raises(ValueError):
        rf.matrices_for(["alpha", "missing"])


def test_cmd_validate():
    code, out, _ = run(["validate", data_path("trefoil.json")])
    assert code == 0
    assert out == "valid\n"


def test_cmd_validate_rejects_bad_diagram(tmp_path):
    bad = {
        "alpha_closed": [{"name": "alpha", "crossings": ["x1"]}],
        "arcs": [],
        "beta": [
            {"name": "b1", "crossings": [["x1", 1]], "basepoint_index": 0},
            {"name": "b2", "crossings": [["x1", 1]], "basepoint_index": 0},
        ],
    }
    p = tmp_path / "bad.json"
    p.write_text(canonical_json(bad))
    code, out, _ = run(["validate", str(p)])
    assert code == 1
    assert "error" in out


def test_missing_file_is_one_line_error(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["kuperberg", missing, "--hopf", "exterior:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and missing in captured.err
    assert captured.err.count("\n") == 1


def test_malformed_json_is_one_line_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{bad")
    assert main(["validate", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed JSON in {p}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constant_is_malformed_json(tmp_path, capsys, token):
    # Python's json reads these three as floats by default; JSON has none of them
    datum = tmp_path / "diagram.json"
    datum.write_text(f'{{"alpha_closed": [], "arcs": [], "beta": {token}}}')
    rep = read_json(data_path("figure8_parabolic_rep.json"))
    rep["generators"]["alpha"][0][0] = "@"
    doc = tmp_path / "rep.json"
    doc.write_text(json.dumps(rep).replace('"@"', token))
    for argv, path in ((["validate", str(datum)], datum),
                       (["twisted-alexander", data_path("figure8.json"), str(doc)], doc)):
        err = one_line_exit_2(capsys, argv)
        assert err == f"error: malformed JSON in {path}: {token} is not a JSON value\n"


def test_each_entry_point_validates_the_datum_once(monkeypatch):
    calls = []
    real = diagram.validate
    monkeypatch.setattr(diagram, "validate", lambda D: calls.append(D) or real(D))
    D = load_diagram(data_path("figure8.json"))
    rep = load_representation(data_path("figure8_parabolic_rep.json"))
    matrices = rep.matrices_for(D.generator_names())
    twisted = representation_for(presentation(D), 2, matrices, rep.field, True)
    args = [data_path("figure8.json"), "--hopf", "exterior:2",
            "--rep", data_path("figure8_parabolic_rep.json"), "--twisted"]
    # each run returns whether it completed
    runs = {
        "crosscheck": lambda: torsion.crosscheck(D, 2, matrices, True, rep.field).passed,
        "evaluate_z": lambda: not evaluate_z(D, ExteriorAlgebra(2, twisted.ring), twisted).is_zero(),
        "cli kuperberg": lambda: run(["kuperberg", *args])[0] == 0,
        "cli crosscheck": lambda: run(["crosscheck", *args])[0] == 0,
    }
    for name, completes in runs.items():
        calls.clear()
        assert completes(), name
        assert len(calls) == 1, name


# both sides of the interpreter's nesting limit, where the decoder stops with a
# RecursionError rather than a JSONDecodeError, and far beyond it
DEPTHS = [*range(sys.getrecursionlimit() - 60, sys.getrecursionlimit() + 16), 5000, 100000]


def one_line_exit_2(capsys, argv):
    """The stderr line of the CLI call; it must exit with code 2 and print nothing else."""
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, argv
    return captured.err


def test_unclosed_nesting_at_any_depth_is_one_line_error_naming_the_file(tmp_path, capsys):
    doc = tmp_path / "deep.json"
    for depth in DEPTHS:
        doc.write_text("[" * depth)
        for argv in (["validate", str(doc)],
                     ["twisted-alexander", data_path("figure8.json"), str(doc)]):
            err = one_line_exit_2(capsys, argv)
            assert err.startswith(f"error: malformed JSON in {doc}: "), (depth, err)


def test_nested_crossing_or_matrix_entry_at_any_depth_is_one_line_error(tmp_path, capsys):
    # a closed list nesting depth deep either parses and is refused by its kind,
    # or is too deep to parse
    diagram = read_json(data_path("figure8.json"))
    diagram["alpha_closed"][0]["crossings"][0] = "@"
    rep = read_json(data_path("figure8_parabolic_rep.json"))
    rep["generators"]["alpha"][0][0] = "@"
    doc = tmp_path / "deep.json"
    for depth in DEPTHS:
        for data, argv in ((diagram, ["validate", str(doc)]),
                           (rep, ["twisted-alexander", data_path("figure8.json"), str(doc)])):
            doc.write_text(json.dumps(data).replace('"@"', "[" * depth + '"1"' + "]" * depth))
            assert one_line_exit_2(capsys, argv).startswith("error: "), depth


def test_cmd_kuperberg_trefoil_exact_output():
    code, out, _ = run([
        "kuperberg", data_path("trefoil.json"), "--hopf", "exterior:1", "--twisted"])
    assert code == 0
    assert out == "t^-1 - 1 + t\n"


def test_cmd_kuperberg_untwisted():
    code, out, _ = run([
        "kuperberg", data_path("trefoil.json"), "--hopf", "exterior:1"])
    assert code == 0
    assert out == "1\n"


def test_cmd_alexander_both_input_kinds():
    code, out, _ = run(["alexander", data_path("figure8.json")])
    assert (code, out) == (0, "1 - 3*t + t^2\n")
    code, out, _ = run(["alexander", data_path("figure8_wirtinger.json")])
    assert (code, out) == (0, "1 - 3*t + t^2\n")


def test_cmd_twisted_alexander(tmp_path):
    code, out, _ = run([
        "twisted-alexander", data_path("trefoil.json"),
        data_path("trefoil_trivial_rep.json")])
    assert code == 0
    assert "torsion: 1 - t + t^2" in out
    assert "boundary_factor: 1 - t" in out
    assert "quotient: not exact" in out


def test_cmd_crosscheck_diagram():
    code, out, _ = run([
        "crosscheck", data_path("figure8.json"), "--hopf", "exterior:2",
        "--twisted"])
    assert code == 0
    assert out.startswith("PASS\n")


def test_cmd_crosscheck_with_rep_file(tmp_path):
    rep = {
        "min_poly": [0, 1],
        "dimension": 2,
        "generators": {
            "alpha": [["2", "1"], ["1", "1"]],
            "a": [["1", "1/2"], ["-1", "3"]],
        },
    }
    p = tmp_path / "rep.json"
    p.write_text(canonical_json(rep))
    code, out, _ = run([
        "crosscheck", data_path("figure8.json"), "--hopf", "exterior:2",
        "--rep", str(p)])
    assert code == 0
    assert out.startswith("PASS\n")


def test_cmd_twisted_alexander_parabolic_rep():
    code, out, _ = run([
        "twisted-alexander", data_path("figure8.json"),
        data_path("figure8_parabolic_rep.json")])
    assert code == 0
    assert "torsion: 1 - 6*t + 10*t^2 - 6*t^3 + t^4" in out
    assert "boundary_factor: 1 - 2*t + t^2" in out
    assert "quotient: 1 - 4*t + t^2" in out


def test_cmd_kuperberg_parabolic_rep():
    code, out, _ = run([
        "kuperberg", data_path("figure8.json"), "--hopf", "exterior:2",
        "--rep", data_path("figure8_parabolic_rep.json"), "--twisted"])
    assert code == 0
    assert out == "1 - 6*t + 10*t^2 - 6*t^3 + t^4\n"


def test_cmd_crosscheck_random_uses_seed_env(monkeypatch):
    monkeypatch.setenv("SUTURE_KUP_SEED", "5")
    code1, out1, _ = run(["crosscheck", "--hopf", "exterior:2", "--random", "4"])
    code2, out2, _ = run(["crosscheck", "--hopf", "exterior:2", "--random", "4"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed 5" in out1
    monkeypatch.setenv("SUTURE_KUP_SEED", "9")
    _, out3, _ = run(["crosscheck", "--hopf", "exterior:2", "--random", "4"])
    assert "seed 9" in out3


def test_cmd_crosscheck_negative_random_is_usage_error():
    code, out, err = run(["crosscheck", "--hopf", "exterior:1", "--random", "-3"])
    assert code == 2
    assert out == ""
    assert "--random N must not be negative, not -3" in err


def test_cmd_crosscheck_without_input_is_usage_error():
    code, out, err = run(["crosscheck", "--hopf", "exterior:1"])
    assert code == 2
    assert out == ""
    assert "crosscheck needs a diagram file or --random N" in err


@pytest.mark.parametrize("twisted", [[], ["--twisted"]], ids=["plain", "twisted"])
def test_cmd_crosscheck_at_dimension_zero(twisted):
    # Lambda(V) on no generators: Z is the empty product, det the empty determinant
    code, out, _ = run(["crosscheck", data_path("figure8.json"), "--hopf", "exterior:0", *twisted])
    assert (code, out) == (0, "PASS\nZ = 1\ndet = 1\n")


@pytest.mark.parametrize("inputs", [
    pytest.param([data_path("figure8.json")], id="diagram"),
    pytest.param(["--rep", data_path("figure8_parabolic_rep.json")], id="rep"),
    pytest.param([data_path("figure8.json"), "--rep", data_path("figure8_parabolic_rep.json")],
                 id="diagram-and-rep"),
])
def test_cmd_crosscheck_random_with_inputs_is_usage_error(inputs):
    code, out, err = run(["crosscheck", "--random", "2", "--hopf", "exterior:2", *inputs])
    assert code == 2
    assert out == ""
    assert "--random N takes no diagram file and no --rep" in err


def test_cmd_axioms():
    code, out, _ = run(["axioms", "--hopf", "exterior:3"])
    assert code == 0
    assert "FAIL" not in out
    assert "normalization mu(c) = 1" in out


def test_cmd_homology():
    code, out, _ = run(["homology", data_path("trefoil.json")])
    assert code == 0
    assert "rank: 1" in out
    assert "alpha -> (1)" in out and "a -> (1)" in out


def test_cmd_presentation():
    code, out, _ = run(["presentation", data_path("trefoil.json")])
    assert code == 0
    assert "relator 1: a*alpha*a^-1*alpha^-1*a^-1*alpha" in out


def test_cmd_kuperberg_with_rep_and_sign():
    code, out, _ = run([
        "kuperberg", data_path("trefoil.json"), "--hopf", "exterior:1",
        "--rep", data_path("trefoil_trivial_rep.json"), "--twisted",
        "--sign", "-1"])
    assert code == 0
    assert out == "-t^-1 + 1 - t\n"


def test_byte_identical_across_processes():
    import os
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "suturekup.cli", "kuperberg",
           data_path("figure8.json"), "--hopf", "exterior:2", "--twisted"]
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        outs.append(subprocess.run(cmd, capture_output=True, env=env).stdout)
    assert outs[0] == outs[1]
    assert outs[0].endswith(b"\n")


def write_figure8_rep(tmp_path, alpha, min_poly=(1, 1, 1)):
    p = tmp_path / "rep.json"
    p.write_text(json.dumps({
        "dimension": 2,
        "generators": {"a": [["1", "0"], ["0", "1"]], "alpha": alpha},
        "meridian": "a",
        "min_poly": list(min_poly),
    }))
    return str(p)


def assert_one_line_error(capsys, argv, *phrases):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 200
    for phrase in phrases:
        assert phrase in captured.err


def test_twisted_alexander_singular_matrix_is_one_line_error(tmp_path, capsys):
    rep = write_figure8_rep(tmp_path, [["1", "1"], ["1", "1"]])
    assert_one_line_error(capsys, ["twisted-alexander", data_path("figure8.json"), rep],
                          "generator 'alpha'", "not invertible")


@pytest.mark.parametrize("entry, kind", [
    pytest.param([1], "a list", id="list"),
    pytest.param(None, "null", id="null"),
    pytest.param(True, "a boolean", id="true"),
    pytest.param({"a": 1}, "an object", id="object"),
    pytest.param(1.5, "a number with a fraction or exponent", id="float"),
])
def test_matrix_entry_of_wrong_kind_is_one_line_error(tmp_path, capsys, entry, kind):
    # these once read as text, e.g. "cannot parse field element '[1]' at '[1]'"
    rep = write_figure8_rep(tmp_path, [[entry, "-1"], ["0", "1"]])
    assert_one_line_error(capsys, ["twisted-alexander", data_path("figure8.json"), rep],
                          f"matrix for 'alpha' holds {kind} at row 1, column 1")


def test_kuperberg_singular_matrix_is_one_line_error(tmp_path, capsys):
    rep = write_figure8_rep(tmp_path, [["1", "1"], ["1", "1"]])
    assert_one_line_error(capsys, ["kuperberg", data_path("figure8.json"),
                                   "--hopf", "exterior:2", "--rep", rep, "--twisted"],
                          "generator 'alpha'", "not invertible")


@pytest.mark.parametrize("min_poly, entry, command", [
    pytest.param((-1, 0, 1), "1", "twisted-alexander", id="root-twisted-alexander"),
    # (x^2 + 1)(x^2 + 2): no rational root, and 1 + x^2 is a zero divisor
    pytest.param((2, 0, 3, 0, 1), "1 + x^2", "twisted-alexander",
                 id="zero-divisor-twisted-alexander"),
    pytest.param((2, 0, 3, 0, 1), "1 + x^2", "kuperberg", id="zero-divisor-kuperberg"),
])
def test_reducible_min_poly_is_one_line_error(tmp_path, capsys, min_poly, entry, command):
    rep = write_figure8_rep(tmp_path, [[entry, "1"], ["0", "1"]], min_poly=min_poly)
    options = [rep] if command == "twisted-alexander" else ["--hopf", "exterior:2", "--rep", rep]
    argv = [command, data_path("figure8.json")] + options
    assert_one_line_error(capsys, argv, f"min_poly {list(min_poly)}", "reducible")


@pytest.mark.parametrize("command", ["crosscheck", "twisted-alexander"])
def test_min_poly_that_is_not_squarefree_is_one_line_error(tmp_path, capsys, command):
    # (x^2 + 1)^2 on the shipped parabolic matrices once printed PASS and
    # "quotient: not exact" with exit code 0
    doc = read_json(data_path("figure8_parabolic_rep.json"))
    doc["min_poly"] = [1, 0, 2, 0, 1]
    rep = write_json(tmp_path, doc)
    options = ([rep] if command == "twisted-alexander"
               else ["--hopf", "exterior:2", "--rep", rep, "--twisted"])
    assert_one_line_error(capsys, [command, data_path("figure8.json")] + options,
                          "min_poly [1, 0, 2, 0, 1]", "not squarefree")


@pytest.mark.parametrize("min_poly", [
    pytest.param([1] + [0] * 1199 + [1], id="x^1200+1"),
    pytest.param([int("9" * 999)] * 8 + [1], id="degree-8-999-digits"),
])
def test_min_poly_beyond_the_bounds_is_one_line_error(tmp_path, capsys, min_poly):
    rep = write_figure8_rep(tmp_path, [["1", "1"], ["0", "1"]], min_poly=min_poly)
    start = time.monotonic()
    assert_one_line_error(capsys, ["twisted-alexander", data_path("figure8.json"), rep],
                          "min_poly [", "exceeds degree 16 or 100-digit coefficients")
    assert time.monotonic() - start < 1.0


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(tmp_path, data, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_top_level_array_is_one_line_error(tmp_path, capsys):
    doc = write_json(tmp_path, [1, 2])
    assert_one_line_error(capsys, ["kuperberg", doc, "--hopf", "exterior:1"],
                          "diagram must be a JSON object")


@pytest.mark.parametrize("key", ["dimension", "generators"])
def test_representation_missing_key_is_one_line_error(tmp_path, capsys, key):
    rep = read_json(write_figure8_rep(tmp_path, [["1", "1"], ["0", "1"]]))
    del rep[key]
    assert_one_line_error(capsys, ["kuperberg", data_path("figure8.json"), "--hopf",
                                   "exterior:2", "--rep", write_json(tmp_path, rep)],
                          f"representation misses key {key!r}")


@pytest.mark.parametrize("dim", [MAX_DIM + 1, -1])
def test_representation_dimension_out_of_range_is_one_line_error(tmp_path, capsys,
                                                                monkeypatch, dim):
    # the range is checked before any n x n identity is built
    def refuse(*args):
        raise AssertionError("an identity matrix was built")

    monkeypatch.setattr("suturekup.kuperberg.identity", refuse)
    pres = write_json(tmp_path, {"generators": [], "closed_count": 0, "relators": []})
    rep = write_json(tmp_path, {"dimension": dim, "generators": {}, "meridian": "1"}, "rep.json")
    assert_one_line_error(capsys, ["twisted-alexander", pres, rep],
                          f"representation key 'dimension' must lie in 0..{MAX_DIM}, not {dim}")


def test_beta_entry_without_crossings_is_one_line_error(tmp_path, capsys):
    diagram = read_json(data_path("trefoil.json"))
    del diagram["beta"][0]["crossings"]
    assert_one_line_error(capsys, ["validate", write_json(tmp_path, diagram)],
                          "beta entry 1 misses key 'crossings'")


@pytest.mark.parametrize("path, value, message", [
    pytest.param(("beta", 0, "crossings"), 5, "beta entry 1 key 'crossings' must be a list",
                 id="beta-crossings-int"),
    pytest.param(("alpha_closed",), 5, "diagram key 'alpha_closed' must be a list",
                 id="alpha-closed-int"),
    pytest.param(("beta", 0, "crossings", 0), 5,
                 "beta entry 1 key 'crossings' holds 5, not an [id, sign] pair",
                 id="beta-crossing-not-pair"),
    pytest.param(("alpha_closed", 0, "crossings", 0), ["x"],
                 "alpha_closed entry 1 key 'crossings' holds ['x'], not a string",
                 id="alpha-crossing-id-list"),
    pytest.param(("beta", 0, "crossings", 0, 0), ["x"],
                 "beta entry 1 key 'crossings' holds [['x'], 1], not an [id, sign] pair",
                 id="beta-crossing-id-list"),
    pytest.param(("alpha_closed", 0, "name"), ["a"],
                 "alpha_closed entry 1 key 'name' must be a string", id="alpha-name-list"),
    pytest.param(("arcs", 0, "name"), "alpha", "diagram names generator 'alpha' twice",
                 id="arc-named-like-closed-curve"),
])
def test_diagram_value_of_wrong_type_is_one_line_error(tmp_path, capsys, path, value, message):
    diagram = read_json(data_path("trefoil.json"))
    target = diagram
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert_one_line_error(capsys, ["validate", write_json(tmp_path, diagram)], message)


def test_presentation_relators_string_is_one_line_error(tmp_path, capsys):
    doc = write_json(tmp_path, {"generators": ["x"], "relators": "x"})
    assert_one_line_error(capsys, ["presentation", doc],
                          "presentation key 'relators' must be a list")


@pytest.mark.parametrize("key, value, message", [
    pytest.param("relators", [5], "presentation key 'relators' holds 5, not a string",
                 id="relator-int"),
    pytest.param("generators", [["x"]], "presentation key 'generators' holds ['x'], not a string",
                 id="generator-list"),
    pytest.param("closed_count", 1.0, "presentation key 'closed_count' must be an integer",
                 id="closed-count-float"),
    pytest.param("generators", ["x", "x"],
                 "presentation key 'generators' names generator 'x' twice",
                 id="generator-twice"),
    pytest.param("closed_count", -1, "presentation key 'closed_count' must lie in 0..1, not -1",
                 id="closed-count-negative"),
    pytest.param("closed_count", 3, "presentation key 'closed_count' must lie in 0..1, not 3",
                 id="closed-count-above-generators"),
    pytest.param("relators", ["x^y"], "exponent 'y' is not an integer in word 'x^y'",
                 id="relator-exponent-not-integer"),
    pytest.param("relators", ["x^" + "1" + "0" * 30],
                 "exceeds 10000 in absolute value in word 'x^1" + "0" * 30 + "'",
                 id="relator-exponent-too-large"),
    pytest.param("relators", ["x^" + "1" * 5000],
                 "exponent '" + "1" * 40 + "...' exceeds 10000 in absolute value",
                 id="relator-exponent-past-int-digit-limit"),
    pytest.param("relators", ["x^1_000"], "exponent '1_000' is not an integer in word 'x^1_000'",
                 id="relator-exponent-underscore"),
])
def test_presentation_value_of_wrong_type_is_one_line_error(tmp_path, capsys, key, value, message):
    doc = {"generators": ["x"], "relators": ["x"], "closed_count": 1}
    doc[key] = value
    assert_one_line_error(capsys, ["presentation", write_json(tmp_path, doc)], message)


def test_whitespace_inside_a_generator_name_is_one_line_error(tmp_path, capsys):
    doc = write_json(tmp_path, {"generators": ["a", "b", "ab"], "relators": ["a b"]})
    assert_one_line_error(capsys, ["presentation", doc],
                          "generator name 'a b' holds whitespace in word 'a b'")
    rep = read_json(write_figure8_rep(tmp_path, [["1", "1"], ["0", "1"]]))
    rep["meridian"] = "al pha"
    assert_one_line_error(capsys, ["twisted-alexander", data_path("figure8.json"),
                                   write_json(tmp_path, rep)],
                          "generator name 'al pha' holds whitespace")


def test_spaces_around_star_and_caret_are_accepted(tmp_path):
    rep = read_json(data_path("figure8_parabolic_rep.json"))
    outputs = []
    for meridian in ("a^-1*alpha*a", " a ^ -1 * alpha * a "):
        rep["meridian"] = meridian
        outputs.append(run(["twisted-alexander", data_path("figure8.json"),
                               write_json(tmp_path, rep)]))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


@pytest.mark.parametrize("key, value, command, message", [
    pytest.param("alpha", 5, "kuperberg", "matrix for 'alpha' is not 2x2", id="matrix-int"),
    pytest.param("min_poly", [1, 1.7, 1], "twisted-alexander",
                 "min_poly must be a list of integers", id="min-poly-float"),
    # equal to [0, 1] in Python, so a shortcut to the shared QQ must check the types
    pytest.param("min_poly", [0, True], "twisted-alexander",
                 "min_poly must be a list of integers", id="min-poly-bool-equal-to-q"),
    pytest.param("min_poly", [0.0, 1], "twisted-alexander",
                 "min_poly must be a list of integers", id="min-poly-float-equal-to-q"),
    pytest.param("min_poly", [7], "twisted-alexander",
                 "min_poly must have degree >= 1", id="min-poly-constant"),
    pytest.param("min_poly", [0, 0], "twisted-alexander",
                 "min_poly must have degree >= 1", id="min-poly-zero"),
    pytest.param("dimension", 2.9, "twisted-alexander",
                 "representation key 'dimension' must be an integer, not 2.9",
                 id="dimension-float"),
    pytest.param("meridian", ["a"], "twisted-alexander",
                 "representation key 'meridian' must be a string, not ['a']",
                 id="meridian-list"),
    pytest.param("meridian", "a^-1" + "0" * 30, "twisted-alexander",
                 "exceeds 10000 in absolute value in word 'a^-1" + "0" * 30 + "'",
                 id="meridian-exponent-too-large"),
    # a present optional key must hold its type, whichever command reads the file
    *(pytest.param("meridian", None, command,
                   "representation key 'meridian' must be a string, not None",
                   id=f"meridian-null-{command}")
      for command in ("kuperberg", "crosscheck", "twisted-alexander")),
])
def test_representation_value_of_wrong_type_is_one_line_error(tmp_path, capsys, key, value,
                                                              command, message):
    rep = read_json(write_figure8_rep(tmp_path, [["1", "1"], ["0", "1"]]))
    if key in rep["generators"]:
        rep["generators"][key] = value
    else:
        rep[key] = value
    rep_path = write_json(tmp_path, rep)
    options = [rep_path] if command == "twisted-alexander" else [
        "--hopf", "exterior:2", "--rep", rep_path]
    assert_one_line_error(capsys, [command, data_path("figure8.json")] + options, message)


LONG, Q40 = "q" * 400, "q" * 40


@pytest.mark.parametrize("argv, document, path, value, message", [
    pytest.param(["validate"], "trefoil", ("beta", 0, "crossings", 0), [LONG, "+"],
                 f"holds ['{Q40[2:]}..., not an [id, sign] pair", id="beta-crossing-id"),
    pytest.param(["validate"], "trefoil", ("alpha_closed", 0, "crossings", 0), [LONG],
                 f"holds ['{Q40[2:]}..., not a string", id="alpha-crossing-id"),
    pytest.param(["validate"], "trefoil", ("beta", 0, "basepoint_index"), LONG,
                 f"must be an integer, not '{Q40}...'", id="basepoint-index-string"),
    pytest.param(["twisted-alexander", data_path("figure8.json")], "rep", ("min_poly",),
                 [1] * 300, "min_poly " + "[1" + ", 1" * 12 + ", ... exceeds degree 16",
                 id="min-poly-of-300-ones"),
    pytest.param(["twisted-alexander", data_path("figure8.json")], "rep",
                 ("generators", "alpha", 0, 0), LONG,
                 f"cannot parse field element '{Q40}...' at '{Q40}...'", id="matrix-entry"),
    pytest.param(["axioms", "--hopf"], None, None, LONG,
                 f"unsupported Hopf algebra '{Q40}...'", id="hopf"),
    pytest.param(["presentation"], "presentation", ("generators",), [LONG, LONG],
                 f"names generator '{Q40}...' twice", id="generator-twice"),
])
def test_long_values_are_echoed_cut(tmp_path, capsys, argv, document, path, value, message):
    if document is None:
        argv = argv + [value]
    else:
        doc = {"trefoil": lambda: read_json(data_path("trefoil.json")),
               "rep": lambda: read_json(write_figure8_rep(tmp_path, [["1", "1"], ["0", "1"]])),
               "presentation": lambda: {"generators": ["x"], "relators": []}}[document]()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        argv = argv + [write_json(tmp_path, doc)]
    assert_one_line_error(capsys, argv, message)


def test_representation_generators_list_is_one_line_error(tmp_path, capsys):
    rep = read_json(write_figure8_rep(tmp_path, [["1", "1"], ["0", "1"]]))
    rep["generators"] = list(rep["generators"].values())
    assert_one_line_error(capsys, ["kuperberg", data_path("figure8.json"), "--hopf",
                                   "exterior:2", "--rep", write_json(tmp_path, rep)],
                          "representation key 'generators' must be an object")


@pytest.mark.parametrize("command", [["validate"], ["kuperberg", "--hopf", "exterior:1"]])
def test_document_without_diagram_keys_is_one_line_error(tmp_path, capsys, command):
    doc = write_json(tmp_path, {"foo": 1})
    assert_one_line_error(capsys, command[:1] + [doc] + command[1:],
                          "diagram misses key 'alpha_closed'")


def test_representation_without_meridian_is_one_line_error(tmp_path, capsys):
    rep = read_json(write_figure8_rep(tmp_path, [["1", "1"], ["0", "1"]]))
    del rep["meridian"]
    assert_one_line_error(capsys, ["twisted-alexander", data_path("figure8.json"),
                                   write_json(tmp_path, rep)],
                          "must name a meridian")


@pytest.mark.parametrize("command", ["homology", "presentation"])
@pytest.mark.parametrize("document, message", [
    pytest.param([1, 2], "input document must be a JSON object", id="array"),
    pytest.param({}, "neither a diagram nor a presentation file", id="empty-object"),
])
def test_document_of_neither_kind_is_one_line_error(tmp_path, capsys, command, document,
                                                    message):
    assert_one_line_error(capsys, [command, write_json(tmp_path, document)], message)


# each schema with a shipped document that matches it and a command that reads that document
SCHEMA_DOCUMENTS = {
    "diagram": (DIAGRAM, "figure8.json", ["validate"]),
    "presentation": (PRESENTATION, "figure8_wirtinger.json", ["presentation"]),
    "representation": (REPRESENTATION, "figure8_parabolic_rep.json",
                       ["twisted-alexander", data_path("figure8.json")]),
}
JSON_KINDS = {"null": None, "boolean": True, "float": 2.5, "integer": 7, "string": "s",
              "array": [], "object": {}}


def schema_places(schema, path=()):
    """(path, schema, required) for each key of an object schema and for the first item of
    each list of non-objects, descending into objects and the first entry of each list."""
    for key, inner in schema.items():
        name = key.rstrip("?")
        yield path + (name,), inner, name == key
        if isinstance(inner, dict):
            yield from schema_places(inner, path + (name,))
        elif isinstance(inner, list) and isinstance(inner[0], dict):
            yield from schema_places(inner[0], path + (name, 0))
        elif isinstance(inner, list):
            yield path + (name, 0), inner[0], False


def json_kind(schema):
    """The JSON kind of the values schema accepts."""
    if isinstance(schema, (list, dict)):
        return "array" if isinstance(schema, list) else "object"
    return {str: "string", int: "integer", PAIR: "array"}[schema]


SCHEMA_PLACES = [(document, path, inner, required)
                 for document, (schema, _, _) in SCHEMA_DOCUMENTS.items()
                 for path, inner, required in schema_places(schema)]
DELETE = object()


def place_id(document, path):
    return f"{document}:" + "/".join(map(str, path))


def schema_argv(tmp_path, document, path, value):
    """argv running SCHEMA_DOCUMENTS[document] with the value at path set, or deleted."""
    _, name, command = SCHEMA_DOCUMENTS[document]
    doc = read_json(data_path(name))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return command + [write_json(tmp_path, doc)]


@pytest.mark.parametrize("document, path, inner", [
    pytest.param(document, path, inner, id=place_id(document, path))
    for document, path, inner, _ in SCHEMA_PLACES])
def test_schema_value_of_another_kind_is_one_line_error(tmp_path, capsys, document, path, inner):
    # a key's value "must be" its kind; a list item is named by the list's key
    phrase = (f"key {path[-1]!r} must be" if isinstance(path[-1], str)
              else f"key {path[-2]!r} holds")
    for kind, value in JSON_KINDS.items():
        if kind != json_kind(inner):
            assert_one_line_error(capsys, schema_argv(tmp_path, document, path, value), phrase)


@pytest.mark.parametrize("document, path", [
    pytest.param(document, path, id=place_id(document, path))
    for document, path, _, required in SCHEMA_PLACES if required])
def test_schema_required_key_missing_is_one_line_error(tmp_path, capsys, document, path):
    # without relators a presentation is no longer told apart from other documents
    message = ("neither a diagram nor a presentation file"
               if path == ("relators",) else f"misses key {path[-1]!r}")
    assert_one_line_error(capsys, schema_argv(tmp_path, document, path, DELETE), message)


@pytest.mark.parametrize("command", ["kuperberg", "crosscheck"])
def test_representation_dimension_mismatch_is_one_line_error(tmp_path, capsys, command):
    rep = write_figure8_rep(tmp_path, [["1", "1"], ["0", "1"]])
    assert_one_line_error(capsys, [command, data_path("figure8.json"), "--hopf",
                                   "exterior:3", "--rep", rep],
                          "dimension does not match --hopf")


UNSUPPORTED = "unsupported Hopf algebra"
ABOVE_CAP = "--hopf takes exterior:N with N in 0..20, not "


@pytest.mark.parametrize("argv, message", [
    (["kuperberg", data_path("figure8.json"), "--hopf", "symmetric:2"], UNSUPPORTED),
    (["crosscheck", "--hopf", "exterior:x", "--random", "1"], UNSUPPORTED),
    (["axioms", "--hopf", "exterior"], UNSUPPORTED),
    # str.isdigit takes the superscript, int() does not
    (["axioms", "--hopf", "exterior:\u00b2"], UNSUPPORTED),
    (["kuperberg", data_path("trefoil.json"), "--hopf", "exterior:21"], ABOVE_CAP + "'exterior:21'"),
    # past CPython's 4,300-digit limit for int()
    (["axioms", "--hopf", "exterior:" + "9" * 5000],
     ABOVE_CAP + "'exterior:" + "9" * 31 + "...'"),
])
def test_unsupported_hopf_is_one_line_error(capsys, argv, message):
    assert_one_line_error(capsys, argv, message)


@pytest.mark.parametrize("dim", [MAX_AXIOMS_DIM + 1, MAX_DIM])
def test_axioms_above_its_cap_is_one_line_error(monkeypatch, capsys, dim):
    # the axiom check runs past a minute at N = 7; the cap refuses such N
    # before an exterior algebra is built
    def refuse(*args):
        raise AssertionError("an exterior algebra was built")

    monkeypatch.setattr(hopf, "ExteriorAlgebra", refuse)
    assert_one_line_error(capsys, ["axioms", "--hopf", f"exterior:{dim}"],
                          "axioms", "--hopf", f"0..{MAX_AXIOMS_DIM}, not {dim}")


def test_axioms_at_its_cap_is_accepted(monkeypatch):
    monkeypatch.setattr(hopf, "verify_axioms", lambda H: hopf.AxiomReport())
    assert run(["axioms", "--hopf", f"exterior:{MAX_AXIOMS_DIM}"])[:2] == (0, "")


@pytest.mark.parametrize("seed, shown", [("abc", "'abc'"), ("1" * 5000, "'" + "1" * 40 + "...'")],
                         ids=["letters", "5000-digits"])
def test_malformed_seed_is_one_line_error(monkeypatch, capsys, seed, shown):
    monkeypatch.setenv("SUTURE_KUP_SEED", seed)
    assert_one_line_error(capsys, ["crosscheck", "--random", "1", "--hopf", "exterior:1"],
                          "$SUTURE_KUP_SEED must be an integer", "not " + shown)


def run_fresh(argv):
    """Exit code, stdout and stderr of the CLI run in a new interpreter."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(suturekup.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    done = subprocess.run([sys.executable, "-m", "suturekup.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def run_in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("failing", [
    pytest.param(["crosscheck", "--hopf", "exterior:1", "--random", "-1"], id="usage-error"),
    pytest.param(["kuperberg", data_path("trefoil.json"), "--hopf", "symmetric:1"],
                 id="input-error"),
])
@pytest.mark.parametrize("fail_first", [True, False], ids=["fail-first", "succeed-first"])
def test_cached_parser_prints_as_a_fresh_process(capsys, failing, fail_first):
    # main reuses one parser across calls; a failed parse must leave nothing
    # behind that changes what the next call prints
    succeeding = ["kuperberg", data_path("trefoil.json"), "--hopf", "exterior:1", "--twisted"]
    calls = [failing, succeeding] if fail_first else [succeeding, failing]
    for argv in calls:
        assert run_in_process(capsys, argv) == run_fresh(argv)
    assert build_parser() is build_parser()


def test_long_crossing_id_is_echoed_cut(tmp_path):
    doc = read_json(data_path("figure8.json"))
    doc["beta"][0]["crossings"][0][0] = LONG
    path = write_json(tmp_path, doc)
    for argv, first in ((["validate", path], "error: "),
                        (["kuperberg", path, "--hopf", "exterior:1"], "invalid diagram: ")):
        code, out, err = run_fresh(argv)
        assert code == 1
        lines = (out + err).splitlines()
        assert lines and lines[0].startswith(first)
        assert all(len(line) < 200 for line in lines)
        assert f"crossings missing on the alpha side: ['{Q40[2:]}..." in out + err


DIGITS = "1" * 5000


@pytest.mark.parametrize("entry", [
    pytest.param(DIGITS, id="numerator"),
    pytest.param("1/" + DIGITS, id="denominator"),
    pytest.param("x^" + DIGITS, id="exponent"),
])
def test_over_long_numbers_are_refused_by_digit_count(tmp_path, capsys, entry):
    rep = write_figure8_rep(tmp_path, [[entry, "1"], ["0", "1"]])
    message = f"number over 1000 digits in field element '{entry[:40]}...'"
    assert_one_line_error(capsys, ["twisted-alexander", data_path("figure8.json"), rep], message)
    with pytest.raises(ValueError) as info:
        load_representation(rep)
    assert str(info.value) == message


def figure8_rep_with_bare_entry(tmp_path, number):
    """A figure-eight representation file whose first alpha entry is a bare JSON number."""
    rep = write_figure8_rep(tmp_path, [[0, "1"], ["0", "1"]])
    with open(rep, encoding="utf-8") as fh:
        text = fh.read()
    with open(rep, "w", encoding="utf-8") as fh:
        fh.write(text.replace('[[0, "1"]', f'[[{number}, "1"]'))
    return rep


@pytest.mark.parametrize("number", [pytest.param(DIGITS, id="positive"),
                                    pytest.param("-" + DIGITS, id="negative")])
def test_bare_long_integer_is_refused_by_digit_count(tmp_path, capsys, number):
    # json.load would hand these digits to int(), whose own limit names nothing
    rep = figure8_rep_with_bare_entry(tmp_path, number)
    message = f"number over 1000 digits in JSON document: '{number[:40]}...'"
    assert_one_line_error(capsys, ["twisted-alexander", data_path("figure8.json"), rep], message)


def test_bare_integer_of_max_digits_is_read(tmp_path):
    big = "9" * 1000
    rep_file = load_representation(figure8_rep_with_bare_entry(tmp_path, big))
    assert rep_file.matrices["alpha"][0][0] == rep_file.field.parse(big)
