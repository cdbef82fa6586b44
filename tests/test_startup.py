"""Start-up cost: the package and each command load only what they run.

dataclasses pulls in inspect, ast, dis and tokenize (about 7 ms of import
time on 2 shared cores, CPython 3.11); the records in diagram.py,
kuperberg.py, torsion.py and files.py are plain classes so that no suturekup
process pays for them.  random (about 3 ms) is imported only inside
diagram.random_datum, which only tests and `crosscheck --random` call.

The package resolves its public names on first use, and the CLI imports each
command's modules inside the command, so `validate` compiles no algebra and
only the commands that build an exterior algebra import suturekup.hopf.  Each
case runs in a fresh interpreter started with -S, which keeps site hooks out,
so only what suturekup imports is seen.
"""

import os
import subprocess
import sys

import pytest
from conftest import data_path

import suturekup

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "random")
# modules a command that computes no invariant never loads
ALGEBRA = ("suturekup.hopf", "suturekup.kuperberg", "suturekup.torsion", "suturekup.linalg",
           "suturekup.laurent", "suturekup.abelian", "fractions", "decimal")
# the public names of the package, as they were when every submodule loaded eagerly
PUBLIC = [
    "AbelianizationMap", "BetaCurve", "Crossing", "EvaluationOptions", "ExteriorAlgebra",
    "GroupRingElement", "HeegaardDatum", "HopfAutomorphism", "HopfSuperAlgebra",
    "InexactDivision", "LaurentPoly", "LaurentRing", "NumberField", "Presentation", "QQ",
    "Representation", "Word", "abelian", "abelianize", "bareiss_det", "crosscheck", "diagram",
    "divide_exact", "evaluate_z", "fox_derivative", "fox_matrix", "hopf", "kuperberg",
    "laurent", "linalg", "normalize_unit", "numberfield", "parse_word", "presentation",
    "random_datum", "relator_word", "sigma", "smith_normal_form", "torsion",
    "twisted_alexander_knot", "twisted_torsion", "validate", "verify_axioms", "words",
]
# after the command: its exit code, then the loaded modules, on stderr
COMMAND = ("import sys; from suturekup.cli import main; code = main(sys.argv[1:]); "
           "print(code, *sorted(sys.modules), file=sys.stderr)")


def fresh(code, *argv):
    """The words code prints to stderr, run in a fresh -S interpreter."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(suturekup.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True).stderr.split()


def command_modules(*argv):
    """The modules loaded by one CLI call, which must succeed."""
    code, *modules = fresh(COMMAND, *argv)
    assert code == "0", argv
    return set(modules)


def test_import_loads_no_heavy_module():
    code = ("import sys, suturekup, suturekup.cli; "
            f"print(*[m for m in {HEAVY!r} if m in sys.modules], file=sys.stderr)")
    assert fresh(code) == []


def test_import_of_the_package_loads_no_submodule():
    code = "import sys, suturekup; print(*sorted(sys.modules), file=sys.stderr)"
    loaded = fresh(code)
    assert "suturekup" in loaded
    assert [m for m in loaded if m.startswith("suturekup.")] == []


def test_cli_import_loads_no_algebra():
    code = "import sys, suturekup.cli; print(*sorted(sys.modules), file=sys.stderr)"
    assert set(ALGEBRA).isdisjoint(fresh(code))


@pytest.mark.parametrize("command", ["validate", "presentation"])
def test_commands_that_read_a_diagram_load_no_algebra(command):
    loaded = command_modules(command, data_path("figure8.json"))
    assert "suturekup.files" in loaded
    assert sorted(set(ALGEBRA) & loaded) == []


def test_homology_adds_only_abelian():
    figure8 = data_path("figure8.json")
    added = command_modules("homology", figure8) - command_modules("presentation", figure8)
    assert added == {"suturekup.abelian"}


@pytest.mark.parametrize("argv", [
    ["alexander", "figure8.json"],
    ["twisted-alexander", "figure8.json", "figure8_parabolic_rep.json"],
], ids=["alexander", "twisted-alexander"])
def test_torsion_commands_load_no_hopf_algebra(argv):
    loaded = command_modules(argv[0], *map(data_path, argv[1:]))
    assert "suturekup.torsion" in loaded and "suturekup.hopf" not in loaded


def test_kuperberg_loads_the_hopf_algebra():
    loaded = command_modules("kuperberg", data_path("figure8.json"), "--hopf", "exterior:1")
    assert "suturekup.hopf" in loaded


def test_package_names_are_todays():
    assert suturekup.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(suturekup))


def test_every_public_name_resolves_in_a_fresh_process():
    # each name is a submodule or an object one holds, and the submodules
    # bench/workloads.py imports by name come through a from-import
    code = """if True:
        import sys, suturekup
        from suturekup import cli, files, torsion
        for name in suturekup.__all__:
            value = getattr(suturekup, name)
            print(name, any(module is value or getattr(module, name, None) is value
                            for m, module in sys.modules.items() if m.startswith("suturekup.")),
                  file=sys.stderr)
        print(cli.__name__, files.__name__, torsion.__name__, file=sys.stderr)
    """
    words = fresh(code)
    assert words[:-3] == [w for name in PUBLIC for w in (name, "True")]
    assert words[-3:] == ["suturekup.cli", "suturekup.files", "suturekup.torsion"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'suturekup' has no attribute 'nonesuch'"):
        suturekup.nonesuch
    with pytest.raises(ImportError):
        from suturekup import nonesuch  # noqa: F401
