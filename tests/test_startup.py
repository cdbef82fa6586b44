"""Start-up cost: importing the package, its CLI and its fixtures loads no heavy module.

dataclasses pulls in inspect, ast, dis and tokenize (about 7 ms of import
time on 2 shared cores, CPython 3.11); the records in diagram.py,
kuperberg.py, torsion.py and files.py are plain classes so that no suturekup
process pays for them.  random (about 3 ms) is imported only inside
diagram.random_datum, which only tests and `crosscheck --random` call.
"""

import os
import subprocess
import sys

import suturekup

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "random")


def test_import_loads_no_heavy_module():
    # -S keeps site hooks out, so only what suturekup imports is seen
    root = os.path.dirname(os.path.dirname(os.path.abspath(suturekup.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    code = ("import sys, suturekup, suturekup.cli, suturekup.fixtures; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
