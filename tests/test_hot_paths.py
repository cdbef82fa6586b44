"""No generator expression in the hot functions of the exact scalar layer.

A generator object costs about as much as the arithmetic of a rational
element, so these functions build their tuples with a list comprehension
or map.  The source is parsed, not run: the test names the function and
the line of any generator expression that comes back.
"""

import ast
import inspect

import pytest

from suturekup import laurent, linalg, numberfield

HOT = {
    numberfield: ["_canonical", "NumberField._reduce", "accumulate", "NumberField.dot",
                  "FieldElement.__add__", "FieldElement.__neg__", "FieldElement.__mul__",
                  "FieldElement.inv"],
    laurent: ["LaurentPoly.__mul__", "LaurentPoly.scale_monomial", "LaurentPoly.inv_unit",
              "LaurentRing.dot"],
    linalg: ["matmul", "inverse_and_det"],
}


def functions(module):
    """{qualified name: def node} of the module's functions and its classes' methods."""
    out = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update({f"{node.name}.{f.name}": f for f in node.body
                        if isinstance(f, ast.FunctionDef)})
    return out


@pytest.mark.parametrize("module, name", [
    pytest.param(module, name, id=f"{module.__name__.rpartition('.')[2]}.{name}")
    for module, names in HOT.items() for name in names
])
def test_hot_function_builds_no_generator(module, name):
    defs = functions(module)
    assert name in defs, f"{module.__name__} has no function {name}"
    found = [f"{module.__name__}.{name} line {node.lineno}: generator expression"
             for node in ast.walk(defs[name]) if isinstance(node, ast.GeneratorExp)]
    assert not found, "\n".join(found)
