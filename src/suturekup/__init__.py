"""Exact twisted Kuperberg invariants of balanced sutured 3-manifolds.

The tensor-contraction invariant of a combinatorial Heegaard datum, its
Laurent-valued homology twist, and twisted Reidemeister torsion via Fox
calculus, with the determinant identity between the two wired in as a
cross-check.

Each public name is imported from its module on first use (PEP 562), so
``import suturekup`` loads no submodule and a command loads only what it runs.
"""

# the public names of each submodule; a submodule's own name is public too
_EXPORTS = {
    "abelian": ("AbelianizationMap", "abelianize", "smith_normal_form"),
    "diagram": ("BetaCurve", "Crossing", "HeegaardDatum", "Presentation", "presentation",
                "random_datum", "relator_word", "validate"),
    "hopf": ("ExteriorAlgebra", "HopfAutomorphism", "HopfSuperAlgebra", "verify_axioms"),
    "kuperberg": ("EvaluationOptions", "Representation", "evaluate_z"),
    "laurent": ("InexactDivision", "LaurentPoly", "LaurentRing", "divide_exact",
                "normalize_unit"),
    "linalg": (),
    "numberfield": ("NumberField", "QQ"),
    "torsion": ("bareiss_det", "crosscheck", "fox_matrix", "twisted_alexander_knot",
                "twisted_torsion"),
    "words": ("GroupRingElement", "Word", "fox_derivative", "parse_word", "sigma"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, imported from its module on first use and then kept."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
