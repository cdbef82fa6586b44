"""Exact twisted Kuperberg invariants of balanced sutured 3-manifolds.

The tensor-contraction invariant of a combinatorial Heegaard datum, its
Laurent-valued homology twist, and twisted Reidemeister torsion via Fox
calculus, with the determinant identity between the two wired in as a
cross-check.
"""

from .abelian import AbelianizationMap, abelianize, smith_normal_form
from .diagram import (
    BetaCurve,
    Crossing,
    HeegaardDatum,
    Presentation,
    presentation,
    random_datum,
    relator_word,
    validate,
)
from .hopf import (
    ExteriorAlgebra,
    HopfAutomorphism,
    HopfSuperAlgebra,
    verify_axioms,
)
from .kuperberg import (
    EvaluationOptions,
    Representation,
    evaluate_z,
)
from .laurent import InexactDivision, LaurentPoly, LaurentRing, divide_exact, normalize_unit
from .numberfield import NumberField, QQ
from .torsion import (
    bareiss_det,
    crosscheck,
    fox_matrix,
    twisted_alexander_knot,
    twisted_torsion,
)
from .words import GroupRingElement, Word, fox_derivative, parse_word, sigma

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
