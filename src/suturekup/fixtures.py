"""Shipped diagram fixtures: left trefoil and figure-eight knot complements.

Both are genus-one diagrams with one closed alpha curve, one arc and one beta
curve, loaded from the documents in data/.  The crossing sequences were
transcribed from the standard pictures; the resulting subwords at the
closed-curve crossings are, for the trefoil, a, a*alpha*a^-1*alpha^-1 and
a*alpha*a^-1*alpha^-1*a^-1, and the beta word of the figure-eight is
a*alpha*a^-1*alpha^-1*a*alpha*a*alpha^-1*a^-1*alpha with the closed-curve
crossings met along alpha in the order 1, 4, 3, 2, 5.
"""

from __future__ import annotations

import os

from .diagram import HeegaardDatum
from .files import load_diagram


def _load(name) -> HeegaardDatum:
    return load_diagram(os.path.join(os.path.dirname(__file__), "data", name))


def trefoil() -> HeegaardDatum:
    """Left trefoil complement; beta word a*alpha*a^-1*alpha^-1*a^-1*alpha."""
    return _load("trefoil.json")


def figure_eight() -> HeegaardDatum:
    """Figure-eight complement; five closed-curve crossings, alternating signs."""
    return _load("figure8.json")
