"""File formats: diagram, representation and presentation documents.

All three are JSON with canonical serialization (sorted keys, two-space
indent, trailing newline) so parse/serialize round-trips byte-identically.
"""

from __future__ import annotations

import json

from .diagram import ARC, CLOSED, BetaCurve, Crossing, HeegaardDatum, Presentation
from .numberfield import NumberField
from .words import parse_word


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _require(data, keys, what):
    """data, checked to be a JSON object holding every key; ValueError otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} misses key {key!r}")
    return data


# -- diagram files -----------------------------------------------------------


def diagram_to_data(D: HeegaardDatum) -> dict:
    names = D.generator_names()
    return {
        "alpha_closed": [
            {"name": names[i], "crossings": list(curve)}
            for i, curve in enumerate(D.alphas)
        ],
        "arcs": [
            {"name": names[D.d + i], "crossings": list(curve)}
            for i, curve in enumerate(D.arcs)
        ],
        "beta": [
            {
                "name": f"beta{j + 1}",
                "crossings": [[cid, D.crossings[cid].sign] for cid in b.crossings],
                "basepoint_index": b.basepoint,
            }
            for j, b in enumerate(D.betas)
        ],
    }


def diagram_from_data(data: dict) -> HeegaardDatum:
    _require(data, ("alpha_closed", "arcs", "beta"), "diagram")
    for family in ("alpha_closed", "arcs", "beta"):
        for i, entry in enumerate(data[family]):
            _require(entry, ("crossings",), f"{family} entry {i + 1}")
    alphas = [list(entry["crossings"]) for entry in data["alpha_closed"]]
    arcs = [list(entry["crossings"]) for entry in data["arcs"]]
    alpha_names = [entry.get("name", f"alpha{i + 1}")
                   for i, entry in enumerate(data["alpha_closed"])]
    arc_names = [entry.get("name", f"a{i + 1}") for i, entry in enumerate(data["arcs"])]
    alpha_ref = {}
    for i, curve in enumerate(alphas):
        for cid in curve:
            alpha_ref[cid] = (CLOSED, i)
    for i, curve in enumerate(arcs):
        for cid in curve:
            alpha_ref.setdefault(cid, (ARC, i))
    betas = []
    crossings = {}
    for j, entry in enumerate(data["beta"]):
        ids = []
        for cid, sign in entry["crossings"]:
            kind, idx = alpha_ref.get(cid, (CLOSED, -1))
            crossings[cid] = Crossing(cid, kind, idx, j, int(sign))
            ids.append(cid)
        betas.append(BetaCurve(tuple(ids), int(entry.get("basepoint_index", 0))))
    for cid, (kind, idx) in alpha_ref.items():
        if cid not in crossings:
            crossings[cid] = Crossing(cid, kind, idx, -1, 1)
    return HeegaardDatum(alphas, arcs, betas, crossings, alpha_names, arc_names)


def load_diagram(path) -> HeegaardDatum:
    with open(path, encoding="utf-8") as fh:
        return diagram_from_data(json.load(fh))


def save_diagram(path, D: HeegaardDatum):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(diagram_to_data(D)))


# -- presentation files ------------------------------------------------------


def presentation_to_data(pres: Presentation) -> dict:
    names = pres.generator_names()
    return {
        "generators": names,
        "closed_count": pres.closed_count,
        "relators": [w.format(names) for w in pres.relators],
    }


def presentation_from_data(data: dict) -> Presentation:
    _require(data, ("generators", "relators"), "presentation")
    names = list(data["generators"])
    closed = int(data.get("closed_count", len(names)))
    relators = [parse_word(s, names) for s in data["relators"]]
    return Presentation(len(names), closed, relators, names)


def load_presentation(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return presentation_from_data(json.load(fh))


# -- representation files ----------------------------------------------------


class RepresentationFile:
    def __init__(self, field: NumberField, dimension: int, matrices: dict,
                 meridian: str | None = None):
        self.field = field
        self.dimension = dimension
        self.matrices = matrices          # generator name -> matrix of elements
        self.meridian = meridian

    def matrices_for(self, names):
        missing = [n for n in names if n not in self.matrices]
        if missing:
            raise ValueError(f"representation file misses generators: {missing}")
        return [self.matrices[n] for n in names]


def representation_from_data(data: dict) -> RepresentationFile:
    _require(data, ("dimension", "generators"), "representation")
    field = NumberField(data.get("min_poly", [0, 1]))
    n = int(data["dimension"])
    matrices = {}
    for name, rows in data["generators"].items():
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"matrix for {name!r} is not {n}x{n}")
        matrices[name] = [[field.parse(str(entry)) for entry in row] for row in rows]
    return RepresentationFile(field, n, matrices, data.get("meridian"))


def load_representation(path) -> RepresentationFile:
    with open(path, encoding="utf-8") as fh:
        return representation_from_data(json.load(fh))


def detect_input(path) -> str:
    """"diagram" or "presentation", keyed on the document's fields."""
    with open(path, encoding="utf-8") as fh:
        data = _require(json.load(fh), (), "input document")
    if "beta" in data:
        return "diagram"
    if "relators" in data:
        return "presentation"
    raise ValueError(f"{path}: neither a diagram nor a presentation file")
