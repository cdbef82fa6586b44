"""File formats: diagram, representation and presentation documents.

All three are JSON with canonical serialization (sorted keys, two-space
indent, trailing newline) so parse/serialize round-trips byte-identically.
"""

from __future__ import annotations

import json

from .diagram import ARC, CLOSED, BetaCurve, Crossing, HeegaardDatum, Presentation, Record
from .hopf import MAX_DIM
from .numberfield import MAX_DIGITS, QQ, NumberField, echo
from .words import parse_word


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _read_document(path):
    """The JSON document in the file; ValueError naming the file when it does not parse."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed JSON in {path}: {exc}") from None


def _json_int(text):
    """A JSON integer, refused by its digit count before int() reads it."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"number over {MAX_DIGITS} digits in JSON document: {echo(text)}")
    return int(text)


# Each document's shape.  A schema is str or int (a value of exactly that type,
# so a bool is not an int), PAIR (a beta crossing: [id, sign]), [s] (a list whose
# items match s, where s is not a list) or {key: s} (an object; a key that ends in
# "?" may be absent).  min_poly and the matrices are checked where they are read.
PAIR = (str, int)
_CURVE = {"crossings": [str], "name?": str}
DIAGRAM = {"alpha_closed": [_CURVE], "arcs": [_CURVE],
           "beta": [{"crossings": [PAIR], "name?": str, "basepoint_index?": int}]}
PRESENTATION = {"generators": [str], "closed_count?": int, "relators": [str]}
REPRESENTATION = {"dimension": int, "generators": {}, "meridian?": str}

_KINDS = {str: "a string", int: "an integer", PAIR: "an [id, sign] pair", list: "a list",
          dict: "an object", bool: "a boolean", float: "a number with a fraction or exponent",
          type(None): "null"}


def _fits(value, schema) -> bool:
    """Whether value is of the kind schema asks for; a container's items are not looked at."""
    if schema is PAIR:
        return isinstance(value, list) and len(value) == 2 and \
            type(value[0]) is str and type(value[1]) is int
    return type(value) is schema if isinstance(schema, type) else isinstance(value, type(schema))


def _check(data, schema, what):
    """data, walked against an object schema; ValueError naming the first key that does not fit."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key, inner in schema.items():
        name = key.rstrip("?")
        if name not in data:
            if name == key:
                raise ValueError(f"{what} misses key {name!r}")
        elif not _fits(data[name], inner):
            kind = _KINDS[type(inner) if isinstance(inner, (list, dict)) else inner]
            raise ValueError(f"{what} key {name!r} must be {kind}, not {echo(data[name])}")
        elif isinstance(inner, dict):
            _check(data[name], inner, f"{what} key {name!r}")
        elif isinstance(inner, list) and isinstance(inner[0], dict):
            for i, entry in enumerate(data[name]):
                _check(entry, inner[0], f"{name} entry {i + 1}")
        elif isinstance(inner, list):
            for entry in data[name]:
                if not _fits(entry, inner[0]):
                    raise ValueError(f"{what} key {name!r} holds {echo(entry)}, "
                                     f"not {_KINDS[inner[0]]}")


def _distinct(names, what):
    """Generator names, checked to hold no name twice; ValueError if not."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"{what} names generator {echo(name)} twice")
        seen.add(name)
    return names


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
    _check(data, DIAGRAM, "diagram")
    alphas = [list(entry["crossings"]) for entry in data["alpha_closed"]]
    arcs = [list(entry["crossings"]) for entry in data["arcs"]]
    alpha_names = [entry.get("name", f"alpha{i + 1}")
                   for i, entry in enumerate(data["alpha_closed"])]
    arc_names = [entry.get("name", f"a{i + 1}") for i, entry in enumerate(data["arcs"])]
    _distinct(alpha_names + arc_names, "diagram")
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
            crossings[cid] = Crossing(cid, kind, idx, j, sign)
            ids.append(cid)
        betas.append(BetaCurve(tuple(ids), entry.get("basepoint_index", 0)))
    for cid, (kind, idx) in alpha_ref.items():
        if cid not in crossings:
            crossings[cid] = Crossing(cid, kind, idx, -1, 1)
    return HeegaardDatum(alphas, arcs, betas, crossings, alpha_names, arc_names)


def load_diagram(path) -> HeegaardDatum:
    return diagram_from_data(_read_document(path))


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
    _check(data, PRESENTATION, "presentation")
    names = _distinct(list(data["generators"]), "presentation key 'generators'")
    closed = data.get("closed_count", len(names))
    if not 0 <= closed <= len(names):
        raise ValueError(f"presentation key 'closed_count' must lie in 0..{len(names)}, "
                         f"not {echo(closed)}")
    relators = [parse_word(s, names) for s in data["relators"]]
    return Presentation(len(names), closed, relators, names)


def load_presentation(path) -> Presentation:
    return presentation_from_data(_read_document(path))


# -- representation files ----------------------------------------------------


class RepresentationFile(Record):
    __slots__ = ("field", "dimension", "matrices", "meridian")  # matrices by generator name
    _defaults = {"meridian": None}

    def matrices_for(self, names):
        missing = [n for n in names if n not in self.matrices]
        if missing:
            raise ValueError(f"representation file misses generators: {echo(missing)}")
        return [self.matrices[n] for n in names]


def representation_from_data(data: dict) -> RepresentationFile:
    _check(data, REPRESENTATION, "representation")
    poly = data.get("min_poly", [0, 1])     # [0, True] == [0, 1], and NumberField refuses it
    field = QQ if poly == [0, 1] and list(map(type, poly)) == [int, int] else NumberField(poly)
    n = data["dimension"]
    if not 0 <= n <= MAX_DIM:
        raise ValueError(f"representation key 'dimension' must lie in 0..{MAX_DIM}, "
                         f"not {echo(n)}")
    matrices, parsed = {}, {}       # parsed: each distinct entry text's element, shared
    for name, rows in data["generators"].items():
        if not (isinstance(rows, list) and len(rows) == n
                and all(isinstance(r, list) and len(r) == n for r in rows)):
            raise ValueError(f"matrix for {echo(name)} is not {n}x{n}")
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if type(entry) not in (str, int):
                    raise ValueError(f"matrix for {echo(name)} holds {_KINDS[type(entry)]} at "
                                     f"row {i + 1}, column {j + 1}, not a string or an integer")
        matrices[name] = [[parsed[text] if (text := str(entry)) in parsed
                           else parsed.setdefault(text, field.parse(text)) for entry in row]
                          for row in rows]
    return RepresentationFile(field, n, matrices, data.get("meridian"))


def load_representation(path) -> RepresentationFile:
    return representation_from_data(_read_document(path))


def _input_kind(data, path) -> str:
    _check(data, {}, "input document")
    if "beta" in data:
        return "diagram"
    if "relators" in data:
        return "presentation"
    raise ValueError(f"{path}: neither a diagram nor a presentation file")


def detect_input(path) -> str:
    """"diagram" or "presentation", keyed on the document's fields."""
    return _input_kind(_read_document(path), path)


def load_diagram_or_presentation(path):
    """The HeegaardDatum or Presentation in path, dispatched on its fields."""
    data = _read_document(path)
    if _input_kind(data, path) == "diagram":
        return diagram_from_data(data)
    return presentation_from_data(data)
