"""JSON serialization of complexes, marked sets, functions and paths.

Rationals travel as "numerator/denominator" strings in lowest terms
(integers allowed as shorthand); floats are rejected.  Simplex ids refer
to the canonical ordering of the face closure: sorted by (dimension,
vertex-id tuple).

Within one load of a function, equal coefficient lists share one form and
equal pieces one ``RatioForm``: each distinct list is parsed once.

Each loader reads exactly the keys its writer writes (a piece's ``den``
may be left out); any other key, or ``num`` beside ``num_factors``, is a
``ParseError`` naming the object and the key.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .complexes import Complex, PLSet, build_complex
from .errors import ParseError
from .extend import PLFFunction, RatioForm
from .germs import PathGerm
from .rationals import AffineForm, rat, rat_str


def _rat_in(x) -> Fraction:
    if isinstance(x, float):
        raise ParseError(f"float {x!r} not accepted; use 'p/q' strings")
    try:
        return rat(x)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {x!r}: {e}") from None


def _json_list(value, name: str) -> list:
    """value, which must be a JSON list (a string would be read by its
    characters, an object by its keys); ParseError naming the field and,
    since the value may be large, only its type."""
    if not isinstance(value, list):
        raise ParseError(f"{name} must be a JSON list, got {type(value).__name__}")
    return value


def _read_keys(value, allowed: frozenset, name: str) -> None:
    """ParseError unless value is a JSON object whose keys all lie in
    ``allowed``, the keys that the matching ``*_to_dict`` writes, naming
    the object and the first other key.  A value of another type is named
    by its type only: it may be a whole file."""
    if not isinstance(value, dict):
        raise ParseError(f"{name} must be a JSON object, got {type(value).__name__}")
    if not value.keys() <= allowed:
        key = min(map(str, value.keys() - allowed))
        raise ParseError(f"{name} has the key {key!r}, which is not read; "
                         f"the keys read are {', '.join(sorted(allowed))}")


_COMPLEX_KEYS = frozenset({"n", "vertices", "simplices", "in_M"})
_PIECE_KEYS = frozenset({"simplex", "den", "num"})
_FACTORS_PIECE_KEYS = frozenset({"simplex", "den", "num_factors"})
_PIECES_KEYS = frozenset({"pieces"})
_PATH_PIECE_KEYS = frozenset({"t_end", "c", "v"})


def complex_to_dict(k: Complex, marked: PLSet | None = None) -> dict:
    data = {
        "n": k.n,
        "vertices": [[rat_str(c) for c in v] for v in k.vertices],
        "simplices": [list(k.simplex(t).vertex_ids) for t in k.top_ids],
    }
    if marked is not None:
        data["in_M"] = sorted(marked.members)
    return data


def _is_index(i, count: int) -> bool:
    """An int that is not a bool, in range(count)."""
    return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < count


def complex_from_dict(data: dict, validate: bool = True) -> tuple[Complex, PLSet | None]:
    _read_keys(data, _COMPLEX_KEYS, "complex data")
    try:
        vertices = [tuple(_rat_in(c) for c in _json_list(v, f"vertex {i}"))
                    for i, v in enumerate(_json_list(data["vertices"], "vertices"))]
        tops = [tuple(_json_list(t, f"simplex {i}"))
                for i, t in enumerate(_json_list(data["simplices"], "simplices"))]
    except (KeyError, TypeError) as e:
        raise ParseError(f"malformed complex data: {e}") from None
    count = len(vertices)
    for t in tops:
        if not t or any(not _is_index(i, count) for i in t):
            raise ParseError(f"simplex {json.dumps(t, default=str)} must list "
                             f"vertex ids, ints in [0, {count})")
    try:
        k = build_complex(vertices, tops, validate=validate)
    except ValueError as e:  # empty, duplicate or mixed-dimension input
        raise ParseError(f"malformed complex data: {e}") from None
    n = data.get("n", k.n)
    if not isinstance(n, int) or isinstance(n, bool) or n != k.n:
        raise ParseError(f"declared dimension n = {json.dumps(n)} does not match "
                         f"the {k.n}-dimensional vertices")
    marked = None
    if "in_M" in data:
        ids = data["in_M"]
        if not isinstance(ids, list) or any(not _is_index(i, len(k.simplices)) for i in ids):
            raise ParseError("in_M must list valid simplex ids")
        marked = PLSet(k, ids)
    return k, marked


def save_complex(path: str, k: Complex, marked: PLSet | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_dict(k, marked), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
        raise ParseError(f"invalid JSON in {path}: {e}") from None
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None


def load_complex(path: str, validate: bool = True) -> tuple[Complex, PLSet | None]:
    return complex_from_dict(_read_json(path), validate=validate)


def _affine_to_list(form: AffineForm) -> list[str]:
    return [rat_str(form.c0)] + [rat_str(c) for c in form.c]


def _affine_from_list(coeffs, n: int, name: str) -> AffineForm:
    vals = [_rat_in(c) for c in _json_list(coeffs, name)]
    if len(vals) != n + 1:
        raise ParseError(f"affine form needs {n + 1} coefficients, got {len(vals)}")
    return AffineForm(vals[0], vals[1:])


def function_to_dict(f: PLFFunction) -> dict:
    pieces = []
    for sid in sorted(f.pieces):
        ratio = f.pieces[sid]
        entry = {"simplex": sid, "den": _affine_to_list(ratio.den)}
        if len(ratio.factors) == 1:
            entry["num"] = _affine_to_list(ratio.factors[0])
        else:
            entry["num_factors"] = [_affine_to_list(g) for g in ratio.factors]
        pieces.append(entry)
    return {"pieces": pieces}


def function_from_dict(data: dict, domain: PLSet,
                       validate_continuity: bool = True) -> PLFFunction:
    n = domain.complex.n
    count = len(domain.complex.simplices)
    forms, ratios, pieces = {}, {}, {}

    def form(coeffs, name: str) -> AffineForm:
        # only lists of exact str and int entries are keys: 1.0 == True == 1,
        # so a float or bool list would otherwise take an int list's form
        if type(coeffs) is not list or any(type(c) not in (str, int) for c in coeffs):
            return _affine_from_list(coeffs, n, name)
        key = tuple(coeffs)
        if key not in forms:
            forms[key] = _affine_from_list(coeffs, n, name)
        return forms[key]

    _read_keys(data, _PIECES_KEYS, "function data")
    try:
        for entry in _json_list(data["pieces"], "pieces"):
            sid = entry["simplex"]
            if not _is_index(sid, count):
                raise ParseError(f"piece simplex {json.dumps(sid, default=str)} must be "
                                 f"a simplex id, an int in [0, {count})")
            # the keys read are simplex, num or num_factors, and den if given;
            # counting them is cheaper than a subset test, and _read_keys
            # names the other key
            factored = "num_factors" in entry
            if len(entry) != 2 + ("den" in entry) or not (factored or "num" in entry):
                _read_keys(entry, _FACTORS_PIECE_KEYS if factored else _PIECE_KEYS, f"piece {sid}")
            if sid in pieces:
                raise ParseError(f"piece simplex {sid} is given twice")
            den = form(entry.get("den", [1] + [0] * n), f"piece {sid} den")
            if factored:
                factors = [form(c, f"piece {sid} num_factors")
                           for c in _json_list(entry["num_factors"], f"piece {sid} num_factors")]
            else:
                factors = [form(entry["num"], f"piece {sid} num")]
            key = (id(den), *map(id, factors))  # shared forms: equal lists, one id
            if key not in ratios:
                ratios[key] = RatioForm(factors, den)
            pieces[sid] = ratios[key]
    except (KeyError, TypeError, ValueError) as e:  # ValueError: 0 or 3+ factors
        raise ParseError(f"malformed function data: {e}") from None
    try:
        return PLFFunction(domain, pieces, validate_continuity=validate_continuity)
    except ValueError as e:  # non-member or missing piece, sign change, discontinuity
        raise ParseError(f"invalid function: {e}") from None


def save_function(path: str, f: PLFFunction) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(function_to_dict(f), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_function(path: str, domain: PLSet,
                  validate_continuity: bool = True) -> PLFFunction:
    return function_from_dict(_read_json(path), domain, validate_continuity=validate_continuity)


def path_to_dict(alpha: PathGerm) -> dict:
    return {
        "pieces": [
            {
                "t_end": rat_str(p.t_end),
                "c": [rat_str(x) for x in p.c],
                "v": [rat_str(x) for x in p.v],
            }
            for p in alpha.pieces
        ]
    }


def path_from_dict(data: dict) -> PathGerm:
    _read_keys(data, _PIECES_KEYS, "path data")
    try:
        pieces = []
        for i, p in enumerate(_json_list(data["pieces"], "path pieces")):
            _read_keys(p, _PATH_PIECE_KEYS, f"path piece {i}")
            pieces.append((_rat_in(p["t_end"]),
                           [_rat_in(x) for x in _json_list(p["c"], f"path piece {i} c")],
                           [_rat_in(x) for x in _json_list(p["v"], f"path piece {i} v")]))
    except (KeyError, TypeError) as e:
        raise ParseError(f"malformed path data: {e}") from None
    try:
        return PathGerm(pieces)
    except ValueError as e:
        raise ParseError(str(e)) from None


def save_path(path: str, alpha: PathGerm) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(path_to_dict(alpha), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_path(path: str) -> PathGerm:
    return path_from_dict(_read_json(path))


def carved_to_dict(carved) -> dict:
    """Serializable record of a carved set: base reference plus per-unit
    parameters and certificates."""
    units = []
    for u in carved.units:
        if u.is_ball:
            units.append(
                {
                    "kind": "ball",
                    "center": [rat_str(c) for c in u.outer.center],
                    "radius_sq": rat_str(u.outer.radius_sq),
                    "certificate": u.certificate,
                }
            )
        else:
            units.append(
                {
                    "kind": "tube",
                    "base": [[rat_str(c) for c in v] for v in u.outer.vertices],
                    "eps_sq": rat_str(u.outer.eps_sq),
                    "certificate": u.certificate,
                }
            )
    return {"in_M": sorted(carved.base.members), "units": units}
