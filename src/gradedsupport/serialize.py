"""JSON forms for degree sets, windowed maps, matrices, algebras, modules.

Loaders validate shape and types and raise SchemaError with a dotted path
into the offending value; semantic validation (window coverage, tag ranges,
matrix shapes) stays with the constructors, whose errors pass through.

Rational entries are written as strings ("3", "-1/2") so the files stay
exact; prime-field entries are plain integers.  Emission orders components
by degree and maps by degree pair, so dump_json, the writer of every
--format json output, gives a canonical byte form: that of
json.dumps(obj, indent=2, sort_keys=True), byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import CapacityError, SchemaError
from .exactlin import GF, LabeledSpace, Matrix, QQ
from .graded_core import GradedAlgebra, GradedModule
from .regrade_maps import WindowedMap
from .subsets import (DegreeSet, FORM_FULL, FORM_PERIODIC, FORM_WINDOWED,
                      GradedGroup, Z, Zn)


def _child(path, key):
    return f"{path}.{key}" if path else str(key)


def _get(obj, key, path, kind=None, required=True):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    if key not in obj:
        if required:
            raise SchemaError(f"missing key '{key}'", path)
        return None
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        # bool is an int subtype; never accept it where numbers are meant
        raise SchemaError(f"'{key}' has the wrong type", _child(path, key))
    return value


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("expected an integer", path)
    return value


def _int_list(value, path):
    if not isinstance(value, list):
        raise SchemaError("expected a list of integers", path)
    return [_int(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _pair(value, path):
    got = _int_list(value, path)
    if len(got) != 2:
        raise SchemaError("expected a pair [lo, hi]", path)
    return (got[0], got[1])


# ---------------------------------------------------------------------------
# groups and degree sets


def group_to_json(group: GradedGroup) -> dict:
    if group.kind == "Zn":
        return {"kind": "Zn", "n": group.n}
    return {"kind": "Z"}


def group_from_json(obj, path="group") -> GradedGroup:
    kind = _get(obj, "kind", path, str)
    if kind == "Z":
        return Z
    if kind == "Zn":
        return Zn(_int(_get(obj, "n", path), _child(path, "n")))
    raise SchemaError(f"unknown group kind '{kind}'", _child(path, "kind"))


def degree_set_to_json(s: DegreeSet) -> dict:
    out = {"group": group_to_json(s.group), "form": s.form}
    if s.form == FORM_PERIODIC:
        out["n"] = s.period
        out["residues"] = sorted(s.residues)
    elif s.form == FORM_WINDOWED:
        out["elements"] = sorted(s.elements)
        out["window"] = list(s.window)
    return out


def degree_set_from_json(obj, path="") -> DegreeSet:
    group = group_from_json(_get(obj, "group", path), _child(path, "group"))
    form = _get(obj, "form", path, str)
    if form == FORM_FULL:
        return DegreeSet.full(group)
    if form == FORM_PERIODIC:
        period = _int(_get(obj, "n", path), _child(path, "n"))
        residues = _int_list(_get(obj, "residues", path),
                             _child(path, "residues"))
        return DegreeSet.periodic(period, residues, group)
    if form == FORM_WINDOWED:
        elements = _int_list(_get(obj, "elements", path),
                             _child(path, "elements"))
        window = _pair(_get(obj, "window", path), _child(path, "window"))
        return DegreeSet.windowed(elements, window, group)
    raise SchemaError(f"unknown form '{form}'", _child(path, "form"))


# ---------------------------------------------------------------------------
# windowed maps


def windowed_map_to_json(phi: WindowedMap) -> dict:
    lo, hi = phi.window
    return {"window": [lo, hi],
            "values": [[k, phi(k)] for k in range(lo, hi + 1)]}


def windowed_map_from_json(obj, path="") -> WindowedMap:
    window = _pair(_get(obj, "window", path), _child(path, "window"))
    raw = _get(obj, "values", path, list)
    pairs = []
    for i, item in enumerate(raw):
        got = _int_list(item, f"{_child(path, 'values')}[{i}]")
        if len(got) != 2:
            raise SchemaError("expected [argument, value]",
                              f"{_child(path, 'values')}[{i}]")
        pairs.append((got[0], got[1]))
    phi = WindowedMap.from_pairs(pairs)
    if phi.window != window:
        raise SchemaError(
            f"declared window {list(window)} does not match the values",
            _child(path, "window"))
    return phi


# ---------------------------------------------------------------------------
# fields and matrices


def _field_keys(field) -> dict:
    if field.name == "Q":
        return {"field": "Q"}
    return {"field": "GF(p)", "p": field.p}


def field_from_json(obj, path="") -> object:
    name = _get(obj, "field", path, str)
    if name == "Q":
        return QQ
    if name == "GF(p)":
        ppath = _child(path, "p")
        p = _int(_get(obj, "p", path), ppath)
        try:
            return GF(p)
        except (ValueError, CapacityError) as e:
            raise SchemaError(str(e), ppath)
    if name.startswith("GF(") and name.endswith(")"):
        try:
            return GF(int(name[3:-1]))
        except ValueError:
            pass
    raise SchemaError(f"unknown field '{name}'", _child(path, "field"))


def _entry_to_json(field, e):
    if field.name == "Q":
        return str(e)
    return e


def _entry_from_json(field, value, path):
    if field.name == "Q":
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"bad rational '{value}'", path)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError("rational entries are strings or integers",
                              path)
        return Fraction(value)
    return field.from_int(_int(value, path))


def matrix_to_json(m: Matrix) -> dict:
    return _rows_to_json(m.field, m.nz, m.cols)


def _rows_to_json(F, rows, cols) -> dict:
    """A matrix's JSON form, its dense entries written from dict rows."""
    zero = _entry_to_json(F, F.zero())
    entries = []
    for row in rows:
        entries.append([zero] * cols)
        for c, v in row.items():
            entries[-1][c] = _entry_to_json(F, v)
    return {**_field_keys(F), "rows": len(entries), "cols": cols,
            "entries": entries}


def matrix_from_json(obj, path="", field=None) -> Matrix:
    if field is None:
        field = field_from_json(obj, path)
    rows = _int(_get(obj, "rows", path), _child(path, "rows"))
    cols = _int(_get(obj, "cols", path), _child(path, "cols"))
    raw = _get(obj, "entries", path, list)
    if len(raw) != rows:
        raise SchemaError(f"expected {rows} rows", _child(path, "entries"))
    nz = []
    for i, row in enumerate(raw):
        rpath = f"{_child(path, 'entries')}[{i}]"
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"expected a row of {cols} entries", rpath)
        nz.append({j: v for j, e in enumerate(row)
                   if (v := _entry_from_json(field, e, f"{rpath}[{j}]"))})
    return Matrix._of(field, rows, cols, tuple(nz))


# ---------------------------------------------------------------------------
# algebras and modules


def _components_to_json(components) -> list:
    out = []
    for d in sorted(components):
        comp = components[d]
        out.append({"degree": d, "dim": comp.dim,
                    "left_tags": list(comp.left_tags),
                    "right_tags": list(comp.right_tags)})
    return out


def _components_from_json(raw, path):
    if not isinstance(raw, list):
        raise SchemaError("expected a list of components", path)
    comps = {}
    for i, item in enumerate(raw):
        cpath = f"{path}[{i}]"
        d = _int(_get(item, "degree", cpath), _child(cpath, "degree"))
        dim = _int(_get(item, "dim", cpath), _child(cpath, "dim"))
        left = _int_list(_get(item, "left_tags", cpath),
                         _child(cpath, "left_tags"))
        right = _int_list(_get(item, "right_tags", cpath),
                          _child(cpath, "right_tags"))
        if len(left) != dim or len(right) != dim:
            raise SchemaError("tag lists must have length dim", cpath)
        if d in comps:
            raise SchemaError(f"duplicate degree {d}", cpath)
        comps[d] = LabeledSpace(dim, tuple(left), tuple(right))
    return comps


def _maps_to_json(x) -> list:
    return [{"g": g, "h": h, "matrix": _rows_to_json(
                x.field, [rows.get(p, {}) for p in x.pairs(g, h)],
                x.component(x.add_deg(g, h)).dim)}
            for (g, h), rows in sorted(x._maps.items())]


def _maps_from_json(raw, path, field):
    if not isinstance(raw, list):
        raise SchemaError("expected a list of degree-pair maps", path)
    table = {}
    for i, item in enumerate(raw):
        mpath = f"{path}[{i}]"
        g = _int(_get(item, "g", mpath), _child(mpath, "g"))
        h = _int(_get(item, "h", mpath), _child(mpath, "h"))
        mat = matrix_from_json(_get(item, "matrix", mpath),
                               _child(mpath, "matrix"), field)
        if (g, h) in table:
            raise SchemaError(f"duplicate degree pair ({g}, {h})", mpath)
        table[(g, h)] = mat
    return table


def algebra_to_json(a: GradedAlgebra) -> dict:
    out = {"group": group_to_json(a.group), "window": list(a.window),
           "k": a.k}
    out.update(_field_keys(a.field))
    out["components"] = _components_to_json(a.components)
    out["mult"] = _maps_to_json(a)
    out["unit"] = [_entry_to_json(a.field, e) for e in a.unit]
    return out


def algebra_from_json(obj, path="") -> GradedAlgebra:
    group = group_from_json(_get(obj, "group", path), _child(path, "group"))
    window = _pair(_get(obj, "window", path), _child(path, "window"))
    k = _int(_get(obj, "k", path), _child(path, "k"))
    field = field_from_json(obj, path)
    comps = _components_from_json(_get(obj, "components", path),
                                  _child(path, "components"))
    mult = _maps_from_json(_get(obj, "mult", path), _child(path, "mult"),
                           field)
    unit_raw = _get(obj, "unit", path, list)
    unit = tuple(_entry_from_json(field, e, f"{_child(path, 'unit')}[{i}]")
                 for i, e in enumerate(unit_raw))
    return GradedAlgebra(group, window, k, field, comps, mult, unit)


def module_to_json(m: GradedModule) -> dict:
    return {"algebra": algebra_to_json(m.over), "window": list(m.window),
            "components": _components_to_json(m.components),
            "action": _maps_to_json(m)}


def module_from_json(obj, path="") -> GradedModule:
    algebra = algebra_from_json(_get(obj, "algebra", path),
                                _child(path, "algebra"))
    window = _pair(_get(obj, "window", path), _child(path, "window"))
    comps = _components_from_json(_get(obj, "components", path),
                                  _child(path, "components"))
    action = _maps_from_json(_get(obj, "action", path),
                             _child(path, "action"), algebra.field)
    return GradedModule(algebra, window, comps, action)


# ---------------------------------------------------------------------------
# the indented text form


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, errors too.

    One recursive pass joining each container's parts once.  Python 3.10
    and 3.11 indent in the pure-Python encoder, about half as fast on the
    CLI's lift reports.
    """
    return _dump(obj, "\n")


_int_repr = int.__repr__  # bound once: int leaves are most of the output


def _dump(o, pad):
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return _int_repr(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        # sorted as dumps sorts; any other key is written as dumps writes it
        parts = [(_quote(k) if type(k) is str else json.dumps({k: 0})[1:-4])
                 + ": " + _dump(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        parts = [_int_repr(v) if type(v) is int else _dump(v, inner)
                 for v in o]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    return json.dumps(o)  # bool, None, floats, subclasses; raises as dumps
