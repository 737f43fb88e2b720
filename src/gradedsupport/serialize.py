"""JSON forms for degree sets, windowed maps, matrices, algebras, modules.

Writing.  dump_json, the writer of every --format json output, gives the
canonical byte form json.dumps(obj, indent=2, sort_keys=True), byte for
byte.  A GradedAlgebra or GradedModule anywhere in obj stands for its JSON
form, the dict that algebra_to_json or module_to_json returns: components
by degree, then one {g, h, matrix} object per stored map in degree-pair
order.  dump_json writes the components and the map table straight from
the stored components and dict rows without building those dicts, and
renders the text of each distinct matrix once per call.  Rational entries
are written as strings ("3", "-1/2") so the files stay exact; prime-field
entries are plain integers.

Reading.  Loaders check shape and types and raise SchemaError with a dotted
path into the offending value, such as "action[3].matrix.entries[0][1]".
A path is carried as a tuple of its keys and indices and joined into text
only when an error is raised.  A well-formed component or map item is read
in one pass: int keys where ints are meant, the parent's field keys, and
rows of plain ints over GF(p) or, over Q, of strings this call has already
parsed, straight into the Matrix rows.  Any other item is read again key by
key, which raises the same error at the same path as ever.  There each
matrix row is read in one pass, a plain int over GF(p) reduced in place,
and each distinct rational string is parsed once per call; an integral
rational is read back as an int, and exponent forms such as "1e9" are
refused, since Fraction would expand them.
Semantic validation (window coverage, tag ranges, matrix shapes) stays
with the constructors, whose errors pass through.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import CapacityError, SchemaError
from .exactlin import GF, LabeledSpace, Matrix, QQ, integral
from .graded_core import GradedAlgebra, GradedModule
from .regrade_maps import WindowedMap
from .subsets import (DegreeSet, FORM_FULL, FORM_PERIODIC, FORM_WINDOWED,
                      GradedGroup, Z, Zn)


def _parts(path):
    """A loader's path argument as a tuple of keys: a dotted string from a
    caller, or the tuple another loader passes down."""
    return path if type(path) is tuple else (path,)


def _path(*parts):
    """The dotted path of parts, for an error: a key joins with '.', an int
    index is written [i]."""
    out = ""
    for p in parts:
        out = f"{out}[{p}]" if type(p) is int else f"{out}.{p}" if out else p
    return out


def _get(obj, key, at, kind=None, required=True):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", _path(*at))
    if key not in obj:
        if required:
            raise SchemaError(f"missing key '{key}'", _path(*at))
        return None
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        # bool is an int subtype; never accept it where numbers are meant
        raise SchemaError(f"'{key}' has the wrong type", _path(*at, key))
    return value


def _int(value, at):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("expected an integer", _path(*at))
    return value


def _get_int(obj, key, at):
    if type(obj) is dict and type(value := obj.get(key)) is int:
        return value
    return _int(_get(obj, key, at), (*at, key))


def _int_list(value, at):
    if not isinstance(value, list):
        raise SchemaError("expected a list of integers", _path(*at))
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError("expected an integer", _path(*at, i))
    return value


def _pair(value, at):
    got = _int_list(value, at)
    if len(got) != 2:
        raise SchemaError("expected a pair [lo, hi]", _path(*at))
    return (got[0], got[1])


# ---------------------------------------------------------------------------
# groups and degree sets


def group_to_json(group: GradedGroup) -> dict:
    if group.kind == "Zn":
        return {"kind": "Zn", "n": group.n}
    return {"kind": "Z"}


def group_from_json(obj, path="group") -> GradedGroup:
    at = _parts(path)
    kind = _get(obj, "kind", at, str)
    if kind == "Z":
        return Z
    if kind == "Zn":
        return Zn(_get_int(obj, "n", at))
    raise SchemaError(f"unknown group kind '{kind}'", _path(*at, "kind"))


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
    at = _parts(path)
    group = group_from_json(_get(obj, "group", at), (*at, "group"))
    form = _get(obj, "form", at, str)
    if form == FORM_FULL:
        return DegreeSet.full(group)
    if form == FORM_PERIODIC:
        period = _get_int(obj, "n", at)
        residues = _int_list(_get(obj, "residues", at), (*at, "residues"))
        return DegreeSet.periodic(period, residues, group)
    if form == FORM_WINDOWED:
        elements = _int_list(_get(obj, "elements", at), (*at, "elements"))
        window = _pair(_get(obj, "window", at), (*at, "window"))
        return DegreeSet.windowed(elements, window, group)
    raise SchemaError(f"unknown form '{form}'", _path(*at, "form"))


# ---------------------------------------------------------------------------
# windowed maps


def windowed_map_to_json(phi: WindowedMap) -> dict:
    lo, hi = phi.window
    return {"window": [lo, hi],
            "values": [[k, phi(k)] for k in range(lo, hi + 1)]}


def windowed_map_from_json(obj, path="") -> WindowedMap:
    at = _parts(path)
    window = _pair(_get(obj, "window", at), (*at, "window"))
    raw = _get(obj, "values", at, list)
    pairs = []
    for i, item in enumerate(raw):
        got = _int_list(item, (*at, "values", i))
        if len(got) != 2:
            raise SchemaError("expected [argument, value]",
                              _path(*at, "values", i))
        pairs.append((got[0], got[1]))
    phi = WindowedMap.from_pairs(pairs)
    if phi.window != window:
        raise SchemaError(
            f"declared window {list(window)} does not match the values",
            _path(*at, "window"))
    return phi


# ---------------------------------------------------------------------------
# fields and matrices


def _field_keys(field) -> dict:
    if field.name == "Q":
        return {"field": "Q"}
    return {"field": "GF(p)", "p": field.p}


def field_from_json(obj, path="") -> object:
    at = _parts(path)
    name = _get(obj, "field", at, str)
    if name == "Q":
        return QQ
    if name == "GF(p)":
        p = _get_int(obj, "p", at)
        try:
            return GF(p)
        except (ValueError, CapacityError) as e:
            raise SchemaError(str(e), _path(*at, "p"))
    if name.startswith("GF(") and name.endswith(")"):
        try:
            return GF(int(name[3:-1]))
        except ValueError:
            pass
    raise SchemaError(f"unknown field '{name}'", _path(*at, "field"))


def _entry_to_json(field, e):
    if field.name == "Q":
        return str(e)
    return e


def _entry(field, value, rationals, *at):
    """One entry at path `at` read as a field element; `rationals` holds
    the strings parsed so far in this call."""
    if field.name == "Q":
        if isinstance(value, str):
            got = rationals.get(value)
            if got is None:
                try:
                    # Fraction would expand an exponent to 10**exponent
                    if "e" in value or "E" in value:
                        raise ValueError(value)
                    got = rationals[value] = integral(Fraction(value))
                except (ValueError, ZeroDivisionError):
                    raise SchemaError(f"bad rational '{value}'", _path(*at))
            return got
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError("rational entries are strings or integers",
                              _path(*at))
    return field.from_int(_int(value, at))


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
    return _matrix(obj, _parts(path), field, {})


def _matrix(obj, at, field, rationals):
    rows = _get_int(obj, "rows", at)
    cols = _get_int(obj, "cols", at)
    raw = _get(obj, "entries", at, list)
    if len(raw) != rows:
        raise SchemaError(f"expected {rows} rows", _path(*at, "entries"))
    p = getattr(field, "p", None)
    nz = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"expected a row of {cols} entries",
                              _path(*at, "entries", i))
        got = {}
        for j, e in enumerate(row):  # a plain int over GF(p) read in place
            v = e % p if p and type(e) is int else \
                _entry(field, e, rationals, *at, "entries", i, j)
            if v:
                got[j] = v
        nz.append(got)
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


def _components_from_json(raw, at):
    if not isinstance(raw, list):
        raise SchemaError("expected a list of components", _path(*at))
    comps = {}
    for i, item in enumerate(raw):
        # one pass for a well-formed item; any other is read key by key
        if (type(item) is dict and type(d := item.get("degree")) is int
                and type(dim := item.get("dim")) is int
                and type(left := item.get("left_tags")) is list
                and type(right := item.get("right_tags")) is list
                and len(left) == dim == len(right) and d not in comps
                and {*map(type, left), *map(type, right)} <= {int}):
            comps[d] = LabeledSpace(dim, tuple(left), tuple(right))
            continue
        cat = (*at, i)
        d = _get_int(item, "degree", cat)
        dim = _get_int(item, "dim", cat)
        left = _int_list(_get(item, "left_tags", cat), (*cat, "left_tags"))
        right = _int_list(_get(item, "right_tags", cat),
                          (*cat, "right_tags"))
        if len(left) != dim or len(right) != dim:
            raise SchemaError("tag lists must have length dim", _path(*cat))
        if d in comps:
            raise SchemaError(f"duplicate degree {d}", _path(*cat))
        comps[d] = LabeledSpace(dim, tuple(left), tuple(right))
    return comps


def _plain_rows(raw, cols, p, rationals):
    """The nonzeros of each row of raw, or None unless every row is a list
    of cols entries, each a plain int over GF(p) or, over Q (p None), a
    string already parsed into rationals."""
    nz = []
    for row in raw:
        if type(row) is not list or len(row) != cols:
            return None
        got = {}
        for j, e in enumerate(row):
            if type(e) is int and p:
                e %= p
            elif type(e) is str and p is None and e in rationals:
                e = rationals[e]
            else:
                return None
            if e:
                got[j] = e
        nz.append(got)
    return tuple(nz)


def _maps_from_json(raw, at, field, parent, rationals):
    if not isinstance(raw, list):
        raise SchemaError("expected a list of degree-pair maps", _path(*at))
    keys = parent.get("field"), parent.get("p")  # the parent's, as written
    p = getattr(field, "p", None)
    table = {}
    for i, item in enumerate(raw):
        # one pass for a well-formed item; any other is read key by key
        if (type(item) is dict and type(g := item.get("g")) is int
                and type(h := item.get("h")) is int
                and type(obj := item.get("matrix")) is dict
                and (obj.get("field"), obj.get("p")) == keys
                and type(rows := obj.get("rows")) is int
                and type(cols := obj.get("cols")) is int
                and type(raw_rows := obj.get("entries")) is list
                and len(raw_rows) == rows and (g, h) not in table
                and (nz := _plain_rows(raw_rows, cols, p, rationals))
                is not None):
            table[(g, h)] = Matrix._of(field, rows, cols, nz)
            continue
        it = (*at, i)
        g = _get_int(item, "g", it)
        h = _get_int(item, "h", it)
        obj, mat = _get(item, "matrix", it), (*it, "matrix")
        if (_get(obj, "field", mat, required=False), obj.get("p")) != keys:
            raise SchemaError("field differs from its parent's", _path(*mat))
        m = _matrix(obj, mat, field, rationals)
        if (g, h) in table:
            raise SchemaError(f"duplicate degree pair ({g}, {h})",
                              _path(*it))
        table[(g, h)] = m
    return table


def _form(x, table, comps):
    """The JSON form of an algebra or module around the forms of its map
    table and components; a module's algebra is the object itself."""
    if isinstance(x, GradedModule):
        return {"algebra": x.over, "window": list(x.window),
                "components": comps, "action": table}
    return {"group": group_to_json(x.group), "window": list(x.window),
            "k": x.k, **_field_keys(x.field), "components": comps,
            "mult": table, "unit": [_entry_to_json(x.field, e)
                                    for e in x.unit]}


def _maps_to_json(x) -> list:
    """One {g, h, matrix} per stored map in degree-pair order, its rows
    those of pairs(g, h)."""
    return [{"g": g, "h": h, "matrix": _rows_to_json(
        x.field, [rows.get(p, {}) for p in x.pairs(g, h)],
        x.component(x.add_deg(g, h)).dim)}
        for (g, h), rows in sorted(x._maps.items())]


def algebra_to_json(a: GradedAlgebra) -> dict:
    return _form(a, _maps_to_json(a), _components_to_json(a.components))


def algebra_from_json(obj, path="") -> GradedAlgebra:
    return _algebra(obj, _parts(path), {})


def _algebra(obj, at, rationals):
    group = group_from_json(_get(obj, "group", at), (*at, "group"))
    window = _pair(_get(obj, "window", at), (*at, "window"))
    k = _get_int(obj, "k", at)
    field = field_from_json(obj, at)
    comps = _components_from_json(_get(obj, "components", at),
                                  (*at, "components"))
    mult = _maps_from_json(_get(obj, "mult", at), (*at, "mult"), field, obj,
                           rationals)
    unit = [_entry(field, e, rationals, *at, "unit", i)
            for i, e in enumerate(_get(obj, "unit", at, list))]
    return GradedAlgebra(group, window, k, field, comps, mult, unit)


def module_to_json(m: GradedModule) -> dict:
    out = _form(m, _maps_to_json(m), _components_to_json(m.components))
    out["algebra"] = algebra_to_json(m.over)
    return out


def module_from_json(obj, path="") -> GradedModule:
    at, rationals = _parts(path), {}
    algebra = _algebra(_get(obj, "algebra", at), (*at, "algebra"), rationals)
    window = _pair(_get(obj, "window", at), (*at, "window"))
    comps = _components_from_json(_get(obj, "components", at),
                                  (*at, "components"))
    action = _maps_from_json(_get(obj, "action", at), (*at, "action"),
                             algebra.field, obj["algebra"], rationals)
    return GradedModule(algebra, window, comps, action)


# ---------------------------------------------------------------------------
# the indented text form


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, errors too,
    where a GradedAlgebra or GradedModule stands for its JSON form.

    One recursive pass joining each container's parts once.  Python 3.10
    and 3.11 indent in the pure-Python encoder, about half as fast on the
    CLI's lift reports.
    """
    return _dump(obj, "\n", {})


class _Text(str):
    """Text already in dump_json's form, written as it is."""


_int_repr = int.__repr__  # bound once: int leaves are most of the output


def _dump(o, pad, memo):
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return _int_repr(o)
    if t is _Text:
        return o
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        # sorted as dumps sorts; any other key is written as dumps writes it
        parts = [(_quote(k) if type(k) is str else json.dumps({k: 0})[1:-4])
                 + ": " + _dump(v, inner, memo) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        parts = [_int_repr(v) if type(v) is int else _dump(v, inner, memo)
                 for v in o]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if isinstance(o, (GradedAlgebra, GradedModule)):
        inner = pad + "  "
        return _dump(_form(o, _Text(_table_text(o, inner, memo)),
                           _Text(_components_text(o.components, inner,
                                                  memo))),
                     pad, memo)
    return json.dumps(o)  # bool, None, floats, subclasses; raises as dumps


def _components_text(components, pad, memo):
    """The components at indent pad, as dump_json writes
    _components_to_json(components)."""
    item, key = pad + "  ", pad + "    "
    parts = [f'{{{key}"degree": {d},{key}"dim": {c.dim},{key}"left_tags": '
             f'{_dump(c.left_tags, key, memo)},{key}"right_tags": '
             f'{_dump(c.right_tags, key, memo)}{item}}}'
             for d, c in sorted(components.items())]
    return "[" + item + ("," + item).join(parts) + pad + "]" if parts else "[]"


def _table_text(x, pad, memo):
    """x's map table at indent pad, as dump_json writes _maps_to_json(x)."""
    item, key = pad + "  ", pad + "    "
    field, pairs, add = x.field, x.pairs, x.group.add
    dims = {d: c.dim for d, c in x.components.items()}
    head, tail = key + '"matrix": ', item + "}"
    empty, parts = {}, []
    for (g, h), rows in sorted(x._maps.items()):
        parts.append(f'{{{key}"g": {g},{key}"h": {h},{head}'
                     + _matrix_text(field, [rows.get(p, empty)
                                            for p in pairs(g, h)],
                                    dims.get(add(g, h), 0), key, memo)
                     + tail)
    return "[" + item + ("," + item).join(parts) + pad + "]" if parts else "[]"


def _matrix_text(field, rows, cols, pad, memo):
    """The text of _rows_to_json(field, rows, cols) at indent pad; each
    distinct one is rendered once per dump_json call."""
    key = (field.name, pad, cols, tuple(map(tuple, map(dict.items, rows))))
    text = memo.get(key)
    if text is None:
        text = memo[key] = _dump(_rows_to_json(field, rows, cols), pad, memo)
    return text
