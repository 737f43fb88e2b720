"""JSON round trips and schema validation paths."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedsupport.constructions import (
    present_module,
    quiver_algebra,
    truncated_polynomial,
    zero_sum_pair_algebra,
)
from gradedsupport.errors import CapacityError, SchemaError
from gradedsupport.exactlin import GF, LabeledSpace, Matrix, QQ, integral
from gradedsupport.graded_core import (GradedAlgebra, GradedModule,
                                       algebras_equal, kill_support_algebra,
                                       modules_equal, regrade_algebra)
from gradedsupport.regrade_maps import WindowedMap, delta_map
from gradedsupport.serialize import (
    algebra_from_json,
    algebra_to_json,
    degree_set_from_json,
    degree_set_to_json,
    dump_json,
    field_from_json,
    group_from_json,
    group_to_json,
    module_from_json,
    module_to_json,
    windowed_map_from_json,
    windowed_map_to_json,
    _matrix,
    _rows_to_json,
)
from gradedsupport.subsets import DegreeSet, Z, Zn, same_set
from test_graded_core_oracles import FIELDS, hom_pairs, z_algebra

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12)


def canonical(obj):
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# groups and degree sets


def test_group_round_trips():
    for group in (Z, Zn(6)):
        back = group_from_json(group_to_json(group))
        assert back.kind == group.kind
        if group.kind == "Zn":
            assert back.n == group.n


def test_degree_set_round_trips_in_every_form():
    sets = [
        DegreeSet.full(Z),
        DegreeSet.full(Zn(4)),
        DegreeSet.periodic(5, (0, 2, 3)),
        DegreeSet.periodic(6, (0, 1, 3), Zn(6)),
        DegreeSet.windowed((-2, 0, 1), (-5, 5)),
    ]
    for s in sets:
        back = degree_set_from_json(degree_set_to_json(s))
        assert same_set(back, s)
        assert back.form == s.form


def test_degree_set_json_is_byte_stable():
    s = DegreeSet.periodic(5, (3, 0, 2))
    once = canonical(degree_set_to_json(s))
    again = canonical(degree_set_to_json(degree_set_from_json(
        degree_set_to_json(s))))
    assert once == again


def test_unknown_group_kind_names_the_key():
    with pytest.raises(SchemaError) as e:
        group_from_json({"kind": "Q"})
    assert e.value.path == "group.kind"


def test_unknown_form_is_rejected():
    with pytest.raises(SchemaError) as e:
        degree_set_from_json({"group": {"kind": "Z"}, "form": "lattice"})
    assert e.value.path == "form"


def test_missing_key_is_reported_with_its_path():
    with pytest.raises(SchemaError) as e:
        degree_set_from_json({"group": {"kind": "Z"}, "form": "periodic",
                              "n": 4})
    assert "residues" in str(e.value)


def test_bool_is_not_an_integer():
    with pytest.raises(SchemaError) as e:
        group_from_json({"kind": "Zn", "n": True}, path="group")
    assert e.value.path == "group.n"


# ---------------------------------------------------------------------------
# windowed maps


def test_windowed_map_round_trips():
    phi = WindowedMap.from_pairs([(-1, -3), (0, 0), (1, 1), (2, 3)])
    back = windowed_map_from_json(windowed_map_to_json(phi))
    assert back.window == phi.window
    assert all(back(k) == phi(k) for k in back.domain())


def test_windowed_map_declared_window_must_match():
    obj = windowed_map_to_json(WindowedMap.from_pairs([(0, 0), (1, 2)]))
    obj["window"] = [0, 5]
    with pytest.raises(SchemaError) as e:
        windowed_map_from_json(obj)
    assert e.value.path == "window"


# ---------------------------------------------------------------------------
# matrices


@given(entries=st.lists(st.lists(rationals, min_size=3, max_size=3),
                        min_size=1, max_size=4))
def test_rational_matrices_round_trip(entries):
    m = Matrix(QQ, len(entries), 3, entries)
    assert _matrix(_rows_to_json(QQ, m.nz, 3), (), QQ, {}) == m


def test_rational_entries_serialize_as_strings():
    m = Matrix(QQ, 1, 2, [[Fraction(-1, 2), Fraction(3)]])
    obj = _rows_to_json(QQ, m.nz, 2)
    assert obj["entries"] == [["-1/2", "3"]]


def test_integral_rational_entries_load_as_ints():
    obj = {"field": "Q", "rows": 1, "cols": 5,
           "entries": [["4/2", "1/2", "3", 7, "0"]]}
    [row] = _matrix(obj, (), QQ, {}).nz
    assert row == {0: 2, 1: Fraction(1, 2), 2: 3, 3: 7}
    assert [type(row[j]) for j in range(4)] == [int, Fraction, int, int]
    assert _rows_to_json(QQ, (row,), 5)["entries"] == [
        ["2", "1/2", "3", "7", "0"]]


def test_decimal_rationals_load_and_exponents_are_refused():
    obj = {"field": "Q", "rows": 1, "cols": 4,
           "entries": [["0.25", "-1.5", "2.0", "-1/2"]]}
    [row] = _matrix(obj, (), QQ, {}).nz
    assert row == {0: Fraction(1, 4), 1: Fraction(-3, 2), 2: 2,
                   3: Fraction(-1, 2)}
    assert type(row[2]) is int
    for value in ("1e3", "1E3", "1e-3", "2.5e+1", "1/2e3"):
        obj["entries"][0][2] = value
        with pytest.raises(SchemaError) as e:
            _matrix(obj, (), QQ, {})
        assert e.value.path == "entries[0][2]"
        assert str(e.value) == f"entries[0][2]: bad rational '{value}'"


def test_prime_field_matrices_round_trip():
    f = GF(7)
    m = Matrix(f, 1, 2, [[f.from_int(3), f.from_int(6)]])
    obj = _rows_to_json(f, m.nz, 2)
    assert obj["field"] == "GF(p)" and obj["p"] == 7
    assert _matrix(obj, (), field_from_json(obj), {}) == m


@pytest.mark.parametrize("value", [None, True, 1.5, [], {}])
def test_a_rational_entry_of_another_type_names_the_entry(value):
    obj = {"field": "Q", "rows": 1, "cols": 2, "entries": [["1", value]]}
    with pytest.raises(SchemaError) as e:
        _matrix(obj, (), QQ, {})
    assert str(e.value) == \
        "entries[0][1]: rational entries are strings or integers"


def test_prime_field_entries_are_read_mod_p():
    obj = {"field": "GF(p)", "p": 7, "rows": 2, "cols": 3,
           "entries": [[9, -1, 7], [0, 0, 0]]}
    assert _matrix(obj, (), GF(7), {}).nz == ({0: 2, 1: 6}, {})


def test_bad_rational_string_names_the_entry():
    obj = {"field": "Q", "rows": 1, "cols": 1, "entries": [["3/"]]}
    with pytest.raises(SchemaError) as e:
        _matrix(obj, (), QQ, {})
    assert e.value.path == "entries[0][0]"


def test_short_row_names_the_row():
    obj = {"field": "Q", "rows": 1, "cols": 2, "entries": [["1"]]}
    with pytest.raises(SchemaError) as e:
        _matrix(obj, (), QQ, {})
    assert e.value.path == "entries[0]"


def test_unknown_field_is_rejected():
    with pytest.raises(SchemaError) as e:
        field_from_json({"field": "R"})
    assert e.value.path == "field"


def test_named_prime_field_shorthand_loads():
    assert field_from_json({"field": "GF(11)"}) is GF(11)


# ---------------------------------------------------------------------------
# algebras and modules


def test_algebras_round_trip():
    for a in (truncated_polynomial(4),
              zero_sum_pair_algebra(2),
              quiver_algebra(2, [(0, 1), (1, 0)], [], 3),
              truncated_polynomial(3, 1, field=GF(5))):
        back = algebra_from_json(algebra_to_json(a))
        assert algebras_equal(back, a)
        assert back.field is a.field


def test_algebra_json_is_byte_stable():
    a = quiver_algebra(1, [(0, 0), (0, 0)], [[(1, (1, 0))]], 3)
    once = canonical(algebra_to_json(a))
    again = canonical(algebra_to_json(algebra_from_json(
        algebra_to_json(a))))
    assert once == again


def test_modules_round_trip():
    a = truncated_polynomial(4)
    m = present_module(a, [0], [(3, [a.field.one()])])
    back = module_from_json(module_to_json(m))
    assert modules_equal(back, m)


def test_duplicate_component_degree_is_rejected():
    a = truncated_polynomial(3)
    obj = algebra_to_json(a)
    obj["components"].append(dict(obj["components"][0]))
    with pytest.raises(SchemaError) as e:
        algebra_from_json(obj)
    assert "duplicate degree" in str(e.value)
    assert e.value.path == "components[3]"


def test_duplicate_mult_pair_is_rejected():
    a = truncated_polynomial(3)
    obj = algebra_to_json(a)
    obj["mult"].append(dict(obj["mult"][0]))
    with pytest.raises(SchemaError) as e:
        algebra_from_json(obj)
    assert "duplicate degree pair" in str(e.value)


def test_tag_lists_must_match_the_dimension():
    a = truncated_polynomial(3)
    obj = algebra_to_json(a)
    obj["components"][0]["left_tags"] = [0, 0]
    with pytest.raises(SchemaError) as e:
        algebra_from_json(obj)
    assert e.value.path == "components[0]"


def test_module_loader_reports_nested_paths():
    a = truncated_polynomial(3)
    m = present_module(a, [0], [])
    obj = module_to_json(m)
    del obj["algebra"]["unit"]
    with pytest.raises(SchemaError) as e:
        module_from_json(obj)
    assert "unit" in str(e.value)
    assert e.value.path == "algebra"


@pytest.mark.parametrize("keys", [
    {"field": -1},
    {"field": "Q"},
    {"p": 103},
    {"field": "GF(101)"},  # the same field, written unlike the parent
])
def test_a_map_must_repeat_its_algebras_field_keys(keys):
    obj = algebra_to_json(truncated_polynomial(3, 1, field=GF(101)))
    obj["mult"][1]["matrix"].update(keys)
    with pytest.raises(SchemaError) as e:
        algebra_from_json(obj)
    assert "field differs" in str(e.value)
    assert e.value.path == "mult[1].matrix"


@pytest.mark.parametrize("keys", [{"field": "Q"}, {"p": 103}])
def test_an_action_map_must_repeat_its_algebras_field_keys(keys):
    a = truncated_polynomial(3, 1, field=GF(101))
    obj = module_to_json(present_module(a, [0], []))
    obj["action"][0]["matrix"].update(keys)
    with pytest.raises(SchemaError) as e:
        module_from_json(obj)
    assert e.value.path == "action[0].matrix"


def test_maps_written_in_the_parents_shorthand_load():
    obj = algebra_to_json(truncated_polynomial(3, 1, field=GF(11)))
    for item in [obj] + [x["matrix"] for x in obj["mult"]]:
        del item["p"]
        item["field"] = "GF(11)"
    assert algebras_equal(algebra_from_json(obj),
                          truncated_polynomial(3, 1, field=GF(11)))


@pytest.mark.parametrize("p", [4, 3317044064679887385961981])
def test_field_loader_reports_an_unusable_prime_at_p(p):
    with pytest.raises(SchemaError) as e:
        field_from_json({"field": "GF(p)", "p": p})
    assert e.value.path == "p"
    a = algebra_to_json(truncated_polynomial(2, field=GF(5)))
    a["p"] = p
    with pytest.raises(SchemaError) as e:
        module_from_json({"algebra": a, "window": [0, 1],
                          "components": [], "action": []})
    assert e.value.path == "algebra.p"


# ---------------------------------------------------------------------------
# the indented writer against json.dumps(indent=2, sort_keys=True)


class _Int(int):
    def __repr__(self):
        return "not the int form"


class _Str(str):
    pass


texts = st.text(max_size=6) | st.sampled_from(
    ["", "\u2028", "\u2029", '"', "\\", "\x00\x1f\n\t\x7f", "é✓",
     "\U0001f600"])
floats = st.floats() | st.sampled_from(
    [-0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324])
ints = st.integers() | st.integers(-10 ** 40, 10 ** 40)
leaves = (st.none() | st.booleans() | ints | floats | texts
          | ints.map(_Int) | texts.map(_Str))
# dict keys of one type sort as json's do; mixed types raise on the sort
key_types = st.sampled_from([texts, ints, floats, st.booleans(), st.none(),
                             texts | ints | st.none()])
unsupported = st.sampled_from([b"bytes", {1, 2}, 1j, object()])


def _children(inner):
    return (st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | key_types.flatmap(lambda keys: st.dictionaries(
                keys, inner, max_size=4)))


json_trees = st.recursive(leaves, _children, max_leaves=30)
bad_trees = st.recursive(leaves | unsupported, lambda inner: _children(inner)
                         | st.dictionaries(st.tuples(st.integers()), inner,
                                           min_size=1, max_size=2),
                         max_leaves=12)


def _oracle(obj):
    try:
        return json.dumps(obj, indent=2, sort_keys=True)
    except (TypeError, ValueError) as e:
        return type(e)


@given(json_trees)
def test_dump_json_is_byte_identical_to_the_indented_encoder(obj):
    want = _oracle(obj)
    if isinstance(want, str):
        assert dump_json(obj) == want
    else:  # mixed key types under sort_keys
        with pytest.raises(want):
            dump_json(obj)


@given(bad_trees)
def test_dump_json_raises_where_the_encoder_does(obj):
    want = _oracle(obj)
    if isinstance(want, str):
        assert dump_json(obj) == want
    else:
        with pytest.raises(want):
            dump_json(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": [{}, [[]]]}, "\u2028", 0, -1, True,
    None, float("nan"), -0.0, {1: "int", 2.5: "float"}, {True: 1}, {None: 2},
    {"é": ["\x00", '"\\']}, [10 ** 30, -(10 ** 30)],
], ids=repr)
def test_dump_json_edge_cases(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# oracles: the writer and reader before they worked on dict rows, unchanged
# but for names.  The writer built every matrix's dense dict form before
# json.dumps-style text was written from it; the reader built a path string
# for every value it read.


def old_entry_to_json(field, e):
    if field.name == "Q":
        return str(e)
    return e


def old_field_keys(field):
    if field.name == "Q":
        return {"field": "Q"}
    return {"field": "GF(p)", "p": field.p}


def old_rows_to_json(F, rows, cols):
    zero = old_entry_to_json(F, F.zero())
    entries = []
    for row in rows:
        entries.append([zero] * cols)
        for c, v in row.items():
            entries[-1][c] = old_entry_to_json(F, v)
    return {**old_field_keys(F), "rows": len(entries), "cols": cols,
            "entries": entries}


def old_maps_to_json(x):
    return [{"g": g, "h": h, "matrix": old_rows_to_json(
                x.field, [rows.get(p, {}) for p in x.pairs(g, h)],
                x.component(x.add_deg(g, h)).dim)}
            for (g, h), rows in sorted(x._table().items())]


def old_components_to_json(components):
    out = []
    for d in sorted(components):
        comp = components[d]
        out.append({"degree": d, "dim": comp.dim,
                    "left_tags": list(comp.left_tags),
                    "right_tags": list(comp.right_tags)})
    return out


def old_algebra_to_json(a):
    out = {"group": group_to_json(a.group), "window": list(a.window),
           "k": a.k}
    out.update(old_field_keys(a.field))
    out["components"] = old_components_to_json(a.components)
    out["mult"] = old_maps_to_json(a)
    out["unit"] = [old_entry_to_json(a.field, e) for e in a.unit]
    return out


def old_module_to_json(m):
    return {"algebra": old_algebra_to_json(m.over), "window": list(m.window),
            "components": old_components_to_json(m.components),
            "action": old_maps_to_json(m)}


def old_to_json(x):
    """The old JSON form of an algebra, module or matrix; usable as
    json.dumps' default, so it raises TypeError on anything else."""
    if isinstance(x, GradedModule):
        return old_module_to_json(x)
    if isinstance(x, GradedAlgebra):
        return old_algebra_to_json(x)
    if isinstance(x, Matrix):
        return old_rows_to_json(x.field, x.nz, x.cols)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON "
                    f"serializable")


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


def old_group_from_json(obj, path="group"):
    kind = _get(obj, "kind", path, str)
    if kind == "Z":
        return Z
    if kind == "Zn":
        return Zn(_int(_get(obj, "n", path), _child(path, "n")))
    raise SchemaError(f"unknown group kind '{kind}'", _child(path, "kind"))


def old_field_from_json(obj, path=""):
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


def old_entry_from_json(field, value, path):
    if field.name == "Q":
        if isinstance(value, str):
            try:
                # an exponent would expand to 10**exponent
                if "e" in value or "E" in value:
                    raise ValueError(value)
                return integral(Fraction(value))
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"bad rational '{value}'", path)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError("rational entries are strings or integers",
                              path)
    return field.from_int(_int(value, path))


def old_matrix_from_json(obj, path="", field=None):
    if field is None:
        field = old_field_from_json(obj, path)
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
                   if (v := old_entry_from_json(field, e, f"{rpath}[{j}]"))})
    return Matrix._of(field, rows, cols, tuple(nz))


def old_components_from_json(raw, path):
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


def old_maps_from_json(raw, path, field, parent):
    if not isinstance(raw, list):
        raise SchemaError("expected a list of degree-pair maps", path)
    table = {}
    for i, item in enumerate(raw):
        mpath = f"{path}[{i}]"
        g = _int(_get(item, "g", mpath), _child(mpath, "g"))
        h = _int(_get(item, "h", mpath), _child(mpath, "h"))
        obj, opath = _get(item, "matrix", mpath), _child(mpath, "matrix")
        if any(_get(obj, key, opath, required=False) != parent.get(key)
               for key in ("field", "p")):
            raise SchemaError("field differs from its parent's", opath)
        mat = old_matrix_from_json(obj, opath, field)
        if (g, h) in table:
            raise SchemaError(f"duplicate degree pair ({g}, {h})", mpath)
        table[(g, h)] = mat
    return table


def old_algebra_from_json(obj, path=""):
    group = old_group_from_json(_get(obj, "group", path),
                                _child(path, "group"))
    window = _pair(_get(obj, "window", path), _child(path, "window"))
    k = _int(_get(obj, "k", path), _child(path, "k"))
    field = old_field_from_json(obj, path)
    comps = old_components_from_json(_get(obj, "components", path),
                                     _child(path, "components"))
    mult = old_maps_from_json(_get(obj, "mult", path), _child(path, "mult"),
                              field, obj)
    unit_raw = _get(obj, "unit", path, list)
    unit = tuple(old_entry_from_json(field, e,
                                     f"{_child(path, 'unit')}[{i}]")
                 for i, e in enumerate(unit_raw))
    return GradedAlgebra(group, window, k, field, comps, mult, unit)


def old_module_from_json(obj, path=""):
    algebra = old_algebra_from_json(_get(obj, "algebra", path),
                                    _child(path, "algebra"))
    window = _pair(_get(obj, "window", path), _child(path, "window"))
    comps = old_components_from_json(_get(obj, "components", path),
                                     _child(path, "components"))
    action = old_maps_from_json(_get(obj, "action", path),
                                _child(path, "action"), algebra.field,
                                obj["algebra"])
    return GradedModule(algebra, window, comps, action)


# ---------------------------------------------------------------------------
# the row-level writer and the lazy-path reader against the oracles


def _with_fractions(m, q):
    """m with every stored value times q: the same shapes, and Fraction
    entries over Q (not a module any more, which the writer never asks)."""
    return GradedModule(m.over, m.window, m.components, {
        key: {p: {c: integral(v * q) for c, v in row.items()}
              for p, row in rows.items()}
        for key, rows in m._table().items()})


@st.composite
def graded_objects(draw, field=None):
    """A hom_pairs() module, its algebra, a killed or regraded algebra, or
    a module with Fraction entries, over the given field or any of
    FIELDS."""
    m = draw(hom_pairs(field))[0]
    kind = draw(st.sampled_from(["module", "algebra", "killed", "regraded",
                                 "fractions"]))
    if kind == "module":
        return m
    if kind == "algebra":
        return m.over
    if kind == "fractions":
        return _with_fractions(m, draw(rationals.filter(
            lambda q: q.denominator > 1))) if m.field is QQ else m
    n = draw(st.integers(2, 4))
    u = DegreeSet.periodic(n, (0, 1))
    a = z_algebra(draw(st.sampled_from(["poly", "loops", "cycle"])),
                  2 * n + 1, field or draw(st.sampled_from(FIELDS)))
    b = kill_support_algebra(a, u)
    return b if kind == "killed" else regrade_algebra(
        b, delta_map(u, 0, (0, 5)))  # onto the 6 degrees of U in 0..2n+1


def _clear(tree):
    """Empty every list and dict of a JSON tree in place."""
    for v in tree.values() if isinstance(tree, dict) else tree:
        if isinstance(v, (dict, list)):
            _clear(v)
    tree.clear()


@given(graded_objects(), st.data())
def test_dump_json_writes_graded_objects_as_the_old_writer(x, data):
    want = old_to_json(x)
    assert dump_json(x) == json.dumps(want, indent=2, sort_keys=True)
    to_json = module_to_json if isinstance(x, GradedModule) \
        else algebra_to_json
    got = to_json(x)
    assert json.dumps(got) == json.dumps(want)  # key order included
    _clear(got)  # shares nothing with the next call's tree
    assert json.dumps(to_json(x)) == json.dumps(want)
    # nested at other indents, next to a second object and a plain value
    other = data.draw(graded_objects())
    tree = {"x": [x, {"y": other}], "z": x, "w": [1, "a"]}
    assert dump_json(tree) == json.dumps(tree, indent=2, sort_keys=True,
                                         default=old_to_json)


@given(graded_objects())
def test_matrix_to_json_matches_the_old_writer(x):
    for key in x._table():
        m = x._map_matrix(*key)
        assert _rows_to_json(m.field, m.nz, m.cols) == old_to_json(m)


# rational strings in exponent form, which both readers refuse: Fraction
# would expand them to 10**exponent
EXPONENTS = ["1e3", "2E5", "1e999999"]

# single-entry mutations: a value replaced, a key or element removed, or a
# list element repeated
junk = st.sampled_from([
    None, True, False, -1, 0, 1, 2, 7, 10 ** 30, 1.5, "0", "1", "-1/2",
    "4/2", "3/", "1/0", "0.25", *EXPONENTS, "x", "Q", "GF(p)", "GF(7)",
    [], {}, [0],
    [0, 1], [[0]], {"kind": "Z"}])


def _locations(tree):
    """(container, key) of every value in a JSON tree."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) \
            else range(len(node)) if isinstance(node, list) else ()
        for k in keys:
            out.append((node, k))
            stack.append(node[k])
    return out


def _mutate(data, tree):
    where, key = data.draw(st.sampled_from(_locations(tree)))
    how = data.draw(st.sampled_from(["replace", "remove", "repeat"]))
    if how == "replace":
        where[key] = data.draw(junk)
    elif how == "remove":
        del where[key]
    elif isinstance(where, list):
        where.append(json.loads(json.dumps(where[key])))
    return tree


def _outcome(read, obj):
    try:
        return read(obj)
    except Exception as e:
        return (type(e), str(e), getattr(e, "path", None))


# each way out of the map reader's one-pass read: the item is read again
# key by key, to the same error or, for an int over Q or a new rational
# string, to the same matrix; "bool tag" and "duplicate degree" break a
# component, whose only read is key by key, and must raise the same error
FAST_PATH_EXITS = ["bool entry", "non-int after ints", "int over Q",
                   "new rational", "exponent", "short later row",
                   "duplicate pair",
                   "field keys", "rows not pairs", "bool tag",
                   "duplicate degree"]


def _leave_the_fast_path(data, tree, how):
    """tree with one map or component item changed as `how` says."""
    trees = [tree, tree["algebra"]] if "algebra" in tree else [tree]
    maps = [item for t in trees for item in t.get("action", t.get("mult"))]
    comps = [item for t in trees for item in t["components"]]
    if how in ("bool tag", "duplicate degree"):
        item = data.draw(st.sampled_from(comps))
        if how == "duplicate degree":
            data.draw(st.sampled_from(trees))["components"].append(
                json.loads(json.dumps(item)))
        elif item["dim"]:
            item[data.draw(st.sampled_from(["left_tags", "right_tags"]))][
                data.draw(st.integers(0, item["dim"] - 1))] = True
        return tree
    if not maps:
        return tree
    item = data.draw(st.sampled_from(maps))
    mat = item["matrix"]
    rows = mat["entries"]
    full = [row for row in rows if row]
    if how == "duplicate pair":
        owner = next(t for t in trees
                     if any(m is item for m in t.get("action", t.get("mult"))))
        owner.get("action", owner.get("mult")).append(
            json.loads(json.dumps(item)))
    elif how == "field keys":
        mat.update(data.draw(st.sampled_from(
            [{"field": "Q"}, {"p": 103}, {"field": "GF(p)", "p": 2}])))
    elif how == "rows not pairs":
        rows.append(list(rows[-1]) if rows else [])
        mat["rows"] += 1
    elif how == "short later row" and full:
        full[-1].pop()
    elif full:
        values = {"bool entry": st.booleans(),
                  "non-int after ints": st.sampled_from([1.5, None, [], "x"]),
                  "int over Q": st.integers(-3, 3),
                  "new rational": st.sampled_from(["17/19", "-23", "0",
                                                   "1/0", *EXPONENTS]),
                  "exponent": st.sampled_from(EXPONENTS)}[how]
        data.draw(st.sampled_from(full))[-1] = data.draw(values)
    return tree


@settings(max_examples=300)
@given(graded_objects(), st.data())
def test_readers_match_the_old_reader_on_mutated_json(x, data):
    tree = old_to_json(x)
    how = data.draw(st.sampled_from(["as written", "mutated"]
                                    + FAST_PATH_EXITS))
    if how == "mutated":
        tree = _mutate(data, tree)
    elif how != "as written":
        tree = _leave_the_fast_path(data, tree, how)
    _assert_read_as_the_old_reader(x, tree)


@settings(max_examples=40)
@given(graded_objects(QQ), st.data())
def test_readers_refuse_exponents_over_q_as_the_old_reader_does(x, data):
    # over Q a new rational string is parsed where the one-pass read meets
    # it; an exponent form must be refused there as the old reader does
    assert x.field is QQ
    tree = _leave_the_fast_path(data, old_to_json(x), "exponent")
    _assert_read_as_the_old_reader(x, tree)


def _assert_read_as_the_old_reader(x, tree):
    module = isinstance(x, GradedModule)
    read, old_read = ((module_from_json, old_module_from_json) if module
                      else (algebra_from_json, old_algebra_from_json))
    got, want = _outcome(read, tree), _outcome(old_read, tree)
    if isinstance(want, tuple):
        assert got == want
    else:
        same = modules_equal if module else algebras_equal
        assert not isinstance(got, tuple) and same(got, want)
        assert got.field is want.field
