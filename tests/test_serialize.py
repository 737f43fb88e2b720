"""JSON round trips and schema validation paths."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedsupport.constructions import (
    present_module,
    quiver_algebra,
    truncated_polynomial,
    zero_sum_pair_algebra,
)
from gradedsupport.errors import SchemaError
from gradedsupport.exactlin import GF, Matrix, QQ
from gradedsupport.graded_core import algebras_equal, modules_equal
from gradedsupport.regrade_maps import WindowedMap
from gradedsupport.serialize import (
    algebra_from_json,
    algebra_to_json,
    degree_set_from_json,
    degree_set_to_json,
    dump_json,
    field_from_json,
    group_from_json,
    group_to_json,
    matrix_from_json,
    matrix_to_json,
    module_from_json,
    module_to_json,
    windowed_map_from_json,
    windowed_map_to_json,
)
from gradedsupport.subsets import DegreeSet, Z, Zn, same_set

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
    m = Matrix.from_rows(QQ, entries, 3)
    assert matrix_from_json(matrix_to_json(m)) == m


def test_rational_entries_serialize_as_strings():
    m = Matrix.from_rows(QQ, [[Fraction(-1, 2), Fraction(3)]], 2)
    obj = matrix_to_json(m)
    assert obj["entries"] == [["-1/2", "3"]]


def test_integral_rational_entries_load_as_ints():
    obj = {"field": "Q", "rows": 1, "cols": 5,
           "entries": [["4/2", "1/2", "3", 7, "0"]]}
    [row] = matrix_from_json(obj).nz
    assert row == {0: 2, 1: Fraction(1, 2), 2: 3, 3: 7}
    assert [type(row[j]) for j in range(4)] == [int, Fraction, int, int]
    assert matrix_to_json(matrix_from_json(obj))["entries"] == [
        ["2", "1/2", "3", "7", "0"]]


def test_prime_field_matrices_round_trip():
    f = GF(7)
    m = Matrix.from_rows(f, [[f.from_int(3), f.from_int(6)]], 2)
    obj = matrix_to_json(m)
    assert obj["field"] == "GF(p)" and obj["p"] == 7
    assert matrix_from_json(obj) == m


def test_bad_rational_string_names_the_entry():
    obj = {"field": "Q", "rows": 1, "cols": 1, "entries": [["3/"]]}
    with pytest.raises(SchemaError) as e:
        matrix_from_json(obj)
    assert e.value.path == "entries[0][0]"


def test_short_row_names_the_row():
    obj = {"field": "Q", "rows": 1, "cols": 2, "entries": [["1"]]}
    with pytest.raises(SchemaError) as e:
        matrix_from_json(obj)
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
