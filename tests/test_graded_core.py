"""Killing, shifting, torsion, hom spaces and regrading on small algebras."""

import inspect
import itertools
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from gradedsupport.errors import (GradingViolationError, PreconditionError,
                                  ShapeError)
from gradedsupport.exactlin import GF, LabeledSpace, Matrix, QQ, Subspace
from gradedsupport.graded_core import (
    GradedAlgebra,
    GradedModule,
    algebras_equal,
    closure_under_action,
    generated_submodule,
    hom_space_basis,
    hom_space_dim,
    is_cogenerated_in,
    is_generated_in,
    is_generated_in_degrees_01,
    kill_support_algebra,
    kill_support_module,
    modules_equal,
    preimage_subspace,
    quotient_with_maps,
    regrade_algebra,
    regrade_module,
    shift_module,
    submodule_from_subspaces,
    torsion_quotient,
    torsion_spaces,
    torsion_submodule,
    un_regrade_module,
    validate_algebra,
    validate_module,
)
from gradedsupport import constructions, graded_core
from gradedsupport.constructions import (
    free_module,
    group_algebra,
    present_module,
    projective_module,
    quiver_algebra,
    regular_module,
    truncated_polynomial,
)
from gradedsupport.regrade_maps import (WindowedMap, delta_map,
                                        is_pseudomorphism)
from gradedsupport.serialize import dump_json
from gradedsupport.subsets import DegreeSet, Z, Zn


# ---------------------------------------------------------------------------
# oracles


def ring_supporting_by_scan(n, residues):
    members = set(r % n for r in residues)
    if 0 not in members:
        return False
    for a, b, c in itertools.product(members, repeat=3):
        if (a + b + c) % n in members:
            if ((a + b) % n in members) != ((b + c) % n in members):
                return False
    return True


def torsion_dims_by_closure(m, s):
    """Per-degree span of vectors whose generated submodule misses S."""
    f = m.over.field
    assert f is GF(2)
    out = {}
    for d in m.degrees():
        dim = m.component(d).dim
        good = []
        for bits in range(1, 2 ** dim):
            vec = [f.from_int(bits >> i & 1) for i in range(dim)]
            closed = closure_under_action(m, {d: [vec]})
            if all(not s.contains(t) or not sp.rows for t, sp in closed.items()):
                good.append(vec)
        out[d] = len(Subspace.from_vectors(f, dim, good).rows)
    return out


def hom_dim_by_enumeration(m, n):
    """Count all degreewise maps commuting with the action, over GF(2)."""
    f = m.over.field
    assert f is GF(2)
    degrees = sorted(set(m.degrees()) & set(n.degrees()))
    slots = [(d, m.component(d).dim, n.component(d).dim) for d in degrees]
    total = sum(a * b for _, a, b in slots)
    assert total <= 14, "enumeration oracle kept intentionally tiny"
    count = 0
    for bits in range(2 ** total):
        mats = {}
        off = 0
        for d, a, b in slots:
            rows = []
            for _ in range(a):
                row = []
                for _ in range(b):
                    row.append(f.from_int(bits >> off & 1))
                    off += 1
                rows.append(row)
            mats[d] = Matrix(f, a, b, rows)
        if _commutes(m, n, mats):
            count += 1
    assert count == (count & -count), "solution set must be a subspace"
    return count.bit_length() - 1


def _commutes(m, n, mats):
    # missing actions and missing components both read as the zero map
    for s in m.degrees():
        for u in m.over.degrees():
            t = s + u
            act_m = m.action_matrix(s, u)
            act_n = n.action_matrix(s, u)
            ft = mats.get(t)
            fs = mats.get(s)
            lhs = act_m @ ft if act_m is not None and ft is not None else None
            rhs = fs @ act_n if fs is not None and act_n is not None else None
            if lhs is None and rhs is None:
                continue
            if lhs is None or rhs is None:
                if (lhs or rhs).is_zero():
                    continue
                return False
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# validation


def test_builders_validate():
    assert validate_algebra(group_algebra(5)).holds
    assert validate_algebra(truncated_polynomial(4)).holds


def test_validate_catches_broken_associativity():
    a = group_algebra(3)
    f = a.field
    twist = Matrix(f, 1, 1, [[f.from_int(2)]])
    bad = GradedAlgebra(a.group, a.window, a.k, a.field, a.components,
                        {**a.mult, (1, 2): twist}, a.unit)
    verdict = validate_algebra(bad)
    assert not verdict.holds
    assert verdict.witness[0] == "assoc"


def test_validate_catches_broken_unit():
    a = group_algebra(3)
    bad = GradedAlgebra(a.group, a.window, a.k, a.field, a.components,
                        a.mult, (a.field.from_int(2),))
    verdict = validate_algebra(bad)
    assert not verdict.holds
    assert verdict.witness[0].startswith("unit")


def test_validate_module_catches_a_tag_escape():
    from gradedsupport.constructions import quiver_algebra
    from gradedsupport.exactlin import LabeledSpace
    a = quiver_algebra(2, [(0, 1)], [], 1)
    f = a.field
    o, z = f.one(), f.zero()
    comps = {0: LabeledSpace.module_component((0, 1))}
    good = GradedModule(a, (0, 0), comps,
                        {(0, 0): Matrix(f, 2, 2, [(o, z), (z, o)])})
    assert validate_module(good).holds
    # x_0 * e_0 = x_1, but x_1 carries right tag 1, not e_0's tag 0
    bad = GradedModule(a, (0, 0), comps,
                       {(0, 0): Matrix(f, 2, 2, [(z, o), (z, o)])})
    verdict = validate_module(bad)
    assert not verdict.holds
    assert verdict.witness == ("tags", 0, 0, 0, 0, 1)
    assert verdict.reason == "action escapes its tag block"


def test_a_checked_dict_row_keeps_its_nonzero_entries_only():
    from gradedsupport.exactlin import LabeledSpace
    a = quiver_algebra(2, [(0, 1), (1, 0)], [], 3, GF(101))
    comps = {0: LabeledSpace.module_component((0,)),
             1: LabeledSpace.module_component((1, 0))}
    action = {(0, 0): {(0, 0): {0: 1}},
              (1, 0): {(0, 1): {0: 1}, (1, 0): {1: 1}}}
    modules = [GradedModule(a, (0, 1), comps,
                            {**action, (0, 1): {(0, 0): row}})
               for row in ({0: 1, 1: 0}, {0: 1})]
    # the explicit zero at column 1, right tag 0, is no entry: no escape
    assert validate_module(modules[0]).holds
    assert modules[0]._maps == modules[1]._maps
    t = truncated_polynomial(3)
    comp = {0: LabeledSpace.module_component((0,))}
    as_dict = GradedModule(t, (0, 0), comp, {(0, 0): {(0, 0): {0: 0}}})
    as_matrix = GradedModule(t, (0, 0), comp,
                             {(0, 0): Matrix(t.field, 1, 1, [(0,)])})
    assert as_dict._maps == {(0, 0): {}}
    assert modules_equal(as_dict, as_matrix)


def test_validate_module_catches_a_broken_unit():
    a = truncated_polynomial(2)
    m = regular_module(a)
    twice = Matrix(a.field, 1, 1, [[a.field.from_int(2)]])
    bad = GradedModule(a, m.window, m.components, {**m.action, (0, 0): twice})
    verdict = validate_module(bad)
    assert not verdict.holds
    assert verdict.witness == ("unit", 0, 0)


def test_validate_module_catches_a_non_associative_action():
    a = truncated_polynomial(3)
    m = regular_module(a)
    twice = Matrix(a.field, 1, 1, [[a.field.from_int(2)]])
    # x acting on x gives 2x^2, while 1 acting on x * x gives x^2
    bad = GradedModule(a, m.window, m.components, {**m.action, (1, 1): twice})
    verdict = validate_module(bad)
    assert not verdict.holds
    assert verdict.witness == ("assoc", (0, 1, 1), (0, 0, 0))


# ---------------------------------------------------------------------------
# killing supports


def test_kill_associativity_iff_ring_supporting():
    # exhaustive over K[Z_n]; the scan over triples is the definition
    for n in range(1, 7):
        a = group_algebra(n)
        for mask in range(2 ** (n - 1)):
            residues = (0,) + tuple(i for i in range(1, n)
                                    if mask >> (i - 1) & 1)
            u = DegreeSet.periodic(n, residues, Zn(n))
            killed = kill_support_algebra(a, u)
            assert (validate_algebra(killed).holds
                    == ring_supporting_by_scan(n, residues))


def test_kill_known_witness():
    a = group_algebra(5)
    j = DegreeSet.periodic(5, (0, 1, 2, 3), Zn(5))
    verdict = validate_algebra(kill_support_algebra(a, j))
    assert not verdict.holds
    kind, (g, h, l), _ = verdict.witness
    assert kind == "assoc"
    # the triple really breaks associativity after killing: exactly one
    # of the two bracketings passes through a killed degree
    inside = lambda x: j.contains(x)
    assert inside(g) and inside(h) and inside(l) and inside(g + h + l)
    assert inside(g + h) != inside(h + l)


def test_kill_keeps_exactly_the_supported_components():
    a = truncated_polynomial(7, 1)
    u = DegreeSet.periodic(3, (0, 1), Z)
    b = kill_support_algebra(a, u)
    expected = {d: c.dim for d, c in a.components.items() if u.contains(d)}
    assert {d: c.dim for d, c in b.components.items()} == expected
    for g, h in b.mult:
        assert u.contains(g) and u.contains(h) and u.contains(g + h)
        assert b.mult_matrix(g, h) == a.mult_matrix(g, h)
    assert b.mult_matrix(1, 1) is None   # 2 lies outside the support
    assert a.mult_matrix(1, 1) is not None


def test_kill_module_restricts_to_s_degrees():
    a = truncated_polynomial(7, 1)
    u = DegreeSet.periodic(3, (0, 1), Z)
    s = u.translate(0)
    m = regular_module(a)
    x = kill_support_module(m, s, u)
    assert {d: c.dim for d, c in x.components.items()} \
        == {d: c.dim for d, c in m.components.items() if s.contains(d)}
    for (t, w), mat in x.action.items():
        assert s.contains(t) and u.contains(w) and s.contains(t + w)
        assert mat == m.action_matrix(t, w)


def test_kill_module_requires_a_modular_pair():
    a = truncated_polynomial(7, 1)
    s = DegreeSet.periodic(3, (0, 1, 2), Z)
    u = DegreeSet.periodic(3, (0, 1), Z)
    with pytest.raises(PreconditionError):
        kill_support_module(regular_module(a), s, u)


def test_kill_module_refuses_an_algebra_killed_from_elsewhere():
    a = truncated_polynomial(3)
    m = regular_module(a)
    full = DegreeSet.full()
    u = DegreeSet.periodic(3, (0, 1), Z)
    other = quiver_algebra(2, [(0, 1), (1, 0)], [], 3, GF(101))
    for wrong in (kill_support_algebra(other, full),  # another base
                  kill_support_algebra(a, u),  # another support
                  a):  # no ancestry at all
        with pytest.raises(PreconditionError,
                           match="not the module's algebra killed to U"):
            kill_support_module(m, full, full, wrong)
    # an equal base and the same set in another form are the same algebra
    b = kill_support_algebra(truncated_polynomial(3),
                             DegreeSet.periodic(2, (0, 1)))
    assert b.base is not a and b.support != full
    assert modules_equal(kill_support_module(m, full, full, b),
                         kill_support_module(m, full, full))


# ---------------------------------------------------------------------------
# shifting


def test_shift_round_trip_and_dims():
    m = regular_module(truncated_polynomial(4))
    for g in (-2, 1, 3):
        sh = shift_module(m, g)
        assert {d + g: c.dim for d, c in m.components.items()} \
            == {d: c.dim for d, c in sh.components.items()}
        assert modules_equal(shift_module(sh, -g), m)


def test_shift_wraps_over_finite_groups():
    m = regular_module(group_algebra(4))
    sh = shift_module(m, 3)
    assert sorted(sh.degrees()) == [0, 1, 2, 3]
    assert modules_equal(shift_module(sh, 1), m)


def test_cyclic_degree_aliases_are_refused():
    # over Z/3 the degrees 3 and 0 name one component, and the pairs (3, 0)
    # and (0, 0) one map: the second entry would silently replace the first
    a = group_algebra(3, GF(5))
    f = a.field
    comps = dict(a.components)
    comps[3] = comps[0]
    with pytest.raises(PreconditionError, match="two components at degree 0"):
        GradedAlgebra(a.group, a.window, 1, f, comps, a.mult, a.unit)
    mult = dict(a.mult)
    mult[(3, 0)] = Matrix.zero(f, 1, 1)
    with pytest.raises(PreconditionError,
                       match=r"two mult maps at degree \(0, 0\) of Z/3"):
        GradedAlgebra(a.group, a.window, 1, f, a.components, mult, a.unit)
    m = regular_module(a)
    action = dict(m.action)
    action[(1, 5)] = action[(1, 2)]
    with pytest.raises(PreconditionError, match="two action maps"):
        GradedModule(a, m.window, m.components, action)
    # distinct residues are untouched
    assert algebras_equal(
        GradedAlgebra(a.group, a.window, 1, f, a.components,
                      {(g + 3, h): mat for (g, h), mat in a.mult.items()},
                      a.unit), a)


def test_two_components_at_one_degree_are_refused_over_z():
    # int() reads 1 and "1" as one degree: over Z the later component
    # silently replaced the earlier, where Z/n refused the same input
    c1 = LabeledSpace.module_component((0,))
    c2 = LabeledSpace.module_component((0, 0))
    for a in (truncated_polynomial(3), group_algebra(3)):
        with pytest.raises(PreconditionError,
                           match=f"two components at degree 1 of {a.group!r}$"):
            GradedModule(a, (0, 2), {1: c1, "1": c2}, {})


def test_pair_keyed_tables_are_checked():
    # the module vector x_0 has right tag 0, so of e_0, e_1 in A_0 only
    # (0, 0) is a matched pair
    a = quiver_algebra(2, [(0, 1), (1, 0)], [], 2)
    one = a.field.one()
    comps = {0: LabeledSpace.module_component((0,))}
    good = GradedModule(a, (0, 0), comps, {(0, 0): {(0, 0): {0: one}}})
    assert good.action == {(0, 0): Matrix.identity(a.field, 1)}
    for rows, what in [({(0, 1): {0: one}}, r"keys \(0, 1\), not a matched"),
                       ({(1, 0): {0: one}}, r"keys \(1, 0\), not a matched"),
                       ({(-1, 0): {0: one}}, r"keys \(-1, 0\), not a"),
                       ({(0, 2): {0: one}}, r"keys \(0, 2\), not a matched"),
                       ({(0, 0): {1: one}}, "a column beyond the 1 of its")]:
        with pytest.raises(ShapeError, match=what):
            GradedModule(a, (0, 0), comps, {(0, 0): rows})
    # the algebra's own table is checked the same way
    mult = dict(a._maps)
    mult[(1, 1)] = {a.pairs(1, 1)[0]: {a.component(2).dim: one}}
    with pytest.raises(ShapeError, match=r"mult\(1,1\) has a column"):
        GradedAlgebra(Z, a.window, 2, a.field, a.components, mult, a.unit)


def test_a_negative_column_is_refused_like_one_past_the_target():
    # the dense view would read column -1 as the last column of the target
    a = quiver_algebra(2, [(0, 1), (1, 0)], [], 2)
    one = a.field.one()
    comps = {0: LabeledSpace.module_component((0,)),
             1: LabeledSpace.module_component((1,))}
    for col in (-1, 1):
        action = {(0, 0): {(0, 0): {0: one}},
                  (0, 1): {(0, 0): {col: one}}}
        with pytest.raises(ShapeError, match=r"action\(0,1\) has a column "
                                             "beyond the 1 of its target"):
            GradedModule(a, (0, 1), comps, action)
    mult = dict(a._maps)
    mult[(1, 1)] = {a.pairs(1, 1)[0]: {-1: one}}
    with pytest.raises(ShapeError, match=r"mult\(1,1\) has a column"):
        GradedAlgebra(Z, a.window, 2, a.field, a.components, mult, a.unit)


# ---------------------------------------------------------------------------
# torsion


def test_torsion_matches_closure_oracle():
    f = GF(2)
    s = DegreeSet.periodic(3, (0, 1), Z)
    a = truncated_polynomial(4, 1, field=f)
    cases = [
        present_module(a, [0], [(3, [f.one()])]),
        regular_module(a),
        present_module(a, [0, 1], [(2, [f.one(), f.one()])]),
        shift_module(present_module(a, [0], [(3, [f.one()])]), 3),
    ]
    for m in cases:
        expected = torsion_dims_by_closure(m, s)
        got = {d: len(sp.rows) for d, sp in torsion_spaces(m, s).items()}
        assert got == expected


def test_torsion_quotient_is_torsion_free_and_cogenerated():
    f = GF(2)
    s = DegreeSet.periodic(3, (0, 1), Z)
    a = truncated_polynomial(4, 1, field=f)
    m = present_module(a, [0], [(3, [f.one()])])
    assert {d: len(sp.rows) for d, sp in torsion_spaces(m, s).items()} \
        == {0: 0, 1: 0, 2: 1}
    q = torsion_quotient(m, s)
    assert all(not sp.rows for sp in torsion_spaces(q, s).values())
    assert is_cogenerated_in(q, s).holds
    assert {d: c.dim for d, c in q.components.items()} == {0: 1, 1: 1}


def test_torsion_submodule_is_the_socle_off_s():
    # K[x]/(x^6): x^5 sits at 5, off S, and kills x; x^2 does not, as
    # x^2 * x = x^3 lands at 3 in S
    f = GF(3)
    s = DegreeSet.periodic(3, (0, 1), Z)
    m = regular_module(truncated_polynomial(6, 1, field=f))
    t = torsion_submodule(m, s)
    assert validate_module(t).holds
    assert t.dims() == {5: 1}
    assert t.action_matrix(5, 0) == Matrix.identity(f, 1)
    verdict = is_cogenerated_in(m, s)
    assert not verdict.holds and verdict.witness == ((5, 1),)
    assert is_cogenerated_in(torsion_quotient(m, s), s).holds


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_dims_of_truncated_polynomial_modules():
    m = regular_module(truncated_polynomial(3))
    assert hom_space_dim(m, m) == 1
    assert hom_space_dim(shift_module(m, 1), m) == 1
    assert hom_space_dim(m, shift_module(m, 1)) == 0


def test_hom_dim_matches_enumeration_oracle():
    f = GF(2)
    a = truncated_polynomial(3, 1, field=f)
    m1 = regular_module(a)
    m2 = shift_module(m1, 1)
    m3 = present_module(a, [0], [(2, [f.one()])])
    for x, y in itertools.product([m1, m2, m3], repeat=2):
        assert hom_space_dim(x, y) == hom_dim_by_enumeration(x, y)


def test_hom_basis_elements_commute_with_the_action():
    f = GF(2)
    a = truncated_polynomial(4, 1, field=f)
    m = regular_module(a)
    n = present_module(a, [0], [(3, [f.one()])])
    basis = hom_space_basis(m, n)
    assert len(basis) == hom_space_dim(m, n)
    for mats in basis:
        assert _commutes(m, n, mats)


@pytest.mark.parametrize("window", [(0, 0), (0, 2)])
def test_hom_out_of_a_simple_ignores_its_window(window):
    # S sits in degree 0 and x kills it.  A degree-0 map S -> A sends s to
    # c * 1, and f(s) x = c x must vanish because s x = 0, so c = 0.  The
    # equation lives in degree 1, outside S's narrow window, and still counts
    from gradedsupport.exactlin import LabeledSpace
    a = truncated_polynomial(3)
    s = GradedModule(a, window, {0: LabeledSpace.untagged(1)},
                     {(0, 0): Matrix(QQ, 1, 1, [(QQ.one(),)])})
    assert validate_module(s).holds
    assert hom_space_dim(s, regular_module(a)) == 0


# ---------------------------------------------------------------------------
# submodules and quotients


def test_generated_submodule_of_regular_is_everything():
    m = regular_module(truncated_polynomial(4))
    assert modules_equal(generated_submodule(m, [0]), m)


def test_generated_submodule_proper_part():
    a = truncated_polynomial(4)
    m = regular_module(a)
    sub = generated_submodule(m, [2])
    assert {d: c.dim for d, c in sub.components.items()} == {2: 1, 3: 1}
    assert is_generated_in(sub, [2])


def test_submodule_from_subspaces_requires_closure():
    a = truncated_polynomial(4)
    m = regular_module(a)
    f = a.field
    open_spaces = {1: Subspace.from_vectors(f, 1, [[f.one()]])}
    with pytest.raises(PreconditionError):
        submodule_from_subspaces(m, open_spaces)


def test_quotient_with_maps_coordinate_contract():
    a = truncated_polynomial(4)
    f = a.field
    m = regular_module(a)
    spaces = {2: Subspace.from_vectors(f, 1, [[f.one()]]),
              3: Subspace.from_vectors(f, 1, [[f.one()]])}
    q, project, keep = quotient_with_maps(m, spaces)
    assert {d: c.dim for d, c in q.components.items()} == {0: 1, 1: 1}
    for d in q.degrees():
        assert list(keep[d]) == sorted(keep[d])
        # the class of the k-th kept ambient coordinate is the k-th basis
        # vector of the quotient
        for k, idx in enumerate(keep[d]):
            unit = [f.zero()] * m.component(d).dim
            unit[idx] = f.one()
            out = list(project(d, unit))
            expected = [f.zero()] * q.component(d).dim
            expected[k] = f.one()
            assert out == expected


def test_class_tables_are_shared_and_left_unchanged():
    # torsion_spaces and quotient_with_maps both read W's class tables,
    # which are shared with W: neither may write into them
    a = quiver_algebra(1, [(0, 0), (0, 0)], [], 4)
    f = a.field
    m = regular_module(a)
    closed = closure_under_action(m, {1: [[f.one(), f.from_int(2)]]})
    tables = {d: w.classes() for d, w in closed.items()}
    before = {d: {p: dict(c) for p, c in t.items()} for d, t in tables.items()}
    assert any(c for t in before.values() for c in t.values())
    torsion_spaces(m, DegreeSet.periodic(2, {0}), closed)
    quotient_with_maps(m, closed)
    for d, w in closed.items():
        assert w.classes() is tables[d]
        assert tables[d] == before[d]


def test_quotient_builds_action_matrices_only_for_kept_targets(monkeypatch):
    a = truncated_polynomial(4)
    f = a.field
    m = regular_module(a)
    spaces = {2: Subspace.from_vectors(f, 1, [[f.one()]]),
              3: Subspace.from_vectors(f, 1, [[f.one()]])}
    calls = []
    read = GradedModule._map_rows

    def counted(self, d, u):
        if self is m:
            calls.append((d, u))
        return read(self, d, u)

    monkeypatch.setattr(GradedModule, "_map_rows", counted)
    q, _, _ = quotient_with_maps(m, spaces)
    # no map is built until one is read
    assert calls == []
    # the quotient lives in degrees 0 and 1: forced, only 0+0, 0+1 and 1+0
    # land there, and the stored rows of each of those maps are walked once
    keys = list(q._table())
    assert sorted(calls) == sorted(keys) == [(0, 0), (0, 1), (1, 0)]
    # every map is kept: a second read walks nothing
    calls.clear()
    assert list(q._table()) == keys
    assert [q._rows(*key) for key in keys] == list(q._table().values())
    assert dump_json(q) and q.action and calls == []


def test_quotient_and_submodule_read_tag_blocks_without_eliminating(
        monkeypatch):
    import gradedsupport.exactlin as exactlin
    import gradedsupport.graded_core as graded_core
    f = GF(3)
    m = regular_module(quiver_algebra(2, [(0, 1), (1, 0)], [], 3, f))
    # the closure of a vector mixing both tags: blocks of both tags at
    # degrees 1, 2 and 3
    spaces = closure_under_action(m, {1: [[f.one(), f.one()]]})
    calls = []
    # every span, nullspace and rank starts with forward elimination
    elim = exactlin._forward

    def counted(*args):
        calls.append(args)
        return elim(*args)

    # graded_core holds its own name for it, which _hom_system calls
    monkeypatch.setattr(exactlin, "_forward", counted)
    monkeypatch.setattr(graded_core, "_forward", counted)
    q, _, keep = quotient_with_maps(m, spaces)
    sub = submodule_from_subspaces(m, spaces)
    assert calls == []
    assert q.dims() == {0: 2} and keep[0] == (0, 1)
    assert sub.dims() == {1: 2, 2: 2, 3: 2}


def test_closure_spans_each_degree_once(monkeypatch):
    a = truncated_polynomial(4)
    f = a.field
    m = free_module(a, [0, 0])
    calls = []
    span = Subspace.from_vectors

    def counted(cls, field, ambient, vectors):
        calls.append(ambient)
        return span(field, ambient, vectors)

    monkeypatch.setattr(Subspace, "from_vectors", classmethod(counted))
    spaces = closure_under_action(m, {0: [[f.one(), f.zero()]]})
    assert len(calls) == len(m.degrees())
    assert [spaces[d].dim for d in m.degrees()] == [1, 1, 1, 1]


def test_preimage_subspace_membership():
    f = GF(3)
    mat = Matrix(f, 3, 2, [[f.from_int(e) for e in row]
                           for row in [[1, 1], [0, 1], [2, 0]]])
    w = Subspace.from_vectors(f, 2, [[f.one(), f.zero()]])
    pre = preimage_subspace(mat, w)
    from test_exactlin_oracles import apply_row
    for bits in itertools.product(range(3), repeat=3):
        vec = [f.from_int(b) for b in bits]
        assert pre.contains_vector(vec) \
            == w.contains_vector(apply_row(f, vec, mat))


# ---------------------------------------------------------------------------
# regrading


def _compressed_setup():
    a = truncated_polynomial(7, 1)
    u = DegreeSet.periodic(3, (0, 1), Z)
    b = kill_support_algebra(a, u)
    phi = delta_map(u, 0, (0, 5))
    return a, u, b, phi


def test_regrade_compresses_the_support():
    a, u, b, phi = _compressed_setup()
    bt = regrade_algebra(b, phi)
    assert validate_algebra(bt).holds
    assert {d: c.dim for d, c in bt.components.items()} \
        == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    for sigma, tau in bt.mult:
        assert bt.mult_matrix(sigma, tau) \
            == b.mult_matrix(phi(sigma), phi(tau))


def test_regrade_checks_the_map_once_per_call(monkeypatch):
    import gradedsupport.regrading as regrading
    a, u, b, phi = _compressed_setup()
    x = kill_support_module(regular_module(a), u, u, b)
    calls = []

    def counted(f):
        calls.append(f)
        return is_pseudomorphism(f)

    monkeypatch.setattr(regrading, "is_pseudomorphism", counted)
    regrade_algebra(b, phi)
    assert len(calls) == 1
    regrade_module(x, phi)  # regrades the algebra too
    assert len(calls) == 2


def test_regrade_rejects_support_outside_the_image():
    u = DegreeSet.periodic(3, (0, 1), Z)
    phi = delta_map(u, 0, (0, 5))
    with pytest.raises(PreconditionError):
        regrade_algebra(truncated_polynomial(3), phi)


def test_regrade_module_round_trip():
    a, u, b, phi = _compressed_setup()
    s = u
    x = kill_support_module(regular_module(a), s, u, b)
    v = regrade_module(x, phi, 0)
    back = un_regrade_module(v, phi, 0, b)
    assert modules_equal(back, x)


def _octic_setup():
    """A = K[x]/(x^8), U = 3Z + {0, 1}, A_U, the regular module of A killed
    to U, and delta on (0, 5), which sends 0..5 onto 0, 1, 3, 4, 6, 7."""
    a, u = truncated_polynomial(8), DegreeSet.periodic(3, (0, 1), Z)
    b = kill_support_algebra(a, u)
    x = kill_support_module(regular_module(a), u, u, b)
    return a, u, b, x, delta_map(u, 0, (0, 5))


def _rebuilt(a, window=None, unit=None, rows=lambda key, rows: rows):
    """a through the checked constructor, so every row dict is a copy, with
    the window, the unit or a map's rows (None drops the map) replaced."""
    table = {key: got for key, r in a._table().items()
             if (got := rows(key, r)) is not None}
    return GradedAlgebra(a.group, window or a.window, a.k, a.field,
                         a.components, table, unit or a.unit)


def test_regrade_module_refuses_an_algebra_that_is_not_the_regrading():
    _, _, b, x, phi = _octic_setup()
    with pytest.raises(PreconditionError, match="its regrading"):
        regrade_module(x, phi, algebra=truncated_polynomial(3, window=(0, 5)))
    bt = regrade_algebra(b, phi)
    f = bt.field
    # near misses that each differ from bt in one part: b's regrading
    # along the identity, the window, a component, the unit, a row, a
    # nonzero map dropped, and a nonzero map (1, 1) where x * x lands on 2,
    # off the image, so b stores none
    assert bt.component(2).dim == 1 and bt._rows(1, 1) is None
    misses = [
        regrade_algebra(b, WindowedMap.identity((0, 7))),
        _rebuilt(bt, window=(0, 6)),
        GradedAlgebra(bt.group, bt.window, bt.k, f,
                      {**bt.components, 5: LabeledSpace.untagged(2)},
                      bt._table(), bt.unit),
        _rebuilt(bt, unit=(f.from_int(2),)),
        _rebuilt(bt, rows=lambda key, r: {p: {c: f.add(e, e)
                                              for c, e in row.items()}
                                          for p, row in r.items()}
                 if key == (1, 2) else r),
        _rebuilt(bt, rows=lambda key, r: None if key == (1, 2) else r),
        GradedAlgebra(bt.group, bt.window, bt.k, f, bt.components,
                      {**bt._table(), (1, 1): {(0, 0): {0: f.one()}}},
                      bt.unit),
    ]
    assert not any(algebras_equal(miss, bt) for miss in misses)
    for miss in misses:
        with pytest.raises(PreconditionError, match="its regrading"):
            regrade_module(x, phi, algebra=miss)


def test_un_regrade_module_refuses_an_algebra_not_regraded_to_the_modules():
    _, _, b, x, phi = _octic_setup()
    v = regrade_module(x, phi)
    with pytest.raises(PreconditionError, match="its regrading"):
        un_regrade_module(v, phi, algebra=truncated_polynomial(3,
                                                               window=(0, 5)))
    f = b.field
    # a unit, a nonzero map dropped, and a component at 2, off the image,
    # that no map touches: regrade_algebra refuses such an algebra
    misses = [_rebuilt(b, unit=(f.from_int(2),)),
              _rebuilt(b, rows=lambda key, r: None if key == (3, 1) else r),
              GradedAlgebra(b.group, b.window, b.k, f,
                            {**b.components, 2: LabeledSpace.untagged(1)},
                            b._table(), b.unit)]
    assert not any(algebras_equal(miss, b) for miss in misses)
    for miss in misses:
        with pytest.raises(PreconditionError, match="its regrading"):
            un_regrade_module(v, phi, algebra=miss)


def test_regrading_takes_the_right_algebra_by_ancestry_rows_or_value():
    a, u, b, x, phi = _octic_setup()
    v = regrade_module(x, phi)
    back = un_regrade_module(v, phi)
    # b's own regrading, known by its ancestry; a twin of b killed from the
    # same A, whose regrading holds the same row dicts; and rows equal but
    # copied by the checked constructor
    twin = kill_support_algebra(a, u)
    for bt in (regrade_algebra(b, phi), regrade_algebra(twin, phi),
               _rebuilt(v.over)):
        assert modules_equal(regrade_module(x, phi, algebra=bt), v)
    for c in (b, twin, _rebuilt(b)):
        assert modules_equal(un_regrade_module(v, phi, algebra=c), back)
    # the same products on a window reaching past delta(5) = 7: regrading
    # clips the window to the points delta sends into it, so un-regrading
    # takes this algebra although the push-forward's window ends at 7
    wide = kill_support_algebra(truncated_polynomial(8, window=(0, 9)), u)
    assert algebras_equal(regrade_algebra(wide, phi), v.over)
    assert un_regrade_module(v, phi, algebra=wide).over is wide
    assert back.over.window == (0, 7)


def test_un_regrade_rejects_vanishing_violations():
    from gradedsupport.exactlin import LabeledSpace
    a, u, b, phi = _compressed_setup()
    bt = regrade_algebra(b, phi)
    f = bt.field
    comps = {1: LabeledSpace.module_component((0,)),
             2: LabeledSpace.module_component((0,))}
    act = {(1, 0): Matrix.identity(f, 1), (2, 0): Matrix.identity(f, 1),
           (1, 1): Matrix.identity(f, 1)}
    v = GradedModule(bt, bt.window, comps, act)
    assert validate_module(v).holds
    # phi(1) + phi(1) = 2 misses the image, so the (1,1) action must vanish
    with pytest.raises(GradingViolationError) as exc:
        un_regrade_module(v, phi, 0, a)
    assert exc.value.witness == (1, 1)


def test_un_regrade_checks_the_pushed_algebra_for_vanishing_violations():
    # x * x lands at phi(1) + phi(1) = 2, outside the image {0, 1, 3, 4}:
    # pushing K[x]/(x^4) forward breaks the same pattern as its modules
    a = truncated_polynomial(4, 1, window=(0, 3))
    phi = delta_map(DegreeSet.periodic(3, (0, 1), Z), 0, (0, 3))
    simple = GradedModule(a, (0, 0), {0: LabeledSpace.module_component((0,))},
                          {(0, 0): Matrix.identity(a.field, 1)})
    assert validate_module(simple).holds
    for x, what in ((simple, "mult"), (regular_module(a), "action")):
        with pytest.raises(GradingViolationError, match=what) as exc:
            un_regrade_module(x, phi)
        assert exc.value.witness == (1, 1)


def _short_window_map():
    """phi(-1) = 2, phi(0) = 0, phi(1) = 1: a pseudomorphism, as -1 + 1 = 0
    sums to 3, off the image, and 1 + 1 = 2 lies past its window, although
    phi(1) + phi(1) = phi(-1)."""
    phi = WindowedMap((-1, 1), (2, 0, 1))
    assert is_pseudomorphism(phi).holds
    return phi


def test_regrade_refuses_a_product_past_the_regrading_window():
    # K[x]/(x^3): x * x = x^2 lands on phi(-1), but the new grading has no
    # slot at 1 + 1 = 2 for it
    a = truncated_polynomial(3, 1, window=(0, 2))
    phi = _short_window_map()
    with pytest.raises(GradingViolationError,
                       match="mult leaves the regrading window") as exc:
        regrade_algebra(a, phi)
    assert exc.value.witness == (1, 1)
    with pytest.raises(GradingViolationError,
                       match="action leaves the regrading window") as exc:
        regrade_module(regular_module(a), phi, algebra=a)
    assert exc.value.witness == (1, 1)


def test_regrade_cannot_meet_a_nonzero_product_off_the_image():
    # a nonzero product lands on a nonzero component, and every component
    # lies in g + Im(phi): x^2 at degree 2 is refused before any map is read
    a = truncated_polynomial(3, 1, window=(0, 2))
    phi = delta_map(DegreeSet.periodic(3, (0, 1), Z), 0, (0, 2))
    for g, what in ((0, "degree 2"), (1, "degree 3")):
        with pytest.raises(PreconditionError, match=f"{what} lies outside"):
            regrade_module(shift_module(regular_module(a), g), phi, g, a)


def test_un_regrade_refuses_a_module_window_that_misses_the_map():
    from gradedsupport.regrading import _pushed_window
    a, u, b, phi = _compressed_setup()
    zero = GradedModule(b, (7, 9), {}, {})
    with pytest.raises(PreconditionError,
                       match="the module window misses the map window"):
        un_regrade_module(zero, phi, 0, a)
    # an algebra's window holds 0, as a pseudomorphism's does, so only a map
    # that is none meets the algebra's refusal
    with pytest.raises(PreconditionError,
                       match="the algebra window misses the map window"):
        _pushed_window(b, WindowedMap((7, 8), (0, 1)))
    assert _pushed_window(zero, WindowedMap((8, 12), (0, 1, 3, 4, 6)),
                          2) == (2, 3)


def test_un_regrade_inverts_a_regrade_along_a_map_that_is_not_increasing():
    # phi(-1) = 2 > phi(1) = 1: the window pushed back is g + the values of
    # phi on the met window, 0..2, which holds every pushed component
    a = truncated_polynomial(2, 1, window=(0, 2))
    phi = _short_window_map()
    v = regrade_module(regular_module(a), phi)
    assert v.window == (-1, 1) and v.dims() == {0: 1, 1: 1}
    back = un_regrade_module(v, phi)
    assert back.window == (0, 2)
    assert modules_equal(back, regular_module(a))


# ---------------------------------------------------------------------------
# generation predicates


def test_generated_in_degrees_01():
    assert is_generated_in_degrees_01(truncated_polynomial(5))
    assert not is_generated_in_degrees_01(truncated_polynomial(3, 2))


def test_is_generated_in_detects_generator_degrees():
    a = truncated_polynomial(4)
    m = regular_module(a)
    assert is_generated_in(m, [0])
    assert not is_generated_in(m, [1])
    assert is_generated_in(shift_module(m, 2), [2])


# ---------------------------------------------------------------------------
# the trusted path: the tests' fixture checks every _of build (conftest.py)


def _mutant(monkeypatch, module, name, old, new):
    """Replace module.name by a copy whose source reads new for old."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])


@pytest.mark.parametrize("module, name, old, new, build, error", [
    # a column one past the target from the one row builder: with two
    # generators no component is one block, so every row is copied, and
    # 1 * 1 in the second block lands on column 2 of the two-dimensional
    # degree 0
    (constructions, "_LayoutModule", "{dst[qq]: v", "{dst[qq] + 1: v",
     lambda a: free_module(a, [0, 0]), "has a column beyond the 2"),
    # an unmatched key: x^0 * a_1 where A_1 has the one basis vector a_0
    # (the quotient builds its maps on first read: the writer reads them)
    (graded_core, "_QuotientModule", "out[(src[i], j)]",
     "out[(src[i], j + 1)]",
     lambda a: dump_json(present_module(a, [0], [(2, (1,))])),
     "not a matched pair"),
])
def test_the_fixture_refuses_a_mutant_builder(monkeypatch, module, name, old,
                                              new, build, error):
    a = truncated_polynomial(3)
    _mutant(monkeypatch, module, name, old, new)
    with pytest.raises(ShapeError, match=error):
        build(a)


@pytest.mark.parametrize("a, gens", [
    (truncated_polynomial(3), [(0, 0)]),
    (quiver_algebra(1, [(0, 0), (0, 0)], [[(1, (1, 0))]], 5), [(2, 0)]),
    (group_algebra(4), [(1, 0)]),
], ids=["trunc", "two-loop", "Z/4"])
def test_a_one_generator_projective_stores_the_algebras_rows(a, gens):
    # each component is the one block A_{t - g}, so map (t, u) is A's map
    # (t - g, u), the same dict; the autouse fixture has checked the build
    # against the checked path
    p = projective_module(a, gens)
    g = gens[0][0]
    assert set(p._maps) == {(p.add_deg(d, g), u) for d, u in a._maps}
    for (t, u), rows in p._maps.items():
        assert rows is a._rows(t - g, u)
    # two generators in one degree: every row is copied
    two = free_module(a, [g, g])
    assert all(rows is not a._rows(t - g, u)
               for (t, u), rows in two._maps.items())


def test_the_fixture_checks_reduced_cyclic_degree_keys(monkeypatch):
    a = group_algebra(4)
    m = shift_module(regular_module(a), 6)
    assert set(m._maps) == set(itertools.product(range(4), repeat=2))
    assert m.components == regular_module(a).components
    # keys left unreduced are stored reduced by the checked path
    _mutant(monkeypatch, graded_core, "shift_module",
            "(m.add_deg(s, g), u)", "(s + g, u)")
    with pytest.raises(AssertionError, match="differs from the checked path"):
        graded_core.shift_module(regular_module(a), 6)


def _checked_copy(x):
    """x through the checked path, handed a Matrix at every degree pair with
    a nonzero target, zero where x stores none: the checked path decides
    which maps are present."""
    table = {}
    for g in x.degrees():
        for h in x._acting().degrees():
            dim = x.component(x.add_deg(g, h)).dim
            if dim:
                table[(g, h)] = x._map_matrix(g, h) or Matrix.zero(
                    x.field, len(x.pairs(g, h)), dim)
    return GradedModule(x.over, x.window, x.components, table)


def test_present_and_absent_maps_at_two_vertices():
    # arrows a: 0 -> 1 and b: 1 -> 0 with ab = 0, so A_2 is ba alone, whose
    # left tag is 1; with no relation every A_u holds paths from both
    # vertices and every (d, u) has matched pairs
    a = quiver_algebra(2, [(0, 1), (1, 0)], [[(1, (0, 1))]], 4)
    F = a.field
    p = projective_module(a, [(0, 0), (1, 1)])  # e_0 A + e_1 A(-1)
    # P_1 = (a, e_1); W_1 = span(a) holds e_0 * a, so map (0, 1) of P / W
    # has its matched pair and a nonzero target but only a zero row
    q = quotient_with_maps(p, {1: Subspace.from_vectors(
        F, 2, [(F.one(), F.zero())])})[0]
    u = DegreeSet.periodic(5, (0, 1, 2), Z)
    killed = kill_support_module(q, u, u)
    for x in (p, q, killed):
        # P_0 = e_0 has right tag 0: no matched pair with A_2, but a target
        assert x.component(2).dim and not x.pairs(0, 2)
        assert (0, 2) not in x._table() and x._rows(0, 2) is None
        checked = _checked_copy(x)
        assert checked._maps == x._table()
        assert dump_json(checked) == dump_json(x)
    for x in (q, killed):
        assert x.pairs(0, 1) == [(0, 0)] and x._rows(0, 1) == {}
    assert killed.degrees() == [0, 1, 2] and (2, 1) not in killed._table()


def test_a_builder_refuses_an_empty_window():
    a = truncated_polynomial(3)
    for build in (free_module, projective_module):
        with pytest.raises(PreconditionError, match=r"empty window \[5, 3\]"):
            build(a, [(0, 0)] if build is projective_module else [0], (5, 3))
