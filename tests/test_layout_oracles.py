"""Projectives read through their layout, against the tables they replace.

The harness's random modules and the lift's induced module are read
through their layout (constructions._LayoutModule): each map built from A's
rows on first read, and the quotient walking A's rows block by block
through one shared image row per target coordinate.  The oracles are the
paths the library took before: the full table of _layout_module, which
projective_module and free_module still return, quotiented by the same W
and reduced pair by pair against W's pivots;
_vanishing_space on that table for the lift's vanishing scan; and the scans
of torsion_spaces and _hom_system that read every degree, kept here as
torsion_spaces_by_full_scan and hom_system_by_all_lower_rows, for the cuts
that algebras generated in degrees 0 and 1 allow.  The shared rows are
checked never to be written: every stored row and class table met in a
harness sample, a lift and a JSON dump is compared with a copy taken when
it was built.
"""

import copy
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from gradedsupport import graded_core, lifting
from gradedsupport.constructions import (_LayoutModule, _layout,
                                         _layout_module, group_algebra,
                                         projective_layout, quiver_algebra)
from gradedsupport.exactlin import (QQ, GF, Subspace, _accumulate, _echelon,
                                    _forward)
from gradedsupport.graded_core import (_generated_rows,
                                       _hom_system, _vanishing_space,
                                       algebras_equal, closure_under_action,
                                       is_generated_in_degrees_01,
                                       kill_support_algebra,
                                       kill_support_module, quotient_with_maps,
                                       torsion_spaces)
from gradedsupport.errors import PreconditionError
from gradedsupport.lifting import (_evaluation_rows, _generator_data,
                                   _induced_vanishing_spaces, check_and_lift,
                                   equivalence_harness, random_category_module,
                                   random_killed_module)
from gradedsupport.serialize import dump_json
from gradedsupport.subsets import DegreeSet
from test_graded_core_oracles import (FIELDS, _vector, degree_sets, hom_pairs,
                                      modules, quotient_by_pivot_reduction,
                                      z_algebra)


# ---------------------------------------------------------------------------
# oracles: the full scans the cuts replace


def torsion_spaces_by_full_scan(n, s, modulo=None):
    """torsion_spaces as it read every algebra: each off-S degree watches
    every degree of n not off S."""
    F = n.field
    if modulo is None:
        modulo = {d: Subspace.zero(F, n.component(d).dim) for d in n.degrees()}
    one = F.one()
    evals = {}
    for t in n.degrees():
        if s.try_contains(t) is False:
            continue
        w, ev = modulo[t], None
        if w.dim:
            cls = w.classes()
            ev = [cls[i] if i in cls else {i: one} for i in range(w.ambient)]
        evals[t] = ev
    return {d: modulo[d] if d in evals else _vanishing_space(n, d, evals)
            for d in n.degrees()}


def hom_system_by_all_lower_rows(m, n):
    """_hom_system as it read every algebra: the generators at d off the
    pivots of the rows of every map (s, d - s), s < d."""
    if not algebras_equal(m.over, n.over):
        raise PreconditionError("hom spaces need modules over the same algebra")
    F = m.field
    gens, unknowns = {}, 0
    for d in m.degrees():
        pivots = _forward(F, _generated_rows(m, [s for s in m.degrees()
                                                 if s < d], d),
                          m.component(d).dim)
        tags, nd = m.component(d).right_tags, n.component(d)
        for i in range(m.component(d).dim):
            if i not in pivots:
                cols = [q for q in range(nd.dim) if nd.right_tags[q] == tags[i]]
                gens.setdefault(d, {})[i] = tuple(enumerate(cols, unknowns))
                unknowns += len(cols)
    equations, sections = [], {}
    for t in n.degrees() if unknowns else ():
        mt, nt = m.component(t).dim, n.component(t).dim
        rows, push = [], {}
        for d, block in gens.items():
            u = m.add_deg(t, -d)
            for i, j in m.pairs(d, u):
                if i in block:
                    p = mt + len(rows)
                    rows.append({**(m._map_row(d, u, i, j) or {}), p: F.one()})
                    push[p] = {v * nt + c: e for v, q in block[i] for c, e
                               in (n._map_row(d, u, q, j) or {}).items()}
        red, pivots = _echelon(F, rows, mt + len(rows))
        onto = bisect_right(pivots, mt - 1)
        if onto < mt:
            raise PreconditionError(f"M is not a module: M_{t} is not spanned")
        sections[t] = push, red[:onto]
        for kappa in red[onto:]:
            eqs = {}
            for key, e in _accumulate(F, kappa, push.get).items():
                eqs.setdefault(key % nt, {})[key // nt] = e
            equations.extend(eqs.values())
    return unknowns, equations, sections


# ---------------------------------------------------------------------------
# inputs


def scaled_algebra(k, top, field):
    """A quiver algebra whose products of basis paths are multiples other
    than 1 of a path: xy = 2yx on two loops (k = 1), or ab = 3cb on two
    vertices with arrows a, c: 0 -> 1 and b: 1 -> 0 (k = 2), so one-entry
    rows carry c != 1."""
    if k == 1:
        return quiver_algebra(1, [(0, 0), (0, 0)],
                              [[(1, (0, 1)), (-2, (1, 0))]], top, field)
    return quiver_algebra(2, [(0, 1), (1, 0), (0, 1)],
                          [[(1, (0, 1)), (-3, (2, 1))]], top, field)


def _algebra(draw, field):
    kind = draw(st.sampled_from(["poly", "loops", "cycle", "scaled1",
                                 "scaled2", "Zn"]))
    if kind == "Zn":
        return group_algebra(draw(st.integers(1, 4)), field)
    top = draw(st.integers(1, 5))
    if kind.startswith("scaled"):
        return scaled_algebra(int(kind[-1]), top, field)
    return z_algebra(kind, top, field)


@st.composite
def layouts(draw):
    """(A, window, comps, layout) of 1-3 generators over Z or Z/n, each
    tagged e_c A or, for a free module, all of A."""
    a = _algebra(draw, draw(st.sampled_from(FIELDS)))
    degs = (st.integers(0, a.group.n - 1) if a.group.kind == "Zn"
            else st.integers(-2, 2))
    if draw(st.booleans()):
        gens = draw(st.lists(st.tuples(degs, st.integers(0, a.k - 1)),
                             min_size=1, max_size=3))
        return (a, *projective_layout(a, gens))
    gens = draw(st.lists(degs, min_size=1, max_size=3))
    return (a, *_layout(a, [(g, None) for g in gens], None))


def _seeds(draw, m):
    seeds = {}
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.sampled_from(m.degrees()))
        seeds.setdefault(d, []).append(
            _vector(draw, m.field, m.component(d).dim))
    return seeds


# ---------------------------------------------------------------------------
# the layout read


@settings(max_examples=150, deadline=None)
@given(lay=layouts(), data=st.data())
def test_layout_quotient_matches_the_table_quotient(lay, data):
    a, window, comps, layout = lay
    view, table = _LayoutModule(a, window, comps, layout), \
        _layout_module(a, window, comps, layout)
    # closure and torsion read the view's rows built on first read
    seeds = _seeds(data.draw, table)
    spaces = closure_under_action(table, seeds)
    assert closure_under_action(view, seeds) == spaces
    if data.draw(st.booleans()):
        s = data.draw(degree_sets(table))
        want = torsion_spaces(table, s, spaces)
        assert torsion_spaces(view, s, spaces) == want
        spaces = want
    got, project, keep = quotient_with_maps(view, spaces)
    want, want_project, want_keep = quotient_with_maps(table, spaces)
    assert (got.window, got.components) == (want.window, want.components)
    # every stored row, and the maps present with no nonzero row; the
    # pivot reduction of every matched pair too, which shares no code with
    # the quotient's image rows
    assert got._maps == want._maps \
        == quotient_by_pivot_reduction(table, spaces)[0]._maps
    assert keep == want_keep
    for d in table.degrees():
        vec = _vector(data.draw, a.field, table.component(d).dim)
        assert project(d, vec) == want_project(d, vec)


@settings(max_examples=100, deadline=None)
@given(lay=layouts())
def test_layout_rows_match_the_layout_module(lay):
    a, window, comps, layout = lay
    view, table = _LayoutModule(a, window, comps, layout), \
        _layout_module(a, window, comps, layout)
    assert view.window == table.window and view.components == comps
    read = {(t, u): rows for t in view.degrees() for u in a.degrees()
            if (rows := view._rows(t, u)) is not None}
    assert read == table._maps


def test_no_layout_module_leaves_the_builders():
    a = z_algebra("cycle", 7, GF(101))
    u = DegreeSet.periodic(3, (0, 1))
    b = kill_support_algebra(a, u)
    m = random_category_module(a, u, u, 3)
    report = check_and_lift(kill_support_module(m, u, u, b), u, u, a)
    assert report.liftable
    assert type(m) is type(report.lift) is graded_core.GradedModule


def _lift_inputs(field, n, kind, shift, killed, seed):
    a = (scaled_algebra(int(kind[-1]), 2 * n + 1, field)
         if kind.startswith("scaled") else z_algebra(kind, 2 * n + 1, field))
    u = DegreeSet.periodic(n, (0, 1))
    s = u.translate(shift)
    b = kill_support_algebra(a, u)
    if killed:
        x = random_killed_module(b, s, u, seed)
    else:
        x = kill_support_module(random_category_module(a, s, u, seed), s, u, b)
    return a, s, u, x


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(2, 4),
       kind=st.sampled_from(["poly", "loops", "cycle", "scaled1", "scaled2"]),
       shift=st.integers(0, 3), killed=st.booleans(),
       seed=st.integers(0, 2 ** 31))
def test_induced_vanishing_spaces_match_the_induced_table(field, n, kind,
                                                         shift, killed, seed):
    a, s, u, x = _lift_inputs(field, n, kind, shift, killed, seed)
    qdegs = [m for m in lifting._quotient_set(s, u).members_in(*x.window)
             if x.component(m).dim]
    gens, meta = _generator_data(x, qdegs)
    window, comps, layout = _layout(a, gens, x.window)
    evals = {t: _evaluation_rows(x, layout[t], meta)
             for t in s.members_in(*x.window) if layout.get(t)}
    table = _layout_module(a, window, comps, layout)
    got = _induced_vanishing_spaces(
        _LayoutModule(a, window, comps, layout), evals)
    assert got == {d: _vanishing_space(table, d, evals)
                   for d in table.degrees()}


# ---------------------------------------------------------------------------
# the cuts for algebras generated in degrees 0 and 1


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_torsion_cut_matches_the_full_scan(data):
    m = data.draw(st.one_of(modules, st.builds(
        lambda lay: _layout_module(*lay), layouts())))
    if not m.degrees():
        return
    s = data.draw(degree_sets(m))
    closed = (closure_under_action(m, _seeds(data.draw, m))
              if data.draw(st.booleans()) else None)
    assert torsion_spaces(m, s, closed) \
        == torsion_spaces_by_full_scan(m, s, closed)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["poly", "loops", "cycle"])
def test_torsion_cut_meets_windowed_s_and_killed_algebras(field, kind):
    n = 3
    a = z_algebra(kind, 2 * n + 1, field)
    assert is_generated_in_degrees_01(a)
    u = DegreeSet.periodic(n, (0, 1))
    b = kill_support_algebra(a, u)
    # A_U lost A_2, so A_3 is no product of degree-1 vectors: full scan
    assert not is_generated_in_degrees_01(b)
    for seed in range(4):
        m = random_category_module(a, u.translate(1), u, seed)
        x = random_killed_module(b, u, u, seed)
        # windows that miss degrees of m leave them undecided
        for s in (u, DegreeSet.windowed([0, 1, 3], (0, 3)),
                  DegreeSet.windowed([2, 5], (1, 5)),
                  DegreeSet.windowed([], (4, 9))):
            assert torsion_spaces(m, s) == torsion_spaces_by_full_scan(m, s)
            assert torsion_spaces(x, s) == torsion_spaces_by_full_scan(x, s)


@settings(max_examples=100, deadline=None)
@given(pair=hom_pairs())
def test_hom_system_cut_matches_all_lower_rows(pair):
    m, n = pair
    assert _hom_system(m, n) == hom_system_by_all_lower_rows(m, n)
    assert _hom_system(n, m) == hom_system_by_all_lower_rows(n, m)


def test_generation_is_decided_once_per_algebra(monkeypatch):
    # the harness asks for A and A_U, and torsion and hom reuse the answers
    calls = []
    spans = graded_core._spans
    monkeypatch.setattr(graded_core, "_spans",
                        lambda *args: calls.append(1) or spans(*args))
    u = DegreeSet.periodic(3, (0, 1))
    counts = []
    for samples in (1, 4):
        calls.clear()
        assert equivalence_harness(z_algebra("loops", 7, QQ), u, u,
                                   samples=samples).holds
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------------------
# shared rows are read-only


def test_shared_rows_are_never_written(monkeypatch):
    built, classes = [], {}
    of = graded_core._GradedObject.__dict__["_of"].__func__
    cls_of = Subspace.classes

    def recording(cls, *args):
        x = of(cls, *args)
        built.append((x, copy.deepcopy(x._maps)))
        return x

    def recorded_classes(sp):
        got = cls_of(sp)
        if id(got) not in classes:  # each table is kept alive below
            classes[id(got)] = got, copy.deepcopy(got)
        return got

    monkeypatch.setattr(graded_core._GradedObject, "_of",
                        classmethod(recording))
    monkeypatch.setattr(Subspace, "classes", recorded_classes)
    for field in (GF(101), QQ):
        a = scaled_algebra(1, 7, field)
        u = DegreeSet.periodic(3, (0, 1))
        assert equivalence_harness(a, u, u, samples=3).holds
        b = kill_support_algebra(a, u)
        x = kill_support_module(random_category_module(a, u, u, 1), u, u, b)
        report = check_and_lift(x, u, u, a)
        assert report.liftable
        dump_json({"lift": report.lift, "x": x, "a": a})
    assert built and classes
    for x, maps in built:
        assert x._maps == maps
    for got, want in classes.values():
        assert got == want
