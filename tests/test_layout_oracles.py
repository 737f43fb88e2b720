"""Modules read through their generator blocks, against the tables they
replace.

Every module is read through GradedModule._blocks: a table is one block of
itself, and a module read through its layout (constructions._LayoutModule),
the harness's random modules and the lift's induced module, has one block
per generator, read off A.  _LayoutModule._build is the one row builder,
and _layout_module stores its maps as the table of projective_module,
free_module and present_module's free module.  quotient_with_maps and the
one vanishing scan, graded_core._vanishing_spaces, walk A's rows block by
block through one shared image row per target coordinate; the quotient
walks each map the first time it is read.  The oracles are the paths the
library took before: layout_module_by_blocks, the table built with its own
coordinates per block; vanishing_space, the scan of one degree over a
module's stored rows; induced_vanishing_spaces, that scan rewritten for a
layout; quotient_by_eager_walk, the quotient that walked every map when it
was built; quotient_with_maps on the table, reduced pair by pair against
W's pivots too; and the scans of torsion_spaces and _hom_system that read
every degree, kept here as torsion_spaces_by_full_scan and
hom_system_by_all_lower_rows, for the cuts that algebras generated in
degrees 0 and 1 allow.  The shared rows are checked never to be written:
every stored row and class table met in a harness sample, a lift and a JSON
dump is compared with a copy taken when it was built.
"""

import copy
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from gradedsupport import graded_core, graded_objects, lifting
from gradedsupport.constructions import (_LayoutModule, _layout,
                                         _layout_module, free_module,
                                         group_algebra, present_module,
                                         projective_layout, projective_module,
                                         quiver_algebra)
from gradedsupport.exactlin import (QQ, GF, LabeledSpace, Subspace,
                                    _accumulate, _echelon, _forward,
                                    matched_pairs, nullspace)
from gradedsupport.graded_core import (_hom_system, _tag_blocks,
                                       _vanishing_spaces, closure_under_action,
                                       kill_support_algebra,
                                       kill_support_module, quotient_with_maps,
                                       torsion_spaces)
from gradedsupport.graded_objects import (GradedModule, _checked_parts,
                                          _generated_rows, algebras_equal,
                                          is_generated_in_degrees_01)
from gradedsupport.errors import PreconditionError
from gradedsupport.lifting import (_evaluation_rows, _generator_data,
                                   check_and_lift,
                                   equivalence_harness, random_category_module,
                                   random_killed_module)
from gradedsupport.serialize import dump_json
from gradedsupport.subsets import DegreeSet
from test_graded_core_oracles import (FIELDS, _vector, degree_sets, hom_pairs,
                                      modules, quotient_by_pivot_reduction,
                                      z_algebra)


# ---------------------------------------------------------------------------
# oracles: the paths the block reads and the cuts replace


def layout_module_by_blocks(a, window, comps, layout):
    """The module whose action multiplies each generator block inside A,
    built with its own coordinates and its own loop per block.

    Row (p, j) of map (t, u), for p the A_d basis vector q of block b, is
    A's row (q, j) of map (d, u) kept on block b's positions at t + u.
    Where comps[t] and comps[t + u] are each one block of one generator
    holding all of A_d and A_{d+u}, the module stores A's row dict of map
    (d, u) itself.
    """
    window = _checked_parts(a.group, window, a.k, {})[0]
    coord = {t: {b: {q: start + n for n, q in enumerate(positions)}
                 for (b, _, start, positions) in blocks}
             for t, blocks in layout.items()}
    whole = {}  # t -> (b, d) where comps[t] is block b alone, all of A_d
    for t, blocks in layout.items():
        if len(blocks) == 1 and len(blocks[0][3]) == a.component(
                blocks[0][1]).dim:
            whole[t] = blocks[0][:2]
    action = {}
    for t, blocks in layout.items():
        for u in a.degrees():
            tu = a.group.add(t, u)
            if tu not in layout:
                continue
            if t in whole and tu in whole and whole[t][0] == whole[tu][0]:
                if (rows := a._rows(whole[t][1], u)) is not None:
                    action[(t, u)] = rows
                continue
            rows = {}
            for (b, d, _, _) in blocks:
                src, dst = coord[t][b], coord[tu].get(b)
                if dst is None:
                    continue
                for (q, j), r in a._map_rows(d, u):
                    if q in src and (row := {dst[qq]: v for qq, v in r.items()
                                             if qq in dst}):
                        rows[(src[q], j)] = row
            if rows or matched_pairs(comps[t], a.component(u)):
                action[(t, u)] = rows
    return GradedModule._of(a, window, comps, action)


def vanishing_space(m, d, evals):
    """{x in M_d : x a evaluates to zero at every watched degree}, read off
    m's stored rows.

    evals maps each watched degree t to its rows, row i = ev_t(e_i), or
    None for the identity; rows that are all empty ask nothing.  Entry i of
    equation (j, c) is column c of ev_t(x_i * a_j).
    """
    F = m.field
    cols = []
    for u in m.over.degrees():
        t = m.add_deg(d, u)
        if t not in evals or evals[t] is not None and not any(evals[t]):
            continue
        ev = evals[t]
        stacked = {}
        for (i, j), row in m._map_rows(d, u):
            if ev is not None:
                row = _accumulate(F, row, ev.__getitem__)
            for c, e in row.items():
                stacked.setdefault((j, c), {})[i] = e
        cols.extend(stacked.values())
    return nullspace(F, cols, m.component(d).dim)


def induced_vanishing_spaces(a, comps, layout, evals):
    """{d: vanishing_space(induced, d, evals)} for every degree d of the
    module of a layout, read off A's rows through the layout; each evals[t]
    lists rows.  ev_t of a row is A's row pushed through its block's
    evaluation rows at t, indexed by A-basis vector."""
    F = a.field
    coord = {t: {b: {q: start + n for n, q in enumerate(positions)}
                 for (b, _, start, positions) in blocks}
             for t, blocks in layout.items()}
    by_block = {t: {b: {q: ev[c] for q, c in cb.items()}
                    for b, cb in coord[t].items()}
                for t, ev in evals.items() if any(ev)}
    spaces = {}
    for d in sorted(comps):
        cols = []
        for u in a.degrees():
            ev_t = by_block.get(a.add_deg(d, u))
            if ev_t is None:
                continue
            stacked = {}
            for (b, e, _, _) in layout[d]:
                ev, src = ev_t.get(b), coord[d][b]
                if ev is None:
                    continue
                for (q, j), row in a._map_rows(e, u):
                    if (i := src.get(q)) is not None:
                        for c, v in _accumulate(F, row, ev.get).items():
                            stacked.setdefault((j, c), {})[i] = v
            cols.extend(stacked.values())
        spaces[d] = nullspace(F, cols, comps[d].dim)
    return spaces


def quotient_by_eager_walk(m, spaces):
    """quotient_with_maps as it built every map with the module: one walk
    per map into a quotient degree, over the rows of the kept coordinates
    block by block, each target's image rows built up front."""
    F = m.field
    keeps, reads, comps = {}, {}, {}
    for d in m.degrees():
        comp = m.component(d)
        sp = spaces.get(d, Subspace.zero(F, comp.dim))
        _tag_blocks(comp, sp)
        keep = keeps[d] = sorted(set(range(comp.dim)) - set(sp.pivots),
                                 key=lambda i: (comp.right_tags[i], i))
        reads[d] = {i: pos for pos, i in enumerate(keep)}, sp
        if keep:
            comps[d] = LabeledSpace.module_component(
                tuple(comp.right_tags[i] for i in keep))

    def project(d, vec):
        at, sp = reads[d]
        v = sp.reduce(vec)
        if isinstance(v, dict):
            return {at[i]: c for i, c in v.items()}
        return tuple(v[i] for i in keeps[d])

    one, mul = F.one(), F.mul
    images, parts = {}, {}
    for t in comps:
        at, sp = reads[t]
        cls = sp.classes()
        rows = [{at[q]: one} if q in at
                else {at[k]: v for k, v in cls[q].items()}
                for q in range(m.component(t).dim)]
        images[t] = {key: {q: rows[c] for q, c in coord.items()}
                     for key, _, _, coord in m._blocks(t)}
        parts[t] = [(key, reader, e, src) for key, reader, e, coord
                    in m._blocks(t) if (src := {q: at[c] for q, c
                                                in coord.items() if c in at})]
    action = {}
    for d in comps:
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            if t not in comps:
                continue
            out = {}
            for key, reader, e, src in parts[d]:
                img = images[t].get(key)
                if img is None:
                    continue
                for (i, j), row in reader._map_rows(e, u):
                    if i not in src:
                        continue
                    if len(row) == 1:
                        (q, c), = row.items()
                        got = img.get(q)
                        if got and c != one:
                            got = {k: mul(c, v) for k, v in got.items()}
                    else:
                        got = _accumulate(F, row, img.get)
                    if got:
                        out[(src[i], j)] = got
            if out or matched_pairs(comps[d], m.over.component(u)):
                action[(d, u)] = out
    keep_map = {d: tuple(keep) for d, keep in keeps.items()}
    return GradedModule._of(m.over, m.window, comps, action), project, keep_map


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
    return {d: modulo[d] if d in evals else vanishing_space(n, d, evals)
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
    tagged e_c A or, for a free module, all of A; over Z the window is the
    default one or drawn, and may cut generators off or reach past them."""
    return _layout_over(draw, _algebra(draw, draw(st.sampled_from(FIELDS))))


def _layout_over(draw, a):
    """layouts() over the given algebra."""
    degs = (st.integers(0, a.group.n - 1) if a.group.kind == "Zn"
            else st.integers(-2, 2))
    window = None
    if a.group.kind == "Z" and draw(st.booleans()):
        lo = draw(st.integers(-4, 4))
        window = (lo, lo + draw(st.integers(0, 8)))
    if draw(st.booleans()):
        gens = draw(st.lists(st.tuples(degs, st.integers(0, a.k - 1)),
                             min_size=1, max_size=3))
        return (a, *projective_layout(a, gens, window))
    gens = draw(st.lists(degs, min_size=1, max_size=3))
    return (a, *_layout(a, [(g, None) for g in gens], window))


def _seeds(draw, m):
    seeds = {}
    for _ in range(draw(st.integers(0, 3)) if m.degrees() else 0):
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
        layout_module_by_blocks(a, window, comps, layout)
    # closure reads the view's rows built on first read, torsion its blocks
    seeds = _seeds(data.draw, table)
    spaces = closure_under_action(table, seeds)
    assert closure_under_action(view, seeds) == spaces
    if data.draw(st.booleans()):
        s = data.draw(degree_sets(table))
        want = torsion_spaces_by_full_scan(table, s, spaces)
        assert torsion_spaces(view, s, spaces) == want
        assert torsion_spaces(table, s, spaces) == want
        spaces = want
    got, project, keep = quotient_with_maps(view, spaces)
    want, want_project, want_keep = quotient_with_maps(table, spaces)
    assert (got.window, got.components) == (want.window, want.components)
    # every stored row, and the maps present with no nonzero row; the
    # pivot reduction of every matched pair too, which shares no code with
    # the quotient's image rows
    assert got._table() == want._table() \
        == quotient_by_pivot_reduction(table, spaces)[0]._maps
    assert keep == want_keep
    for d in table.degrees():
        vec = _vector(data.draw, a.field, table.component(d).dim)
        assert project(d, vec) == want_project(d, vec)


def _spaces(draw, m):
    """An action-closed family in m: a closure, maybe with its torsion."""
    spaces = closure_under_action(m, _seeds(draw, m))
    if m.degrees() and draw(st.booleans()):
        spaces = torsion_spaces(m, draw(degree_sets(m)), spaces)
    return spaces


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lazy_quotient_matches_the_eager_walk(field, data):
    kind = data.draw(st.sampled_from(["drawn", "two-vertex", "Z/4"]))
    if kind == "drawn":
        a = _algebra(data.draw, field)
    elif kind == "two-vertex":
        a = z_algebra("cycle", data.draw(st.integers(1, 5)), field)
    else:
        a = group_algebra(4, field)
    _, window, comps, layout = _layout_over(data.draw, a)
    # the quotient of a module read through its layout, or of a table
    m = _LayoutModule(a, window, comps, layout) if data.draw(st.booleans()) \
        else layout_module_by_blocks(a, window, comps, layout)
    spaces = _spaces(data.draw, m)
    want, want_project, want_keep = quotient_by_eager_walk(m, spaces)

    # every key read below: absent maps and unreduced Z/n keys among them
    n = a.group.n or 0
    keys = [(d + n * data.draw(st.integers(-1, 1)), u)
            for d in range(window[0] - 1, window[1] + 2)
            for u in [*a.degrees(), -1]]

    # forced whole: the same keys in the same order, the maps present with
    # no nonzero row among them, the same rows, coordinates and JSON; then
    # the state only builds read is dropped, and every read still answers
    got, project, keep = quotient_with_maps(m, spaces)
    assert (got.window, got.components, keep) \
        == (want.window, want.components, want_keep)
    for d in m.degrees():
        vec = _vector(data.draw, field, m.component(d).dim)
        assert project(d, vec) == want_project(d, vec)
    assert list(got._table()) == list(want._maps)
    assert got._table() == want._maps
    assert dump_json(got) == dump_json(want)
    assert got._spaces is got._images is None
    assert [got._rows(*key) for key in keys] == [want._rows(*key)
                                                 for key in keys]

    # read in part, in a random order, then forced
    got = quotient_with_maps(m, spaces)[0]
    for d, u in data.draw(st.permutations(keys))[:data.draw(
            st.integers(0, len(keys)))]:
        assert got._rows(d, u) == want._rows(d, u)
    assert list(got._table()) == list(want._maps)
    assert got._table() == want._maps
    assert dump_json(got) == dump_json(want)
    # the forced table is the one record of reads: no absent read is kept
    assert got._read is got._table()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["poly", "loops", "cycle", "scaled2"])
def test_a_killed_quotient_reads_through_to_it(field, kind):
    a = (scaled_algebra(2, 7, field) if kind == "scaled2"
         else z_algebra(kind, 7, field))
    u = DegreeSet.periodic(3, (0, 1))
    b = kill_support_algebra(a, u)
    for seed in range(3):
        m = random_category_module(a, u, u, seed)
        eager = GradedModule._of(m.over, m.window, m.components,
                                 m._table())
        want = kill_support_module(eager, u, u, b)
        m = random_category_module(a, u, u, seed)
        got = kill_support_module(m, u, u, b)
        # killing builds no map; reading one of the view builds that map
        # of m alone, and hands on m's own rows
        assert m._read == got._read == {}
        for key in list(want._maps)[::2]:
            assert got._rows(*key) is m._rows(*key)
            assert got._rows(*key) == want._maps[key]
            assert set(m._read) <= set(want._maps)
        assert list(got._table()) == list(want._maps)
        assert got._table() == want._maps
        assert dump_json(got) == dump_json(want)
        # forced, the view lets go of m and still reads every map
        assert got._parent is None
        assert {key: got._rows(*key) for key in want._maps} == want._maps


@settings(max_examples=100, deadline=None)
@given(lay=layouts())
def test_layout_rows_match_the_layout_module(lay):
    a, window, comps, layout = lay
    view = _LayoutModule(a, window, comps, layout)
    table = _layout_module(a, window, comps, layout)
    want = layout_module_by_blocks(a, window, comps, layout)
    assert view.window == table.window == want.window
    assert view.components == table.components == comps
    read = {(t, u): rows for t in view.degrees() for u in a.degrees()
            if (rows := view._rows(t, u)) is not None}
    # the same maps in the same order, A's own row dicts where it keeps them
    assert list(read.items()) == list(table._maps.items()) \
        == list(want._maps.items())
    own = {id(rows) for rows in a._maps.values()}
    assert [id(rows) in own for rows in table._maps.values()] \
        == [id(rows) in own for rows in want._maps.values()]


def _evals(draw, m):
    """An evaluation at some degrees of m: real rows of a random width,
    None (the identity), or rows that are all empty."""
    F, evals = m.field, {}
    for t in m.degrees():
        dim, kind = m.component(t).dim, draw(st.sampled_from(
            ["rows", "rows", "identity", "empty", "unwatched"]))
        if kind == "rows":
            width = draw(st.integers(1, 3))
            evals[t] = [{c: v for c, v in enumerate(_vector(draw, F, width))
                         if v} for _ in range(dim)]
        elif kind == "identity":
            evals[t] = None
        elif kind == "empty":
            evals[t] = [{}] * dim
    return evals


@settings(max_examples=150, deadline=None)
@given(lay=layouts(), data=st.data())
def test_vanishing_scan_matches_the_single_degree_scan(lay, data):
    a, window, comps, layout = lay
    view = _LayoutModule(a, window, comps, layout)
    table = layout_module_by_blocks(a, window, comps, layout)
    evals = _evals(data.draw, table)
    # each degree watches all of evals or a part of it
    watch = {d: evals if data.draw(st.booleans()) else data.draw(
        st.sets(st.sampled_from(sorted(evals))) if evals else st.just(set()))
        for d in table.degrees()}
    want = {d: vanishing_space(table, d, {t: evals[t] for t in watched})
            for d, watched in watch.items()}
    assert _vanishing_spaces(view, evals, watch) == want
    assert _vanishing_spaces(table, evals, watch) == want
    if evals and all(ev is not None for ev in evals.values()):
        assert induced_vanishing_spaces(a, comps, layout, evals) == \
            _vanishing_spaces(view, evals, dict.fromkeys(comps, evals))


def test_no_layout_module_leaves_the_builders():
    a = z_algebra("cycle", 7, GF(101))
    u = DegreeSet.periodic(3, (0, 1))
    b = kill_support_algebra(a, u)
    m = random_category_module(a, u, u, 3)
    report = check_and_lift(kill_support_module(m, u, u, b), u, u, a)
    assert report.liftable
    built = [projective_module(a, [(0, 0), (1, 1)]), free_module(a, [0, 2]),
             present_module(a, [0, 1], [(2, [1, 0, 0, 1])])]
    # the builders return tables or quotients, none a layout read: a
    # quotient keeps the blocks of what it divides, read off A's rows for a
    # layout and off the table's own for present_module's free module
    assert [type(x) for x in (m, report.lift, *built)] \
        == [graded_core._QuotientModule] * 2 + [GradedModule] * 2 \
        + [graded_core._QuotientModule]
    assert [{reader for blocks in x._blocks_of.values()
             for _, reader, _, _ in blocks}
            for x in (m, report.lift)] == [{a}, {a}]
    assert {type(reader) for blocks in built[2]._blocks_of.values()
            for _, reader, _, _ in blocks} == {GradedModule}


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
    table = layout_module_by_blocks(a, window, comps, layout)
    got = _vanishing_spaces(_LayoutModule(a, window, comps, layout), evals,
                            dict.fromkeys(comps, evals))
    assert got == induced_vanishing_spaces(a, comps, layout, evals) \
        == {d: vanishing_space(table, d, evals) for d in table.degrees()}


# ---------------------------------------------------------------------------
# the cuts for algebras generated in degrees 0 and 1


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_torsion_cut_matches_the_full_scan(data):
    m = data.draw(st.one_of(modules, st.builds(
        lambda lay: layout_module_by_blocks(*lay), layouts())))
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
    spans = graded_objects._spans
    monkeypatch.setattr(graded_objects, "_spans",
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
    of = graded_objects._GradedObject.__dict__["_of"].__func__
    lazy_rows = graded_objects._LazyModule._rows
    cls_of = Subspace.classes

    def recording(cls, *args):
        x = of(cls, *args)
        built.append((x._maps, copy.deepcopy(x._maps)))
        return x

    def recorded_rows(x, g, h):
        # a map built on first read is copied when it is built
        unread = len(x._read)
        rows = lazy_rows(x, g, h)
        if len(x._read) > unread and rows is not None:
            built.append((rows, copy.deepcopy(rows)))
        return rows

    def recorded_classes(sp):
        got = cls_of(sp)
        if id(got) not in classes:  # each table is kept alive below
            classes[id(got)] = got, copy.deepcopy(got)
        return got

    monkeypatch.setattr(graded_objects._GradedObject, "_of",
                        classmethod(recording))
    monkeypatch.setattr(graded_objects._LazyModule, "_rows", recorded_rows)
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
    for got, want in built:
        assert got == want
    for got, want in classes.values():
        assert got == want
