"""The module core against the fixed-point constructions it replaced.

The oracles below are the earlier implementations, kept as independent
references: the closure that pushed one-step images until no dimension
grew, the torsion that started from everything off S and discarded vectors
whose images left the family until nothing changed, and the lift that
divided the induced module by the action closure of the evaluation kernels
and then by the torsion of that quotient.  The library reads each of them
off one pass: span(seeds + seeds A), one nullspace per off-S degree, and one
quotient by the vectors whose every product into S evaluates to zero.
These tests check that it returns the same subspace dicts, value for value,
and the same lift reports.

The module builders have oracles too: the tag blocks that eliminated once
per tag and degree, which the library now reads off the canonical rows, and
the torsion-free random module that divided by the relation closure and
then by the torsion of that quotient, which the library builds as one
quotient by the torsion preimage.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedsupport.constructions import (_layout_module, group_algebra,
                                         present_module, projective_layout,
                                         projective_module, quiver_algebra,
                                         regular_module, truncated_polynomial)
from gradedsupport.errors import GradedSupportError, InternalConsistencyError
from gradedsupport.exactlin import (GF, QQ, LabeledSpace, Matrix, Subspace,
                                    apply_row, kernel, rref,
                                    subspace_intersect)
from gradedsupport.graded_core import (GradedModule, _tag_blocks,
                                       _vanishing_space, closure_under_action,
                                       kill_support_algebra,
                                       kill_support_module, modules_equal,
                                       preimage_subspace, quotient_with_maps,
                                       shift_module, submodule_from_subspaces,
                                       torsion_quotient, torsion_spaces)
from gradedsupport.lifting import (LiftReport, _evaluation_rows,
                                   _generator_data, _rank,
                                   certified_isomorphism, check_and_lift,
                                   liftability_check, random_category_module,
                                   random_killed_module)
from gradedsupport.subsets import DegreeSet, Z, Zn, quotient_set


# ---------------------------------------------------------------------------
# oracles


def closure_by_fixed_point(m, seeds):
    """Seeds, then one-step images until no component grows."""
    F = m.field
    spaces = {d: Subspace.zero(F, m.component(d).dim) for d in m.degrees()}
    for d, vecs in seeds.items():
        if m.component(d).dim == 0 or not vecs:
            continue
        spaces[d] = Subspace.from_vectors(F, m.component(d).dim, vecs)
    changed = True
    while changed:
        changed = False
        for d in m.degrees():
            sp = spaces[d]
            if sp.dim == 0:
                continue
            for u in m.over.degrees():
                t = m.add_deg(d, u)
                tcomp = m.component(t)
                if tcomp.dim == 0 or spaces[t].dim == tcomp.dim:
                    continue
                vecs = []
                for j in range(m.over.component(u).dim):
                    ra = m.right_action_matrix(d, u, j)
                    if ra is not None:
                        vecs.extend(apply_row(F, r, ra) for r in sp.rows)
                if not vecs:
                    continue
                new = Subspace.from_vectors(F, tcomp.dim,
                                            list(spaces[t].rows) + vecs)
                if new.dim > spaces[t].dim:
                    spaces[t] = new
                    changed = True
    return spaces


def torsion_by_fixed_point(n, s):
    """Everything off S, then discard what leaves the family until stable."""
    F = n.field
    spaces = {}
    for d in n.degrees():
        dim = n.component(d).dim
        off = s.try_contains(d) is False
        spaces[d] = Subspace.full(F, dim) if off else Subspace.zero(F, dim)
    changed = True
    while changed:
        changed = False
        for d in n.degrees():
            for u in n.over.degrees():
                t = n.add_deg(d, u)
                if spaces[d].dim == 0 or n.component(t).dim == 0:
                    continue
                for j in range(n.over.component(u).dim):
                    ra = n.right_action_matrix(d, u, j)
                    if ra is None:
                        continue
                    inter = subspace_intersect(
                        spaces[d], preimage_subspace(ra, spaces[t]))
                    if inter.dim < spaces[d].dim:
                        spaces[d] = inter
                        changed = True
    return spaces


def lift_by_two_quotients(x, s, u, a):
    """The induced module modulo the closure of the evaluation kernels, then
    modulo the torsion of that quotient, with the old certificates."""
    report = liftability_check(x, s, u, a)
    if not report.liftable:
        return report
    q = quotient_set(s, u)
    window = x.window
    F = a.field
    qdegs = [m for m in q.members_in(*window) if x.component(m).dim]
    if not qdegs:
        return LiftReport(True, (), report.triples_checked,
                          GradedModule(a, window, {}, {}), True, True, True)
    gens, meta = _generator_data(x, qdegs)
    pwindow, pcomps, layout = projective_layout(a, gens, window)
    induced = _layout_module(a, pwindow, pcomps, layout)
    sdegs = s.members_in(*window)
    evals, seeds = {}, {}
    for t in sdegs:
        blocks = layout.get(t)
        if not blocks:
            continue
        xdim = x.component(t).dim
        rows = _evaluation_rows(x, t, blocks, meta, xdim, F)
        evals[t] = Matrix(F, len(rows), xdim, rows)
        ker = kernel(evals[t])
        if ker.dim:
            seeds[t] = [list(r) for r in ker.rows]
    closure = closure_by_fixed_point(induced, seeds)
    quotiented, _, keep0 = quotient_with_maps(induced, closure)
    torsion = torsion_by_fixed_point(quotiented, s)
    lifted, _, keep1 = quotient_with_maps(quotiented, torsion)
    for t in sdegs:
        xdim = x.component(t).dim
        if lifted.component(t).dim != xdim:
            raise InternalConsistencyError(f"dimension at degree {t}")
        if xdim == 0:
            continue
        ev = evals[t]
        for w in closure[t].rows:
            if any(apply_row(F, w, ev)):
                raise InternalConsistencyError("a relation evaluates")
        rows = [ev.entries[keep0[t][i]] for i in keep1[t]]
        if _rank(F, rows) != xdim:
            raise InternalConsistencyError(f"evaluation rank at {t}")
    gen = closure_by_fixed_point(
        lifted, {m: list(Subspace.full(F, lifted.component(m).dim).rows)
                 for m in q.members_in(*window) if lifted.component(m).dim})
    if any(gen[d].dim != lifted.component(d).dim for d in lifted.degrees()) \
            or any(sp.dim for sp in torsion_by_fixed_point(lifted, s).values()):
        raise InternalConsistencyError("left the category")
    return LiftReport(True, (), report.triples_checked, lifted, True, True,
                      True)


def tag_blocks_by_rref(comp, space, field):
    """Each tag's projection of the rows, eliminated on its own."""
    if space.dim == 0:
        return (), (), ()
    z = field.zero()
    rows, tags, pivots = [], [], []
    for c in sorted(set(comp.right_tags)):
        proj = [tuple(e if comp.right_tags[i] == c else z
                      for i, e in enumerate(r)) for r in space.rows]
        red, piv = rref(field, proj)
        rows.extend(red)
        tags.extend(c for _ in red)
        pivots.extend(piv)
    if len(rows) != space.dim:
        raise InternalConsistencyError("not stable under the idempotents")
    return tuple(rows), tuple(tags), tuple(pivots)


def category_module_by_two_quotients(alg, s, u, seed, window=None,
                                     max_gens=2, max_relations=2):
    """random_category_module's draws, divided by the relation closure and
    then by the torsion of that quotient."""
    q = quotient_set(s, u)
    window = tuple(window) if window is not None else alg.window
    rng = random.Random(seed)
    usable = q.members_in(window[0], window[1])
    weights = [window[1] - m + 1 for m in usable]
    F = alg.field
    for _attempt in range(8):
        gens = [(rng.choices(usable, weights)[0], rng.randrange(alg.k))
                for _ in range(rng.randint(1, max_gens))]
        proj = projective_module(alg, gens, window)
        degrees = [d for d in proj.degrees() if d > min(m for m, _ in gens)]
        seeds = {}
        for _ in range(rng.randint(0, max_relations)):
            if not degrees:
                break
            d = rng.choice(degrees)
            vec = [F.from_int(rng.randrange(-3, 4))
                   for _ in range(proj.component(d).dim)]
            if all(e == F.zero() for e in vec):
                continue
            seeds.setdefault(d, []).append(vec)
        closed = closure_by_fixed_point(proj, seeds)
        module = quotient_with_maps(proj, closed)[0]
        module = torsion_quotient(module, s)
        if module.total_dim():
            return module
    raise InternalConsistencyError("only zero modules")


# ---------------------------------------------------------------------------
# inputs

FIELDS = (GF(2), GF(3), GF(101), QQ)
TWO_LOOPS = ([(0, 0), (0, 0)], [[(1, (1, 0))]])  # x, y on one vertex, yx = 0


def z_algebra(kind, top, field):
    if kind == "poly":
        return truncated_polynomial(top + 1, 1, window=(0, top), field=field)
    if kind == "loops":
        return quiver_algebra(1, *TWO_LOOPS, top, field)
    # two vertices joined both ways: tag-blocked components of dim 2
    return quiver_algebra(2, [(0, 1), (1, 0)], [], top, field)


def _vector(draw, field, dim):
    return [field.from_int(draw(st.integers(-2, 2))) for _ in range(dim)]


@st.composite
def presented_modules(draw):
    """present_module over Z (generators at negative degrees too, then
    shifted) or over Z/n, with a few random relations."""
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        a = group_algebra(draw(st.integers(1, 5)), field)
        gens = draw(st.lists(st.integers(0, a.group.n - 1), min_size=1,
                             max_size=3))
    else:
        a = z_algebra(draw(st.sampled_from(["poly", "loops"])),
                      draw(st.integers(1, 4)), field)
        gens = draw(st.lists(st.integers(-3, 2), min_size=1, max_size=3))
    free = present_module(a, gens, [])
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.sampled_from(free.degrees()))
        relations.append((d, _vector(draw, field, free.component(d).dim)))
    m = present_module(a, gens, relations)
    if m.group.kind == "Z" and draw(st.booleans()):
        m = shift_module(m, draw(st.integers(-4, 4)))
    return m


@st.composite
def category_modules(draw):
    """random_category_module, or random_killed_module, over Z."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 4))
    a = z_algebra(draw(st.sampled_from(["poly", "loops", "cycle"])),
                  2 * n + 1, field)
    u = DegreeSet.periodic(n, (0, 1))
    s = u.translate(draw(st.integers(0, n - 1)))
    seed = draw(st.integers(0, 2 ** 31))
    if draw(st.booleans()):
        return random_category_module(a, s, u, seed)
    return random_killed_module(kill_support_algebra(a, u), s, u, seed)


modules = st.one_of(presented_modules(), category_modules())


@st.composite
def degree_sets(draw, m):
    """A degree set over m's group: periodic, full, or (over Z) windowed
    with a window that may start below 0 and miss module degrees."""
    if m.group.kind == "Zn":
        n = m.group.n
        if draw(st.booleans()):
            return DegreeSet.full(Zn(n))
        res = draw(st.sets(st.integers(0, n - 1), min_size=1))
        return DegreeSet.periodic(n, res, Zn(n))
    form = draw(st.sampled_from(["periodic", "windowed", "windowed", "full"]))
    if form == "full":
        return DegreeSet.full()
    if form == "periodic":
        n = draw(st.integers(1, 5))
        return DegreeSet.periodic(n, draw(st.sets(st.integers(0, n - 1),
                                                  min_size=1)))
    lo, hi = m.window
    wlo = draw(st.integers(lo - 2, hi))
    whi = draw(st.integers(wlo, hi + 2))
    return DegreeSet.windowed(
        draw(st.sets(st.integers(wlo, whi), max_size=whi - wlo + 1)),
        (wlo, whi))


# ---------------------------------------------------------------------------
# closure and torsion


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_matches_the_fixed_point(data):
    m = data.draw(modules)
    seeds = {}
    for _ in range(data.draw(st.integers(0, 3)) if m.degrees() else 0):
        d = data.draw(st.sampled_from(m.degrees()))
        seeds.setdefault(d, []).append(
            _vector(data.draw, m.field, m.component(d).dim))
    assert closure_under_action(m, seeds) == closure_by_fixed_point(m, seeds)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_torsion_matches_the_greatest_fixed_point(data):
    m = data.draw(modules)
    s = data.draw(degree_sets(m))
    assert torsion_spaces(m, s) == torsion_by_fixed_point(m, s)


def test_torsion_counts_undecidable_targets_as_inside_s():
    # K[x]/(x^4) with S empty on the window [0, 1]: degrees 0 and 1 are off
    # S, but their products reach degrees 2 and 3, which the window cannot
    # vouch for
    m = regular_module(truncated_polynomial(4))
    s = DegreeSet.windowed((), (0, 1))
    got = torsion_spaces(m, s)
    assert got == torsion_by_fixed_point(m, s)
    assert [got[d].dim for d in range(4)] == [0, 0, 0, 0]


def _zero_action_module(field):
    """Components over K[x]/(x^3) with every action zero, the unit's too:
    not a module, so the stored unit action cannot stand in for x itself."""
    a = truncated_polynomial(3, field=field)
    comps = {d: LabeledSpace.untagged(2) for d in range(3)}
    return GradedModule(a, a.window, comps, {})


def test_closure_keeps_the_seeds_without_a_unit_action():
    m = _zero_action_module(GF(3))
    f = m.field
    seeds = {1: [[f.one(), f.from_int(2)]]}
    got = closure_under_action(m, seeds)
    assert got == closure_by_fixed_point(m, seeds)
    assert [got[d].dim for d in range(3)] == [0, 1, 0]


def test_vanishing_space_counts_x_itself_at_its_degree():
    m = _zero_action_module(GF(3))
    f = m.field
    ev = Matrix.from_rows(f, [[f.one()], [f.zero()]])
    # no action to push through: only ev_1(x) = 0 cuts the space down
    assert _vanishing_space(m, 1, {1: ev}) == kernel(ev)
    assert _vanishing_space(m, 1, {1: None}).dim == 0
    assert _vanishing_space(m, 0, {1: ev}).dim == 2


# ---------------------------------------------------------------------------
# quotients and submodules


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tag_blocks_match_per_tag_elimination(data):
    # one vertex with two loops, or two vertices joined both ways
    field = data.draw(st.sampled_from(FIELDS))
    kind = data.draw(st.sampled_from(["loops", "cycle"]))
    a = z_algebra(kind, data.draw(st.integers(1, 4)), field)
    gens = data.draw(st.lists(st.tuples(st.integers(0, 2),
                                        st.integers(0, a.k - 1)),
                              min_size=1, max_size=3))
    m = projective_module(a, gens)
    seeds = {}
    for _ in range(data.draw(st.integers(0, 3))):
        d = data.draw(st.sampled_from(m.degrees()))
        seeds.setdefault(d, []).append(
            _vector(data.draw, field, m.component(d).dim))
    spaces = closure_under_action(m, seeds)
    for d, sp in spaces.items():
        comp = m.component(d)
        rows, tags, pivots = _tag_blocks(comp, sp)
        dense = tuple(tuple(r.get(i, field.zero()) for i in range(comp.dim))
                      for r in rows)
        assert (dense, tags, pivots) == tag_blocks_by_rref(comp, sp, field)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(2, 4),
       kind=st.sampled_from(["poly", "cycle"]), shift=st.integers(0, 3),
       seed=st.integers(0, 2 ** 31))
def test_category_module_matches_the_two_quotient_draw(field, n, kind, shift,
                                                      seed):
    a = z_algebra(kind, 2 * n + 1, field)
    u = DegreeSet.periodic(n, (0, 1))
    s = u.translate(shift)
    got = _outcome(lambda: random_category_module(a, s, u, seed))
    want = _outcome(lambda: category_module_by_two_quotients(a, s, u, seed))
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
    else:
        assert modules_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(FIELDS), top=st.integers(1, 3),
       data=st.data())
def test_subspaces_mixing_tags_are_refused(field, top, data):
    m = projective_module(z_algebra("cycle", top, field),
                          [(0, 0), (0, 1), (0, 0)])
    d = data.draw(st.sampled_from(m.degrees()))
    tags = m.component(d).right_tags
    # nonzero at one coordinate of each tag: its span is not the sum of its
    # tag blocks
    vec = _vector(data.draw, field, len(tags))
    for c in (0, 1):
        i = data.draw(st.sampled_from([i for i, t in enumerate(tags)
                                       if t == c]))
        vec[i] = field.from_int(data.draw(st.sampled_from([1, -1])))
    spaces = {d: Subspace.from_vectors(field, len(tags), [vec])}
    with pytest.raises(InternalConsistencyError):
        quotient_with_maps(m, spaces)
    with pytest.raises(InternalConsistencyError):
        submodule_from_subspaces(m, spaces)


# ---------------------------------------------------------------------------
# the lift


def _outcome(f):
    try:
        return f()
    except GradedSupportError as e:
        return type(e)


def _same_report(got, want):
    if isinstance(want, type) or isinstance(got, type):
        return got == want
    fields = ("liftable", "violations", "triples_checked",
              "isomorphism_certified", "generated_certified",
              "cogenerated_certified", "window_certified")
    if any(getattr(got, f) != getattr(want, f) for f in fields):
        return False
    if got.lift is None or want.lift is None:
        return got.lift is want.lift
    return modules_equal(got.lift, want.lift)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(2, 4),
       kind=st.sampled_from(["poly", "loops", "cycle"]),
       shift=st.integers(0, 3), killed=st.booleans(),
       seed=st.integers(0, 2 ** 31))
def test_lift_matches_the_two_quotient_construction(field, n, kind, shift,
                                                    killed, seed):
    # unpinned seeds: random_killed_module often gives non-liftable inputs
    a = z_algebra(kind, 2 * n + 1, field)
    u = DegreeSet.periodic(n, (0, 1))
    s = u.translate(shift)
    b = kill_support_algebra(a, u)
    if killed:
        x = random_killed_module(b, s, u, seed)
    else:
        x = kill_support_module(random_category_module(a, s, u, seed), s, u, b)
    got = _outcome(lambda: check_and_lift(x, s, u, a))
    want = _outcome(lambda: lift_by_two_quotients(x, s, u, a))
    assert _same_report(got, want)
    # the round trip; the certificate search is randomised, so only over
    # fields large enough for its random combinations
    if field in (GF(101), QQ) and not isinstance(got, type) and got.liftable:
        back = kill_support_module(got.lift, s, u, b)
        assert certified_isomorphism(back, x) is not None


@pytest.mark.parametrize("kind", ["poly", "loops", "cycle"])
def test_killed_regular_modules_lift_as_before(kind):
    a = z_algebra(kind, 7, GF(101))
    u = DegreeSet.periodic(3, (0, 1), Z)
    x = kill_support_module(regular_module(a), u, u)
    got = check_and_lift(x, u, u, a)
    assert got.liftable
    assert _same_report(got, lift_by_two_quotients(x, u, u, a))
