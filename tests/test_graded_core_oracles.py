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
and the same lift reports.  The lift has a second oracle, the one the
library ran before it read W off one vanishing scan: its own closure of the
evaluation kernels and its torsion preimage modulo that closure, which must
give the same lift with the same kept coordinates.  Those oracles read the action through
right_action_matrix, the dense per-generator view the library used to
build; the library reads only the stored action rows.

Hom spaces have two oracles.  One is the equations built from that dense
view, one per acting basis vector, rescanned for nonzeros.  The other is
the system the library solved before it read Hom off a presentation: every
entry of every f_d an unknown, and f_{d+u}(x a) = f_d(x) a imposed for
every basis x and a, built from the nonzeros of the stored rows of both
modules.  The library takes as unknowns only the images of M's generators,
with one equation per relation among them and coordinate of N.

The module builders have oracles too: the tag blocks that eliminated once
per tag and degree, which the library now reads off the canonical rows, and
the torsion-free random module that divided by the relation closure and
then by the torsion of that quotient, which the library builds as one
quotient by the torsion preimage.  That preimage has an oracle of its own:
the nullspace of the dense per-generator action matrices times the dense
unit residues modulo the relation closure, which the library read until it
took each class off the closure's canonical rows, and the random module
built on it.

Generation has the oracle the library used before it read generation off
the stored rows: the action closure of the full components at the given
degrees, compared with the whole module for is_generated_in and turned into
a submodule for generated_submodule.  is_generated_in decides, per degree,
whether the stored rows of the maps from those degrees span it (_spans);
generated_submodule is the action closure of the unit vectors there.  The
submodules of two-vertex projectives, generated, torsion or closed, are
also checked against their dense products, on each subspace's canonical
rows ordered by (tag, pivot).

The quotient itself has an oracle: the one that read every matched pair of
every map into a quotient degree and reduced each stored row against all
of W's pivots.  The library walks each map's stored rows once, through a
table of the pivots' classes per target degree.

The tag scan keeps the oracle that sorted every map's rows and entries
before testing them; the library makes one unsorted pass and sorts only
the map where it finds an escape.  Pair lists are cached per degree pair
and shared by tag shape; every cached list must equal a fresh
matched_pairs, also after a whole lift has read them.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedsupport import lifting
from gradedsupport.constructions import (_layout_module, group_algebra,
                                         present_module, projective_layout,
                                         projective_module, quiver_algebra,
                                         regular_module, truncated_polynomial)
from gradedsupport.errors import (GradedSupportError, InternalConsistencyError,
                                   PreconditionError)
from gradedsupport.exactlin import (GF, QQ, LabeledSpace, Matrix, Subspace,
                                    kernel, matched_pairs, nullspace, rref,
                                    subspace_intersect)
from gradedsupport.graded_core import (GradedAlgebra, GradedModule,
                                       _tag_blocks, _tag_escape,
                                       _vanishing_space,
                                       algebras_equal, closure_under_action,
                                       generated_submodule, hom_space_basis,
                                       hom_space_dim, is_generated_in,
                                       kill_support_algebra,
                                       kill_support_module, modules_equal,
                                       preimage_subspace, quotient_with_maps,
                                       regrade_algebra, regrade_module,
                                       shift_module, submodule_from_subspaces,
                                       torsion_quotient, torsion_spaces,
                                       torsion_submodule,
                                       un_regrade_module, validate_algebra,
                                       validate_module)
from gradedsupport.lifting import (LiftReport, _evaluation_rows,
                                   _generator_data, _rank,
                                   certified_isomorphism, check_and_lift,
                                   liftability_check, random_category_module,
                                   random_killed_module)
from gradedsupport.regrade_maps import delta_map
from gradedsupport.serialize import (algebra_to_json, dump_json,
                                     matrix_to_json, module_to_json)
from gradedsupport.subsets import DegreeSet, Z, Zn, quotient_set
from test_exactlin_oracles import apply_row, pivot_reduce, unit_residues


# ---------------------------------------------------------------------------
# oracles


def right_action_matrix(m, g, h, j):
    """Matrix of M_g -> M_{g+h}, x |-> x * a_j, zero rows padding the
    unmatched x_i; None when zero.  The dense view of the action that the
    library used to build, and the oracles below still read."""
    mat = m.action_matrix(g, h)
    tdim = m.component(m.add_deg(g, h)).dim
    if mat is None or tdim == 0:
        return None
    index = {p: r for r, p in enumerate(m.pairs(g, h))}
    zero_row = (m.field.zero(),) * tdim
    rows = [mat.entries[index[(i, j)]] if (i, j) in index else zero_row
            for i in range(m.component(g).dim)]
    return Matrix(m.field, len(rows), tdim, rows)


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
                    ra = right_action_matrix(m, d, u, j)
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
                    ra = right_action_matrix(n, d, u, j)
                    if ra is None:
                        continue
                    inter = subspace_intersect(
                        spaces[d], preimage_subspace(ra, spaces[t]))
                    if inter.dim < spaces[d].dim:
                        spaces[d] = inter
                        changed = True
    return spaces


def generated_by_closure(m, degrees):
    """The action closure of the full components at the given degrees."""
    seeds = {}
    for d in degrees:
        c = m.component(d)
        if c.dim:
            seeds[d] = list(Subspace.full(m.field, c.dim).basis)
    return closure_under_action(m, seeds)


def torsion_preimage_by_dense_residues(m, closed, s):
    """closed at degrees not off S; off S the x with x a_j zero modulo
    closed at each of them, as the nullspace of every dense
    right_action_matrix times the dense unit residues there."""
    F = m.field
    inside = {t for t in m.degrees() if s.try_contains(t) is not False}
    out = {}
    for d in m.degrees():
        if d in inside:
            out[d] = closed[d]
            continue
        eqs = []
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            if t not in inside:
                continue
            w = closed[t]
            res = Matrix(F, w.ambient, w.ambient - w.dim, unit_residues(w))
            for j in range(m.over.component(u).dim):
                ra = right_action_matrix(m, d, u, j)
                if ra is not None:
                    eqs.extend((ra @ res).transpose().entries)
        out[d] = nullspace(F, eqs, m.component(d).dim)
    return out


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
        rows = [[r.get(c, F.zero()) for c in range(xdim)]
                for r in _evaluation_rows(x, blocks, meta)]
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


def lift_by_closed_kernels(x, s, u, a):
    """The lift and the coordinates its quotient kept, with W the torsion
    preimage modulo the action closure of the evaluation kernels at the
    S-degrees; None when the containment scan rejects x."""
    if not liftability_check(x, s, u, a).liftable:
        return None
    F = a.field
    qdegs = [m for m in quotient_set(s, u).members_in(*x.window)
             if x.component(m).dim]
    if not qdegs:
        return GradedModule(a, x.window, {}, {}), None
    gens, meta = _generator_data(x, qdegs)
    pwindow, pcomps, layout = projective_layout(a, gens, x.window)
    induced = _layout_module(a, pwindow, pcomps, layout)
    kernels = {}
    for t in s.members_in(*x.window):
        if layout.get(t):
            ev = _evaluation_rows(x, layout[t], meta)
            kernels[t] = kernel(Matrix._of(F, len(ev), x.component(t).dim,
                                           tuple(ev))).basis
    lifted, _, keep = quotient_with_maps(induced, torsion_spaces(
        induced, s, closure_under_action(induced, kernels)))
    return lifted, keep


def hom_basis_by_dense_equations(m, n):
    """hom_space_basis with one equation per (d, u, j, i, c) read off the
    dense right_action_matrix of each side, rescanned for nonzeros."""
    F = m.field
    z = F.zero()
    offset = {}
    total = 0
    for d in sorted(set(m.degrees()) & set(n.degrees())):
        offset[d] = total
        total += m.component(d).dim * n.component(d).dim
    if total == 0:
        return []
    equations = []
    for d in m.degrees():
        md = m.component(d).dim
        nd = n.component(d).dim
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            nt = n.component(t).dim
            if nt == 0:
                continue
            for j in range(m.over.component(u).dim):
                tm = right_action_matrix(m, d, u, j)
                tn = right_action_matrix(n, d, u, j) if nd else None
                if tm is None and tn is None:
                    continue
                tm_nz = tn_nz = None
                if tm is not None and t in offset:
                    tm_nz = [[(mm * nt, e) for mm, e in enumerate(r) if e]
                             for r in tm.entries]
                if tn is not None and d in offset:
                    tn_nz = [[(q, tn.entries[q][c]) for q in range(nd)
                              if tn.entries[q][c]] for c in range(nt)]
                for i in range(md):
                    for c in range(nt):
                        row = {}
                        if tm_nz is not None:
                            base = offset[t] + c
                            for k, coef in tm_nz[i]:
                                row[base + k] = coef
                        if tn_nz is not None:
                            base = offset[d] + i * nd
                            for q, coef in tn_nz[c]:
                                row[base + q] = F.sub(row.get(base + q, z),
                                                      coef)
                        if row:
                            equations.append(row)
    out = []
    for vec in nullspace(F, equations, total).basis:
        maps = {}
        for d, base in offset.items():
            md, nd = m.component(d).dim, n.component(d).dim
            maps[d] = Matrix(F, md, nd, [
                tuple(vec.get(base + i * nd + q, z) for q in range(nd))
                for i in range(md)])
        out.append(maps)
    return out


def hom_equations(m, n):
    """(offset, total, equations) of the degree-0 module maps M -> N.

    The unknowns of f_d are its entries from offset[d] on, total in all;
    they exist only at degrees where both components are nonzero, and maps
    out of or into zero components give one-sided constraints.  Equation
    (d, u, i, j, c) is entry c of f_{d+u}(x_i a_j) - f_d(x_i) a_j, for every
    module degree, algebra degree and tag-matched x_i and a_j, built from
    the nonzeros of M's and N's stored action rows.
    """
    F = m.field
    offset = {}
    total = 0
    for d in sorted(set(m.degrees()) & set(n.degrees())):
        offset[d] = total
        total += m.component(d).dim * n.component(d).dim
    equations = []
    adegs = m.over.degrees() if total else ()
    for d in m.degrees():
        nd = n.component(d).dim
        ntags = n.component(d).right_tags
        same_tag = {}  # tag -> the i with that right tag in M_d
        for i, tag in enumerate(m.component(d).right_tags):
            same_tag.setdefault(tag, []).append(i)
        for u in adegs:
            t = m.add_deg(d, u)
            nt = n.component(t).dim
            if nt == 0:
                continue
            eqs = {}  # (j, i, c) -> equation; stored rows imply the unknowns
            for (i, j), row in m._map_rows(d, u):
                # f_t(x_i a_j)[c] = sum over k of row[k] f_t[k][c]
                nz = [(offset[t] + k * nt, e) for k, e in row.items()]
                for c in range(nt):
                    eqs[(j, i, c)] = {col + c: e for col, e in nz}
            for (q, j), row in n._map_rows(d, u):
                # (f_d(x_i) a_j)[c] = sum over q of f_d[i][q] row[c], for
                # the i tag-matched to a_j
                for c, e in row.items():
                    ne = F.neg(e)
                    for i in same_tag.get(ntags[q], ()):
                        eq = eqs.setdefault((j, i, c), {})
                        col = offset[d] + i * nd + q
                        eq[col] = F.sub(eq[col], e) if col in eq else ne
            equations.extend(eqs[key] for key in sorted(eqs))
    return offset, total, equations


def hom_basis_by_equations(m, n):
    """The nullspace of hom_equations, one Matrix per degree."""
    offset, total, equations = hom_equations(m, n)
    if total == 0:
        return []
    F = m.field
    z = F.zero()
    out = []
    for vec in nullspace(F, equations, total).basis:
        out.append({d: Matrix(F, m.component(d).dim, n.component(d).dim, [
            [vec.get(base + i * n.component(d).dim + q, z)
             for q in range(n.component(d).dim)]
            for i in range(m.component(d).dim)])
            for d, base in offset.items()})
    return out


def hom_dim_by_equations(m, n):
    """The unknowns of hom_equations less the rank of its equations."""
    _, total, equations = hom_equations(m, n)
    return total - _rank(m.field, equations, total)


def commutes_with_action(m, n, f):
    """Whether f_{d+u}(x a_j) = f_d(x) a_j for every basis x and a_j, with
    the components of f that are absent read as zero."""
    F = m.field

    def dense(mat, rows, cols):
        return Matrix.zero(F, rows, cols) if mat is None else mat

    for d in m.degrees():
        md, nd = m.component(d).dim, n.component(d).dim
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            mt, nt = m.component(t).dim, n.component(t).dim
            for j in range(m.over.component(u).dim):
                lhs = (dense(right_action_matrix(m, d, u, j), md, mt)
                       @ dense(f.get(t), mt, nt))
                rhs = (dense(f.get(d), md, nd)
                       @ dense(right_action_matrix(n, d, u, j), nd, nt))
                if lhs != rhs:
                    return False
    return True


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


def quotient_by_pivot_reduction(m, spaces):
    """quotient_with_maps as it read the action before its class tables:
    every matched pair (x_keep[i], a_j) of every map into a quotient
    degree, each stored row reduced by pivot_reduce over all of W's
    pivots at its target.  Returns (quotient, project, keep)."""
    F = m.field
    reducers, comps = {}, {}
    for d in m.degrees():
        comp = m.component(d)
        rows, _, pivots = _tag_blocks(
            comp, spaces.get(d, Subspace.zero(F, comp.dim)))
        keep = sorted(set(range(comp.dim)) - set(pivots),
                      key=lambda i: (comp.right_tags[i], i))
        reducers[d] = (rows, pivots, keep,
                       {i: pos for pos, i in enumerate(keep)})
        if keep:
            comps[d] = LabeledSpace.module_component(
                tuple(comp.right_tags[i] for i in keep))

    def project(d, vec):
        rows, pivots, keep, at = reducers[d]
        v = pivot_reduce(F, rows, pivots, vec)[0]
        if isinstance(v, dict):
            return {at[i]: c for i, c in v.items()}
        return tuple(v[i] for i in keep)

    action = {}
    for d, cd in comps.items():
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            if t in comps:
                action[(d, u)] = {
                    (i, j): project(t, vec)
                    for i, j in matched_pairs(cd, m.over.component(u))
                    if (vec := m.action_row(d, u, reducers[d][2][i], j))}
    keep_map = {d: tuple(r[2]) for d, r in reducers.items()}
    return GradedModule(m.over, m.window, comps, action), project, keep_map


def category_module_by_two_quotients(alg, s, u, seed):
    """random_category_module's draws, divided by the relation closure and
    then by the torsion of that quotient."""
    def divide(proj, seeds):
        closed = closure_by_fixed_point(proj, seeds)
        return torsion_quotient(quotient_with_maps(proj, closed)[0], s)
    return _category_draws(divide, alg, s, u, seed)


def category_module_by_dense_residues(alg, s, u, seed):
    """random_category_module's draws, divided once by the dense-residue
    torsion preimage of the relation closure."""
    def divide(proj, seeds):
        closed = closure_under_action(proj, seeds)
        return quotient_with_maps(proj, torsion_preimage_by_dense_residues(
            proj, closed, s))[0]
    return _category_draws(divide, alg, s, u, seed)


def _category_draws(divide, alg, s, u, seed, window=None, max_gens=2,
                    max_relations=2):
    """random_category_module's draws of a projective and relation seeds,
    each divided by divide(proj, seeds) until a nonzero module comes."""
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
        module = divide(proj, seeds)
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


def _presented_over(draw, a):
    """present_module over a with a few random relations; over Z with
    generators at negative degrees too, then maybe shifted."""
    if a.group.kind == "Zn":
        gens = draw(st.lists(st.integers(0, a.group.n - 1), min_size=1,
                             max_size=3))
    else:
        gens = draw(st.lists(st.integers(-3, 2), min_size=1, max_size=3))
    free = present_module(a, gens, [])
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.sampled_from(free.degrees()))
        relations.append((d, _vector(draw, a.field, free.component(d).dim)))
    m = present_module(a, gens, relations)
    if m.group.kind == "Z" and draw(st.booleans()):
        m = shift_module(m, draw(st.integers(-4, 4)))
    return m


@st.composite
def presented_modules(draw):
    """present_module over Z or over Z/n, with a few random relations."""
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        a = group_algebra(draw(st.integers(1, 5)), field)
    else:
        a = z_algebra(draw(st.sampled_from(["poly", "loops"])),
                      draw(st.integers(1, 4)), field)
    return _presented_over(draw, a)


@st.composite
def module_pairs(draw):
    """Two modules over one algebra: presented over Z/n or Z, where the
    independent shifts often leave one side zero where the other is not, or
    projective over the two-vertex quiver, whose unmatched pairs (x_i, a_j)
    still give equations."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["Zn", "poly", "loops", "cycle"]))
    if kind == "Zn":
        a = group_algebra(draw(st.integers(1, 5)), field)
    else:
        a = z_algebra(kind, draw(st.integers(1, 4)), field)

    def one():
        if kind != "cycle":
            return _presented_over(draw, a)
        gens = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                             min_size=1, max_size=3))
        m = projective_module(a, gens)
        return shift_module(m, draw(st.integers(-2, 2)))

    return one(), one()


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
    # generation too keeps the generating components themselves
    assert is_generated_in(m, [0, 1, 2]) and not is_generated_in(m, [0, 1])
    assert modules_equal(generated_submodule(m, [1]), submodule_from_subspaces(
        m, generated_by_closure(m, [1])))


def test_vanishing_space_counts_x_itself_at_its_degree():
    m = _zero_action_module(GF(3))
    f = m.field
    ev = Matrix.from_rows(f, [[f.one()], [f.zero()]])
    full = Subspace.full(f, 2)
    # no action to push through: off S nothing cuts the space down, and at
    # the degree inside S only x itself, which must lie in W_1 = ker ev_1
    got = torsion_spaces(m, DegreeSet.windowed([1], (0, 2)), {1: kernel(ev)})
    assert [got[d] for d in range(3)] == [full, kernel(ev), full]
    assert _vanishing_space(m, 0, {1: ev.nz}) == full
    assert _vanishing_space(m, 0, {1: None}) == full


# ---------------------------------------------------------------------------
# hom spaces


@settings(max_examples=80, deadline=None)
@given(pair=module_pairs())
def test_hom_basis_matches_the_dense_equations(pair):
    m, n = pair
    got = hom_space_basis(m, n)
    assert got == hom_basis_by_dense_equations(m, n)
    assert all(commutes_with_action(m, n, f) for f in got)


def test_hom_with_one_sided_equations():
    # K[x]/(x^3) and its simple module S at degree 0.  S -> A is zero (x
    # kills S but not A_0), A -> S is the top, and A shifted by 2 maps onto
    # A_2: each has degrees where only one side is nonzero
    a = truncated_polynomial(3, field=GF(3))
    s = present_module(a, [0], [(1, [a.field.one()])])
    reg = regular_module(a)
    for m, n, dim in ((s, reg, 0), (reg, s, 1), (shift_module(reg, 2), reg, 1)):
        got = hom_space_basis(m, n)
        assert got == hom_basis_by_dense_equations(m, n)
        assert len(got) == dim
        assert all(commutes_with_action(m, n, f) for f in got)


def dual_numbers_in_degree_0(field):
    """K[y]/(y^2) (x) K[x]/(x^2) with deg y = 0 and deg x = 1: dim A_0 = 2
    for one idempotent, so rad A_0 = K y is not seen by the grading."""
    o = field.one()
    comps = {0: LabeledSpace.untagged(2), 1: LabeledSpace.untagged(2)}
    # basis 1, y at degree 0 and x, xy at degree 1
    mult = {(0, 0): {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}},
            (0, 1): {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}},
            (1, 0): {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}}}
    return GradedAlgebra(Z, (0, 1), 1, field, comps, mult, (o, field.zero()))


def _projective_quotient(draw, a):
    """A projective over a with tagged generators at degrees -2..2, modulo
    the submodule a few random vectors generate."""
    gens = draw(st.lists(st.tuples(st.integers(-2, 2),
                                   st.integers(0, a.k - 1)),
                         min_size=1, max_size=3))
    m = projective_module(a, gens)
    seeds = {}
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.sampled_from(m.degrees()))
        seeds.setdefault(d, []).append(
            _vector(draw, a.field, m.component(d).dim))
    return quotient_with_maps(m, closure_under_action(m, seeds))[0]


@st.composite
def hom_pairs(draw, field=None):
    """Two modules over one algebra, over the given field or any of FIELDS.

    M's generators are a minimal set only over the algebras graded in
    degrees >= 0 with A_0 the idempotents; Z/n, K[x]/(x^k) with deg x = -1
    and the dual numbers in degree 0 cover the others.  Presented modules have generators at
    negative degrees and shifts, so they are not generated in any (S:U)
    degrees; the two-vertex quiver gives quotients of projectives with
    tag-blocked components; category modules are generated in (S:U)
    degrees, and killed modules live over A_U.
    """
    if field is None:
        field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["Zn", "poly", "neg", "loops", "dual",
                                 "cycle", "category", "killed"]))
    if kind in ("category", "killed"):
        n = draw(st.integers(2, 4))
        a = z_algebra(draw(st.sampled_from(["poly", "loops", "cycle"])),
                      2 * n + 1, field)
        u = DegreeSet.periodic(n, (0, 1))
        s = u.translate(draw(st.integers(0, n - 1)))
        seeds = [draw(st.integers(0, 2 ** 31)) for _ in range(2)]
        if kind == "category":
            return tuple(random_category_module(a, s, u, x) for x in seeds)
        b = kill_support_algebra(a, u)
        if draw(st.booleans()):
            return tuple(random_killed_module(b, s, u, x) for x in seeds)
        return tuple(kill_support_module(random_category_module(a, s, u, x),
                                         s, u, b) for x in seeds)
    if kind == "Zn":
        a = group_algebra(draw(st.integers(1, 5)), field)
    elif kind == "neg":
        a = truncated_polynomial(draw(st.integers(1, 4)), -1, field=field)
    elif kind == "dual":
        a = dual_numbers_in_degree_0(field)
    else:
        a = z_algebra(kind, draw(st.integers(1, 4)), field)
    if kind == "cycle":
        return _projective_quotient(draw, a), _projective_quotient(draw, a)
    return _presented_over(draw, a), _presented_over(draw, a)


def test_dual_numbers_in_degree_0_are_an_algebra():
    for field in FIELDS:
        a = dual_numbers_in_degree_0(field)
        assert validate_algebra(a).holds
        assert validate_module(regular_module(a)).holds


@settings(max_examples=150, deadline=None)
@given(pair=hom_pairs())
def test_hom_from_the_presentation_matches_the_equations_on_every_entry(pair):
    m, n = pair
    got = hom_space_basis(m, n)
    assert got == hom_basis_by_equations(m, n)
    assert hom_space_dim(m, n) == hom_dim_by_equations(m, n) == len(got)
    assert all(commutes_with_action(m, n, f) for f in got)


def test_hom_refuses_a_module_its_generators_do_not_span():
    # every action zero, the unit's too: the generators of M_0 carry no
    # image of themselves, so M is not presented by them
    m = _zero_action_module(GF(3))
    with pytest.raises(PreconditionError, match="not a module"):
        hom_space_dim(m, regular_module(m.over))


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


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["poly", "loops", "cycle"])
def test_category_module_matches_the_dense_residue_build(field, kind):
    # S = U and three translates S != U, on fixed seeds
    for n, shift in ((3, 0), (3, 2), (4, 1), (5, 2)):
        a = z_algebra(kind, 2 * n + 1, field)
        u = DegreeSet.periodic(n, (0, 1))
        s = u.translate(shift)
        for seed in range(4):
            got = _outcome(lambda: random_category_module(a, s, u, seed))
            want = _outcome(
                lambda: category_module_by_dense_residues(a, s, u, seed))
            assert isinstance(got, type) == isinstance(want, type)
            assert got == want if isinstance(got, type) \
                else modules_equal(got, want)


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


def _rescaled(draw, m):
    """m on the basis lambda_i x_i for random nonzero lambda_i: x_i a_j =
    sum v_q x_q becomes sum (lambda_i v_q / lambda_q) x_q, so one-entry
    action rows carry scalars other than 1."""
    F = m.field
    lam = {d: [F.from_int(draw(st.integers(1, 5))) or F.one()
               for _ in range(m.component(d).dim)] for d in m.degrees()}
    action = {(g, h): {(i, j): {q: F.mul(F.mul(lam[g][i], v),
                                         F.inv(lam[m.add_deg(g, h)][q]))
                                for q, v in row.items()}
                       for (i, j), row in m._map_rows(g, h)}
              for g, h in m._maps}
    return GradedModule(m.over, m.window, m.components, action)


def _relation_closure(draw, m):
    """The action closure of a few random vectors of m."""
    seeds = {}
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.sampled_from(m.degrees()))
        seeds.setdefault(d, []).append(
            _vector(draw, m.field, m.component(d).dim))
    return closure_under_action(m, seeds)


@settings(max_examples=80, deadline=None)
@given(pair=hom_pairs(), data=st.data())
def test_generation_matches_the_closure_of_full_seeds(pair, data):
    for m in pair:
        if not m.degrees():
            continue
        m = quotient_with_maps(m, _relation_closure(data.draw, m))[0]
        degrees = data.draw(degree_sets(m)).members_in(*m.window)
        spaces = generated_by_closure(m, degrees)
        assert is_generated_in(m, degrees) == all(
            spaces[d].dim == m.component(d).dim for d in m.degrees())
        assert modules_equal(generated_submodule(m, degrees),
                             submodule_from_subspaces(m, spaces))


def submodule_by_dense_products(m, spaces):
    """The submodule on action-closed spaces, densely: at each degree d the
    canonical rows of W_d ordered by (right tag, pivot), and each product
    b_i a_j through the dense action, written in the target's ordered rows
    by its entries at their pivots and summed back to check.  Returns
    ({d: tags}, {(d, u, i, j): coordinates}), zero products left out."""
    F = m.field
    bases = {}
    for d, sp in spaces.items():
        tags = m.component(d).right_tags
        if sp.dim:
            bases[d] = sorted(zip(sp.rows, sp.pivots),
                              key=lambda rp: (tags[rp[1]], rp[1]))
    products = {}
    for d, basis in bases.items():
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            for j in range(m.over.component(u).dim):
                ra = right_action_matrix(m, d, u, j)
                for i, (b, _) in enumerate(basis):
                    got = apply_row(F, b, ra) if ra is not None else ()
                    if not any(got):
                        continue
                    coords = tuple(got[p] for _, p in bases[t])
                    back = [F.zero()] * len(got)
                    for c, (row, _) in zip(coords, bases[t]):
                        back = [F.add(x, F.mul(c, y)) for x, y in zip(back, row)]
                    assert back == got, "a product leaves the subspaces"
                    products[(d, u, i, j)] = coords
    tags = {d: tuple(m.component(d).right_tags[p] for _, p in basis)
            for d, basis in bases.items()}
    return tags, products


def _dense_products(sub):
    """({d: tags}, {(d, u, i, j): coordinates}) of a module's stored rows,
    zero products left out."""
    z = sub.field.zero()
    products = {}
    for (d, u), rows in sub._maps.items():
        dim = sub.component(sub.add_deg(d, u)).dim
        for (i, j), row in rows.items():
            if row:
                products[(d, u, i, j)] = tuple(row.get(q, z)
                                               for q in range(dim))
    return ({d: c.right_tags for d, c in sub.components.items()}, products)


# two-vertex quivers whose projectives hold both tags at one degree, in an
# order that is not the order of the tags: the loops a, b and x: 0 -> 1,
# y: 1 -> 0 with xy = aa = 0, the cycle x, y, and a pair of parallel
# arrows x, z: 0 -> 1 with xy = zy
TWO_VERTEX_QUIVERS = [
    ([(0, 1), (1, 0), (0, 0), (1, 1)], [[(1, (0, 1))], [(1, (2, 2))]], 4),
    ([(0, 1), (1, 0)], [], 5),
    ([(0, 1), (1, 0), (0, 1)], [[(1, (0, 1)), (-1, (2, 1))]], 4),
]


@pytest.mark.parametrize("quiver", TWO_VERTEX_QUIVERS)
@pytest.mark.parametrize("gens", [[(0, 1), (0, 0)], [(0, 0), (1, 1)],
                                  [(0, 1), (1, 0), (2, 1)]])
@pytest.mark.parametrize("field", [GF(7), QQ])
def test_submodules_of_two_vertex_projectives_are_ordered_by_tag(
        quiver, gens, field):
    # generated, torsion and closure submodules: each a module, on the
    # subspaces' canonical rows ordered by (tag, pivot), acting as m does
    a = quiver_algebra(2, *quiver, field)
    m = projective_module(a, gens)
    rng = random.Random(repr((quiver, gens)))
    cases = [(generated_submodule(m, degrees),
              generated_by_closure(m, degrees))
             for degrees in ([1], [0, 2], [1, 2], [2])]
    cases += [(torsion_submodule(m, s), torsion_by_fixed_point(m, s))
              for s in (DegreeSet.periodic(3, (0, 1)),
                        DegreeSet.periodic(2, (1,)),
                        DegreeSet.periodic(3, (1, 2)))]
    for _ in range(4):
        seeds = {}
        for d in rng.sample(m.degrees(), 2):
            seeds[d] = [[field.from_int(rng.randrange(-2, 3))
                         for _ in range(m.component(d).dim)]]
        spaces = closure_by_fixed_point(m, seeds)
        cases.append((submodule_from_subspaces(m, spaces), spaces))
    for sub, spaces in cases:
        assert validate_module(sub).holds
        assert _dense_products(sub) == submodule_by_dense_products(m, spaces)


@settings(max_examples=80, deadline=None)
@given(pair=hom_pairs(), data=st.data())
def test_torsion_preimage_matches_the_dense_residues(pair, data):
    for m in pair:
        if not m.degrees():
            continue
        closed = _relation_closure(data.draw, m)
        s = data.draw(degree_sets(m))
        assert torsion_spaces(m, s, closed) \
            == torsion_preimage_by_dense_residues(m, closed, s)
        zero = {d: Subspace.zero(m.field, m.component(d).dim)
                for d in m.degrees()}
        assert torsion_spaces(m, s) == torsion_spaces(m, s, zero) \
            == torsion_preimage_by_dense_residues(m, zero, s)


@settings(max_examples=80, deadline=None)
@given(pair=hom_pairs(), data=st.data())
def test_quotient_matches_pivot_reduction_per_row(pair, data):
    for m in pair:
        if not m.degrees():
            continue
        if data.draw(st.booleans()):
            m = _rescaled(data.draw, m)
        seeds = {}
        for _ in range(data.draw(st.integers(0, 3))):
            d = data.draw(st.sampled_from(m.degrees()))
            seeds.setdefault(d, []).append(
                _vector(data.draw, m.field, m.component(d).dim))
        spaces = closure_under_action(m, seeds)
        if data.draw(st.booleans()):
            spaces = torsion_spaces(m, data.draw(degree_sets(m)), spaces)
        got, project, keep = quotient_with_maps(m, spaces)
        want, want_project, want_keep = quotient_by_pivot_reduction(m, spaces)
        assert got.components == want.components
        # every stored row, and the maps present with no nonzero row
        assert got._maps == want._maps
        assert keep == want_keep
        for d in m.degrees():
            vec = _vector(data.draw, m.field, m.component(d).dim)
            assert project(d, vec) == want_project(d, vec)
            row = {i: x for i, x in enumerate(vec) if x}
            assert project(d, row) == want_project(d, row)


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


def _lift_and_keep(x, s, u, a):
    """check_and_lift's lift and the coordinates its quotient kept (None
    when it builds no quotient), or None when x does not lift."""
    kept = []

    def recording(m, spaces):
        got = quotient_with_maps(m, spaces)
        kept.append(got[2])
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifting, "quotient_with_maps", recording)
        report = check_and_lift(x, s, u, a)
    if not report.liftable:
        assert report.lift is None
        return None
    return report.lift, kept[0] if kept else None


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(3, 5),
       kind=st.sampled_from(["poly", "loops", "cycle"]),
       shift=st.integers(0, 4), killed=st.booleans(),
       seed=st.integers(0, 2 ** 31))
def test_lift_matches_the_closed_kernel_quotient(field, n, kind, shift,
                                                 killed, seed):
    a = z_algebra(kind, 2 * n + 1, field)
    u = DegreeSet.periodic(n, (0, 1))
    s = u.translate(shift)
    b = kill_support_algebra(a, u)
    if killed:
        x = random_killed_module(b, s, u, seed)
    else:
        x = kill_support_module(random_category_module(a, s, u, seed), s, u, b)
    got = _outcome(lambda: _lift_and_keep(x, s, u, a))
    want = _outcome(lambda: lift_by_closed_kernels(x, s, u, a))
    if got is None or want is None or isinstance(want, type):
        assert got == want
        return
    assert modules_equal(got[0], want[0])
    assert got[1] == want[1]


def test_a_forced_containment_pass_never_returns_a_lift():
    # the certificates vouch for the lift on their own: with the scan
    # forced to pass, every module it rejects ends in an internal error
    field = GF(101)
    rejected = 0
    for n in (3, 4, 5):
        a = z_algebra("poly", 2 * n + 1, field)
        u = DegreeSet.periodic(n, (0, 1))
        b = kill_support_algebra(a, u)
        for seed in range(60):
            x = random_killed_module(b, u, u, seed)
            if liftability_check(x, u, u, a).liftable:
                continue
            rejected += 1
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lifting, "_liftability",
                           lambda *_: LiftReport(True, ()))
                with pytest.raises(InternalConsistencyError):
                    check_and_lift(x, u, u, a)
    assert rejected >= 30


@pytest.mark.parametrize("kind", ["poly", "loops", "cycle"])
def test_killed_regular_modules_lift_as_before(kind):
    a = z_algebra(kind, 7, GF(101))
    u = DegreeSet.periodic(3, (0, 1), Z)
    x = kill_support_module(regular_module(a), u, u)
    got = check_and_lift(x, u, u, a)
    assert got.liftable
    assert _same_report(got, lift_by_two_quotients(x, u, u, a))


@settings(max_examples=60, deadline=None)
@given(pair=module_pairs())
def test_hom_dim_is_the_length_of_the_hom_basis(pair):
    m, n = pair
    assert hom_space_dim(m, n) == len(hom_space_basis(m, n))


# ---------------------------------------------------------------------------
# stored rows against dense tables
#
# One random table of dense entries builds each object twice: from Matrix
# maps and from {(i, j): {col: value}} dicts of their rows keyed by matched
# pair, written out here.  A map may be absent, or present with no nonzero
# row, and the two stay apart.  The dense views must give back the
# Matrices, serialize must write what the matrix writer writes for them,
# and every operation must agree on the two.  The tables are random, not
# modules, so only the two builds are compared.


def _random_table(draw, field, comps, acting, window):
    """(Matrix maps, the same maps keyed by pair) over the nonempty (g, h)
    of the window.  Each map is absent, zero or drawn from 0, 0, 1, -1 and
    2; a zero map is an empty dict, and a drawn one keeps its zero rows as
    empty dicts, which the build drops."""
    dense, sparse = {}, {}
    for g in sorted(comps):
        for h in sorted(acting):
            t = g + h
            if t not in comps or not window[0] <= t <= window[1]:
                continue
            pairs = matched_pairs(comps[g], acting[h])
            kind = draw(st.sampled_from(["absent", "zero", "drawn", "drawn"]))
            if not pairs or kind == "absent":
                continue
            values = [0, 0, 1, -1, 2] if kind == "drawn" else [0]
            entries = [[field.from_int(draw(st.sampled_from(values)))
                        for _ in range(comps[t].dim)] for _ in pairs]
            dense[(g, h)] = Matrix(field, len(pairs), comps[t].dim, entries)
            sparse[(g, h)] = {} if kind == "zero" else {
                p: {c: e for c, e in enumerate(row) if e}
                for p, row in zip(pairs, entries)}
    return dense, sparse


def _random_components(draw, k, degrees):
    comps = {}
    for d in degrees:
        dim = draw(st.integers(0, 2))
        if dim:
            comps[d] = LabeledSpace(
                dim, tuple(draw(st.integers(0, k - 1)) for _ in range(dim)),
                tuple(draw(st.integers(0, k - 1)) for _ in range(dim)))
    return comps


@st.composite
def dense_and_sparse_builds(draw):
    """One random algebra and two random modules over it, each as (dense
    table, built from the Matrices, built from the pair-keyed rows)."""
    field = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 2))
    top = draw(st.integers(1, 4))
    comps = _random_components(draw, k, range(1, top + 1))
    comps[0] = (LabeledSpace(k, tuple(range(k)), tuple(range(k))) if k == 2
                else LabeledSpace.untagged(draw(st.integers(1, 2))))
    unit = (field.one(),) * k + (field.zero(),) * (comps[0].dim - k)
    dense, sparse = _random_table(draw, field, comps, comps, (0, top))
    algebra = (dense,) + tuple(
        GradedAlgebra(Z, (0, top), k, field, comps, table, unit)
        for table in (dense, sparse))
    modules = []
    for _ in range(2):
        lo = draw(st.integers(-2, 1))
        window = (lo, lo + draw(st.integers(0, 4)))
        mcomps = _random_components(draw, k, range(window[0], window[1] + 1))
        dense, sparse = _random_table(draw, field, mcomps, comps, window)
        modules.append((dense,) + tuple(
            GradedModule(a, window, mcomps, table)
            for a, table in zip(algebra[1:], (dense, sparse))))
    return algebra, modules


def _json_by_matrix_writer(table):
    """The maps of a JSON document as matrix_to_json writes the Matrices."""
    return [{"g": g, "h": h, "matrix": matrix_to_json(table[(g, h)])}
            for (g, h) in sorted(table)]


def _module_result(f):
    """f's outcome, with a module written out as JSON."""
    got = _outcome(f)
    return module_to_json(got) if isinstance(got, GradedModule) else got


@settings(max_examples=80, deadline=None)
@given(builds=dense_and_sparse_builds(), data=st.data())
def test_rows_and_matrices_build_the_same_objects(builds, data):
    (mult, a_dense, a_rows), modules = builds
    assert a_dense.mult == a_rows.mult == mult
    assert algebras_equal(a_dense, a_rows)
    doc = algebra_to_json(a_dense)
    assert json.dumps(doc) == json.dumps(algebra_to_json(a_rows))
    assert doc["mult"] == _json_by_matrix_writer(mult)
    assert validate_algebra(a_dense) == validate_algebra(a_rows)
    for action, m_dense, m_rows in modules:
        assert m_dense.action == m_rows.action == action
        assert modules_equal(m_dense, m_rows)
        doc = module_to_json(m_dense)
        assert json.dumps(doc) == json.dumps(module_to_json(m_rows))
        assert doc["action"] == _json_by_matrix_writer(action)
        assert validate_module(m_dense) == validate_module(m_rows)
    (_, m, m2), (_, n, n2) = modules
    field = m.field

    # closure, torsion and the quotient by the closure, with project
    seeds = {}
    for _ in range(data.draw(st.integers(0, 2)) if m.degrees() else 0):
        d = data.draw(st.sampled_from(m.degrees()))
        seeds.setdefault(d, []).append(
            _vector(data.draw, field, m.component(d).dim))
    closed = closure_under_action(m, seeds)
    assert closed == closure_under_action(m2, seeds)
    s = DegreeSet.periodic(2, (data.draw(st.integers(0, 1)),))
    assert torsion_spaces(m, s) == torsion_spaces(m2, s)
    got = _outcome(lambda: quotient_with_maps(m, closed))
    want = _outcome(lambda: quotient_with_maps(m2, closed))
    if isinstance(got, type) or isinstance(want, type):
        assert got == want
    else:
        assert module_to_json(got[0]) == module_to_json(want[0])
        assert got[2] == want[2]
        for d in m.degrees():
            vec = _vector(data.draw, field, m.component(d).dim)
            out = got[1](d, vec)
            assert isinstance(out, tuple) and out == want[1](d, vec)

    got = _outcome(lambda: hom_space_basis(m, n))
    assert got == _outcome(lambda: hom_space_basis(m2, n2))

    # kill, regrade and un-regrade
    u = DegreeSet.periodic(data.draw(st.integers(2, 4)), (0, 1))
    shift = data.draw(st.integers(0, 2))
    killed = [_module_result(lambda x=x: kill_support_module(
        x, u.translate(shift), u)) for x in (m, m2)]
    assert killed[0] == killed[1]
    phi = delta_map(u, 0, (-2, 4))
    for f in (lambda x: regrade_module(x, phi),
              lambda x: un_regrade_module(regrade_module(x, phi), phi),
              lambda x: un_regrade_module(x, phi)):
        assert _module_result(lambda: f(m)) == _module_result(lambda: f(m2))
    for f in (kill_support_algebra, lambda b, u: regrade_algebra(b, phi)):
        assert _outcome(lambda: algebra_to_json(f(a_dense, u))) \
            == _outcome(lambda: algebra_to_json(f(a_rows, u)))


# ---------------------------------------------------------------------------
# the tag scan and the shared pair lists


def tag_escape_by_sorted_rows(x):
    """_tag_escape as it was: every map's rows and entries sorted."""
    right = x._acting()
    both_sides = right is x
    for (g, h) in x._maps:
        cg, ch = x.component(g), right.component(h)
        ct = x.component(x.add_deg(g, h))
        for (i, j), row in sorted(x._map_rows(g, h)):
            for q in sorted(row):
                if (ct.right_tags[q] != ch.right_tags[j]
                        or both_sides and ct.left_tags[q] != cg.left_tags[i]):
                    return ("tags", g, h, i, j, q)
    return None


def _any_rows(draw, field, group, comps, acting):
    """Maps on the matched pairs of comps x acting whose rows may land on
    any column of the target, whatever its tags: some absent, some zero."""
    table = {}
    for g in sorted(comps):
        for h in sorted(acting):
            t = group.add(g, h)
            pairs = matched_pairs(comps[g], acting[h])
            if t not in comps or not pairs or draw(st.booleans()):
                continue
            cols = st.sets(st.integers(0, comps[t].dim - 1), max_size=2)
            table[(g, h)] = {p: {c: field.one() for c in draw(cols)}
                             for p in pairs}
    return table


@st.composite
def tagged_objects(draw, retag=True):
    """An algebra, or a module over one, over Z or Z/n with k = 1-3 tags,
    its rows landing anywhere; or a valid module over the two-vertex quiver.
    Then, with retag, maybe one component re-tagged at random, in range or
    out (in place, so that the pair cache no longer applies)."""
    field = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(2, 4))
        u = DegreeSet.periodic(n, (0, 1))
        x = random_killed_module(kill_support_algebra(
            z_algebra("cycle", 2 * n + 1, field), u), u, u,
            draw(st.integers(0, 2 ** 31)))
    else:
        n = draw(st.sampled_from([None, 2, 3]))
        group, top = (Z, draw(st.integers(1, 3))) if n is None \
            else (Zn(n), n - 1)
        comps = _random_components(draw, k, range(1, top + 1))
        comps[0] = (LabeledSpace(k, tuple(range(k)), tuple(range(k)))
                    if k >= 2 else LabeledSpace.untagged(1))
        x = GradedAlgebra(group, (0, top), k, field, comps,
                          _any_rows(draw, field, group, comps, comps),
                          (field.one(),) * k)
        if draw(st.booleans()):
            mcomps = _random_components(draw, k, range(top + 1))
            x = GradedModule(x, (0, top), mcomps,
                             _any_rows(draw, field, group, mcomps, comps))
    if retag and x.components and draw(st.booleans()):
        d = draw(st.sampled_from(sorted(x.components)))
        dim = x.components[d].dim
        tags = st.lists(st.integers(0, k), min_size=dim, max_size=dim)
        x.components[d] = LabeledSpace(dim, tuple(draw(tags)),
                                       tuple(draw(tags)))
    return x


@settings(max_examples=200, deadline=None)
@given(x=tagged_objects())
def test_tag_scan_names_the_sorted_scans_witness(x):
    assert _tag_escape(x) == tag_escape_by_sorted_rows(x)
    if x._acting() is not x:
        assert _tag_escape(x.over) == tag_escape_by_sorted_rows(x.over)


def test_tag_scan_names_the_least_entry_of_the_first_bad_map():
    # two escapes in one map: the sorted scan's, not the first row stored
    field = GF(3)
    c = LabeledSpace(2, (0, 1), (0, 1))
    a = GradedAlgebra(Z, (0, 1), 2, field,
                      {0: LabeledSpace(2, (0, 1), (0, 1)), 1: c},
                      {(0, 0): {(0, 0): {0: 1}, (1, 1): {1: 1}},
                       (1, 0): {(1, 1): {0: 1}, (0, 0): {1: 1}}}, (1, 1))
    assert tag_escape_by_sorted_rows(a) == ("tags", 1, 0, 0, 0, 1)
    assert _tag_escape(a) == ("tags", 1, 0, 0, 0, 1)


def _stale_pair_lists(*objects):
    """Each cached pair list that differs from a fresh matched_pairs: by
    degree pair, and by the tag shape of a shared list."""
    bad = []
    for x in objects:
        for key, got in x._pair_cache.items():
            if type(key[0]) is tuple:
                rt, lt = key
                want = matched_pairs(LabeledSpace.module_component(rt),
                                     LabeledSpace.module_component(lt))
            else:
                want = matched_pairs(x.component(key[0]),
                                     x._acting().component(key[1]))
            if got != want:
                bad.append((x, key))
    return bad


@settings(max_examples=100, deadline=None)
@given(x=tagged_objects(retag=False), data=st.data())
def test_pair_lists_match_matched_pairs(x, data):
    a = x._acting()
    degs = st.integers(-2, 4)
    for _ in range(data.draw(st.integers(1, 12))):
        g, h = data.draw(degs), data.draw(degs)
        assert x.pairs(g, h) == matched_pairs(x.component(g), a.component(h))
    assert not _stale_pair_lists(x, a)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=repr)
@pytest.mark.parametrize("kind", ["poly", "loops", "cycle"])
def test_pair_lists_stay_fresh_through_a_whole_lift(field, kind):
    n = 3
    a = z_algebra(kind, 2 * n + 1, field)
    u = DegreeSet.periodic(n, (0, 1))
    b = kill_support_algebra(a, u)
    for seed in range(3):
        x = kill_support_module(random_category_module(a, u, u, seed), u, u,
                                b)
        assert validate_module(x).holds and validate_algebra(a).holds
        report = check_and_lift(x, u, u, a)
        assert report.lift is not None
        dump_json({"module": report.lift, "x": x})
        lift = report.lift
        shared = [key for key in a._pair_cache if type(key[0]) is tuple]
        assert shared and lift._pair_cache and x._pair_cache
        assert not _stale_pair_lists(a, b, x, lift)
