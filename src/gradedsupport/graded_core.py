"""Operations on graded algebras and modules: killing supports, shifts,
submodules, quotients, torsion and graded Hom spaces.

The objects themselves, with their structural equality and validation, are
in graded_objects, whose docstring sets out the data model: how components
and maps are stored, which rows are shared, and the checked and trusted
ways an object is built.  Regrading along a windowed pseudomorphism is in
regrading.  The public names of both are imported here too, so they can
still be imported from this module.  All arithmetic is exact, over QQ or
GF(p).
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InternalConsistencyError, PreconditionError, ShapeError
from .exactlin import (LabeledSpace, Matrix, Subspace, _accumulate, _echelon,
                       _forward, _rank, kernel, matched_pairs, nullspace)
from .graded_objects import (GradedAlgebra, GradedModule, KilledAlgebra,
                             _LazyModule, _generated_rows, _spans,
                             algebras_equal, is_generated_in_degrees_01,
                             modules_equal, validate_algebra, validate_module)
from .regrading import regrade_algebra, regrade_module, un_regrade_module
from .subsets import DegreeSet, Verdict, is_right_modular, same_set


# ---------------------------------------------------------------------------
# killing supports


def _check_set_group(obj, s: DegreeSet):
    if s.group != obj.group:
        raise PreconditionError(
            f"degree set over {s.group!r} cannot grade an object over {obj.group!r}")


def _check_modular_pair(s: DegreeSet, u: DegreeSet):
    """Refuse an (S, U) that is not a right modular pair."""
    verdict = is_right_modular(s, u)
    if not verdict.holds:
        raise PreconditionError(
            f"(S, U) is not a right modular pair: {verdict.reason} fails, "
            f"witness {verdict.witness}")


def kill_support_algebra(a: GradedAlgebra, u: DegreeSet) -> KilledAlgebra:
    """Restrict components to degrees in U and kill products landing outside.

    U is not required to be ring-supporting: running validate_algebra on the
    result decides associativity of the killed product, which is the point of
    the construction.  U must contain 0 (so the unit survives) and must
    answer membership on the whole window.
    """
    _check_set_group(a, u)
    if not u.contains(0):
        raise PreconditionError("killing keeps the unit, so 0 must lie in U")
    comps = {d: c for d, c in a.components.items() if u.contains(d)}
    return KilledAlgebra._of(a, u, comps, _kept_maps(a, comps, comps))


def kill_support_module(m: GradedModule, s: DegreeSet, u: DegreeSet,
                        algebra: KilledAlgebra | None = None) -> GradedModule:
    """M_S over A_U: keep components in S, kill actions landing outside S.

    Requires (S, U) to be a right modular pair, which is exactly the
    condition making the killed action associative for every module.  A
    given algebra must be kill_support_algebra(m.over, u): one that is not a
    KilledAlgebra with base m.over and support U is refused.
    """
    _check_set_group(m, s)
    _check_modular_pair(s, u)
    if algebra is None:
        algebra = kill_support_algebra(m.over, u)
    elif not (isinstance(algebra, KilledAlgebra)
              and algebras_equal(algebra.base, m.over)
              and same_set(algebra.support, u)):
        raise PreconditionError("the given algebra is not the module's "
                                "algebra killed to U")
    return _kill_module(m, s, algebra)


def _kill_module(m: GradedModule, s: DegreeSet, algebra: KilledAlgebra):
    """kill_support_module for an (S, U) and an algebra already checked.

    A table's kept maps are stored as a table; a module that builds its
    maps on first read is killed to a view that reads each kept map
    through to it, so a map nobody reads is built by neither."""
    comps = {d: c for d, c in m.components.items() if s.contains(d)}
    if isinstance(m, _LazyModule):
        return _KilledView(m, algebra, comps)
    return GradedModule._of(algebra, m.window, comps,
                            _kept_maps(m, comps, algebra.components))


def _kept_maps(x, comps, acting):
    """The stored rows of x between kept degrees comps, by acting degrees."""
    return {(g, h): rows for (g, h), rows in x._table().items()
            if g in comps and h in acting and x.add_deg(g, h) in comps}


class _KilledView(_LazyModule):
    """M_S of a module m that builds its maps on first read: the kept
    components, and each kept map read from m when first read itself."""

    def __init__(self, m, algebra, comps):
        super().__init__(algebra, m.window, comps)
        self._parent = m

    def _release(self):
        self._parent = None

    def _build(self, g, h):
        comps = self.components
        if g in comps and h in self.over.components \
                and self.add_deg(g, h) in comps:
            return self._parent._rows(g, h)
        return None


def shift_module(m: GradedModule, g: int) -> GradedModule:
    """Degree shift: shift(M, g)_h = M_{h-g}."""
    lo, hi = m.window
    window = m.window if m.group.kind == "Zn" else (lo + g, hi + g)
    comps = {m.add_deg(d, g): c for d, c in m.components.items()}
    action = {(m.add_deg(s, g), u): rows for (s, u), rows in m._table().items()}
    return GradedModule._of(m.over, window, comps, action)


# ---------------------------------------------------------------------------
# submodules, quotients, torsion


def _tag_blocks(comp: LabeledSpace, space: Subspace):
    """Basis of an A_0-stable subspace grouped by right tag.

    Returns (rows, tags, pivots): the canonical dict rows by (pivot tag,
    pivot).
    An A_0-stable subspace is the direct sum of its tag blocks, on disjoint
    coordinates, so by uniqueness its canonical rows are the blocks' own.
    Raises if a row mixes tags, exactly when the subspace is not A_0-stable
    (never for action-closed subspaces of a valid module).
    """
    tags = comp.right_tags
    for row, p in zip(space.basis, space.pivots):
        if any(tags[i] != tags[p] for i in row):
            raise InternalConsistencyError(
                "subspace is not stable under the idempotents")
    order = sorted(zip(space.basis, space.pivots),
                   key=lambda rp: (tags[rp[1]], rp[1]))
    return (tuple(r for r, _ in order), tuple(tags[p] for _, p in order),
            tuple(p for _, p in order))


def submodule_from_subspaces(m: GradedModule, spaces: dict) -> GradedModule:
    """The submodule with the given action-closed component subspaces."""
    F = m.field
    bases = {d: _tag_blocks(m.component(d), sp)
             for d, sp in spaces.items() if sp.dim}
    comps = {d: LabeledSpace.module_component(tags)
             for d, (_, tags, _) in bases.items()}

    # basis vector i at d times a_j, from m's stored rows, is written in
    # the basis at t = d + u; every degree t of m is pushed into, so a
    # push leaving the spaces, or landing at an unlisted t, is refused
    action = {}
    for d, (basis, _, _) in bases.items():
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            pivots = bases[t][2] if t in bases else ()
            out, pairs = {}, matched_pairs(comps[d], m.over.component(u))
            for i, j in pairs:
                vec = _accumulate(F, basis[i],
                                  lambda k: m.action_row(d, u, k, j))
                if vec:
                    if not pivots or not spaces[t].contains_vector(vec):
                        raise PreconditionError(
                            f"subspaces are not action-closed: a push "
                            f"leaves the degree-{t} subspace")
                    out[(i, j)] = {r: vec[p] for r, p in enumerate(pivots)
                                   if p in vec}
            if t in comps and pairs:
                action[(d, u)] = out
    return GradedModule._of(m.over, m.window, comps, action)


def quotient_with_maps(m: GradedModule, spaces: dict):
    """M / W together with its coordinate data, for action-closed W.

    Returns (quotient, project, keep) where project(d, vec) rewrites an
    ambient coordinate vector in quotient coordinates and keep[d] lists the
    ambient coordinates whose classes form the quotient basis at degree d.

    The quotient basis at each degree is the set of standard coordinates not
    used as pivots by W, ordered by tag, so the result again has tag-pure
    basis vectors (_tag_blocks refuses a W that is not A_0-stable; with one
    idempotent every tag is 0 and there is nothing to refuse).
    project(d, vec) is W_d.reduce(vec) on the kept coordinates.

    The components, project and keep are built here; each map of the
    quotient is built the first time it is read (_QuotientModule), and the
    writers, validate_module, modules_equal and the summaries read, so
    build, every map.
    """
    F, tagged = m.field, m.over.k > 1
    keeps, comps = {}, {}
    for d in m.degrees():
        comp, sp = m.component(d), spaces.get(d)
        keep = sorted(set(range(comp.dim)) - set(sp.pivots if sp else ()))
        if tagged:  # with one idempotent every tag is 0: nothing to do
            if sp:
                _tag_blocks(comp, sp)
            keep.sort(key=comp.right_tags.__getitem__)  # stable: by tag, i
        keeps[d] = keep = tuple(keep)
        if keep:
            comps[d] = LabeledSpace.module_component(
                tuple(comp.right_tags[i] for i in keep))
    reads = {}  # d -> (coordinate -> position, W_d), on first use

    def project(d, vec):
        """vec in quotient coordinates: dense for a dense vec, else a row."""
        if d not in reads:
            keep = keeps[d]
            reads[d] = ({i: pos for pos, i in enumerate(keep)},
                        spaces.get(d) or Subspace.zero(F, len(keep)))
        at, sp = reads[d]
        v = sp.reduce(vec)
        if isinstance(v, dict):
            return {at[i]: c for i, c in v.items()}
        return tuple(v[i] for i in keeps[d])

    return _QuotientModule(m, comps, keeps, spaces), project, keeps


class _QuotientModule(_LazyModule):
    """M / W as quotient_with_maps builds it, each map on first read.

    Basis vector i times a_j is the row of coordinate keep[i] read the
    same way at its target t, one walk of map (d, u) over the rows of the
    kept coordinates, block by block (GradedModule._blocks): a module read
    through its layout has a block per generator, read off A, and a table
    is one block of itself.  The image of e_q at t, {i: 1} for q = keep[i]
    or else q's row in W_t.classes() on the kept coordinates, is built once
    per t, the first time a map into t is built, and shared (see the module
    docstring): a one-entry row {q: c}, most rows of a projective, is that
    image, times c when c != 1, and a longer row sums the images of its
    entries.  The blocks of d on their kept indices are likewise built once
    per d.  M's blocks at the kept degrees are read once, when the quotient
    is built, and M itself is not kept.  A map is present by the rule of
    the module docstring.
    """

    def __init__(self, m, comps, keeps, spaces):
        super().__init__(m.over, m.window, comps)
        # _keeps[d]: keep[d]; _spaces[t]: W_t where it is not zero, at kept
        # degrees; _images[t]: the image of each coordinate by block;
        # _parts[d]: the blocks at d on their kept indices
        self._blocks_of = {d: m._blocks(d) for d in comps}
        self._keeps, self._images, self._parts = keeps, {}, {}
        self._spaces = {d: sp for d in comps
                        if (sp := spaces.get(d)) and sp.pivots}

    def _release(self):
        self._blocks_of = self._keeps = self._spaces = self._images = \
            self._parts = None

    def _build(self, d, u):
        comps = self.components
        t = self.group.add(d, u)
        if d not in comps or t not in comps or u not in self.over.components:
            return None
        F = self.field
        one, mul = F.one(), F.mul
        img_t = self._images.get(t)
        if img_t is None:
            keep, sp = self._keeps[t], self._spaces.get(t)
            at = {i: pos for pos, i in enumerate(keep)}
            cls = sp.classes() if sp else {}
            img_t = self._images[t] = _by_block(self._blocks_of[t], [
                {at[q]: one} if q in at
                else {at[k]: v for k, v in cls[q].items()}
                for q in range(sp.ambient if sp else len(keep))])
        parts = self._parts.get(d)
        if parts is None:
            at = {i: pos for pos, i in enumerate(self._keeps[d])}
            parts = self._parts[d] = [
                (key, reader, e, src) for key, reader, e, coord
                in self._blocks_of[d] if (src := {q: at[c] for q, c
                                                  in coord.items() if c in at})]
        out = {}
        for key, reader, e, src in parts:
            img = img_t.get(key)
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
        return out if out or self.pairs(d, u) else None


def _by_block(blocks, rows):
    """rows, one per coordinate of a component, by its blocks (as
    GradedModule._blocks gives them) and reader index."""
    return {key: {q: rows[c] for q, c in coord.items()}
            for key, _, _, coord in blocks}


def quotient_module(m: GradedModule, spaces: dict) -> GradedModule:
    """M / W for an action-closed family of component subspaces W."""
    return quotient_with_maps(m, spaces)[0]


def closure_under_action(m: GradedModule, seeds: dict) -> dict:
    """Smallest action-closed family of component subspaces containing seeds.

    seeds maps degrees to lists of coordinate vectors.  Closed form:
    span(seeds + seeds A), closed since (x b) a = x (b a); one pass over
    (seed degree, u), one Subspace.from_vectors per degree.  The seeds
    are spanned themselves, so the stored unit action is not relied on.
    Assumes m is a module: associative, unital action (validate_module).
    """
    F = m.field
    vecs = {d: [] for d in m.degrees()}
    for d, seed in seeds.items():
        d = m.add_deg(d, 0)
        if m.component(d).dim == 0 or not seed:
            continue
        vecs[d].extend(seed)
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            rows_by_j = {}  # j -> {i: x_i * a_j}
            for (i, j), row in m._map_rows(d, u):
                rows_by_j.setdefault(j, {})[i] = row
            for rows in rows_by_j.values():
                vecs[t].extend(_accumulate(F, r, rows.get) for r in seed)
    return {d: Subspace.from_vectors(F, m.component(d).dim, v)
            for d, v in vecs.items()}


def generated_submodule(m: GradedModule, degrees) -> GradedModule:
    """The submodule generated by the full components at the given degrees:
    the action closure of their unit vectors."""
    one = m.field.one()
    return submodule_from_subspaces(m, closure_under_action(m, {
        d: [{i: one} for i in range(m.component(d).dim)] for d in degrees}))


def is_generated_in(m: GradedModule, degrees) -> bool:
    """Whether the full components at the given degrees generate M: the rows
    spanning M_s A_{d-s} span M_d at every other degree d (_spans)."""
    degrees = {m.add_deg(s, 0) for s in degrees}
    return all(d in degrees or _spans(m.field, _generated_rows(m, degrees, d),
                                      dim)
               for d, dim in m.dims().items())


def preimage_subspace(f: Matrix, w: Subspace) -> Subspace:
    """{x : x @ f in w}: the kernel of f's rows reduced modulo w."""
    if f.cols != w.ambient:
        raise ShapeError("preimage target dimension mismatch")
    return kernel(Matrix._of(f.field, f.rows, f.cols,
                             tuple(map(w.reduce, f.nz))))


def _vanishing_spaces(m: GradedModule, evals: dict, watch: dict) -> dict:
    """{d: {x in M_d : x a evaluates to zero at every degree d watches}}.

    watch maps each degree d to the degrees it watches, evals each watched
    degree t to the evaluation applied there: its rows, row i = ev_t(e_i)
    as a {col: value} dict, or None for the identity; rows that are all
    empty ask nothing.  x must vanish under ev_t after every basis vector
    a of A landing at t = d + u.  Entry i of equation (j, c) is column c
    of ev_t(x_i * a_j).  Under the identity that is M's own row (i, j);
    any other ev_t is put by block once per t (_by_block), and M is read
    through its blocks as quotient_with_maps reads it, each of a block's
    rows summed over its block's evaluation rows at t.  One nullspace per
    degree over the stacked equations.
    """
    F = m.field
    asks = {t for t, ev in evals.items() if ev is None or any(ev)}
    images = {}  # t -> ev_t by block, or None for the identity
    spaces = {}
    for d, watched in watch.items():
        blocks, cols = None, []
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            if t not in watched or t not in asks:
                continue
            if t not in images:
                images[t] = evals[t] and _by_block(m._blocks(t), evals[t])
            ev_t, stacked = images[t], {}
            if ev_t is None:  # the identity: M's own rows
                for (i, j), row in m._map_rows(d, u):
                    for c, v in row.items():
                        stacked.setdefault((j, c), {})[i] = v
            else:
                blocks = blocks or m._blocks(d)
                for key, reader, e, src in blocks:
                    ev = ev_t.get(key)
                    if ev is None:
                        continue
                    for (q, j), row in reader._map_rows(e, u):
                        if (i := src.get(q)) is not None:
                            for c, v in _accumulate(F, row, ev.get).items():
                                stacked.setdefault((j, c), {})[i] = v
            cols.extend(stacked.values())
        spaces[d] = nullspace(F, cols, m.component(d).dim)
    return spaces


def torsion_spaces(n: GradedModule, s: DegreeSet, modulo=None) -> dict:
    """Component subspaces of the preimage in n of the largest submodule of
    n / W supported outside S, for W = modulo an action-closed family of
    component subspaces; None is W = 0, the torsion of n itself.

    Closed form: W_d at each degree d not off S, and off S the x with x a
    in W_t for every basis vector a of A whose target t = d + u is not off
    S; closed since (x b) a = x (b a).  One nullspace per off-S degree, over
    the classes modulo W_t of n's rows, read through W_t.classes() in the
    one vanishing scan (_vanishing_spaces).
    Degrees whose S membership cannot be decided (outside a windowed S's
    window) count as inside S, which keeps the result sound if possibly
    small.  Assumes n is a module: associative, unital action
    (validate_module).

    When A is generated in degrees 0 and 1 (is_generated_in_degrees_01),
    only the first degree t0 > d not off S is watched.  A_i = A_1^i, so
    A_{t-d} = A_{t0-d} A_{t-t0} for every later t; if x A_{t0-d} lies in
    W_{t0}, then x A_{t-d} lies in W_{t0} A_{t-t0}, inside W_t as W is a
    submodule.  Where n_{t0} = 0 nothing is asked: x A_{t0-d} = 0 there,
    and so x A_{t-d} = 0 for every later t.
    """
    _check_set_group(n, s)
    F = n.field
    if modulo is None:
        modulo = {d: Subspace.zero(F, n.component(d).dim) for d in n.degrees()}
    one = F.one()
    evals = {}  # degree not off S -> class of each e_i; None: W_t = 0
    for t in n.degrees():
        if s.try_contains(t) is False:
            continue
        w, ev = modulo[t], None
        if w.dim:
            cls = w.classes()
            ev = [cls[i] if i in cls else {i: one} for i in range(w.ambient)]
        evals[t] = ev
    cut = is_generated_in_degrees_01(n.over)

    def watched(d):
        if not cut:
            return evals
        t = next((t for t in range(d + 1, n.window[1] + 1)
                  if s.try_contains(t) is not False), None)
        return (t,) if t in evals else ()

    spaces = _vanishing_spaces(n, evals, {d: watched(d) for d in n.degrees()
                                          if d not in evals})
    return {d: modulo[d] if d in evals else spaces[d] for d in n.degrees()}


def torsion_submodule(n: GradedModule, s: DegreeSet) -> GradedModule:
    return submodule_from_subspaces(n, torsion_spaces(n, s))


def torsion_quotient(n: GradedModule, s: DegreeSet) -> GradedModule:
    """N divided by its largest submodule supported outside S."""
    return quotient_module(n, torsion_spaces(n, s))


def is_cogenerated_in(n: GradedModule, s: DegreeSet) -> Verdict:
    """True when the only submodule supported outside S is zero."""
    spaces = torsion_spaces(n, s)
    bad = tuple((d, sp.dim) for d, sp in sorted(spaces.items()) if sp.dim)
    if bad:
        return Verdict(False, False, witness=bad)
    return Verdict(True, False)


# ---------------------------------------------------------------------------
# graded hom spaces


def _hom_system(m: GradedModule, n: GradedModule):
    """(unknowns, equations, sections) of Hom(M, N), M and N modules.

    Generators at degree d: the coordinates of M_d off the pivots of the
    sum of M_s A_{d-s} over M's degrees s < d.  They complement what lower
    degrees generate, so by induction over M's degrees they span M; for A
    graded in degrees >= 0 with A_0 the k idempotents they are a minimal
    set (graded Nakayama).  When A is generated in degrees 0 and 1
    (is_generated_in_degrees_01) that sum is M_{d-1} A_1, whose rows alone
    are read: for s < d - 1, A_{d-s} = A_{d-s-1} A_1, so M_s A_{d-s} lies
    in M_{d-1} A_1, and the pivots depend on the span only.  Unknowns: the
    coordinates of each f(g) in N_{deg g} with g's right tag.  At each
    degree t of N, eliminating [Phi_t | I], Phi_t taking each matched pair
    p = (g, a_j) to the stored row of g a_j, gives K_t = ker Phi_t and the
    preimages of M_t's coordinates.  Equation (t, kappa, c) is entry c of
    f(kappa) = sum kappa_p f(g) a_j; push[p] maps unknown v times dim N_t
    plus c to its coefficient.  sections[t] = (push, preimages).
    """
    if not algebras_equal(m.over, n.over):
        raise PreconditionError("hom spaces need modules over the same algebra")
    F, low = m.field, is_generated_in_degrees_01(m.over)
    gens, unknowns = {}, 0  # degree -> {i: ((unknown, q), ...)}
    for d in m.degrees():
        pivots = _forward(F, _generated_rows(m, [d - 1] if low else [
            s for s in m.degrees() if s < d], d), m.component(d).dim)
        tags, nd = m.component(d).right_tags, n.component(d)
        for i in range(m.component(d).dim):
            if i not in pivots:
                cols = [q for q in range(nd.dim) if nd.right_tags[q] == tags[i]]
                gens.setdefault(d, {})[i] = tuple(enumerate(cols, unknowns))
                unknowns += len(cols)
    equations, sections = [], {}
    for t in n.degrees() if unknowns else ():
        mt, nt = m.component(t).dim, n.component(t).dim
        rows, push = [], {}  # push is keyed by the pair's column p
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
            eqs = {}  # c -> equation
            for key, e in _accumulate(F, kappa, push.get).items():
                eqs.setdefault(key % nt, {})[key // nt] = e
            equations.extend(eqs.values())
    return unknowns, equations, sections


def hom_space_basis(m: GradedModule, n: GradedModule) -> list:
    """Basis of the space of degree-0 module maps M -> N, each a dict degree
    -> Matrix in the two modules' bases: the solutions of _hom_system,
    extended to every degree through the preimages, flattened in (d, i, q)
    order and put in canonical echelon form.
    """
    unknowns, equations, sections = _hom_system(m, n)
    F = m.field
    solutions = nullspace(F, equations, unknowns).basis
    degs = sorted(set(m.degrees()) & set(n.degrees())) if solutions else ()
    # slots[col] = (d, i, q) of a flattened column; spread[v] = v's map
    slots, spread = [], [{} for _ in range(unknowns)]
    for d in degs:
        push, preimages = sections[d]
        nd = n.component(d).dim
        for i, pre in enumerate(preimages):
            for key, e in _accumulate(F, pre, push.get).items():
                spread[key // nd][len(slots) + i * nd + key % nd] = e
        slots += [(d, i, q) for i in range(len(preimages)) for q in range(nd)]
    out = []
    for vec in _echelon(F, [_accumulate(F, x, spread.__getitem__)
                            for x in solutions], len(slots))[0]:
        rows = {d: [{} for _ in range(m.component(d).dim)] for d in degs}
        for col, v in vec.items():
            d, i, q = slots[col]
            rows[d][i][q] = v
        out.append({d: Matrix._of(F, len(r), n.component(d).dim, tuple(r))
                    for d, r in rows.items()})
    return out


def hom_space_dim(m: GradedModule, n: GradedModule) -> int:
    """dim Hom(M, N): the unknowns less the rank of the equations."""
    unknowns, equations, _ = _hom_system(m, n)
    return unknowns - _rank(m.field, equations, unknowns)
