"""Ready-made graded algebras and module builders.

Algebras: cyclic group algebras, truncated polynomial rings, the two
three-term truncations of K<x, y> that witness associativity of killed
products in small degree patterns, path algebras of quivers modulo
homogeneous relations, and the degreewise dual of an n-homogeneous
one-vertex algebra.

Modules: the regular module, finite free and projective modules on shifted
generators, each the table of one builder of generator blocks
(_LayoutModule), and presentations (free module modulo the submodule
generated by relation vectors).

Path algebra relations are lists of (coefficient, path) terms, a path being a
tuple of arrow indices composing left to right, split into endpoint blocks
with equal paths merged.  The one-term blocks span a monomial ideal J, and
only the paths through no word of J are listed: they are a basis of kQ/J
(Anick 1986).  The other blocks span the rest of the ideal on them degree
by degree, I_m = P_1 I_{m-1} + I_{m-1} P_1 + R_m, from the previous
degree's canonical {path index: coefficient} rows, and the class of a path
is read off the row pivoting at it.  _split_relation is the one relation
parser: n_homogeneous_dual reads its relation lists through it on the
one-vertex quiver of v_dim loops, whose degree-n paths are the words.

The mult table is read off the listed paths, at every degree.  A product
of basis paths p.q is the class of the concatenation w, or zero when w
passes through a word of J, so row (p, q) of map (g, t - g) is w's class
for each split w = p.q of a listed path into two basis paths, and the
pairs with a zero product are never visited.  At a degree with no ideal
the class of w is its own coordinate; at a degree with one it is w's row
in the ideal's class table (Subspace.classes), or w's own coordinate off
the pivots, relabelled onto the kept coordinates, and empty when w lies in
the ideal.  The paths are listed in lexicographic order and the kept ones
are a subsequence of it, so each map's rows come in (p, q) order.

PATH_CAP bounds the vertices and paths a quiver algebra lists, and
TABLE_CAP the weight of a mult table: its entries, the sum over (g, h) of
the matched pairs times the dimension in degree g + h, plus MAP_WEIGHT
for each (g, h) map, so that many tiny maps count too.  Quiver algebras
count both as the paths are listed, group_algebra and
truncated_polynomial from their size, before any ideal or table is
built, and a larger count raises CapacityError.  The two-loop harness
algebra (yx = 0) has t + 1 paths in degree t, so TABLE_CAP admits it up
to top 39.  n_homogeneous_dual counts the relation-degree words over its
loops against PATH_CAP before it lists them.
"""

from __future__ import annotations

import functools
import itertools

from .errors import CapacityError, PreconditionError
from .exactlin import LabeledSpace, QQ, Subspace, integral, matched_pairs, \
    nullspace
from .graded_core import closure_under_action, quotient_module
from .graded_objects import GradedAlgebra, GradedModule, _LazyModule, \
    _checked_parts
from .subsets import Z, Zn


def _coerce(field, c):
    """A caller's scalar as a field value: an int or an integral Fraction
    through from_int, anything else as it is."""
    c = integral(c)
    return field.from_int(c) if isinstance(c, int) else c


# ---------------------------------------------------------------------------
# small algebras


def group_algebra(n, field=QQ) -> GradedAlgebra:
    """K[Z/n] with its tautological cyclic grading; every component is K."""
    if n < 1:
        raise PreconditionError(f"modulus must be >= 1, got {n}")
    _check_table(n * n, n * n, f"K[Z/{n}]")
    one = {(0, 0): {0: field.one()}}
    comps = {d: LabeledSpace.untagged(1) for d in range(n)}
    mult = {(g, h): one for g in range(n) for h in range(n)}
    return GradedAlgebra._of(Zn(n), (0, n - 1), 1, field, comps, mult, (field.one(),))


def truncated_polynomial(nilpotency, gen_degree=1, window=None,
                         field=QQ) -> GradedAlgebra:
    """K[x]/(x^nilpotency) with deg x = gen_degree.

    The window defaults to the exact support; pass a wider one to embed the
    algebra in a larger degree range (the extra components are zero).
    """
    if nilpotency < 1:
        raise PreconditionError("nilpotency degree must be >= 1")
    pairs = nilpotency * (nilpotency + 1) // 2  # i + j < nilpotency
    _check_table(pairs, pairs, f"K[x]/(x^{nilpotency})")
    g = int(gen_degree)
    if g == 0:
        raise PreconditionError("generator degree must be nonzero")
    degrees = [i * g for i in range(nilpotency)]
    lo, hi = min(degrees), max(degrees)
    if window is None:
        window = (lo, hi)
    elif not (window[0] <= lo and hi <= window[1]):
        raise PreconditionError(
            f"window {window} does not cover the support [{lo}, {hi}]")
    one = {(0, 0): {0: field.one()}}
    comps = {d: LabeledSpace.untagged(1) for d in degrees}
    mult = {(i * g, j * g): one
            for i in range(nilpotency) for j in range(nilpotency)
            if i + j < nilpotency}
    return GradedAlgebra._of(Z, (int(window[0]), int(window[1])), 1, field,
                             comps, mult, (field.one(),))


def zero_sum_pair_algebra(g, field=QQ) -> GradedAlgebra:
    """K<x, y>/(x^2, y^2, yx) graded with deg x = g, deg y = -g, g != 0.

    The degree-0 part is two dimensional (1 and xy), so this is the k = 1
    shape whose degree-0 component is not split semisimple.
    """
    g = int(g)
    if g == 0:
        raise PreconditionError("the two generator degrees must be nonzero")
    F = field
    o = F.one()
    comps = {
        0: LabeledSpace.untagged(2),   # basis (1, xy)
        g: LabeledSpace.untagged(1),   # x
        -g: LabeledSpace.untagged(1),  # y
    }
    by_one = {(0, 0): {0: o}}  # 1 * x = x, x * 1 = x, and so for y
    mult = {
        (0, 0): {(0, 0): {0: o}, (0, 1): {1: o}, (1, 0): {1: o}},  # 1, xy
        (0, g): by_one, (g, 0): by_one, (0, -g): by_one, (-g, 0): by_one,
        (g, -g): {(0, 0): {1: o}},  # x y = xy
        # y x = 0 and xy xy, x^2, y^2 vanish, so nothing else is stored
    }
    lo, hi = min(0, g, -g), max(0, g, -g)
    return GradedAlgebra._of(Z, (lo, hi), 1, F, comps, mult, (o, F.zero()))


def generic_pair_algebra(g, h, field=QQ) -> GradedAlgebra:
    """K<x, y>/(x^2, y^2, yx) graded with deg x = g, deg y = h.

    Needs g, h nonzero, distinct, with g + h != 0, so the four basis words
    1, x, y, xy sit in four distinct degrees and the degree-0 part is K.
    """
    g, h = int(g), int(h)
    if g == 0 or h == 0 or g == h or g + h == 0:
        raise PreconditionError(
            "degrees must be nonzero, distinct, and not opposite")
    F = field
    one = {(0, 0): {0: F.one()}}
    comps = {d: LabeledSpace.untagged(1) for d in (0, g, h, g + h)}
    mult = {(0, d): one for d in (0, g, h, g + h)}
    mult.update({(d, 0): one for d in (g, h, g + h)})
    mult[(g, h)] = one  # x y = xy; every other nonunit product vanishes
    lo = min(0, g, h, g + h)
    hi = max(0, g, h, g + h)
    return GradedAlgebra._of(Z, (lo, hi), 1, F, comps, mult, (F.one(),))


# ---------------------------------------------------------------------------
# path algebras with homogeneous relations


PATH_CAP = 2 ** 17
TABLE_CAP = 2 ** 22
MAP_WEIGHT = 64


def _check_table(maps, entries, what):
    """Refuse a mult table whose entries, with MAP_WEIGHT more per map,
    are over TABLE_CAP."""
    if entries + MAP_WEIGHT * maps > TABLE_CAP:
        raise CapacityError(
            f"{what}: {entries} mult table entries, plus {MAP_WEIGHT} for "
            f"each of {maps} maps, are over the cap of {TABLE_CAP}")


def _avoiding_paths(num_vertices, arrows, words, top):
    """The paths of degree 1..top through no word of words, by degree.

    Degree m extends each path of degree m - 1 by the arrows leaving its
    target, in arrow order, less the paths ending in a word; every prefix
    of such a path avoids the words too, so each degree is listed in
    lexicographic order.  Stops at the first degree with no path, and
    checks PATH_CAP and the table cap as each degree is listed.
    """
    total, entries, maps = num_vertices, num_vertices ** 2, 1
    _check_table(maps, entries, f"the quiver up to degree 0 (top {top})")
    lengths = {len(w) for w in words}
    leaving = [[] for _ in range(num_vertices)]
    for a, (src, _) in enumerate(arrows):
        leaving[src].append(a)
    # the paths of each degree counted by target and by source vertex
    ends, starts = [[1] * num_vertices], [[1] * num_vertices]
    paths = {}
    prev = [()]
    for m in range(1, top + 1):
        room = PATH_CAP - total + 1  # one more path than fits is refused
        level = []
        for p in prev:
            for a in (leaving[arrows[p[-1]][1]] if p else range(len(arrows))):
                w = p + (a,)
                for n in lengths:
                    if w[-n:] in words:
                        break
                else:
                    level.append(w)
            if len(level) >= room:
                break
        if not level:
            break
        total += len(level)
        if total > PATH_CAP:
            raise CapacityError(
                f"the quiver's vertices and relation-avoiding paths up to "
                f"degree {m} (top {top}) are over the cap of {PATH_CAP}")
        paths[m] = prev = level
        end, start = [0] * num_vertices, [0] * num_vertices
        for p in level:
            end[arrows[p[-1]][1]] += 1
            start[arrows[p[0]][0]] += 1
        ends.append(end)
        starts.append(start)
        entries += len(level) * sum(e * s for g in range(m + 1)
                                    for e, s in zip(ends[g], starts[m - g]))
        maps += m + 1  # the (g, m - g) maps
        _check_table(maps, entries, f"the quiver up to degree {m} (top {top})")
    return paths


def _path_source(arrows, p):
    return arrows[p[0]][0]


def _path_target(arrows, p):
    return arrows[p[-1]][1]


def _split_relation(field, arrows, rel):
    """Split a relation into endpoint-pure (degree, source, target, terms),
    merging equal paths in a block and dropping the terms that cancel."""
    if not rel:
        raise PreconditionError("empty relation")
    blocks = {}
    length = None
    for coeff, path in rel:
        path = tuple(int(a) for a in path)
        if len(path) < 2:
            raise PreconditionError("relations must have degree >= 2")
        if length is None:
            length = len(path)
        elif len(path) != length:
            raise PreconditionError("relation terms must share one degree")
        if not all(0 <= a < len(arrows) for a in path):
            raise PreconditionError(f"arrow index out of range in {path}")
        for a, b in zip(path, path[1:]):
            if arrows[a][1] != arrows[b][0]:
                raise PreconditionError(f"path {path} is not composable")
        key = (_path_source(arrows, path), _path_target(arrows, path))
        block = blocks.setdefault(key, {})
        block[path] = field.add(block.get(path, field.zero()),
                                _coerce(field, coeff))
    return [(length, src, tgt, [(c, p) for p, c in block.items() if c])
            for (src, tgt), block in blocks.items()]


def quiver_algebra(num_vertices, arrows, relations, top, field=QQ) -> GradedAlgebra:
    """Path algebra of a quiver modulo homogeneous relations, up to degree top.

    arrows is a list of (source, target) vertex pairs; a path (a_1, ..., a_m)
    composes arrow a_1 first.  Degree = path length, left tag = source,
    right tag = target.  Relations (degree >= 2) generate a two-sided ideal
    expanded degreewise, so no term ordering is involved.  Only the paths
    avoiding the one-term blocks are listed, and the others expand on them.
    Every product of basis paths is read off the splits of the listed paths
    into two basis paths, as the class of the path split; products with the
    degree-0 idempotents are the basis paths themselves.
    """
    if num_vertices < 1:
        raise PreconditionError("a quiver needs at least one vertex")
    if top < 0:
        raise PreconditionError("top degree must be >= 0")
    arrows = [(int(s), int(t)) for s, t in arrows]
    for s, t in arrows:
        if not (0 <= s < num_vertices and 0 <= t < num_vertices):
            raise PreconditionError(f"arrow endpoint out of range: ({s}, {t})")
    F = field
    words, rel_by_degree = set(), {}
    for rel in relations:
        for length, _, _, terms in _split_relation(F, arrows, rel):
            if len(terms) == 1:
                words.add(terms[0][1])
            elif terms:
                rel_by_degree.setdefault(length, []).append(terms)
    paths = _avoiding_paths(num_vertices, arrows, words, top)
    index = {m: {p: i for i, p in enumerate(ps)} for m, ps in paths.items()}

    # the ideal of the other blocks, on the coordinates of the avoiding paths
    ideal = {}
    for m in range(2, len(paths) + 1):
        at = index[m]
        vecs = []
        prev = ideal.get(m - 1)
        if prev is not None:
            for row in prev.basis:
                terms = [(paths[m - 1][pi], coeff) for pi, coeff in row.items()]
                for a in range(len(arrows)):
                    left = {at[w]: c for p, c in terms if (w := (a,) + p) in at}
                    right = {at[w]: c for p, c in terms if (w := p + (a,)) in at}
                    vecs += [v for v in (left, right) if v]
        for terms in rel_by_degree.get(m, []):
            vecs.append({at[p]: c for c, p in terms if p in at})
        if vecs:
            ideal[m] = Subspace.from_vectors(F, len(paths[m]), vecs)

    comps = {0: LabeledSpace(num_vertices, tuple(range(num_vertices)),
                             tuple(range(num_vertices)))}
    coord = {}  # degree m > 0 -> {basis path: its coordinate}
    for m, ps in paths.items():
        if m in ideal:
            pivots = set(ideal[m].pivots)
            keep = [p for i, p in enumerate(ps) if i not in pivots]
            coord[m] = {p: i for i, p in enumerate(keep)}
        else:
            keep, coord[m] = ps, index[m]
        if keep:
            comps[m] = LabeledSpace(
                len(keep), tuple(_path_source(arrows, p) for p in keep),
                tuple(_path_target(arrows, p) for p in keep))

    one = F.one()
    # row (p, q) of map (g, t - g) is the class of w = pq, for each split
    # of a listed path w into two basis paths p, q: w's own coordinate off
    # the ideal's pivots, else its row in the class table, relabelled onto
    # the kept coordinates; a w in the ideal adds no row
    split = {}
    for t, ps in paths.items():
        at, cls = coord[t], ideal[t].classes() if t in ideal else {}
        by_g = split[t] = [{} for _ in range(t)]
        for k, w in enumerate(ps):
            row = {at[ps[j]]: v for j, v in cls[k].items()} if k in cls \
                else {at[w]: one}
            if not row:
                continue
            for g in range(1, t):
                if (i := coord[g].get(w[:g])) is not None and (
                        j := coord[t - g].get(w[g:])) is not None:
                    by_g[g][(i, j)] = row

    mult = {}
    degs = sorted(comps)
    for g in degs:
        right = set(comps[g].right_tags)
        for h in degs:
            t = g + h
            if t not in comps or right.isdisjoint(comps[h].left_tags):
                continue
            if g == 0 or h == 0:  # e_i b = b and b e_j = b, a basis path b
                mult[(g, h)] = {(i, j): {j if g == 0 else i: one}
                                for i, j in matched_pairs(comps[g], comps[h])}
            else:
                mult[(g, h)] = split[t][g]
    unit = tuple(F.one() for _ in range(num_vertices))
    return GradedAlgebra._of(Z, (0, top), num_vertices, F, comps, mult, unit)


def n_homogeneous_dual(v_dim, relations, top, field=QQ,
                       degree=None) -> GradedAlgebra:
    """Degreewise dual of the one-vertex algebra T(V)/(R), R in V^{tensor n}.

    relations are either a Subspace of the degree-n tensor component (word
    basis in lexicographic order) or a list in the path-term format over
    v_dim loops, all terms of one common length n >= 2.  With no relations
    the degree cannot be inferred and must be passed explicitly.  The
    result is T(V*)/(R-perp) expanded up to degree top, where R-perp is
    the annihilator of R under the word pairing.
    """
    if v_dim < 1:
        raise PreconditionError("need at least one generator")
    if v_dim > PATH_CAP:
        raise CapacityError(
            f"{v_dim} generators, over the path cap of {PATH_CAP}")
    # the relation words are the degree-n paths of the v_dim-loop quiver:
    # all_words refuses them before listing any once its paths of degrees
    # 0..m, 1 + v_dim + ... + v_dim^m of them, pass PATH_CAP for an m <= n
    loops = [(0, 0)] * v_dim

    def all_words(n):
        if top < n:
            raise PreconditionError(
                f"the window top {top} cannot hold the degree-{n} relations")
        total = 0
        for m in range(n + 1):
            total += v_dim ** m
            if total > PATH_CAP:
                raise CapacityError(
                    f"the quiver has {total} paths up to degree {m} (top "
                    f"{n}), over the cap of {PATH_CAP}")
        return list(itertools.product(range(v_dim), repeat=n))

    F = field
    n = None if degree is None else int(degree)
    if n is not None and n < 2:
        raise PreconditionError("the relation degree must be at least 2")
    rows, words = [], None
    if isinstance(relations, Subspace):
        if relations.field is not F:
            raise PreconditionError("relation subspace is over another field")
        if n is None:
            n = 2  # the least n >= 2 with v_dim^n >= the ambient dimension
            while v_dim > 1 and v_dim ** n < relations.ambient:
                n += 1
            if v_dim == 1 or v_dim ** n != relations.ambient:
                raise PreconditionError(
                    "cannot infer the relation degree from a subspace of "
                    f"dimension {relations.ambient}; pass degree=")
        if relations.ambient != v_dim ** n:
            raise PreconditionError(
                f"relation subspace lives in dimension "
                f"{relations.ambient}, expected {v_dim ** n}")
        rows = list(relations.basis)
    else:
        for rel in relations:
            # one vertex, so one block per relation; an empty one is zero
            for length, _, _, terms in (_split_relation(F, loops, rel)
                                        if rel else ()):
                n = length if n is None else n
                words = words or all_words(n)
                if length != n:
                    raise PreconditionError(
                        "all relations must share one degree")
                # a word's index in the lexicographic listing: its letters
                # as base-v_dim digits
                rows.append({functools.reduce(lambda i, a: i * v_dim + a,
                                              p, 0): c for c, p in terms})
        if n is None:
            raise PreconditionError("the dual of a free algebra needs its "
                                    "degree; pass degree=")
    words = words or all_words(n)
    dual_rels = [[(c, words[i]) for i, c in sorted(row.items())]
                 for row in nullspace(F, rows, len(words)).basis]
    return quiver_algebra(1, loops, dual_rels, top, field)


# ---------------------------------------------------------------------------
# module builders


def regular_module(a: GradedAlgebra) -> GradedModule:
    """A as a right module over itself; the action rows are the mult rows."""
    comps = {d: LabeledSpace.module_component(c.right_tags)
             for d, c in a.components.items()}
    return GradedModule._of(a, a.window, comps, a._table())


def free_module(a: GradedAlgebra, gens, window=None) -> GradedModule:
    """Direct sum of shifted copies of A, one per generator degree.

    Component t is the concatenation of the blocks A_{t - g} over the listed
    generator degrees g, in order.  Over Z the default window is just large
    enough to hold every block.
    """
    gens = [int(g) for g in gens]
    if not gens:
        raise PreconditionError("a free module needs at least one generator")
    m = _LayoutModule(a, [(g, None) for g in gens], window)
    return GradedModule._of(a, m.window, m.components, m._table())


def projective_module(a: GradedAlgebra, gens, window=None) -> GradedModule:
    """Direct sum of tag-cut shifted copies of A: one e_c A per (degree, tag).

    These are exactly the projectives with tops concentrated in the listed
    degrees when the degree-0 part is split semisimple.
    """
    gens = [(int(m), int(c)) for m, c in gens]
    if not gens:
        raise PreconditionError("need at least one generator")
    for _, c in gens:
        if not 0 <= c < a.k:
            raise PreconditionError(f"generator tag {c} out of range")
    m = _LayoutModule(a, gens, window)
    return GradedModule._of(a, m.window, m.components, m._table())


class _LayoutModule(_LazyModule):
    """The direct sum of shifted projectives on checked (degree, tag)
    generators, read through them: one block per generator.

    Generator b = (m, c) contributes e_c A shifted by m: at degree t, the
    basis vectors of A_d, d = t - m, whose left tag is c, or all of A_d
    for a tag of None.  Component t lists the blocks of the generators in
    order, each on the next free coordinates, and _blocks gives them as
    (b, A, d, {A-basis index: coordinate}).  Over Z only the degrees m + d,
    m a generator degree and d a degree of A, can hold a block, so those
    in the window are the ones listed: the cost follows the generators and
    A, not the width of the window, which defaults to the one just large
    enough to hold every block.  Over Z/n the window is A's.

    _build is the one row builder: row (p, j) of map (t, u), for p the A_d
    basis vector q of block b, is A's row (q, j) of map (d, u) kept on
    block b's coordinates at t + u, A's map read once per block.  Where
    components t and t + u are each one block of one generator holding all
    of A_d and A_{d+u}, map (t, u) is A's row dict of map (d, u) itself.
    It builds each map on first read, the one mechanism (_LazyModule) it
    shares with every quotient and the view killed from one; a quotient of
    it (quotient_with_maps), and the vanishing scan under any evaluation
    but the identity, read the blocks instead.  projective_module and
    free_module (so present_module's free module too) store its whole
    table; only the random modules' projectives (lifting._random_presented)
    and the lift's induced module stay read through their blocks, and
    neither is returned: a quotient of one keeps only its blocks, which
    read A's rows.
    """

    def __init__(self, a, gens, window=None):
        if a.group.kind == "Zn":
            window, degrees = a.window, range(a.group.n)
        else:
            if window is None:
                window = (min(m for m, _ in gens) + a.window[0],
                          max(m for m, _ in gens) + a.window[1])
            lo, hi = window = _checked_parts(a.group, window, a.k, {})[0]
            degrees = sorted({t for m, _ in gens for d in a.components
                              if lo <= (t := m + d) <= hi})
        comps, self._by_degree = {}, {}
        self._whole = {}  # t -> (b, d) where comps[t] is block b, all of A_d
        coords = {}  # one read-only coord dict per (start, positions)
        for t in degrees:
            tags, blocks = [], []
            for b, (m, c) in enumerate(gens):
                d = a.group.add(t, -m)
                comp = a.component(d)
                positions = tuple(q for q in range(comp.dim)
                                  if c is None or comp.left_tags[q] == c)
                if not positions:
                    continue
                coord = coords.get((len(tags), positions))
                if coord is None:
                    coord = coords[(len(tags), positions)] = {
                        q: len(tags) + n for n, q in enumerate(positions)}
                blocks.append((b, a, d, coord))
                tags.extend(comp.right_tags[q] for q in positions)
            if not tags:
                continue
            comps[t] = LabeledSpace.module_component(tuple(tags))
            self._by_degree[t] = blocks
            (b, _, d, _), *more = blocks
            if not more and len(tags) == a.component(d).dim:
                self._whole[t] = b, d
        super().__init__(a, window, comps)

    def _blocks(self, t):
        return self._by_degree.get(t, ())

    def _build(self, t, u):
        a, blocks, whole = self.over, self._by_degree, self._whole
        tu = a.group.add(t, u)
        if t not in blocks or tu not in blocks or u not in a.components:
            return None
        if t in whole and tu in whole and whole[t][0] == whole[tu][0]:
            # comps[t] has A_d's tags, so map (t, u) is present exactly
            # when A's map (d, u) is
            return a._rows(whole[t][1], u)
        into = {b: coord for b, _, _, coord in blocks[tu]}
        rows = {}
        for b, _, d, src in blocks[t]:
            dst = into.get(b)
            if dst is None:
                continue
            for (q, j), r in a._map_rows(d, u):
                if q in src and (row := {dst[qq]: v for qq, v in r.items()
                                         if qq in dst}):
                    rows[(src[q], j)] = row
        if rows or matched_pairs(self.components[t], a.component(u)):
            return rows
        return None


def present_module(a: GradedAlgebra, gens, relations, window=None) -> GradedModule:
    """Free module on gens modulo the submodule generated by relations.

    relations is an iterable of (degree, vector) with the vector written in
    the free module's coordinates at that degree.
    """
    free = free_module(a, gens, window)
    seeds = {}
    for degree, vec in relations:
        degree = int(degree)
        if a.group.kind == "Zn":
            degree %= a.group.n
        c = free.component(degree)
        vec = tuple(_coerce(a.field, e) for e in vec)
        if len(vec) != c.dim:
            raise PreconditionError(
                f"relation at degree {degree} has length {len(vec)}, "
                f"component has dimension {c.dim}")
        seeds.setdefault(degree, []).append(vec)
    spaces = closure_under_action(free, seeds)
    return quotient_module(free, spaces)
