"""Graded algebras and modules with support killing and regrading.

Data model
----------
An algebra and a right module are the same kind of data: per degree a
LabeledSpace (basis vectors tagged with idempotent indices on both sides),
and per degree pair (g, h) the matrix of a structure map on the tag-matched
tensor basis of X_g x A_h, rows indexed by matched pairs in lexicographic
order, columns by the basis of X_{g+h}.  For a GradedAlgebra X = A and the
map is the multiplication; for a GradedModule A is the algebra it lives
over and the map is the action.  Both share one base class holding the
components, the map table and the lookups on it.  Components absent from
the dictionary are zero, and for Z-graded objects every component outside
the window is zero by definition: the object is genuinely finite
dimensional, not a truncated view of an unknown infinite one.

The degree-0 part of an algebra carries the unit as an explicit coefficient
vector.  With k >= 2 idempotents the degree-0 part must be exactly the k
orthogonal idempotents (split semisimple); with k = 1 any unital degree-0
algebra is allowed.  Module components use their right tags for the
degree-0 action.

All arithmetic is exact, over QQ or GF(p).
"""

from __future__ import annotations

from .errors import (GradingViolationError, InternalConsistencyError, LabelError,
                     PreconditionError, ShapeError)
from .exactlin import (LabeledSpace, Matrix, Subspace, ZERO_SPACE, _entries,
                       _rank, apply_row, kernel, matched_pairs, nullspace,
                       pivot_reduce)
from .regrade_maps import WindowedMap, is_pseudomorphism
from .subsets import DegreeSet, Verdict, is_right_modular


class _GradedObject:
    """Graded components plus one table of structure maps X_g x A_h -> X_{g+h}.

    Subclasses name the table (_map_name: mult or action) and return from
    _acting() the algebra A acting on the right: the algebra itself, or the
    one a module lives over.
    """

    def __init__(self, group, window, k, field, components):
        lo, hi = int(window[0]), int(window[1])
        if group.kind == "Zn":
            if (lo, hi) != (0, group.n - 1):
                raise PreconditionError(
                    f"cyclic gradings carry the full window (0, {group.n - 1})")
        elif lo > hi:
            raise PreconditionError(f"empty window [{lo}, {hi}]")
        if k < 1:
            raise PreconditionError("at least one idempotent is required")
        self.group = group
        self.window = (lo, hi)
        self.field = field
        comps = {}
        for d, c in components.items():
            d = int(d)
            if group.kind == "Zn":
                d %= group.n
            if c.dim == 0:
                continue
            if not lo <= d <= hi:
                raise PreconditionError(f"component at degree {d} outside window")
            c.check_tags(k)
            comps[d] = c
        self.components = comps
        self._pair_cache = {}

    def _store_maps(self, table):
        """Check every map's shape and field; keep the nonempty ones."""
        stored = {}
        for (g, h), m in table.items():
            if self.group.kind == "Zn":
                g, h = g % self.group.n, h % self.group.n
            pairs = self.pairs(g, h)
            t = self.component(self.add_deg(g, h))
            if m.rows != len(pairs) or m.cols != t.dim:
                raise ShapeError(
                    f"{self._map_name}({g},{h}) must be {len(pairs)}x{t.dim}, "
                    f"got {m.rows}x{m.cols}")
            if m.field != self.field:
                raise ShapeError(f"{self._map_name} matrix over the wrong field")
            if m.rows and m.cols:
                stored[(g, h)] = m
        self._maps = stored

    def in_window(self, d):
        lo, hi = self.window
        return lo <= d <= hi

    def add_deg(self, a, b):
        return self.group.add(a, b)

    def component(self, d) -> LabeledSpace:
        if self.group.kind == "Zn":
            d %= self.group.n
        return self.components.get(d, ZERO_SPACE)

    def degrees(self):
        return sorted(self.components)

    def dims(self):
        return {d: c.dim for d, c in sorted(self.components.items())}

    def total_dim(self):
        return sum(c.dim for c in self.components.values())

    def _pairs_indexed(self, g, h):
        key = (g, h)
        got = self._pair_cache.get(key)
        if got is None:
            pairs = matched_pairs(self.component(g),
                                  self._acting().component(h))
            got = (pairs, {p: r for r, p in enumerate(pairs)})
            self._pair_cache[key] = got
        return got

    def pairs(self, g, h):
        """Matched basis pairs of X_g x A_h, the row order of map (g, h)."""
        return self._pairs_indexed(g, h)[0]

    def _map_matrix(self, g, h):
        """Stored matrix, or None when the map is structurally zero."""
        if self.group.kind == "Zn":
            g, h = g % self.group.n, h % self.group.n
        return self._maps.get((g, h))

    def _map_row(self, g, h, i, j):
        """Image of x_i * a_j as a vector over X_{g+h}; None when zero."""
        m = self._map_matrix(g, h)
        if m is None:
            return None
        r = self._pairs_indexed(g, h)[1].get((i, j))
        return None if r is None else m.entries[r]

    def _right_map_matrix(self, g, h, j):
        """Matrix of X_g -> X_{g+h}, x |-> x * a_j; None when zero."""
        m = self._map_matrix(g, h)
        tdim = self.component(self.add_deg(g, h)).dim
        if m is None or tdim == 0:
            return None
        index = self._pairs_indexed(g, h)[1]
        zero_row = (self.field.zero(),) * tdim
        rows = [m.entries[index[(i, j)]] if (i, j) in index else zero_row
                for i in range(self.component(g).dim)]
        return Matrix(self.field, len(rows), tdim, rows)


class GradedAlgebra(_GradedObject):
    """A finite-dimensional graded algebra over Z or Z/n."""

    _map_name = "mult"

    def __init__(self, group, window, k, field, components, mult, unit):
        super().__init__(group, window, k, field, components)
        self.k = k
        if 0 not in self.components:
            raise PreconditionError("the degree-0 component must be nonzero")
        a0 = self.components[0]
        if k >= 2:
            if a0.dim != k or a0.left_tags != tuple(range(k)) \
                    or a0.right_tags != tuple(range(k)):
                raise LabelError(
                    "with k >= 2 the degree-0 part must be the k idempotents, "
                    "basis vector i tagged (i, i)")
        unit = tuple(unit)
        if len(unit) != a0.dim:
            raise ShapeError("unit vector length must match the degree-0 dimension")
        self.unit = unit
        self._store_maps(mult)

    def _acting(self):
        return self

    @property
    def mult(self):
        return self._maps

    mult_matrix = _GradedObject._map_matrix
    mult_row = _GradedObject._map_row
    right_mult_matrix = _GradedObject._right_map_matrix


class KilledAlgebra(GradedAlgebra):
    """A graded algebra obtained by killing all components off a degree set.

    Carries its ancestry: base is the original algebra and support the degree
    set.  Products landing outside the support are structurally zero because
    the target component is gone.
    """

    def __init__(self, base, support, components, mult):
        super().__init__(base.group, base.window, base.k, base.field,
                         components, mult, base.unit)
        self.base = base
        self.support = support


class GradedModule(_GradedObject):
    """A right graded module over a GradedAlgebra."""

    _map_name = "action"

    def __init__(self, over, window, components, action):
        self.over = over
        super().__init__(over.group, window, over.k, over.field, components)
        self._store_maps(action)

    def _acting(self):
        return self.over

    @property
    def action(self):
        return self._maps

    action_matrix = _GradedObject._map_matrix
    action_row = _GradedObject._map_row
    right_action_matrix = _GradedObject._right_map_matrix


# ---------------------------------------------------------------------------
# structural equality


def _live_maps(table):
    return {key: m for key, m in table.items()
            if m.rows and m.cols and not m.is_zero()}


def algebras_equal(a: GradedAlgebra, b: GradedAlgebra) -> bool:
    return (a.group == b.group and a.window == b.window and a.k == b.k
            and a.field == b.field and a.unit == b.unit
            and a.components == b.components
            and _live_maps(a.mult) == _live_maps(b.mult))


def modules_equal(m: GradedModule, n: GradedModule) -> bool:
    return (algebras_equal(m.over, n.over) and m.window == n.window
            and m.components == n.components
            and _live_maps(m.action) == _live_maps(n.action))



# ---------------------------------------------------------------------------
# validation


def validate_algebra(a: GradedAlgebra) -> Verdict:
    """Tag compatibility, unit laws, and full associativity.

    The scan is exhaustive over stored degrees, hence exact: cyclic gradings
    enumerate all residues and Z-graded objects are zero outside the window
    by definition.  Witness shapes: ("tags", g, h, i, j, q),
    ("unit-left"|"unit-right", g, i), ("assoc", (g, h, l), (i, j, k)).
    """
    F = a.field
    witness = _tag_escape(a, both_sides=True)
    if witness is not None:
        return Verdict(False, False, witness,
                       reason="product escapes its tag block")
    if a.k >= 2:
        if a.mult_matrix(0, 0) != Matrix.identity(F, a.k):
            return Verdict(False, False, ("degree0",),
                           reason="degree-0 product is not the split idempotent product")
        if a.unit != tuple(F.one() for _ in range(a.k)):
            return Verdict(False, False, ("unit",),
                           reason="unit must be the sum of the idempotents")
    for g in a.degrees():
        for idx in range(a.component(g).dim):
            if not _unit_side(a, a.unit, g, idx, left=True):
                return Verdict(False, False, ("unit-left", g, idx))
            if not _unit_side(a, a.unit, g, idx, left=False):
                return Verdict(False, False, ("unit-right", g, idx))
    witness = _assoc_witness(a)
    return Verdict(witness is None, False, witness)


def validate_module(mod: GradedModule) -> Verdict:
    """Tag compatibility, unit action, and action associativity."""
    witness = _tag_escape(mod, both_sides=False)
    if witness is not None:
        return Verdict(False, False, witness,
                       reason="action escapes its tag block")
    for s in mod.degrees():
        for idx in range(mod.component(s).dim):
            if not _unit_side(mod, mod.over.unit, s, idx, left=False):
                return Verdict(False, False, ("unit", s, idx))
    witness = _assoc_witness(mod)
    return Verdict(witness is None, False, witness)


def _tag_escape(x, both_sides):
    """First nonzero map entry landing on a basis vector with other tags.

    The right tag of x_i * a_j is that of a_j; for algebras the left tag is
    also checked against that of x_i (module left tags carry no action).
    """
    z = x.field.zero()
    right = x._acting()
    for (g, h), m in x._maps.items():
        cg, ch = x.component(g), right.component(h)
        ct = x.component(x.add_deg(g, h))
        for r, (i, j) in enumerate(x.pairs(g, h)):
            for q in range(ct.dim):
                if m.entries[r][q] != z and (
                        ct.right_tags[q] != ch.right_tags[j]
                        or both_sides and ct.left_tags[q] != cg.left_tags[i]):
                    return ("tags", g, h, i, j, q)
    return None


def _unit_side(x, unit, g, idx, left):
    """Whether the unit fixes basis vector idx of X_g from the given side."""
    F = x.field
    dim = x.component(g).dim
    if left:
        got = _accumulate(F, dim, unit, lambda pos: x._map_row(0, g, pos, idx))
    else:
        got = _accumulate(F, dim, unit, lambda pos: x._map_row(g, 0, idx, pos))
    return got == tuple(F.one() if t == idx else F.zero() for t in range(dim))


def _assoc_witness(x):
    """First basis triple with (x a) b != x (a b), or None.

    x ranges over the object, a and b over the algebra acting on it; for an
    algebra the two coincide.  Witness: ("assoc", (s, u, v), (i, j, k)).
    """
    a = x._acting()
    F = x.field
    adegs = a.degrees()
    for s in x.degrees():
        cs = x.component(s)
        for u in adegs:
            cu = a.component(u)
            su = x.add_deg(s, u)
            csu = x.component(su)
            for v in adegs:
                cv = a.component(v)
                uv = a.add_deg(u, v)
                ct = x.component(x.add_deg(su, v))
                if ct.dim == 0:
                    continue
                cuv = a.component(uv)
                for i in range(cs.dim):
                    for j in range(cu.dim):
                        if cs.right_tags[i] != cu.left_tags[j]:
                            continue
                        xa = x._map_row(s, u, i, j) if csu.dim else None
                        for kk in range(cv.dim):
                            if cu.right_tags[j] != cv.left_tags[kk]:
                                continue
                            r1 = _accumulate(F, ct.dim, xa,
                                             lambda m: x._map_row(su, v, m, kk))
                            ab = a.mult_row(u, v, j, kk) if cuv.dim else None
                            r2 = _accumulate(F, ct.dim, ab,
                                             lambda m: x._map_row(s, uv, i, m))
                            if r1 != r2:
                                return ("assoc", (s, u, v), (i, j, kk))
    return None


def _accumulate(field, tdim, coeffs, row_of):
    """Sum of coeffs[m] * row_of(m) as a tuple of length tdim; coeffs is a
    dense row, a dict {m: coefficient} or None."""
    z = field.zero()
    acc = [z] * tdim
    if coeffs is not None:
        for m, c in _entries(coeffs):
            if c == z:
                continue
            row = row_of(m)
            if row is None:
                continue
            acc = [field.add(x, field.mul(c, y)) for x, y in zip(acc, row)]
    return tuple(acc)


def is_generated_in_degrees_01(a: GradedAlgebra) -> bool:
    """Whether every component above degree 1 is spanned by degree-1 products.

    Only meaningful for Z-graded algebras whose window starts at 0: checks
    surjectivity of A_1 x A_{i-1} -> A_i for every stored degree i >= 2.
    """
    if a.group.kind != "Z" or a.window[0] != 0:
        return False
    for i in a.degrees():
        if i < 2:
            continue
        m = a.mult_matrix(1, i - 1)
        if m is None:
            return False
        if _rank(a.field, m.entries) < a.component(i).dim:
            return False
    return True


# ---------------------------------------------------------------------------
# killing supports


def _check_set_group(obj, s: DegreeSet):
    if s.group != obj.group:
        raise PreconditionError(
            f"degree set over {s.group!r} cannot grade an object over {obj.group!r}")


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
    return KilledAlgebra(a, u, comps, _kept_maps(a, comps, comps))


def kill_support_module(m: GradedModule, s: DegreeSet, u: DegreeSet,
                        algebra: KilledAlgebra | None = None) -> GradedModule:
    """M_S over A_U: keep components in S, kill actions landing outside S.

    Requires (S, U) to be a right modular pair, which is exactly the
    condition making the killed action associative for every module.
    """
    _check_set_group(m, s)
    verdict = is_right_modular(s, u)
    if not verdict.holds:
        raise PreconditionError(
            f"(S, U) is not a right modular pair: {verdict.reason} fails, "
            f"witness {verdict.witness}")
    if algebra is None:
        algebra = kill_support_algebra(m.over, u)
    comps = {d: c for d, c in m.components.items() if s.contains(d)}
    return GradedModule(algebra, m.window, comps,
                        _kept_maps(m, comps, algebra.components))


def _kept_maps(x, comps, acting):
    """The maps of x between kept degrees comps, by acting degrees."""
    return {(g, h): mat for (g, h), mat in x._maps.items()
            if g in comps and h in acting and x.add_deg(g, h) in comps}


def shift_module(m: GradedModule, g: int) -> GradedModule:
    """Degree shift: shift(M, g)_h = M_{h-g}."""
    if m.group.kind == "Zn":
        window = m.window
    else:
        window = (m.window[0] + g, m.window[1] + g)
    comps = {m.add_deg(d, g): c for d, c in m.components.items()}
    action = {(m.add_deg(s, g), u): mat for (s, u), mat in m.action.items()}
    return GradedModule(m.over, window, comps, action)



# ---------------------------------------------------------------------------
# regrading along a windowed pseudomorphism


def _check_regrade(x, phi: WindowedMap):
    if x.group.kind != "Z":
        raise PreconditionError("regrading applies to Z-graded objects")
    v = is_pseudomorphism(phi)
    if not v.holds:
        raise PreconditionError(
            f"map is not a pseudomorphism on its window: {v.reason}, "
            f"witness {v.witness}")


def regrade_algebra(b: GradedAlgebra, phi: WindowedMap) -> GradedAlgebra:
    """New grading with component sigma = B_{phi(sigma)}.

    Requires every nonzero component of B to sit inside the window image of
    phi, so the new grading sees all of B.  Products between image degrees
    that land outside the image are necessarily zero under that hypothesis;
    a nonzero one raises a grading violation with witness (sigma, tau).
    """
    _check_regrade(b, phi)
    return _regraded_algebra(b, phi)


def _regraded_algebra(b, phi):
    window, comps, mult = _regraded_parts(b, phi, 0)
    return GradedAlgebra(b.group, window, b.k, b.field, comps, mult, b.unit)


def regrade_module(x: GradedModule, phi: WindowedMap, g: int = 0,
                   algebra: GradedAlgebra | None = None) -> GradedModule:
    """New grading with component sigma = X_{g + phi(sigma)}."""
    _check_regrade(x, phi)
    if algebra is None:
        algebra = _regraded_algebra(x.over, phi)
    window, comps, action = _regraded_parts(x, phi, g)
    return GradedModule(algebra, window, comps, action)


def _regraded_parts(x, phi: WindowedMap, g: int):
    """Window, components and maps of x regraded along phi, shifted by g.

    Component sigma is X_{g + phi(sigma)} and the map at (sigma, tau) is the
    map of x at (g + phi(sigma), phi(tau)).  Only positions whose image falls
    inside x's window are certified by x, so the new window is clipped to
    them.  A nonzero map whose value sum leaves the image, or whose target
    has no slot in the new window, raises a grading violation with witness
    (sigma, tau).
    """
    img = {phi(s) for s in phi.domain()}
    for d in x.degrees():
        if d - g not in img:
            raise PreconditionError(
                f"nonzero component at degree {d} lies outside "
                f"{g} + Im(phi)")
    lo, hi = _clipped_positions(phi, x.window, g)
    comps = {}
    for sigma in range(lo, hi + 1):
        c = x.component(g + phi(sigma))
        if c.dim:
            comps[sigma] = c
    right = x._acting()
    taus = [t for t in phi.domain() if right.component(phi(t)).dim]
    maps = {}
    for sigma in comps:
        for tau in taus:
            mat = x._map_matrix(g + phi(sigma), phi(tau))
            if mat is None:
                continue
            st = sigma + tau
            total = phi(sigma) + phi(tau)
            if total not in img:
                if not mat.is_zero():
                    raise GradingViolationError(
                        f"{x._map_name} lands outside the image of the "
                        f"regrading map", witness=(sigma, tau))
                continue
            if not lo <= st <= hi:
                # the target exists in x but the new grading has no slot for it
                if not mat.is_zero():
                    raise GradingViolationError(
                        f"{x._map_name} leaves the regrading window",
                        witness=(sigma, tau))
                continue
            if phi(st) != total:
                raise InternalConsistencyError(
                    "pseudomorphism certificate violated during regrading")
            maps[(sigma, tau)] = mat
    return (lo, hi), comps, maps


def _clipped_positions(phi: WindowedMap, window, g: int = 0):
    """Positions whose phi-image falls inside the target window."""
    lo, hi = window
    positions = [s for s in phi.domain() if lo <= g + phi(s) <= hi]
    if not positions:
        raise PreconditionError("the regrading map misses the window")
    return positions[0], positions[-1]


def un_regrade_module(v: GradedModule, phi: WindowedMap, g: int = 0,
                      algebra: GradedAlgebra | None = None) -> GradedModule:
    """Inverse of regrade_module on modules satisfying the vanishing pattern.

    V must kill every action V_sigma x B_tau with phi(sigma) + phi(tau)
    outside the window image of phi; otherwise the result would not be graded
    and a grading violation with witness (sigma, tau) is raised.  When the
    algebra to grade over is not supplied it is rebuilt by pushing V's
    algebra forward along phi.
    """
    _check_regrade(v, phi)
    dom = list(phi.domain())
    img = {phi(s): s for s in dom}
    for sigma in v.degrees():
        for tau in dom:
            if phi(sigma) + phi(tau) in img:
                continue
            mat = v.action_matrix(sigma, tau)
            if mat is not None and not mat.is_zero():
                raise GradingViolationError(
                    "action violates the regrading vanishing pattern",
                    witness=(sigma, tau))
    if algebra is None:
        algebra = _push_forward_algebra(v.over, phi)
    lo = max(v.window[0], phi.window[0])
    hi = min(v.window[1], phi.window[1])
    if lo > hi:
        raise PreconditionError("the module window misses the map window")
    window = (g + phi(lo), g + phi(hi))
    comps = {g + phi(sigma): v.component(sigma) for sigma in v.degrees()}
    action = {}
    for (sigma, tau), mat in v.action.items():
        if phi(sigma) + phi(tau) in img:
            action[(g + phi(sigma), phi(tau))] = mat
    return GradedModule(algebra, window, comps, action)


def _push_forward_algebra(bt: GradedAlgebra, phi: WindowedMap) -> GradedAlgebra:
    lo = max(bt.window[0], phi.window[0])
    hi = min(bt.window[1], phi.window[1])
    if lo > hi:
        raise PreconditionError("the algebra window misses the map window")
    window = (phi(lo), phi(hi))
    comps = {}
    for sigma in phi.domain():
        c = bt.component(sigma)
        if c.dim:
            comps[phi(sigma)] = c
    mult = {(phi(s), phi(t)): m for (s, t), m in bt.mult.items()}
    return GradedAlgebra(bt.group, window, bt.k, bt.field, comps, mult, bt.unit)


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
    bases = {}
    for d, sp in spaces.items():
        if sp.dim == 0:
            continue
        bases[d] = _tag_blocks(m.component(d), sp)
    comps = {d: LabeledSpace.module_component(tags)
             for d, (_, tags, _) in bases.items()}

    def coords(t, vec):
        # a push into an unlisted degree must land on zero
        rows, _, pivots = bases.get(t, ((), (), ()))
        rest, got = pivot_reduce(F, rows, pivots, vec)
        if any(rest):
            raise PreconditionError(
                f"subspaces are not action-closed: a push leaves the "
                f"degree-{t} subspace")
        return tuple(got)

    def image(d, u, i, j):
        t = m.add_deg(d, u)
        return _accumulate(F, m.component(t).dim, bases[d][0][i],
                           lambda k: m.action_row(d, u, k, j))

    # pushes into every degree of m, so coords sees any that leave the spaces
    action = _action_on(m, comps, image, coords, m.components)
    return GradedModule(m.over, m.window, comps, action)


def _action_on(m: GradedModule, comps, image, coords, targets) -> dict:
    """Action table of a module built from m on the components comps.

    Basis vector i of comps[d] times a_j is image(d, u, i, j) in m's
    coordinates, read from m's stored action rows; None means zero.
    coords(t, vec) writes that vector in the basis of comps[t], empty when
    t is unlisted.  Only degrees d + u in targets are pushed into; nothing
    is built for the others.
    """
    F = m.field
    action = {}
    for d in comps:
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            if t not in targets:
                continue
            tdim = comps[t].dim if t in comps else 0
            out = []
            for (i, j) in matched_pairs(comps[d], m.over.component(u)):
                vec = image(d, u, i, j)
                out.append((F.zero(),) * tdim if vec is None
                           else coords(t, vec))
            if out and tdim:
                action[(d, u)] = Matrix(F, len(out), tdim, out)
    return action


def quotient_with_maps(m: GradedModule, spaces: dict):
    """M / W together with its coordinate data, for action-closed W.

    Returns (quotient, project, keep) where project(d, vec) rewrites an
    ambient coordinate vector in quotient coordinates and keep[d] lists the
    ambient coordinates whose classes form the quotient basis at degree d.

    The quotient basis at each degree is the set of standard coordinates not
    used as pivots by the tag-blocked basis of W, ordered by tag, so the
    result again has tag-pure basis vectors.  Basis vector i times a_j is
    the stored action row of coordinate keep[i], projected.
    """
    F = m.field
    reducers, comps = {}, {}
    for d in m.degrees():
        comp = m.component(d)
        rows, _, pivots = _tag_blocks(
            comp, spaces.get(d, Subspace.zero(F, comp.dim)))
        keep = sorted(set(range(comp.dim)) - set(pivots),
                      key=lambda i: (comp.right_tags[i], i))
        reducers[d] = (rows, pivots, keep)
        if keep:
            comps[d] = LabeledSpace.module_component(
                tuple(comp.right_tags[i] for i in keep))

    def project(d, vec):
        rows, pivots, keep = reducers[d]
        v = pivot_reduce(F, rows, pivots, vec)[0]
        return tuple(v[i] for i in keep)

    action = _action_on(
        m, comps,
        lambda d, u, i, j: m.action_row(d, u, reducers[d][2][i], j),
        project, comps)
    quotient = GradedModule(m.over, m.window, comps, action)
    keep_map = {d: tuple(keep) for d, (_, _, keep) in reducers.items()}
    return quotient, project, keep_map


def quotient_module(m: GradedModule, spaces: dict) -> GradedModule:
    """M / W for an action-closed family of component subspaces W."""
    return quotient_with_maps(m, spaces)[0]


def closure_under_action(m: GradedModule, seeds: dict) -> dict:
    """Smallest action-closed family of component subspaces containing seeds.

    seeds maps degrees to lists of coordinate vectors.  Closed form:
    span(seeds + seeds A), closed since (x b) a = x (b a); one pass over
    (seed degree, u, j), one Subspace.from_vectors per degree.  The seeds
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
            if m.component(t).dim == 0:
                continue
            for j in range(m.over.component(u).dim):
                ra = m.right_action_matrix(d, u, j)
                if ra is not None:
                    vecs[t].extend(apply_row(F, r, ra) for r in seed)
    return {d: Subspace.from_vectors(F, m.component(d).dim, v)
            for d, v in vecs.items()}


def _full_seeds(m: GradedModule, degrees):
    seeds = {}
    for d in degrees:
        c = m.component(d)
        if c.dim:
            seeds[d] = list(Subspace.full(m.field, c.dim).rows)
    return seeds


def generated_submodule(m: GradedModule, degrees) -> GradedModule:
    """The submodule generated by the full components at the given degrees."""
    return submodule_from_subspaces(
        m, closure_under_action(m, _full_seeds(m, degrees)))


def is_generated_in(m: GradedModule, degrees) -> bool:
    spaces = closure_under_action(m, _full_seeds(m, degrees))
    return all(spaces[d].dim == m.component(d).dim for d in m.degrees())


def _complement_matrix(field, ambient, space: Subspace):
    """Matrix of a projection K^ambient -> K^(ambient - dim) killing space.

    ambient x 0 when the space is everything: the projection onto nothing,
    under which every vector vanishes.
    """
    return Matrix(field, ambient, ambient - space.dim, space.unit_residues())


def preimage_subspace(f: Matrix, w: Subspace) -> Subspace:
    """{x : x @ f in w}."""
    if f.cols != w.ambient:
        raise ShapeError("preimage target dimension mismatch")
    return kernel(f @ _complement_matrix(f.field, f.cols, w))


def _vanishing_space(m: GradedModule, d, evals: dict) -> Subspace:
    """{x in M_d : x a evaluates to zero at every watched degree}.

    evals maps each watched degree t to the evaluation applied there, a
    matrix on M_t or None for the identity; a matrix with no columns (the
    complement of all of M_t) asks nothing.  x must vanish under ev_t after
    every basis vector a of A landing at t = d + u, and under ev_d itself
    when d is watched.  One nullspace over the stacked columns.
    """
    F = m.field
    dim = m.component(d).dim
    cols = []
    if d in evals:
        ev = evals[d]
        cols.extend(Subspace.full(F, dim).basis if ev is None
                    else zip(*ev.entries))
    for u in m.over.degrees():
        t = m.add_deg(d, u)
        if (t not in evals or m.component(t).dim == 0
                or (evals[t] is not None and evals[t].cols == 0)):
            continue
        for j in range(m.over.component(u).dim):
            ra = m.right_action_matrix(d, u, j)
            if ra is not None:
                if evals[t] is not None:
                    ra = ra @ evals[t]
                cols.extend(zip(*ra.entries))
    return nullspace(F, cols, dim)


def torsion_spaces(n: GradedModule, s: DegreeSet) -> dict:
    """Component subspaces of the largest submodule supported outside S.

    Closed form: x in N_d lies in it exactly when d is off S and x a = 0 for
    every basis vector a of A whose target d + u is not off S; closed since
    (x b) a = x (b a).  One nullspace per off-S degree, zero elsewhere.
    Degrees whose S membership cannot be decided (outside a windowed S's
    window) count as inside S, which keeps the result sound if possibly
    small.  Assumes n is a module: associative, unital action
    (validate_module).
    """
    _check_set_group(n, s)
    inside = {t: None for t in n.degrees() if s.try_contains(t) is not False}
    return {d: Subspace.zero(n.field, n.component(d).dim) if d in inside
            else _vanishing_space(n, d, inside)
            for d in n.degrees()}


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


def hom_space_basis(m: GradedModule, n: GradedModule) -> list:
    """Basis of the space of degree-0 module maps M -> N.

    Each basis element is a dict degree -> Matrix giving the component of the
    map in the two modules' bases.  Both modules must live over structurally
    equal algebras.  The defining equations f_{s+u}(x a) = f_s(x) a are
    imposed for every module degree, algebra degree, and acting basis vector;
    unknowns exist only at degrees where both components are nonzero, and
    maps out of or into zero components contribute one-sided constraints.
    """
    if not algebras_equal(m.over, n.over):
        raise PreconditionError("hom spaces need modules over the same algebra")
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
    adegs = m.over.degrees()
    for d in m.degrees():
        md = m.component(d).dim
        nd = n.component(d).dim
        for u in adegs:
            t = m.add_deg(d, u)
            nt = n.component(t).dim
            if nt == 0:
                continue
            for j in range(m.over.component(u).dim):
                tm = m.right_action_matrix(d, u, j)
                tn = n.right_action_matrix(d, u, j) if nd else None
                if tm is None and tn is None:
                    continue
                # the nonzeros of row i of tm and of column c of tn
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
                                row[base + q] = F.sub(row.get(base + q, z), coef)
                        if row:
                            equations.append(row)
    sols = nullspace(F, equations, total)
    out = []
    for vec in sols.basis:
        maps = {}
        for d, base in offset.items():
            md, nd = m.component(d).dim, n.component(d).dim
            rows = [tuple(vec.get(base + i * nd + q, z) for q in range(nd))
                    for i in range(md)]
            maps[d] = Matrix(F, md, nd, rows)
        out.append(maps)
    return out


def hom_space_dim(m: GradedModule, n: GradedModule) -> int:
    return len(hom_space_basis(m, n))
