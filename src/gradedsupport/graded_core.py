"""Graded algebras and modules with support killing and regrading.

Data model
----------
An algebra and a right module are the same kind of data: per degree a
LabeledSpace (basis vectors tagged with idempotent indices on both sides),
and per degree pair (g, h) a structure map on the tag-matched tensor basis
of X_g x A_h, listed by pairs(g, h).  That list depends only on the right
tags of X_g and the left tags of A_h, so an object keeps one list per such
tag shape and shares it between all its degree pairs of that shape: the
lists are read-only.  A map is stored as a dict {(i, j): row} from a
matched pair to the image of x_i * a_j, a {col: value} row of its nonzeros
in the basis of X_{g+h}, holding the nonzero rows only.  Rows are
read-only and may be shared, within a map and between objects: kill,
shift and regrade pass the row dicts through, a quiver algebra stores one
row per path class for all its splits, and a quotient one image row per
target coordinate for all the one-entry rows with coefficient 1 that land
there; nothing writes a stored row.  A map is present when it has a
nonzero row, or matched pairs and a nonzero target, so it may be an empty
dict; any other map has no entry at all.  Every action is
read from these rows, one dict lookup per pair.  The Matrix of a map, rows
in lexicographic pair order, wraps the same rows for .mult / .action /
mult_matrix / action_matrix.  For a GradedAlgebra X = A and the map is the
multiplication; for a GradedModule A is the algebra it lives over and the
map is the action.  Both share one base class holding the components, the
map table and the lookups on it.  Components absent from the dictionary are
zero, and for Z-graded objects every component outside the window is zero
by definition: the object is genuinely finite dimensional, not a truncated
view of an unknown infinite one.  Over Z/n, degrees are reduced mod n.

Objects are built on one of two paths.  The checked path, the public
constructors that the JSON readers call, checks every field and map, and
refuses two components or two maps at one reduced degree.  The trusted
path, _of, is for this library's builders only, whose tables are in stored
form by construction, and keeps them with no copy and no check.

The degree-0 part of an algebra carries the unit as an explicit coefficient
vector.  With k >= 2 idempotents the degree-0 part must be exactly the k
orthogonal idempotents (split semisimple); with k = 1 any unital degree-0
algebra is allowed.  Module components use their right tags for the
degree-0 action.

All arithmetic is exact, over QQ or GF(p).
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import (GradingViolationError, InternalConsistencyError, LabelError,
                     PreconditionError, ShapeError)
from .exactlin import (LabeledSpace, Matrix, Subspace, ZERO_SPACE, _accumulate,
                       _echelon, _forward, _rank, kernel, matched_pairs,
                       nullspace)
from .regrade_maps import WindowedMap, is_pseudomorphism
from .subsets import DegreeSet, Verdict, is_right_modular, same_set


def _claim(seen, key, what, group):
    """Refuse a second entry at one degree key, reduced mod n over Z/n:
    it would silently replace the first."""
    if key in seen:
        raise PreconditionError(f"two {what} at degree {key} of {group!r}")
    seen.add(key)


def _checked_parts(group, window, k, components):
    """The window as ints and the nonzero components by reduced degree."""
    lo, hi = int(window[0]), int(window[1])
    if group.kind == "Zn":
        if (lo, hi) != (0, group.n - 1):
            raise PreconditionError(
                f"cyclic gradings carry the full window (0, {group.n - 1})")
    elif lo > hi:
        raise PreconditionError(f"empty window [{lo}, {hi}]")
    if k < 1:
        raise PreconditionError("at least one idempotent is required")
    comps, seen = {}, set()
    for d, c in components.items():
        d = int(d)
        if group.kind == "Zn":
            d %= group.n
        _claim(seen, d, "components", group)
        if c.dim == 0:
            continue
        if not lo <= d <= hi:
            raise PreconditionError(f"component at degree {d} outside window")
        c.check_tags(k)
        comps[d] = c
    return (lo, hi), comps


class _GradedObject:
    """Graded components plus one table of structure maps X_g x A_h -> X_{g+h}.

    Subclasses name the table (_map_name: mult or action) and return from
    _acting() the algebra A acting on the right: the algebra itself, or the
    one a module lives over.
    """

    @classmethod
    def _of(cls, *args):
        """cls(*args) on the trusted path: _fields sets the fields as given
        and keeps the table with no copy and no check."""
        x = cls.__new__(cls)
        x._fields(*args)
        return x

    def _store_maps(self, table):
        """The checked path's table: check every map and keep each present
        one as the dict of its nonzero rows.  A map is a Matrix with one row
        per pairs(g, h), or a dict keyed by matched pair."""
        stored, seen = {}, set()
        right, field, zn = self._acting(), self.field, self.group.n
        for (g, h), m in table.items():
            if zn is not None:
                g, h = g % zn, h % zn
                _claim(seen, (g, h), f"{self._map_name} maps", self.group)
            dim = self.component(self.add_deg(g, h)).dim
            pairs = self.pairs(g, h)
            if isinstance(m, Matrix):
                if (m.rows, m.cols) != (len(pairs), dim):
                    raise ShapeError(
                        f"{self._map_name}({g},{h}) must be {len(pairs)}x"
                        f"{dim}, got {m.rows}x{m.cols}")
                # identity first: PrimeField.__eq__ is Python-level
                if m.field is not field and m.field != field:
                    raise ShapeError(f"{self._map_name} matrix over the wrong field")
                rows = {p: r for p, r in zip(pairs, m.nz) if r}
            else:
                cg, ch = self.component(g), right.component(h)
                for i, j in m:
                    if not (0 <= i < cg.dim and 0 <= j < ch.dim) \
                            or cg.right_tags[i] != ch.left_tags[j]:
                        raise ShapeError(f"{self._map_name}({g},{h}) keys "
                                         f"{(i, j)}, not a matched pair")
                rows = {p: nz for p, r in m.items()
                        if (nz := {c: v for c, v in r.items() if v})}
                cols = set().union(*rows.values())  # one pass over the rows
                if cols and not (min(cols) >= 0 and max(cols) < dim):
                    raise ShapeError(f"{self._map_name}({g},{h}) has a column "
                                     f"beyond the {dim} of its target")
            if rows or dim and pairs:
                stored[(g, h)] = rows
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

    def pairs(self, g, h):
        """Matched basis pairs of X_g x A_h, the row order of map (g, h):
        cached under (g, h) and under the tag shape, whose list is shared
        and read-only (see the module docstring)."""
        cache = self._pair_cache
        got = cache.get((g, h))
        if got is None:
            x, a = self.component(g), self._acting().component(h)
            # the tag tuples, not the LabeledSpaces, whose hash is Python's
            shape = x.right_tags, a.left_tags
            got = cache.get(shape)
            if got is None:
                got = cache[shape] = matched_pairs(x, a)
            cache[(g, h)] = got
        return got

    def _rows(self, g, h):
        """The stored {(i, j): row} dict of map (g, h), None when absent."""
        if self.group.kind == "Zn":
            g, h = g % self.group.n, h % self.group.n
        return self._maps.get((g, h))

    def _map_matrix(self, g, h):
        """Map (g, h) as a Matrix on its stored rows; None when absent."""
        rows = self._rows(g, h)
        if rows is None:
            return None
        pairs = self.pairs(g, h)
        return Matrix._of(self.field, len(pairs),
                          self.component(self.add_deg(g, h)).dim,
                          tuple(rows.get(p, {}) for p in pairs))

    def _dense_maps(self):
        return {key: self._map_matrix(*key) for key in self._maps}

    def _map_row(self, g, h, i, j):
        """Image of x_i * a_j as a {col: value} row; None when zero."""
        return (self._rows(g, h) or {}).get((i, j))

    def _map_rows(self, g, h):
        """((i, j), image of x_i * a_j) for each nonzero row of map (g, h)."""
        return (self._rows(g, h) or {}).items()


class GradedAlgebra(_GradedObject):
    """A finite-dimensional graded algebra over Z or Z/n."""

    _map_name = "mult"

    def __init__(self, group, window, k, field, components, mult, unit):
        window, components = _checked_parts(group, window, k, components)
        if 0 not in components:
            raise PreconditionError("the degree-0 component must be nonzero")
        a0 = components[0]
        if k >= 2:
            if a0.dim != k or a0.left_tags != tuple(range(k)) \
                    or a0.right_tags != tuple(range(k)):
                raise LabelError(
                    "with k >= 2 the degree-0 part must be the k idempotents, "
                    "basis vector i tagged (i, i)")
        unit = tuple(unit)
        if len(unit) != a0.dim:
            raise ShapeError("unit vector length must match the degree-0 dimension")
        # GradedAlgebra's own: a KilledAlgebra's _fields takes other arguments
        GradedAlgebra._fields(self, group, window, k, field, components, {}, unit)
        self._store_maps(mult)

    def _fields(self, group, window, k, field, components, mult, unit):
        self.group, self.window, self.k, self.field = group, window, k, field
        self.components, self._maps, self.unit = components, mult, unit
        self._pair_cache, self._generated_01 = {}, None

    def _acting(self):
        return self

    mult = property(_GradedObject._dense_maps)
    mult_matrix = _GradedObject._map_matrix
    mult_row = _GradedObject._map_row


class KilledAlgebra(GradedAlgebra):
    """A graded algebra obtained by killing all components off a degree set.

    Carries its ancestry: base is the original algebra and support the degree
    set.  Products landing outside the support are structurally zero because
    the target component is gone.
    """

    def __init__(self, base, support, components, mult):
        super().__init__(base.group, base.window, base.k, base.field,
                         components, mult, base.unit)
        self.base, self.support = base, support

    def _fields(self, base, support, components, mult):
        super()._fields(base.group, base.window, base.k, base.field,
                        components, mult, base.unit)
        self.base, self.support = base, support


class GradedModule(_GradedObject):
    """A right graded module over a GradedAlgebra."""

    _map_name = "action"

    def __init__(self, over, window, components, action):
        self._fields(over, *_checked_parts(over.group, window, over.k,
                                           components), {})
        self._store_maps(action)

    def _fields(self, over, window, components, action):
        self.over, self.group, self.window = over, over.group, window
        self.field, self.components, self._maps = over.field, components, action
        self._pair_cache = {}

    def _acting(self):
        return self.over

    action = property(_GradedObject._dense_maps)
    action_matrix = _GradedObject._map_matrix
    action_row = _GradedObject._map_row


# ---------------------------------------------------------------------------
# structural equality


def _same_maps(x, y):
    """Equal stored rows, a map with no nonzero row counting as absent."""
    return ({key: rows for key, rows in x._maps.items() if rows}
            == {key: rows for key, rows in y._maps.items() if rows})


def algebras_equal(a: GradedAlgebra, b: GradedAlgebra) -> bool:
    return a is b or (
        a.group == b.group and a.window == b.window and a.k == b.k
        and a.field == b.field and a.unit == b.unit
        and a.components == b.components and _same_maps(a, b))


def modules_equal(m: GradedModule, n: GradedModule) -> bool:
    return m is n or (
        algebras_equal(m.over, n.over) and m.window == n.window
        and m.components == n.components and _same_maps(m, n))


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
    witness = _tag_escape(a)
    if witness is not None:
        return Verdict(False, False, witness,
                       reason="product escapes its tag block")
    if a.k >= 2:
        if a._rows(0, 0) != {(i, i): {i: F.one()} for i in range(a.k)}:
            return Verdict(False, False, ("degree0",),
                           reason="degree-0 product is not the split idempotent product")
        if a.unit != tuple(F.one() for _ in range(a.k)):
            return Verdict(False, False, ("unit",),
                           reason="unit must be the sum of the idempotents")
    for g in a.degrees():
        for idx in range(a.component(g).dim):
            if not _unit_side(a, g, idx, left=True):
                return Verdict(False, False, ("unit-left", g, idx))
            if not _unit_side(a, g, idx, left=False):
                return Verdict(False, False, ("unit-right", g, idx))
    witness = _assoc_witness(a)
    return Verdict(witness is None, False, witness)


def validate_module(mod: GradedModule) -> Verdict:
    """Tag compatibility, unit action, and action associativity."""
    witness = _tag_escape(mod)
    if witness is not None:
        return Verdict(False, False, witness,
                       reason="action escapes its tag block")
    for s in mod.degrees():
        for idx in range(mod.component(s).dim):
            if not _unit_side(mod, s, idx, left=False):
                return Verdict(False, False, ("unit", s, idx))
    witness = _assoc_witness(mod)
    return Verdict(witness is None, False, witness)


def _tag_escape(x):
    """First nonzero map entry landing on a basis vector with other tags.

    The right tag of x_i * a_j is that of a_j; for algebras the left tag is
    also checked against that of x_i (module left tags carry no action).
    With one tag value in all components nothing can escape; else one scan
    of the stored maps, each map's rows and entries in sorted order, returns
    the first escape it meets: the least (i, j) and q of the first map
    holding one.
    """
    right = x._acting()
    both_sides = right is x
    tags = set()
    for c in (*x.components.values(), *right.components.values()):
        tags.update(c.left_tags, c.right_tags)
    if len(tags) < 2:
        return None
    for (g, h), rows in x._maps.items():
        ct = x.component(x.add_deg(g, h))
        hr, gl = right.component(h).right_tags, x.component(g).left_tags
        for (i, j), row in sorted(rows.items()):
            for q in sorted(row):
                if (ct.right_tags[q] != hr[j]
                        or both_sides and ct.left_tags[q] != gl[i]):
                    return ("tags", g, h, i, j, q)
    return None


def _unit_side(x, g, idx, left):
    """Whether the acting algebra's unit fixes basis vector idx of X_g."""
    F, unit = x.field, x._acting().unit
    if left:
        got = _accumulate(F, unit, lambda pos: x._map_row(0, g, pos, idx))
    else:
        got = _accumulate(F, unit, lambda pos: x._map_row(g, 0, idx, pos))
    return got == {idx: F.one()}


def _assoc_witness(x):
    """First basis triple with (x a) b != x (a b), or None.

    x ranges over the object, a and b over the algebra acting on it; for an
    algebra the two coincide.  (i, j) walks x.pairs(s, u) and k the matches
    of j in a.pairs(u, v); a triple with x_i a_j = a_j a_k = 0 holds, and
    so does every triple of (s, u, v) when X_{s+u+v} = 0 or both maps x_i a_j
    and a_j a_k are absent.  Witness: ("assoc", (s, u, v), (i, j, k)).
    """
    a = x._acting()
    F = x.field
    # every degree below is a stored, hence reduced, one: read maps directly
    comps, add, x_rows = x.components, x.group.add, x._maps.get
    adegs = a.degrees()
    for s in x.degrees():
        for u in adegs:
            su = add(s, u)
            xa_rows = x_rows((s, u)) or {}
            for v in adegs:
                if add(su, v) not in comps:
                    continue
                uv, ab_rows = add(u, v), a._maps.get((u, v)) or {}
                if not (xa_rows or ab_rows):
                    continue
                ks = {}  # j -> the k matching it
                for j, kk in a.pairs(u, v):
                    ks.setdefault(j, []).append(kk)
                xa_b, x_ab = x_rows((su, v)) or {}, x_rows((s, uv)) or {}
                for i, j in x.pairs(s, u):
                    xa = xa_rows.get((i, j))
                    for kk in ks.get(j, ()):
                        ab = ab_rows.get((j, kk))
                        if xa is None and ab is None:
                            continue
                        if (_accumulate(F, xa, lambda m: xa_b.get((m, kk)))
                                != _accumulate(F, ab,
                                               lambda m: x_ab.get((i, m)))):
                            return ("assoc", (s, u, v), (i, j, kk))
    return None


def is_generated_in_degrees_01(a: GradedAlgebra) -> bool:
    """Whether every component above degree 1 is spanned by degree-1 products.

    Only meaningful for Z-graded algebras whose window starts at 0: checks
    surjectivity of A_1 x A_{i-1} -> A_i for every stored degree i >= 2.
    Then A_i = A_1^i, so A_{u+v} = A_u A_v for u, v >= 0, which
    torsion_spaces and _hom_system use.  Decided once per algebra object.
    """
    if a._generated_01 is None:
        a._generated_01 = a.group.kind == "Z" and a.window[0] == 0 and all(
            _spans(a.field, _generated_rows(a, [1], i), a.component(i).dim)
            for i in a.degrees() if i >= 2)
    return a._generated_01


def _spans(field, rows, dim):
    """Whether rows span all dim coordinates: at once when their one-entry
    rows reach every column, as a path algebra's products of basis paths
    do, else by a rank."""
    if len({j for r in rows if len(r) == 1 for j, v in r.items() if v}) == dim:
        return True
    return _rank(field, rows, dim) == dim

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
    """kill_support_module for an (S, U) and an algebra already checked."""
    comps = {d: c for d, c in m.components.items() if s.contains(d)}
    return GradedModule._of(algebra, m.window, comps,
                            _kept_maps(m, comps, algebra.components))


def _kept_maps(x, comps, acting):
    """The stored rows of x between kept degrees comps, by acting degrees."""
    return {(g, h): rows for (g, h), rows in x._maps.items()
            if g in comps and h in acting and x.add_deg(g, h) in comps}


def shift_module(m: GradedModule, g: int) -> GradedModule:
    """Degree shift: shift(M, g)_h = M_{h-g}."""
    lo, hi = m.window
    window = m.window if m.group.kind == "Zn" else (lo + g, hi + g)
    comps = {m.add_deg(d, g): c for d, c in m.components.items()}
    action = {(m.add_deg(s, g), u): rows for (s, u), rows in m._maps.items()}
    return GradedModule._of(m.over, window, comps, action)


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
    that land outside the image are necessarily zero under that hypothesis.
    """
    _check_regrade(b, phi)
    return _regraded_algebra(b, phi)


def _regraded_algebra(b, phi):
    window, comps, mult = _regraded_parts(b, phi, 0)
    return GradedAlgebra._of(b.group, window, b.k, b.field, comps, mult, b.unit)


def regrade_module(x: GradedModule, phi: WindowedMap, g: int = 0,
                   algebra: GradedAlgebra | None = None) -> GradedModule:
    """New grading with component sigma = X_{g + phi(sigma)}; a given
    algebra must be regrade_algebra(x.over, phi)."""
    _check_regrade(x, phi)
    if algebra is None:
        algebra = _regraded_algebra(x.over, phi)
    window, comps, action = _regraded_parts(x, phi, g)
    return GradedModule._of(algebra, window, comps, action)


def _regraded_parts(x, phi: WindowedMap, g: int):
    """Window, components and maps of x regraded along phi, shifted by g.

    Component sigma is X_{g + phi(sigma)} and the map at (sigma, tau) is the
    map of x at (g + phi(sigma), phi(tau)).  Only positions whose image falls
    inside x's window are certified by x, so the new window is clipped to
    them.  A map whose value sum leaves the image is zero, its target being
    off g + Im(phi); a nonzero map whose target has no slot in the new
    window raises a grading violation with witness (sigma, tau).
    """
    img = phi.image()
    for d in x.degrees():
        if d - g not in img:
            raise PreconditionError(
                f"nonzero component at degree {d} lies outside "
                f"{g} + Im(phi)")
    positions = [s for s in phi.domain() if x.in_window(g + phi(s))]
    if not positions:
        raise PreconditionError("the regrading map misses the window")
    lo, hi = positions[0], positions[-1]
    comps = {s: c for s in range(lo, hi + 1)
             if (c := x.component(g + phi(s))).dim}
    right = x._acting()
    taus = [t for t in phi.domain() if right.component(phi(t)).dim]
    maps = {}
    for sigma in comps:
        for tau in taus:
            rows = x._rows(g + phi(sigma), phi(tau))
            st, total = sigma + tau, phi(sigma) + phi(tau)
            if rows is None or total not in img:
                continue
            if not lo <= st <= hi:
                # the target exists in x but the new grading has no slot for it
                if rows:
                    raise GradingViolationError(
                        f"{x._map_name} leaves the regrading window",
                        witness=(sigma, tau))
                continue
            if phi(st) != total:
                raise InternalConsistencyError(
                    "pseudomorphism certificate violated during regrading")
            maps[(sigma, tau)] = rows
    return (lo, hi), comps, maps


def un_regrade_module(v: GradedModule, phi: WindowedMap, g: int = 0,
                      algebra: GradedAlgebra | None = None) -> GradedModule:
    """Inverse of regrade_module on modules satisfying the vanishing pattern.

    V must kill every action V_sigma x B_tau with phi(sigma) + phi(tau)
    outside the window image of phi; otherwise the result would not be graded
    and a grading violation with witness (sigma, tau) is raised.  When the
    algebra to grade over is not supplied it is rebuilt by pushing V's
    algebra forward along phi, whose products obey the same pattern; a
    supplied one must be that algebra.
    """
    _check_regrade(v, phi)
    action = _pushed_maps(v, phi, g)
    if algebra is None:
        algebra = _push_forward_algebra(v.over, phi)
    window = _pushed_window(v, phi, g)
    comps = {g + phi(sigma): v.component(sigma) for sigma in v.degrees()}
    return GradedModule._of(algebra, window, comps, action)


def _pushed_window(x, phi: WindowedMap, g: int = 0):
    """g + the least and greatest value of phi on x's window met with phi's,
    which hold every pushed component."""
    lo = max(x.window[0], phi.window[0])
    hi = min(x.window[1], phi.window[1])
    if lo > hi:
        what = "algebra" if x._acting() is x else "module"
        raise PreconditionError(f"the {what} window misses the map window")
    values = [phi(s) for s in range(lo, hi + 1)]
    return g + min(values), g + max(values)


def _pushed_maps(x, phi: WindowedMap, g: int = 0):
    """x's maps moved from (sigma, tau) to (g + phi(sigma), phi(tau)).

    The vanishing pattern: a map with phi(sigma) + phi(tau) outside the
    window image of phi is dropped when it is zero and raises a grading
    violation with witness (sigma, tau) otherwise, the least such pair
    first.
    """
    img = phi.image()
    maps = {}
    for (sigma, tau), rows in sorted(x._maps.items()):
        if phi(sigma) + phi(tau) in img:
            maps[(g + phi(sigma), phi(tau))] = rows
        elif rows:
            raise GradingViolationError(
                f"{x._map_name} violates the regrading vanishing pattern",
                witness=(sigma, tau))
    return maps


def _push_forward_algebra(bt: GradedAlgebra, phi: WindowedMap) -> GradedAlgebra:
    window = _pushed_window(bt, phi)
    comps = {phi(s): c for s in phi.domain() if (c := bt.component(s)).dim}
    return GradedAlgebra._of(bt.group, window, bt.k, bt.field, comps,
                             _pushed_maps(bt, phi), bt.unit)


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
    basis vectors (_tag_blocks refuses a W that is not A_0-stable).
    project(d, vec) is W_d.reduce(vec) on the kept coordinates.

    Basis vector i times a_j is the stored action row of coordinate keep[i]
    read the same way at its target t, one walk per map over the rows of
    the kept coordinates.  The image of e_q at t, {i: 1} for q = keep[i]
    or else q's row in W_t.classes() on the kept coordinates, is built
    once and shared (see the module docstring): a one-entry row {q: c},
    most rows of a projective, is that image, times c when c != 1, and a
    longer row sums the images of its entries.  A module read through its
    layout has no stored rows: the walk reads A's rows of map (d - m_b, u)
    block by block, relabelled through the block's coordinates.
    """
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
        """vec in quotient coordinates: dense for a dense vec, else a row."""
        at, sp = reads[d]
        v = sp.reduce(vec)
        if isinstance(v, dict):
            return {at[i]: c for i, c in v.items()}
        return tuple(v[i] for i in keeps[d])

    one, mul = F.one(), F.mul
    layout = getattr(m, "layout", None)  # a constructions._LayoutModule
    # parts[t]: (block, degree of the rows read, {index: kept position}),
    # one block of all coordinates unless m has a layout; images[t][block]
    # takes an index at t to the image of its coordinate
    parts, images = {}, {}
    for t in comps:
        at, sp = reads[t]
        cls = sp.classes()
        image = [{at[q]: one} if q in at else
                 {at[k]: v for k, v in cls[q].items()}
                 for q in range(m.component(t).dim)]
        if layout:
            parts[t] = [(b, e, kept) for (b, e, _, _) in m.layout[t]
                        if (kept := {q: at[c] for q, c in m.coord[t][b].items()
                                     if c in at})]
            images[t] = {b: {q: image[c] for q, c in coord.items()}
                         for b, coord in m.coord[t].items()}
        else:
            parts[t] = [(None, t, at)]
            images[t] = {None: dict(enumerate(image))}
    reader = m.over if layout else m
    action = {}
    for d in comps:
        for u in m.over.degrees():
            t = m.add_deg(d, u)
            if t not in comps:
                continue
            out = {}
            for b, e, src in parts[d]:
                img = images[t].get(b)
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


def _generated_rows(x, degrees, d):
    """The stored rows of every map (s, d - s), s in degrees: they span the
    sum of X_s A_{d-s} over those s, the part of X_d they generate."""
    return [row for s in degrees for _, row in x._map_rows(s, x.add_deg(d, -s))]


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


def _vanishing_space(m: GradedModule, d, evals: dict) -> Subspace:
    """{x in M_d : x a evaluates to zero at every watched degree}.

    evals maps each watched degree t to the evaluation applied there: its
    rows, row i = ev_t(e_i) as a {col: value} dict, or None for the
    identity; rows that are all empty ask nothing.  x must vanish under
    ev_t after every basis vector a of A landing at t = d + u.  Entry i of
    equation (j, c) is column c of ev_t(x_i * a_j).  One nullspace over the
    stacked equations.
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


def torsion_spaces(n: GradedModule, s: DegreeSet, modulo=None) -> dict:
    """Component subspaces of the preimage in n of the largest submodule of
    n / W supported outside S, for W = modulo an action-closed family of
    component subspaces; None is W = 0, the torsion of n itself.

    Closed form: W_d at each degree d not off S, and off S the x with x a
    in W_t for every basis vector a of A whose target t = d + u is not off
    S; closed since (x b) a = x (b a).  One nullspace per off-S degree, over
    the classes modulo W_t of the stored rows, read through W_t.classes().
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
        return {t: evals[t]} if t in evals else {}

    return {d: modulo[d] if d in evals else _vanishing_space(n, d, watched(d))
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
