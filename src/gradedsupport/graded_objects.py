"""Graded algebras and modules: the data model, structural equality and
validation.  The operations on them are in graded_core and regrading.

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
dict; any other map has no entry at all.  A quotient, and a module read
through its generator layout, builds each map the first time it is read
(_LazyModule), and killing such a module gives a view that reads each kept
map through to it; _table() lists every present map, and so builds them
all, which the JSON writers, validate_module, modules_equal and the CLI
summaries do, while _rows reads one.  Every action is
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
form by construction, and keeps them with no copy and no check.  A
_LazyModule is given its components only, and builds its maps in stored
form as they are read.

The degree-0 part of an algebra carries the unit as an explicit coefficient
vector.  With k >= 2 idempotents the degree-0 part must be exactly the k
orthogonal idempotents (split semisimple); with k = 1 any unital degree-0
algebra is allowed.  Module components use their right tags for the
degree-0 action.

All arithmetic is exact, over QQ or GF(p).
"""

from __future__ import annotations

from .errors import LabelError, PreconditionError, ShapeError
from .exactlin import (LabeledSpace, Matrix, ZERO_SPACE, _accumulate, _rank,
                       matched_pairs)
from .subsets import Verdict


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

    def _table(self):
        """The present maps {(g, h): rows}, keys reduced over Z/n, in stored
        order; read-only.  With _rows, the one way any map table is read."""
        return self._maps

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
        return {key: self._map_matrix(*key) for key in self._table()}

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

    def _blocks(self, t):
        """How component t is read: ((key, reader, degree, coord), ...).
        A block's rows at t are reader's rows of map (degree, u), coord
        taking each reader index the block keeps to its coordinate at t; the
        same key names the same block at every degree.  A module stored as
        a table is one block of itself."""
        n = range(self.component(t).dim)
        return ((None, self, t, dict(zip(n, n))),)

    action = property(_GradedObject._dense_maps)
    action_matrix = _GradedObject._map_matrix
    action_row = _GradedObject._map_row


_UNREAD = object()  # a map _LazyModule has not built yet


class _LazyModule(GradedModule):
    """A module whose map (g, h) is built the first time it is read.

    Subclasses give _build(g, h): the stored rows of map (g, h) on reduced
    degrees, or None when the map is absent.  _rows keeps each answer, so
    every map is built at most once.  A map can be present only where g
    and g + h are components and h is a degree of the algebra, so _table
    builds exactly those, once: it forces the whole table, as the writers,
    validate_module, modules_equal and the summaries do, keeps it as the
    one record of what was read, and then _release drops what only builds
    needed.  The components are given when the module is built.
    """

    def __init__(self, over, window, components):
        self._fields(over, window, components, None)
        self._read, self._forced = {}, None

    def _rows(self, g, h):
        if self.group.kind == "Zn":
            g, h = g % self.group.n, h % self.group.n
        rows = self._read.get((g, h), _UNREAD)
        if rows is _UNREAD:
            if self._forced is not None:  # forced: a map not kept is absent
                return None
            rows = self._read[(g, h)] = self._build(g, h)
        return rows

    def _table(self):
        if self._forced is None:
            comps, add, read = self.components, self.group.add, self._read
            forced = {}
            for g in self.degrees():
                for h in self.over.degrees():
                    if add(g, h) in comps:
                        rows = read.get((g, h), _UNREAD)
                        if rows is _UNREAD:
                            rows = self._rows(g, h)
                        if rows is not None:
                            forced[(g, h)] = rows
            self._read = self._forced = forced
            self._release()
        return self._forced

    def _release(self):
        """Drop the state only _build reads, once the table is forced."""


# ---------------------------------------------------------------------------
# structural equality


def _same_maps(x, y):
    """Equal stored rows, a map with no nonzero row counting as absent."""
    return ({key: rows for key, rows in x._table().items() if rows}
            == {key: rows for key, rows in y._table().items() if rows})


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
    for (g, h), rows in x._table().items():
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
    x_rows, a_rows = x._table().get, a._table().get
    comps, add = x.components, x.group.add
    adegs = a.degrees()
    for s in x.degrees():
        for u in adegs:
            su = add(s, u)
            xa_rows = x_rows((s, u)) or {}
            for v in adegs:
                if add(su, v) not in comps:
                    continue
                uv, ab_rows = add(u, v), a_rows((u, v)) or {}
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


def _generated_rows(x, degrees, d):
    """The stored rows of every map (s, d - s), s in degrees: they span the
    sum of X_s A_{d-s} over those s, the part of X_d they generate."""
    return [row for s in degrees for _, row in x._map_rows(s, x.add_deg(d, -s))]
