"""Exact linear algebra over Q and over prime fields.

Everything here is exact: rationals are stdlib Fractions, GF(p) elements are
ints in [0, p).  No floats anywhere.

Conventions
-----------
A Matrix with r rows and c cols represents a linear map K^r -> K^c acting on
row vectors, v |-> v @ M.  kernel(M) lives in K^r, image(M) (the row space)
lives in K^c.  Composition reads left to right: the matrix of f then g is
M_f @ M_g.  This matches right-module actions, which is what the rest of the
library computes with.

Subspaces are stored as reduced row echelon bases, so two equal subspaces are
structurally equal.  The basis rows are kept as dicts {column: value} of
their nonzeros, sorted by pivot; Subspace.rows is the dense view of them,
built on first use for the public API and JSON.

One elimination kernel
----------------------
_echelon is the only elimination.  It takes rows as dense sequences or as
dicts {column: value} (zeros allowed, keys in any order), keeps every row as
a dict of its nonzeros, and returns the canonical basis as dict rows and
pivots, in two steps:

- forward elimination (_forward) reduces each incoming row only at the
  pivot columns it holds, and makes a row left nonzero unit at its leading
  column, a new pivot.  No pivot is cleared from the earlier rows;
- back-substitution (_back_substitute) clears the other pivots from a row,
  taking the rows it needs in descending pivot order, each already
  reduced.  It runs on a pivot row just before forward elimination
  subtracts it, and once over the rest at the end, so a row is brought up
  to date when it is used, not each time a new pivot appears.

A rank needs only the forward step (_rank).  Every other operation is one
_echelon call plus a read-off of its pivots and free columns:

- rref is its dense view;
- nullspace(field, rows, ncols) is {x : r . x = 0 for every row r}, one
  basis vector per free column;
- kernel(M) is {v : v @ M = 0}, the nullspace of M's columns;
- solve(M, b) reads a preimage off the basis of [M^T | b];
- subspace_intersect (Zassenhaus) keeps the right halves of the reduced rows
  whose left halves vanished, which are already in canonical form.

Reducing a vector against rows with unit, cleared pivots (subspace
membership, coordinates, quotient projections) goes through pivot_reduce,
over each row's nonzeros.  A unit vector e_i needs no reduction:
Subspace.unit_residues reads e_i modulo the subspace off the row pivoting
at i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, LabelError, ShapeError


class Field:
    """Common interface for the two scalar domains."""

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError


class RationalField(Field):
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic primality for 0 <= p < PRIME_BOUND."""
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """GF(p) for prime p < PRIME_BOUND; elements are ints reduced into [0, p).

    A composite p raises ValueError; p >= PRIME_BOUND raises CapacityError
    because its primality is not certified.
    """

    def __init__(self, p):
        if p >= PRIME_BOUND:
            raise CapacityError(
                f"modulus {p} is too large: primality is certified only "
                f"below {PRIME_BOUND}")
        if not _is_prime(p):
            raise ValueError(f"not a prime: {p}")
        self.p = p
        self.name = f"GF({p})"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


_PRIME_FIELDS = {}


def GF(p):
    field = _PRIME_FIELDS.get(p)
    if field is None:
        field = _PRIME_FIELDS[p] = PrimeField(p)
    return field


class Matrix:
    """Dense exact matrix; entries is a tuple of row tuples."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        entries = tuple(tuple(r) for r in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeError(f"expected {rows}x{cols} entries")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def zero(cls, field, rows, cols):
        z = field.zero()
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ShapeError("cannot infer cols from an empty row list")
            cols = len(rows[0])
        return cls(field, len(rows), cols, rows)

    def row(self, i):
        return self.entries[i]

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ShapeError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix(self.field, self.rows, other.cols,
                      [apply_row(self.field, r, other) for r in self.entries])

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols) or self.field != other.field:
            raise ShapeError("shape or field mismatch in matrix sum")
        F = self.field
        return Matrix(F, self.rows, self.cols,
                      [[F.add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def is_zero(self):
        z = self.field.zero()
        return all(e == z for row in self.entries for e in row)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def apply_row(field, vec, matrix):
    """vec @ matrix for a plain sequence vec of length matrix.rows."""
    if len(vec) != matrix.rows:
        raise ShapeError(f"vector length {len(vec)} vs {matrix.rows} rows")
    add, mul = field.add, field.mul
    acc = [field.zero()] * matrix.cols
    for a, row in zip(vec, matrix.entries):
        if a:
            for j, e in enumerate(row):
                if e:
                    acc[j] = add(acc[j], mul(a, e))
    return acc


def _entries(row):
    """(column, value) pairs of a dense row or a {column: value} dict."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _axpy(field, row, c, src, skip):
    """row -= c * src in place, over src's entries except column skip."""
    sub, mul = field.sub, field.mul
    for j, e in src.items():
        if j != skip:
            v = sub(row[j], mul(c, e)) if j in row else field.neg(mul(c, e))
            if v:
                row[j] = v
            else:
                del row[j]


def _forward(field, rows, ncols):
    """Forward elimination: returns (basis, fresh).

    basis maps each pivot column to its row, a dict of nonzeros that is 1
    at the pivot and 0 left of it.  Each incoming row is reduced only at
    the pivots it holds, each by a row first brought up to date by
    _back_substitute, so the subtractions bring in no other pivot; a row
    left nonzero is scaled to a unit leading entry and pivots there.  No
    pivot is cleared from the earlier rows: a row holds the pivots found
    after it until it is next used.  fresh[p] is the pivot count when row
    p last held no other pivot.
    """
    one = field.one()
    basis, fresh = {}, {}
    for r in rows:
        if len(basis) == ncols:
            break
        row = {j: v for j, v in _entries(r) if v}
        for p in [j for j in row if j in basis]:
            prow = basis[p]
            if fresh[p] != len(basis) and len(prow) > 1:
                prow = _back_substitute(field, basis, fresh, p)
            _axpy(field, row, row.pop(p), prow, p)
        if row:
            col = min(row)
            c = row[col]
            if c != one:
                inv = field.inv(c)
                row = {j: field.mul(inv, v) for j, v in row.items()}
            basis[col] = row
            fresh[col] = len(basis)
    return basis, fresh


def _back_substitute(field, basis, fresh, p):
    """Clear every other pivot from row p, in place, and return the row.

    The pivots a row holds lie right of its own, so the rows clearing them
    are brought up to date first, in descending pivot order: each then
    holds no other pivot, and each pivot a row holds costs one subtraction
    that brings in no new one.  fresh[q] == len(basis) marks a row holding
    no other pivot, so a row is looked at again only once a pivot has been
    found since it was last brought up to date.
    """
    n = len(basis)
    stack = [p]
    while stack:
        q = stack[-1]
        if fresh[q] == n:
            stack.pop()
            continue
        row = basis[q]
        held = [j for j in row if j != q and j in basis]
        stale = [j for j in held if fresh[j] != n]
        if stale:
            stack += stale
            continue
        for j in held:
            _axpy(field, row, row.pop(j), basis[j], j)
        fresh[q] = n
        stack.pop()
    return basis[p]


def _rank(field, rows, ncols=None):
    """Rank of rows, read off forward elimination, with no final pass."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(_forward(field, rows, ncols)[0])


def _echelon(field, rows, ncols):
    """The canonical basis of the row space as (dict rows, pivots).

    Forward elimination, then one back-substitution pass over the rows
    still holding another pivot.  Rows come back sorted by pivot, 1 at it
    and 0 at every other pivot.
    """
    basis, fresh = _forward(field, rows, ncols)
    n = len(basis)
    for p, row in basis.items():
        if fresh[p] != n and len(row) > 1:
            _back_substitute(field, basis, fresh, p)
    pivots = sorted(basis)
    return tuple(basis[p] for p in pivots), tuple(pivots)


def _dense(row, ncols, z):
    out = [z] * ncols
    for j, v in row.items():
        out[j] = v
    return tuple(out)


def rref(field, rows, ncols=None):
    """Reduced row echelon form, as dense rows.

    rows are dense sequences, or dicts {column: value} when ncols is given;
    zero values in a dict are allowed and ignored.  Returns
    (reduced_nonzero_rows, pivot_columns), both tuples sorted by pivot
    column, with pivots equal to 1 and cleared columns: the dense view of
    _echelon's canonical basis.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    red, pivots = _echelon(field, rows, ncols)
    z = field.zero()
    return tuple(_dense(r, ncols, z) for r in red), pivots


def pivot_reduce(field, rows, pivots, vec):
    """Subtract c * row at each pivot, c being vec's entry there.

    rows must carry unit pivots that are zero in every other row (a reduced
    echelon basis, in any order), as {column: value} dicts or dense
    sequences; vec is dense.  Returns (remainder, coefficients), both
    lists: the remainder is zero iff vec lies in the span, and then vec is
    the sum of coefficient times row.
    """
    sub, mul = field.sub, field.mul
    v = list(vec)
    coeffs = []
    for row, p in zip(rows, pivots):
        c = v[p]
        coeffs.append(c)
        if c:
            for j, e in _entries(row):
                if e:
                    v[j] = sub(v[j], mul(c, e))
    return v, coeffs


class Subspace:
    """A subspace of K^ambient with its canonical reduced echelon basis.

    basis holds the rows as dicts {column: value} of their nonzeros, sorted
    by pivot, each unit at its pivot and zero at every other pivot; they
    are shared, never to be mutated.  The basis is canonical, so equality
    of (field, ambient, pivots, basis) is subspace equality.  rows is the
    dense view of the same basis, tuples of length ambient, built on first
    use for the public API and JSON.  The constructor takes the canonical
    rows dense or as dicts.
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "_rows")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = tuple({j: v for j, v in _entries(r) if v} for r in rows)
        self.pivots = tuple(pivots)
        self._rows = None

    @classmethod
    def _of(cls, field, ambient, basis, pivots):
        """Wrap canonical dict rows as they are, with no copy."""
        sp = cls.__new__(cls)
        sp.field, sp.ambient = field, ambient
        sp.basis, sp.pivots, sp._rows = basis, pivots, None
        return sp

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        """Span of vectors: dense sequences of length ambient, or dicts
        {coordinate: value}."""
        rows = []
        for v in vectors:
            if not isinstance(v, dict):
                v = tuple(v)
                if len(v) != ambient:
                    raise ShapeError(
                        f"vector length {len(v)} vs ambient {ambient}")
            rows.append(v)
        return cls._of(field, ambient, *_echelon(field, rows, ambient))

    @classmethod
    def zero(cls, field, ambient):
        return cls._of(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        o = field.one()
        return cls._of(field, ambient, tuple({i: o} for i in range(ambient)),
                       tuple(range(ambient)))

    @property
    def rows(self):
        if self._rows is None:
            z = self.field.zero()
            self._rows = tuple(_dense(r, self.ambient, z) for r in self.basis)
        return self._rows

    @property
    def dim(self):
        return len(self.pivots)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.pivots == other.pivots and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.pivots))

    def __repr__(self):
        return (f"Subspace({self.field!r}, ambient={self.ambient}, "
                f"pivots={self.pivots})")

    def reduce(self, vec):
        """Reduce vec modulo this subspace; 0 iff vec is a member."""
        return pivot_reduce(self.field, self.basis, self.pivots, vec)[0]

    def contains_vector(self, vec):
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        """Coefficients of vec in the RREF basis; None if vec is outside."""
        v, coeffs = pivot_reduce(self.field, self.basis, self.pivots, vec)
        return None if any(v) else coeffs

    def unit_residues(self):
        """Row i is e_i modulo this subspace, in the non-pivot coordinates.

        Read off the basis: e_i is its own residue when i is not a pivot
        column, and e_i minus the row pivoting at i otherwise, whose other
        nonzeros all sit at non-pivot columns.
        """
        F = self.field
        z, one, neg = F.zero(), F.one(), F.neg
        row_at = dict(zip(self.pivots, self.basis))
        pos = {}
        for i in range(self.ambient):
            if i not in row_at:
                pos[i] = len(pos)
        out = []
        for i in range(self.ambient):
            res = [z] * len(pos)
            row = row_at.get(i)
            if row is None:
                res[pos[i]] = one
            else:
                for j, v in row.items():
                    if j != i:
                        res[pos[j]] = neg(v)
            out.append(tuple(res))
        return out


def nullspace(field, rows, ncols) -> Subspace:
    """{x in K^ncols : r . x = 0 for every row r}.

    One basis vector per free column f of the canonical basis of rows: 1 at
    f and minus the column-f entry of each basis row at that row's pivot.
    """
    red, pivots = _echelon(field, rows, ncols)
    neg, o = field.neg, field.one()
    taken = set(pivots)
    basis = {f: {f: o} for f in range(ncols) if f not in taken}
    for row, p in zip(red, pivots):
        for j, v in row.items():
            if j != p:
                basis[j][p] = neg(v)
    return Subspace.from_vectors(field, ncols, list(basis.values()))


def kernel(m: Matrix) -> Subspace:
    """{v in K^rows : v @ m = 0}: the nullspace of m's columns."""
    return nullspace(m.field, list(zip(*m.entries)), m.rows)


def image(m: Matrix) -> Subspace:
    """Row space of m, i.e. the image of v |-> v @ m."""
    return Subspace.from_vectors(m.field, m.cols, m.entries)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient or a.field != b.field:
        raise ShapeError("subspace sum needs a common ambient space")
    return Subspace.from_vectors(a.field, a.ambient, a.basis + b.basis)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: reduce [[A|A],[B|0]]; null left blocks carry the intersection."""
    if a.ambient != b.ambient or a.field != b.field:
        raise ShapeError("subspace intersection needs a common ambient space")
    n = a.ambient
    block = [{**r, **{j + n: v for j, v in r.items()}} for r in a.basis]
    red, pivots = _echelon(a.field, block + list(b.basis), 2 * n)
    # rows pivoting right of n have a zero left half; their right halves
    # are reduced, unit and cleared at pivot - n, hence canonical
    rest = [(row, p) for row, p in zip(red, pivots) if p >= n]
    return Subspace._of(
        a.field, n, tuple({j - n: v for j, v in r.items()} for r, _ in rest),
        tuple(p - n for _, p in rest))


def subspace_contains(outer: Subspace, inner: Subspace) -> bool:
    """True iff inner is a subspace of outer."""
    if outer.ambient != inner.ambient or outer.field != inner.field:
        raise ShapeError("containment needs a common ambient space")
    return all(outer.contains_vector(r) for r in inner.rows)


def solve(m: Matrix, b) -> list | None:
    """Some v with v @ m = b, or None if b is outside image(m).

    Reads v off the canonical basis of [m^T | b]: the free unknowns are 0
    and each pivot unknown takes its row's last entry; a pivot in the last
    column means the system is inconsistent.
    """
    b = tuple(b)
    if len(b) != m.cols:
        raise ShapeError(f"rhs length {len(b)} vs {m.cols} cols")
    F = m.field
    cols = zip(*m.entries) if m.rows else ((),) * m.cols
    red, pivots = _echelon(F, [col + (e,) for col, e in zip(cols, b)],
                           m.rows + 1)
    if pivots and pivots[-1] == m.rows:
        return None
    z = F.zero()
    v = [z] * m.rows
    for row, p in zip(red, pivots):
        v[p] = row.get(m.rows, z)
    return v


@dataclass(frozen=True)
class LabeledSpace:
    """A based space whose basis vectors carry idempotent tags on both sides.

    For a component of a graded algebra, basis vector x with tags (i, j)
    satisfies e_i x e_j = x.  Module components only use the right tags; by
    convention their left tags mirror the right ones.
    """

    dim: int
    left_tags: tuple
    right_tags: tuple

    def __post_init__(self):
        if len(self.left_tags) != self.dim or len(self.right_tags) != self.dim:
            raise LabelError(f"need {self.dim} tags on each side")
        if any(t < 0 for t in self.left_tags + self.right_tags):
            raise LabelError("tags must be nonnegative idempotent indices")

    @classmethod
    def untagged(cls, dim):
        return cls(dim, (0,) * dim, (0,) * dim)

    @classmethod
    def module_component(cls, tags):
        tags = tuple(tags)
        return cls(len(tags), tags, tags)

    def check_tags(self, k):
        if any(t >= k for t in self.left_tags + self.right_tags):
            raise LabelError(f"tag out of range for {k} idempotents")


ZERO_SPACE = LabeledSpace(0, (), ())


def matched_pairs(x: LabeledSpace, y: LabeledSpace):
    """Basis pairs (i, j) with right tag of x_i equal to left tag of y_j.

    The order is lexicographic in (i, j) and is the basis order of the
    matched tensor product everywhere in this library.
    """
    return [(i, j) for i in range(x.dim) for j in range(y.dim)
            if x.right_tags[i] == y.left_tags[j]]


def matched_tensor(x: LabeledSpace, y: LabeledSpace, k=None):
    """Tensor over the split degree-0 part: keep only tag-matched pairs.

    Returns (space, pairs) where pairs fixes the basis order.
    """
    if k is not None:
        x.check_tags(k)
        y.check_tags(k)
    pairs = matched_pairs(x, y)
    space = LabeledSpace(len(pairs),
                         tuple(x.left_tags[i] for i, _ in pairs),
                         tuple(y.right_tags[j] for _, j in pairs))
    return space, pairs
