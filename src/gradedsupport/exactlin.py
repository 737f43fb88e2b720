"""Exact linear algebra over Q and over prime fields.

Everything here is exact: a rational is an int when it is integral and a
stdlib Fraction otherwise, GF(p) elements are ints in [0, p).  No floats
anywhere.

Conventions
-----------
A Matrix with r rows and c cols represents a linear map K^r -> K^c acting on
row vectors, v |-> v @ M.  kernel(M) lives in K^r, image(M) (the row space)
lives in K^c.  Composition reads left to right: the matrix of f then g is
M_f @ M_g.  This matches right-module actions, which is what the rest of the
library computes with.

A Matrix is stored as one dict {column: value} of nonzeros per row (nz);
entries is the dense view, built on first use for the public API and JSON.
Products, sums, kernels, images and solves all work on the dict rows.

Subspaces are stored as reduced row echelon bases, so two equal subspaces are
structurally equal.  The basis rows are kept as dicts {column: value} of
their nonzeros, sorted by pivot; Subspace.rows is the dense view of them,
built on first use for the public API and JSON.

One elimination kernel
----------------------
_forward is the only elimination, one Gauss-Jordan loop.  It takes rows as
dense sequences or as dicts {column: value} (zeros allowed, keys in any
order), keeps every row as a dict of its nonzeros, and reduces each
incoming row at the pivot columns it holds.  A row left nonzero becomes a
new pivot at its leading column, and that column is cleared from the
earlier pivot rows, so the rows held always span what was read so far, in
echelon form with every pivot column cleared from the other rows.

The field supplies the steps that differ, as four _gj_* methods: how an
incoming row enters, how a column is cleared, how a new pivot row is
normalised, and how the held rows become the canonical basis.

- Over Q the rows are integers, after Bareiss, "Sylvester's identity and
  multistep integer-preserving Gaussian elimination", Math. Comp. 22
  (1968), with gcd normalisation in place of his exact division.  An
  incoming row is multiplied by the lcm of its denominators once.  Every
  held row is primitive, with a positive pivot that need not be 1.  To
  clear column j of a row holding c there against a row with pivot a,
  g = gcd(a, c) and row := (a/g) row - (c/g) src, the scaling skipped when
  a/g = 1; a new pivot row, and an earlier row after its clearing, is
  divided by the gcd of its entries.  On return each row is divided by its
  pivot once, so Fractions are made only for the canonical basis.
- Over GF(p) every held row has a unit pivot, and clearing subtracts c
  times it, mod p.

A rank is the number of pivots (_rank).  _echelon sorts the basis by
pivot, and every other operation is one elimination plus a read-off of
its pivots and free columns:

- rref is its dense view;
- nullspace(field, rows, ncols) is {x : r . x = 0 for every row r}, one
  basis vector per free column of an elimination with the columns
  reversed, which makes these vectors the canonical basis;
- kernel(M) is {v : v @ M = 0}, the nullspace of M's columns;
- solve(M, b) reads a preimage off the basis of [M^T | b];
- subspace_intersect (Zassenhaus) keeps the right halves of the reduced rows
  whose left halves vanished, which are already in canonical form.

Every vector is read modulo a subspace through one table,
Subspace.classes: each pivot p maps to e_p modulo the subspace, minus the
rest of the row pivoting at p, and any other e_j is its own class.  The
class of a vector is _accumulate over its entries and that table: reduce
and contains_vector here, and the quotients, torsion, submodules and
quiver residues built on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CapacityError, LabelError, ShapeError


def integral(x):
    """An integral Fraction as its int; any other value as it is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class RationalField:
    """Q: integral values are ints, which skip Fraction's gcd, and every
    operation hands an integral result back as an int."""

    name = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return integral(1 / Fraction(a))

    def from_int(self, n):
        return n

    # _forward's steps over Q: primitive integer rows with positive pivots

    def _gj_row(self, r):
        """The nonzeros of an incoming row times the lcm of their
        denominators, as ints."""
        row = {j: v for j, v in _entries(r) if v}
        if not all(map(int.__instancecheck__, row.values())):  # a Fraction
            den = lcm(*[v.denominator for v in row.values()])
            row = {j: v.numerator * (den // v.denominator)
                   for j, v in row.items()}
        return row

    def _gj_clear(self, row, src, col):
        """row with column col cleared by src: (a/g) row - (c/g) src, for a
        src's pivot at col, c row's entry there and g = gcd(a, c)."""
        a, c = src[col], row.pop(col)
        g = gcd(a, c)
        if g != a:
            a //= g
            row = {j: a * v for j, v in row.items()}
        c //= g
        for j, e in src.items():
            if j != col:
                v = row.get(j, 0) - c * e
                if v:
                    row[j] = v
                else:
                    del row[j]
        return row

    def _gj_pivot(self, row, col):
        """row divided by the gcd of its entries, positive at col."""
        g = gcd(*row.values())
        if row[col] < 0:
            g = -g
        return row if g == 1 else {j: v // g for j, v in row.items()}

    def _gj_basis(self, basis):
        """Each row divided by its pivot: an int where integral."""
        for p, row in basis.items():
            a = row[p]
            if a != 1:
                basis[p] = {j: v // a if v % a == 0 else Fraction(v, a)
                            for j, v in row.items()}
        return basis

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


class PrimeField:
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

    # _forward's steps over GF(p): unit pivots, arithmetic mod p inline

    def _gj_row(self, r):
        """The nonzeros of an incoming row."""
        return {j: v for j, v in _entries(r) if v}

    def _gj_clear(self, row, src, col):
        """row - c src for src's unit pivot at col, c row's entry there."""
        c, p = row.pop(col), self.p
        for j, e in src.items():
            if j != col:
                v = (row.get(j, 0) - c * e) % p
                if v:
                    row[j] = v
                else:
                    del row[j]
        return row

    def _gj_pivot(self, row, col):
        """row scaled to 1 at col."""
        c = row[col]
        if c == 1:
            return row
        inv, p = self.inv(c), self.p
        return {j: inv * v % p for j, v in row.items()}

    def _gj_basis(self, basis):
        return basis

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
    """Exact matrix: nz holds one {col: value} dict of nonzeros per row,
    shared and never mutated; entries is the dense view, a tuple of row
    tuples built on first use.  The constructor takes dense rows."""

    __slots__ = ("field", "rows", "cols", "nz", "_entries")

    def __init__(self, field, rows, cols, entries):
        entries = tuple(tuple(r) for r in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeError(f"expected {rows}x{cols} entries")
        self.field, self.rows, self.cols, self._entries = field, rows, cols, None
        self.nz = tuple({j: v for j, v in enumerate(r) if v} for r in entries)

    @classmethod
    def _of(cls, field, rows, cols, nz):
        """Wrap rows x cols dict rows of nonzeros as they are, with no copy."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.nz, m._entries = field, rows, cols, nz, None
        return m

    @classmethod
    def zero(cls, field, rows, cols):
        return cls._of(field, rows, cols, ({},) * rows)

    @classmethod
    def identity(cls, field, n):
        o = field.one()
        return cls._of(field, n, n, tuple({i: o} for i in range(n)))

    @property
    def entries(self):
        if self._entries is None:
            z = self.field.zero()
            self._entries = tuple(_dense(r, self.cols, z) for r in self.nz)
        return self._entries

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nz):
            for j, v in r.items():
                out[j][i] = v
        return Matrix._of(self.field, self.cols, self.rows, tuple(out))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ShapeError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix._of(self.field, self.rows, other.cols, tuple(
            _accumulate(self.field, r, other.nz.__getitem__) for r in self.nz))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols) or self.field != other.field:
            raise ShapeError("shape or field mismatch in matrix sum")
        o = self.field.one()
        return Matrix._of(self.field, self.rows, self.cols, tuple(
            _accumulate(self.field, (o, o), pair.__getitem__)
            for pair in zip(self.nz, other.nz)))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.nz == other.nz)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols))

    def is_zero(self):
        return not any(self.nz)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def _entries(row):
    """(column, value) pairs of a dense row or a {column: value} dict."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _accumulate(field, coeffs, row_of):
    """Sum of coeffs[m] * row_of(m) as a {col: value} dict of its nonzeros;
    coeffs are dense, a dict {index: value} or None; rows are dicts or None."""
    add, mul = field.add, field.mul
    acc = {}
    for m, c in _entries(coeffs or ()):
        if c and (row := row_of(m)):
            for q, y in row.items():
                if y:
                    acc[q] = add(acc[q], mul(c, y)) if q in acc else mul(c, y)
    return {q: v for q, v in acc.items() if v}


def _forward(field, rows, ncols):
    """Gauss-Jordan elimination: the canonical basis as {pivot: row}.

    Each incoming row is reduced at the pivots it holds; a row left
    nonzero is normalised by the field, its column is cleared from the
    earlier pivot rows, and it pivots there.  Every row returned is a dict
    of nonzeros, 1 at its pivot and 0 at every other pivot.
    """
    basis = {}
    for r in rows:
        if len(basis) == ncols:
            break
        row = field._gj_row(r)
        for p in [j for j in row if j in basis]:
            row = field._gj_clear(row, basis[p], p)
        if row:
            col = min(row)
            row = field._gj_pivot(row, col)
            for p, prow in basis.items():
                if col in prow:
                    basis[p] = field._gj_pivot(field._gj_clear(prow, row, col),
                                               p)
            basis[col] = row
    return field._gj_basis(basis)


def _rank(field, rows, ncols=None):
    """Rank of rows: the number of pivots elimination finds."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(_forward(field, rows, ncols))


def _echelon(field, rows, ncols):
    """The canonical basis of the row space as (dict rows, pivots), sorted
    by pivot."""
    basis = _forward(field, rows, ncols)
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


class Subspace:
    """A subspace of K^ambient with its canonical reduced echelon basis.

    basis holds the rows as dicts {column: value} of their nonzeros, sorted
    by pivot, each unit at its pivot and zero at every other pivot; they
    are shared, never to be mutated.  The basis is canonical, so equality
    of (field, ambient, pivots, basis) is subspace equality.  rows is the
    dense view of the same basis, tuples of length ambient, built on first
    use for the public API and JSON, and so is the class table classes().
    The constructor takes the canonical rows dense or as dicts.
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "_rows", "_classes")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = tuple({j: v for j, v in _entries(r) if v} for r in rows)
        self.pivots = tuple(pivots)
        self._rows = self._classes = None

    @classmethod
    def _of(cls, field, ambient, basis, pivots):
        """Wrap canonical dict rows as they are, with no copy."""
        sp = cls.__new__(cls)
        sp.field, sp.ambient = field, ambient
        sp.basis, sp.pivots, sp._rows, sp._classes = basis, pivots, None, None
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

    def classes(self):
        """{pivot p: e_p modulo this subspace}, minus the rest of the row
        pivoting at p, as a {col: value} dict of its nonzeros; any other e_j
        is its own class.  Shared, never to be mutated."""
        if self._classes is None:
            neg = self.field.neg
            self._classes = {p: {j: neg(v) for j, v in row.items() if j != p}
                             for row, p in zip(self.basis, self.pivots)}
        return self._classes

    def _residue(self, vec):
        """vec modulo this subspace as a {col: value} dict of its nonzeros,
        all at non-pivot columns."""
        cls, one = self.classes(), self.field.one()
        return _accumulate(self.field, vec,
                           lambda j: cls[j] if j in cls else {j: one})

    def reduce(self, vec):
        """Reduce vec modulo this subspace; 0 iff vec is a member.  A dense
        vec gives a dense list, a dict vec a dict of the nonzeros."""
        rest = self._residue(vec)
        if isinstance(vec, dict):
            return rest
        return list(_dense(rest, self.ambient, self.field.zero()))

    def contains_vector(self, vec):
        return not self._residue(vec)


def nullspace(field, rows, ncols) -> Subspace:
    """{x in K^ncols : r . x = 0 for every row r}.

    One elimination with the columns reversed, so each basis row pivots at
    its last column.  The null vector of free column f is 1 at f and minus
    the column-f entry of each basis row at that row's pivot, all of them
    after f: so the vectors are already the canonical basis, pivoting at
    the free columns.
    """
    last = ncols - 1
    basis = _forward(field, ({last - j: v for j, v in _entries(r)}
                             for r in rows), ncols)
    neg, o = field.neg, field.one()
    null = {f: {f: o} for f in range(ncols) if last - f not in basis}
    for rp, row in basis.items():
        for rj, v in row.items():
            if rj != rp:
                null[last - rj][last - rp] = neg(v)
    return Subspace._of(field, ncols, tuple(null.values()), tuple(null))


def kernel(m: Matrix) -> Subspace:
    """{v in K^rows : v @ m = 0}: the nullspace of m's columns."""
    return nullspace(m.field, m.transpose().nz, m.rows)


def image(m: Matrix) -> Subspace:
    """Row space of m, i.e. the image of v |-> v @ m."""
    return Subspace.from_vectors(m.field, m.cols, m.nz)


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
    return all(outer.contains_vector(r) for r in inner.basis)


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
    red, pivots = _echelon(F, [{**col, m.rows: e} for col, e
                               in zip(m.transpose().nz, b)], m.rows + 1)
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
