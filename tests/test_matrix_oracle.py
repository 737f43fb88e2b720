"""Matrix on dict rows against the dense Matrix it replaced.

DenseMatrix below is the earlier implementation, kept as the reference: a
tuple of dense row tuples, with every operation written out entry by
entry, and kernel, image, solve and apply_row fed its dense rows.  The
library stores one {col: value} dict of nonzeros per row and builds the
dense entries as a view; these tests check that every public operation
gives the same entries over Q, GF(2) and GF(101), on 0 x n and n x 0
shapes and on all-zero rows, and that the JSON round trip keeps a matrix
and its hash.
"""

from fractions import Fraction

from hypothesis import example, given, strategies as st

from gradedsupport.errors import ShapeError
from gradedsupport.exactlin import (GF, QQ, Matrix, Subspace, _echelon,
                                    image, kernel, nullspace, solve)
from gradedsupport.serialize import _entry_to_json, _matrix, _rows_to_json
from test_exactlin_oracles import apply_row

FIELDS = [QQ, GF(2), GF(101)]


# ---------------------------------------------------------------------------
# the dense reference


class DenseMatrix:
    def __init__(self, field, rows, cols, entries):
        entries = tuple(tuple(r) for r in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeError(f"expected {rows}x{cols} entries")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def transpose(self):
        return DenseMatrix(self.field, self.cols, self.rows,
                           [[self.entries[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def __matmul__(self, other):
        return DenseMatrix(self.field, self.rows, other.cols,
                           [dense_apply_row(self.field, r, other)
                            for r in self.entries])

    def __add__(self, other):
        F = self.field
        return DenseMatrix(F, self.rows, self.cols,
                           [[F.add(a, b) for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def __eq__(self, other):
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def is_zero(self):
        z = self.field.zero()
        return all(e == z for row in self.entries for e in row)


def dense_apply_row(field, vec, matrix):
    add, mul = field.add, field.mul
    acc = [field.zero()] * matrix.cols
    for a, row in zip(vec, matrix.entries):
        if a:
            for j, e in enumerate(row):
                if e:
                    acc[j] = add(acc[j], mul(a, e))
    return acc


def dense_kernel(m):
    return nullspace(m.field, list(zip(*m.entries)), m.rows)


def dense_image(m):
    return Subspace.from_vectors(m.field, m.cols, m.entries)


def dense_solve(m, b):
    b = tuple(b)
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


# ---------------------------------------------------------------------------
# strategies


@st.composite
def scalars(draw, field):
    if draw(st.integers(0, 2)):
        return field.zero()
    num = draw(st.integers(-6, 6))
    if field == QQ:
        return Fraction(num, draw(st.integers(1, 4)))
    return field.from_int(num)


@st.composite
def dense_rows(draw, field, nrows, ncols):
    """Mostly zero entries, with up to two rows forced to zero."""
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    return [[field.zero() if i in zero_rows else draw(scalars(field))
             for _ in range(ncols)] for i in range(nrows)]


def pair(field, rows, cols, entries):
    return Matrix(field, rows, cols, entries), \
        DenseMatrix(field, rows, cols, entries)


@st.composite
def cases(draw, max_dim=5):
    """(field, m, n, s, vec, rhs): m is r x k, n is k x c and s is r x k,
    each as (Matrix, DenseMatrix); vec has length r and rhs length k."""
    F = draw(st.sampled_from(FIELDS))
    r, k, c = (draw(st.integers(0, max_dim)) for _ in range(3))
    m = pair(F, r, k, draw(dense_rows(F, r, k)))
    n = pair(F, k, c, draw(dense_rows(F, k, c)))
    # s is often m itself, so equal matrices get compared too
    s = m if draw(st.booleans()) else pair(F, r, k, draw(dense_rows(F, r, k)))
    vec = draw(dense_rows(F, 1, r))[0]
    rhs = draw(dense_rows(F, 1, k))[0]
    return F, m, n, s, vec, rhs


def zero_case(F, r, k, c):
    z = F.zero()
    return (F, pair(F, r, k, [[z] * k] * r), pair(F, k, c, [[z] * c] * k),
            pair(F, r, k, [[z] * k] * r), [z] * r, [z] * k)


def empty_shapes(test):
    """Also run on 0 x n, n x 0 and all-zero matrices."""
    for F in FIELDS:
        for r, k, c in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0),
                        (3, 2, 4)]:
            test = example(zero_case(F, r, k, c))(test)
    return test


# ---------------------------------------------------------------------------
# differential tests


def same(m, d):
    """m holds d's entries, and its dict rows hold exactly the nonzeros."""
    assert (m.field, m.rows, m.cols) == (d.field, d.rows, d.cols)
    assert m.entries == d.entries
    assert m == Matrix(d.field, d.rows, d.cols, d.entries)
    assert all(all(r.values()) for r in m.nz)


@given(cases())
@empty_shapes
def test_matrix_operations_match_the_dense_matrix(case):
    F, (m, dm), (n, dn), (s, ds), _, _ = case
    same(m, dm)
    same(m @ n, dm @ dn)
    same(m + s, dm + ds)
    same(m.transpose(), dm.transpose())
    same(Matrix.zero(F, m.rows, m.cols),
         DenseMatrix(F, m.rows, m.cols, [[F.zero()] * m.cols] * m.rows))
    assert m.is_zero() == dm.is_zero()
    assert (m == s) == (dm == ds)
    if dm == ds:
        assert hash(m) == hash(s)


@given(cases())
@empty_shapes
def test_identity_matches_the_dense_identity(case):
    F, (m, _), _, _, _, _ = case
    o, z = F.one(), F.zero()
    dense = DenseMatrix(F, m.rows, m.rows,
                        [[o if i == j else z for j in range(m.rows)]
                         for i in range(m.rows)])
    same(Matrix.identity(F, m.rows), dense)
    same(Matrix.identity(F, m.rows) @ m, dense @ DenseMatrix(
        F, m.rows, m.cols, m.entries))


@given(cases())
@empty_shapes
def test_linear_algebra_matches_the_dense_matrix(case):
    F, (m, dm), _, _, vec, rhs = case
    assert apply_row(F, vec, m) == dense_apply_row(F, vec, dm)
    assert kernel(m) == dense_kernel(dm)
    assert image(m) == dense_image(dm)
    assert solve(m, rhs) == dense_solve(dm, rhs)
    # a right-hand side inside the image is solved
    inside = dense_apply_row(F, vec, dm)
    got = solve(m, inside)
    assert got == dense_solve(dm, inside)
    assert got is not None and apply_row(F, got, m) == inside


@given(cases())
@empty_shapes
def test_json_round_trip_keeps_the_matrix_and_its_hash(case):
    F, (m, dm), (n, _), _, _, _ = case
    for x in (m, m @ n, m.transpose()):
        obj = _rows_to_json(F, x.nz, x.cols)
        assert obj["entries"] == [[_entry_to_json(F, e) for e in row]
                                  for row in x.entries]
        back = _matrix(obj, (), F, {})
        assert back == x and hash(back) == hash(x)
        assert back.entries == x.entries
