"""exactlin against the augmented-elimination formulas it replaced.

The oracles below are the earlier implementations, kept as independent
references: a dense rref that rewrites whole rows, kernel and solve by
reducing [M | I], and Zassenhaus intersection re-canonicalised by a second
rref.  The library reads every answer off one rref instead; these tests
check that it gives the same subspaces (structural Subspace equality) on
random sparse matrices over Q and GF(101), zero rows, zero columns and
empty shapes included.
"""

from fractions import Fraction

from hypothesis import example, given, strategies as st

from gradedsupport.exactlin import (GF, QQ, Matrix, Subspace, apply_row,
                                    kernel, nullspace, rref, solve,
                                    subspace_intersect)

FIELDS = [QQ, GF(101)]


# ---------------------------------------------------------------------------
# oracles


def dense_rref(field, rows):
    work = [list(r) for r in rows]
    z = field.zero()
    ncols = len(work[0]) if work else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(work)):
            if work[i][col] != z:
                sel = i
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = field.inv(work[rank][col])
        if inv != field.one():
            work[rank] = [field.mul(inv, e) for e in work[rank]]
        prow = work[rank]
        for i in range(len(work)):
            if i == rank:
                continue
            f = work[i][col]
            if f != z:
                wrow = work[i]
                work[i] = [field.sub(wrow[j], field.mul(f, prow[j]))
                           for j in range(ncols)]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


def oracle_span(field, ambient, vectors):
    return Subspace(field, ambient, *dense_rref(field, vectors))


def _with_identity(m):
    z, o = m.field.zero(), m.field.one()
    return [list(m.entries[i]) + [o if j == i else z for j in range(m.rows)]
            for i in range(m.rows)]


def oracle_kernel(m):
    F = m.field
    z = F.zero()
    if m.rows == 0:
        return Subspace.zero(F, 0)
    red, _ = dense_rref(F, _with_identity(m))
    basis = [row[m.cols:] for row in red
             if all(e == z for e in row[:m.cols])]
    return oracle_span(F, m.rows, basis)


def oracle_solve(m, b):
    F = m.field
    z = F.zero()
    if m.rows == 0:
        return [] if all(e == z for e in b) else None
    red, pivots = dense_rref(F, _with_identity(m))
    v = list(b)
    combo = [z] * m.rows
    for row, p in zip(red, pivots):
        if p >= m.cols:
            break
        c = v[p]
        if c != z:
            v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row[:m.cols])]
            combo = [F.add(x, F.mul(c, y)) for x, y in zip(combo, row[m.cols:])]
    if any(e != z for e in v):
        return None
    return combo


def oracle_intersect(a, b):
    F = a.field
    z = F.zero()
    n = a.ambient
    block = [list(r) + list(r) for r in a.rows]
    block += [list(r) + [z] * n for r in b.rows]
    if not block:
        return Subspace.zero(F, n)
    red, _ = dense_rref(F, block)
    return oracle_span(F, n, [row[n:] for row in red
                              if all(e == z for e in row[:n])])


# ---------------------------------------------------------------------------
# random sparse inputs


@st.composite
def scalars(draw, field):
    if draw(st.integers(0, 2)):
        return field.zero()
    num = draw(st.integers(-6, 6))
    if field == QQ:
        return Fraction(num, draw(st.integers(1, 4)))
    return field.from_int(num)


@st.composite
def sparse_rows(draw, field, nrows, ncols):
    """nrows x ncols entries, mostly zero, with some rows and columns forced
    to zero."""
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2))
    return [[field.zero() if i in zero_rows or j in zero_cols
             else draw(scalars(field)) for j in range(ncols)]
            for i in range(nrows)]


@st.composite
def sparse_matrices(draw, max_dim=7):
    f = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    return Matrix(f, rows, cols, draw(sparse_rows(f, rows, cols)))


@st.composite
def subspace_pairs(draw, max_dim=7):
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, max_dim))
    return tuple(oracle_span(f, n, draw(sparse_rows(
        f, draw(st.integers(0, max_dim)), n))) for _ in range(2))


EMPTY_SHAPES = [Matrix.zero(f, r, c) for f in FIELDS
                for r, c in [(0, 0), (0, 4), (4, 0)]]


def with_empty_shapes(*rest):
    """Run the test on every 0 x n and n x 0 matrix as well."""
    def wrap(test):
        for m in EMPTY_SHAPES:
            test = example(m, *rest)(test)
        return test
    return wrap


# ---------------------------------------------------------------------------
# differential tests


@given(sparse_matrices())
@with_empty_shapes()
def test_rref_matches_dense_rref(m):
    assert rref(m.field, m.entries) == dense_rref(m.field, m.entries)


@given(sparse_matrices())
@with_empty_shapes()
def test_kernel_matches_augmented_kernel(m):
    assert kernel(m) == oracle_kernel(m)


@given(sparse_matrices())
@with_empty_shapes()
def test_nullspace_matches_augmented_kernel(m):
    # the rows of m are the equations; the oracle wants them as columns
    got = nullspace(m.field, m.entries, m.cols)
    assert got == oracle_kernel(m.transpose())


@given(sparse_matrices(), st.data())
@with_empty_shapes(None)
def test_solve_matches_augmented_solve(m, data):
    F = m.field
    if data is None:
        b = [F.zero()] * m.cols
    elif data.draw(st.booleans()):
        # a right-hand side inside the image
        coeffs = data.draw(sparse_rows(F, 1, m.rows))[0]
        b = apply_row(F, coeffs, m)
    else:
        b = data.draw(sparse_rows(F, 1, m.cols))[0]
    got, want = solve(m, b), oracle_solve(m, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert apply_row(F, got, m) == list(b)
        if kernel(m).dim == 0:
            # independent rows: the preimage is unique
            assert got == want


@given(subspace_pairs())
def test_intersection_matches_recanonicalised_zassenhaus(pair):
    a, b = pair
    assert subspace_intersect(a, b) == oracle_intersect(a, b)
    assert subspace_intersect(b, a) == oracle_intersect(b, a)
