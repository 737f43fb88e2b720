"""exactlin against the augmented-elimination formulas it replaced.

The oracles below are the earlier implementations, kept as independent
references: a dense rref that rewrites whole rows, kernel and solve by
reducing [M | I], and Zassenhaus intersection re-canonicalised by a second
rref.  The library reads every answer off one sparse rref instead; these
tests check that it gives the same subspaces (structural Subspace equality)
on random sparse matrices over Q and GF(101), zero rows, zero columns and
empty shapes included, with rows given dense or as {column: value} dicts.

e_i modulo a subspace is read off the pivot rows; the old pivot_reduce of
the unit vector is kept as the oracle for the projection matrix behind
preimage_subspace and for the mult tables of quiver_algebra.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gradedsupport.constructions import (_path_source, _path_target,
                                         _split_relation, quiver_algebra)
from gradedsupport.exactlin import (GF, QQ, LabeledSpace, Matrix, Subspace,
                                    apply_row, kernel, matched_pairs,
                                    nullspace, pivot_reduce, rref, solve,
                                    subspace_intersect)
from gradedsupport.graded_core import _complement_matrix, preimage_subspace

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


# ---------------------------------------------------------------------------
# dict rows: rref and nullspace take {column: value} rows with ncols given


@st.composite
def dict_matrices(draw, max_dim=7):
    """A sparse matrix and its rows as dicts: every nonzero, some explicit
    zeros, keys in shuffled order."""
    m = draw(sparse_matrices(max_dim))
    rows = []
    for r in m.entries:
        keys = [j for j, e in enumerate(r) if e or draw(st.booleans())]
        rows.append({j: r[j] for j in draw(st.permutations(keys))})
    return m, rows


def dict_examples(test):
    """Also run on 0 x n, n x 0, all-empty-dict and zero-valued-dict inputs."""
    for f in FIELDS:
        for r, c in [(0, 0), (0, 4), (4, 0), (3, 5)]:
            test = example((Matrix.zero(f, r, c), [{}] * r))(test)
        test = example((Matrix.zero(f, 2, 3), [{0: f.zero()}, {2: 0}]))(test)
    return test


@given(dict_matrices())
@dict_examples
def test_rref_of_dict_rows_matches_dense_rref(case):
    m, rows = case
    assert rref(m.field, rows, m.cols) == dense_rref(m.field, m.entries)


@given(dict_matrices())
@dict_examples
def test_nullspace_of_dict_rows_matches_augmented_kernel(case):
    m, rows = case
    got = nullspace(m.field, rows, m.cols)
    assert got == oracle_kernel(m.transpose())


# ---------------------------------------------------------------------------
# e_i modulo a subspace, read off the pivot rows instead of pivot_reduce


def old_complement_matrix(field, ambient, space):
    z = field.zero()
    keep = [i for i in range(ambient) if i not in set(space.pivots)]
    if not keep:
        return None
    rows = []
    for i in range(ambient):
        e = [z] * ambient
        e[i] = field.one()
        red = pivot_reduce(field, space.rows, space.pivots, e)[0]
        rows.append(tuple(red[j] for j in keep))
    return Matrix(field, ambient, len(keep), rows)


def old_preimage(f, w):
    comp = old_complement_matrix(f.field, f.cols, w)
    if comp is None:
        return Subspace.full(f.field, f.rows)
    return oracle_kernel(f @ comp)


@given(subspace_pairs())
def test_complement_matrix_matches_pivot_reduction(pair):
    for w in pair:
        assert _complement_matrix(w.field, w.ambient, w) \
            == old_complement_matrix(w.field, w.ambient, w)


@given(sparse_matrices(), st.data())
def test_preimage_matches_old_complement(f, data):
    w = oracle_span(f.field, f.cols, data.draw(
        sparse_rows(f.field, data.draw(st.integers(0, 7)), f.cols)))
    assert preimage_subspace(f, w) == old_preimage(f, w)


def old_quiver_tables(num_vertices, arrows, relations, top, field):
    """Components and mult table of quiver_algebra as built with dense
    ideal vectors and reduce_path = pivot_reduce of the unit vector."""
    z, one = field.zero(), field.one()
    rel_by_degree = {}
    for rel in relations:
        for length, _, _, terms in _split_relation(field, arrows, rel):
            rel_by_degree.setdefault(length, []).append(terms)
    paths = {1: [(a,) for a in range(len(arrows))]}
    for m in range(2, top + 1):
        paths[m] = [p + (a,) for p in paths[m - 1]
                    for a in range(len(arrows))
                    if arrows[a][0] == _path_target(arrows, p)]
    index = {m: {p: i for i, p in enumerate(ps)} for m, ps in paths.items()}
    ideal = {}
    for m in range(2, top + 1):
        dim = len(paths[m])
        vecs = []
        for row in ideal[m - 1].rows if m - 1 in ideal else ():
            for a in range(len(arrows)):
                left, right = [z] * dim, [z] * dim
                for pi, coeff in enumerate(row):
                    p = paths[m - 1][pi]
                    if arrows[a][1] == _path_source(arrows, p):
                        left[index[m][(a,) + p]] = coeff
                    if _path_target(arrows, p) == arrows[a][0]:
                        right[index[m][p + (a,)]] = coeff
                vecs += [left, right]
        for terms in rel_by_degree.get(m, []):
            vec = [z] * dim
            for coeff, path in terms:
                vec[index[m][path]] = field.add(vec[index[m][path]], coeff)
            vecs.append(vec)
        ideal[m] = oracle_span(field, dim, vecs)

    comps = {0: LabeledSpace.module_component(range(num_vertices))}
    kept, words = {}, {0: list(range(num_vertices))}
    for m in range(1, top + 1):
        sp = ideal.get(m, Subspace.zero(field, len(paths[m])))
        keep = [i for i in range(len(paths[m])) if i not in sp.pivots]
        if keep:
            comps[m] = LabeledSpace(
                len(keep),
                tuple(_path_source(arrows, paths[m][i]) for i in keep),
                tuple(_path_target(arrows, paths[m][i]) for i in keep))
            kept[m], words[m] = keep, [paths[m][i] for i in keep]

    def reduce_path(m, p):
        e = [z] * len(paths[m])
        e[index[m][p]] = one
        sp = ideal.get(m, Subspace.zero(field, len(paths[m])))
        red = pivot_reduce(field, sp.rows, sp.pivots, e)[0]
        return tuple(red[i] for i in kept[m])

    mult = {}
    for g in comps:
        for h in comps:
            t = g + h
            pairs = matched_pairs(comps[g], comps[h])
            if t not in comps or not pairs:
                continue
            rows = []
            for i, j in pairs:
                if t == 0:
                    rows.append(tuple(one if v == j else z for v in words[0]))
                    continue
                word = (words[g][i] if g else ()) + (words[h][j] if h else ())
                rows.append(reduce_path(t, word))
            mult[(g, h)] = Matrix(field, len(pairs), comps[t].dim, rows)
    return comps, mult


QUIVERS = [
    # the harness's default algebra: two loops x, y with yx = 0
    (1, [(0, 0), (0, 0)], [[(1, (1, 0))]], 7),
    # two vertices, arrows both ways, one monomial relation
    (2, [(0, 1), (1, 0)], [[(1, (0, 1))]], 5),
    # commutativity xy - yx
    (1, [(0, 0), (0, 0)], [[(1, (0, 1)), (-1, (1, 0))]], 5),
    # non-unit coefficients: 2ac + 3bc on two vertices, 2x^3 + 5y^3
    (2, [(0, 1), (0, 1), (1, 0)], [[(2, (0, 2)), (3, (1, 2))]], 5),
    (1, [(0, 0), (0, 0)], [[(2, (0, 0, 0)), (5, (1, 1, 1))]], 6),
]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("quiver", QUIVERS)
def test_quiver_tables_match_pivot_reduced_paths(quiver, field):
    a = quiver_algebra(*quiver, field)
    comps, mult = old_quiver_tables(*quiver, field)
    assert a.components == comps
    assert a.mult == mult
