"""exactlin against the augmented-elimination formulas it replaced.

The oracles below are the earlier implementations, kept as independent
references: a dense rref that rewrites whole rows, kernel and solve by
reducing [M | I], and Zassenhaus intersection re-canonicalised by a second
rref.  The library reads every answer off one sparse rref instead; these
tests check that it gives the same subspaces (structural Subspace equality)
on random sparse matrices over Q and GF(101), zero rows, zero columns and
empty shapes included, with rows given dense or as {column: value} dicts.

The library reads every vector modulo a subspace through its class table,
Subspace.classes.  pivot_reduce, which subtracts the basis rows one pivot
at a time with _axpy, is kept here as the oracle: for reduce,
contains_vector and unit_residue, for the projection matrix behind
preimage_subspace and for the mult tables of quiver_algebra.  apply_row
(vec @ matrix as a dense list) and unit_residue(s) (e_i modulo a subspace
as a dense tuple) live here too: only the tests read vectors that way.

The kernel itself is one Gauss-Jordan loop on {column: value} rows, and
Subspace keeps those rows.  Over Q it works on primitive integer rows;
gauss_jordan_forward is the loop as it was before, with unit pivots
through the field's own operations, kept as one more oracle.  The kernel
must return its canonical basis dict for dict, over Q with huge and
non-integral entries too, and stop reading rows at the same full rank.
The last section checks the kernel and every Subspace method against the
dense oracles over GF(2), GF(3), GF(101) and Q.

nullspace reads the null vectors off one elimination with the columns
reversed, where they are already canonical.  two_pass_nullspace, which
read them off the usual elimination and put them in canonical form by a
second one, is kept as its oracle.

Over Q an integral value is an int.  The Fraction-only field it replaced
is kept as FractionField, eliminating with the earlier unit-pivot steps,
and a section of its own checks the field operations, rref, nullspace,
solve and hom spaces against it, value for value, on inputs mixing ints
and Fractions.
"""

from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gradedsupport.constructions import (_coerce, _path_source,
                                         _path_target, free_module,
                                         present_module, quiver_algebra,
                                         truncated_polynomial)
from gradedsupport.errors import PreconditionError, ShapeError
from gradedsupport.exactlin import (GF, QQ, LabeledSpace, Matrix,
                                    RationalField, Subspace, _accumulate,
                                    _dense, _echelon, _entries, _forward,
                                    _rank, image, integral, kernel,
                                    matched_pairs, nullspace,
                                    rref, solve, subspace_contains,
                                    subspace_intersect, subspace_sum)
from gradedsupport.graded_core import (_vanishing_spaces, hom_space_basis,
                                       hom_space_dim, modules_equal,
                                       preimage_subspace)
from gradedsupport.lifting import random_category_module
from gradedsupport.subsets import DegreeSet

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


def apply_row(field, vec, matrix):
    """vec @ matrix for a plain sequence vec of length matrix.rows."""
    if len(vec) != matrix.rows:
        raise ShapeError(f"vector length {len(vec)} vs {matrix.rows} rows")
    return list(_dense(_accumulate(field, vec, matrix.nz.__getitem__),
                       matrix.cols, field.zero()))


def unit_residue(sp, i):
    """e_i modulo the subspace sp, in the non-pivot coordinates: its class,
    non-pivot column j being coordinate j - (pivots below j)."""
    F, pivots = sp.field, sp.pivots
    res = [F.zero()] * (sp.ambient - len(pivots))
    for j, v in sp._residue({i: F.one()}).items():
        res[j - bisect_left(pivots, j)] = v
    return tuple(res)


def unit_residues(sp):
    """Row i is unit_residue(i)."""
    return [unit_residue(sp, i) for i in range(sp.ambient)]


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
    rows = []
    for i in range(ambient):
        e = [z] * ambient
        e[i] = field.one()
        red = pivot_reduce(field, space.rows, space.pivots, e)[0]
        rows.append(tuple(red[j] for j in keep))
    return Matrix(field, ambient, len(keep), rows)


def old_preimage(f, w):
    return oracle_kernel(f @ old_complement_matrix(f.field, f.cols, w))


@given(subspace_pairs())
def test_complement_matrix_matches_pivot_reduction(pair):
    # the unit residues as a matrix are the old complement projection
    for w in pair:
        assert Matrix(w.field, w.ambient, w.ambient - w.dim,
                      unit_residues(w)) \
            == old_complement_matrix(w.field, w.ambient, w)


@given(sparse_matrices(), st.data())
def test_preimage_matches_old_complement(f, data):
    w = oracle_span(f.field, f.cols, data.draw(
        sparse_rows(f.field, data.draw(st.integers(0, 7)), f.cols)))
    assert preimage_subspace(f, w) == old_preimage(f, w)


def old_split_relation(field, arrows, rel):
    """(degree, terms) per endpoint block of a relation, equal paths left
    unmerged; a malformed relation raises PreconditionError."""
    paths = [tuple(p) for _, p in rel]
    if not paths or len({len(p) for p in paths}) != 1 or len(paths[0]) < 2 \
            or any(not 0 <= a < len(arrows) for p in paths for a in p) \
            or any(arrows[a][1] != arrows[b][0]
                   for p in paths for a, b in zip(p, p[1:])):
        raise PreconditionError(f"malformed relation {rel}")
    blocks = {}
    for (c, _), p in zip(rel, paths):
        blocks.setdefault((arrows[p[0]][0], arrows[p[-1]][1]), []).append(
            (field.from_int(c) if isinstance(c, int) else c, p))
    return [(len(paths[0]), terms) for terms in blocks.values()]


def old_quiver_tables(num_vertices, arrows, relations, top, field):
    """Components and mult table of quiver_algebra as built with dense
    ideal vectors over every path and reduce_path = pivot_reduce of the
    unit vector."""
    z, one = field.zero(), field.one()
    rel_by_degree = {}
    for rel in relations:
        for length, terms in old_split_relation(field, arrows, rel):
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


# ---------------------------------------------------------------------------
# the Gauss-Jordan loop and dict-row subspaces


ALL_FIELDS = [GF(2), GF(3), GF(101), QQ]


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


def pivot_reduce(field, rows, pivots, vec):
    """Subtract c * row at each pivot, c being vec's entry there.

    rows must carry unit pivots that are zero in every other row (a reduced
    echelon basis, in any order), as {column: value} dicts or dense
    sequences.  Returns (remainder, coefficients): the remainder is zero iff
    vec lies in the span, and then vec is the sum of coefficient times row.
    A dense vec gives a dense list remainder; a dict vec, which needs dict
    rows, gives a dict of the remainder's nonzeros.
    """
    if isinstance(vec, dict):
        z = field.zero()
        v = {j: x for j, x in vec.items() if x}
        coeffs = [v.pop(p, z) for p in pivots]
        for row, p, c in zip(rows, pivots, coeffs):
            if c is not z:  # a popped entry, nonzero
                _axpy(field, v, c, row, p)
        return v, coeffs
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


def gauss_jordan_forward(field, rows, ncols):
    """The kernel's loop before integer rows: reduce each incoming row at
    the pivots it holds, scale it to a unit pivot, then clear its column
    from every earlier row, all through the field's own operations."""
    one = field.one()
    basis = {}
    for r in rows:
        if len(basis) == ncols:
            break
        row = {j: v for j, v in _entries(r) if v}
        for p in [j for j in row if j in basis]:
            _axpy(field, row, row.pop(p), basis[p], p)
        if row:
            col = min(row)
            c = row[col]
            if c != one:
                inv = field.inv(c)
                row = {j: field.mul(inv, v) for j, v in row.items()}
            for prow in basis.values():
                if col in prow:
                    _axpy(field, prow, prow.pop(col), row, col)
            basis[col] = row
    return basis


def gauss_jordan_rref(field, rows, ncols):
    """gauss_jordan_forward's basis as dense rows, sorted by pivot."""
    basis = gauss_jordan_forward(field, rows, ncols)
    pivots = tuple(sorted(basis))
    z = field.zero()
    return tuple(tuple(basis[p].get(j, z) for j in range(ncols))
                 for p in pivots), pivots


def dense_reduce(field, rows, pivots, vec):
    """pivot_reduce on dense rows, one whole-row update per pivot."""
    v = list(vec)
    coeffs = []
    for row, p in zip(rows, pivots):
        c = v[p]
        coeffs.append(c)
        if c != field.zero():
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return v, coeffs


@st.composite
def row_forms(draw, max_dim=7):
    """A sparse matrix over one of ALL_FIELDS and its rows as given to the
    kernel: dense tuples, or dicts with shuffled keys, some explicit zeros
    and empty dicts for zero rows."""
    f = draw(st.sampled_from(ALL_FIELDS))
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    m = Matrix(f, nrows, ncols, draw(sparse_rows(f, nrows, ncols)))
    if draw(st.booleans()):
        return m, [tuple(r) for r in m.entries]
    rows = []
    for r in m.entries:
        keys = [j for j, e in enumerate(r) if e or draw(st.booleans())]
        rows.append({j: r[j] for j in draw(st.permutations(keys))})
    return m, rows


def form_examples(*rest):
    """Also run on empty shapes, all-empty dicts and explicit zeros."""
    def wrap(test):
        for f in ALL_FIELDS:
            for r, c in [(0, 0), (0, 4), (4, 0), (3, 5)]:
                test = example((Matrix.zero(f, r, c), [{}] * r), *rest)(test)
                test = example((Matrix.zero(f, r, c),
                                [(f.zero(),) * c] * r), *rest)(test)
            test = example((Matrix.zero(f, 2, 3),
                            [{0: f.zero()}, {2: f.zero(), 1: f.zero()}]),
                           *rest)(test)
        return test
    return wrap


def assert_canonical(sp):
    """basis holds sorted unit pivots, no zeros, and clears other pivots."""
    assert list(sp.pivots) == sorted(set(sp.pivots))
    assert len(sp.basis) == len(sp.pivots) == sp.dim
    for row, p in zip(sp.basis, sp.pivots):
        assert isinstance(row, dict) and all(row.values())
        assert row[p] == sp.field.one() and min(row) == p
        assert not any(q in row for q in sp.pivots if q != p)


def vectors(draw, field, n):
    return [draw(sparse_rows(field, 1, n))[0]
            for _ in range(draw(st.integers(0, 3)))]


@given(row_forms())
@form_examples()
def test_kernel_matches_gauss_jordan_and_dense_rref(case):
    m, rows = case
    F = m.field
    want = dense_rref(F, m.entries)
    assert rref(F, rows, m.cols) == want
    assert gauss_jordan_rref(F, rows, m.cols) == want
    assert _forward(F, rows, m.cols) == gauss_jordan_forward(F, rows, m.cols)
    red, pivots = _echelon(F, rows, m.cols)
    assert_canonical(Subspace._of(F, m.cols, red, pivots))
    assert tuple(tuple(r.get(j, F.zero()) for j in range(m.cols))
                 for r in red) == want[0]
    assert _rank(F, rows, m.cols) == len(want[1])


def rationals_past_1e20():
    """Zero, small and huge ints, and Fractions with small or huge parts."""
    small, dens = st.integers(-6, 6), st.integers(1, 6)
    huge = st.builds(lambda m, sign: sign * m, st.integers(10 ** 20, 10 ** 24),
                     st.sampled_from([1, -1]))
    return st.one_of(st.just(0), small, huge, st.builds(Fraction, small, dens),
                     st.builds(Fraction, huge, dens),
                     st.builds(Fraction, small, huge))


@st.composite
def q_row_forms(draw, max_dim=6):
    """ncols and rows over Q, dense or as dicts with shuffled keys and some
    explicit zeros; often more rows than columns, so that elimination can
    reach full rank with rows left unread."""
    ncols = draw(st.integers(0, max_dim))
    rows = []
    for _ in range(draw(st.integers(0, max_dim + 3))):
        dense = draw(st.lists(rationals_past_1e20(), min_size=ncols,
                              max_size=ncols))
        if draw(st.booleans()):
            rows.append(tuple(dense))
        else:
            keys = [j for j, e in enumerate(dense) if e or draw(st.booleans())]
            rows.append({j: dense[j] for j in draw(st.permutations(keys))})
    return ncols, rows


def read_counted(rows, read):
    """rows as an iterator that appends each row to read as it is taken."""
    for r in rows:
        read.append(r)
        yield r


@given(q_row_forms())
@example((2, [{1: 10 ** 20, 0: 0}, (Fraction(3, 10 ** 21), 7),
              (Fraction(1, 3), 5)]))
@example((3, [(2, 4, 6), {2: Fraction(-9, 4), 0: 3}, (0, 10 ** 22, 1)]))
def test_integer_rows_over_q_match_the_unit_pivot_loop(case):
    ncols, rows = case
    read, read_before = [], []
    got = _forward(QQ, read_counted(rows, read), ncols)
    want = gauss_jordan_forward(QQ, read_counted(rows, read_before), ncols)
    assert got == want
    assert len(read) == len(read_before)
    assert int_when_integral(_nz_values(got.values()))
    assert all(row[p] == 1 for p, row in got.items())


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_elimination_stops_reading_at_full_rank(field):
    # a row after full rank is not reduced: as a row, None would raise
    o = field.one()
    assert _forward(field, [{0: o, 1: o}, {1: o}, None], 2) == {
        0: {0: o}, 1: {1: o}}


def two_pass_nullspace(field, rows, ncols):
    """nullspace as it was: the null vectors of the canonical basis of rows,
    one per free column, put in canonical form by a second elimination."""
    red, pivots = _echelon(field, rows, ncols)
    neg, o = field.neg, field.one()
    taken = set(pivots)
    basis = {f: {f: o} for f in range(ncols) if f not in taken}
    for row, p in zip(red, pivots):
        for j, v in row.items():
            if j != p:
                basis[j][p] = neg(v)
    return Subspace.from_vectors(field, ncols, list(basis.values()))


def _typed(sp):
    """sp's basis with each value's type: an integral rational is an int."""
    return [{j: (type(v), v) for j, v in row.items()} for row in sp.basis]


@given(row_forms(), st.data())
@form_examples(None)
def test_nullspace_from_one_elimination_matches_the_two_pass_one(case, data):
    m, rows = case
    F, n = m.field, m.cols
    if data is not None:
        # full rank, duplicate rows, or the rows twice with the identity
        how = data.draw(st.sampled_from(["as drawn", "full rank",
                                         "duplicates", "with identity"]))
        o = F.one()
        if how == "full rank":
            rows = [{j: o} for j in data.draw(st.permutations(range(n)))]
        elif how == "duplicates":
            rows = list(rows) + list(rows)
        elif how == "with identity":
            rows = list(rows) + [{j: o} for j in range(n)] + list(rows)
    got, want = nullspace(F, rows, n), two_pass_nullspace(F, rows, n)
    assert got == want and _typed(got) == _typed(want)
    assert_canonical(got)
    if data is None:  # rank 0: the whole space
        assert got == Subspace.full(F, n)


@st.composite
def subspace_probes(draw, max_dim=7):
    """A subspace over one of ALL_FIELDS, and vectors to read modulo it:
    random ones and members, each dense and as a dict with shuffled keys
    and some explicit zeros."""
    f = draw(st.sampled_from(ALL_FIELDS))
    n = draw(st.integers(0, max_dim))
    sp = Subspace.from_vectors(f, n, draw(sparse_rows(
        f, draw(st.integers(0, max_dim)), n)))
    vecs = vectors(draw, f, n)
    for coeffs in draw(sparse_rows(f, draw(st.integers(0, 2)), sp.dim)):
        vecs.append(apply_row(f, coeffs, Matrix(f, sp.dim, n, sp.rows)))
    probes = []
    for v in vecs:
        keys = [j for j, e in enumerate(v) if e or draw(st.booleans())]
        probes += [v, {j: v[j] for j in draw(st.permutations(keys))}]
    return sp, probes


@given(subspace_probes())
def test_reads_modulo_a_subspace_match_pivot_reduce(case):
    # every read goes through Subspace.classes; pivot_reduce subtracts the
    # basis rows one pivot at a time
    sp, probes = case
    F, n = sp.field, sp.ambient
    for vec in probes:
        rest = pivot_reduce(F, sp.basis, sp.pivots, vec)[0]
        inside = not (rest if isinstance(vec, dict) else any(rest))
        assert sp.reduce(vec) == rest
        assert sp.contains_vector(vec) == inside
    for i in range(n):
        e = [F.zero()] * n
        e[i] = F.one()
        rest = pivot_reduce(F, sp.basis, sp.pivots, e)[0]
        assert unit_residue(sp, i) == tuple(
            v for j, v in enumerate(rest) if j not in sp.pivots)


@given(row_forms(), st.data())
@form_examples(None)
def test_subspace_methods_match_dense_oracles(case, data):
    m, rows = case
    F, n = m.field, m.cols
    sp = Subspace.from_vectors(F, n, rows)
    want = oracle_span(F, n, m.entries)
    assert_canonical(sp)
    assert sp == want and hash(sp) == hash(want)
    assert sp.rows == want.rows and sp.pivots == want.pivots
    assert sp.dim == len(want.rows)
    # the constructor takes the canonical rows dense or as dicts
    assert Subspace(F, n, sp.rows, sp.pivots) == sp
    assert Subspace(F, n, sp.basis, sp.pivots) == sp
    assert Subspace.zero(F, n) == oracle_span(F, n, [])
    assert Subspace.full(F, n) == oracle_span(
        F, n, Matrix.identity(F, n).entries)
    assert Subspace.full(F, n).rows == Matrix.identity(F, n).entries
    probes = [list(r) for r in m.entries] + (
        vectors(data.draw, F, n) if data is not None else [])
    for vec in probes:
        rest, coeffs = dense_reduce(F, want.rows, want.pivots, vec)
        assert sp.reduce(vec) == rest
        assert pivot_reduce(F, sp.basis, sp.pivots, vec) == (rest, coeffs)
        assert pivot_reduce(F, sp.rows, sp.pivots, vec) == (rest, coeffs)
        inside = not any(e != F.zero() for e in rest)
        assert sp.contains_vector(vec) == inside
    units = old_complement_matrix(F, n, want)
    assert unit_residues(sp) == list(units.entries)


@given(row_forms())
@form_examples()
def test_nullspace_kernel_image_match_augmented_oracles(case):
    m, rows = case
    F = m.field
    assert nullspace(F, rows, m.cols) == oracle_kernel(m.transpose())
    assert kernel(m) == oracle_kernel(m)
    assert image(m) == oracle_span(F, m.cols, m.entries)


@st.composite
def subspace_pairs_over_all_fields(draw, max_dim=6):
    f = draw(st.sampled_from(ALL_FIELDS))
    n = draw(st.integers(0, max_dim))
    return tuple(oracle_span(f, n, draw(sparse_rows(
        f, draw(st.integers(0, max_dim)), n))) for _ in range(2))


@given(subspace_pairs_over_all_fields())
def test_sum_intersection_containment_match_dense_oracles(pair):
    a, b = pair
    F, n = a.field, a.ambient
    total = oracle_span(F, n, list(a.rows) + list(b.rows))
    assert subspace_sum(a, b) == total
    assert subspace_intersect(a, b) == oracle_intersect(a, b)
    assert_canonical(subspace_intersect(a, b))
    assert subspace_contains(a, b) == (total == a)
    assert subspace_contains(total, a) and subspace_contains(total, b)


@given(row_forms(), st.data())
@form_examples(None)
def test_solve_matches_augmented_solve_over_all_fields(case, data):
    m, _ = case
    F = m.field
    if data is None:
        b = [F.zero()] * m.cols
    else:
        b = data.draw(sparse_rows(F, 1, m.cols))[0]
    got, want = solve(m, b), oracle_solve(m, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert apply_row(F, got, m) == list(b)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_full_complement_asks_no_condition(field):
    # the complement of all of K^n is the projection onto nothing
    full = Subspace.full(field, 3)
    assert unit_residues(full) == [()] * 3
    assert preimage_subspace(Matrix.identity(field, 3), full) == full
    # handed to _vanishing_spaces as rows, each class empty, it watches
    # nothing at that degree
    from gradedsupport.constructions import regular_module, \
        truncated_polynomial
    m = regular_module(truncated_polynomial(3, field=field))
    dims = {t: m.component(t).dim for t in m.degrees()}
    evals = {t: [{}] * n for t, n in dims.items()}
    assert _vanishing_spaces(m, evals, dict.fromkeys(dims, evals)) == {
        d: Subspace.full(field, n) for d, n in dims.items()}


QUIVERS_TO_NINE = [
    (1, [(0, 0), (0, 0)], [[(1, (1, 0))]]),
    (2, [(0, 1), (1, 0)], [[(1, (0, 1))]]),
    (1, [(0, 0), (0, 0)], [[(1, (0, 1)), (-1, (1, 0))]]),
]


@pytest.mark.parametrize("field,top", [(GF(2), 9), (GF(3), 9), (GF(101), 9),
                                       (QQ, 8)], ids=repr)
@pytest.mark.parametrize("quiver", QUIVERS_TO_NINE)
def test_quiver_tables_match_dense_ideal_at_high_tops(quiver, field, top):
    a = quiver_algebra(*quiver, top, field)
    comps, mult = old_quiver_tables(*quiver, top, field)
    assert a.components == comps
    assert a.mult == mult


# ---------------------------------------------------------------------------
# quiver algebras built over the relation-avoiding paths


def all_paths(arrows, length):
    paths = [(a,) for a in range(len(arrows))]
    for _ in range(length - 1):
        paths = [p + (a,) for p in paths for a in range(len(arrows))
                 if arrows[a][0] == arrows[p[-1]][1]]
    return paths


BAD_TERMS = ["index", "negative", "composable", "length", "short", "empty"]


@st.composite
def random_quivers(draw):
    """A quiver on 1-3 vertices and relation blocks that are monomial,
    multi-term or cancel to zero, sometimes with one malformed relation.
    The top is lowered until the dense oracle lists at most 150 paths."""
    nv = draw(st.integers(1, 3))
    vertex = st.integers(0, nv - 1)
    arrows = draw(st.lists(st.tuples(vertex, vertex), min_size=2, max_size=4))
    top = draw(st.integers(0, 8))
    while top and sum(len(all_paths(arrows, m))
                      for m in range(1, top + 1)) > 150:
        top -= 1
    coeff = st.integers(-3, 3)
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        words = all_paths(arrows, draw(st.integers(2, max(2, min(top, 4)))))
        if not words:
            continue
        # terms that share their endpoints stay in one block
        ends = sorted({(arrows[w[0]][0], arrows[w[-1]][1]) for w in words})
        end = draw(st.sampled_from(ends))
        block = [w for w in words
                 if (arrows[w[0]][0], arrows[w[-1]][1]) == end]
        pool = words if len(block) < 2 or draw(st.booleans()) else block
        word = st.sampled_from(pool)
        kind = draw(st.sampled_from(["monomial", "multi", "multi",
                                     "zero-sum"]))
        if kind == "monomial":
            relations.append([(draw(st.sampled_from([-2, -1, 1, 2, 3])),
                               draw(word))])
        elif kind == "multi":
            relations.append([(draw(coeff), w) for w in draw(st.lists(
                word, min_size=min(2, len(pool)), max_size=4, unique=True))])
        else:
            p, c = draw(word), draw(coeff)
            relations.append([(c, p), (-c, p)]
                             + draw(st.lists(st.tuples(coeff, word),
                                             max_size=1)))
    bad = draw(st.sampled_from([None] * 4 + BAD_TERMS))
    if bad is not None:
        nonpath = [(a, b) for a in range(len(arrows))
                   for b in range(len(arrows)) if arrows[a][1] != arrows[b][0]]
        term = {"index": (0, len(arrows)), "negative": (-1, 0),
                "composable": nonpath[0] if nonpath else (0, len(arrows)),
                "short": (0,)}.get(bad)
        if bad == "empty":
            relations.append([])
        elif bad == "length":
            relations.append([(1, p) for p in all_paths(arrows, 2)[:1]]
                             + [(1, (0,) * 3)])
        else:
            relations.append([(1, term)])
    return nv, arrows, relations, top


def outcome(build, *args):
    try:
        return build(*args)
    except Exception as e:  # the exception type is compared
        return type(e)


@given(random_quivers(), st.sampled_from(ALL_FIELDS))
@example((1, [(0, 0), (0, 0)], [[(1, (0, 1)), (-1, (1, 0))],
                                [(1, (0, 0, 0))]], 6), GF(2))
@example((2, [(0, 1), (0, 1), (1, 0), (1, 1)],
          [[(1, (0, 2)), (1, (1, 2)), (1, (0, 3))], [(2, (2, 0)), (1, (2, 0))],
           [(1, (3, 3))]], 5), GF(3))
@example((2, [(0, 1), (0, 1), (1, 0)], [[(1, (0, 2)), (1, (2, 1))]], 4), QQ)
def test_quiver_algebra_matches_the_all_paths_construction(quiver, field):
    got = outcome(quiver_algebra, *quiver, field)
    want = outcome(old_quiver_tables, *quiver, field)
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        assert (got.components, got.mult) == want


# ---------------------------------------------------------------------------
# integral rationals as ints, against Fraction-only arithmetic


class FractionField(RationalField):
    """Q as it was before integral values became ints: every value a
    Fraction, and no result turned back into an int."""

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

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    # elimination with the unit-pivot steps of gauss_jordan_forward

    def _gj_row(self, r):
        return {j: v for j, v in _entries(r) if v}

    def _gj_clear(self, row, src, col):
        _axpy(self, row, row.pop(col), src, col)
        return row

    def _gj_pivot(self, row, col):
        c = row[col]
        if c == self.one():
            return row
        inv = self.inv(c)
        return {j: self.mul(inv, v) for j, v in row.items()}

    def _gj_basis(self, basis):
        return basis


FRACTIONS = FractionField()


def mixed_rationals():
    """Zero, ints, integral Fractions and Fractions that are not."""
    nums, dens = st.integers(-6, 6), st.integers(1, 4)
    return st.one_of(st.just(0), nums,
                     st.builds(lambda n, d: Fraction(n * d, d), nums, dens),
                     st.builds(Fraction, nums, dens))


def int_when_integral(values):
    """Every value is an int or a Fraction that is not integral."""
    return all(type(v) is int or v.denominator != 1 for v in values)


def _nz_values(rows):
    return [v for r in rows for v in r.values()]


@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_elimination_over_int_rationals_matches_fraction_only(nrows, ncols,
                                                              data):
    entries = st.lists(mixed_rationals(), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(entries, min_size=nrows, max_size=nrows))
    b = data.draw(entries)
    as_fractions = [[Fraction(e) for e in r] for r in rows]
    want = (rref(FRACTIONS, as_fractions, ncols),
            nullspace(FRACTIONS, as_fractions, ncols),
            solve(Matrix(FRACTIONS, nrows, ncols, as_fractions),
                  [Fraction(e) for e in b]))
    # as given, and as the library's own values, integral ones as ints
    for given_rows, rhs in ((rows, b),
                            ([[integral(e) for e in r] for r in rows],
                             [integral(e) for e in b])):
        got = (rref(QQ, given_rows, ncols), nullspace(QQ, given_rows, ncols),
               solve(Matrix(QQ, nrows, ncols, given_rows), rhs))
        assert got == want
    # from the library's own values, every computed value is one too
    red, space, x = got
    assert int_when_integral([v for r in red[0] for v in r])
    assert int_when_integral(_nz_values(space.basis))
    assert int_when_integral(x or [])


@st.composite
def hom_recipes(draw):
    """Two modules as a function of the field: presented modules over
    K[x]/(x^k) or the two-loop quiver, with relations mixing ints and
    Fractions, or seeded random category modules."""
    kind = draw(st.sampled_from(["poly", "loops", "category"]))
    top = draw(st.integers(1, 4))
    if kind == "category":
        n, shift = draw(st.integers(2, 3)), draw(st.integers(0, 2))
        seeds = [draw(st.integers(0, 2 ** 31)) for _ in range(2)]

        def build(field):
            a = truncated_polynomial(2 * n + 2, 1, window=(0, 2 * n + 1),
                                     field=field)
            u = DegreeSet.periodic(n, (0, 1))
            return tuple(random_category_module(a, u.translate(shift), u, x)
                         for x in seeds)
        return build

    def algebra(field):
        if kind == "poly":
            return truncated_polynomial(top + 1, 1, window=(0, top),
                                        field=field)
        return quiver_algebra(1, [(0, 0), (0, 0)], [[(1, (1, 0))]], top,
                              field)

    specs = []
    for _ in range(2):
        gens = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        free = free_module(algebra(QQ), gens)
        relations = []
        for _ in range(draw(st.integers(0, 3))):
            d = draw(st.sampled_from(free.degrees()))
            dim = free.component(d).dim
            relations.append((d, draw(st.lists(mixed_rationals(),
                                               min_size=dim, max_size=dim))))
        specs.append((gens, relations))

    def build(field):
        a = algebra(field)
        return tuple(present_module(a, g, r) for g, r in specs)
    return build


@given(hom_recipes())
def test_hom_over_int_rationals_matches_fraction_only(build):
    (m, n), (fm, fn) = build(QQ), build(FRACTIONS)
    assert modules_equal(m, fm) and modules_equal(n, fn)
    assert hom_space_dim(m, n) == hom_space_dim(fm, fn)
    got = hom_space_basis(m, n)
    assert got == hom_space_basis(fm, fn)
    assert int_when_integral(
        [v for x in (m, n) for key in x._table()
         for v in _nz_values(x._rows(*key).values())]
        + [v for f in got for mat in f.values() for v in _nz_values(mat.nz)])


@given(mixed_rationals(), mixed_rationals())
def test_field_operations_match_fraction_only(a, b):
    for op in ("add", "sub", "mul"):
        got = getattr(QQ, op)(a, b)
        assert got == getattr(FRACTIONS, op)(Fraction(a), Fraction(b))
        assert int_when_integral([got])
    assert QQ.neg(a) == -a
    if b:
        assert QQ.inv(b) == FRACTIONS.inv(Fraction(b))
        assert int_when_integral([QQ.inv(b)])


def test_int_rationals_stay_ints():
    assert type(QQ.mul(Fraction(2), Fraction(1, 2))) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(1, 2), Fraction(-3, 2))) is int
    assert QQ.inv(2) == Fraction(1, 2)
    assert (QQ.zero(), QQ.one(), QQ.from_int(-4)) == (0, 1, -4)
    assert all(type(v) is int for v in (QQ.zero(), QQ.one(), QQ.from_int(-4)))
    # a caller's scalar takes the same path
    assert [type(_coerce(QQ, c)) for c in (Fraction(4, 2), 3, Fraction(1, 2))] \
        == [int, int, Fraction]
    assert _coerce(GF(5), Fraction(7)) == 2
