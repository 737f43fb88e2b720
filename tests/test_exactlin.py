"""Exact linear algebra checked against dimension identities."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gradedsupport.errors import CapacityError, LabelError
from gradedsupport.exactlin import (
    GF,
    QQ,
    LabeledSpace,
    Matrix,
    ShapeError,
    Subspace,
    apply_row,
    image,
    kernel,
    matched_pairs,
    matched_tensor,
    rref,
    solve,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)

fields = st.sampled_from([QQ, GF(2), GF(5), GF(101)])


@st.composite
def matrices(draw, max_dim=5, field=None):
    f = field if field is not None else draw(fields)
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = [[f.from_int(draw(st.integers(-4, 4))) for _ in range(cols)]
               for _ in range(rows)]
    return Matrix.from_rows(f, entries, cols)


@st.composite
def subspace_pairs(draw):
    f = draw(fields)
    ambient = draw(st.integers(0, 5))
    def vecs():
        count = draw(st.integers(0, 4))
        return [[f.from_int(draw(st.integers(-3, 3))) for _ in range(ambient)]
                for _ in range(count)]
    return (Subspace.from_vectors(f, ambient, vecs()),
            Subspace.from_vectors(f, ambient, vecs()))


# ---------------------------------------------------------------------------
# matrices


@given(matrices())
def test_rank_plus_nullity_is_row_count(m):
    # kernel and image both live on the left: v @ m
    assert len(kernel(m).rows) + len(image(m).rows) == m.rows


@given(matrices())
def test_kernel_rows_annihilate(m):
    f = m.field
    for v in kernel(m).rows:
        out = apply_row(f, v, m)
        assert all(e == f.zero() for e in out)


@given(matrices())
def test_image_contains_every_row(m):
    im = image(m)
    for i in range(m.rows):
        assert im.contains_vector(m.row(i))


@given(matrices())
def test_solve_recovers_a_preimage(m):
    f = m.field
    coeffs = [f.from_int(i % 3 - 1) for i in range(m.rows)]
    b = apply_row(f, coeffs, m)
    x = solve(m, b)
    assert x is not None
    assert list(apply_row(f, x, m)) == list(b)


def test_solve_none_outside_image():
    f = QQ
    m = Matrix.from_rows(f, [[f.one(), f.zero()]], 2)
    assert solve(m, [f.zero(), f.one()]) is None


def test_kernel_of_zero_column_matrix_is_everything():
    m = Matrix.zero(QQ, 3, 0)
    assert kernel(m) == Subspace.full(QQ, 3)


def test_matrix_multiplication_associates():
    f = GF(7)
    a = Matrix.from_rows(f, [[f.from_int(e) for e in row]
                             for row in [[1, 2], [3, 4], [5, 6]]], 2)
    b = Matrix.from_rows(f, [[f.from_int(e) for e in row]
                             for row in [[2, 0, 1], [1, 1, 1]]], 3)
    c = Matrix.from_rows(f, [[f.from_int(e) for e in row]
                             for row in [[1], [2], [3]]], 1)
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ Matrix.identity(f, 2) == a
    assert Matrix.identity(f, 3) @ a == a


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        Matrix.identity(QQ, 2) @ Matrix.identity(QQ, 3)
    with pytest.raises(ShapeError):
        Matrix.from_rows(QQ, [[QQ.one()], [QQ.one(), QQ.one()]], 1)


def test_transpose_involution():
    f = QQ
    m = Matrix.from_rows(f, [[f.from_int(e) for e in row]
                             for row in [[1, 2, 3], [4, 5, 6]]], 3)
    assert m.transpose().transpose() == m


# ---------------------------------------------------------------------------
# rational exactness


def test_cauchy_style_matrix_has_full_rank_over_q():
    # entries 1/(i+j+1); floating point loses this rank long before 8x8
    f = QQ
    n = 8
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    m = Matrix.from_rows(f, rows, n)
    assert len(image(m).rows) == n
    assert kernel(m).rows == ()


def test_gf_rejects_composite_modulus():
    with pytest.raises(ValueError):
        GF(6)


def test_gf_instances_are_cached():
    assert GF(5) is GF(5)


def _prime_by_trial_division(p):
    return p >= 2 and all(p % k for k in range(2, int(p ** 0.5) + 1))


def test_gf_primality_matches_trial_division():
    for p in range(-3, 3000):
        if _prime_by_trial_division(p):
            assert GF(p).p == p
        else:
            with pytest.raises(ValueError):
                GF(p)


def test_gf_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError):
            GF(n)


def test_gf_settles_a_large_prime_quickly():
    start = time.perf_counter()
    assert GF(10**18 + 3).p == 10**18 + 3
    assert time.perf_counter() - start < 1.0


def test_gf_refuses_moduli_beyond_the_certified_bound():
    with pytest.raises(CapacityError):
        GF(3317044064679887385961981)


# ---------------------------------------------------------------------------
# subspaces


@given(subspace_pairs())
def test_dimension_formula_for_sum_and_intersection(pair):
    v, w = pair
    total = subspace_sum(v, w)
    meet = subspace_intersect(v, w)
    assert len(total.rows) + len(meet.rows) == len(v.rows) + len(w.rows)


@given(subspace_pairs())
def test_sum_contains_both_and_intersection_is_contained(pair):
    v, w = pair
    total = subspace_sum(v, w)
    meet = subspace_intersect(v, w)
    assert subspace_contains(total, v) and subspace_contains(total, w)
    assert subspace_contains(v, meet) and subspace_contains(w, meet)


@given(subspace_pairs())
def test_intersection_members_lie_in_both(pair):
    v, w = pair
    for row in subspace_intersect(v, w).rows:
        assert v.contains_vector(row)
        assert w.contains_vector(row)


def test_subspace_basis_is_canonical():
    f = QQ
    a = Subspace.from_vectors(f, 3, [[f.from_int(e) for e in row]
                                     for row in [[1, 2, 0], [0, 0, 1]]])
    b = Subspace.from_vectors(f, 3, [[f.from_int(e) for e in row]
                                     for row in [[2, 4, 2], [0, 0, 3],
                                                 [1, 2, 1]]])
    assert a == b


def test_coordinates_reconstruct_the_vector():
    f = GF(5)
    s = Subspace.from_vectors(f, 3, [[f.from_int(e) for e in row]
                                     for row in [[1, 2, 0], [0, 1, 1]]])
    vec = [f.from_int(3), f.from_int(2), f.from_int(1)]
    # 3*(1,2,0) + 1*(0,1,1) = (3,7,1) = (3,2,1) mod 5
    coords = s.coordinates(vec)
    assert coords is not None
    rebuilt = [f.zero()] * 3
    for c, row in zip(coords, s.rows):
        rebuilt = [f.add(r, f.mul(c, e)) for r, e in zip(rebuilt, row)]
    assert rebuilt == vec
    assert s.coordinates([f.one(), f.zero(), f.zero()]) is None


def test_rref_is_idempotent():
    f = GF(3)
    rows = [[f.from_int(e) for e in row]
            for row in [[1, 2, 0, 1], [2, 1, 1, 0], [0, 0, 2, 2]]]
    r1, p1 = rref(f, rows)
    r2, p2 = rref(f, [list(r) for r in r1])
    assert r1 == r2 and p1 == p2


# ---------------------------------------------------------------------------
# labeled spaces


def test_check_tags_bounds_components():
    space = LabeledSpace.module_component((0, 1, 1))
    space.check_tags(2)
    with pytest.raises(LabelError):
        space.check_tags(1)


def test_matched_pairs_aligns_equal_tags():
    x = LabeledSpace.module_component((0, 1))
    y = LabeledSpace.module_component((0, 0, 1))
    pairs = matched_pairs(x, y)
    assert pairs == [(0, 0), (0, 1), (1, 2)]


def test_matched_tensor_inherits_outer_tags():
    x = LabeledSpace.module_component((0, 1))
    y = LabeledSpace.module_component((0, 0, 1))
    space, pairs = matched_tensor(x, y)
    assert space.dim == len(pairs) == 3
    assert space.left_tags == tuple(x.left_tags[i] for i, _ in pairs)
    assert space.right_tags == tuple(y.right_tags[j] for _, j in pairs)
