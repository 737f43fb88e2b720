"""Builders for the concrete algebras and modules used everywhere else."""

import itertools
import time

import pytest

from gradedsupport.constructions import (
    free_module,
    generic_pair_algebra,
    group_algebra,
    n_homogeneous_dual,
    present_module,
    projective_layout,
    projective_module,
    quiver_algebra,
    regular_module,
    truncated_polynomial,
    zero_sum_pair_algebra,
)
from gradedsupport.errors import PreconditionError
from gradedsupport.exactlin import GF, Matrix, QQ, Subspace, kernel
from gradedsupport.graded_core import (
    algebras_equal,
    is_generated_in_degrees_01,
    modules_equal,
    validate_algebra,
    validate_module,
)


def dims_of(a):
    return {d: c.dim for d, c in a.components.items()}


# ---------------------------------------------------------------------------
# every builder output validates


def test_all_builders_validate():
    built = [
        group_algebra(6),
        group_algebra(4, field=GF(3)),
        truncated_polynomial(5),
        truncated_polynomial(2, 3),
        zero_sum_pair_algebra(2),
        generic_pair_algebra(1, 2),
        quiver_algebra(2, [(0, 1), (1, 0)], [], 4),
        quiver_algebra(1, [(0, 0), (0, 0)], [[(1, (1, 0))]], 4),
        n_homogeneous_dual(1, [[(1, (0, 0, 0))]], 6),
        n_homogeneous_dual(2, [[(1, (0, 1)), (-1, (1, 0))]], 3),
    ]
    for a in built:
        assert validate_algebra(a).holds


# ---------------------------------------------------------------------------
# group algebras and truncated polynomials


def test_group_algebra_shape():
    a = group_algebra(5)
    assert dims_of(a) == {d: 1 for d in range(5)}
    for g, h in itertools.product(range(5), repeat=2):
        assert a.mult_matrix(g, h) is not None


def test_truncated_polynomial_dimensions():
    a = truncated_polynomial(3)
    assert dims_of(a) == {0: 1, 1: 1, 2: 1}
    assert a.mult_matrix(1, 1) is not None
    assert a.mult_matrix(1, 2) is None   # x * x^2 = 0


def test_truncated_polynomial_spread_generator():
    a = truncated_polynomial(2, 3)
    assert dims_of(a) == {0: 1, 3: 1}
    assert a.window == (0, 3)
    assert not is_generated_in_degrees_01(a)


def test_truncated_polynomial_wider_window():
    a = truncated_polynomial(3, 1, window=(0, 5))
    assert a.window == (0, 5)
    assert dims_of(a) == {0: 1, 1: 1, 2: 1}
    assert validate_algebra(a).holds


# ---------------------------------------------------------------------------
# the two-variable pair witnesses


def test_zero_sum_pair_shape():
    b = zero_sum_pair_algebra(2)
    assert dims_of(b) == {-2: 1, 0: 2, 2: 1}
    assert b.mult_matrix(2, -2) is not None       # x then y lands in degree 0
    assert b.mult_matrix(-2, 2) is None           # y x = 0


def test_generic_pair_shape():
    b = generic_pair_algebra(1, 2)
    assert dims_of(b) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert b.mult_matrix(1, 2) is not None        # B_g B_h != 0
    assert b.mult_matrix(2, 1) is None            # y x = 0
    assert b.mult_matrix(1, 1) is None            # x^2 = 0


# ---------------------------------------------------------------------------
# quiver algebras


def test_one_loop_quiver_is_the_truncated_polynomial():
    q = quiver_algebra(1, [(0, 0)], [[(1, (0, 0, 0))]], 2)
    assert algebras_equal(q, truncated_polynomial(3))


def test_two_vertices_one_arrow():
    q = quiver_algebra(2, [(0, 1)], [], 3)
    assert dims_of(q) == {0: 2, 1: 1}


def test_parallel_arrows_die_in_degree_two():
    q = quiver_algebra(2, [(0, 1), (0, 1)], [], 2)
    assert dims_of(q) == {0: 2, 1: 2}
    assert q.mult_matrix(1, 1) is None


def test_two_loops_with_one_monomial_relation():
    q = quiver_algebra(1, [(0, 0), (0, 0)], [[(1, (1, 0))]], 3)
    # words in x, y avoiding the factor yx: x^a y^b
    assert dims_of(q) == {0: 1, 1: 2, 2: 3, 3: 4}
    assert is_generated_in_degrees_01(q)


def test_quiver_rejects_dangling_arrows():
    with pytest.raises(PreconditionError):
        quiver_algebra(1, [(0, 1)], [], 2)


# ---------------------------------------------------------------------------
# the degreewise dual


def test_dual_of_truncated_polynomial_is_polynomial_like():
    # relation space span{x^(x)n} in a 1-dim tensor component has zero perp
    for n in (2, 3, 4):
        rel = [[(1, (0,) * n)]]
        a = n_homogeneous_dual(1, rel, 6)
        assert dims_of(a) == {d: 1 for d in range(7)}


def test_dual_with_no_relations_kills_degree_n():
    a = n_homogeneous_dual(1, [], 4, degree=2)
    assert dims_of(a) == {0: 1, 1: 1}


def test_dual_of_commutativity_relation_is_alternating():
    # perp of span{xy - yx} inside the 4-dim tensor square has dimension 3
    f = QQ
    pairing = Matrix.from_rows(
        f, [[f.zero(), f.one(), f.neg(f.one()), f.zero()]], 4)
    assert len(kernel(pairing.transpose()).rows) == 3
    # so the dual quotient in degree 2 is one-dimensional
    a = n_homogeneous_dual(2, [[(1, (0, 1)), (-1, (1, 0))]], 4)
    assert dims_of(a) == {0: 1, 1: 2, 2: 1}


def test_dual_accepts_subspace_relations():
    f = QQ
    rel = Subspace.from_vectors(
        f, 4, [[f.zero(), f.one(), f.neg(f.one()), f.zero()]])
    a = n_homogeneous_dual(2, rel, 3)
    b = n_homogeneous_dual(2, [[(1, (0, 1)), (-1, (1, 0))]], 3)
    assert algebras_equal(a, b)


def test_dual_applied_twice_recovers_low_dimensions():
    cases = [
        (1, [[(1, (0, 0, 0))]], 3),
        (2, [[(1, (0, 1)), (-1, (1, 0))]], 2),
        (2, [[(1, (0, 0))], [(1, (1, 1))]], 2),
    ]
    for v_dim, rel, n in cases:
        top = 2 * n
        a = n_homogeneous_dual(v_dim, rel, top)
        # dualize back: use the degree-n component relations of the dual
        dual_rel = _degree_n_relations(v_dim, rel, n)
        b = n_homogeneous_dual(v_dim, dual_rel, top, degree=n)
        original = _tensor_quotient_dims(v_dim, rel, n, top)
        got = {d: dims_of(b).get(d, 0) for d in range(n)}
        assert got == {d: original.get(d, 0) for d in range(n)}


def _degree_n_relations(v_dim, rel, n):
    """The perp of the given relations, as path-term lists."""
    f = QQ
    words = list(itertools.product(range(v_dim), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for r in rel:
        vec = [f.zero()] * len(words)
        for coeff, path in r:
            vec[index[tuple(path)]] = f.add(vec[index[tuple(path)]],
                                            f.from_int(coeff))
        rows.append(vec)
    perp = kernel(Matrix.from_rows(f, rows, len(words)).transpose())
    return [[(c, words[i]) for i, c in enumerate(row) if c != f.zero()]
            for row in perp.rows]


def _tensor_quotient_dims(v_dim, rel, n, top):
    a = quiver_algebra(1, [(0, 0)] * v_dim, rel, top)
    return dims_of(a)


def test_dual_window_must_hold_the_relations():
    with pytest.raises(PreconditionError):
        n_homogeneous_dual(1, [[(1, (0, 0))]], 1)


def test_dual_needs_a_degree_without_relations():
    with pytest.raises(PreconditionError):
        n_homogeneous_dual(2, [], 4)


# ---------------------------------------------------------------------------
# module builders


def test_regular_module_mirrors_the_algebra():
    a = truncated_polynomial(4)
    m = regular_module(a)
    assert validate_module(m).holds
    assert {d: c.dim for d, c in m.components.items()} == dims_of(a)
    for (g, h), mat in m.action.items():
        assert mat == a.mult_matrix(g, h)


def test_free_module_stacks_shifted_copies():
    a = truncated_polynomial(3)
    m = free_module(a, [0, 1])
    assert validate_module(m).holds
    expected = {}
    for g in (0, 1):
        for d, c in a.components.items():
            expected[d + g] = expected.get(d + g, 0) + c.dim
    got = {d: c.dim for d, c in m.components.items()}
    assert got == {d: v for d, v in expected.items() if m.window[0] <= d <= m.window[1]}


def test_projective_module_on_unit_tags_is_regular():
    a = truncated_polynomial(4)
    p = projective_module(a, [(0, 0)])
    assert modules_equal(p, regular_module(a))


def test_projective_layout_blocks_partition_the_components():
    a = quiver_algebra(2, [(0, 1), (1, 0)], [], 4)
    gens = [(0, 0), (1, 1)]
    window, comps, layout = projective_layout(a, gens)
    p = projective_module(a, gens, window)
    assert validate_module(p).holds
    for t, blocks in layout.items():
        total = sum(len(positions) for _, _, _, positions in blocks)
        assert total == comps[t].dim == p.component(t).dim
        starts = [start for _, _, start, _ in blocks]
        assert starts == sorted(starts)


def test_present_module_quotients_by_generated_relations():
    a = truncated_polynomial(4)
    f = a.field
    m = present_module(a, [0], [(2, [f.one()])])
    assert validate_module(m).holds
    assert {d: c.dim for d, c in m.components.items()} == {0: 1, 1: 1}


def test_present_module_rejects_bad_relation_length():
    a = truncated_polynomial(4)
    f = a.field
    with pytest.raises(PreconditionError):
        present_module(a, [0], [(2, [f.one(), f.one()])])


def test_path_cap_counts_paths_before_building_any():
    from gradedsupport.constructions import (MAP_WEIGHT, PATH_CAP, TABLE_CAP,
                                             _avoiding_paths)
    from gradedsupport.errors import CapacityError
    loops = [(0, 0), (0, 0)]
    # the free two-loop quiver at top 16 has 2^17 - 1 paths: just under the
    # cap, which n_homogeneous_dual's word listing keeps
    assert 2 ** 17 - 1 <= PATH_CAP < 2 ** 18 - 1
    # degree-16 words are listed, and the second relation is refused for
    # its degree; degree-17 words are refused before any is listed
    x16 = [(1, (0,) * 16)]
    with pytest.raises(PreconditionError, match="share one degree"):
        n_homogeneous_dual(2, [x16, [(1, (0, 1))]], 16)
    with pytest.raises(CapacityError, match="262143 paths up to degree 17"):
        n_homogeneous_dual(2, [[(1, (0,) * 17)]], 17)
    # the harness algebra (yx = 0) has the t + 1 avoiding paths x^a y^b in
    # degree t, and its mult table sum over t <= top of (t + 1) C(t + 3, 3)
    # entries: 3,973,802 at top 39, 4,479,783 at top 40; each of the
    # (top + 1)(top + 2) / 2 maps weighs MAP_WEIGHT entries more
    assert 3973802 + MAP_WEIGHT * 820 <= TABLE_CAP < 4479783
    paths = _avoiding_paths(1, loops, {(1, 0)}, 39)
    assert [len(paths[m]) for m in (1, 2, 39)] == [2, 3, 40]
    assert paths[2] == [(0, 0), (0, 1), (1, 1)]
    with pytest.raises(CapacityError, match="over the cap of"):
        _avoiding_paths(1, loops, {(1, 0)}, 40)
    with pytest.raises(CapacityError, match="mult table entries"):
        quiver_algebra(1, loops, [[(1, (1, 0))]], 10 ** 9)
    # a level of paths is cut off at the path cap while it is listed
    with pytest.raises(CapacityError, match="relation-avoiding paths"):
        _avoiding_paths(2, [(0, 1)] * 600 + [(1, 0)] * 600, set(), 2)


def test_table_cap_weighs_every_map_before_building_any():
    from gradedsupport.constructions import MAP_WEIGHT, TABLE_CAP
    from gradedsupport.errors import CapacityError
    # K[x] has (t + 1)(t + 2) / 2 maps of one entry up to top t, K[Z/n] has
    # n^2: the entries alone stay far below the cap
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="over the cap of"):
        quiver_algebra(1, [(0, 0)], [], 3000)
    with pytest.raises(CapacityError, match="maps"):
        group_algebra(100000)
    with pytest.raises(CapacityError, match="maps"):
        truncated_polynomial(100000)
    assert time.perf_counter() - start < 1
    # the first refused sizes: top 358, n = 255, nilpotency 359
    assert (MAP_WEIGHT + 1) * 358 * 359 // 2 <= TABLE_CAP
    assert (MAP_WEIGHT + 1) * 359 * 360 // 2 > TABLE_CAP
    assert (MAP_WEIGHT + 1) * 254 ** 2 <= TABLE_CAP \
        < (MAP_WEIGHT + 1) * 255 ** 2
    with pytest.raises(CapacityError):
        group_algebra(255)
    with pytest.raises(CapacityError):
        truncated_polynomial(359)


def test_acyclic_quiver_stops_at_its_longest_path():
    # paths end at length 2 however high the window reaches
    a = quiver_algebra(3, [(0, 1), (1, 2)], [], 10 ** 9, GF(3))
    assert a.window == (0, 10 ** 9)
    assert sorted(a.components) == [0, 1, 2]
    b = quiver_algebra(3, [(0, 1), (1, 2)], [], 2, GF(3))
    assert a.components == b.components and a.mult == b.mult


def test_dual_refuses_its_words_before_listing_them():
    from gradedsupport.errors import CapacityError
    long_word = [[(1, (0,) * 22)]]
    # 2^22 words of degree 22: the two-loop quiver is over the path cap
    with pytest.raises(CapacityError):
        n_homogeneous_dual(2, long_word, 22)
    # a window below the relation degree is refused before any word too
    with pytest.raises(PreconditionError, match="cannot hold"):
        n_homogeneous_dual(2, long_word, 3)
    with pytest.raises(CapacityError):
        n_homogeneous_dual(10 ** 12, [[(1, (0, 0))]], 2)
