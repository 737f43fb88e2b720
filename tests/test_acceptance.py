"""Twelve end-to-end checks, one test per criterion, budgets enforced.

Each test is self-contained: the brute-force oracles are restated here
rather than imported from the other test files, so a failure pins down the
criterion without chasing helpers.
"""

import time
from itertools import combinations

from gradedsupport.constructions import (
    group_algebra,
    n_homogeneous_dual,
    quiver_algebra,
    truncated_polynomial,
)
from gradedsupport.exactlin import GF
from gradedsupport.graded_core import (
    kill_support_algebra,
    kill_support_module,
    modules_equal,
    regrade_module,
    un_regrade_module,
    validate_algebra,
)
from gradedsupport.lifting import (
    certified_isomorphism,
    check_and_lift,
    equivalence_harness,
    koszul_pipeline,
    liftability_check,
    liftability_check_interval,
    random_category_module,
    random_killed_module,
    random_presented_module,
)
from gradedsupport.regrade_maps import delta_map, is_pseudomorphism
from gradedsupport.subsets import (
    DegreeSet,
    Zn,
    enumerate_ring_supporting,
    is_translation_of_interval,
    same_set,
    stabilizer,
)
from test_subsets_oracles import intersect_by_points

U3 = DegreeSet.periodic(3, (0, 1))


# oracles, straight from the definitions


def ring_supporting_by_scan(n, J):
    for a in J:
        for b in J:
            for c in J:
                if (a + b + c) % n not in J:
                    continue
                if ((a + b) % n in J) != ((b + c) % n in J):
                    return False
    return True


def trivial_stabilizer(n, J):
    return all(any((d + j) % n not in J for j in J) for d in range(1, n))


def subsets_containing_zero(n):
    others = list(range(1, n))
    for k in range(n):
        for rest in combinations(others, k):
            yield frozenset((0,) + rest)


def cyclic_run(n, J):
    """Whether J is a set of consecutive residues mod n, possibly wrapped."""
    if len(J) == n:
        return True
    return any(all((a + i) % n in J for i in range(len(J))) for a in J)


def normal_interval_form(n, J):
    """(orientation, r) when J is an end-anchored run with 2r < n."""
    r = len(J) - 1
    if 2 * r >= n:
        return None
    if J == frozenset(range(r + 1)):
        return ("right", r)
    if J == frozenset({0} | set(range(n - r, n))):
        return ("left", r)
    return None


def sorted_members(u, lo, hi):
    return list(u.members_in(lo, hi))


GOLDEN = {
    1: [[0]],
    2: [[0]],
    3: [[0], [0, 1], [0, 2]],
    4: [[0], [0, 1], [0, 3]],
    5: [[0], [0, 1], [0, 2], [0, 3], [0, 4],
        [0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 3, 4]],
}


def test_criterion_01_enumeration_golden_table():
    start = time.monotonic()
    for n, want in GOLDEN.items():
        got = [sorted(j) for j in enumerate_ring_supporting(n)]
        assert got == want
    assert [len(enumerate_ring_supporting(n)) for n in range(1, 6)] \
        == [1, 1, 3, 3, 9]
    assert time.monotonic() - start < 1.0


def test_criterion_02_enumerator_matches_brute_force():
    start = time.monotonic()
    for n in range(1, 13):
        brute = sorted(
            (sorted(J) for J in subsets_containing_zero(n)
             if ring_supporting_by_scan(n, J) and trivial_stabilizer(n, J)),
            key=lambda j: (len(j), j))
        got = [sorted(j) for j in enumerate_ring_supporting(n)]
        assert got == brute
    assert time.monotonic() - start < 30.0


def test_criterion_03_killing_group_algebras_matches_the_scan():
    start = time.monotonic()
    for n in range(1, 9):
        a = group_algebra(n)
        for J in subsets_containing_zero(n):
            u = DegreeSet.periodic(n, J, Zn(n))
            killed = kill_support_algebra(a, u)
            assert validate_algebra(killed).holds \
                == ring_supporting_by_scan(n, J)
    assert time.monotonic() - start < 60.0


def test_criterion_04_stabilizer_is_the_symmetric_part():
    for n in range(1, 13):
        for J in enumerate_ring_supporting(n):
            u = DegreeSet.periodic(n, J)
            assert same_set(stabilizer(u),
                            intersect_by_points(u, u.negate()))
            assert same_set(stabilizer(u), DegreeSet.periodic(n, (0,)))


def test_criterion_05_interval_translation_three_way_agreement():
    for n in range(2, 13):
        for J in subsets_containing_zero(n):
            if not trivial_stabilizer(n, J):
                continue
            u = DegreeSet.periodic(n, J)
            direct = ring_supporting_by_scan(n, J) and cyclic_run(n, J)
            normal = normal_interval_form(n, J)
            detected = is_translation_of_interval(u)
            assert direct == (normal is not None) == (detected is not None)
            if normal is not None:
                assert (detected.orientation, detected.n, detected.r) \
                    == (normal[0], n, normal[1])


def test_criterion_06_delta_is_a_pseudomorphism_with_the_residue_formula():
    for n in range(2, 13):
        for r in range(0, (n + 1) // 2):
            if 2 * r >= n:
                continue
            for residues in ({j for j in range(r + 1)},
                             {0} | {n - j for j in range(1, r + 1)}):
                u = DegreeSet.periodic(n, residues)
                phi = delta_map(u, 0, (-50, 50))
                assert is_pseudomorphism(phi).holds
                # the enumeration in sorted order, anchored at 0
                pad = 50 * n + n
                members = sorted_members(u, -pad, pad)
                zero = members.index(0)
                assert all(phi(k) == members[zero + k]
                           for k in range(-50, 51))
                # closed form: sigma = tj + k goes to nj + i_k
                t = r + 1
                i = sorted(residues)
                for sigma in range(-50, 51):
                    j, k = divmod(sigma, t)
                    assert phi(sigma) == n * j + i[k]


def test_criterion_07_liftability_criteria_agree_on_three_algebras():
    start = time.monotonic()
    field = GF(101)
    algebras = [
        truncated_polynomial(8, 1, window=(0, 7), field=field),
        quiver_algebra(1, [(0, 0), (0, 0)], [[(1, (1, 0))]], 7, field),
        quiver_algebra(2, [(0, 1), (0, 1), (1, 0)], [], 7, field),
    ]
    verdicts = set()
    total = 0
    for a in algebras:
        b = kill_support_algebra(a, U3)
        for seed in range(35):
            x = random_killed_module(b, U3, U3, seed)
            general = liftability_check(x, U3, U3, a)
            interval = liftability_check_interval(x, U3, U3, a)
            assert general.liftable == interval.liftable
            verdicts.add(general.liftable)
            total += 1
    assert total >= 100
    assert verdicts == {True, False}   # both branches exercised
    assert time.monotonic() - start < 300.0


def test_criterion_08_round_trip_lifting_is_certified():
    total = 0
    for n in (3, 4, 5):
        un = DegreeSet.periodic(n, (0, 1))
        a = truncated_polynomial(2 * n + 2, 1, window=(0, 2 * n + 1))
        b = kill_support_algebra(a, un)
        for seed in range(17):
            m = random_category_module(a, un, un, seed)
            ms = kill_support_module(m, un, un, b)
            report = check_and_lift(ms, un, un, a)
            assert report.liftable
            assert report.isomorphism_certified
            assert certified_isomorphism(report.lift, m) is not None
            total += 1
    assert total >= 50


def test_criterion_09_hom_dimensions_survive_killing():
    a = truncated_polynomial(8, 1, window=(0, 7))
    report = equivalence_harness(a, U3, U3, samples=20, seed=0)
    assert len(report.samples) >= 20
    for sample in report.samples:
        assert sample.hom_dim_ambient == sample.hom_dim_killed
    assert report.holds


def test_criterion_10_presented_modules_are_liftable():
    a = truncated_polynomial(8, 1, window=(0, 7))
    b = kill_support_algebra(a, U3)
    s = U3.translate(1)
    for seed in range(15):
        x = random_presented_module(b, U3, U3, seed)
        assert liftability_check(x, U3, U3, a).liftable
    for seed in range(15):
        x = random_presented_module(b, s, U3, seed)
        assert liftability_check(x, s, U3, a).liftable


def test_criterion_11_regrade_round_trip_and_vanishing():
    a = truncated_polynomial(8, 1, window=(0, 7))
    b = kill_support_algebra(a, U3)
    phi = delta_map(U3, 0, (0, 5))
    for seed in range(12):
        x = random_killed_module(b, U3, U3, seed)
        assert modules_equal(un_regrade_module(regrade_module(x, phi), phi),
                             x)
    for n, top in ((3, 6), (4, 8), (5, 10)):
        dual = n_homogeneous_dual(1, [[(1, (0,) * n)]], top)
        _, _, report = koszul_pipeline(dual, n)
        for _sigma, _tau, ok in report.vanishing_pairs:
            assert ok


def test_criterion_12_koszul_pipeline_smoke():
    start = time.monotonic()
    lam_dual = n_homogeneous_dual(1, [[(1, (0, 0, 0))]], 6)
    regraded, even, report = koszul_pipeline(lam_dual, 3)
    assert report.regraded_dims == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert report.regraded_window == (0, 4)
    # the preimage is certified on the regraded window, where it is 2Z
    lo, hi = report.regraded_window
    assert list(even.members_in(lo, hi)) \
        == list(DegreeSet.periodic(2, (0,)).members_in(lo, hi))
    assert report.even_preimage_members == (0, 2, 4)
    assert all(ok for _s, ok, _w in report.conditions)
    assert report.holds
    assert time.monotonic() - start < 5.0
