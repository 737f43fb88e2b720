"""Degree subset predicates checked against definitional triple scans."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from gradedsupport import subsets
from gradedsupport.errors import CapacityError, PreconditionError
from gradedsupport.serialize import degree_set_to_json
from gradedsupport.subsets import (
    DegreeSet,
    IntervalTranslation,
    Z,
    Zn,
    enumerate_ring_supporting,
    is_left_modular,
    is_right_modular,
    is_right_premodular,
    is_ring_supporting,
    is_translation_of_interval,
    quotient_set,
    reduce_mod_stabilizer,
    same_set,
    stabilizer,
    structure_decompose,
)


# ---------------------------------------------------------------------------
# oracles, straight from the definitions


def as_stored(s):
    """A degree set with its form, which == leaves out."""
    return s, getattr(s, "form", None)


def ring_supporting_by_scan(n, residues):
    """Triple scan of the defining condition over one full period."""
    members = set(r % n for r in residues)
    if 0 not in members:
        return False
    for a, b, c in itertools.product(members, repeat=3):
        if (a + b + c) % n in members:
            if ((a + b) % n in members) != ((b + c) % n in members):
                return False
    return True


def right_premodular_by_scan(n, s_res, u_res):
    s_members = set(r % n for r in s_res)
    u_members = set(r % n for r in u_res)
    for s, u, v in itertools.product(s_members, u_members, u_members):
        if (s + u + v) % n in s_members:
            if ((s + u) % n in s_members) != ((u + v) % n in u_members):
                return False
    return True


def exact_period(n, residues):
    """True when no proper translate fixes the set, i.e. (U:U) = nZ."""
    members = set(r % n for r in residues)
    for g in range(1, n):
        if {(r + g) % n for r in members} == members:
            return False
    return True


def brute_force_ring_supporting(n):
    out = []
    for mask in range(2 ** (n - 1)):
        residues = {0} | {i for i in range(1, n) if mask >> (i - 1) & 1}
        if ring_supporting_by_scan(n, residues) and exact_period(n, residues):
            out.append(frozenset(residues))
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


residue_sets = st.builds(
    lambda n, extra: (n, frozenset({0}) | frozenset(e % n for e in extra)),
    st.integers(1, 10),
    st.frozensets(st.integers(0, 9), max_size=6),
)


# ---------------------------------------------------------------------------
# enumeration


GOLDEN = {
    1: [{0}],
    2: [{0}],
    3: [{0}, {0, 1}, {0, 2}],
    4: [{0}, {0, 1}, {0, 3}],
    5: [{0}, {0, 1}, {0, 2}, {0, 3}, {0, 4},
        {0, 1, 2}, {0, 1, 3}, {0, 2, 4}, {0, 3, 4}],
}


def test_enumeration_golden_counts_and_sets():
    for n, expected in GOLDEN.items():
        got = enumerate_ring_supporting(n)
        assert [set(s) for s in got] == expected


def test_enumeration_matches_brute_force():
    for n in range(1, 9):
        assert enumerate_ring_supporting(n) == brute_force_ring_supporting(n)


def test_enumeration_capacity_cap():
    with pytest.raises(CapacityError):
        enumerate_ring_supporting(17)


def test_enumeration_order_is_by_size_then_lexicographic():
    for n in (5, 7):
        keys = [(len(s), tuple(sorted(s))) for s in enumerate_ring_supporting(n)]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# the predicate itself


@given(residue_sets)
def test_ring_supporting_agrees_with_scan(nr):
    n, residues = nr
    u = DegreeSet.periodic(n, tuple(sorted(residues)), Z)
    verdict = is_ring_supporting(u)
    assert verdict.holds == ring_supporting_by_scan(n, residues)


@given(residue_sets)
def test_ring_supporting_witness_is_a_counterexample(nr):
    n, residues = nr
    u = DegreeSet.periodic(n, tuple(sorted(residues)), Z)
    verdict = is_ring_supporting(u)
    if verdict.holds:
        assert verdict.witness is None
    else:
        a, b, c = verdict.witness
        assert u.contains(a) and u.contains(b) and u.contains(c)
        assert u.contains(a + b + c)
        assert u.contains(a + b) != u.contains(b + c)


def test_ring_supporting_known_negative():
    j = DegreeSet.periodic(4, (0, 1, 2), Z)
    verdict = is_ring_supporting(j)
    assert not verdict.holds
    assert verdict.witness == (1, 1, 2)


@given(residue_sets)
def test_ring_supporting_negation_duality(nr):
    n, residues = nr
    u = DegreeSet.periodic(n, tuple(sorted(residues)), Z)
    assert is_ring_supporting(u).holds == is_ring_supporting(u.negate()).holds


def test_full_group_is_ring_supporting():
    assert is_ring_supporting(DegreeSet.full()).holds
    assert is_ring_supporting(DegreeSet.full(Zn(6))).holds


def test_windowed_verdict_is_window_certified():
    u = DegreeSet.windowed((0, 1, 2), (-3, 3), Z)
    verdict = is_ring_supporting(u)
    assert verdict.window_certified


# ---------------------------------------------------------------------------
# modular pairs


@given(residue_sets, st.frozensets(st.integers(0, 9), max_size=6))
def test_right_modular_agrees_with_scan(nr, extra_s):
    n, u_res = nr
    s_res = frozenset(e % n for e in extra_s) or frozenset({0})
    u = DegreeSet.periodic(n, tuple(sorted(u_res)), Z)
    s = DegreeSet.periodic(n, tuple(sorted(s_res)), Z)
    expected = (ring_supporting_by_scan(n, u_res)
                and right_premodular_by_scan(n, s_res, u_res))
    assert is_right_modular(s, u).holds == expected


@given(residue_sets, st.frozensets(st.integers(0, 9), max_size=6))
def test_left_modular_is_right_modular_of_negations(nr, extra_s):
    n, u_res = nr
    s_res = frozenset(e % n for e in extra_s) or frozenset({0})
    u = DegreeSet.periodic(n, tuple(sorted(u_res)), Z)
    s = DegreeSet.periodic(n, tuple(sorted(s_res)), Z)
    assert (is_left_modular(u, s).holds
            == is_right_modular(s.negate(), u.negate()).holds)


def test_known_non_modular_pair():
    s = DegreeSet.periodic(3, (0, 1, 2), Z)
    u = DegreeSet.periodic(3, (0, 1), Z)
    verdict = is_right_modular(s, u)
    assert not verdict.holds
    sw, uw, vw = verdict.witness
    assert s.contains(sw) and u.contains(uw) and u.contains(vw)
    assert s.contains(sw + uw + vw)
    assert s.contains(sw + uw) != u.contains(uw + vw)


def test_translate_pairs_are_modular():
    # (g + U, U) is right modular for every ring-supporting U
    for n in range(1, 7):
        for residues in enumerate_ring_supporting(n):
            u = DegreeSet.periodic(n, tuple(sorted(residues)), Z)
            for g in range(n):
                assert is_right_modular(u.translate(g), u).holds


# ---------------------------------------------------------------------------
# stabilizer and quotient set


def test_stabilizer_equals_intersection_with_negation():
    for n in range(1, 11):
        for residues in enumerate_ring_supporting(n):
            u = DegreeSet.periodic(n, tuple(sorted(residues)), Z)
            assert same_set(stabilizer(u), u.intersect(u.negate()))


def test_stabilizer_of_exact_period_set_is_the_period_subgroup():
    for n in range(1, 9):
        for residues in enumerate_ring_supporting(n):
            u = DegreeSet.periodic(n, tuple(sorted(residues)), Z)
            assert same_set(stabilizer(u), DegreeSet.periodic(n, (0,), Z))


def test_reduce_mod_stabilizer_canonicalizes_period():
    assert reduce_mod_stabilizer(DegreeSet.periodic(4, (0, 2), Z)) \
        == (2, frozenset({0}))
    assert reduce_mod_stabilizer(DegreeSet.periodic(6, (0, 1, 3, 4), Z)) \
        == (3, frozenset({0, 1}))


def test_reduce_mod_stabilizer_answers_over_zn_as_over_z():
    assert reduce_mod_stabilizer(DegreeSet.periodic(4, [0, 2], Zn(4))) \
        == (2, frozenset({0}))
    assert reduce_mod_stabilizer(DegreeSet.periodic(6, [1, 4], Zn(6))) \
        == (3, frozenset({1}))


@pytest.mark.parametrize("group", [Z, Zn(1)], ids=repr)
def test_full_and_period_one_are_one_set(group):
    full, one = DegreeSet.full(group), DegreeSet.periodic(1, [0], group)
    assert full == one and hash(full) == hash(one) and len({full, one}) == 1
    assert same_set(full, one)
    # the group still counts, and the stored form is what repr and JSON name
    other = Zn(1) if group == Z else Z
    assert full != DegreeSet.full(other) and one != DegreeSet.full(other)
    assert as_stored(full) != as_stored(one)
    assert repr(full) == f"DegreeSet.full({group!r})"
    assert repr(one) == "DegreeSet.periodic(1, [0])"
    assert [degree_set_to_json(x)["form"] for x in (full, one)] \
        == ["full", "periodic"]
    if group == Z:  # Z written with period 2: the same set, another value
        two = DegreeSet.periodic(2, [0, 1])
        assert full != two and same_set(full, two)


def test_stabilizer_of_every_residue_of_zn_is_full():
    g = Zn(4)
    assert as_stored(stabilizer(DegreeSet.periodic(4, range(4), g))) \
        == as_stored(DegreeSet.full(g))
    assert as_stored(stabilizer(DegreeSet.full(g))) \
        == as_stored(DegreeSet.full(g))
    assert stabilizer(DegreeSet.periodic(4, [0, 2], g)) \
        == DegreeSet.periodic(4, [0, 2], g)


def test_full_over_a_large_cyclic_group_scans_one_point():
    # Full is period 1 over Z/n too: a period of 5000 would make the pair
    # scan walk 5000 x 5000 points, past SCAN_CAP
    full = DegreeSet.full(Zn(5000))
    start = time.perf_counter()
    assert is_ring_supporting(full).holds
    assert is_right_modular(full, full).holds
    assert as_stored(quotient_set(full, full)) == as_stored(full)
    assert as_stored(stabilizer(full)) == as_stored(full)
    assert time.perf_counter() - start < 1.0


def test_quotient_set_of_translate_is_translated_stabilizer():
    for n in range(1, 8):
        for residues in enumerate_ring_supporting(n):
            u = DegreeSet.periodic(n, tuple(sorted(residues)), Z)
            for g in range(n):
                q = quotient_set(u.translate(g), u)
                assert q is not None
                assert same_set(q, stabilizer(u).translate(g))


def test_quotient_set_empty_when_not_a_translate():
    s = DegreeSet.periodic(3, (0, 1), Z)
    u = DegreeSet.periodic(3, (0,), Z)
    assert quotient_set(s, u) is None


def test_quotient_set_of_full_and_a_proper_set_is_empty_before_any_scan():
    # the rotation scan would test 20011 shifts on 40022-bit masks, past
    # SCAN_CAP: exactly one Full set is refused first
    assert quotient_set(DegreeSet.full(), DegreeSet.periodic(20011, {0})) \
        is None


def test_quotient_set_of_sets_of_unequal_density_is_empty_before_any_scan():
    # every residue of 20011 but one against {0}: the rotation scan would
    # test 20010 shifts on 40022-bit masks, past SCAN_CAP, but a translate
    # of U has one member per period
    s = DegreeSet.periodic(20011, range(1, 20011))
    u = DegreeSet.periodic(20011, {0})
    assert quotient_set(s, u) is None
    assert quotient_set(u, s) is None


def test_quotient_set_of_full_and_a_periodic_set_of_every_residue_is_full():
    # 2Z + {0, 1} is Z, so every g has g + U = S, in both orders
    every = DegreeSet.periodic(2, (0, 1))
    assert as_stored(quotient_set(DegreeSet.full(), every)) \
        == as_stored(DegreeSet.full())
    assert as_stored(quotient_set(every, DegreeSet.full())) \
        == as_stored(DegreeSet.full())
    g = Zn(4)
    every = DegreeSet.periodic(4, range(4), g)
    for s, u in [(DegreeSet.full(g), every), (every, DegreeSet.full(g))]:
        assert as_stored(quotient_set(s, u)) == as_stored(DegreeSet.full(g))
    # one residue short of the period is still no translate of Z
    assert quotient_set(DegreeSet.full(), DegreeSet.periodic(3, (0, 1))) \
        is None


def test_quotient_set_members_translate_exactly():
    u = DegreeSet.periodic(5, (0, 3, 4), Z)
    s = u.translate(2)
    q = quotient_set(s, u)
    for m in q.members_in(-10, 10):
        assert same_set(u.translate(m), s)


# ---------------------------------------------------------------------------
# interval structure


def test_interval_translation_rejects_the_whole_group():
    with pytest.raises(PreconditionError):
        is_translation_of_interval(DegreeSet.periodic(1, (0,), Z))


def test_interval_translation_detects_both_orientations():
    for n in range(2, 13):
        for r in range(0, (n + 1) // 2):
            if 2 * r >= n and n > 1:
                continue
            right = DegreeSet.periodic(n, tuple(range(r + 1)), Z)
            got = is_translation_of_interval(right)
            assert got == IntervalTranslation("right", n, r) or r == 0 and got.r == 0
            left = DegreeSet.periodic(n, tuple(sorted((n - i) % n for i in range(r + 1))), Z)
            got = is_translation_of_interval(left)
            if r == 0:
                assert got.r == 0
            else:
                assert got == IntervalTranslation("left", n, r)


def test_interval_translation_rejects_gapped_sets():
    assert is_translation_of_interval(DegreeSet.periodic(5, (0, 2), Z)) is None
    assert is_translation_of_interval(DegreeSet.periodic(5, (0, 1, 3), Z)) is None
    assert is_translation_of_interval(DegreeSet.periodic(5, (0, 2, 4), Z)) is None


def test_interval_translation_subgroup_has_radius_zero():
    got = is_translation_of_interval(DegreeSet.periodic(4, (0,), Z))
    assert got == IntervalTranslation("right", 4, 0)


@pytest.mark.parametrize("group", [Z, Zn(4)], ids=repr)
def test_interval_translation_reads_a_set_modulo_its_stabilizer(group):
    # {0, 2} + 4Z and {0, 2} in Z/4 are both 2Z + {0} reduced, in both
    # groups alike
    got = is_translation_of_interval(DegreeSet.periodic(4, [0, 2], group))
    assert got == IntervalTranslation("right", 2, 0)


@pytest.mark.parametrize("group", [Z, Zn(4)], ids=repr)
def test_structure_decompose_reads_a_set_modulo_its_stabilizer(group):
    d = structure_decompose(DegreeSet.periodic(4, [0, 2], group))
    assert (d.kind, d.intervals, d.zero_radius) \
        == ("finite_interval_union", ((0, 0),), 0)


def test_structure_decompose_shapes():
    u = DegreeSet.periodic(3, (0, 1), Z)
    d = structure_decompose(u)
    assert d.kind == "finite_interval_union"
    assert d.intervals == ((0, 1),)
    assert d.zero_radius == 1
    assert structure_decompose(DegreeSet.full()).kind == "all_of_z"


@pytest.mark.parametrize("n, residues, intervals, r", [
    (5, (0, 1, 3), ((0, 1), (3, 3)), 1),
    # the zero interval is [-1, 0]: 2 is lifted past it, 4 is its left end
    (5, (0, 2, 4), ((-1, 0), (2, 2)), 1),
    (7, (0, 2), ((0, 0), (2, 2)), 0),
])
def test_structure_decompose_splits_a_period_into_its_intervals(
        n, residues, intervals, r):
    d = structure_decompose(DegreeSet.periodic(n, residues, Z))
    assert (d.kind, d.intervals, d.zero_radius, d.window_certified) \
        == ("finite_interval_union", intervals, r, False)


@pytest.mark.parametrize("elements, window, kind, intervals, r", [
    (range(-2, 3), (-2, 2), "all_of_z", (), None),
    ((0, 2, 3, 4), (0, 4), "submonoid_of_n", (), None),
    ((0, -2, -3, -4), (-4, 0), "submonoid_of_neg_n", (), None),
    ((0, 1, 5, 6), (-1, 7), "finite_interval_union", ((0, 1), (5, 6)), 1),
    ((-5, 0, 5), (-6, 6), "finite_interval_union",
     ((-5, -5), (0, 0), (5, 5)), 0),
])
def test_structure_decompose_classifies_what_a_window_shows(
        elements, window, kind, intervals, r):
    d = structure_decompose(DegreeSet.windowed(elements, window))
    assert (d.kind, d.intervals, d.zero_radius, d.window_certified) \
        == (kind, intervals, r, True)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_residue_of_zn_is_the_whole_group(n):
    # an every-residue set reduces to period 1 modulo its stabilizer, and
    # canonical() makes it Full
    u = DegreeSet.periodic(n, range(n), Zn(n))
    assert u.canonical().form == "full"
    assert structure_decompose(u).kind == "all_of_z"
    with pytest.raises(PreconditionError):
        is_translation_of_interval(u)


# ---------------------------------------------------------------------------
# set plumbing


def test_translate_shifts_membership():
    u = DegreeSet.periodic(4, (0, 1), Z)
    t = u.translate(5)
    for x in range(-8, 9):
        assert t.contains(x) == u.contains(x - 5)


def test_windowed_try_contains_is_none_outside_window():
    u = DegreeSet.windowed((0, 2), (-2, 3), Z)
    assert u.try_contains(2) is True
    assert u.try_contains(1) is False
    assert u.try_contains(9) is None


def test_members_in_is_sorted_and_complete():
    u = DegreeSet.periodic(3, (0, 2), Z)
    got = u.members_in(-5, 7)
    assert got == sorted(got)
    assert got == [x for x in range(-5, 8) if x % 3 in (0, 2)]


def test_group_mismatch_is_rejected():
    with pytest.raises(PreconditionError):
        DegreeSet.periodic(3, (0,), Z).intersect(DegreeSet.periodic(3, (0,), Zn(3)))


# ---------------------------------------------------------------------------
# the scan-size cap


def test_scan_cap_bounds_points_times_points_times_mask_bits(monkeypatch):
    monkeypatch.setattr(subsets, "SCAN_CAP", 1000)
    # {0} mod n: 1 x 1 points on 3n - 2 bits
    assert is_ring_supporting(DegreeSet.periodic(334, (0,))).holds
    with pytest.raises(CapacityError):
        is_ring_supporting(DegreeSet.periodic(335, (0,)))
    # two members on [-w, w]: 2 x 2 points on 6w + 1 bits
    assert is_ring_supporting(DegreeSet.windowed((0, 5), (-41, 41))).holds
    with pytest.raises(CapacityError):
        is_ring_supporting(DegreeSet.windowed((0, 5), (-42, 42)))


def test_scans_past_the_cap_are_refused_before_any_mask():
    with pytest.raises(CapacityError):
        is_ring_supporting(DegreeSet.periodic(10 ** 13, (0, 1)))
    with pytest.raises(CapacityError):
        is_ring_supporting(DegreeSet.windowed((0, 10 ** 15),
                                              (-10 ** 15, 10 ** 15)))
    with pytest.raises(CapacityError):  # common period 10007 * 10009
        is_right_premodular(DegreeSet.periodic(10007, (0,)),
                            DegreeSet.periodic(10009, (0,)))


def test_rotation_and_stabilizer_scans_are_capped(monkeypatch):
    monkeypatch.setattr(subsets, "SCAN_CAP", 1000)
    # {0, 1} mod n: 2 shifts on 2n-bit masks
    assert stabilizer(DegreeSet.periodic(250, (0, 1))) \
        == DegreeSet.periodic(250, {0})
    with pytest.raises(CapacityError):
        stabilizer(DegreeSet.periodic(251, (0, 1)))
    # a window of width w: w shifts on w-bit masks
    assert stabilizer(DegreeSet.windowed((0,), (-15, 15))).elements \
        == frozenset({0})
    with pytest.raises(CapacityError):
        stabilizer(DegreeSet.windowed((0,), (-16, 15)))


HUGE = DegreeSet.periodic(10 ** 13, (0, 1))


@pytest.mark.parametrize("call", [
    lambda: stabilizer(HUGE),
    lambda: HUGE.canonical(),
    lambda: same_set(HUGE, HUGE),
    lambda: quotient_set(HUGE, HUGE),
    lambda: reduce_mod_stabilizer(HUGE),
    lambda: stabilizer(DegreeSet.windowed((0, 10 ** 12),
                                          (-10 ** 12, 10 ** 12))),
], ids=["stabilizer", "canonical", "same_set", "quotient_set",
        "reduce_mod_stabilizer", "windowed_stabilizer"])
def test_shift_scans_past_the_cap_are_refused_quickly(call):
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        call()
    assert time.perf_counter() - start < 1.0


def test_a_huge_period_on_a_small_window_builds_small_masks():
    s = DegreeSet.periodic(10 ** 12, (0, 5 * 10 ** 11))
    u = DegreeSet.windowed((0, 1, 3), (-10, 10))
    assert is_right_premodular(s, u).holds
    got = is_right_premodular(DegreeSet.windowed((0, 1, 2), (-10, 10)),
                              DegreeSet.periodic(10 ** 12, (0, 1)))
    assert got.witness == (0, 1, 1)
