"""The enumeration map of a degree set and the pseudomorphism predicate."""

import pytest
from hypothesis import given, strategies as st

from gradedsupport.errors import PreconditionError
from gradedsupport.regrade_maps import (
    WindowedMap,
    delta_map,
    is_pseudomorphism,
    preimage_subgroup,
)
from gradedsupport.subsets import DegreeSet, Z, enumerate_ring_supporting


# oracle: list s0 + U around zero in increasing order, anchor index at s0
def delta_by_sorted_enumeration(u, s0, window):
    lo, hi = window
    pad = 4 * (hi - lo + 2)
    members = [s0 + m for m in u.members_in(lo - pad, hi + pad)]
    anchor = members.index(s0)
    return {k: members[anchor + k] for k in range(lo, hi + 1)}


def interval_set(n, r, orientation):
    if orientation == "right":
        return DegreeSet.periodic(n, tuple(range(r + 1)), Z)
    return DegreeSet.periodic(n, tuple(sorted((n - i) % n for i in range(r + 1))), Z)


# ---------------------------------------------------------------------------
# delta


@given(st.integers(2, 9), st.integers(-7, 7))
def test_delta_matches_sorted_enumeration(n, s0):
    for residues in enumerate_ring_supporting(n):
        u = DegreeSet.periodic(n, tuple(sorted(residues)), Z)
        phi = delta_map(u, s0, (-12, 12))
        expected = delta_by_sorted_enumeration(u, s0, (-12, 12))
        for k in range(-12, 13):
            assert phi(k) == expected[k]


def test_delta_anchors_zero_at_the_translate():
    u = DegreeSet.periodic(4, (0, 1), Z)
    assert delta_map(u, 0, (-8, 8))(0) == 0
    assert delta_map(u, 5, (-8, 8))(0) == 5


def test_delta_right_interval_formula():
    # U = [0, r] + nZ: position (r+1)j + k lands on nj + k
    for n, r in [(3, 1), (5, 2), (7, 3), (8, 1)]:
        u = interval_set(n, r, "right")
        phi = delta_map(u, 0, (-30, 30))
        for j in range(-6, 7):
            for k in range(r + 1):
                pos = (r + 1) * j + k
                if -30 <= pos <= 30:
                    assert phi(pos) == n * j + k


def test_delta_left_interval_formula():
    # U = [-r, 0] + nZ: position (r+1)j - i lands on nj - i
    for n, r in [(3, 1), (5, 2), (7, 3)]:
        u = interval_set(n, r, "left")
        phi = delta_map(u, 0, (-30, 30))
        for j in range(-6, 7):
            for i in range(r + 1):
                pos = (r + 1) * j - i
                if -30 <= pos <= 30:
                    assert phi(pos) == n * j - i


def test_delta_is_strictly_increasing():
    u = DegreeSet.periodic(6, (0, 2, 3), Z)
    phi = delta_map(u, 0, (-15, 15))
    values = [phi(k) for k in range(-15, 16)]
    assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# pseudomorphism predicate


def test_interval_translations_give_pseudomorphisms():
    for n in range(2, 13):
        for r in range((n + 1) // 2):
            if 2 * r >= n:
                continue
            for orientation in ("right", "left"):
                u = interval_set(n, r, orientation)
                verdict = is_pseudomorphism(delta_map(u, 0, (-50, 50)))
                assert verdict.holds, (n, r, orientation, verdict)


def test_additivity_violation_is_witnessed():
    phi = WindowedMap.from_pairs([(0, 0), (1, 1), (2, 3), (3, 4), (4, 5), (5, 6)])
    verdict = is_pseudomorphism(phi)
    assert not verdict.holds
    a, b = verdict.witness
    # the witness really breaks additivity inside the image
    total = phi(a) + phi(b)
    assert total in phi.image()
    assert phi(a + b) != total


def test_zero_must_map_to_zero():
    verdict = is_pseudomorphism(WindowedMap.from_pairs([(0, 2), (1, 3)]))
    assert not verdict.holds
    assert verdict.witness == ("zero",)


def test_non_injective_map_is_rejected():
    verdict = is_pseudomorphism(WindowedMap.from_pairs([(0, 0), (1, 1), (2, 1)]))
    assert not verdict.holds
    assert verdict.reason == "not injective"


def test_identity_is_a_pseudomorphism():
    assert is_pseudomorphism(WindowedMap.identity((-10, 10))).holds


# ---------------------------------------------------------------------------
# windowed map plumbing


def test_from_pairs_derives_the_window():
    phi = WindowedMap.from_pairs([(2, 5), (0, 1), (1, 3)])
    assert phi.window == (0, 2)
    assert phi(1) == 3


def test_from_function_agrees_with_direct_calls():
    phi = WindowedMap.from_function(lambda k: 2 * k, (-3, 3))
    assert [phi(k) for k in range(-3, 4)] == [-6, -4, -2, 0, 2, 4, 6]


def test_from_pairs_rejects_gaps():
    with pytest.raises(PreconditionError):
        WindowedMap.from_pairs([(0, 0), (2, 2)])


def test_from_pairs_rejects_a_repeated_argument():
    with pytest.raises(PreconditionError, match="duplicate argument 0"):
        WindowedMap.from_pairs([(0, 0), (1, 5), (0, 3)])


def test_image_domain_and_preimage():
    phi = WindowedMap.from_pairs([(0, 0), (1, 2), (2, 4)])
    assert list(phi.domain()) == [0, 1, 2]
    assert phi.image() == frozenset({0, 2, 4})


# ---------------------------------------------------------------------------
# preimage subgroup


def test_preimage_of_period_subgroup_is_even_positions():
    u = DegreeSet.periodic(3, (0, 1), Z)
    phi = delta_map(u, 0, (-20, 20))
    pre = preimage_subgroup(phi, DegreeSet.periodic(3, (0,), Z))
    for k in range(-20, 21):
        assert pre.contains(k) == (k % 2 == 0)


def test_preimage_subgroup_requires_full_coverage():
    u = DegreeSet.periodic(3, (0, 1), Z)
    phi = delta_map(u, 0, (-20, 20))
    with pytest.raises(PreconditionError):
        preimage_subgroup(phi, DegreeSet.full())


def test_preimage_subgroup_general_interval():
    # U = [0, 2] + 5Z: positions 3j map onto 5jZ members
    u = DegreeSet.periodic(5, (0, 1, 2), Z)
    phi = delta_map(u, 0, (-21, 21))
    pre = preimage_subgroup(phi, DegreeSet.periodic(5, (0,), Z))
    for k in range(-21, 22):
        assert pre.contains(k) == (k % 3 == 0)
