"""subsets against the triple-loop residue scans it replaced.

The oracles below are the earlier implementations, kept as independent
references: the periodic ring-supporting scan and the common-modulus right
premodular scan, each a triple loop over residue membership tables, and the
enumeration that rotated a bitmask once per shift and tested every pair of
members.  The library runs one bitmask pair scan for all three.  These
tests check that it returns the same Verdict (holds, witness and
window_certified) and the same enumeration, byte for byte.
"""

import hashlib
import json
from math import gcd

from hypothesis import example, given, strategies as st

from gradedsupport.subsets import (DegreeSet, Verdict, Z, Zn,
                                   enumerate_ring_supporting,
                                   is_left_premodular, is_right_premodular,
                                   is_ring_supporting)


# ---------------------------------------------------------------------------
# oracles


def _members(s, modulus):
    return tuple(s.try_contains(c) for c in range(modulus))


def ring_supporting_by_loops(u):
    """The periodic branch of is_ring_supporting, in u.residues order."""
    n = u.period
    mem = _members(u, n)
    for a in u.residues:
        for b in u.residues:
            ab = mem[(a + b) % n]
            for c in u.residues:
                if mem[(a + b + c) % n] and ab != mem[(b + c) % n]:
                    return Verdict(False, witness=(a, b, c))
    return Verdict(True)


def right_premodular_by_loops(s, u, mod):
    """The Full/Periodic branch of is_right_premodular, sorted residues."""
    ms = _members(s, mod)
    mu = _members(u, mod)
    s_res = [c for c in range(mod) if ms[c]]
    u_res = [c for c in range(mod) if mu[c]]
    for a in s_res:
        for b in u_res:
            ab = ms[(a + b) % mod]
            for c in u_res:
                if ms[(a + b + c) % mod] and ab != mu[(b + c) % mod]:
                    return Verdict(False, witness=(a, b, c))
    return Verdict(True)


def _rotate_mask(mask, d, n, full):
    d %= n
    return ((mask << d) | (mask >> (n - d))) & full if d else mask


def enumerate_by_rotations(n):
    """The enumeration loop before the inline filters and the shared scan."""
    full = (1 << n) - 1
    found = []
    for mask in range(1, full + 1, 2):
        if any(_rotate_mask(mask, d, n, full) == mask for d in range(1, n)):
            continue
        shifted = [_rotate_mask(mask, -t, n, full) for t in range(n)]
        members = [i for i in range(n) if (mask >> i) & 1]
        ok = True
        for a in members:
            for b in members:
                relevant = mask & shifted[(a + b) % n]
                if (mask >> ((a + b) % n)) & 1:
                    ok = relevant & ~shifted[b] == 0
                else:
                    ok = relevant & shifted[b] == 0
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.append(frozenset(members))
    found.sort(key=lambda j: (len(j), tuple(sorted(j))))
    return found


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_matches_rotation_loop():
    for n in range(1, 13):
        assert enumerate_ring_supporting(n) == enumerate_by_rotations(n)


# count and SHA-256 of json.dumps([sorted(j) ...], separators=(",", ":"))
PINNED = {
    1: (1, "db407f11d7ede59abaab0e98e097ff2dae10a048207b801745d7199ef19c2387"),
    2: (1, "db407f11d7ede59abaab0e98e097ff2dae10a048207b801745d7199ef19c2387"),
    3: (3, "1a245b8f186510ec75b5d9d9620f270c2e0f010c4a8875c30b3a3176866091c8"),
    4: (3, "37976eff1fd9fb7790f43433ffd8f3176a1fe556eb02b28517b65ae2be36f34d"),
    5: (9, "9e10c6b427b0c840d3ce7651922b0e3430b96ab91b6bb99c4f1b7b72646db269"),
    6: (9, "ffa4f0176380f409b71e86e8582a3ca6c8d257f41e9fa9d4ec51de049e410d37"),
    7: (25, "58604a6b2cdd997f008f31bbbafadb8cf831f6a1b664b37b351173523f840c5b"),
    8: (27, "1d34eb814a59d4db5b332a26bae809ec4e39301cfce9734e5d078a75210f0e87"),
    9: (65, "12594a91e55da501466c65d046556e507447388ef1e5cf1b0b3598a6d74b64e5"),
    10: (69, "29ebf1bf76b83ae31928a5bc0acb0b29bdce40433dd370802be3f95987a2d4af"),
    11: (161, "8942770660f53b5d3a90ac026a859961c342e4fceda77480bba7704b3805b2af"),
    12: (161, "276ce945bb637e650847f22d697341e612ebc38ca1328b596fb618778d8db621"),
    13: (377, "1c97ce21480b9fbfb46d9ba40eab71a16f03e0378662b136cfa177892f3f032a"),
    14: (411, "f738d0187133bc08303f038a217c4c99aa611c39dd942deb75a99d680af3ef30"),
    15: (857, "4f6bb5e8d9ba4f6da1fe36ea837626a5e0d42cb29b20447d813c5071be03ca0a"),
    16: (963, "69a58fea49c98d067f4d10a8bfa87745228c00e87d5e49eb24ceafc2f518f28c"),
}


def test_enumeration_count_and_digest_are_pinned():
    for n, (count, digest) in PINNED.items():
        subsets = [sorted(j) for j in enumerate_ring_supporting(n)]
        raw = json.dumps(subsets, separators=(",", ":")).encode()
        assert (len(subsets), hashlib.sha256(raw).hexdigest()) == (count, digest)


# ---------------------------------------------------------------------------
# the shared scan against the triple loops


def _residue_lists(max_period):
    """A period and a residue list in random order, so frozenset order varies."""
    return st.integers(1, max_period).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1),
                                                 min_size=1, max_size=n,
                                                 unique=True)))


@given(_residue_lists(24), st.booleans())
@example((9, [0, 1, 7, 8]), False)
@example((9, [0, 2, 7, 8]), False)
@example((9, [8, 7, 1, 0]), True)
@example((9, [7, 8, 2, 0]), False)
def test_ring_supporting_verdict_matches_triple_loop(nr, cyclic):
    n, residues = nr
    u = DegreeSet.periodic(n, [0, *residues] if 0 not in residues
                           else residues, Zn(n) if cyclic else Z)
    assert is_ring_supporting(u) == ring_supporting_by_loops(u)


def test_witness_follows_frozenset_order():
    # frozenset({0, 1, 7, 8}) iterates 0, 1, 8, 7; a sorted walk would give (1, 1, 7)
    u = DegreeSet.periodic(9, [0, 1, 7, 8])
    assert list(u.residues) != sorted(u.residues)
    assert is_ring_supporting(u).witness == (1, 1, 8)
    assert ring_supporting_by_loops(u).witness == (1, 1, 8)


def _full_or_periodic(draw, n, group):
    if draw(st.integers(0, 9)) == 0:
        return DegreeSet.full(group)
    residues = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                             unique=True))
    return DegreeSet.periodic(n, residues, group)


@st.composite
def _pairs(draw):
    """Two Full/Periodic sets over Z/m, or over Z with periods dividing m."""
    m = draw(st.integers(1, 24))
    if draw(st.booleans()):
        return (_full_or_periodic(draw, m, Zn(m)),
                _full_or_periodic(draw, m, Zn(m)), m)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    first, second = (_full_or_periodic(draw, draw(st.sampled_from(divisors)), Z)
                     for _ in range(2))
    periods = [x.period for x in (first, second) if x.period is not None]
    return first, second, _lcm(*periods)


def _lcm(*periods):
    out = 1
    for p in periods:
        out = out * p // gcd(out, p)
    return out


@given(_pairs())
@example((DegreeSet.periodic(9, [0, 1, 7, 8]),
          DegreeSet.periodic(9, [0, 2, 7, 8]), 9))
@example((DegreeSet.periodic(3, [0, 1, 2]), DegreeSet.periodic(3, [0, 1]), 3))
@example((DegreeSet.periodic(4, [0, 3]), DegreeSet.periodic(6, [0, 1, 4]), 12))
def test_right_premodular_verdict_matches_triple_loop(case):
    s, u, mod = case
    assert is_right_premodular(s, u) == right_premodular_by_loops(s, u, mod)


@given(_pairs())
def test_left_premodular_verdict_matches_negated_triple_loop(case):
    u, s, mod = case
    assert is_left_premodular(u, s) == \
        right_premodular_by_loops(s.negate(), u.negate(), mod)
