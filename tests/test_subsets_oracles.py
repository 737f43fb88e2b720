"""subsets against the residue scans and stabilizer loops it replaced.

The oracles below are the earlier implementations, kept as independent
references: the periodic ring-supporting scan and the common-modulus right
premodular scan, each a triple loop over residue membership tables; the two
windowed triple loops; the enumeration that rotated a bitmask once per
shift and tested every pair of members, and the per-mask pair scan that
followed it; and the shift-by-shift stabilizer, quotient-set,
canonical-period and intersection comprehensions.  The library decides
every form with one bitmask pair scan, reads every shift off one helper
and enumerates all candidates of a modulus at once on bit planes.  These
tests check that it returns the same Verdict (holds, witness and
window_certified), the same enumeration and the same degree sets, value
for value.

The last section holds no oracle but a parity: one residue set as a
Periodic set over Z and over Z/n must get the same answers from every
entry point, read mod n, and the same refusals.
"""

import hashlib
import itertools
import json
from math import gcd

from dataclasses import replace

from hypothesis import assume, example, given, settings, strategies as st

from gradedsupport.subsets import (ENUMERATION_CAP, DegreeSet, Verdict, Z,
                                   Zn, _bits, _pair_scan, _shifts,
                                   enumerate_ring_supporting,
                                   is_left_modular, is_left_premodular,
                                   is_right_modular, is_right_premodular,
                                   is_ring_supporting,
                                   is_translation_of_interval, quotient_set,
                                   reduce_mod_stabilizer, stabilizer,
                                   structure_decompose)


# ---------------------------------------------------------------------------
# oracles


def as_stored(s):
    """A degree set with its form, which == leaves out: the oracles name
    Full and Periodic as the library does."""
    return s, getattr(s, "form", None)


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


def ring_supporting_windowed_by_loops(u):
    """The windowed branch of is_ring_supporting: sorted triples."""
    els = sorted(u.elements)
    for a, b, c in itertools.product(els, repeat=3):
        total = u.try_contains(a + b + c)
        ab = u.try_contains(a + b)
        bc = u.try_contains(b + c)
        if total is True and ab is not None and bc is not None and ab != bc:
            return Verdict(False, window_certified=True, witness=(a, b, c))
    return Verdict(True, window_certified=True)


def right_premodular_windowed_by_loops(s, u):
    """The windowed branch of is_right_premodular, on the common window."""
    windows = [x.window for x in (s, u) if x.form == "windowed"]
    lo = max(w[0] for w in windows)
    hi = min(w[1] for w in windows)
    s_in = [x for x in range(lo, hi + 1) if s.try_contains(x)]
    u_in = [x for x in range(lo, hi + 1) if u.try_contains(x)]
    for a in s_in:
        for b in u_in:
            ab = s.try_contains(a + b)
            if ab is None:
                continue
            for c in u_in:
                total = s.try_contains(a + b + c)
                bc = u.try_contains(b + c)
                if total is True and bc is not None and ab != bc:
                    return Verdict(False, window_certified=True,
                                   witness=(a, b, c))
    return Verdict(True, window_certified=True)


def right_premodular_any_form(s, u):
    if "windowed" in (s.form, u.form):
        return right_premodular_windowed_by_loops(s, u)
    periods = [x.period for x in (s, u) if x.period is not None]
    return right_premodular_by_loops(s, u, _lcm(*periods))


def _shift_fixes(J, n, d):
    return frozenset((j + d) % n for j in J) == J


def canonical_by_comprehension(u):
    """DegreeSet.canonical with the shift-by-shift stabilizer."""
    if u.form != "periodic":
        return u
    n, J = u.period, u.residues
    if len(J) == n:
        return DegreeSet.full(u.group)
    stab = [d for d in range(n) if _shift_fixes(J, n, d)]
    d0 = n // len(stab)
    if d0 == n or u.group.kind == "Zn":
        return u
    if d0 == 1:
        return DegreeSet.full(u.group)
    return DegreeSet.periodic(d0, frozenset(j % d0 for j in J), u.group)


def stabilizer_by_comprehension(u):
    if u.form == "full":
        return u
    if u.form == "periodic":
        n, J = u.period, u.residues
        good = [d for d in range(n) if _shift_fixes(J, n, d)]
        if len(good) == n:  # every shift fixes J, in either group
            return DegreeSet.full(u.group)
        if u.group.kind == "Zn":
            return DegreeSet.periodic(n, good, u.group)
        return DegreeSet.periodic(n // len(good), {0})
    lo, hi = u.window
    els = u.elements
    good = []
    for g in range(lo, hi + 1):
        olo, ohi = max(lo, lo + g), min(hi, hi + g)
        if olo > ohi:
            continue
        if all(((x - g) in els) == (x in els) for x in range(olo, ohi + 1)):
            good.append(g)
    return DegreeSet.windowed(good, (lo, hi))


def quotient_set_by_tables(s, u):
    """quotient_set without its modular self-check: membership tables, a
    Full set counting as period 1 with residue 0."""
    mod = _lcm(s.period or 1, u.period or 1)
    ms = _members(s, mod)
    mu = _members(u, mod)
    good = [g for g in range(mod)
            if all(mu[(c - g) % mod] == ms[c] for c in range(mod))]
    if not good:
        return None
    if len(good) == mod:  # every rotation is good, in either group
        return DegreeSet.full(s.group)
    if s.group.kind == "Zn":  # not canonicalised over Z/n: a coset of (U : U)
        return DegreeSet.periodic(mod, good, s.group)
    return canonical_by_comprehension(DegreeSet.periodic(mod, good))


def reduce_mod_stabilizer_by_comprehension(u):
    """(d0, J mod d0) over Z and Z/n alike, d0 = n / (number of fixing
    shifts)."""
    if u.form == "full":
        return 1, frozenset({0})
    n, J = u.period, u.residues
    d0 = n // sum(_shift_fixes(J, n, d) for d in range(n))
    return d0, frozenset(j % d0 for j in J)


def intersect_by_points(s, u):
    """The intersection of s and u, one point at a time; None when empty.
    Windowed results stay windowed."""
    if "windowed" in (s.form, u.form):
        windows = [x.window for x in (s, u) if x.form == "windowed"]
        lo = max(w[0] for w in windows)
        hi = min(w[1] for w in windows)
        if lo > hi:
            return None
        return DegreeSet.windowed(
            [x for x in range(lo, hi + 1)
             if s.try_contains(x) and u.try_contains(x)], (lo, hi))
    if s.form == "full":
        return u
    if u.form == "full":
        return s
    L = _lcm(s.period, u.period)
    J = frozenset(c for c in range(L)
                  if c % s.period in s.residues and c % u.period in u.residues)
    if not J:
        return None
    return canonical_by_comprehension(DegreeSet.periodic(L, J, s.group))


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


def _prime_factors(n):
    """The distinct primes dividing n, ascending."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def enumerate_by_pair_scan(n):
    """The per-mask enumeration before the bit planes: per candidate, the
    pair (a, a) inline, the stabilizer at the shifts n/p and one pair scan
    over the nonzero members."""
    full, ones = (1 << n) - 1, (1 << 3 * n) - 1
    shifts = [n // p for p in _prime_factors(n)]
    found = []
    for mask in range(1, full + 1, 2):  # bit 0 set: 0 in J
        tri = mask | mask << n | mask << 2 * n  # J unrolled over [0, 3n)
        rest = mask & ~1
        if rest:
            a = (rest & -rest).bit_length() - 1
            relevant = mask & tri >> 2 * a
            in_j = tri >> a
            if relevant & ~in_j if tri >> 2 * a & 1 else relevant & in_j:
                continue
        view = (tri, ones)
        if _shifts(view, (mask, full), shifts):
            continue
        nonzero = _bits(rest)
        if _pair_scan(view, view, view, rest, 0, nonzero, nonzero) is None:
            found.append(frozenset([0, *nonzero]))
    found.sort(key=lambda j: (len(j), tuple(sorted(j))))
    return found


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_matches_rotation_loop():
    for n in range(1, 13):
        assert enumerate_ring_supporting(n) == enumerate_by_rotations(n)


def test_bit_planes_match_the_per_mask_pair_scan():
    # n = 1..4 fit a plane in one byte; n = 16 is the cap
    for n in range(1, ENUMERATION_CAP + 1):
        assert enumerate_ring_supporting(n) == enumerate_by_pair_scan(n)


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


# ---------------------------------------------------------------------------
# windowed and mixed forms against the windowed triple loops


@st.composite
def _windowed(draw, lo_min=-30, width_max=40, with_zero=False):
    """A windowed set over Z whose window may start below 0."""
    lo = draw(st.integers(lo_min, 5))
    hi = lo + draw(st.integers(0, width_max))
    if with_zero:
        assume(lo <= 0 <= hi)
    els = draw(st.lists(st.integers(lo, hi), max_size=hi - lo + 1,
                        unique=True))
    return DegreeSet.windowed([0, *els] if with_zero else els, (lo, hi))


@st.composite
def _any_form(draw):
    kind = draw(st.sampled_from(["full", "periodic", "windowed",
                                 "windowed"]))
    if kind == "full":
        return DegreeSet.full()
    if kind == "periodic":
        n = draw(st.integers(1, 8))
        return DegreeSet.periodic(n, draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    return draw(_windowed())


@given(_windowed(with_zero=True))
@example(DegreeSet.windowed([x for x in range(-12, 13) if x % 3 in (0, 1)],
                            (-12, 12)))
@example(DegreeSet.windowed([-7, -3, 0, 2, 5], (-8, 6)))
def test_windowed_ring_supporting_verdict_matches_triple_loop(u):
    assert is_ring_supporting(u) == ring_supporting_windowed_by_loops(u)


@given(_any_form(), _any_form())
@example(DegreeSet.windowed([-5, -2, 0, 1], (-6, 2)),
         DegreeSet.periodic(3, [0, 2]))
@example(DegreeSet.full(), DegreeSet.windowed([-4, -1, 0, 3], (-4, 4)))
def test_mixed_right_premodular_verdict_matches_triple_loop(s, u):
    assert is_right_premodular(s, u) == right_premodular_any_form(s, u)


@given(_any_form(), _any_form())
def test_mixed_left_premodular_verdict_matches_negated_triple_loop(u, s):
    assert is_left_premodular(u, s) == \
        right_premodular_any_form(s.negate(), u.negate())


@given(_windowed(), _windowed(), st.integers(1, 20))
def test_disjoint_windows_scan_nothing(s, u, gap):
    u = u.translate(s.window[1] + gap - u.window[0])  # u starts past s
    want = Verdict(True, window_certified=True)
    assert right_premodular_windowed_by_loops(s, u) == want
    assert is_right_premodular(s, u) == want
    assert is_right_premodular(u, s) == want


# ---------------------------------------------------------------------------
# shifts: stabilizers, quotient sets, canonical periods


@st.composite
def _periodic(draw, max_period=24):
    n = draw(st.integers(1, max_period))
    group = Zn(n) if draw(st.booleans()) else Z
    return DegreeSet.periodic(n, draw(st.lists(
        st.integers(0, n - 1), min_size=1, max_size=n, unique=True)), group)


@given(_periodic())
@example(DegreeSet.periodic(12, [0, 3, 4, 7, 8, 11]))
@example(DegreeSet.periodic(6, [1, 4], Zn(6)))
@example(DegreeSet.periodic(4, range(4), Zn(4)))
@example(DegreeSet.periodic(4, [0, 2], Zn(4)))
@example(DegreeSet.periodic(1, [0], Zn(1)))
def test_canonical_stabilizer_and_reduction_match_comprehensions(u):
    assert as_stored(u.canonical()) == as_stored(canonical_by_comprehension(u))
    assert as_stored(stabilizer(u)) == as_stored(stabilizer_by_comprehension(u))
    assert reduce_mod_stabilizer(u) == reduce_mod_stabilizer_by_comprehension(u)


@given(_periodic(12), st.integers(-30, 30), st.integers(1, 3),
       st.booleans(), st.sampled_from([None, "s", "u"]))
@example(DegreeSet.periodic(6, [0, 1, 3, 4]), 2, 2, True, None)
@example(DegreeSet.periodic(2, [0, 1]), 0, 1, True, "s")
@example(DegreeSet.periodic(4, [0, 1, 2, 3], Zn(4)), 0, 1, True, "u")
@example(DegreeSet.periodic(6, [0, 3]), 1, 1, True, "u")
def test_quotient_set_matches_membership_tables(u, g, scale, translate, full):
    # s = g + U (nonempty quotient), or an unrelated set of a multiple
    # period; then S or U may be replaced by Full
    u = DegreeSet.periodic(u.period, u.residues | {0}, u.group)
    if translate:
        s = u.translate(g)
    else:
        m = u.period * scale if u.group.kind == "Z" else u.period
        s = DegreeSet.periodic(m, {(g + k * k) % m for k in range(scale + 1)},
                               u.group)
    if full == "s":
        s = DegreeSet.full(u.group)
    elif full == "u":
        u = DegreeSet.full(u.group)
    assert as_stored(quotient_set(s, u)) \
        == as_stored(quotient_set_by_tables(s, u))


@given(_windowed(lo_min=-15, width_max=25))
@example(DegreeSet.windowed([-4, -2, 0, 2, 4], (-4, 4)))
def test_windowed_stabilizer_matches_overlap_loop(u):
    assert stabilizer(u) == stabilizer_by_comprehension(u)


# ---------------------------------------------------------------------------
# Z against Z/n: one residue set, one answer

PARITY_CHECKS = {
    "is_ring_supporting": lambda s, u: is_ring_supporting(u),
    "is_right_premodular": is_right_premodular,
    "is_right_modular": is_right_modular,
    "is_left_premodular": lambda s, u: is_left_premodular(u, s),
    "is_left_modular": lambda s, u: is_left_modular(u, s),
    "quotient_set": quotient_set,
    "stabilizer": lambda s, u: stabilizer(u),
    "canonical": lambda s, u: u.canonical(),
    "reduce_mod_stabilizer": lambda s, u: reduce_mod_stabilizer(u),
    "is_translation_of_interval": lambda s, u: is_translation_of_interval(u),
    "structure_decompose": lambda s, u: structure_decompose(u),
}
RING_SUPPORTING = {n: enumerate_ring_supporting(n) for n in range(1, 13)}


def _read_mod(f, n):
    """f's answer with its degrees read mod n: a verdict's witness, a
    degree set as its form and its members in [0, n); a refusal as its
    type and message."""
    try:
        got = f()
    except Exception as e:
        return type(e), str(e)
    if isinstance(got, Verdict) and got.witness is not None:
        return replace(got, witness=tuple(w % n for w in got.witness))
    if isinstance(got, DegreeSet):
        return got.form, tuple(got.members_in(0, n - 1))
    return got


@st.composite
def _residue_pairs(draw):
    """n and residue sets (K, J) of Z/n: J ring-supporting or any set, most
    often with 0; K a translate of J or any set."""
    n = draw(st.integers(1, 12))
    any_set = st.sets(st.integers(0, n - 1), min_size=1)
    if draw(st.booleans()):
        j = set(draw(st.sampled_from(RING_SUPPORTING[n])))
    else:
        j = draw(any_set) | ({0} if draw(st.booleans()) else set())
    t = draw(st.integers(0, n - 1))
    k = {(x + t) % n for x in j} if draw(st.booleans()) else draw(any_set)
    return n, k, j


@settings(max_examples=300)
@given(_residue_pairs())
@example((4, {0, 1, 2, 3}, {0, 1, 2, 3}))  # every residue: Full's answers
@example((4, {1, 3}, {0, 2}))              # (U : U) = 2Z, larger than 4Z
@example((6, {2, 3}, {0, 1}))
@example((1, {0}, {0}))
def test_z_and_zn_answer_alike(case):
    n, k, j = case
    over_z = DegreeSet.periodic(n, k), DegreeSet.periodic(n, j)
    over_zn = DegreeSet.periodic(n, k, Zn(n)), DegreeSet.periodic(n, j, Zn(n))
    for name, f in PARITY_CHECKS.items():
        assert _read_mod(lambda: f(*over_z), n) \
            == _read_mod(lambda: f(*over_zn), n), name
