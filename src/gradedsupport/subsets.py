"""Degree subsets of Z and Z/n and the combinatorics of support killing.

A DegreeSet is one of:

* Full: all of the grading group.
* Periodic(period n, residues J): the union of the classes nZ + j, j in J.
  Over the cyclic group Z/n the period must equal n and the set is just J.
* Windowed(elements, window): an explicit finite set, only certified on its
  window.  Only available over Z.

Predicates return a Verdict.  For Full and Periodic forms the residue scan is
exhaustive and therefore exact (membership only depends on the residue, so
finitely many triples decide the quantifier over the whole group); for
Windowed forms the scan is restricted to the window and the verdict carries
window_certified=True.

Argument order conventions follow the module side the ring acts on: right
pairs are written (S, U) with S the module support and U the ring set; left
pairs are written (U, S) with the ring set first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .errors import (CapacityError, InternalConsistencyError, PreconditionError,
                     UnsupportedFormError, WindowViolationError)


@dataclass(frozen=True)
class GradedGroup:
    kind: str  # "Z" or "Zn"
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Zn"):
            raise PreconditionError(f"unknown group kind {self.kind!r}")
        if self.kind == "Zn" and (self.n is None or self.n < 1):
            raise PreconditionError("cyclic group needs a modulus n >= 1")
        if self.kind == "Z" and self.n is not None:
            raise PreconditionError("Z carries no modulus")

    def add(self, a, b):
        return (a + b) % self.n if self.kind == "Zn" else a + b

    def neg(self, a):
        return (-a) % self.n if self.kind == "Zn" else -a

    def __repr__(self):
        return "Z" if self.kind == "Z" else f"Z/{self.n}"


Z = GradedGroup("Z")


def Zn(n):
    return GradedGroup("Zn", n)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decidable-or-window-checked property."""

    holds: bool
    window_certified: bool = False
    witness: tuple | None = None
    reason: str | None = None

    def __bool__(self):
        return self.holds


FORM_FULL = "full"
FORM_PERIODIC = "periodic"
FORM_WINDOWED = "windowed"


@dataclass(frozen=True)
class DegreeSet:
    group: GradedGroup
    form: str
    period: int | None = None
    residues: frozenset | None = None
    elements: frozenset | None = None
    window: tuple | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def full(cls, group=Z):
        return cls(group, FORM_FULL)

    @classmethod
    def periodic(cls, period, residues, group=Z):
        residues = frozenset(int(r) for r in residues)
        if period < 1:
            raise PreconditionError(f"period must be >= 1, got {period}")
        if not residues:
            raise PreconditionError("periodic sets need at least one residue")
        if any(r < 0 or r >= period for r in residues):
            raise PreconditionError(f"residues must lie in [0, {period})")
        if group.kind == "Zn" and period != group.n:
            raise PreconditionError(
                f"period {period} must match the cyclic modulus {group.n}")
        return cls(group, FORM_PERIODIC, period=period, residues=residues)

    @classmethod
    def windowed(cls, elements, window, group=Z):
        if group.kind != "Z":
            raise UnsupportedFormError("windowed sets only exist over Z")
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise PreconditionError(f"empty window [{lo}, {hi}]")
        elements = frozenset(int(e) for e in elements)
        if any(e < lo or e > hi for e in elements):
            raise WindowViolationError("element outside the declared window")
        return cls(group, FORM_WINDOWED, elements=elements, window=(lo, hi))

    # -- membership --------------------------------------------------------

    def try_contains(self, x):
        """Membership, or None when x is outside a windowed form's window."""
        if self.form == FORM_FULL:
            return True
        if self.form == FORM_PERIODIC:
            return x % self.period in self.residues
        lo, hi = self.window
        if x < lo or x > hi:
            return None
        return x in self.elements

    def contains(self, x):
        got = self.try_contains(x)
        if got is None:
            raise WindowViolationError(
                f"{x} is outside the window {self.window} of a windowed set")
        return got

    def members_in(self, lo, hi):
        """Sorted members in [lo, hi], silently clipped to the window."""
        if self.form == FORM_FULL:
            return list(range(lo, hi + 1))
        if self.form == FORM_PERIODIC:
            return [x for x in range(lo, hi + 1) if x % self.period in self.residues]
        wlo, whi = self.window
        return sorted(e for e in self.elements if max(lo, wlo) <= e <= min(hi, whi))

    # -- structure helpers --------------------------------------------------

    def negate(self):
        """{-x : x in this set}."""
        if self.form == FORM_FULL:
            return self
        if self.form == FORM_PERIODIC:
            n = self.period
            return DegreeSet.periodic(n, {(-r) % n for r in self.residues}, self.group)
        lo, hi = self.window
        return DegreeSet.windowed({-e for e in self.elements}, (-hi, -lo))

    def translate(self, g):
        """{x + g : x in this set}."""
        g = int(g)
        if self.form == FORM_FULL:
            return self
        if self.form == FORM_PERIODIC:
            n = self.period
            return DegreeSet.periodic(n, {(r + g) % n for r in self.residues},
                                      self.group)
        lo, hi = self.window
        return DegreeSet.windowed({e + g for e in self.elements},
                                  (lo + g, hi + g))

    def canonical(self):
        """Reduce to the minimal-period form; every-residue sets become Full."""
        if self.form != FORM_PERIODIC:
            return self
        n, J = self.period, self.residues
        if len(J) == n:
            return DegreeSet.full(self.group)
        stab = [d for d in range(n) if frozenset((j + d) % n for j in J) == J]
        d0 = n // len(stab)
        if set(stab) != {i * d0 for i in range(len(stab))}:
            raise InternalConsistencyError("stabilizer is not a subgroup")
        if d0 == n:
            return self
        reduced = frozenset(j % d0 for j in J)
        if len(reduced) * len(stab) != len(J):
            raise InternalConsistencyError("stabilizer reduction miscounted")
        if self.group.kind == "Zn":
            return self
        if d0 == 1:
            return DegreeSet.full(self.group)
        return DegreeSet.periodic(d0, reduced, self.group)

    def intersect(self, other):
        """Set intersection; None when empty.  Windowed results stay windowed."""
        if self.group != other.group:
            raise PreconditionError("intersection needs a common group")
        if FORM_WINDOWED in (self.form, other.form):
            win = self.window if self.form == FORM_WINDOWED else other.window
            if other.form == FORM_WINDOWED and self.form == FORM_WINDOWED:
                lo = max(self.window[0], other.window[0])
                hi = min(self.window[1], other.window[1])
                if lo > hi:
                    return None
                win = (lo, hi)
            members = [x for x in range(win[0], win[1] + 1)
                       if self.try_contains(x) and other.try_contains(x)]
            return DegreeSet.windowed(members, win)
        if self.form == FORM_FULL:
            return other
        if other.form == FORM_FULL:
            return self
        L = _lcm(self.period, other.period)
        J = frozenset(c for c in range(L)
                      if c % self.period in self.residues
                      and c % other.period in other.residues)
        if not J:
            return None
        return DegreeSet.periodic(L, J, self.group).canonical()

    def __repr__(self):
        if self.form == FORM_FULL:
            return f"DegreeSet.full({self.group!r})"
        if self.form == FORM_PERIODIC:
            return f"DegreeSet.periodic({self.period}, {sorted(self.residues)})"
        return f"DegreeSet.windowed({sorted(self.elements)}, {self.window})"


def _lcm(a, b):
    return a * b // gcd(a, b)


def same_set(a: DegreeSet, b: DegreeSet) -> bool:
    """Semantic equality for Full/Periodic forms; structural for Windowed."""
    return a.canonical() == b.canonical()


# ---------------------------------------------------------------------------
# residue profiles: exact finite views of Full/Periodic sets


def _profile(s: DegreeSet, modulus):
    """Membership table of s modulo the given modulus (Full/Periodic only)."""
    return tuple(s.try_contains(c) for c in range(modulus))


def _common_modulus(*sets):
    mods = []
    for s in sets:
        if s.form == FORM_WINDOWED:
            return None
        mods.append(1 if s.form == FORM_FULL else s.period)
    out = 1
    for m in mods:
        out = _lcm(out, m)
    return out


def _check_same_group(*sets):
    g = sets[0].group
    for s in sets[1:]:
        if s.group != g:
            raise PreconditionError("degree sets live over different groups")
    return g


# ---------------------------------------------------------------------------
# the residue pair scan


def _mask(residues):
    """Bitmask of a set of residues: bit r set for each member r."""
    return sum(1 << r for r in residues)


def _pair_scan(n, s, u, a_order, bc_order):
    """First (a, b, c) breaking the pair condition on Z/n, or None.

    s and u are the bitmasks of S and U.  The condition: for a in S and
    b, c in U with a+b+c in S, a+b in S iff b+c in U (S = U is the
    ring-supporting condition).  For each (a, b) the breaking c form one
    mask: those c in U with a+b+c in S, less the c with b+c in U when a+b
    is in S, or only those when it is not.  Pairs are walked in a_order x
    bc_order and the witness's c is the first breaking one in bc_order,
    so the caller's orders decide which witness comes back.
    """
    s2 = s | s << n  # bit i + t of s2 is bit (i + t) mod n of s, t < n
    u2 = u | u << n
    for a in a_order:
        for b in bc_order:
            ab = (a + b) % n
            relevant = u & s2 >> ab  # c in U with a+b+c in S
            in_u = u2 >> b  # bit c: b+c in U, for c < n
            bad = relevant & ~in_u if s >> ab & 1 else relevant & in_u
            if bad:
                return a, b, next(c for c in bc_order if bad >> c & 1)
    return None


# ---------------------------------------------------------------------------
# predicates


def is_ring_supporting(u: DegreeSet) -> Verdict:
    """Whether support-restricted multiplication at u is always associative.

    The defining condition: for all members a, b, c with a+b+c in U,
    a+b in U iff b+c in U.  Requires 0 in U.
    """
    if u.try_contains(0) is not True:
        raise PreconditionError("a ring-supporting candidate must contain 0")
    if u.form == FORM_FULL:
        return Verdict(True)
    if u.form == FORM_PERIODIC:
        mask = _mask(u.residues)
        witness = _pair_scan(u.period, mask, mask, u.residues, u.residues)
        return Verdict(witness is None, witness=witness)
    els = sorted(u.elements)
    for a, b, c in itertools.product(els, repeat=3):
        total = u.try_contains(a + b + c)
        ab = u.try_contains(a + b)
        bc = u.try_contains(b + c)
        if total is True and ab is not None and bc is not None and ab != bc:
            return Verdict(False, window_certified=True, witness=(a, b, c))
    return Verdict(True, window_certified=True)


def is_right_premodular(s: DegreeSet, u: DegreeSet) -> Verdict:
    """Right pair (S, U): for (a,b,c) in S x U x U with a+b+c in S,
    a+b in S iff b+c in U."""
    _check_same_group(s, u)
    mod = _common_modulus(s, u)
    if mod is not None:
        s_res = s.members_in(0, mod - 1)
        u_res = u.members_in(0, mod - 1)
        witness = _pair_scan(mod, _mask(s_res), _mask(u_res), s_res, u_res)
        return Verdict(witness is None, witness=witness)
    lo, hi = _scan_range(s, u)
    for a in s.members_in(lo, hi):
        for b in u.members_in(lo, hi):
            ab = s.try_contains(a + b)
            if ab is None:
                continue
            for c in u.members_in(lo, hi):
                total = s.try_contains(a + b + c)
                bc = u.try_contains(b + c)
                if total is True and bc is not None and ab != bc:
                    return Verdict(False, window_certified=True, witness=(a, b, c))
    return Verdict(True, window_certified=True)


def _scan_range(*sets):
    """The widest range on which every windowed participant is defined."""
    lo, hi = None, None
    for s in sets:
        if s.form == FORM_WINDOWED:
            wlo, whi = s.window
            lo = wlo if lo is None else max(lo, wlo)
            hi = whi if hi is None else min(hi, whi)
    if lo is None:
        raise InternalConsistencyError("scan range requested with no windowed set")
    return lo, hi


def is_right_modular(s: DegreeSet, u: DegreeSet) -> Verdict:
    """Right premodular plus U ring-supporting."""
    ring = is_ring_supporting(u)
    if not ring.holds:
        return Verdict(False, ring.window_certified, ring.witness,
                       reason="ring_supporting")
    pre = is_right_premodular(s, u)
    if not pre.holds:
        return Verdict(False, pre.window_certified, pre.witness,
                       reason="premodular")
    return Verdict(True, ring.window_certified or pre.window_certified)


def is_left_premodular(u: DegreeSet, s: DegreeSet) -> Verdict:
    """Left pair (U, S), ring set first: for (b,c,a) in U x U x S with
    b+c+a in S, c+a in S iff b+c in U.  Computed by the negation reduction;
    tests check it against the direct definitional scan.
    """
    return is_right_premodular(s.negate(), u.negate())


def is_left_modular(u: DegreeSet, s: DegreeSet) -> Verdict:
    return is_right_modular(s.negate(), u.negate())


# ---------------------------------------------------------------------------
# stabilizers and quotient sets


def stabilizer(u: DegreeSet) -> DegreeSet:
    """(U : U) = {g : g + U = U}, always a subgroup.

    Full -> Full; Periodic over Z -> kZ as Periodic(k, {0}); over Z/n the
    residue subgroup.  Windowed forms get a window-certified approximation.
    """
    if u.form == FORM_FULL:
        return u
    if u.form == FORM_PERIODIC:
        n, J = u.period, u.residues
        good = [d for d in range(n) if frozenset((j + d) % n for j in J) == J]
        if u.group.kind == "Zn":
            return DegreeSet.periodic(n, good, u.group)
        k = n // len(good)
        return DegreeSet.periodic(k, {0}) if k > 1 else DegreeSet.full()
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


def quotient_set(s: DegreeSet, u: DegreeSet):
    """(S : U) = {g : g + U = S}; None when empty.

    When nonempty and (S, U) is right modular, the result is a single coset
    m + stabilizer(U); that identity is verified here before returning.
    """
    _check_same_group(s, u)
    if s.form == FORM_WINDOWED or u.form == FORM_WINDOWED:
        raise UnsupportedFormError("quotient sets need Full or Periodic forms")
    if s.form == FORM_FULL and u.form == FORM_FULL:
        return DegreeSet.full(s.group)
    if s.form == FORM_FULL or u.form == FORM_FULL:
        return None  # a proper periodic set is never a translate of everything
    mod = _common_modulus(s, u)
    ms = _profile(s, mod)
    mu = _profile(u, mod)
    good = [g for g in range(mod)
            if all(mu[(c - g) % mod] == ms[c] for c in range(mod))]
    if not good:
        return None
    if s.group.kind == "Zn":
        result = DegreeSet.periodic(mod, good, s.group)
    else:
        result = DegreeSet.periodic(mod, good).canonical()
    if is_right_modular(s, u).holds:
        m = min(good)
        stab = stabilizer(u)
        expected = _translate(stab, m)
        if not same_set(result, expected):
            raise InternalConsistencyError(
                "(S:U) is not a coset of (U:U) for a modular pair")
    return result


def _translate(s: DegreeSet, m):
    """m + S for Full/Periodic forms."""
    if s.form == FORM_FULL:
        return s
    n = s.period
    return DegreeSet.periodic(n, {(r + m) % n for r in s.residues}, s.group)


# ---------------------------------------------------------------------------
# enumeration of ring-supporting residue sets

ENUMERATION_CAP = 16


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


def enumerate_ring_supporting(n) -> list:
    """All J in Z/n with 0 in J, J ring-supporting, trivial stabilizer.

    Sorted by cardinality then lexicographically on the sorted residue
    tuple.  For n = 1 the answer [{0}] stands for U = Z.

    Each candidate is a bitmask of J; J - t is read off the doubled mask as
    (dbl >> t) & full.  Two cheap filters run before the pair scan, and
    neither drops a set the scan would keep:

    * the pair (a, a), a the smallest nonzero member, is tested inline.  It
      is one of the pairs the scan walks, so a set failing it fails the
      scan.  The scan walks the nonzero members only: with 0 in J, a pair
      with a = 0 or b = 0 has an empty breaking mask, and c = 0 never
      breaks a pair.
    * the stabilizer is tested only at the shifts n/p, p a prime dividing
      n.  The stabilizer is a subgroup of Z/n; a nontrivial one contains
      an element of some prime order p, and the subgroup of order p is
      generated by n/p.
    """
    if n < 1:
        raise PreconditionError(f"modulus must be >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration capped at n <= {ENUMERATION_CAP}, got {n}")
    full = (1 << n) - 1
    shifts = [n // p for p in _prime_factors(n)]
    found = []
    for mask in range(1, full + 1, 2):  # bit 0 set: 0 in J
        dbl = mask | mask << n
        rest = mask & ~1
        if rest:
            a = (rest & -rest).bit_length() - 1
            aa = 2 * a % n
            relevant = mask & dbl >> aa
            in_j = dbl >> a
            if relevant & ~in_j if mask >> aa & 1 else relevant & in_j:
                continue
        if any(dbl >> t & full == mask for t in shifts):
            continue
        nonzero = [i for i in range(1, n) if mask >> i & 1]
        if _pair_scan(n, mask, mask, nonzero, nonzero) is None:
            found.append(frozenset([0, *nonzero]))
    found.sort(key=lambda j: (len(j), tuple(sorted(j))))
    return found


def reduce_mod_stabilizer(u: DegreeSet):
    """Canonical pair (n, J): (U:U) = nZ and J = image of U in Z/n.

    Full reduces to (1, {0}).  The reduced residue set always has trivial
    stabilizer; that is re-checked here.
    """
    if u.form == FORM_WINDOWED:
        raise UnsupportedFormError("stabilizer reduction needs Full or Periodic")
    if u.form == FORM_FULL:
        return 1, frozenset({0})
    c = u.canonical()
    if c.form == FORM_FULL:
        return 1, frozenset({0})
    n, J = c.period, c.residues
    if n > 1:
        stab = [d for d in range(1, n)
                if frozenset((j + d) % n for j in J) == J]
        if stab:
            raise InternalConsistencyError("reduced set kept a nontrivial stabilizer")
    return n, J


# ---------------------------------------------------------------------------
# structure of ring-supporting subsets of Z

KIND_ALL = "all_of_z"
KIND_MONOID_POS = "submonoid_of_n"
KIND_MONOID_NEG = "submonoid_of_neg_n"
KIND_INTERVALS = "finite_interval_union"


@dataclass(frozen=True)
class IntervalDecomposition:
    kind: str
    intervals: tuple = ()
    zero_radius: int | None = None
    window_certified: bool = False


@dataclass(frozen=True)
class IntervalTranslation:
    orientation: str  # "right" for U [nk, nk+r], "left" for U [nk-r, nk]
    n: int
    r: int


def _cyclic_runs(J, n):
    """Maximal runs of consecutive residues mod n; (a, b) may wrap past n."""
    Jset = set(J)
    runs = []
    for j in sorted(Jset):
        if (j - 1) % n in Jset:
            continue
        b = j
        while (b + 1) % n in Jset:
            b += 1
        runs.append((j, b))
    return runs


def structure_decompose(u: DegreeSet) -> IntervalDecomposition:
    """Classify a ring-supporting set.

    Periodic sets are reduced to their canonical period n and split into the
    maximal integer intervals of one fundamental domain, anchored so the
    interval through 0 is [0, r] or [-r, 0] with 2r < n; both constraints are
    enforced and a violation on a ring-supporting input is an internal error.
    Windowed sets are classified on their window only.
    """
    verdict = is_ring_supporting(u)
    if not verdict.holds:
        raise PreconditionError(
            f"structure classification needs a ring-supporting set; witness {verdict.witness}")
    if u.form == FORM_FULL:
        return IntervalDecomposition(KIND_ALL)
    if u.form == FORM_PERIODIC:
        c = u.canonical()
        if c.form == FORM_FULL or (c.group.kind == "Zn" and len(c.residues) == c.period):
            return IntervalDecomposition(KIND_ALL)
        n, J = c.period, c.residues
        runs = _cyclic_runs(J, n)
        zero_run = None
        others = []
        for a, b in runs:
            if any(x % n == 0 for x in range(a, b + 1)):
                zero_run = (a, b)
            else:
                others.append((a, b))
        if zero_run is None:
            raise InternalConsistencyError("ring-supporting set lost its 0")
        a, b = zero_run
        shift = next(x for x in range(a, b + 1) if x % n == 0)
        a, b = a - shift, b - shift
        if not (a == 0 or b == 0):
            raise InternalConsistencyError(
                f"zero interval [{a}, {b}] is anchored at neither end")
        r = b - a
        if n > 1 and not 2 * r < n:
            raise InternalConsistencyError(f"zero interval too wide: 2*{r} >= {n}")
        intervals = [(a, b)]
        for oa, ob in sorted(others):
            while oa <= b:
                oa, ob = oa + n, ob + n
            intervals.append((oa, ob))
        for (_, b1), (a2, _) in zip(intervals, intervals[1:]):
            if not b1 < a2 - 1:
                raise InternalConsistencyError("adjacent intervals with gap < 2")
        if len(intervals) >= 1 and not intervals[-1][1] < intervals[0][0] + n - 1:
            raise InternalConsistencyError("wraparound gap < 2")
        return IntervalDecomposition(KIND_INTERVALS, tuple(intervals), r)
    # windowed: certified classification of what the window shows
    lo, hi = u.window
    els = sorted(u.elements)
    if els and els == list(range(lo, hi + 1)):
        return IntervalDecomposition(KIND_ALL, window_certified=True)
    if els and els[0] >= 0:
        closed = all(u.try_contains(x + y) is not False
                     for x in els for y in els if x + y <= hi)
        if closed and hi in u.elements:
            return IntervalDecomposition(KIND_MONOID_POS, window_certified=True)
    if els and els[-1] <= 0:
        closed = all(u.try_contains(x + y) is not False
                     for x in els for y in els if x + y >= lo)
        if closed and lo in u.elements:
            return IntervalDecomposition(KIND_MONOID_NEG, window_certified=True)
    runs = []
    for e in els:
        if runs and runs[-1][1] == e - 1:
            runs[-1] = (runs[-1][0], e)
        else:
            runs.append((e, e))
    zr = next((b - a for a, b in runs if a <= 0 <= b), None)
    return IntervalDecomposition(KIND_INTERVALS, tuple(runs), zr,
                                 window_certified=True)


def is_translation_of_interval(u: DegreeSet):
    """Match U against union-of-translates-of-one-interval shapes.

    Returns IntervalTranslation(orientation, n, r) when the canonical form of
    U is [0, r] + nZ (right) or [-r, 0] + nZ (left) with 0 <= 2r < n, else
    None.  r = 0 is reported as right.  U = Z is outside the pattern's
    hypotheses (its stabilizer index is 1) and raises.
    """
    if u.form == FORM_WINDOWED:
        raise UnsupportedFormError(
            "interval-translation recognition needs Full or Periodic forms")
    c = u.canonical()
    if c.form == FORM_FULL or (c.group.kind == "Zn" and len(c.residues) == c.period):
        raise PreconditionError("the whole group is excluded (needs period >= 2)")
    n, J = (c.period, c.residues)
    r = len(J) - 1
    if 2 * r >= n:
        return None
    if J == frozenset(range(r + 1)):
        return IntervalTranslation("right", n, r)
    if J == frozenset({0}) | frozenset((n - i) for i in range(1, r + 1)):
        return IntervalTranslation("left", n, r)
    return None
