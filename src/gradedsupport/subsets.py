"""Degree subsets of Z and Z/n and the combinatorics of support killing.

A DegreeSet is one of:

* Full: all of the grading group, stored as period 1 with residue 0 over
  Z and Z/n alike; the form only names it (repr, JSON, classification),
  so == and the hash leave it out and Full equals Periodic(1, {0}).
* Periodic(period n, residues J): the union of the classes nZ + j, j in J.
  Over the cyclic group Z/n the period must equal n and the set is just J.
* Windowed(elements, window): an explicit finite set, only certified on its
  window.  Only available over Z.

Every form has one bitmask view of the degrees [lo, hi] (_view): bit i of
its member mask is lo + i, and its known mask is all ones for Full and
Periodic sets and the window for a Windowed set.  One pair scan on these
views (_pair_scan) decides the premodular condition on (S, U) and, with
S = U, the ring-supporting one.  Over [0, m), m the common period of Full
and Periodic sets, the scan is exact (periodic views are unrolled over the
sums [0, 3m), so nothing is reduced mod m); with a Windowed set it runs on
the intersection of the windows, skips what is unknown there, and the
verdict carries window_certified=True.  SCAN_CAP caps its work, points a x
points b x mask bits, before any mask is built (CapacityError).  _shifts
reads the g with g + U = S off the same views, capped at shifts x bits.
canonical, stabilizer and reduce_mod_stabilizer all read (U : U) off one
owner, _period(U), the least d with d + U = U.

Argument order conventions follow the module side the ring acts on: right
pairs are written (S, U) with S the module support and U the ring set; left
pairs are written (U, S) with the ring set first.
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from operator import or_

from ._record import Record, replace, set_field
from .errors import (CapacityError, InternalConsistencyError, PreconditionError,
                     UnsupportedFormError, WindowViolationError)


class GradedGroup(Record):
    """Z (kind "Z") or Z/n (kind "Zn"); == and hash compare kind and n."""

    def __init__(self, kind: str, n: int | None = None):
        if kind not in ("Z", "Zn"):
            raise PreconditionError(f"unknown group kind {kind!r}")
        if kind == "Zn" and (n is None or n < 1):
            raise PreconditionError("cyclic group needs a modulus n >= 1")
        if kind == "Z" and n is not None:
            raise PreconditionError("Z carries no modulus")
        set_field(self, "kind", kind)
        set_field(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.n) == (other.kind, other.n)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.n))

    def add(self, a, b):
        return (a + b) % self.n if self.kind == "Zn" else a + b

    def neg(self, a):
        return (-a) % self.n if self.kind == "Zn" else -a

    def __repr__(self):
        return "Z" if self.kind == "Z" else f"Z/{self.n}"


Z = GradedGroup("Z")


def Zn(n):
    return GradedGroup("Zn", n)


class Verdict(Record):
    """Outcome of a decidable-or-window-checked property; == and hash
    compare all four fields."""

    def __init__(self, holds: bool, window_certified: bool = False,
                 witness: tuple | None = None, reason: str | None = None):
        set_field(self, "holds", holds)
        set_field(self, "window_certified", window_certified)
        set_field(self, "witness", witness)
        set_field(self, "reason", reason)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.holds, self.window_certified, self.witness,
                    self.reason) == (
                other.holds, other.window_certified, other.witness,
                other.reason)
        return NotImplemented

    def __hash__(self):
        return hash((self.holds, self.window_certified, self.witness,
                     self.reason))

    def __bool__(self):
        return self.holds


FORM_FULL = "full"
FORM_PERIODIC = "periodic"
FORM_WINDOWED = "windowed"


class DegreeSet(Record):
    """A degree set in one of three forms (module docstring); == and hash
    compare every field but form, which only names the set."""

    def __init__(self, group: GradedGroup, form: str,
                 period: int | None = None, residues: frozenset | None = None,
                 elements: frozenset | None = None,
                 window: tuple | None = None):
        set_field(self, "group", group)
        set_field(self, "form", form)
        set_field(self, "period", period)
        set_field(self, "residues", residues)
        set_field(self, "elements", elements)
        set_field(self, "window", window)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.period, self.residues, self.elements,
                    self.window) == (
                other.group, other.period, other.residues, other.elements,
                other.window)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.period, self.residues, self.elements,
                     self.window))

    # -- constructors ------------------------------------------------------

    @classmethod
    def full(cls, group=Z):
        return cls(group, FORM_FULL, period=1, residues=frozenset({0}))

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
        if self.form != FORM_WINDOWED:
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
        if self.form != FORM_WINDOWED:
            return [x for x in range(lo, hi + 1) if x % self.period in self.residues]
        wlo, whi = self.window
        return sorted(e for e in self.elements if max(lo, wlo) <= e <= min(hi, whi))

    # -- structure helpers --------------------------------------------------

    def negate(self):
        """{-x : x in this set}, in the same form."""
        if self.form != FORM_WINDOWED:
            n = self.period
            return replace(self, residues=frozenset((-r) % n for r in self.residues))
        lo, hi = self.window
        return DegreeSet.windowed({-e for e in self.elements}, (-hi, -lo))

    def translate(self, g):
        """{x + g : x in this set}, in the same form."""
        g = int(g)
        if self.form != FORM_WINDOWED:
            n = self.period
            return replace(self, residues=frozenset((r + g) % n for r in self.residues))
        lo, hi = self.window
        return DegreeSet.windowed({e + g for e in self.elements},
                                  (lo + g, hi + g))

    def canonical(self):
        """Reduce to the least period, Full if it is 1; Z/n keeps period n."""
        if self.form != FORM_PERIODIC:
            return self
        d = _period(self)
        if d == 1:
            return DegreeSet.full(self.group)
        m = self.group.n or d
        return DegreeSet.periodic(m, {j % m for j in self.residues}, self.group)

    def __repr__(self):
        if self.form == FORM_FULL:
            return f"DegreeSet.full({self.group!r})"
        if self.form == FORM_PERIODIC:
            return f"DegreeSet.periodic({self.period}, {sorted(self.residues)})"
        return f"DegreeSet.windowed({sorted(self.elements)}, {self.window})"


def same_set(a: DegreeSet, b: DegreeSet) -> bool:
    """Semantic equality for Full/Periodic forms; structural for Windowed."""
    return a.canonical() == b.canonical()


# ---------------------------------------------------------------------------
# bitmask views


def _common_modulus(*sets):
    """The lcm of the periods of Full/Periodic sets, a Full set's being 1."""
    return lcm(*(s.period for s in sets))


def _check_same_group(*sets):
    g = sets[0].group
    for s in sets[1:]:
        if s.group != g:
            raise PreconditionError("degree sets live over different groups")
    return g


def _view(x, lo, hi):
    """(members, known) masks of x over [lo, hi]: bit i is the degree lo + i."""
    ones = (1 << (hi - lo + 1)) - 1
    if x.form != FORM_WINDOWED:
        n = x.period
        members = sum(1 << p for r in x.residues
                      if (p := (r - lo) % n) <= hi - lo)
        span = n
        while span <= hi - lo:  # unroll one period up to the width
            members, span = members | members << span, 2 * span
        return members & ones, ones
    wlo, whi = max(lo, x.window[0]), min(hi, x.window[1])
    if wlo > whi:
        return 0, 0
    members = sum(1 << (e - lo) for e in x.elements if wlo <= e <= whi)
    return members, ((1 << (whi - wlo + 1)) - 1) << (wlo - lo)


def _bits(mask, lo=0):
    """The degrees lo + i of the set bits i of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(lo + low.bit_length() - 1)
        mask ^= low
    return out


def _count_in(x, lo, hi):
    """How many members x has in [lo, hi], without listing them."""
    if x.form != FORM_WINDOWED:
        n = x.period
        return sum((hi - r) // n - (lo - 1 - r) // n for r in x.residues)
    return sum(lo <= e <= hi for e in x.elements)


def _shifts(s, u, shifts):
    """The g >= 0 in shifts with g + U = S wherever both views, over ranges
    with a common lo, are known."""
    (s_in, s_known), (u_in, u_known) = s, u
    return [g for g in shifts
            if not (s_in ^ u_in << g) & s_known & u_known << g]


def _rotations(s, u):
    """The g in [0, m) with g + U = S, m the common period, ascending.

    Full/Periodic only.  Only g with g + u0 in S, u0 = min U, are tested:
    one 2m-bit shift per member of S in [0, m), capped before any view.
    """
    m = _common_modulus(s, u)
    n = _count_in(s, 0, m - 1)
    _check_cap(n * 2 * m, f"the rotation scan tests {n} shifts on "
                          f"{2 * m}-bit masks")
    s_view, u_view = _view(s, 0, 2 * m - 1), _view(u, 0, m - 1)
    u0 = (u_view[0] & -u_view[0]).bit_length() - 1
    in_s = _bits(s_view[0] & u_view[1])  # the members of S in [0, m)
    return _shifts(s_view, u_view, sorted((x - u0) % m for x in in_s))


def _period(u):
    """The least d > 0 with d + U = U, U Full or Periodic, so (U : U) is
    generated by d: the one scan of U's rotations, checked to be a subgroup."""
    n = u.period
    if len(u.residues) == n:
        return 1
    stab = _rotations(u, u)
    d = n // len(stab)
    if stab != list(range(0, n, d)):
        raise InternalConsistencyError("stabilizer is not a subgroup")
    return d


# ---------------------------------------------------------------------------
# the pair scan

SCAN_CAP = 10 ** 8


def _check_cap(work, what):
    if work > SCAN_CAP:
        raise CapacityError(f"{what}, over the cap of {SCAN_CAP}")


def _pair_scan(s2, s3, u2, c_mask, lo, a_order, bc_order):
    """First (a, b, c) breaking the pair condition, or None.

    The condition: for a in S and b, c in U with a+b+c in S, a+b in S iff
    b+c in U.  a walks a_order and b, c walk bc_order, points of [lo, hi];
    c_mask has bit c - lo for each c.  s2, u2 view S, U over [2lo, 2hi] and
    s3 views S over [3lo, 3hi], so against c_mask s3 >> (a+b - 2lo) reads
    a+b+c and u2 >> (b - lo) reads b+c.  A pair with a+b unknown is
    skipped; otherwise the breaking c are one mask: a+b+c in S and, if a+b
    is in S, b+c known and not in U, else b+c in U.  The witness's c is the
    first breaking one in bc_order, so the caller's orders pick the witness.
    """
    (s2_in, s2_known), (s3_in, _), (u2_in, u2_known) = s2, s3, u2
    u2_out = u2_known & ~u2_in
    for a in a_order:
        for b in bc_order:
            ab = a + b - 2 * lo
            if s2_known >> ab & 1:
                bc = (u2_out if s2_in >> ab & 1 else u2_in) >> (b - lo)
                bad = c_mask & s3_in >> ab & bc
                if bad:
                    return a, b, next(c for c in bc_order
                                      if bad >> (c - lo) & 1)
    return None


def _points(s, u):
    """[lo, hi]: the intersection of the windows if either set has one,
    else [0, m), m the common period."""
    windows = [x.window for x in (s, u) if x.form == FORM_WINDOWED]
    if windows:
        return max(w[0] for w in windows), min(w[1] for w in windows)
    return 0, _common_modulus(s, u) - 1


def _scan(s, u, order=None) -> Verdict:
    """The pair condition on (S, U) from one _pair_scan over _points(S, U):
    a walks the members of S there and b, c those of U, ascending, or all
    three walk `order`."""
    windowed = FORM_WINDOWED in (s.form, u.form)
    lo, hi = _points(s, u)
    if lo > hi:  # disjoint windows: nothing to scan
        return Verdict(True, window_certified=True)
    na, nb = ((len(order),) * 2 if order is not None
              else (_count_in(s, lo, hi), _count_in(u, lo, hi)))
    width = 3 * (hi - lo) + 1
    _check_cap(na * nb * width, f"the pair scan over [{lo}, {hi}] walks "
                                f"{na} x {nb} points on {width}-bit masks")
    witness = None
    if na and nb:  # with no pair, even a width past the cap builds nothing
        c_mask = _view(u, lo, hi)[0]
        a_order, bc_order = ((order, order) if order is not None else
                             (_bits(_view(s, lo, hi)[0], lo), _bits(c_mask, lo)))
        witness = _pair_scan(_view(s, 2 * lo, 2 * hi), _view(s, 3 * lo, 3 * hi),
                             _view(u, 2 * lo, 2 * hi), c_mask, lo, a_order,
                             bc_order)
    return Verdict(witness is None, window_certified=windowed, witness=witness)


# ---------------------------------------------------------------------------
# predicates


def is_ring_supporting(u: DegreeSet) -> Verdict:
    """Whether support-restricted multiplication at u is always associative.

    The defining condition: for all members a, b, c with a+b+c in U,
    a+b in U iff b+c in U.  Requires 0 in U.  A periodic set is walked in
    u.residues iteration order, which decides its witness.
    """
    if u.try_contains(0) is not True:
        raise PreconditionError("a ring-supporting candidate must contain 0")
    return _scan(u, u, list(u.residues) if u.form != FORM_WINDOWED else None)


def is_right_premodular(s: DegreeSet, u: DegreeSet) -> Verdict:
    """Right pair (S, U): for (a,b,c) in S x U x U with a+b+c in S,
    a+b in S iff b+c in U."""
    _check_same_group(s, u)
    return _scan(s, u)


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
    """(U : U) = {g : g + U = U}, always a subgroup, from d = _period(U).

    Full when d = 1, also over Z/n; else dZ as Periodic(d, {0}), over Z/n
    the residues 0, d, 2d, ...  Windowed forms get a window-certified
    approximation.
    """
    if u.form != FORM_WINDOWED:
        d = _period(u)
        if d == 1:
            return DegreeSet.full(u.group)
        m = u.group.n or d
        return DegreeSet.periodic(m, range(0, m, d), u.group)
    # g and -g compare the same overlapping part of the window
    lo, hi = u.window
    width = hi - lo + 1
    _check_cap(width * width, f"the stabilizer scan tests {width} shifts on "
                              f"{width}-bit masks")
    view = _view(u, lo, hi)
    fixed = set(_shifts(view, view, range(width)))
    return DegreeSet.windowed([g for g in range(lo, hi + 1) if abs(g) in fixed],
                              (lo, hi))


def quotient_set(s: DegreeSet, u: DegreeSet):
    """(S : U) = {g : g + U = S}; None when empty.

    For every S and U a nonempty (S : U) is one coset g + (U : U): g' + U = S
    = g + U exactly when g' - g fixes U.  It is built from the least rotation
    g in [0, m), m the common period, and checked against all of them.  A
    translate of U has as many members as U in [0, m), so sets of unequal
    density answer None before any scan.
    """
    _check_same_group(s, u)
    if s.form == FORM_WINDOWED or u.form == FORM_WINDOWED:
        raise UnsupportedFormError("quotient sets need Full or Periodic forms")
    m = _common_modulus(s, u)
    if _count_in(s, 0, m - 1) != _count_in(u, 0, m - 1):
        return None
    good = _rotations(s, u)
    if not good:
        return None
    result = stabilizer(u).translate(good[0])
    if result.members_in(0, m - 1) != good:
        raise InternalConsistencyError("(S:U) is not a coset of (U:U)")
    return result


# ---------------------------------------------------------------------------
# enumeration of ring-supporting residue sets

ENUMERATION_CAP = 16


def enumerate_ring_supporting(n) -> list:
    """All J in Z/n with 0 in J, J ring-supporting, trivial stabilizer.

    Sorted by cardinality then lexicographically on the sorted residue
    tuple.  For n = 1 the answer [{0}] stands for U = Z.

    The candidates J_m = {0} u {k+1 : bit k of m}, m < 2^(n-1), are
    bit-sliced: bit m of planes[x] is set iff x is in J_m, so one AND, OR
    or XOR of planes evaluates a membership formula on every candidate at
    once; planes[k+1] repeats 2^k zeros and 2^k ones.  J_m is dropped when

    * a, b, c, a+b+c lie in J and exactly one of a+b, b+c does.  Triples
      with a zero never break (b = 0 puts a+b and b+c at a and c, a = 0 at
      b and a+b+c), and the condition is symmetric in a and c, so nonzero
      a <= c are walked, grouped by s = a+b: both[c] has c and s+c in J,
      differ[y] exactly one of s and y.
    * a proper divisor d of n fixes J: a nonzero g fixing J generates the
      subgroup that gcd(g, n) does.
    """
    if n < 1:
        raise PreconditionError(f"modulus must be >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration capped at n <= {ENUMERATION_CAP}, got {n}")
    planes = [1]  # over the one candidate m = 0, then doubled: w -> 2w
    for k in range(n - 1):  # J_(m + w) is J_m plus the residue k+1
        w = 1 << k
        planes = [p | p << w for p in planes] + [((1 << w) - 1) << w]
    bad = 0
    for s in range(n):
        both = [planes[c] & planes[(s + c) % n] for c in range(n)]
        differ = [planes[s] ^ p for p in planes]
        for b in range(1, n):
            if a := (s - b) % n:
                bad |= planes[a] & planes[b] & reduce(
                    or_, [both[c] & differ[(b + c) % n] for c in range(a, n)])
    good = planes[0] & ~bad
    for d in (d for d in range(1, n) if n % d == 0):
        good &= reduce(or_, [planes[x] ^ planes[(x + d) % n] for x in range(n)])
    # lists, not tuples: thousands of freed tuples stay on their free lists
    # and fragment the heap, so peak RSS would creep up from call to call
    low = [[0, *(k + 1 for k in _bits(t))] for t in range(8)]
    found = []  # m = 8i + t: t holds residues 1..3 and i the rest
    for i, byte in enumerate(good.to_bytes(1 << n >> 4 or 1, "little")):
        if byte:
            high = [k + 4 for k in _bits(i)]
            found += [low[t] + high for t in _bits(byte)]
    found.sort()
    found.sort(key=len)  # stable: by size, then lexicographically
    return list(map(frozenset, found))


def reduce_mod_stabilizer(u: DegreeSet):
    """Canonical pair (d, J mod d), d = _period(U): (U : U) is generated by d
    and J mod d, the image of U in Z/d, has trivial stabilizer.  Z/n sets
    are answered like Z sets; Full reduces to (1, {0}).
    """
    if u.form == FORM_WINDOWED:
        raise UnsupportedFormError("stabilizer reduction needs Full or Periodic")
    d = _period(u)
    return d, frozenset(j % d for j in u.residues)


# ---------------------------------------------------------------------------
# structure of ring-supporting subsets of Z

KIND_ALL = "all_of_z"
KIND_MONOID_POS = "submonoid_of_n"
KIND_MONOID_NEG = "submonoid_of_neg_n"
KIND_INTERVALS = "finite_interval_union"


class IntervalDecomposition(Record):
    """The shape structure_decompose finds; == and hash compare all four
    fields."""

    def __init__(self, kind: str, intervals: tuple = (),
                 zero_radius: int | None = None,
                 window_certified: bool = False):
        set_field(self, "kind", kind)
        set_field(self, "intervals", intervals)
        set_field(self, "zero_radius", zero_radius)
        set_field(self, "window_certified", window_certified)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.intervals, self.zero_radius,
                    self.window_certified) == (
                other.kind, other.intervals, other.zero_radius,
                other.window_certified)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.intervals, self.zero_radius,
                     self.window_certified))


class IntervalTranslation(Record):
    """U as the translates nk + [0, r] (orientation "right") or
    nk + [-r, 0] ("left"); == and hash compare all three fields."""

    def __init__(self, orientation: str, n: int, r: int):
        set_field(self, "orientation", orientation)
        set_field(self, "n", n)
        set_field(self, "r", r)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.orientation, self.n, self.r) == (
                other.orientation, other.n, other.r)
        return NotImplemented

    def __hash__(self):
        return hash((self.orientation, self.n, self.r))


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

    Periodic sets are reduced modulo their stabilizer to (n, J), the same
    over Z and Z/n (reduce_mod_stabilizer), and J is split into the
    maximal integer intervals of one fundamental domain, anchored so the
    interval through 0 is [0, r] or [-r, 0] with 2r < n; both constraints are
    enforced and a violation on a ring-supporting input is an internal error.
    Windowed sets are classified on their window only.
    """
    verdict = is_ring_supporting(u)
    if not verdict.holds:
        raise PreconditionError(
            f"structure classification needs a ring-supporting set; witness {verdict.witness}")
    if u.form != FORM_WINDOWED:
        n, J = reduce_mod_stabilizer(u)
        if n == 1:
            return IntervalDecomposition(KIND_ALL)
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

    Returns IntervalTranslation(orientation, n, r) when U reduced modulo
    its stabilizer (reduce_mod_stabilizer, the same over Z and Z/n) is
    [0, r] + nZ (right) or [-r, 0] + nZ (left) with 0 <= 2r < n, else
    None.  r = 0 is reported as right.  U = Z is outside the pattern's
    hypotheses (its stabilizer index is 1) and raises.
    """
    if u.form == FORM_WINDOWED:
        raise UnsupportedFormError(
            "interval-translation recognition needs Full or Periodic forms")
    n, J = reduce_mod_stabilizer(u)
    if n == 1:
        raise PreconditionError("the whole group is excluded (needs period >= 2)")
    r = len(J) - 1
    if 2 * r >= n:
        return None
    if J == frozenset(range(r + 1)):
        return IntervalTranslation("right", n, r)
    if J == frozenset({0}) | frozenset((n - i) for i in range(1, r + 1)):
        return IntervalTranslation("left", n, r)
    return None
