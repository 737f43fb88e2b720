"""Windowed maps Z -> Z used to regrade algebras.

A WindowedMap stores phi on a finite domain window.  The pseudomorphism
property (phi(0) = 0, injective, and phi(a) + phi(b) in Im(phi) forces
phi(a+b) = phi(a) + phi(b)) can only be certified on the window, so the
checker returns a window-certified Verdict.  Its additivity scan walks
every pair of window points, so PAIR_CAP bounds the pairs it will take on.

delta_map builds the increasing enumeration of a periodic set anchored at a
chosen image of 0: for U with canonical period n and residues
i_0 = 0 < i_1 < ... < i_{t-1}, the map sends t*j + k to s0 + n*j + i_k.
That is the unique strictly increasing bijection from Z onto s0 + U with
delta(0) = s0.
"""

from __future__ import annotations

from ._record import Record, set_field
from .errors import (CapacityError, PreconditionError, UnsupportedFormError,
                     WindowViolationError)
from .subsets import (FORM_FULL, FORM_PERIODIC, DegreeSet, Verdict)


class WindowedMap(Record):
    """phi on the inclusive window (lo, hi), values[k - lo] = phi(k); == and
    hash compare the window and the values."""

    def __init__(self, window: tuple, values: tuple):
        lo, hi = window
        if lo > hi:
            raise PreconditionError(f"empty window [{lo}, {hi}]")
        if len(values) != hi - lo + 1:
            raise PreconditionError("one value per window point required")
        set_field(self, "window", window)
        set_field(self, "values", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.window, self.values) == (other.window, other.values)
        return NotImplemented

    def __hash__(self):
        return hash((self.window, self.values))

    @classmethod
    def from_pairs(cls, pairs):
        d = {}
        for k, v in pairs:
            k = int(k)
            if k in d:
                raise PreconditionError(f"duplicate argument {k}")
            d[k] = int(v)
        if not d:
            raise PreconditionError("a windowed map needs at least one value")
        lo, hi = min(d), max(d)
        if set(d) != set(range(lo, hi + 1)):
            raise PreconditionError("map domain must be a contiguous window")
        return cls((lo, hi), tuple(d[k] for k in range(lo, hi + 1)))

    @classmethod
    def from_function(cls, f, window):
        lo, hi = window
        return cls((lo, hi), tuple(int(f(k)) for k in range(lo, hi + 1)))

    @classmethod
    def identity(cls, window):
        return cls.from_function(lambda k: k, window)

    def __call__(self, k):
        lo, hi = self.window
        if k < lo or k > hi:
            raise WindowViolationError(f"{k} outside map window {self.window}")
        return self.values[k - lo]

    def image(self):
        return frozenset(self.values)

    def domain(self):
        lo, hi = self.window
        return range(lo, hi + 1)


def delta_map(u: DegreeSet, s0: int, window) -> WindowedMap:
    """Increasing enumeration of s0 + U (anchored so delta(0) = s0).

    U must be Full or Periodic over Z; the canonical period and residues
    drive the closed form, so any periodic presentation works.
    """
    if u.group.kind != "Z":
        raise UnsupportedFormError("enumeration maps are defined over Z")
    if u.form not in (FORM_FULL, FORM_PERIODIC):
        raise UnsupportedFormError("enumeration needs Full or Periodic sets")
    if u.try_contains(0) is not True:
        raise PreconditionError("enumeration is anchored at 0, which must lie in U")
    c = u.canonical()
    n, offsets = c.period, tuple(sorted(c.residues))
    t = len(offsets)

    def phi(x):
        j, k = divmod(x, t)
        return s0 + n * j + offsets[k]

    return WindowedMap.from_function(phi, window)


PAIR_CAP = 10 ** 6


def is_pseudomorphism(phi: WindowedMap) -> Verdict:
    """Window-certified check of the regrading-map axioms.

    Witnesses: ("zero",) if phi(0) != 0 or 0 is outside the window,
    (a, b) for an injectivity collision or an additivity failure.  An
    injective map whose window has more than PAIR_CAP pairs raises
    CapacityError before the additivity scan.
    """
    lo, hi = phi.window
    if not lo <= 0 <= hi:
        return Verdict(False, window_certified=True, witness=("zero",),
                       reason="0 outside domain window")
    if phi(0) != 0:
        return Verdict(False, window_certified=True, witness=("zero",),
                       reason="phi(0) != 0")
    seen = {}
    for k in phi.domain():
        v = phi(k)
        if v in seen:
            return Verdict(False, window_certified=True, witness=(seen[v], k),
                           reason="not injective")
        seen[v] = k
    pairs = len(seen) ** 2
    if pairs > PAIR_CAP:
        raise CapacityError(f"the additivity scan walks {pairs} pairs of "
                            f"window points, over the cap of {PAIR_CAP}")
    img = seen
    for a in phi.domain():
        fa = phi(a)
        for b in phi.domain():
            s = a + b
            if s < lo or s > hi:
                continue
            total = fa + phi(b)
            if total in img and phi(s) != total:
                return Verdict(False, window_certified=True, witness=(a, b),
                               reason="additivity fails inside the image")
    return Verdict(True, window_certified=True)


def preimage_subgroup(phi: WindowedMap, h: DegreeSet) -> DegreeSet:
    """phi^{-1}(H) as a windowed set on phi's domain window.

    H must be a subgroup given in Full/Periodic form and must be contained in
    Im(phi) as far as the window can see: every member of H between the
    extreme values of phi must be hit.
    """
    if h.form not in (FORM_FULL, FORM_PERIODIC):
        raise UnsupportedFormError("subgroup must be in Full or Periodic form")
    if h.try_contains(0) is not True:
        raise PreconditionError("a subgroup contains 0")
    img = phi.image()
    for v in h.members_in(min(img), max(img)):
        if v not in img:
            raise PreconditionError(
                f"subgroup member {v} is not in the window image of the map")
    members = [k for k in phi.domain() if h.try_contains(phi(k))]
    return DegreeSet.windowed(members, phi.window)
