"""Regrading graded algebras and modules along a windowed pseudomorphism.

Component sigma of the regrading of X along phi (regrade_maps) is
X_{phi(sigma)}, and its map at (sigma, tau) is X's at (phi(sigma),
phi(tau)); un-regrading pushes a module back.  Every map is passed through
as X's own row dicts (see graded_objects).  A regraded algebra carries its
ancestry, as a killed one does, so a regrading handed back the algebra it
built, or one along the same map of an equal algebra, is known without a
rebuild; any other algebra is compared with a rebuild.
"""

from __future__ import annotations

from .errors import (GradingViolationError, InternalConsistencyError,
                     PreconditionError)
from .graded_objects import GradedAlgebra, GradedModule, algebras_equal
from .regrade_maps import WindowedMap, is_pseudomorphism


class _RegradedAlgebra(GradedAlgebra):
    """regrade_algebra(base, phi), carrying base and phi."""

    def __init__(self, base, phi, window, components, mult):
        super().__init__(base.group, window, base.k, base.field, components,
                         mult, base.unit)
        self.base, self.phi = base, phi

    def _fields(self, base, phi, window, components, mult):
        super()._fields(base.group, window, base.k, base.field, components,
                        mult, base.unit)
        self.base, self.phi = base, phi


def _check_regrade(x, phi: WindowedMap):
    if x.group.kind != "Z":
        raise PreconditionError("regrading applies to Z-graded objects")
    v = is_pseudomorphism(phi)
    if not v.holds:
        raise PreconditionError(
            f"map is not a pseudomorphism on its window: {v.reason}, "
            f"witness {v.witness}")


def regrade_algebra(b: GradedAlgebra, phi: WindowedMap) -> GradedAlgebra:
    """New grading with component sigma = B_{phi(sigma)}.

    Requires every nonzero component of B to sit inside the window image of
    phi, so the new grading sees all of B.  Products between image degrees
    that land outside the image are necessarily zero under that hypothesis.
    """
    _check_regrade(b, phi)
    return _regraded_algebra(b, phi)


def _regraded_algebra(b, phi):
    return _RegradedAlgebra._of(b, phi, *_regraded_parts(b, phi, 0))


def regrade_module(x: GradedModule, phi: WindowedMap, g: int = 0,
                   algebra: GradedAlgebra | None = None) -> GradedModule:
    """New grading with component sigma = X_{g + phi(sigma)}; a given
    algebra must be regrade_algebra(x.over, phi), and is refused otherwise
    once x's own parts are built (_is_regrading)."""
    _check_regrade(x, phi)
    over = algebra
    if over is None:
        over = _regraded_algebra(x.over, phi)
    window, comps, action = _regraded_parts(x, phi, g)
    if algebra is not None and not _is_regrading(algebra, x.over, phi):
        raise PreconditionError(_NOT_REGRADING)
    return GradedModule._of(over, window, comps, action)


_NOT_REGRADING = ("the given algebra and the module's are not an algebra "
                  "and its regrading along the map")


def _is_regrading(r, b, phi: WindowedMap) -> bool:
    """Whether r is regrade_algebra(b, phi), for a pseudomorphism phi.

    At once when r was built as a regrading along phi of an algebra equal
    to b (algebras_equal, identity first).  Else r is compared with b's
    regrading, rebuilt; a b that has no regrading along phi gives False.
    """
    # identity first: a dataclass's == compares the fields at once
    if isinstance(r, _RegradedAlgebra) and (r.phi is phi or r.phi == phi) \
            and algebras_equal(r.base, b):
        return True
    try:
        return algebras_equal(r, _regraded_algebra(b, phi))
    except PreconditionError:  # grading violations included
        return False


def _regraded_parts(x, phi: WindowedMap, g: int):
    """Window, components and maps of x regraded along phi, shifted by g.

    Component sigma is X_{g + phi(sigma)} and the map at (sigma, tau) is the
    map of x at (g + phi(sigma), phi(tau)).  Only positions whose image falls
    inside x's window are certified by x, so the new window is clipped to
    them.  A map whose value sum leaves the image is zero, its target being
    off g + Im(phi); a nonzero map whose target has no slot in the new
    window raises a grading violation with witness (sigma, tau).
    """
    img = phi.image()
    for d in x.degrees():
        if d - g not in img:
            raise PreconditionError(
                f"nonzero component at degree {d} lies outside "
                f"{g} + Im(phi)")
    positions = [s for s in phi.domain() if x.in_window(g + phi(s))]
    if not positions:
        raise PreconditionError("the regrading map misses the window")
    lo, hi = positions[0], positions[-1]
    comps = {s: c for s in range(lo, hi + 1)
             if (c := x.component(g + phi(s))).dim}
    right = x._acting()
    taus = [t for t in phi.domain() if right.component(phi(t)).dim]
    maps = {}
    for sigma in comps:
        for tau in taus:
            rows = x._rows(g + phi(sigma), phi(tau))
            st, total = sigma + tau, phi(sigma) + phi(tau)
            if rows is None or total not in img:
                continue
            if not lo <= st <= hi:
                # the target exists in x but the new grading has no slot for it
                if rows:
                    raise GradingViolationError(
                        f"{x._map_name} leaves the regrading window",
                        witness=(sigma, tau))
                continue
            if phi(st) != total:
                raise InternalConsistencyError(
                    "pseudomorphism certificate violated during regrading")
            maps[(sigma, tau)] = rows
    return (lo, hi), comps, maps


def un_regrade_module(v: GradedModule, phi: WindowedMap, g: int = 0,
                      algebra: GradedAlgebra | None = None) -> GradedModule:
    """Inverse of regrade_module on modules satisfying the vanishing pattern.

    V must kill every action V_sigma x B_tau with phi(sigma) + phi(tau)
    outside the window image of phi; otherwise the result would not be graded
    and a grading violation with witness (sigma, tau) is raised.  When the
    algebra to grade over is not supplied it is rebuilt by pushing V's
    algebra forward along phi, whose products obey the same pattern.  A
    supplied algebra B must be one that V's algebra is the regrading of,
    regrade_algebra(B, phi): the algebra a regrade_module call regraded
    from, say, whose window may reach past the push-forward's.  Any other is
    refused once the pushed maps and window are built (_is_regrading).
    """
    _check_regrade(v, phi)
    action = _pushed_maps(v, phi, g)
    over = algebra
    if over is None:
        over = _push_forward_algebra(v.over, phi)
    window = _pushed_window(v, phi, g)
    if algebra is not None and not _is_regrading(v.over, algebra, phi):
        raise PreconditionError(_NOT_REGRADING)
    comps = {g + phi(sigma): v.component(sigma) for sigma in v.degrees()}
    return GradedModule._of(over, window, comps, action)


def _pushed_window(x, phi: WindowedMap, g: int = 0):
    """g + the least and greatest value of phi on x's window met with phi's,
    which hold every pushed component."""
    lo = max(x.window[0], phi.window[0])
    hi = min(x.window[1], phi.window[1])
    if lo > hi:
        what = "algebra" if x._acting() is x else "module"
        raise PreconditionError(f"the {what} window misses the map window")
    values = [phi(s) for s in range(lo, hi + 1)]
    return g + min(values), g + max(values)


def _pushed_maps(x, phi: WindowedMap, g: int = 0):
    """x's maps moved from (sigma, tau) to (g + phi(sigma), phi(tau)).

    The vanishing pattern: a map with phi(sigma) + phi(tau) outside the
    window image of phi is dropped when it is zero and raises a grading
    violation with witness (sigma, tau) otherwise, the least such pair
    first.
    """
    img = phi.image()
    maps = {}
    for (sigma, tau), rows in sorted(x._table().items()):
        if phi(sigma) + phi(tau) in img:
            maps[(g + phi(sigma), phi(tau))] = rows
        elif rows:
            raise GradingViolationError(
                f"{x._map_name} violates the regrading vanishing pattern",
                witness=(sigma, tau))
    return maps


def _push_forward_algebra(bt: GradedAlgebra, phi: WindowedMap) -> GradedAlgebra:
    window = _pushed_window(bt, phi)
    comps = {phi(s): c for s in phi.domain() if (c := bt.component(s)).dim}
    return GradedAlgebra._of(bt.group, window, bt.k, bt.field, comps,
                             _pushed_maps(bt, phi), bt.unit)
