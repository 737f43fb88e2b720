"""Lifting modules over a support-killed algebra back to the ambient one.

Setting: A is a positively Z-graded algebra generated in degrees 0 and 1
with split semisimple degree-0 part, U is a ring-supporting subset of Z and
(S, U) is a right modular pair with nonempty quotient set Q = (S : U).
Killing supports sends a graded A-module M to the A_U-module M_S; a module X
over A_U is liftable when it arises this way from some M generated in
Q-degrees and cogenerated in S-degrees.  Liftability is decided by the
kernel containments

    Ker(mu_{m,u}) A_{v-u}  inside  Ker(mu_{m,v})

over m in Q and u < v in U with v - u outside U, where mu_{m,u} is the
action map X_m (x) A_u -> X_{m+u}.  When U is a translated interval pattern
the family collapses to a short list of (u, v) pairs per m.

The lift is induced / W: the induced module (X_Q tensored over A_0 with A)
modulo the vectors whose every product into S evaluates to zero in X.
Because every module here has genuinely finite support, all scans over
"all m" or "all u < v" terminate and are exact, not window-limited: every
skipped triple involves a zero component and holds vacuously.

Also here: the category equivalence harness (hom dimensions before and
after killing agree), the membership conditions for regraded modules, and
the end-to-end pipeline that regrades A_U along the interval pseudomorphism
and reports the vanishing pattern plus the membership conditions for the
regular module.
"""

from __future__ import annotations

import random

from ._record import Record, set_field
from .constructions import _LayoutModule, regular_module
from .errors import InternalConsistencyError, PreconditionError
from .exactlin import Matrix, _accumulate, _rank, kernel
from .graded_core import (_check_modular_pair, _kill_module,
                          _vanishing_spaces, closure_under_action,
                          hom_space_basis, hom_space_dim, is_cogenerated_in,
                          is_generated_in, kill_support_algebra,
                          quotient_with_maps, torsion_spaces)
from .graded_objects import (GradedAlgebra, GradedModule, KilledAlgebra,
                             _tag_escape, algebras_equal,
                             is_generated_in_degrees_01, validate_algebra)
from .regrade_maps import delta_map, preimage_subgroup
from .regrading import _is_regrading, regrade_algebra
from .subsets import DegreeSet, is_translation_of_interval, quotient_set


class LiftReport(Record):
    """Outcome of a liftability check, optionally with the lift attached.

    violations lists (m, u, v, vector): the vector is an element of
    X_m (x) A_v obtained by multiplying a kernel element of mu_{m,u} into
    A_v, whose image under mu_{m,v} is nonzero.  Verdicts are exact for the
    finitely supported inputs handled here, so window_certified stays False
    in the same convention used by set-level verdicts.  == and hash compare
    all eight fields, the lift included.
    """

    def __init__(self, liftable: bool, violations: tuple,
                 triples_checked: int = 0, lift: GradedModule | None = None,
                 isomorphism_certified: bool = False,
                 generated_certified: bool = False,
                 cogenerated_certified: bool = False,
                 window_certified: bool = False):
        set_field(self, "liftable", liftable)
        set_field(self, "violations", violations)
        set_field(self, "triples_checked", triples_checked)
        set_field(self, "lift", lift)
        set_field(self, "isomorphism_certified", isomorphism_certified)
        set_field(self, "generated_certified", generated_certified)
        set_field(self, "cogenerated_certified", cogenerated_certified)
        set_field(self, "window_certified", window_certified)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.liftable, self.violations, self.triples_checked,
                    self.lift, self.isomorphism_certified,
                    self.generated_certified, self.cogenerated_certified,
                    self.window_certified) == (
                other.liftable, other.violations, other.triples_checked,
                other.lift, other.isomorphism_certified,
                other.generated_certified, other.cogenerated_certified,
                other.window_certified)
        return NotImplemented

    def __hash__(self):
        return hash((self.liftable, self.violations, self.triples_checked,
                     self.lift, self.isomorphism_certified,
                     self.generated_certified, self.cogenerated_certified,
                     self.window_certified))

    def __bool__(self):
        return self.liftable


# ---------------------------------------------------------------------------
# hypotheses shared by the liftability operations


def _resolve_algebra(x: GradedModule, a):
    if a is not None:
        return a
    if isinstance(x.over, KilledAlgebra):
        return x.over.base
    raise PreconditionError(
        "the ambient algebra is required when the module's algebra does not "
        "remember what it was killed from")


def _check_hypotheses(x: GradedModule, s: DegreeSet, u: DegreeSet,
                      a: GradedAlgebra | None):
    """Common preconditions, each decided once; returns the ambient algebra
    and the Q-degrees at which x is nonzero, Q = (S : U)."""
    a = _resolve_algebra(x, a)
    q = _check_hypotheses_algebra_only(a, s, u)
    _check_ambient_tags(a)
    if not algebras_equal(x.over, kill_support_algebra(a, u)):
        raise PreconditionError(
            "the module is not over the support-killed form of the given "
            "algebra")
    for d in x.degrees():
        if not s.contains(d):
            raise PreconditionError(
                f"module has a nonzero component at degree {d} outside S")
    qdegs = [m for m in x.degrees() if q.try_contains(m)]
    if not is_generated_in(x, qdegs):
        raise PreconditionError(
            "module is not generated in quotient-set degrees")
    return a, qdegs


def _check_hypotheses_algebra_only(a, s, u):
    """Preconditions on A and (S, U) alone; returns Q = (S : U)."""
    if a.group.kind != "Z":
        raise PreconditionError("lifting is defined for Z-graded algebras")
    if a.window[0] != 0:
        raise PreconditionError("the ambient algebra must be positively "
                                "graded with window starting at 0")
    if a.component(0).dim != a.k:
        raise PreconditionError("the degree-0 part must be split semisimple "
                                "(one basis idempotent per tag)")
    if not is_generated_in_degrees_01(a):
        raise PreconditionError(
            "the ambient algebra must be generated in degrees 0 and 1")
    _check_modular_pair(s, u)
    return _quotient_set(s, u)


def _check_ambient_tags(a):
    """Refuse an ambient algebra whose product escapes its tag blocks: the
    kernel push leans on tag matching in A's products, not only in the
    module's."""
    witness = _tag_escape(a)
    if witness is not None:
        raise PreconditionError(f"not an algebra: the ambient product escapes "
                                f"its tag block, witness {witness}")


def _quotient_set(s, u):
    """(S : U), refused when empty."""
    q = quotient_set(s, u)
    if q is None:
        raise PreconditionError("the quotient set (S : U) is empty")
    return q


def _u_degrees(u: DegreeSet, a: GradedAlgebra):
    return [d for d in u.members_in(0, a.window[1]) if a.component(d).dim]


# ---------------------------------------------------------------------------
# the kernel-containment scan


def _kernel_push(x: GradedModule, a: GradedAlgebra, m, xu, xv, gap):
    """Test Ker(mu_{m,xu}) A_gap inside Ker(mu_{m,xv}) on the module x.

    mu_{m,d} is the action X_m (x) B_d -> X_{m+d} of x over its algebra B.
    A kernel vector is pushed into X_m (x) B_xv by the products
    A_xu x A_gap -> A_{xu+gap} of the ambient algebra, whose basis is that of
    B_xv.  Returns None when a component or the matched pairs of
    X_m (x) B_xu vanish, so the condition does not arise.  Otherwise returns
    (tested, witness): tested is False when the kernel or mu_{m,xv} is zero
    and the containment holds trivially; witness is the first pushed vector
    mu_{m,xv} does not kill, or None.
    """
    b = x.over
    if b.component(xu).dim == 0 or a.component(gap).dim == 0 \
            or b.component(xv).dim == 0:
        return None
    pairs_u = x.pairs(m, xu)
    if not pairs_u:
        return None
    F = a.field
    z = F.zero()
    # an absent mu_{m,xu} lands in a zero component: its kernel is everything
    ker = kernel(x.action_matrix(m, xu) or Matrix.zero(F, len(pairs_u), 0))
    rows_v = x._rows(m, xv)
    if ker.dim == 0 or rows_v is None:
        return False, None
    for w in ker.basis:
        for ell in range(a.component(gap).dim):
            # entry (i, qq) of the push: x_i (x) a_j a_ell, j from pair idx;
            # A keeps its tag blocks, so each lands on a pair of (m, xv)
            pushed = _accumulate(F, w, lambda idx: {
                (pairs_u[idx][0], qq): e for qq, e in
                (a.mult_row(xu, gap, pairs_u[idx][1], ell) or {}).items()})
            # a push that adds nothing is zero and never a witness
            if _accumulate(F, pushed, rows_v.get):
                return True, tuple(pushed.get(p, z) for p in x.pairs(m, xv))
    return True, None


def liftability_check(x: GradedModule, s: DegreeSet, u: DegreeSet,
                      a: GradedAlgebra | None = None) -> LiftReport:
    """Decide liftability by the full kernel-containment criterion.

    Quantifies over every m in (S : U) and every u < v in U with v - u
    outside U for which all involved components are nonzero.
    """
    return _liftability(x, u, *_check_hypotheses(x, s, u, a), _all_triples)


def liftability_check_interval(x: GradedModule, s: DegreeSet, u: DegreeSet,
                               a: GradedAlgebra | None = None) -> LiftReport:
    """Decide liftability by the reduced condition list for interval U.

    For U = [0, r] + nZ only the pair (u, v) = (r, n) is checked per m;
    for U = [-r, 0] + nZ all pairs n - r <= u < v <= n are.  Agrees with
    liftability_check wherever both apply.
    """
    return _liftability(x, u, *_check_hypotheses(x, s, u, a),
                        _interval_triples)


def _liftability(x, u, a, qdegs, triples):
    """Check Ker(mu_{m,u}) A_{v-u} inside Ker(mu_{m,v}) on each (m, u, v).

    a and the nonzero Q-degrees qdegs come from _check_hypotheses, the
    triples from triples(u, a, qdegs).  At most one witness is recorded per
    triple.  Triples whose components vanish hold vacuously and are skipped.
    """
    violations = []
    checked = 0
    for (m, ud, v) in triples(u, a, qdegs):
        if not x.in_window(m + v):
            continue
        got = _kernel_push(x, a, m, ud, v, v - ud)
        if got is None or not got[0]:
            continue
        checked += 1
        if got[1] is not None:
            violations.append((m, ud, v, got[1]))
    return LiftReport(liftable=not violations, violations=tuple(violations),
                      triples_checked=checked)


def _all_triples(u, a, qdegs):
    udegs = _u_degrees(u, a)
    for m in qdegs:
        for i, ud in enumerate(udegs):
            for v in udegs[i + 1:]:
                if not u.contains(v - ud):
                    yield (m, ud, v)


def _interval_triples(u, a, qdegs):
    shape = is_translation_of_interval(u)
    if shape is None:
        raise PreconditionError(
            "U is not a union of translates of a single interval")
    n, r = shape.n, shape.r
    if r == 0:
        pairs = []  # U is a subgroup; killing is exact, nothing to check
    elif shape.orientation == "right":
        pairs = [(r, n)]
    else:
        pairs = [(ud, v) for ud in range(n - r, n)
                 for v in range(ud + 1, n + 1)]
    return ((m, ud, v) for m in qdegs for (ud, v) in pairs)


# ---------------------------------------------------------------------------
# building the lift


def _generator_data(x: GradedModule, qdegs):
    """One tagged generator per basis vector of X in quotient-set degrees."""
    gens = []
    meta = []
    for m in qdegs:
        comp = x.component(m)
        for i in range(comp.dim):
            gens.append((m, comp.right_tags[i]))
            meta.append((m, i))
    return gens, meta


def _evaluation_rows(x: GradedModule, blocks, meta):
    """Rows of the evaluation D_t -> X_t, generator block times A -> X, as
    {col: value} dicts."""
    rows = []
    for b, _, d, coord in blocks:
        m, i = meta[b]
        rows.extend(x.action_row(m, d, i, q) or {} for q in coord)
    return rows


def lift_module(x: GradedModule, s: DegreeSet, u: DegreeSet,
                a: GradedAlgebra | None = None) -> GradedModule:
    """Construct the graded A-module M with M_S isomorphic to X.

    Requires liftability_check to pass.  M is induced / W as built by
    check_and_lift.  The returned module is certified: killing it back
    gives X degreewise through an explicit action-commuting isomorphism, it
    is generated in quotient-set degrees and cogenerated in S-degrees;
    certification failure after a passing check is an internal error,
    never a silent wrong answer.
    """
    report = check_and_lift(x, s, u, a)
    if not report.liftable:
        m, ud, v, _ = report.violations[0]
        raise PreconditionError(
            f"module is not liftable: a kernel vector in degree {m + ud} "
            f"escapes the kernel in degree {m + v}")
    return report.lift


def check_and_lift(x: GradedModule, s: DegreeSet, u: DegreeSet,
                   a: GradedAlgebra | None = None) -> LiftReport:
    """liftability_check, then on success the certified lift in one report.

    The lift is induced / W.  induced has one projective summand per basis
    vector of X in Q-degrees and evaluates onto X_t at each t in S by ev_t.
    W is the x whose every product into S evaluates to zero, one vanishing
    scan over every degree (graded_core._vanishing_spaces): a submodule
    since (x b) a = x (b a), with W_t inside ker ev_t at t in S.  The
    dimension and rank checks below certify W_t = ker ev_t, whatever the
    containment scan found, so one quotient builds the lift.  induced is a
    _LayoutModule read through its generator blocks, which also give the
    evaluation rows, so neither W nor the quotient builds its table.  Only
    the degrees where X or induced is nonzero are visited, so the cost does
    not grow with the width of X's window.
    Assumes x is a module (validate_module).
    """
    a, qdegs = _check_hypotheses(x, s, u, a)
    report = _liftability(x, u, a, qdegs, _all_triples)
    if not report.liftable:
        return report
    F = a.field
    # x's tags were checked when it was built; no generators, a zero lift
    gens, meta = _generator_data(x, qdegs)
    induced = _LayoutModule(a, gens, x.window)

    # the S-degrees where X or induced is nonzero: both are zero elsewhere
    sdegs = [t for t in sorted({*x.degrees(), *induced.components})
             if s.try_contains(t)]
    evals = {t: _evaluation_rows(x, induced._blocks(t), meta) for t in sdegs
             if t in induced.components}
    lifted, _project, keep = quotient_with_maps(induced, _vanishing_spaces(
        induced, evals, {d: evals for d in induced.degrees()}))

    # certification: an explicit isomorphism kill(M) -> X from evaluation
    iso = {}
    for t in sdegs:
        xdim = x.component(t).dim
        mdim = lifted.component(t).dim
        if mdim != xdim:
            raise InternalConsistencyError(
                f"lift has dimension {mdim} at degree {t}, expected {xdim}")
        if xdim == 0:
            continue
        ev = evals.get(t)
        if ev is None:
            raise InternalConsistencyError(
                f"lift lost the generator blocks at degree {t}")
        iso[t] = [ev[kk] for kk in keep[t]]
        if _rank(F, iso[t], xdim) != xdim:
            raise InternalConsistencyError(
                f"evaluation is not bijective at degree {t}")

    udegs = _u_degrees(u, a)
    for t in sdegs:
        phi_t = iso.get(t)
        if phi_t is None:
            continue
        for ud in udegs:
            t2 = t + ud
            phi_t2 = iso.get(t2)
            if phi_t2 is None or not x.in_window(t2):
                continue
            # (e_i a_j) phi_{t+u} = (e_i phi_t) a_j, from the stored rows
            for i, phi_i in enumerate(phi_t):
                for j in range(a.component(ud).dim):
                    lhs = _accumulate(F, lifted.action_row(t, ud, i, j),
                                      phi_t2.__getitem__)
                    rhs = _accumulate(F, phi_i,
                                      lambda k: x.action_row(t, ud, k, j))
                    if lhs != rhs:
                        raise InternalConsistencyError(
                            "the evaluation map fails to commute with the "
                            f"action at degrees ({t}, {ud})")

    # Q lies in S, where the lift has X's dimensions: the same degrees
    generated = is_generated_in(lifted, qdegs)
    cogenerated = is_cogenerated_in(lifted, s).holds
    if not (generated and cogenerated):
        raise InternalConsistencyError(
            "the lift left the generated/cogenerated category")
    return LiftReport(liftable=True, violations=(),
                      triples_checked=report.triples_checked, lift=lifted,
                      isomorphism_certified=True, generated_certified=True,
                      cogenerated_certified=True)


# ---------------------------------------------------------------------------
# isomorphism certification between ambient modules


def certified_isomorphism(m: GradedModule, n: GradedModule):
    """A degreewise invertible homomorphism m -> n, or None.

    Solves for the full hom space, then looks for an invertible element:
    each basis element first, then 25 seeded random combinations.  Sound but
    one-sided: None means no certificate was found, not a proof that none
    exists (over a large field a random combination succeeds with high
    probability whenever the modules are isomorphic).
    """
    if m.dims() != n.dims():
        return None
    if not m.dims():
        return {}
    basis = hom_space_basis(m, n)
    if not basis:
        return None
    F = m.field

    def invertible(candidate):
        # equal dims: every degree has a square map
        return all(_rank(F, f.nz, f.cols) == f.rows
                   for f in candidate.values())

    for candidate in basis:
        if invertible(candidate):
            return candidate
    rng = random.Random(0)
    span = max(7, len(basis) + 2)
    for _ in range(25):
        coeffs = [F.from_int(rng.randrange(1, span)) for _ in basis]
        candidate = {d: Matrix._of(F, f.rows, f.cols, tuple(
            _accumulate(F, coeffs, lambda k: basis[k][d].nz[i])
            for i in range(f.rows))) for d, f in basis[0].items()}
        if invertible(candidate):
            return candidate
    return None


# ---------------------------------------------------------------------------
# seeded random modules in the generated/cogenerated category


# generators and relation vectors drawn per random module, at most
_MAX_GENS = _MAX_RELATIONS = 2


def _random_presented(alg, s, u, seed, window, reduce_torsion,
                      relation_degrees="any", q=None):
    """The random modules' one builder; q is (S : U) when the caller has
    already decided it."""
    if q is None:
        q = _quotient_set(s, u)
    window = tuple(window) if window is not None else alg.window
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    usable = q.members_in(window[0], window[1])
    if not usable:
        raise PreconditionError("no quotient-set degrees inside the window")
    # prefer low generator degrees: they leave room for the module to live
    weights = [window[1] - m + 1 for m in usable]
    F = alg.field
    for _attempt in range(8):
        gens = [(rng.choices(usable, weights)[0], rng.randrange(alg.k))
                for _ in range(rng.randint(1, _MAX_GENS))]
        proj = _LayoutModule(alg, gens, window)
        degrees = [d for d in proj.degrees() if d > min(m for m, _ in gens)]
        if relation_degrees == "quotient":
            degrees = [d for d in degrees if q.try_contains(d)]
        seeds = {}
        for _ in range(rng.randint(0, _MAX_RELATIONS)):
            if not degrees:
                break
            d = rng.choice(degrees)
            vec = [F.from_int(rng.randrange(-3, 4))
                   for _ in range(proj.component(d).dim)]
            if all(e == F.zero() for e in vec):
                continue
            seeds.setdefault(d, []).append(vec)
        closed = closure_under_action(proj, seeds)
        if reduce_torsion:
            # the same quotient kills the torsion of proj / closed
            closed = torsion_spaces(proj, s, closed)
        module = quotient_with_maps(proj, closed)[0]
        if module.total_dim():
            return module
    raise InternalConsistencyError("random module generation kept "
                                   "producing zero modules")


def random_category_module(a: GradedAlgebra, s: DegreeSet, u: DegreeSet,
                           seed, window=None) -> GradedModule:
    """A seeded random A-module generated in (S:U)-degrees, torsion-free.

    Presentation: a projective module P on random tagged generators in
    quotient-set degrees, modulo the action closure R of a few random
    relation vectors and the torsion of P / R, so the result is cogenerated
    in S-degrees.  One quotient of P by the torsion preimage builds it: R
    at degrees not off S, and at the others the x whose products into
    degrees not off S lie in R.  Deterministic in (seed, arguments).
    """
    return _random_presented(a, s, u, seed, window, reduce_torsion=True)


def random_killed_module(b: GradedAlgebra, s: DegreeSet, u: DegreeSet,
                         seed, window=None) -> GradedModule:
    """A seeded random module over the killed algebra, generated in (S:U).

    Unlike killing a random ambient module, presentations taken directly
    over A_U need not be liftable, so these exercise both branches of the
    liftability checks.
    """
    return _random_presented(b, s, u, seed, window, reduce_torsion=False)


def random_presented_module(b: GradedAlgebra, s: DegreeSet, u: DegreeSet,
                            seed, window=None) -> GradedModule:
    """A seeded random module over the killed algebra presented in (S:U).

    Generators and relation degrees both lie in the quotient set, which is
    exactly the shape the lifted category is guaranteed to contain, so
    every module produced here passes the liftability check.
    """
    return _random_presented(b, s, u, seed, window, reduce_torsion=False,
                             relation_degrees="quotient")


# ---------------------------------------------------------------------------
# equivalence harness


class HarnessSample(Record):
    """The two hom dimensions of one harness sample; == and hash compare
    all three fields."""

    def __init__(self, index: int, hom_dim_ambient: int, hom_dim_killed: int):
        set_field(self, "index", index)
        set_field(self, "hom_dim_ambient", hom_dim_ambient)
        set_field(self, "hom_dim_killed", hom_dim_killed)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.index, self.hom_dim_ambient, self.hom_dim_killed) == (
                other.index, other.hom_dim_ambient, other.hom_dim_killed)
        return NotImplemented

    def __hash__(self):
        return hash((self.index, self.hom_dim_ambient, self.hom_dim_killed))

    @property
    def equal(self):
        return self.hom_dim_ambient == self.hom_dim_killed


class EquivalenceReport(Record):
    """A harness run: its seed, its HarnessSamples and whether every sample
    agrees; == and hash compare all three fields."""

    def __init__(self, seed: int, samples: tuple, holds: bool):
        set_field(self, "seed", seed)
        set_field(self, "samples", samples)
        set_field(self, "holds", holds)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.seed, self.samples, self.holds) == (
                other.seed, other.samples, other.holds)
        return NotImplemented

    def __hash__(self):
        return hash((self.seed, self.samples, self.holds))

    def __bool__(self):
        return self.holds


def equivalence_harness(a: GradedAlgebra, s: DegreeSet, u: DegreeSet,
                        samples=20, seed=0) -> EquivalenceReport:
    """Compare hom dimensions before and after killing on random pairs.

    For each sample draws M, N generated in (S:U)-degrees and cogenerated
    in S-degrees and records dim Hom(M, N) against dim Hom(M_S, N_S); the
    two agree exactly when killing is an equivalence on that category.
    Samples are independent and derived from (seed, index), so the report
    does not depend on evaluation order.  Needs samples >= 1: no sample is
    no evidence.

    The hypotheses on A and (S, U) are decided once per run, before any
    sample: each sample builds its modules with that run's Q = (S : U)
    and kills them with no second modular-pair scan, exactly as
    random_category_module and kill_support_module would.
    """
    if samples < 1:
        raise PreconditionError(f"samples must be >= 1, got {samples}")
    q = _check_hypotheses_algebra_only(a, s, u)
    b = kill_support_algebra(a, u)
    rows = []
    for i in range(samples):
        rng = random.Random(seed * 1000003 + i)
        m = _random_presented(a, s, u, rng, None, reduce_torsion=True, q=q)
        n = _random_presented(a, s, u, rng, None, reduce_torsion=True, q=q)
        ambient = hom_space_dim(m, n)
        killed = hom_space_dim(_kill_module(m, s, b), _kill_module(n, s, b))
        rows.append(HarnessSample(i, ambient, killed))
    return EquivalenceReport(seed=seed, samples=tuple(rows),
                             holds=all(r.equal for r in rows))



# ---------------------------------------------------------------------------
# membership conditions on the regraded side


def regraded_interval_conditions(v: GradedModule, a: GradedAlgebra, n, r=1):
    """The membership conditions for modules over the regraded algebra.

    v is a module over the regrading of A_U along the interval
    pseudomorphism for U = [0, r] + nZ; the conditions, one per degree
    sigma in (r+1)Z, ask that multiplying Ker(mu_{sigma,r}) into A_{n-r}
    lands in Ker(mu_{sigma,r+1}).  Returns a tuple of
    (sigma, holds, witness) with witness None when the condition holds.
    An A whose product escapes its tag blocks is refused, as the
    liftability checks refuse it, and so is a v not over A_U regraded.
    """
    _check_regraded_side(v, a, n, r)
    return _interval_conditions(v, a, n, r)


def _check_regraded_side(v, a, n, r):
    """Refuse what regraded_interval_conditions refuses: bad (n, r), an A
    whose product escapes its tag blocks, a v not over A_U regraded."""
    if n < 2 or not 0 < r or 2 * r >= n:
        raise PreconditionError("need 0 < 2r < n")
    _check_ambient_tags(a)
    u = DegreeSet.periodic(n, range(r + 1))
    if not _is_regrading(v.over, kill_support_algebra(a, u),
                         delta_map(u, 0, v.over.window)):
        raise PreconditionError("the module is not over the regrading of "
                                "the support-killed form of the given algebra")


def _interval_conditions(v, a, n, r):
    """The conditions' loop, for a v known to be over A_U regraded."""
    out = []
    for sigma in range(v.window[0], v.window[1] + 1):
        if sigma % (r + 1) or v.component(sigma).dim == 0:
            continue
        got = _kernel_push(v, a, sigma, r, r + 1, n - r)
        if got is not None:
            out.append((sigma, got[1] is None, got[1]))
    return tuple(out)


def in_lifted_category(v: GradedModule, a: GradedAlgebra, n, r=1):
    """Whether a regraded-side module is generated in (r+1)Z degrees and
    satisfies every membership condition; refuses what
    regraded_interval_conditions refuses."""
    _check_regraded_side(v, a, n, r)
    gendegs = [d for d in range(v.window[0], v.window[1] + 1)
               if d % (r + 1) == 0]
    if not is_generated_in(v, gendegs):
        return False
    return all(holds for (_s, holds, _w) in _interval_conditions(v, a, n, r))


# ---------------------------------------------------------------------------
# end-to-end pipeline


class PipelineReport(Record):
    """What koszul_pipeline checked; == compares all eight fields, and the
    hash would too but regraded_dims, a dict, has none."""

    def __init__(self, n: int, translate: int, regraded_window: tuple,
                 regraded_dims: dict, even_preimage_members: tuple,
                 vanishing_pairs: tuple, conditions: tuple, holds: bool):
        set_field(self, "n", n)
        set_field(self, "translate", translate)
        set_field(self, "regraded_window", regraded_window)
        set_field(self, "regraded_dims", regraded_dims)
        set_field(self, "even_preimage_members", even_preimage_members)
        set_field(self, "vanishing_pairs", vanishing_pairs)
        set_field(self, "conditions", conditions)
        set_field(self, "holds", holds)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.translate, self.regraded_window,
                    self.regraded_dims, self.even_preimage_members,
                    self.vanishing_pairs, self.conditions, self.holds) == (
                other.n, other.translate, other.regraded_window,
                other.regraded_dims, other.even_preimage_members,
                other.vanishing_pairs, other.conditions, other.holds)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.translate, self.regraded_window,
                     self.regraded_dims, self.even_preimage_members,
                     self.vanishing_pairs, self.conditions, self.holds))

    def __bool__(self):
        return self.holds


def check_period(n):
    """Refuse a pipeline period below 3."""
    if n < 3:
        raise PreconditionError(
            f"need period n >= 3, got {n}: below that U = nZ + {{0, 1}} is "
            f"all of Z and kills nothing")


def koszul_pipeline(a: GradedAlgebra, n, m=0):
    """Kill to U = nZ + {0, 1}, regrade along delta, report the checks.

    Returns (regraded, even_preimage, report).  The report carries the
    structural vanishing pattern of the regraded algebra (pairs of degrees
    whose value sum leaves the image of delta must multiply to zero), the
    preimage of nZ under delta (expected: the even degrees), and the
    membership conditions for the regular module of the regraded algebra,
    which hold exactly when the regular module lifts back.
    """
    if a.group.kind != "Z" or a.window[0] != 0:
        raise PreconditionError("the pipeline needs a positively graded "
                                "algebra over Z")
    check_period(n)
    top = a.window[1]
    if top < 2 * n:
        raise PreconditionError(
            f"window top {top} is too small; need at least 2n = {2 * n}")
    u = DegreeSet.periodic(n, (0, 1))
    s = u.translate(m)
    _check_hypotheses_algebra_only(a, s, u)

    b = kill_support_algebra(a, u)
    # the largest sigma with delta(sigma) = n (sigma // 2) + sigma % 2 <= top
    sigma_top = 2 * (top // n) + min(top % n, 1)
    phi = delta_map(u, 0, (0, sigma_top))
    regraded = regrade_algebra(b, phi)
    verdict = validate_algebra(regraded)
    if not verdict.holds:
        raise InternalConsistencyError(
            f"regraded algebra failed validation: witness {verdict.witness}")
    even = preimage_subgroup(phi, DegreeSet.periodic(n, (0,)))

    image = phi.image()
    vanishing = []
    for sigma in regraded.degrees():
        for tau in regraded.degrees():
            tot = sigma + tau
            if tot > sigma_top:
                continue
            if phi(sigma) + phi(tau) in image:
                continue
            vanishing.append((sigma, tau,
                              not regraded._rows(sigma, tau)))
    regular = regular_module(regraded)
    conditions = _interval_conditions(regular, a, n, 1)
    holds = all(ok for (_s, _t, ok) in vanishing) \
        and all(ok for (_s, ok, _w) in conditions)
    report = PipelineReport(
        n=n, translate=m, regraded_window=regraded.window,
        regraded_dims={d: regraded.component(d).dim
                       for d in sorted(regraded.degrees())},
        even_preimage_members=tuple(even.members_in(0, sigma_top)),
        vanishing_pairs=tuple(vanishing), conditions=conditions, holds=holds)
    return regraded, even, report
