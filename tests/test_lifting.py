"""Liftability criteria, the lift construction, and the regraded category."""

import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedsupport.constructions import (
    n_homogeneous_dual,
    quiver_algebra,
    regular_module,
    truncated_polynomial,
)
from gradedsupport.errors import PreconditionError, UnsupportedFormError
from gradedsupport import lifting, subsets
from gradedsupport.exactlin import GF, QQ, LabeledSpace, Matrix, _rank
from gradedsupport.graded_core import (
    GradedAlgebra,
    GradedModule,
    hom_space_basis,
    hom_space_dim,
    kill_support_algebra,
    kill_support_module,
    modules_equal,
    regrade_module,
    shift_module,
    validate_algebra,
    validate_module,
)
from gradedsupport.lifting import (
    HarnessSample,
    _kernel_push,
    certified_isomorphism,
    check_and_lift,
    equivalence_harness,
    in_lifted_category,
    koszul_pipeline,
    lift_module,
    liftability_check,
    liftability_check_interval,
    random_category_module,
    random_killed_module,
    random_presented_module,
    regraded_interval_conditions,
)
from gradedsupport.regrade_maps import delta_map
from gradedsupport.subsets import (DegreeSet, is_right_modular,
                                   is_translation_of_interval)

U3 = DegreeSet.periodic(3, (0, 1))


def killed_setup(field=None, top=6):
    kwargs = {"field": field} if field is not None else {}
    a = truncated_polynomial(top + 1, 1, window=(0, top), **kwargs)
    return a, kill_support_algebra(a, U3)


def two_loop_witness():
    """A module that fails the kernel-containment criterion by hand.

    Over A = K<x, y>/(yx) killed to U = {0, 1} + 3Z, take X_0 = X_3 = K
    with x^3 acting as the identity and everything else by zero.  The
    kernel of mu_{0,1} is all of X_0 (x) B_1; pushing e (x) x into A_3
    gives e (x) x^3, which acts as 1 on X_0, so the kernel escapes at
    (m, u, v) = (0, 1, 3).
    """
    a = quiver_algebra(1, [(0, 0), (0, 0)], [[(1, (1, 0))]], 4)
    b = kill_support_algebra(a, U3)
    f = b.field
    one = Matrix.identity(f, 1)
    act = Matrix.from_rows(
        f, [[f.one()], [f.zero()], [f.zero()], [f.zero()]], 1)
    comps = {0: LabeledSpace.untagged(1), 3: LabeledSpace.untagged(1)}
    bad = GradedModule(b, b.window, comps,
                       {(0, 0): one, (3, 0): one, (0, 3): act})
    good = GradedModule(b, b.window, comps, {(0, 0): one, (3, 0): one})
    return a, b, bad, good


# ---------------------------------------------------------------------------
# the two checkers on a hand-verified witness


def test_witness_modules_validate():
    _, _, bad, good = two_loop_witness()
    assert validate_module(bad).holds
    assert validate_module(good).holds


def test_general_checker_finds_the_witness_triple():
    a, _, bad, _ = two_loop_witness()
    report = liftability_check(bad, U3, U3, a)
    assert not report.liftable
    assert [(m, u, v) for m, u, v, _ in report.violations] == [(0, 1, 3)]


def test_interval_checker_finds_the_same_triple():
    a, _, bad, _ = two_loop_witness()
    report = liftability_check_interval(bad, U3, U3, a)
    assert not report.liftable
    assert [(m, u, v) for m, u, v, _ in report.violations] == [(0, 1, 3)]


def test_zero_action_cousin_is_liftable():
    a, _, _, good = two_loop_witness()
    assert liftability_check(good, U3, U3, a).liftable
    assert liftability_check_interval(good, U3, U3, a).liftable


def test_lift_module_refuses_the_witness():
    a, _, bad, _ = two_loop_witness()
    with pytest.raises(PreconditionError):
        lift_module(bad, U3, U3, a)


def test_violation_vector_escapes_for_real():
    # the recorded vector must have nonzero image under mu_{m,v}
    a, _, bad, _ = two_loop_witness()
    report = liftability_check(bad, U3, U3, a)
    _m, _u, _v, vec = report.violations[0]
    assert any(c != bad.field.zero() for c in vec)


def test_absent_and_empty_maps_push_differently():
    # mu_{0,1} is zero, so its kernel is all of X_0 (x) A_1.  When mu_{0,2}
    # is absent the containment is not tested; when it is present with no
    # nonzero row it is tested and holds.  A zero Matrix is the same map.
    a = truncated_polynomial(3)
    f = a.field
    comps = {d: LabeledSpace.untagged(1) for d in range(3)}
    zero = Matrix.zero(f, 1, 1)
    for present in ({}, zero):
        absent = GradedModule(a, (0, 2), comps, {(0, 1): present})
        empty = GradedModule(a, (0, 2), comps,
                             {(0, 1): present, (0, 2): present})
        assert absent._rows(0, 2) is None
        assert empty._rows(0, 2) == {}
        assert _kernel_push(absent, a, 0, 1, 2, 1) == (False, None)
        assert _kernel_push(empty, a, 0, 1, 2, 1) == (True, None)


# ---------------------------------------------------------------------------
# general and interval checkers agree on random killed modules


@settings(max_examples=40)
@given(seed=st.integers(0, 10 ** 6))
def test_checkers_agree_on_killed_modules(seed):
    a, b = killed_setup()
    x = random_killed_module(b, U3, U3, seed)
    general = liftability_check(x, U3, U3, a)
    interval = liftability_check_interval(x, U3, U3, a)
    assert general.liftable == interval.liftable


@settings(max_examples=25)
@given(seed=st.integers(0, 10 ** 6))
def test_presented_in_quotient_degrees_is_liftable(seed):
    a, b = killed_setup()
    x = random_presented_module(b, U3, U3, seed)
    assert liftability_check(x, U3, U3, a).liftable


def test_shifting_by_the_period_preserves_the_verdict():
    a, b = killed_setup(top=9)
    for seed in range(8):
        x = random_killed_module(b, U3, U3, seed, window=(0, 6))
        before = liftability_check(x, U3, U3, a).liftable
        after = liftability_check(shift_module(x, 3), U3, U3, a).liftable
        assert before == after


@pytest.mark.parametrize("n, residues", [
    (4, (0, 3)), (5, (0, 3, 4)),  # U = [-r, 0] + nZ for r = 1, 2
    (3, (0,)), (5, (0,)),  # r = 0: U is a subgroup, and nothing is checked
])
@pytest.mark.parametrize("quiver", [False, True])
def test_checkers_agree_on_the_other_interval_shapes(n, residues, quiver):
    u = DegreeSet.periodic(n, residues)
    shape = is_translation_of_interval(u)
    assert (shape.orientation == "left") == (len(residues) > 1)
    if quiver:
        a = quiver_algebra(2, [(0, 1), (1, 0)], [], 2 * n + 1, GF(101))
    else:
        a = truncated_polynomial(2 * n + 2, 1, window=(0, 2 * n + 1),
                                 field=GF(101))
    b = kill_support_algebra(a, u)
    verdicts = []
    for seed in range(12):
        x = random_killed_module(b, u, u, seed)
        interval = liftability_check_interval(x, u, u, a)
        assert interval.liftable == liftability_check(x, u, u, a).liftable
        verdicts.append(interval.liftable)
        if shape.r == 0:
            assert interval.triples_checked == 0
    # both verdicts occur for the left intervals; a subgroup lifts them all
    assert set(verdicts) == ({True} if shape.r == 0 else {True, False})


def test_interval_checker_needs_an_interval():
    a = truncated_polynomial(6, 1, window=(0, 5))
    u = DegreeSet.periodic(5, (0, 2))
    with pytest.raises(PreconditionError):
        liftability_check_interval(regular_module(kill_support_algebra(a, u)),
                                   u, u, a)


W3 = DegreeSet.windowed(U3.members_in(-6, 6), (-6, 6))


@pytest.mark.parametrize("s, u", [(W3, U3), (U3, W3)])
@pytest.mark.parametrize("check", [liftability_check, check_and_lift])
def test_checkers_refuse_a_windowed_s_or_u(check, s, u):
    # the windowed pairs are right modular on their windows; the quotient
    # set (S : U) is what refuses them, before any module support is read
    assert is_right_modular(s, u).holds
    a, b = killed_setup(top=5)
    with pytest.raises(UnsupportedFormError):
        check(regular_module(b), s, u, a)


# ---------------------------------------------------------------------------
# the lift construction round trips


def test_killed_regular_module_lifts_back_to_itself():
    a, b = killed_setup()
    m = regular_module(a)
    ms = kill_support_module(m, U3, U3, b)
    report = check_and_lift(ms, U3, U3, a)
    assert report.liftable
    assert report.isomorphism_certified
    assert report.generated_certified
    assert report.cogenerated_certified
    assert report.lift.dims() == m.dims()
    assert certified_isomorphism(
        kill_support_module(report.lift, U3, U3, b), ms) is not None


def test_round_trips_over_a_big_prime_field():
    a, b = killed_setup(field=GF(101))
    for seed in range(10):
        x = random_killed_module(b, U3, U3, seed)
        report = check_and_lift(x, U3, U3, a)
        if not report.liftable:
            continue
        assert report.isomorphism_certified
        back = kill_support_module(report.lift, U3, U3, b)
        assert certified_isomorphism(back, x) is not None


def test_lift_is_supported_in_translated_degrees():
    a, b = killed_setup()
    s = U3.translate(1)
    x = random_presented_module(b, s, U3, 7)
    lifted = lift_module(x, s, U3, a)
    for d in lifted.degrees():
        assert s.try_contains(d) or not lifted.component(d).dim \
            or d not in x.degrees()
    back = kill_support_module(lifted, s, U3, b)
    assert certified_isomorphism(back, x) is not None


def test_the_ambient_algebra_defaults_to_what_was_killed():
    a, b = killed_setup(field=GF(101))
    x = random_killed_module(b, U3, U3, 3)
    assert liftability_check(x, U3, U3) == liftability_check(x, U3, U3, a)
    assert modules_equal(check_and_lift(x, U3, U3).lift,
                         check_and_lift(x, U3, U3, a).lift)
    # an algebra that does not remember what it was killed from
    y = GradedModule(a, x.window, x.components, {})
    with pytest.raises(PreconditionError, match="ambient algebra is required"):
        liftability_check(y, U3, U3)


def test_the_zero_module_lifts_to_the_zero_module():
    a, b = killed_setup(field=GF(101))
    report = check_and_lift(GradedModule(b, b.window, {}, {}), U3, U3, a)
    assert report.liftable and report.violations == ()
    assert report.isomorphism_certified and report.generated_certified \
        and report.cogenerated_certified
    assert report.lift.over is a and report.lift.total_dim() == 0


def tag_escaping_lift_inputs():
    """An ambient algebra whose product escapes its tag block, and a valid
    module over its killed form.

    Over the two-vertex quiver a: 0 -> 1, b: 1 -> 0, the two rows of the
    (1, 2) mult map are swapped, so a * ba lands on bab, whose right tag 0
    is not that of ba.  U = S = {0, 1} + 3Z keeps A_1 and drops A_2, so the
    killed algebra does not see the swap.
    """
    good = quiver_algebra(2, [(0, 1), (1, 0)], [], 7, GF(101))
    mult = {key: dict(rows) for key, rows in good._maps.items()}
    mult[(1, 2)] = {(0, 1): mult[(1, 2)][(1, 0)],
                    (1, 0): mult[(1, 2)][(0, 1)]}
    a = GradedAlgebra(good.group, good.window, good.k, good.field,
                      good.components, mult, good.unit)
    x = random_killed_module(kill_support_algebra(a, U3), U3, U3, 0)
    assert validate_module(x).holds
    return a, x


@pytest.mark.parametrize("check", [liftability_check,
                                   liftability_check_interval, check_and_lift])
def test_checkers_refuse_an_ambient_product_escaping_its_tags(check):
    # the scan pushed a kernel vector through a * ba and raised
    # InternalConsistencyError: x's own products never meet A_2
    a, x = tag_escaping_lift_inputs()
    assert validate_algebra(a).witness == ("tags", 1, 2, 0, 1, 1)
    with pytest.raises(PreconditionError,
                       match=r"escapes its tag block, witness "
                             r"\('tags', 1, 2, 0, 1, 1\)"):
        check(x, U3, U3, a)


def test_regraded_conditions_refuse_an_ambient_product_escaping_its_tags():
    # unguarded, the condition at sigma = 2 pushed a kernel vector through
    # the swapped map (1, 2) and raised InternalConsistencyError
    a, x = tag_escaping_lift_inputs()
    v = regrade_module(x, delta_map(U3, 0, (0, 5)))
    with pytest.raises(PreconditionError,
                       match=r"escapes its tag block, witness "
                             r"\('tags', 1, 2, 0, 1, 1\)"):
        regraded_interval_conditions(v, a, 3)


def test_check_and_lift_decides_the_pair_once_and_quotients_once(
        monkeypatch):
    import gradedsupport.graded_core as graded_core
    import gradedsupport.lifting as lifting
    import gradedsupport.subsets as subsets
    a, b = killed_setup(field=GF(101))
    x = kill_support_module(regular_module(a), U3, U3, b)
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    # graded_core owns the refusal of a pair that is not right modular
    modular = subsets.is_right_modular
    monkeypatch.setattr(graded_core, "is_right_modular",
                        counted("modular", modular))
    monkeypatch.setattr(subsets, "is_right_modular",
                        counted("modular", modular))
    monkeypatch.setattr(lifting, "quotient_set",
                        counted("quotient_set", subsets.quotient_set))
    monkeypatch.setattr(lifting, "quotient_with_maps",
                        counted("quotient", lifting.quotient_with_maps))
    assert check_and_lift(x, U3, U3, a).liftable
    # the hypothesis check only: quotient_set builds its coset with no scan
    assert calls.count("modular") == 1
    assert calls.count("quotient_set") == 1
    assert calls.count("quotient") == 1


def test_a_torsion_free_draw_quotients_once(monkeypatch):
    import gradedsupport.graded_core as graded_core
    import gradedsupport.lifting as lifting
    a, _ = killed_setup(field=GF(101))
    calls = []
    quotient = graded_core.quotient_with_maps

    def counted(*args):
        calls.append(args)
        return quotient(*args)

    # under both names, so a second quotient via torsion_quotient counts too
    monkeypatch.setattr(lifting, "quotient_with_maps", counted)
    monkeypatch.setattr(graded_core, "quotient_with_maps", counted)
    m = random_category_module(a, U3.translate(1), U3, 5)
    assert m.total_dim()
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# isomorphism certificates


def test_certificate_on_identical_modules():
    _, b = killed_setup()
    m = regular_module(b)
    assert certified_isomorphism(m, m) is not None


def test_certificate_on_the_zero_module():
    _, b = killed_setup()
    z = GradedModule(b, b.window, {}, {})
    assert certified_isomorphism(z, z) == {}


def test_no_certificate_across_different_dimensions():
    _, _, bad, _ = two_loop_witness()
    b = bad.over
    one = Matrix.identity(b.field, 1)
    small = GradedModule(b, b.window, {0: LabeledSpace.untagged(1)},
                         {(0, 0): one})
    assert certified_isomorphism(bad, small) is None


def test_no_certificate_between_twisted_and_untwisted():
    # same dims, but any homomorphism must kill the top component
    _, _, bad, good = two_loop_witness()
    assert certified_isomorphism(bad, good) is None


# ---------------------------------------------------------------------------
# the hom-dimension harness


def test_harness_holds_and_reports_every_sample():
    a, _ = killed_setup()
    report = equivalence_harness(a, U3, U3, samples=6, seed=11)
    assert report.holds
    assert len(report.samples) == 6
    assert [r.index for r in report.samples] == list(range(6))
    for r in report.samples:
        assert r.hom_dim_ambient == r.hom_dim_killed


@pytest.mark.parametrize("samples", [0, -1])
def test_harness_refuses_to_hold_on_no_samples(samples):
    a, _ = killed_setup()
    with pytest.raises(PreconditionError, match="samples"):
        equivalence_harness(a, U3, U3, samples=samples)


def test_harness_is_reproducible():
    a, _ = killed_setup()
    first = equivalence_harness(a, U3, U3, samples=4, seed=3)
    second = equivalence_harness(a, U3, U3, samples=4, seed=3)
    assert [(r.hom_dim_ambient, r.hom_dim_killed) for r in first.samples] \
        == [(r.hom_dim_ambient, r.hom_dim_killed) for r in second.samples]


HARNESS_ALGEBRAS = {
    # the CLI's default harness algebra for period n: two loops, yx = 0
    "two-loop": lambda n, field: quiver_algebra(
        1, [(0, 0), (0, 0)], [[(1, (1, 0))]], 2 * n + 1, field),
    # the two-vertex cycle of the CI harness step
    "two-vertex": lambda n, field: quiver_algebra(
        2, [(0, 1), (1, 0)], [], 7, field),
}


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
@pytest.mark.parametrize("algebra", sorted(HARNESS_ALGEBRAS))
@pytest.mark.parametrize("translate", [0, 2])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_harness_samples_are_the_public_composition(n, translate, algebra,
                                                    field):
    # the harness decides (S, U) once and kills through the unchecked
    # body; each sample must still be what the public functions give
    a = HARNESS_ALGEBRAS[algebra](n, field)
    u = DegreeSet.periodic(n, (0, 1))
    s = u.translate(translate)
    b = kill_support_algebra(a, u)
    for seed in range(10):
        report = equivalence_harness(a, s, u, samples=2, seed=seed)
        want = []
        for i in range(2):
            rng = random.Random(seed * 1000003 + i)
            m = random_category_module(a, s, u, rng)
            x = random_category_module(a, s, u, rng)
            want.append(HarnessSample(
                i, hom_space_dim(m, x),
                hom_space_dim(kill_support_module(m, s, u, b),
                              kill_support_module(x, s, u, b))))
        assert report.samples == tuple(want)


def _harness_pairs(a, s, u, samples, seed):
    """The harness' report and its (M, N, M_S, N_S) per sample, recorded
    from the two hom_space_dim calls it makes for each."""
    calls = []

    def recorded(x, y):
        calls.append((x, y))
        return hom_space_dim(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifting, "hom_space_dim", recorded)
        report = equivalence_harness(a, s, u, samples=samples, seed=seed)
    return report, [calls[k] + calls[k + 1] for k in range(0, len(calls), 2)]


def kill_is_bijective_on_homs(m, n, s, m_s, n_s):
    """Whether killing maps Hom(M, N) onto Hom(M_S, N_S) bijectively: on
    morphisms it restricts a map to the degrees in S, so it is injective
    when the restrictions of a basis of Hom(M, N) keep its rank, and then
    bijective when the two hom dimensions agree."""
    basis = hom_space_basis(m, n)
    rows = []
    for f in basis:
        flat = [e for d in sorted(f) if s.contains(d)
                for row in f[d].entries for e in row]
        rows.append({c: e for c, e in enumerate(flat) if e})
    ncols = max((max(r) + 1 for r in rows if r), default=0)
    return _rank(m.field, rows, ncols) == len(basis) \
        == hom_space_dim(m_s, n_s)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
@pytest.mark.parametrize("n, translate, samples", [
    (3, 0, 10), (4, 0, 10), (5, 0, 10), (5, 2, 10), (8, 0, 10), (12, 0, 6)])
def test_killing_is_bijective_on_the_harness_homs(n, translate, samples,
                                                  field):
    # equal hom dimensions are necessary for the equivalence; that the
    # restriction to S is bijective on a basis is the functor itself
    a = HARNESS_ALGEBRAS["two-loop"](n, field)
    u = DegreeSet.periodic(n, (0, 1))
    s = u.translate(translate)
    report, pairs = _harness_pairs(a, s, u, samples, seed=0)
    assert report.holds and len(pairs) == samples
    assert any(r.hom_dim_ambient for r in report.samples)
    for m, x, m_s, x_s in pairs:
        assert kill_is_bijective_on_homs(m, x, s, m_s, x_s)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
@pytest.mark.parametrize("n, translate", [(3, 0), (5, 2), (8, 0)])
def test_killing_is_not_bijective_on_a_module_off_the_category(n, translate,
                                                               field):
    # the simple module at a degree off S: its one endomorphism restricts
    # to zero, and its killed form is zero
    a = HARNESS_ALGEBRAS["two-loop"](n, field)
    u = DegreeSet.periodic(n, (0, 1))
    s = u.translate(translate)
    d = next(d for d in range(n) if not s.contains(d))
    simple = GradedModule(a, (d, d), {d: LabeledSpace.module_component((0,))},
                          {(d, 0): {(0, 0): {0: field.one()}}})
    assert validate_module(simple).holds
    killed = kill_support_module(simple, s, u, kill_support_algebra(a, u))
    assert hom_space_dim(simple, simple) == 1
    assert not kill_is_bijective_on_homs(simple, simple, s, killed, killed)


def _count_calls(mp, names, counts):
    """Count the calls of the named subsets functions wherever a
    gradedsupport module binds them."""
    modules = [m for k, m in sys.modules.items()
               if k == "gradedsupport" or k.startswith("gradedsupport.")]
    for name in names:
        original = getattr(subsets, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                mp.setattr(module, name, counted)


@pytest.mark.parametrize("samples", [1, 2, 5])
def test_harness_decides_the_pair_once_per_run(samples):
    a = HARNESS_ALGEBRAS["two-loop"](3, QQ)
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        _count_calls(mp, ("is_right_modular", "quotient_set"), counts)
        equivalence_harness(a, U3.translate(2), U3, samples=samples)
    assert counts == {"is_right_modular": 1, "quotient_set": 1}


@pytest.mark.parametrize("s, u, message", [
    (U3, DegreeSet.periodic(5, (0, 2, 3)),
     "ring_supporting fails, witness (2, 2, 3)"),
    (DegreeSet.full(), U3, "premodular fails, witness (0, 1, 1)"),
])
def test_harness_refuses_a_non_modular_pair_before_any_sample(s, u, message):
    a, _ = killed_setup()

    def no_sample(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifting, "_random_presented", no_sample)
        with pytest.raises(PreconditionError) as err:
            equivalence_harness(a, s, u, samples=3)
    assert str(err.value) == f"(S, U) is not a right modular pair: {message}"


# ---------------------------------------------------------------------------
# the regraded category matches the interval criterion


def test_membership_conditions_match_the_interval_checker():
    a, b = killed_setup(field=GF(101))
    phi = delta_map(U3, 0, (0, 4))
    for seed in range(14):
        x = random_killed_module(b, U3, U3, seed)
        want = liftability_check_interval(x, U3, U3, a).liftable
        got = in_lifted_category(regrade_module(x, phi), a, 3, 1)
        assert want == got


def test_witness_module_fails_the_regraded_conditions():
    a, _, bad, good = two_loop_witness()
    phi = delta_map(U3, 0, (0, 3))
    conditions = regraded_interval_conditions(regrade_module(bad, phi), a, 3)
    assert any(not holds for _s, holds, _w in conditions)
    sigma, holds, witness = [c for c in conditions if not c[1]][0]
    assert sigma == 0 and witness is not None
    assert in_lifted_category(regrade_module(good, phi), a, 3, 1)


def test_conditions_reject_bad_parameters():
    a, b = killed_setup()
    v = regrade_module(regular_module(b), delta_map(U3, 0, (0, 4)))
    with pytest.raises(PreconditionError):
        regraded_interval_conditions(v, a, 3, r=2)


# ---------------------------------------------------------------------------
# the end-to-end pipeline


def test_pipeline_on_the_dual_of_the_cube_zero_algebra():
    # the degreewise dual of K[x]/(x^3) has a one-dimensional component
    # in every degree up to the window top
    a = n_homogeneous_dual(1, [[(1, (0, 0, 0))]], 6)
    regraded, even, report = koszul_pipeline(a, 3)
    assert report.holds
    assert report.regraded_window == (0, 4)
    assert report.regraded_dims == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert report.even_preimage_members == (0, 2, 4)
    assert even.try_contains(2) and not even.try_contains(1)
    assert all(ok for _s, _t, ok in report.vanishing_pairs)
    assert all(ok for _s, ok, _w in report.conditions)


def test_pipeline_window_must_reach_twice_the_period():
    with pytest.raises(PreconditionError):
        koszul_pipeline(truncated_polynomial(3, 1), 3)


def test_pipeline_with_a_translate():
    a = n_homogeneous_dual(1, [[(1, (0, 0, 0))]], 6)
    _, _, report = koszul_pipeline(a, 3, m=3)
    assert report.translate == 3
    assert report.holds
