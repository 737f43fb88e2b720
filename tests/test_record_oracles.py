"""The package's value records against the frozen dataclasses they replace.

The eleven records (exactlin.LabeledSpace, regrade_maps.WindowedMap, the
five of subsets and the four reports of lifting) are plain classes on
_record.Record.  Their former @dataclass(frozen=True) definitions are kept
below as the oracle: fields, defaults, __post_init__ checks and the methods
that shape a record's behaviour (__bool__, equal, __repr__), verbatim; the
constructors and the set operations of DegreeSet are left out, as nothing
here calls them on the oracle.  Both are built from the same
Hypothesis-drawn fields, passed positionally, by keyword or with defaults
omitted, and must agree on ==, !=, the hash (the very same number, so sets
of records keep their order), repr, bool, the refusals, replace, the error
on assignment and deletion, and copy, deepcopy and pickle round trips.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from gradedsupport import exactlin, lifting, regrade_maps, subsets
from gradedsupport._record import replace
from gradedsupport.errors import LabelError, PreconditionError
from gradedsupport.graded_objects import GradedModule


# -- the oracle: the former dataclasses ---------------------------------------


@dataclass(frozen=True)
class LabeledSpace:
    """A based space whose basis vectors carry idempotent tags on both sides.

    For a component of a graded algebra, basis vector x with tags (i, j)
    satisfies e_i x e_j = x.  Module components only use the right tags; by
    convention their left tags mirror the right ones.
    """

    dim: int
    left_tags: tuple
    right_tags: tuple

    def __post_init__(self):
        if len(self.left_tags) != self.dim or len(self.right_tags) != self.dim:
            raise LabelError(f"need {self.dim} tags on each side")
        if any(t < 0 for t in self.left_tags + self.right_tags):
            raise LabelError("tags must be nonnegative idempotent indices")


@dataclass(frozen=True)
class WindowedMap:
    window: tuple  # (lo, hi), inclusive
    values: tuple  # values[k - lo] = phi(k)

    def __post_init__(self):
        lo, hi = self.window
        if lo > hi:
            raise PreconditionError(f"empty window [{lo}, {hi}]")
        if len(self.values) != hi - lo + 1:
            raise PreconditionError("one value per window point required")


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

    def __repr__(self):
        return "Z" if self.kind == "Z" else f"Z/{self.n}"


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
    form: str = field(compare=False)  # a name only: see the module docstring
    period: int | None = None
    residues: frozenset | None = None
    elements: frozenset | None = None
    window: tuple | None = None

    def __repr__(self):
        if self.form == FORM_FULL:
            return f"DegreeSet.full({self.group!r})"
        if self.form == FORM_PERIODIC:
            return f"DegreeSet.periodic({self.period}, {sorted(self.residues)})"
        return f"DegreeSet.windowed({sorted(self.elements)}, {self.window})"


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


@dataclass(frozen=True)
class LiftReport:
    """Outcome of a liftability check, optionally with the lift attached.

    violations lists (m, u, v, vector): the vector is an element of
    X_m (x) A_v obtained by multiplying a kernel element of mu_{m,u} into
    A_v, whose image under mu_{m,v} is nonzero.  Verdicts are exact for the
    finitely supported inputs handled here, so window_certified stays False
    in the same convention used by set-level verdicts.
    """
    liftable: bool
    violations: tuple
    triples_checked: int = 0
    lift: GradedModule | None = None
    isomorphism_certified: bool = False
    generated_certified: bool = False
    cogenerated_certified: bool = False
    window_certified: bool = False

    def __bool__(self):
        return self.liftable


@dataclass(frozen=True)
class HarnessSample:
    index: int
    hom_dim_ambient: int
    hom_dim_killed: int

    @property
    def equal(self):
        return self.hom_dim_ambient == self.hom_dim_killed


@dataclass(frozen=True)
class EquivalenceReport:
    seed: int
    samples: tuple
    holds: bool

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class PipelineReport:
    n: int
    translate: int
    regraded_window: tuple
    regraded_dims: dict
    even_preimage_members: tuple
    vanishing_pairs: tuple
    conditions: tuple
    holds: bool

    def __bool__(self):
        return self.holds


# -- drawn fields ---------------------------------------------------------------

# small pools, so that two draws often agree on some or all fields
small = st.integers(-2, 3)
flags = st.booleans()
tuples = st.lists(small, max_size=3).map(tuple)
maybe = st.none() | small
sets = st.none() | st.frozensets(small, max_size=3)
pairs = st.none() | st.tuples(small, small)
# one group object shared by both sides, so only the DegreeSet differs
groups = st.sampled_from([subsets.Z, subsets.Zn(1), subsets.Zn(3)])

FIELDS = {
    "LabeledSpace": dict(dim=st.integers(0, 2), left_tags=tuples,
                         right_tags=tuples),
    "WindowedMap": dict(window=st.tuples(small, small), values=tuples),
    "GradedGroup": dict(kind=st.sampled_from(["Z", "Zn", "Q"]), n=maybe),
    "Verdict": dict(holds=flags, window_certified=flags,
                    witness=st.none() | tuples,
                    reason=st.sampled_from([None, "", "no 0"])),
    "DegreeSet": dict(group=groups,
                      form=st.sampled_from([FORM_FULL, FORM_PERIODIC,
                                            FORM_WINDOWED]),
                      period=maybe, residues=sets, elements=sets,
                      window=pairs),
    "IntervalDecomposition": dict(
        kind=st.sampled_from([subsets.KIND_ALL, subsets.KIND_INTERVALS]),
        intervals=st.lists(st.tuples(small, small), max_size=2).map(tuple),
        zero_radius=maybe, window_certified=flags),
    "IntervalTranslation": dict(orientation=st.sampled_from(["right", "left"]),
                                n=small, r=small),
    "LiftReport": dict(liftable=flags, violations=tuples,
                       triples_checked=small, lift=maybe,
                       isomorphism_certified=flags, generated_certified=flags,
                       cogenerated_certified=flags, window_certified=flags),
    "HarnessSample": dict(index=small, hom_dim_ambient=small,
                          hom_dim_killed=small),
    "EquivalenceReport": dict(seed=small, samples=tuples, holds=flags),
    "PipelineReport": dict(
        n=small, translate=small, regraded_window=tuples,
        regraded_dims=st.dictionaries(small, small, max_size=2),
        even_preimage_members=tuples, vanishing_pairs=tuples,
        conditions=tuples, holds=flags),
}

NEW = {"LabeledSpace": exactlin.LabeledSpace,
       "WindowedMap": regrade_maps.WindowedMap,
       "GradedGroup": subsets.GradedGroup, "Verdict": subsets.Verdict,
       "DegreeSet": subsets.DegreeSet,
       "IntervalDecomposition": subsets.IntervalDecomposition,
       "IntervalTranslation": subsets.IntervalTranslation,
       "LiftReport": lifting.LiftReport,
       "HarnessSample": lifting.HarnessSample,
       "EquivalenceReport": lifting.EquivalenceReport,
       "PipelineReport": lifting.PipelineReport}
OLD = {name: globals()[name] for name in NEW}
NAMES = sorted(NEW)


def field_values(name):
    return st.fixed_dictionaries(FIELDS[name])


@st.composite
def calls(draw, name, values=None):
    """(args, kwargs) for one construction from values (drawn if None):
    every field positionally, every field by keyword, or the required ones
    positionally and each defaulted one by keyword or not at all."""
    if values is None:
        values = draw(field_values(name))
    mode = draw(st.sampled_from(["positional", "keyword", "defaults"]))
    if mode == "positional":
        return tuple(values[f] for f in FIELDS[name]), {}
    if mode == "keyword":
        return (), values
    args, kwargs = [], {}
    for f in dataclasses.fields(OLD[name]):
        if f.default is dataclasses.MISSING:
            args.append(values[f.name])
        elif draw(st.booleans()):
            kwargs[f.name] = values[f.name]
    return tuple(args), kwargs


def outcome(f, *args, **kwargs):
    """f's value, or its refusal as the exception's type and message."""
    try:
        return f(*args, **kwargs)
    except Exception as e:  # noqa: BLE001  (the refusal is the outcome)
        return type(e), str(e)


def refused(x):
    return isinstance(x, tuple) and isinstance(x[0], type)


def field_items(x):
    return list(vars(x).items())


# -- the checks ---------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=150)
@given(data=st.data())
def test_a_record_matches_its_dataclass(name, data):
    values = data.draw(field_values(name), label="a")
    # b: a again, a with one field redrawn, or drawn afresh
    f = data.draw(st.sampled_from(list(values)))
    values2 = data.draw(st.just(values)
                        | FIELDS[name][f].map(lambda v: {**values, f: v})
                        | field_values(name), label="b")
    (args, kwargs) = data.draw(calls(name, values))
    (args2, kwargs2) = data.draw(calls(name, values2))
    new, old = outcome(NEW[name], *args, **kwargs), \
        outcome(OLD[name], *args, **kwargs)
    if refused(old) or refused(new):
        assert new == old
        return
    new2, old2 = outcome(NEW[name], *args2, **kwargs2), \
        outcome(OLD[name], *args2, **kwargs2)
    assert refused(new2) == refused(old2)
    if refused(old2):  # a refusal compares as a tuple on both sides
        new2, old2 = new, old
    assert type(new) is NEW[name]
    assert field_items(new) == field_items(old)
    assert outcome(repr, new) == outcome(repr, old)
    assert (new == new2) == (old == old2)
    assert (new != new2) == (old != old2)
    assert (new == old, new == args, new != None) == (False, False, True)  # noqa: E711
    assert outcome(hash, new) == outcome(hash, old)
    assert bool(new) == bool(old)
    if name == "HarnessSample":
        assert new.equal == old.equal


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60)
@given(data=st.data())
def test_replace_matches_dataclasses_replace(name, data):
    (args, kwargs) = data.draw(calls(name))
    old = outcome(OLD[name], *args, **kwargs)
    if refused(old):
        return
    new = NEW[name](*args, **kwargs)
    keys = data.draw(st.lists(st.sampled_from(list(FIELDS[name])),
                              unique=True))
    changes = {k: data.draw(FIELDS[name][k]) for k in keys}
    if data.draw(st.booleans()):
        changes["no_such_field"] = 0
    got = outcome(replace, new, **changes)
    want = outcome(dataclasses.replace, old, **changes)
    if refused(want):
        assert got == want
    else:
        assert (type(got), field_items(got), outcome(repr, got)) \
            == (NEW[name], field_items(want), outcome(repr, want))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=30)
@given(data=st.data())
def test_assignment_and_deletion_raise_as_before(name, data):
    (args, kwargs) = data.draw(calls(name))
    old = outcome(OLD[name], *args, **kwargs)
    if refused(old):
        return
    new = NEW[name](*args, **kwargs)
    for attr in list(FIELDS[name]) + ["no_such_field"]:
        for x in (new, old):
            with pytest.raises(AttributeError) as set_error:
                setattr(x, attr, 0)
            with pytest.raises(AttributeError) as del_error:
                delattr(x, attr)
            assert (str(set_error.value), str(del_error.value)) == (
                f"cannot assign to field {attr!r}",
                f"cannot delete field {attr!r}")
    assert field_items(new) == field_items(old)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=30)
@given(data=st.data())
def test_copies_and_pickles_round_trip(name, data):
    (args, kwargs) = data.draw(calls(name))
    old = outcome(OLD[name], *args, **kwargs)
    if refused(old):
        return
    new = NEW[name](*args, **kwargs)
    for twin in (copy.copy(new), copy.deepcopy(new),
                 pickle.loads(pickle.dumps(new))):
        assert type(twin) is NEW[name]
        assert twin == new
        assert field_items(twin) == field_items(new)
        assert outcome(repr, twin) == outcome(repr, old)
        assert outcome(hash, twin) == outcome(hash, old)
    for twin in (copy.copy(old), copy.deepcopy(old)):
        assert outcome(repr, twin) == outcome(repr, new)


@pytest.mark.parametrize("group", [subsets.Z, subsets.Zn(1)], ids=repr)
def test_full_equals_periodic_one_though_the_forms_differ(group):
    full = subsets.DegreeSet.full(group)
    periodic = subsets.DegreeSet.periodic(1, [0], group)
    assert (full.form, periodic.form) == (FORM_FULL, FORM_PERIODIC)
    assert full == periodic and hash(full) == hash(periodic)
    assert repr(full) != repr(periodic)
    assert {full, periodic} == {full}
