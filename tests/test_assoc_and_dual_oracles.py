"""The associativity scan and the degreewise dual against their old forms.

_assoc_witness once walked every basis triple of X_s x A_u x A_v, tested the
tags of each pair inline and read each product through _map_row.  The
library walks the matched pairs the objects own, x.pairs(s, u) and, for
each j, the k that a.pairs(u, v) matches to it, over each block's row dicts
read once.  The triple order is the same, so the first witness must be the
same on valid objects and on single-entry mutants of them.

n_homogeneous_dual once parsed its relation lists itself, into dense rows
over the v_dim^n words, and guessed a subspace's degree with math.log.  The
library reads the lists through the path algebras' own _split_relation on
the quiver of v_dim loops and finds the degree by an exact integer search.
Valid inputs must give equal algebras, byte for byte in JSON.  Inputs with
one fault must raise the same class, with the same message but for these:
a letter out of range reads "arrow index out of range", two term lengths
inside one relation read "relation terms must share one degree", and a term
of degree below 2 reads "relations must have degree >= 2" also where the
relation degree was already fixed.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from gradedsupport.constructions import (PATH_CAP, _coerce,
                                         generic_pair_algebra, group_algebra,
                                         n_homogeneous_dual, quiver_algebra,
                                         regular_module, zero_sum_pair_algebra)
from gradedsupport.errors import CapacityError, PreconditionError
from gradedsupport.exactlin import GF, QQ, Subspace, _accumulate, nullspace
from gradedsupport.graded_core import kill_support_algebra
from gradedsupport.graded_objects import (GradedAlgebra, GradedModule,
                                          _assoc_witness)
from gradedsupport.serialize import dump_json
from gradedsupport.subsets import DegreeSet
from test_graded_core_oracles import (FIELDS, dual_numbers_in_degree_0,
                                      hom_pairs, z_algebra)


# ---------------------------------------------------------------------------
# oracles


def assoc_witness_by_tag_tests(x):
    """First basis triple with (x a) b != x (a b), or None: every basis
    triple, its tags tested inline."""
    a = x._acting()
    F = x.field
    adegs = a.degrees()
    for s in x.degrees():
        cs = x.component(s)
        for u in adegs:
            cu = a.component(u)
            su = x.add_deg(s, u)
            for v in adegs:
                cv = a.component(v)
                uv = a.add_deg(u, v)
                ct = x.component(x.add_deg(su, v))
                if ct.dim == 0:
                    continue
                for i in range(cs.dim):
                    for j in range(cu.dim):
                        if cs.right_tags[i] != cu.left_tags[j]:
                            continue
                        xa = x._map_row(s, u, i, j)
                        for kk in range(cv.dim):
                            if cu.right_tags[j] != cv.left_tags[kk]:
                                continue
                            r1 = _accumulate(F, xa,
                                             lambda m: x._map_row(su, v, m, kk))
                            ab = a.mult_row(u, v, j, kk)
                            r2 = _accumulate(F, ab,
                                             lambda m: x._map_row(s, uv, i, m))
                            if r1 != r2:
                                return ("assoc", (s, u, v), (i, j, kk))
    return None


def dual_by_dense_rows(v_dim, relations, top, field=QQ, degree=None):
    """n_homogeneous_dual with its own relation parser, dense rows over
    the words, and a subspace's degree from math.log."""
    if v_dim < 1:
        raise PreconditionError("need at least one generator")
    if v_dim > PATH_CAP:
        raise CapacityError(
            f"{v_dim} generators, over the path cap of {PATH_CAP}")
    loops = [(0, 0)] * v_dim

    def all_words(n):
        if top < n:
            raise PreconditionError(
                f"the window top {top} cannot hold the degree-{n} relations")
        total = 0
        for m in range(n + 1):
            total += v_dim ** m
            if total > PATH_CAP:
                raise CapacityError(
                    f"the quiver has {total} paths up to degree {m} (top "
                    f"{n}), over the cap of {PATH_CAP}")
        return list(itertools.product(range(v_dim), repeat=n))

    F = field
    n = None if degree is None else int(degree)
    if n is not None and n < 2:
        raise PreconditionError("the relation degree must be at least 2")
    rows = []
    words = None
    word_index = None
    if isinstance(relations, Subspace):
        if relations.field is not F:
            raise PreconditionError("relation subspace is over another field")
        if n is None:
            n = round(math.log(relations.ambient, v_dim)) if v_dim > 1 \
                else None
            if n is None or v_dim ** n != relations.ambient or n < 2:
                raise PreconditionError(
                    "cannot infer the relation degree from a subspace of "
                    f"dimension {relations.ambient}; pass degree=")
        if relations.ambient != v_dim ** n:
            raise PreconditionError(
                f"relation subspace lives in dimension "
                f"{relations.ambient}, expected {v_dim ** n}")
        words = all_words(n)
        rows = list(relations.basis)
    else:
        for rel in relations:
            vec = None
            for coeff, path in rel:
                path = tuple(int(a) for a in path)
                if any(a < 0 or a >= v_dim for a in path):
                    raise PreconditionError(f"letter out of range in {path}")
                if n is None:
                    n = len(path)
                    if n < 2:
                        raise PreconditionError(
                            "relations must have degree >= 2")
                if words is None:
                    words = all_words(n)
                    word_index = {w: i for i, w in enumerate(words)}
                if len(path) != n:
                    raise PreconditionError(
                        "all relations must share one degree")
                if vec is None:
                    vec = [F.zero()] * len(words)
                vec[word_index[path]] = F.add(vec[word_index[path]],
                                              _coerce(F, coeff))
            if vec is not None:
                rows.append(vec)
        if n is None:
            raise PreconditionError("the dual of a free algebra needs its "
                                    "degree; pass degree=")
        if words is None:
            words = all_words(n)
    perp = nullspace(F, rows, len(words))
    dual_rels = []
    for row in perp.basis:
        dual_rels.append([(c, words[i]) for i, c in sorted(row.items())])
    return quiver_algebra(1, loops, dual_rels, top, field)


# ---------------------------------------------------------------------------
# the associativity scan


SCAN_FIELDS = (QQ, GF(3), GF(101))


@st.composite
def scanned_algebras(draw):
    field = draw(st.sampled_from(SCAN_FIELDS))
    kind = draw(st.sampled_from(["poly", "loops", "cycle", "killed", "Zn",
                                 "dual", "pair"]))
    if kind == "Zn":
        return group_algebra(draw(st.integers(1, 4)), field)
    if kind == "dual":
        return dual_numbers_in_degree_0(field)
    if kind == "pair":
        g = draw(st.sampled_from([1, 2, -1]))
        if draw(st.booleans()):
            return zero_sum_pair_algebra(g, field)
        return generic_pair_algebra(g, 3, field)
    if kind == "killed":
        n = draw(st.integers(2, 4))
        a = z_algebra(draw(st.sampled_from(["poly", "loops", "cycle"])),
                      2 * n + 1, field)
        return kill_support_algebra(a, DegreeSet.periodic(n, (0, 1)))
    return z_algebra(kind, draw(st.integers(1, 5)), field)


def _rebuilt(x, maps, over=None):
    """x with the map table maps, over another algebra for a module."""
    if isinstance(x, GradedModule):
        return GradedModule(x.over if over is None else over, x.window,
                            x.components, maps)
    return GradedAlgebra(x.group, x.window, x.k, x.field, x.components,
                         maps, x.unit)


def _with_entry(x, g, h, p, q, v):
    """x with entry q of pair p's row in map (g, h) set to the int v."""
    maps = {key: dict(rows) for key, rows in x._table().items()}
    row = dict(maps.setdefault((g, h), {}).get(p, {}))
    row[q] = x.field.from_int(v)
    maps[(g, h)][p] = {c: e for c, e in row.items() if e}
    return _rebuilt(x, maps)


def _mutant(draw, x):
    """x with one entry of one map changed, added or dropped, at a matched
    pair and a column of the target; x itself when it has no such spot."""
    spots = [(g, h) for g in x.degrees() for h in x._acting().degrees()
             if x.pairs(g, h) and x.component(x.add_deg(g, h)).dim]
    if not spots:
        return x
    g, h = draw(st.sampled_from(spots))
    dim = x.component(x.add_deg(g, h)).dim
    return _with_entry(x, g, h, draw(st.sampled_from(x.pairs(g, h))),
                       draw(st.integers(0, dim - 1)), draw(st.integers(-2, 2)))


@settings(max_examples=150, deadline=None)
@given(a=scanned_algebras(), data=st.data())
def test_algebra_witness_matches_the_tag_testing_scan(a, data):
    assert _assoc_witness(a) == assoc_witness_by_tag_tests(a) is None
    b = _mutant(data.draw, a)
    assert _assoc_witness(b) == assoc_witness_by_tag_tests(b)


@settings(max_examples=150, deadline=None)
@given(pair=hom_pairs(), data=st.data())
def test_module_witness_matches_the_tag_testing_scan(pair, data):
    m = pair[0]
    assert _assoc_witness(m) == assoc_witness_by_tag_tests(m) is None
    if data.draw(st.booleans()):
        x = _mutant(data.draw, m)
    else:  # the same action over a mutant of its algebra
        x = _rebuilt(m, m._table(), over=_mutant(data.draw, m.over))
    assert _assoc_witness(x) == assoc_witness_by_tag_tests(x)


@pytest.mark.parametrize("field", SCAN_FIELDS)
def test_every_single_entry_mutant_gets_the_old_witness(field):
    # every spot of the killed two-vertex quiver's regular module, and of
    # the algebra itself, set to 0 and to 2: most are caught
    b = kill_support_algebra(z_algebra("cycle", 5, field),
                             DegreeSet.periodic(3, (0, 1)))
    caught = total = 0
    for x in (b, regular_module(b)):
        for g, h in itertools.product(x.degrees(), b.degrees()):
            dim = x.component(x.add_deg(g, h)).dim
            for p, q, v in itertools.product(x.pairs(g, h), range(dim),
                                             (0, 2)):
                y = _with_entry(x, g, h, p, q, v)
                want = assoc_witness_by_tag_tests(y)
                assert _assoc_witness(y) == want
                caught += want is not None
                total += 1
    assert total > 100 and caught > total // 2


# ---------------------------------------------------------------------------
# the degreewise dual


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except PreconditionError as e:  # CapacityError among them
        return type(e), str(e)


def _same_algebra(got, want):
    assert isinstance(got, GradedAlgebra), got
    assert isinstance(want, GradedAlgebra), want
    assert dump_json(got) == dump_json(want)


@st.composite
def relation_lists(draw):
    """(field, v_dim, n, relations, top, degree): lists of 0..3 relations of
    0..3 terms each, on words of one length n, empty relations included."""
    field = draw(st.sampled_from(FIELDS))
    v_dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4 if v_dim < 3 else 3))

    def word():
        return tuple(draw(st.lists(st.integers(0, v_dim - 1),
                                   min_size=n, max_size=n)))

    relations = [[(draw(st.integers(-3, 3)), word())
                  for _ in range(draw(st.integers(0, 3)))]
                 for _ in range(draw(st.integers(0, 3)))]
    top = draw(st.integers(n, n + 2))
    degree = draw(st.sampled_from([None, n]))
    return field, v_dim, n, relations, top, degree


@settings(max_examples=200, deadline=None)
@given(case=relation_lists())
def test_dual_of_a_relation_list_matches_the_dense_rows(case):
    field, v_dim, _, relations, top, degree = case
    got = _outcome(n_homogeneous_dual, v_dim, relations, top, field, degree)
    want = _outcome(dual_by_dense_rows, v_dim, relations, top, field, degree)
    if isinstance(want, tuple):  # no nonempty relation and no degree
        assert got == want
        assert "pass degree=" in want[1]
    else:
        _same_algebra(got, want)


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(FIELDS), v_dim=st.integers(1, 3),
       n=st.integers(2, 3), data=st.data())
def test_dual_of_a_subspace_matches_the_dense_rows(field, v_dim, n, data):
    ambient = v_dim ** n
    vecs = [[field.from_int(data.draw(st.integers(-2, 2)))
             for _ in range(ambient)]
            for _ in range(data.draw(st.integers(0, 3)))]
    space = Subspace.from_vectors(field, ambient, vecs)
    top = data.draw(st.integers(n, n + 2))
    degree = data.draw(st.sampled_from([None, n]))
    got = _outcome(n_homogeneous_dual, v_dim, space, top, field, degree)
    want = _outcome(dual_by_dense_rows, v_dim, space, top, field, degree)
    if isinstance(want, tuple):  # one letter: no degree to infer
        assert (v_dim, degree) == (1, None) and got == want
    else:
        _same_algebra(got, want)


# fault -> the new message for the old one; None: unchanged
REWORDED = {
    "letter": lambda old: old.replace("letter out of range",
                                      "arrow index out of range"),
    "split": lambda old: "relation terms must share one degree",
    "short": lambda old: "relations must have degree >= 2",
}


@st.composite
def one_fault(draw):
    """A valid relation list with one fault put in, and the fault's name."""
    field, v_dim, n, relations, top, degree = draw(relation_lists())
    relations = [r for r in relations if r] or [[(1, (0,) * n)]]
    fault = draw(st.sampled_from(["letter", "split", "short", "whole", "top",
                                  "degree", "free"]))
    r = draw(st.integers(0, len(relations) - 1))
    t = draw(st.integers(0, len(relations[r]) - 1))
    if fault == "letter":
        c, w = relations[r][t]
        pos = draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from([v_dim, v_dim + 2, -1]))
        relations[r][t] = (c, w[:pos] + (bad,) + w[pos + 1:])
    elif fault in ("split", "short", "whole"):
        # lengths 2..n + 1 other than n, all inside the window top; for a
        # whole relation another one of length n stays
        length = (draw(st.integers(0, 1)) if fault == "short" else
                  draw(st.sampled_from([m for m in range(2, n + 2)
                                        if m != n])))
        top = max(top, n + 1)
        odd = (1, tuple(draw(st.integers(0, v_dim - 1))
                        for _ in range(length)))
        if fault == "whole":
            relations.insert(draw(st.integers(0, len(relations))), [odd])
            relations.append([(1, (0,) * n)])
        else:
            relations[r].insert(draw(st.integers(0, len(relations[r]))), odd)
    elif fault == "top":
        top = n - 1
    elif fault == "degree":
        degree = draw(st.integers(-1, 1))
    else:
        relations, degree = [], None
    return fault, (v_dim, relations, top, field, degree)


@settings(max_examples=300, deadline=None)
@given(case=one_fault())
def test_a_single_fault_is_refused_as_before(case):
    fault, args = case
    got = _outcome(n_homogeneous_dual, *args)
    want = _outcome(dual_by_dense_rows, *args)
    assert isinstance(got, tuple) and isinstance(want, tuple), (got, want)
    assert got[0] is want[0]
    if fault == "short":
        # the old parser read a short term as a degree mismatch once the
        # degree was fixed, by an earlier term or by degree=
        assert want[1] in ("relations must have degree >= 2",
                           "all relations must share one degree")
    if fault in REWORDED:
        assert got[1] == REWORDED[fault](want[1])
    else:
        assert got[1] == want[1]


def test_a_term_fault_now_comes_before_the_word_listing():
    # the first relation's first term asks for 2^17 words, its second term
    # names a letter out of range: the old parser listed words first
    rel = [[(1, (0,) * 17), (1, (5,) * 17)]]
    assert _outcome(dual_by_dense_rows, 2, rel, 17)[0] is CapacityError
    assert _outcome(n_homogeneous_dual, 2, rel, 17) == (
        PreconditionError, f"arrow index out of range in {(5,) * 17}")


@pytest.mark.parametrize("v_dim, ambient", [(2, 0), (2, 1), (2, 2), (2, 6),
                                            (3, 8), (1, 1), (1, 4)])
def test_a_subspace_degree_that_is_no_power_is_refused(v_dim, ambient):
    # math.log(0, 2) raised ValueError; the integer search refuses it
    with pytest.raises(PreconditionError, match="cannot infer the relation "
                                                f"degree .* {ambient};"):
        n_homogeneous_dual(v_dim, Subspace.zero(QQ, ambient), 6)


@pytest.mark.parametrize("v_dim, n", [(2, 2), (3, 2), (2, 6), (5, 3)])
def test_a_subspace_degree_is_found_exactly(v_dim, n):
    # R = 0: every degree-n word is dual to R, so A^! stops below n
    got = n_homogeneous_dual(v_dim, Subspace.zero(QQ, v_dim ** n), n)
    assert got.component(n).dim == 0
    assert got.component(n - 1).dim == v_dim ** (n - 1)
