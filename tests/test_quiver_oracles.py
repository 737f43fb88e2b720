"""quiver_algebra against the per-pair build it replaced.

pair_read_quiver_algebra and pair_read_avoiding_paths below are the earlier
build, kept as the reference: the paths are listed by testing every arrow
against the last one's target, and the mult table looks up the residue of
the concatenation of every tag-matched pair of basis paths.  They are the
library's code as it was, but for reading PATH_CAP from constructions, so
that one patch moves the caps of both builds.  The library reads each
product off the split of a listed path instead, at the degrees with a
relation ideal through its class table; these tests check that
both give the same components, unit and mult table, keys and rows in the
same order, on quivers of 1-3 vertices with monomial and multi-term
relations over Q, GF(3) and GF(101), and that with small caps both refuse
at the same degree with the same message.
"""

import functools
import itertools
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gradedsupport import constructions
from gradedsupport.constructions import (_check_table, _path_source,
                                         _path_target, _split_relation,
                                         quiver_algebra, regular_module)
from gradedsupport.errors import CapacityError, PreconditionError
from gradedsupport.exactlin import GF, QQ, LabeledSpace, Subspace, _rank, \
    matched_pairs
from gradedsupport.graded_core import GradedAlgebra, _generated_rows, \
    is_generated_in, is_generated_in_degrees_01, submodule_from_subspaces
from gradedsupport.subsets import Z

FIELDS = [QQ, GF(3), GF(101)]
PATH_BOUND = 600  # paths drawn quivers list, at most, before their words


# ---------------------------------------------------------------------------
# the per-pair build


def pair_read_avoiding_paths(num_vertices, arrows, words, top):
    """The paths of degree 1..top through no word of words, by degree.

    Degree m extends degree m - 1 by one arrow, less the paths ending in a
    word; every prefix of such a path avoids the words too, so the order is
    that of the full path listing.  Stops at the first degree with no path,
    and checks constructions.PATH_CAP and the table cap as each degree is
    listed.
    """
    total, entries, maps = num_vertices, num_vertices ** 2, 1
    _check_table(maps, entries, f"the quiver up to degree 0 (top {top})")
    lengths = {len(w) for w in words}
    # the paths of each degree counted by target and by source vertex
    ends, starts = [Counter(range(num_vertices))], [Counter(range(num_vertices))]
    paths = {}
    for m in range(1, top + 1):
        grown = ((a,) for a in range(len(arrows))) if m == 1 else (
            p + (a,) for p in paths[m - 1] for a in range(len(arrows))
            if arrows[a][0] == arrows[p[-1]][1])
        level = list(itertools.islice(
            (p for p in grown if not any(p[-n:] in words for n in lengths)),
            constructions.PATH_CAP - total + 1))
        if not level:
            break
        total += len(level)
        if total > constructions.PATH_CAP:
            raise CapacityError(
                f"the quiver's vertices and relation-avoiding paths up to "
                f"degree {m} (top {top}) are over the cap of {constructions.PATH_CAP}")
        paths[m] = level
        ends.append(Counter(arrows[p[-1]][1] for p in level))
        starts.append(Counter(arrows[p[0]][0] for p in level))
        entries += len(level) * sum(e * starts[m - g][v] for g in range(m + 1)
                                    for v, e in ends[g].items())
        maps += m + 1  # the (g, m - g) maps
        _check_table(maps, entries, f"the quiver up to degree {m} (top {top})")
    return paths


def pair_read_quiver_algebra(num_vertices, arrows, relations, top, field=QQ) -> GradedAlgebra:
    """Path algebra of a quiver modulo homogeneous relations, up to degree top.

    arrows is a list of (source, target) vertex pairs; a path (a_1, ..., a_m)
    composes arrow a_1 first.  Degree = path length, left tag = source,
    right tag = target.  Relations (degree >= 2) generate a two-sided ideal
    expanded degreewise, so no term ordering is involved.  Only the paths
    avoiding the one-term blocks are listed, and the others expand on them.
    At a degree the other blocks never reach, every degree of a monomial
    algebra, a path's class is its own coordinate and no residue vector is
    built.
    """
    if num_vertices < 1:
        raise PreconditionError("a quiver needs at least one vertex")
    if top < 0:
        raise PreconditionError("top degree must be >= 0")
    arrows = [(int(s), int(t)) for s, t in arrows]
    for s, t in arrows:
        if not (0 <= s < num_vertices and 0 <= t < num_vertices):
            raise PreconditionError(f"arrow endpoint out of range: ({s}, {t})")
    F = field
    words, rel_by_degree = set(), {}
    for rel in relations:
        for length, _, _, terms in _split_relation(F, arrows, rel):
            if len(terms) == 1:
                words.add(terms[0][1])
            elif terms:
                rel_by_degree.setdefault(length, []).append(terms)
    paths = pair_read_avoiding_paths(num_vertices, arrows, words, top)
    index = {m: {p: i for i, p in enumerate(ps)} for m, ps in paths.items()}

    # the ideal of the other blocks, on the coordinates of the avoiding paths
    ideal = {}
    for m in range(2, len(paths) + 1):
        at = index[m]
        vecs = []
        prev = ideal.get(m - 1)
        if prev is not None:
            for row in prev.basis:
                terms = [(paths[m - 1][pi], coeff) for pi, coeff in row.items()]
                for a in range(len(arrows)):
                    left = {at[w]: c for p, c in terms if (w := (a,) + p) in at}
                    right = {at[w]: c for p, c in terms if (w := p + (a,)) in at}
                    vecs += [v for v in (left, right) if v]
        for terms in rel_by_degree.get(m, []):
            vecs.append({at[p]: c for c, p in terms if p in at})
        if vecs:
            ideal[m] = Subspace.from_vectors(F, len(paths[m]), vecs)

    comps = {0: LabeledSpace(num_vertices, tuple(range(num_vertices)),
                             tuple(range(num_vertices)))}
    basis_paths = {0: [()] * num_vertices}  # degree 0: the empty paths
    for m, ps in paths.items():
        sp = ideal.get(m)
        pivots = set(sp.pivots) if sp is not None else set()
        keep = [i for i in range(len(ps)) if i not in pivots]
        if not keep:
            continue
        comps[m] = LabeledSpace(
            len(keep),
            tuple(_path_source(arrows, ps[i]) for i in keep),
            tuple(_path_target(arrows, ps[i]) for i in keep))
        basis_paths[m] = [ps[i] for i in keep]

    @functools.cache
    def residue(t, word):
        """The class of a path of degree t > 0 in the kept coordinates as a
        {col: value} row, read only for the products the table looks up;
        zero through a word of J, and the path's own coordinate at a degree
        with no ideal."""
        i = index[t].get(word)
        if i is None:
            return {}
        sp = ideal.get(t)
        if sp is None:
            return {i: F.one()}
        return {j - bisect_left(sp.pivots, j): v
                for j, v in sp.reduce({i: F.one()}).items()}

    mult = {}
    degs = sorted(comps)
    for g in degs:
        for h in degs:
            t = g + h
            pairs = matched_pairs(comps[g], comps[h]) if t in comps else ()
            if pairs:  # e_i e_j = e_j below, as i = j
                mult[(g, h)] = {(i, j): row for i, j in pairs if (
                    row := {j: F.one()} if t == 0
                    else residue(t, basis_paths[g][i] + basis_paths[h][j]))}
    unit = tuple(F.one() for _ in range(num_vertices))
    return GradedAlgebra._of(Z, (0, top), num_vertices, F, comps, mult, unit)


# ---------------------------------------------------------------------------
# random quivers


def _path_count(num_vertices, arrows, top):
    """The paths of degrees 1..top, words not taken out."""
    ending, total = [1] * num_vertices, 0
    for _ in range(top):
        ending = [sum(ending[s] for s, t in arrows if t == v)
                  for v in range(num_vertices)]
        total += sum(ending)
    return total


@st.composite
def quivers(draw):
    """(num_vertices, arrows, relations, top): relations of degree 2 or 3,
    one-term (a monomial word) or up to three terms, coefficients zero
    included, on a quiver listing at most PATH_BOUND paths."""
    num_vertices = draw(st.integers(1, 3))
    vertex = st.integers(0, num_vertices - 1)
    arrows = draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                           max_size=4))

    def path(length):
        p = [draw(st.integers(0, len(arrows) - 1))]
        while len(p) < length:
            out = [a for a, (s, _) in enumerate(arrows)
                   if s == arrows[p[-1]][1]]
            if not out:
                return None
            p.append(draw(st.sampled_from(out)))
        return tuple(p)

    relations = []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(2, 3))
        terms = [(draw(st.integers(-3, 3)), p)
                 for _ in range(draw(st.sampled_from([1, 1, 2, 3])))
                 if (p := path(length)) is not None]
        if terms:
            relations.append(terms)
    top = draw(st.integers(0, 8))
    while _path_count(num_vertices, arrows, top) > PATH_BOUND:
        top -= 1
    return num_vertices, arrows, relations, top


def _outcome(build, *args):
    """The algebra's components, unit and mult table, keys and rows in
    order, or the refusal's class and message."""
    try:
        a = build(*args)
    except (CapacityError, PreconditionError) as e:
        return type(e).__name__, str(e)
    return (a.window, a.components, a.unit,
            [(key, list(rows.items())) for key, rows in a._maps.items()])


@settings(max_examples=150)
@given(quivers(), st.sampled_from(FIELDS))
def test_split_read_matches_the_pair_read(quiver, field):
    got = _outcome(quiver_algebra, *quiver, field)
    assert not isinstance(got[0], str), got
    assert got == _outcome(pair_read_quiver_algebra, *quiver, field)


@settings(max_examples=50)
@given(quivers(), st.sampled_from(FIELDS))
def test_generation_in_degrees_0_and_1_matches_the_rank(quiver, field):
    # is_generated_in_degrees_01 and is_generated_in skip the rank when the
    # one-entry product rows reach every column; the rank of every degree
    # is the reference.  A is generated in degrees 0 and 1 exactly when its
    # right ideal A_{>=1} is generated by A_1, on a tag-ordered basis.
    a = quiver_algebra(*quiver, field)
    want = all(_rank(field, _generated_rows(a, [1], i), a.component(i).dim)
               == a.component(i).dim for i in a.degrees() if i >= 2)
    assert is_generated_in_degrees_01(a) == want
    plus = submodule_from_subspaces(regular_module(a), {
        d: Subspace.full(field, a.component(d).dim)
        for d in a.degrees() if d >= 1})
    assert is_generated_in(plus, [1]) == want


# PATH_CAP from 3 up: the vertices alone fit, as the real caps ensure (a
# quiver of more than 2048 vertices is over TABLE_CAP at degree 0).  The
# pair read's listing takes no path at all when they fill the cap.
@settings(max_examples=100)
@given(quivers(), st.sampled_from(FIELDS), st.integers(3, 60),
       st.integers(1, 4000))
def test_split_read_refuses_where_the_pair_read_does(quiver, field,
                                                     path_cap, table_cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "PATH_CAP", path_cap)
        mp.setattr(constructions, "TABLE_CAP", table_cap)
        assert _outcome(quiver_algebra, *quiver, field) \
            == _outcome(pair_read_quiver_algebra, *quiver, field)
