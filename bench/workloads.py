"""The benchmark's three workloads: seeded inputs, ops and answer checks.

Each workload builds a fixed cycle of ops from the workload seed.  The run
repeats the cycle, so every run of a workload sees the same mix of inputs.
An op calls the package in-process, either as `gradedsupport.cli.main(argv)`
on the generated JSON files or through the public API, and returns an
outcome.  `check` compares the outcome with an answer the benchmark works out
on its own (a restated brute-force scan, a pinned value, or an independent
criterion from the package) and returns None or a description of the error.

Library calls go through the `gs` module attributes at call time, never
through names imported here, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random

import gradedsupport as gs
from gradedsupport import cli, serialize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PINNED = os.path.join(BENCH_DIR, "pinned.json")
FIXTURES = os.path.join(ROOT, "fixtures", "enumerate")


class Op:
    """One unit of work: run() is timed, check() is not."""

    kind = "op"

    def run(self):
        raise NotImplementedError

    def check(self, outcome):
        raise NotImplementedError

    def corrupt(self, outcome):
        """A wrong answer of the same shape, for the self-test."""
        raise NotImplementedError


class CliOutcome:
    __slots__ = ("rc", "out", "err")

    def __init__(self, rc, out, err):
        self.rc, self.out, self.err = rc, out, err


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            rc = e.code if isinstance(e.code, int) else 2
    return CliOutcome(rc, out.getvalue(), err.getvalue())


class CliOp(Op):
    def __init__(self, kind, argv):
        self.kind = kind
        self.argv = argv

    def run(self):
        return run_cli(self.argv)


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_pinned():
    return _load(PINNED)


# ---------------------------------------------------------------------------
# hom-q: hom dimensions over Q on the default two-loop quiver algebra

HOM_Q_CAP_S = 1.0      # samples slower than this at calibration are left out
HOM_Q_STRATA = 14      # equal-count cost strata of the admitted samples
HOM_Q_DRAWS = 2        # distinct samples drawn from each stratum
HOM_Q_ANCHOR = 12      # the largest hom system sampled (538 unknowns, 3150
                       # equations); in every cycle, so peak memory is steady


def hom_q_strata(table):
    """Equal-count cost strata of the admitted samples other than the
    anchor."""
    rows = sorted((r for r in table["samples"] if r["q_s"] is not None
                   and r["q_s"] <= HOM_Q_CAP_S
                   and r["seed"] != HOM_Q_ANCHOR),
                  key=lambda r: (r["q_s"], r["seed"]))
    k = HOM_Q_STRATA
    return [rows[len(rows) * i // k: len(rows) * (i + 1) // k]
            for i in range(k)]


class HomQOp(CliOp):
    def __init__(self, sample):
        super().__init__("verify-equivalence",
                         ["verify-equivalence", "--samples", "1", "--seed",
                          str(sample["seed"]), "--n", "3", "--format",
                          "json"])
        self.expected = (sample["ambient"], sample["killed"])

    def check(self, o):
        if o.rc != 0:
            return f"exit {o.rc}: {o.err.strip()}"
        got = json.loads(o.out)["samples"][0]
        dims = (got["hom_dim_ambient"], got["hom_dim_killed"])
        if dims[0] != dims[1]:
            return f"hom dimensions differ after killing: {dims}"
        if dims != tuple(self.expected):
            return f"hom dimensions {dims}, pinned {self.expected}"
        return None

    def corrupt(self, o):
        doc = json.loads(o.out)
        doc["samples"][0]["hom_dim_killed"] += 1
        return CliOutcome(o.rc, json.dumps(doc), o.err)


def build_hom_q(seed, workdir):
    rng = random.Random(f"hom-q/{seed}")
    table = load_pinned()["hom_q"]
    picks = [r for stratum in hom_q_strata(table)
             for r in rng.sample(stratum, HOM_Q_DRAWS)]
    picks += [r for r in table["samples"] if r["seed"] == HOM_Q_ANCHOR]
    # Spread the cost classes over the cycle: the host's speed drifts over
    # seconds, and ops of like cost run back to back would share one state.
    rng.shuffle(picks)
    ops = [HomQOp(r) for r in picks]
    _dump(os.path.join(workdir, "ops.json"), [op.argv for op in ops])
    return ops


# ---------------------------------------------------------------------------
# lift-gfp: liftability and certified lifts over GF(101)

LIFT_PERIODS = (3, 4, 5)
LIFT_PER_KIND = 24     # per period: this many category and killed modules
LIFT_POOL = 4          # candidates drawn per module kept


class LiftOp(CliOp):
    def __init__(self, kind, paths, ctx):
        x, s, u, a = paths
        super().__init__(kind, ["lift", x, s, u, a, "--format", "json",
                                "--full-report"])
        self.ctx = ctx
        self.x_path = x
        self._expected = None

    def expected(self):
        """Exit code and input dims, from the interval criterion."""
        if self._expected is None:
            x = gs.serialize.module_from_json(_load(self.x_path))
            u, a = self.ctx["u"], self.ctx["a"]
            liftable = gs.liftability_check_interval(x, u, u, a).liftable
            dims = {d: x.component(d).dim for d in range(x.window[0],
                                                         x.window[1] + 1)}
            self._expected = (0 if liftable else 1, dims)
        return self._expected

    def check(self, o):
        rc, dims = self.expected()
        if o.rc != rc:
            return f"exit {o.rc}, interval criterion says {rc}: " \
                   f"{o.err.strip()}"
        report = json.loads(o.out)
        if report["liftable"] != (rc == 0):
            return "report disagrees with its exit code"
        if rc == 1:
            return None if report["violations"] else "no violation witness"
        if not report["isomorphism_certified"]:
            return "lift not certified"
        lift = gs.serialize.module_from_json(report["module"])
        u = self.ctx["u"]
        killed = gs.kill_support_module(lift, u, u)
        for d, want in dims.items():
            if killed.component(d).dim != want:
                return f"killed lift has dim {killed.component(d).dim} " \
                       f"at degree {d}, input has {want}"
        return None

    def corrupt(self, o):
        report = json.loads(o.out)
        if report.get("module"):
            report["module"]["components"] = []
        else:
            report["liftable"] = not report["liftable"]
        return CliOutcome(o.rc, json.dumps(report), o.err)


def _stratified(rng, pool, key, k):
    """k of pool, one from each of k equal-count strata of pool sorted by
    key, so every seed keeps the same spread of key."""
    ranked = sorted(pool, key=key)
    size = len(ranked) // k
    return [rng.choice(ranked[i * size:(i + 1) * size]) for i in range(k)]


def build_lift_gfp(seed, workdir):
    """Each module kept is one of LIFT_POOL drawn candidates, taken by
    stratified sampling on (lifts?, total dimension), which set an op's cost:
    an op on a module that does not lift stops early, and the others grow
    with the module.  So every seed gives the cycle the same mix."""
    rng = random.Random(f"lift-gfp/{seed}")
    field = gs.GF(101)
    ops = []
    for n in LIFT_PERIODS:
        u = gs.DegreeSet.periodic(n, (0, 1))
        a = gs.truncated_polynomial(2 * n + 2, 1, window=(0, 2 * n + 1),
                                    field=field)
        b = gs.kill_support_algebra(a, u)
        ctx = {"u": u, "a": a}
        s_path = _dump(os.path.join(workdir, f"s{n}.json"),
                       serialize.degree_set_to_json(u))
        u_path = _dump(os.path.join(workdir, f"u{n}.json"),
                       serialize.degree_set_to_json(u))
        a_path = _dump(os.path.join(workdir, f"a{n}.json"),
                       serialize.algebra_to_json(a))

        def category():
            m = gs.random_category_module(a, u, u, rng.randrange(2 ** 31))
            return gs.kill_support_module(m, u, u, b)

        def killed():
            return gs.random_killed_module(b, u, u, rng.randrange(2 ** 31))

        for kind, make in (("category", category), ("killed", killed)):
            pool = [(i, make()) for i in range(LIFT_PER_KIND * LIFT_POOL)]

            def cost_class(item):
                i, x = item
                lifts = kind == "category" or \
                    gs.liftability_check_interval(x, u, u, a).liftable
                return lifts, x.total_dim(), i

            for i, x in _stratified(rng, pool, cost_class, LIFT_PER_KIND):
                path = _dump(os.path.join(workdir, f"x{n}_{kind}{i}.json"),
                             serialize.module_to_json(x))
                ops.append(LiftOp(f"lift-{kind}",
                                  (path, s_path, u_path, a_path), ctx))
    return ops


# ---------------------------------------------------------------------------
# support-regrade: enumeration, set and pair predicates, regrading

def scan_ring_supporting(members, contains):
    """The defining three-element scan: a+b+c in U implies
    (a+b in U iff b+c in U).  `contains` returns None off the window."""
    for a, b, c in itertools.product(members, repeat=3):
        total, ab, bc = contains(a + b + c), contains(a + b), contains(b + c)
        if total is True and ab is not None and bc is not None and ab != bc:
            return False
    return True


def scan_right_modular(n, s_res, u_res):
    """(S, U) right modular for periodic sets with common period n."""
    def u_has(x):
        return x % n in u_res

    def s_has(x):
        return x % n in s_res

    if not scan_ring_supporting(sorted(u_res), u_has):
        return False
    for a in s_res:
        for b in u_res:
            for c in u_res:
                if s_has(a + b + c) and s_has(a + b) != u_has(b + c):
                    return False
    return True


def scan_pseudomorphism(values, lo, hi):
    """Restated regrading-map axioms on the window [lo, hi]."""
    phi = dict(zip(range(lo, hi + 1), values))
    if not lo <= 0 <= hi or phi[0] != 0 or len(set(values)) != len(values):
        return False
    img = set(values)
    for a in range(lo, hi + 1):
        for b in range(lo, hi + 1):
            if lo <= a + b <= hi and phi[a] + phi[b] in img \
                    and phi[a + b] != phi[a] + phi[b]:
                return False
    return True


def _subsets_digest(subsets):
    raw = json.dumps(subsets, separators=(",", ":")).encode()
    return hashlib.sha256(raw).hexdigest()


class EnumerateOp(CliOp):
    def __init__(self, n, pinned):
        super().__init__("enumerate", ["enumerate", "--n", str(n),
                                       "--format", "json"])
        self.n = n
        self.pinned = pinned
        fixture = os.path.join(FIXTURES, f"n{n}.json")
        self.fixture = _load(fixture) if os.path.exists(fixture) else None
        self._scanned = None

    def check(self, o):
        if o.rc != 0:
            return f"exit {o.rc}: {o.err.strip()}"
        got = json.loads(o.out)
        if self.fixture is not None and \
                (got["count"], got["subsets"]) != \
                (self.fixture["count"], self.fixture["subsets"]):
            return f"enumeration of n={self.n} differs from its fixture"
        if got["count"] != len(got["subsets"]) or \
                _subsets_digest(got["subsets"]) != self.pinned["sha256"] or \
                got["count"] != self.pinned["count"]:
            return f"enumeration of n={self.n} differs from the pinned one"
        if self._scanned is None:  # same output every time: scan it once
            n = self.n
            self._scanned = all(
                scan_ring_supporting(j, lambda x, j=set(j): x % n in j)
                for j in got["subsets"])
        return None if self._scanned else \
            f"a set listed for n={self.n} fails the three-element scan"

    def corrupt(self, o):
        got = json.loads(o.out)
        got["subsets"].append([0, 1])
        return CliOutcome(o.rc, json.dumps(got), o.err)


class VerdictOp(CliOp):
    """check-set / check-pair: exit code and verdict against a scan."""

    def __init__(self, kind, argv, expected):
        super().__init__(kind, argv + ["--format", "json"])
        self.expected = expected

    def check(self, o):
        want = 0 if self.expected else 1
        if o.rc != want:
            return f"exit {o.rc}, the scan says {want}: {o.err.strip()}"
        if json.loads(o.out)["holds"] != self.expected:
            return "verdict disagrees with its exit code"
        return None

    def corrupt(self, o):
        return CliOutcome(1 - o.rc, o.out, o.err)


class RegradeCliOp(CliOp):
    """`regrade` of a killed algebra along a delta map."""

    def __init__(self, argv, accept, dims):
        super().__init__("regrade-accept" if accept else "regrade-reject",
                         argv + ["--format", "json"])
        self.accept = accept
        self.dims = dims  # sigma -> dim of B at phi(sigma)

    def check(self, o):
        if not self.accept:
            if o.rc != 2 or "pseudomorphism" not in o.err:
                return f"expected rejection with exit 2, got exit {o.rc}"
            return None
        if o.rc != 0:
            return f"exit {o.rc}: {o.err.strip()}"
        got = serialize.algebra_from_json(json.loads(o.out))
        dims = {d: got.component(d).dim for d in got.degrees()}
        return None if dims == self.dims else \
            f"regraded dims {dims}, expected {self.dims}"

    def corrupt(self, o):
        return CliOutcome(0 if o.rc else 2, o.out, o.err)


class KoszulOp(CliOp):
    def __init__(self, n):
        super().__init__("koszul-pipeline", ["koszul-pipeline", "--n", str(n),
                                             "--format", "json"])

    def check(self, o):
        if o.rc != 0:
            return f"exit {o.rc}: {o.err.strip()}"
        got = json.loads(o.out)
        lo, hi = got["regraded_window"]
        if not got["holds"] or \
                got["even_preimage_members"] != list(range(lo, hi + 1, 2)):
            return "pipeline checks failed or the preimage is not 2Z"
        return None

    def corrupt(self, o):
        got = json.loads(o.out)
        got["holds"] = False
        return CliOutcome(o.rc, json.dumps(got), o.err)


def _delta_top(u, top):
    """Largest sigma with delta(sigma) <= top."""
    phi = gs.delta_map(u, 0, (0, top))
    return max(s for s in range(top + 1) if phi(s) <= top)


class RoundTripOp(Op):
    """Kill a truncated polynomial to an interval U, regrade it and its
    regular module along delta, then un-regrade the module."""

    kind = "regrade-round-trip"

    def __init__(self, nilpotency, top, u):
        self.nilpotency, self.top, self.u = nilpotency, top, u
        self.sigma_top = _delta_top(u, top)

    def run(self):
        a = gs.truncated_polynomial(self.nilpotency, 1,
                                    window=(0, self.top))
        b = gs.kill_support_algebra(a, self.u)
        phi = gs.delta_map(self.u, 0, (0, self.sigma_top))
        bt = gs.regrade_algebra(b, phi)
        x = gs.regular_module(b)
        v = gs.regrade_module(x, phi, 0, bt)
        return x, gs.un_regrade_module(v, phi, 0, b)

    def check(self, outcome):
        # Compare components and nonzero actions, not modules_equal: when the
        # window's top lies outside U the round trip ends the window at the
        # last degree in delta's image, and modules_equal reports False.
        x, back = outcome
        if back.components != x.components:
            return "round trip changed the components"

        def live(table):
            return {k: m for k, m in table.items() if not m.is_zero()}

        if live(back.action) != live(x.action):
            return "round trip changed the nonzero actions"
        return None

    def corrupt(self, outcome):
        x, back = outcome
        comps = dict(back.components)
        comps.pop(max(comps))
        return x, gs.GradedModule(back.over, back.window, comps, {})


# Each kind of op runs once per size in its list, so every seed gives the
# cycle the same shape; the seed draws the sets, residues and windows.
CHECK_SET_PERIODS = tuple(range(2, 10)) * 2
CHECK_SET_WINDOWS = tuple((-lo, hi) for lo in (0, 3, 6)
                          for hi in (4, 8, 12)) * 2
CHECK_PAIR_PERIODS = tuple(range(3, 10)) * 2
ROUND_TRIP_PERIODS = tuple(range(3, 10))
KOSZUL_PERIODS = tuple(range(3, 9))
REGRADE_ACCEPT_PERIODS = tuple(range(3, 10))
REGRADE_REJECT_PERIODS = (7, 8, 9) * 2  # the periods with such delta maps


def _window_top(n, i):
    """A window top in [n, 3n], stepping through it from slot to slot."""
    return n + n * (i % 5) // 2


def build_support_regrade(seed, workdir):
    rng = random.Random(f"support-regrade/{seed}")
    pinned = load_pinned()["enumerate"]
    ops = [EnumerateOp(n, pinned[str(n)]) for n in range(1, 17)]
    ring = {n: [sorted(j) for j in gs.enumerate_ring_supporting(n)]
            for n in range(2, 10)}
    interval = {n: [j for j in ring[n] if len(j) > 1 and
                    gs.is_translation_of_interval(gs.DegreeSet.periodic(n, j))]
                for n in ring}
    other = {n: [j for j in ring[n] if not
                 gs.is_translation_of_interval(gs.DegreeSet.periodic(n, j))]
             for n in ring}
    counter = itertools.count()

    def path(stem):
        return os.path.join(workdir, f"{stem}{next(counter)}.json")

    def periodic(n, res):
        return serialize.degree_set_to_json(gs.DegreeSet.periodic(n, res))

    for n in CHECK_SET_PERIODS:
        j = rng.choice(ring[n])
        p = _dump(path("set"), periodic(n, j))
        ops.append(VerdictOp("check-set", ["check-set", p], True))
    for lo, hi in CHECK_SET_WINDOWS:
        els = {0} | {e for e in range(lo, hi + 1) if rng.random() < 0.35}
        p = _dump(path("set"), serialize.degree_set_to_json(
            gs.DegreeSet.windowed(els, (lo, hi))))
        expected = scan_ring_supporting(
            sorted(els), lambda x: x in els if lo <= x <= hi else None)
        ops.append(VerdictOp("check-set", ["check-set", p], expected))
    for i, n in enumerate(CHECK_PAIR_PERIODS):
        j = rng.choice([j for j in ring[n] if len(j) > 1])
        if i % 2:  # S = U + t: a modular pair with a nonempty (S : U)
            t = rng.randrange(n)
            s_res = sorted((r + t) % n for r in j)
        else:      # any S, mostly not modular
            s_res = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        sp = _dump(path("s"), periodic(n, s_res))
        up = _dump(path("u"), periodic(n, j))
        ops.append(VerdictOp("check-pair", ["check-pair", sp, up, "--side",
                                            "right"],
                             scan_right_modular(n, set(s_res), set(j))))
    for i, n in enumerate(ROUND_TRIP_PERIODS):
        u = gs.DegreeSet.periodic(n, rng.choice(interval[n]))
        top = _window_top(n, i)
        ops.append(RoundTripOp(top + 1 - rng.randint(0, 2), top, u))
    ops += [KoszulOp(n) for n in KOSZUL_PERIODS]

    def regrade_op(u, top, phi, accept):
        a = gs.truncated_polynomial(top + 1, 1, window=(0, top))
        b = gs.kill_support_algebra(a, u)
        bp = _dump(path("b"), serialize.algebra_to_json(b))
        mp = _dump(path("phi"), serialize.windowed_map_to_json(phi))
        dims = {s: b.component(phi(s)).dim for s in phi.domain()
                if b.component(phi(s)).dim}
        return RegradeCliOp(["regrade", bp, mp], accept, dims)

    for i, n in enumerate(REGRADE_ACCEPT_PERIODS):
        u = gs.DegreeSet.periodic(n, rng.choice(interval[n]))
        top = _window_top(n, i + 2)
        phi = gs.delta_map(u, 0, (0, _delta_top(u, top)))
        ops.append(regrade_op(u, top, phi, True))
    # delta of a non-interval U is often still a pseudomorphism on the
    # window; draw among the ones the restated scan says must be rejected
    rejected = {}
    for n in sorted(set(REGRADE_REJECT_PERIODS)):
        rejected[n] = []
        for j in other[n]:
            u = gs.DegreeSet.periodic(n, j)
            for top in range(n, 3 * n + 1):
                phi = gs.delta_map(u, 0, (0, _delta_top(u, top)))
                if not scan_pseudomorphism(phi.values, *phi.window):
                    rejected[n].append((u, top, phi))
    for n in REGRADE_REJECT_PERIODS:
        ops.append(regrade_op(*rng.choice(rejected[n]), False))
    return ops


WORKLOADS = {
    "hom-q": build_hom_q,
    "lift-gfp": build_lift_gfp,
    "support-regrade": build_support_regrade,
}
