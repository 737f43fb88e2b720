"""Span tracing for the benchmark, installed from outside the package.

`Tracer.install` replaces each listed function with a wrapper in every
module namespace that binds it (`kernel` is bound in `exactlin`,
`graded_core`, `lifting` and `constructions`, for example), and
`uninstall` restores the originals.  The benchmark installs the wrappers
around each traced op only, so the untraced ops it runs in between call
the package's own functions.  Each call of a wrapper records a span
{name, start, end, parent, op}.  Spans stay in memory until the run
ends; `write` dumps them as TSV.

A span's self time is its duration minus the time its child spans cover.
Spans nest strictly because the benchmark is single-threaded, so the covered
time is the sum of the children's durations.  Counters (matrix shapes,
nonzeros, ranks) are computed after the wrapped call returns, inside a span
named `trace.count`, so their cost is billed to the tracer and not to the
caller.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# Layer -> traced functions.  A name with a dot is a classmethod.
LAYERS = {
    "exactlin": ["rref", "kernel", "solve", "subspace_intersect",
                 "Subspace.from_vectors"],
    "graded_core": ["hom_space_basis", "closure_under_action",
                    "torsion_spaces", "quotient_with_maps",
                    "preimage_subspace", "kill_support_algebra",
                    "kill_support_module", "validate_algebra",
                    "regrade_algebra", "regrade_module", "un_regrade_module",
                    "is_generated_in", "is_cogenerated_in"],
    "regrade_maps": ["is_pseudomorphism", "delta_map"],
    "subsets": ["enumerate_ring_supporting", "is_ring_supporting",
                "is_right_modular", "quotient_set"],
    "lifting": ["liftability_check", "check_and_lift", "equivalence_harness",
                "random_category_module", "koszul_pipeline"],
    "constructions": ["projective_module", "regular_module",
                      "quiver_algebra", "truncated_polynomial"],
    "serialize": ["module_from_json", "algebra_from_json",
                  "degree_set_from_json", "module_to_json"],
    "cli": ["main"],
}

COUNT_SPAN = "trace.count"


def _nnz(rows):
    return sum(sum(map(bool, r)) for r in rows)


def _count_rref(t, idx, args, kwargs, result):
    rows = args[1]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    t.span_cells[idx] = cells
    t.add("exactlin.rref.cells_in", cells)
    t.add("exactlin.rref.nnz_in", _nnz(rows))
    t.add("exactlin.rref.nnz_out", _nnz(result[0]))
    t.add("exactlin.rref.rank_out", len(result[1]))


def _count_kernel(t, idx, args, kwargs, result):
    m = args[0]
    t.add("exactlin.kernel.cells_in", m.rows * m.cols)
    t.peak("exactlin.kernel.max_rows", m.rows)
    t.peak("exactlin.kernel.max_cols", m.cols)
    t.peak("exactlin.kernel.max_nnz", _nnz(m.entries))
    t.add("exactlin.kernel.dim_out", result.dim)


def _count_hom(t, idx, args, kwargs, result):
    m, n = args[0], args[1]
    unknowns = sum(m.component(d).dim * n.component(d).dim
                   for d in set(m.degrees()) & set(n.degrees()))
    t.peak("graded_core.hom_space_basis.unknowns_max", unknowns)
    t.add("graded_core.hom_space_basis.dim_out", len(result))


def _count_pseudo(t, idx, args, kwargs, result):
    phi = args[0]
    t.add("regrade_maps.is_pseudomorphism.points", len(phi.values))
    key = (phi.window, phi.values)
    if key in t.maps_seen:
        t.add("regrade_maps.is_pseudomorphism.repeats", 1)
    t.maps_seen.add(key)


def _count_enumerate(t, idx, args, kwargs, result):
    n = args[0]
    t.add("subsets.enumerate_ring_supporting.masks", 1 << (n - 1))
    t.add("subsets.enumerate_ring_supporting.found", len(result))


def _count_liftability(t, idx, args, kwargs, result):
    t.add("lifting.liftability_check.triples", result.triples_checked)


def _count_check_and_lift(t, idx, args, kwargs, result):
    t.add("lifting.check_and_lift.liftable", int(result.liftable))


COUNTERS = {
    "rref": _count_rref,
    "kernel": _count_kernel,
    "hom_space_basis": _count_hom,
    "is_pseudomorphism": _count_pseudo,
    "enumerate_ring_supporting": _count_enumerate,
    "liftability_check": _count_liftability,
    "check_and_lift": _count_check_and_lift,
}

# Per-layer metrics beyond calls and self time: (name, unit).
EXTRA_METRICS = [
    ("exactlin.rref.cells_in", "count"),
    ("exactlin.rref.nnz_in", "count"),
    ("exactlin.rref.fill", "ratio"),
    ("exactlin.rref.rank_out", "count"),
    ("exactlin.kernel.max_rows", "count"),
    ("exactlin.kernel.max_cols", "count"),
    ("exactlin.kernel.max_nnz", "count"),
    ("exactlin.kernel.dim_out", "count"),
    ("exactlin.kernel.augment_ratio", "ratio"),
    ("graded_core.hom_space_basis.unknowns_max", "count"),
    ("graded_core.hom_space_basis.dim_out", "count"),
    ("regrade_maps.is_pseudomorphism.points", "count"),
    ("regrade_maps.is_pseudomorphism.repeat_ratio", "ratio"),
    ("subsets.enumerate_ring_supporting.masks", "count"),
    ("subsets.enumerate_ring_supporting.found", "count"),
    ("lifting.liftability_check.triples", "count"),
    ("lifting.check_and_lift.liftable_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.names = []          # span name table; spans store an index
        self._name_ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack = []
        self.span_cells = {}     # rref span -> input cells
        self.counts = defaultdict(int)
        self.maps_seen = set()   # pseudomorphism checks within the current op
        self._installed = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key, value):
        self.counts[key] += value

    def peak(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    def _wrap(self, span_name, fn, counter):
        tracer = self
        name_id = self._name_id(span_name)
        count_id = self._name_id(COUNT_SPAN)

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                cidx = tracer._open(count_id)
                try:
                    counter(tracer, idx, args, kwargs, result)
                finally:
                    tracer._close(cidx)
            return result

        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _bind(self):
        """Find each listed function wherever a gradedsupport module binds
        it; return (owner, attribute, original, wrapper) for each binding."""
        import gradedsupport  # noqa: F401  (loads every submodule)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gradedsupport"
                   or name.startswith("gradedsupport.")]
        bindings = []
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"gradedsupport.{layer}"]
            for func in funcs:
                span_name = f"{layer}.{func}"
                counter = COUNTERS.get(func.split(".")[-1])
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = self._wrap(span_name, original.__func__, counter)
                    bindings.append((cls, meth, original,
                                     classmethod(wrapped)))
                    continue
                original = getattr(home, func)
                wrapped = self._wrap(span_name, original, counter)
                bound = [(mod, attr, original, wrapped) for mod in modules
                         for attr, value in vars(mod).items()
                         if value is original]
                if not bound:
                    raise RuntimeError(f"{span_name} is not bound anywhere")
                bindings += bound
        return bindings

    def install(self, op_id):
        """Put the wrappers in place for the op op_id.  The bindings are
        found on the first call; later calls only swap them in, which is
        cheap enough to do around every op."""
        self.op_id = op_id
        self.maps_seen.clear()
        if not self._installed:
            self._installed = self._bind()
        for owner, attr, _, wrapped in self._installed:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._installed):
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        return [dur[i] - covered[i] for i in range(n)]

    def summary(self, selfs, traced_wall_s, overhead_s):
        """The per-layer metrics, keyed by name, as (value, unit), from the
        spans' self times; the wall time of the traced ops and the tracing
        overhead are measured by the caller."""
        calls = defaultdict(int)
        self_by_name = defaultdict(float)
        kernel_id = self._name_ids.get("exactlin.kernel")
        rref_under_kernel = 0
        for i, s in enumerate(selfs):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            self_by_name[nm] += s
            cells = self.span_cells.get(i)
            if cells is not None and kernel_id is not None:
                p = self.parent[i]
                while p >= 0 and self.name[p] != kernel_id:
                    p = self.parent[p]
                if p >= 0:
                    rref_under_kernel += cells
        out = {}
        layer_total = 0.0
        for layer, funcs in LAYERS.items():
            total = sum(self_by_name[f"{layer}.{f}"] for f in funcs)
            layer_total += total
            out[f"{layer}.self_s"] = (total, "s")
            for f in funcs:
                out[f"{layer}.{f}.calls"] = (calls[f"{layer}.{f}"], "count")
                out[f"{layer}.{f}.self_s"] = (self_by_name[f"{layer}.{f}"],
                                              "s")
        c = self.counts
        derived = {
            "exactlin.rref.fill": _ratio(c["exactlin.rref.nnz_out"],
                                         c["exactlin.rref.nnz_in"]),
            "exactlin.kernel.augment_ratio": _ratio(
                rref_under_kernel, c["exactlin.kernel.cells_in"]),
            "regrade_maps.is_pseudomorphism.repeat_ratio": _ratio(
                c["regrade_maps.is_pseudomorphism.repeats"],
                calls["regrade_maps.is_pseudomorphism"]),
            "lifting.check_and_lift.liftable_ratio": _ratio(
                c["lifting.check_and_lift.liftable"],
                calls["lifting.check_and_lift"]),
            "trace.overhead_s": overhead_s,
            "trace.coverage": _ratio(layer_total, traced_wall_s),
        }
        for name, unit in EXTRA_METRICS:
            value = derived[name] if name in derived else c[name]
            out[name] = (value, unit)
        return out

    def write(self, path, selfs):
        """Dump every span as TSV: name, start, end, parent, op, self_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\tself_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}"
                         f"\t{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}"
                         f"\t{selfs[i]!r}\n")
