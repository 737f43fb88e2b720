"""Command-line front door for the library.

Subcommands cover enumeration of ring-supporting residue sets, the set and
pair predicates, support killing, regrading, the liftability checks and the
lift itself, the hom-dimension equivalence harness, the end-to-end
regrading pipeline, and builders for the stock algebras.

Exit codes: 0 when the requested property holds or the object was produced,
1 when a checked property is falsified (the witness is printed), 2 on usage
errors, malformed input files, and unmet preconditions.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import constructions
from .errors import PreconditionError, SchemaError
from .exactlin import GF, QQ
from .graded_core import kill_support_algebra
from .graded_objects import validate_algebra, validate_module
from .lifting import check_and_lift, check_period, equivalence_harness, \
    koszul_pipeline, liftability_check, liftability_check_interval
from .regrading import regrade_algebra
from .serialize import (algebra_from_json, degree_set_from_json,
                        degree_set_to_json, dump_json, module_from_json,
                        windowed_map_from_json)
from .subsets import (ENUMERATION_CAP, DegreeSet, enumerate_ring_supporting,
                      is_left_modular, is_right_modular, is_ring_supporting)

_VAR_NAMES = {"x": 0, "y": 1, "z": 2, "w": 3}


def parse_monomial(text):
    """'x*x*y' or '0*0*1' to a word of generator indices."""
    tokens = [t.strip() for t in text.split("*")]
    if not tokens or any(not t for t in tokens):
        raise PreconditionError(f"cannot parse monomial '{text}'")
    word = []
    for t in tokens:
        if t in _VAR_NAMES:
            word.append(_VAR_NAMES[t])
        elif t.isdigit():
            word.append(int(t))
        else:
            raise PreconditionError(
                f"unknown generator '{t}' in monomial '{text}'")
    return tuple(word)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise PreconditionError(f"no such file: {path}")
    except OSError as e:  # a directory, a file without read permission
        raise PreconditionError(f"cannot read {path}: {e.strerror}")
    except (ValueError, RecursionError) as e:
        # a syntax error, an int too long to read, or nesting too deep
        raise SchemaError(f"invalid JSON in {path}: {e}")


def _load_valid(path, what):
    # the names are read at each call, so a rebinding of them is seen
    parse, validate = {"an algebra": (algebra_from_json, validate_algebra),
                       "a module": (module_from_json, validate_module)}[what]
    obj = parse(_load_json(path))
    if not (v := validate(obj)).holds:
        raise PreconditionError(f"not {what}: {path}, witness {v.witness}")
    return obj


def _print_json(obj):
    print(dump_json(obj))


def _verdict_json(v):
    return {"holds": v.holds, "window_certified": v.window_certified,
            "witness": list(v.witness) if v.witness is not None else None,
            "reason": v.reason}


def _print_verdict(args, v, subject):
    if args.format == "json":
        _print_json(_verdict_json(v))
    else:
        print(f"{subject}: {'holds' if v.holds else 'falsified'}")
        if v.reason:
            print(f"reason: {v.reason}")
        if v.witness is not None:
            print(f"witness: {v.witness}")
        if v.window_certified:
            print("certified on the checked window only")
    return 0 if v.holds else 1


def _algebra_text(a):
    group = "Z" if a.group.kind == "Z" else f"Z/{a.group.n}"
    lines = [f"group {group}  window [{a.window[0]}, {a.window[1]}]  "
             f"k={a.k}  field {a.field.name}"]
    for d in sorted(a.degrees()):
        comp = a.component(d)
        lines.append(f"  degree {d:>3}: dim {comp.dim}")
    lines.append(f"  stored products: {len(a._table())}")
    return "\n".join(lines)


def _module_text(m):
    lines = [f"module over k={m.over.k} algebra  window "
             f"[{m.window[0]}, {m.window[1]}]  field {m.field.name}"]
    for d in sorted(m.degrees()):
        lines.append(f"  degree {d:>3}: dim {m.component(d).dim}")
    lines.append(f"  stored action maps: {len(m._table())}")
    return "\n".join(lines)


def _emit_algebra(args, a):
    if args.format == "json":
        _print_json(a)
    else:
        print(_algebra_text(a))
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args):
    if args.n is None and args.max_n is None:
        raise PreconditionError("pass --n or --max-n")
    if args.max_n is not None and not 1 <= args.max_n <= ENUMERATION_CAP:
        raise PreconditionError(f"--max-n must lie in 1..{ENUMERATION_CAP} "
                                f"(the enumeration cap), got {args.max_n}")
    values = [args.n] if args.max_n is None else range(1, args.max_n + 1)
    results = []
    for n in values:
        subsets = enumerate_ring_supporting(n)
        entry = {"n": n, "count": len(subsets),
                 "subsets": [sorted(j) for j in subsets]}
        if n == 1:
            entry["note"] = "U = Z"
        results.append(entry)
    if args.format == "json":
        _print_json(results[0] if args.max_n is None else results)
        return 0
    for entry in results:
        note = f"  ({entry['note']})" if "note" in entry else ""
        print(f"n={entry['n']}: {entry['count']} subsets{note}")
        for j in entry["subsets"]:
            print("  {" + ", ".join(str(r) for r in j) + "}")
    return 0


def cmd_check_set(args):
    s = degree_set_from_json(_load_json(args.set_file))
    return _print_verdict(args, is_ring_supporting(s), "ring-supporting")


def cmd_check_pair(args):
    first = degree_set_from_json(_load_json(args.first))
    second = degree_set_from_json(_load_json(args.second))
    if args.side == "right":
        verdict = is_right_modular(first, second)
        subject = "right modular pair (S, U)"
    else:
        verdict = is_left_modular(first, second)
        subject = "left modular pair (U, S)"
    return _print_verdict(args, verdict, subject)


def cmd_kill(args):
    a = _load_valid(args.algebra_file, "an algebra")
    u = degree_set_from_json(_load_json(args.set_file))
    killed = kill_support_algebra(a, u)
    verdict = validate_algebra(killed)
    if not verdict.holds:
        if args.format == "json":
            _print_json({"holds": False, "verdict": _verdict_json(verdict)})
        else:
            print("killed algebra is not associative; "
                  f"witness: {verdict.witness}")
        return 1
    return _emit_algebra(args, killed)


def cmd_regrade(args):
    b = algebra_from_json(_load_json(args.algebra_file))
    phi = windowed_map_from_json(_load_json(args.map_file))
    return _emit_algebra(args, regrade_algebra(b, phi))


def _lift_report_json(report, include_module):
    out = {"liftable": report.liftable,
           "triples_checked": report.triples_checked,
           "violations": [{"m": m, "u": u, "v": v,
                           "vector": [str(e) for e in vec]}
                          for (m, u, v, vec) in report.violations],
           "isomorphism_certified": report.isomorphism_certified,
           "generated_certified": report.generated_certified,
           "cogenerated_certified": report.cogenerated_certified}
    if include_module and report.lift is not None:
        out["module"] = report.lift
    return out


def _print_lift_report(args, report, include_module):
    if args.format == "json":
        _print_json(_lift_report_json(report, include_module))
        return 0 if report.liftable else 1
    if report.liftable:
        print(f"liftable: yes  (conditions checked: "
              f"{report.triples_checked})")
        if report.lift is not None:
            print(_module_text(report.lift))
            if report.isomorphism_certified:
                print("killing the lift returns the input, certified "
                      "degreewise")
        return 0
    print(f"liftable: no  (conditions checked: {report.triples_checked})")
    for (m, u, v, vec) in report.violations:
        print(f"  violated at (m, u, v) = ({m}, {u}, {v}); "
              f"witness vector {tuple(str(e) for e in vec)}")
    return 1


def _load_lift_inputs(args):
    x = _load_valid(args.module_file, "a module")
    s = degree_set_from_json(_load_json(args.s_file))
    u = degree_set_from_json(_load_json(args.u_file))
    a = algebra_from_json(_load_json(args.algebra_file))
    return x, s, u, a


def cmd_lift_check(args):
    x, s, u, a = _load_lift_inputs(args)
    check = liftability_check_interval if args.interval else liftability_check
    return _print_lift_report(args, check(x, s, u, a), include_module=False)


def cmd_lift(args):
    x, s, u, a = _load_lift_inputs(args)
    report = check_and_lift(x, s, u, a)
    if report.liftable and args.format == "json" and not args.full_report:
        _print_json(report.lift)
        return 0
    return _print_lift_report(args, report, include_module=True)


def _default_harness_algebra(field, top):
    # two loops x, y on one vertex, yx = 0, truncated above `top`
    return constructions.quiver_algebra(
        1, [(0, 0), (0, 0)], [[(1, (1, 0))]], top, field)


def _field(args):
    if args.field == "Q":
        return QQ
    try:
        return GF(args.p)
    except ValueError as e:
        raise PreconditionError(f"--p: {e}")


def cmd_verify_equivalence(args):
    if args.samples < 1:  # before the default algebra is built
        raise PreconditionError(f"--samples must be >= 1, got {args.samples}")
    field = _field(args)
    top = args.window if args.window is not None else 2 * args.n + 1
    if args.alg:
        a = _load_valid(args.alg, "an algebra")
    else:
        a = _default_harness_algebra(field, top)
    u = DegreeSet.periodic(args.n, (0, 1))
    s = u.translate(args.translate)
    report = equivalence_harness(a, s, u, samples=args.samples,
                                 seed=args.seed)
    if args.format == "json":
        _print_json({"seed": report.seed, "holds": report.holds,
                     "samples": [{"index": r.index,
                                  "hom_dim_ambient": r.hom_dim_ambient,
                                  "hom_dim_killed": r.hom_dim_killed,
                                  "equal": r.equal}
                                 for r in report.samples]})
        return 0 if report.holds else 1
    print(f"{'sample':>6}  {'dim Hom(M,N)':>12}  {'dim Hom(M_S,N_S)':>16}")
    for r in report.samples:
        flag = "" if r.equal else "  MISMATCH"
        print(f"{r.index:>6}  {r.hom_dim_ambient:>12}  "
              f"{r.hom_dim_killed:>16}{flag}")
    print(f"holds: {report.holds}")
    return 0 if report.holds else 1


def cmd_koszul_pipeline(args):
    check_period(args.n)  # before the default algebra, built from n
    top = args.window if args.window is not None else 2 * args.n
    if args.alg:
        a = _load_valid(args.alg, "an algebra")
    else:
        # degreewise dual of K[x]/(x^n): one loop, relation x^n
        a = constructions.n_homogeneous_dual(
            1, [[(1, (0,) * args.n)]], top, QQ)
    regraded, even, report = koszul_pipeline(a, args.n, args.translate)
    if args.format == "json":
        _print_json({
            "n": report.n, "holds": report.holds,
            "regraded_window": list(report.regraded_window),
            "regraded_dims": {str(d): v
                              for d, v in report.regraded_dims.items()},
            "even_preimage_members": list(report.even_preimage_members),
            "vanishing_pairs": [{"sigma": sg, "tau": t, "holds": ok}
                                for (sg, t, ok) in report.vanishing_pairs],
            "conditions": [{"sigma": sg, "holds": ok,
                            "witness": [str(e) for e in w] if w else None}
                           for (sg, ok, w) in report.conditions],
            "regraded": regraded,
            "even_preimage": degree_set_to_json(even)})
        return 0 if report.holds else 1
    print(f"regraded algebra on window {report.regraded_window}, dims "
          + " ".join(f"{d}:{v}" for d, v in
                     sorted(report.regraded_dims.items())))
    print("preimage of the period subgroup: "
          + "{" + ", ".join(str(x) for x in report.even_preimage_members)
          + "}")
    for (sg, t, ok) in report.vanishing_pairs:
        print(f"  vanishing at ({sg}, {t}): {'ok' if ok else 'VIOLATED'}")
    for (sg, ok, w) in report.conditions:
        extra = "" if ok else f"  witness {tuple(str(e) for e in w)}"
        print(f"  membership condition at degree {sg}: "
              f"{'ok' if ok else 'VIOLATED'}{extra}")
    print(f"holds: {report.holds}")
    return 0 if report.holds else 1


def cmd_make(args):
    field = _field(args)
    if args.builder == "group-zn":
        a = constructions.group_algebra(args.n, field)
    elif args.builder == "trunc-poly":
        window = (0, args.window) if args.window is not None else None
        a = constructions.truncated_polynomial(args.k, args.deg, window,
                                               field)
    elif args.builder == "witness":
        if args.case == "iii":
            h = args.h if args.h is not None else -args.g
            if h != -args.g:
                raise PreconditionError(
                    "case iii needs opposite degrees: h = -g")
            a = constructions.zero_sum_pair_algebra(args.g, field)
        else:
            if args.h is None:
                raise PreconditionError("case iv needs --h")
            a = constructions.generic_pair_algebra(args.g, args.h, field)
    elif args.builder == "dual":
        if not args.rel:
            raise PreconditionError("pass at least one --rel monomial")
        words = [parse_monomial(r) for r in args.rel]
        for word in words:
            if any(v >= args.vdim for v in word):
                raise PreconditionError(
                    f"monomial uses a generator outside vdim={args.vdim}")
            if len(word) != args.n:
                raise PreconditionError(
                    f"relation '{'*'.join(str(v) for v in word)}' does not "
                    f"have tensor degree {args.n}")
        relations = [[(1, word)] for word in words]
        a = constructions.n_homogeneous_dual(args.vdim, relations,
                                             args.window, field)
    elif args.builder == "quiver":
        arrows = []
        for part in args.arrows.split(","):
            bits = part.strip().split(":")
            if len(bits) != 2 or not all(b.strip().isdigit() for b in bits):
                raise PreconditionError(
                    f"cannot parse arrow '{part}'; use src:tgt")
            arrows.append((int(bits[0]), int(bits[1])))
        relations = [[(1, parse_monomial(r))] for r in (args.rel or [])]
        a = constructions.quiver_algebra(args.vertices, arrows, relations,
                                         args.top, field)
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown builder {args.builder}")
    return _emit_algebra(args, a)


# ---------------------------------------------------------------------------
# parser


def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_field(p):
    p.add_argument("--field", choices=("Q", "GFp"), default="Q")
    p.add_argument("--p", type=int, default=101,
                   help="prime below 3.3e24 for --field GFp")


@functools.cache
def build_parser():
    """The argparse parser, built once per process; main() only reads it."""
    parser = argparse.ArgumentParser(
        prog="gradedsupport",
        description="Support-killing, regrading, and lifting for graded "
                    "algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate",
                       help="ring-supporting residue sets mod n")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--n", type=int)
    one.add_argument("--max-n", type=int, dest="max_n")
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check-set", help="is the set ring-supporting?")
    p.add_argument("set_file")
    _add_format(p)
    p.set_defaults(func=cmd_check_set)

    p = sub.add_parser("check-pair", help="is the pair modular?")
    p.add_argument("first", help="S for --side right, U for --side left")
    p.add_argument("second", help="U for --side right, S for --side left")
    p.add_argument("--side", choices=("right", "left"), default="right")
    _add_format(p)
    p.set_defaults(func=cmd_check_pair)

    p = sub.add_parser("kill", help="restrict an algebra's support to U")
    p.add_argument("algebra_file")
    p.add_argument("set_file")
    _add_format(p)
    p.set_defaults(func=cmd_kill)

    p = sub.add_parser("regrade", help="regrade along a windowed map")
    p.add_argument("algebra_file")
    p.add_argument("map_file")
    _add_format(p)
    p.set_defaults(func=cmd_regrade)

    for name, fn in (("lift-check", cmd_lift_check), ("lift", cmd_lift)):
        p = sub.add_parser(name, help="liftability of a killed-algebra "
                                      "module" + ("" if name == "lift-check"
                                                  else ", then the lift"))
        p.add_argument("module_file")
        p.add_argument("s_file")
        p.add_argument("u_file")
        p.add_argument("algebra_file")
        if name == "lift-check":
            p.add_argument("--interval", action="store_true",
                           help="use the reduced interval condition list")
        else:
            p.add_argument("--full-report", action="store_true",
                           dest="full_report",
                           help="emit the report with the module embedded")
        _add_format(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("verify-equivalence",
                       help="hom dimensions before and after killing")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3, help="period of U")
    p.add_argument("--translate", type=int, default=0, help="S = U + this")
    p.add_argument("--window", type=int, default=None,
                   help="top degree of the default algebra")
    p.add_argument("--alg", default=None,
                   help="algebra JSON file instead of the default")
    _add_field(p)
    _add_format(p)
    p.set_defaults(func=cmd_verify_equivalence)

    p = sub.add_parser("koszul-pipeline",
                       help="kill to nZ+{0,1}, regrade, report the checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--translate", type=int, default=0)
    p.add_argument("--alg", default=None,
                   help="algebra JSON file instead of the K[x]/(x^n) dual")
    _add_format(p)
    p.set_defaults(func=cmd_koszul_pipeline)

    p = sub.add_parser("make", help="emit a stock algebra as JSON")
    makesub = p.add_subparsers(dest="builder", required=True)

    b = makesub.add_parser("group-zn")
    b.add_argument("--n", type=int, required=True)
    _add_field(b)
    _add_format(b)
    b.set_defaults(func=cmd_make)

    b = makesub.add_parser("trunc-poly")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--deg", type=int, default=1)
    b.add_argument("--window", type=int, default=None)
    _add_field(b)
    _add_format(b)
    b.set_defaults(func=cmd_make)

    b = makesub.add_parser("witness")
    b.add_argument("--case", choices=("iii", "iv"), required=True)
    b.add_argument("--g", type=int, required=True)
    b.add_argument("--h", type=int, default=None)
    _add_field(b)
    _add_format(b)
    b.set_defaults(func=cmd_make)

    b = makesub.add_parser("dual")
    b.add_argument("--vdim", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--rel", action="append", default=[])
    b.add_argument("--window", type=int, required=True)
    _add_field(b)
    _add_format(b)
    b.set_defaults(func=cmd_make)

    b = makesub.add_parser("quiver")
    b.add_argument("--vertices", type=int, required=True)
    b.add_argument("--arrows", required=True,
                   help="comma-separated src:tgt pairs")
    b.add_argument("--rel", action="append", default=[])
    b.add_argument("--top", type=int, required=True)
    _add_field(b)
    _add_format(b)
    b.set_defaults(func=cmd_make)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, PreconditionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
