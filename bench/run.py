"""Benchmark for gradedsupport: three CLI workloads, end to end and per layer.

    python3 bench/run.py --workload hom-q --seed 0 --seconds 15 --trace 0

Workloads (see README.md for why each was chosen):

  hom-q            verify-equivalence over Q, one hom sample per op
  lift-gfp         lift over GF(101) on pre-serialized killed modules
  support-regrade  enumerate, check-set/check-pair, kill/regrade round trips,
                   koszul-pipeline, and regrades that must be rejected

Each workload runs in its own single-threaded worker process as a closed
loop with one client.  The worker builds the inputs from the workload seed,
then repeats the workload's cycle of ops: the first MIN_CYCLES cycles always
run, and another starts only while the measured time plus the last cycle's
time stays within --seconds.  Only the ops are timed; every answer is checked
after its op, outside the timed region, and a wrong answer counts as failed.

The host's speed flips between a fast and a slow state many times a second,
and the share of each drifts over tens of seconds (see README.md), so every
time metric is given at a reference host speed.  A fixed probe task of the
benchmark's own runs after every op, for a small share of the op's time;
each op's latency is multiplied by PROBE_REF_S over the mean time of the
probes around it (scale()), and an op's figure is the median of its scaled
latencies over the cycles of the run.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op untraced
and traced back to back, with every layer function wrapped (tracing.py), for
at least one cycle, and prints the per-layer metrics; the spans are written to
.bench_out/trace-<workload>-<seed>.tsv.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Set-up (interpreter start, import, seeded input
generation, writing the JSON inputs) is timed from process spawn to the
first timed op in SETUP_REPEATS fresh processes, some before the worker
and the rest after it.  Each is scaled by probes its process runs right
after set-up, and setup_s is their median.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_run")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("hom-q", "lift-gfp", "support-regrade")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919     # kept out of tuning; confirms a claimed gain
SETUP_REPEATS = 5        # set-up-only processes timed for setup_s
MIN_CYCLES = 3           # every op runs at least this often in a run
PROBE_SIZE = 1000        # dict entries the host-speed probe builds and sorts
PROBE_SHARE = 0.05       # probe time as a share of the time it follows
PROBE_MAX = 100          # probes in one group
PROBE_NEAR = 6           # probes at least that set a sample's host speed
PROBE_REF_S = 0.6e-3     # the probe's time at the reference host speed
WORKER_DEADLINE_S = 170  # the whole run must end within 180 s

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"),
              ("op_s.tail", "s"), ("ok_frac", "ratio"),
              ("peak_rss_mb", "MB")]


# ---------------------------------------------------------------------------
# statistics


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples beyond
    it, or 100 (the maximum) when n is too small for any."""
    for p in range(99, 0, -1):
        if n * (100 - p) / 100 >= 10:
            return p
    return 100


def latency_stats(loop):
    """ops_per_s, median and tail over the cycle's ops, each op at its
    median scaled latency in the run.  An op that failed in any repeat
    counts as slower than any limit: it is ranked at the sum of all figures
    times the number of cycles, which no single op reaches, so the value
    stays a finite number."""
    ceiling = math.fsum(loop["lat"]) * loop["cycles"]
    lat = [ceiling if i in loop["failed_ops"] else x
           for i, x in enumerate(loop["lat"])]
    ok = len(lat) - len(loop["failed_ops"])
    values = sorted(lat)
    p = tail_percentile(len(values))
    return (ok / math.fsum(loop["lat"]), statistics.median(values),
            percentile(values, p), p)


# ---------------------------------------------------------------------------
# host speed


def probe():
    """A fixed pure-Python task that allocates, hashes and sorts small
    objects, as the package does.  It belongs to the benchmark, so no change
    to the package moves it; its time tracks the host's speed."""
    gc.disable()   # the collector's work depends on the program's heap
    try:
        table = {}
        for i in range(PROBE_SIZE):
            table[(i, i * 7 % 13)] = [i, str(i)]
        return sorted(table.items(), key=lambda kv: kv[1][1])
    finally:
        gc.enable()


def probe_group(after_s):
    """Probe times taken after a stretch of after_s seconds of work: one
    probe per PROBE_REF_S / PROBE_SHARE seconds of it, within [1, PROBE_MAX],
    so the probes' share of the run stays small.  A first, untimed run
    finds the caches as the work left them, which says more about the work
    than about the host; timed runs after it slow with the host as the ops
    do."""
    n = min(PROBE_MAX, max(1, round(after_s * PROBE_SHARE / PROBE_REF_S)))
    probe()
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return times


def scale(latency, t0, groups, k):
    """latency, of a sample that started at t0, at the reference host speed.

    groups holds (start time, probe times) pairs, and the sample ran between
    groups k and k + 1.  The host's speed then is the mean time of the
    probes around it: groups k and k + 1, every group that started within
    half the sample's latency before or after it, and more groups, one on
    each side at a time, until they hold PROBE_NEAR probes.  Probes take a
    fixed share of the time, so a long op is weighed against as long a
    stretch of the host's states as it ran through.  The mean, not the
    median: the host flips between a fast and a slow state many times a
    second, and an op runs at the mean of the two."""
    lo, hi = k, k + 2
    while lo > 0 and groups[lo - 1][0] >= t0 - latency / 2:
        lo -= 1
    while hi < len(groups) and groups[hi][0] <= t0 + 1.5 * latency:
        hi += 1
    near = [t for _, g in groups[lo:hi] for t in g]
    while len(near) < PROBE_NEAR and (lo > 0 or hi < len(groups)):
        lo, hi = max(0, lo - 1), hi + 1
        near = [t for _, g in groups[lo:hi] for t in g]
    return latency * PROBE_REF_S / statistics.fmean(near)


# ---------------------------------------------------------------------------
# worker: one process, one workload


def _import_workloads():
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import workloads
    return workloads


def check_outcome(op, outcome):
    """None if the answer is right, else what is wrong with it."""
    try:
        return op.check(outcome)
    except Exception as e:  # a malformed answer is a wrong one
        return f"check raised {type(e).__name__}: {e}"


def time_op(op, op_id, tracer=None):
    """Run op once, traced if a tracer is given; (latency, outcome, error)."""
    if tracer is not None:
        tracer.install(op_id)
    try:
        t0 = time.perf_counter()
        try:
            outcome, error = op.run(), None
        except Exception as e:  # a raising op is a failed op
            outcome, error = None, f"raised {type(e).__name__}: {e}"
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return t1 - t0, outcome, error


def run_cycles(ops, budget_s, min_cycles=MIN_CYCLES, tracer=None,
               inject_wrong=False):
    """Closed loop over whole cycles of ops; returns the loop's record.

    The first min_cycles cycles always run; another starts only while the
    measured time plus the last cycle's time stays within budget_s.  The
    probes run before the first op and after every op (probe_group()), and
    each latency is scaled by the probes around it (scale()).  With a tracer,
    each op runs untraced and traced back to back, in an order that flips
    from op to op."""
    # traced? -> per op: (latency, start time, index of the group before)
    samples = {False: [[] for _ in ops], True: [[] for _ in ops]}
    failed_ops, failures = set(), []
    timed = {False: 0.0, True: 0.0}   # traced? -> summed raw latency
    groups = [(time.perf_counter(),
               probe_group(PROBE_NEAR * PROBE_REF_S / PROBE_SHARE))]
    attempted = cycles = 0
    start = time.perf_counter()
    measured = last_cycle = 0.0       # ops and probes, not answer checks
    while cycles < min_cycles or measured + last_cycle <= budget_s:
        cycle_start = measured
        for i, op in enumerate(ops):
            passes = (False,) if tracer is None else \
                ((False, True) if (i + cycles) % 2 else (True, False))
            for traced in passes:
                t0 = time.perf_counter()
                latency, outcome, error = time_op(
                    op, attempted, tracer if traced else None)
                samples[traced][i].append((latency, t0, len(groups) - 1))
                groups.append((time.perf_counter(), probe_group(latency)))
                measured += time.perf_counter() - t0
                timed[traced] += latency
                attempted += 1
                if error is None:
                    if inject_wrong and attempted == 1:
                        outcome = op.corrupt(outcome)
                    error = check_outcome(op, outcome)
                if error is not None:
                    failed_ops.add(i)
                    failures.append(f"{op.kind}: {error}")
        cycles += 1
        last_cycle = measured - cycle_start

    def lat(traced):
        return [statistics.median(scale(x, t, groups, k) for x, t, k in s)
                if s else math.nan for s in samples[traced]]

    return {"lat": lat(False), "lat_traced": lat(True),
            "failed_ops": sorted(failed_ops),
            "failures": failures, "attempted": attempted,
            "timed_s": timed[False], "traced_s": timed[True],
            "wall_s": time.perf_counter() - start,
            "probe_s": [t for _, g in groups for t in g], "cycles": cycles}


def worker(args):
    workloads = _import_workloads()
    os.makedirs(args.workdir, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ready = time.perf_counter()
    result = {"setup_s": ready - args.spawned_at, "ops": len(ops)}
    if args.role == "setup":
        probes = probe_group(result["setup_s"])
        result["probe_s"] = statistics.fmean(probes)
        result["scaled_s"] = scale(result["setup_s"], 0.0, [(0.0, probes)], 0)
        print(json.dumps(result))
        return 0
    ops = ops[:args.max_ops]
    if not args.trace:
        result["loop"] = run_cycles(ops, args.seconds,
                                    inject_wrong=args.inject_wrong)
    else:
        import tracing
        tracer = tracing.Tracer()
        # at least one cycle: a traced hom-q cycle alone takes about 30 s
        loop = run_cycles(ops, args.seconds, min_cycles=1, tracer=tracer,
                          inject_wrong=args.inject_wrong)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR,
                             f"trace-{args.workload}-{args.seed}.tsv")
        selfs = tracer.self_times()
        tracer.write(spans, selfs)
        result["loop"] = loop
        overhead = math.fsum(loop["lat_traced"]) - math.fsum(loop["lat"])
        result["layers"] = {k: list(v) for k, v in tracer.summary(
            selfs, loop["traced_s"], overhead).items()}
        result["spans"] = len(selfs)
        result["spans_file"] = os.path.relpath(spans, ROOT)
        result["self_min_s"] = min(selfs, default=0.0)
        result["self_sum_s"] = math.fsum(selfs)
    import resource
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent side: spawn the processes, report


def _spawn(args, role, workdir, deadline):
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the worker")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report_lines(args, setups, res):
    loop = res["loop"]
    failed = len(loop["failures"])
    attempted = loop["attempted"]
    ops_per_s, p50, tail, p = latency_stats(loop)
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"seconds {args.seconds}  trace {args.trace}",
             f"  {len(loop['lat'])} ops per cycle, {loop['cycles']} cycles, "
             f"{attempted} ops run, {loop['timed_s']:.3f} s timed, "
             f"{loop['wall_s']:.3f} s in the loop",
             "  probe_s quartiles: " + " ".join(
                 f"{q * 1e3:.4f} ms" for q in statistics.quantiles(
                     loop["probe_s"], n=4)) + f" (reference "
             f"{PROBE_REF_S * 1e3:.4f} ms)",
             "  setup_s samples, scaled (unscaled): " + " ".join(
                 f"{s:.4f} ({raw:.4f})" for s, raw in setups),
             f"  op_s.tail is p{p} over {len(loop['lat'])} ops, each at "
             f"its median of {loop['cycles']}",
             f"  failed_frac {failed / attempted:.6f} "
             f"({failed} of {attempted})"]
    lines += [f"  FAILED {f}" for f in loop["failures"][:20]]
    if args.trace:
        lines.append(f"  {res['spans']} spans written to "
                     f"{res['spans_file']}; untraced "
                     f"{loop['timed_s']:.3f} s, traced "
                     f"{loop['traced_s']:.3f} s; one cycle at median scaled "
                     f"latencies {math.fsum(loop['lat']):.3f} s untraced, "
                     f"{math.fsum(loop['lat_traced']):.3f} s traced")
    return lines, ops_per_s, p50, tail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"{HELD_OUT_SEED} is held out to confirm gains)")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="cut the cycle to this many ops (self-test runs)")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt the first answer (self-test runs)")
    ap.add_argument("--role", choices=("main", "setup", "worker"),
                    default="main", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role != "main":
        return worker(args)

    if not os.path.isfile(os.path.join(SRC, "gradedsupport", "__init__.py")):
        print(f"error: no gradedsupport package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_DEADLINE_S
    run_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-"
                                      f"{os.getpid()}")

    def setup_only(i):
        got = _spawn(args, "setup", os.path.join(run_dir, f"setup{i}"),
                     deadline)
        return got["scaled_s"], got["setup_s"]

    try:
        before = SETUP_REPEATS // 2
        setups = [setup_only(i) for i in range(before)]
        res = _spawn(args, "worker", os.path.join(run_dir, "worker"),
                     deadline)
        setups += [setup_only(i) for i in range(before, SETUP_REPEATS)]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            json.JSONDecodeError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    lines, ops_per_s, p50, tail = _report_lines(args, setups, res)
    loop = res["loop"]
    failed = len(loop["failures"])
    attempted = loop["attempted"]
    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in res["layers"].items()}
        lines.append(f"  self times: min {res['self_min_s']:.3e} s, sum "
                     f"{res['self_sum_s']:.4f} s of "
                     f"{loop['traced_s']:.4f} s traced wall")
    else:
        values = {
            "setup_s": statistics.median(s for s, _ in setups),
            "ops_per_s": ops_per_s,
            "op_s.p50": p50,
            "op_s.tail": tail,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']!r} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except Exception:  # noqa: BLE001  report, never print a result
        traceback.print_exc()
        sys.exit(1)
