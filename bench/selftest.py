"""Self-test of the benchmark: tiny runs of every workload.

    python3 bench/selftest.py

For each workload it checks that
  - an untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
    each with its unit, and no failures, and a traced run does the same for
    the per-layer metrics;
  - a run whose first answer is corrupted counts exactly that op as failed,
    and for every kind of op a corrupted answer fails its check;
  - in a traced loop every span's self time is >= 0 and their sum is at
    most the loop's timed wall time.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_OPS = 4
RUNS = TINY_OPS * run.MIN_CYCLES   # ops run by an untraced tiny run


def bench_run(workload, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "0",
           "--max-ops", str(TINY_OPS), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, message, problems):
    if not cond:
        problems.append(message)


def check_printed(workload, spec, problems):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        got = bench_run(workload, "--trace", trace)
        # with no time budget a run holds the minimum number of cycles: one
        # in a traced run, which runs each op untraced and traced
        runs = TINY_OPS * 2 if trace == "1" else RUNS
        expect(got["correct"] and got["failed"] == 0
               and got["attempted"] == runs,
               f"{workload} trace {trace}: {got['failed']} failed of "
               f"{got['attempted']}", problems)
        extra = set(got["metrics"]) - {m["name"] for m in spec[key]}
        expect(not extra, f"{workload} trace {trace}: printed but not in "
               f"BENCHMARK.json: {sorted(extra)}", problems)
        for m in spec[key]:
            printed = got["metrics"].get(m["name"])
            expect(printed is not None and printed["unit"] == m["unit"]
                   and isinstance(printed["value"], (int, float)),
                   f"{workload} trace {trace}: {m['name']} not printed "
                   f"with unit {m['unit']}", problems)


def check_injected(workload, problems):
    got = bench_run(workload, "--trace", "0", "--inject-wrong")
    ok = got["metrics"]["ok_frac"]["value"]
    expect(not got["correct"] and got["failed"] == 1
           and ok == (RUNS - 1) / RUNS,
           f"{workload}: an injected wrong answer gave failed="
           f"{got['failed']}, ok_frac={ok}", problems)


def check_kinds(workload, ops, problems):
    """The first op of each kind passes its check, and fails it once its
    answer is corrupted."""
    seen = set()
    for op in ops:
        if op.kind in seen:
            continue
        seen.add(op.kind)
        outcome = op.run()
        expect(run.check_outcome(op, outcome) is None,
               f"{workload}: {op.kind} fails its check", problems)
        expect(run.check_outcome(op, op.corrupt(outcome)) is not None,
               f"{workload}: a corrupted {op.kind} answer passes", problems)


def check_in_process(workload, problems):
    workdir = os.path.join(run.WORK_ROOT, f"selftest-{workload}")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer()
    try:
        ops = workloads.WORKLOADS[workload](0, workdir)
        check_kinds(workload, ops, problems)
        loop = run.run_cycles(ops[:TINY_OPS], 0, min_cycles=1,
                              tracer=tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    selfs = tracer.self_times()
    expect(selfs and min(selfs) >= 0,
           f"{workload}: negative self time {min(selfs, default=None)}",
           problems)
    expect(sum(selfs) <= loop["traced_s"],
           f"{workload}: self times sum to {sum(selfs)} s, more than the "
           f"{loop['traced_s']} s traced wall", problems)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in run.WORKLOAD_NAMES:
        check_printed(workload, spec, problems)
        check_injected(workload, problems)
        check_in_process(workload, problems)
        print(f"{workload}: checked", flush=True)
    try:
        os.rmdir(run.WORK_ROOT)
    except OSError:
        pass
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
