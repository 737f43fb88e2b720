"""Write bench/pinned.json: the answers and costs the workloads rely on.

- "hom_q": the hom-q workload draws its ops from cost strata so that every
  run sees the same mix of cheap and expensive hom systems (see README.md).
  For each sample seed in [0, COUNT) the table records the pinned answer
  (ambient and killed hom dimensions) and the wall time of one
  `verify-equivalence --samples 1` op over Q and over GF(101) for the same
  sample.  Each op runs in its own child process so an op in the extreme
  tail can be cut off at TIMEOUT_S and recorded as such.
- "enumerate": count and SHA-256 of the `enumerate --n k` subsets list for
  k = 1..16, pinned so support-regrade can check answers beyond the n1-n5
  fixtures.

    python3 bench/calibrate.py > bench/pinned.json

Progress goes to stderr.  Times depend on the machine; only their order
matters to the workload, and the answers must never change.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT = 200        # sample seeds 0..COUNT-1
TIMEOUT_S = 40.0   # an op slower than this is recorded without a time

CHILD = r"""
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from gradedsupport import cli
buf = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(buf):
    rc = cli.main(sys.argv[2:])
elapsed = time.perf_counter() - start
sample = json.loads(buf.getvalue())["samples"][0]
print(json.dumps({"rc": rc, "s": elapsed, "ambient": sample["hom_dim_ambient"],
                  "killed": sample["hom_dim_killed"]}))
"""


def hom_q_argv(sample_seed, field="Q"):
    """The argv of one hom-q op, as the workload builds it."""
    argv = ["verify-equivalence", "--samples", "1", "--seed",
            str(sample_seed), "--n", "3", "--format", "json"]
    if field != "Q":
        argv += ["--field", "GFp", "--p", "101"]
    return argv


def enumerate_pins():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gradedsupport import enumerate_ring_supporting
    pins = {}
    for n in range(1, 17):
        subsets = [sorted(j) for j in enumerate_ring_supporting(n)]
        raw = json.dumps(subsets, separators=(",", ":")).encode()
        pins[str(n)] = {"count": len(subsets),
                        "sha256": hashlib.sha256(raw).hexdigest()}
    return pins


def measure(sample_seed, field, timeout):
    cmd = [sys.executable, "-c", CHILD, os.path.join(ROOT, "src")] \
        + hom_q_argv(sample_seed, field)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(out.stdout)


def main():
    rows = []
    for seed in range(COUNT):
        q = measure(seed, "Q", TIMEOUT_S)
        row = {"seed": seed, "q_s": None if q is None else round(q["s"], 4)}
        gf = measure(seed, "GFp", TIMEOUT_S)
        if gf is not None:
            row["gf101_s"] = round(gf["s"], 4)
        # the pinned answer is the one over Q; a timed-out sample has none
        row["ambient"] = q and q["ambient"]
        row["killed"] = q and q["killed"]
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    table = {"op": hom_q_argv("<seed>"),
             "timeout_s": TIMEOUT_S,
             "measured_on": f"{platform.machine()} {platform.processor()} "
                            f"Python {platform.python_version()}",
             "measured_at": time.strftime("%Y-%m-%d"),
             "samples": rows}
    json.dump({"hom_q": table, "enumerate": enumerate_pins()}, sys.stdout,
              indent=1)
    print()


if __name__ == "__main__":
    main()
