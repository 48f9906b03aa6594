#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median and spread (interquartile distance / median) against its bound.

    python3 perfbench/steady.py --workload defect-sweep --seeds 1 2 3 4 5

Runs are sequential, one process at a time.  A spread at or above a third
of the metric's bound (``setup_s`` excepted) is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t
        res = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"] and res["failed"] == 0
        digest = next((ln.split()[1] for ln in out.stdout.splitlines()
                       if ln.startswith("digest ")), "?")
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} wall={wall:.1f}s digest={digest} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
        for k in values:
            values[k].append(res["metrics"][k]["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- too wide"
        print(f"{m['name']:16s} median {med:10.4f} {m['unit']:5s} spread {spread:6.3f} "
              f"(bound {m['bound']}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
