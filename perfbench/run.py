#!/usr/bin/env python3
"""Run one benchmark workload against the dslie sources of this checkout.

    python3 perfbench/run.py --workload ds-exceptional --seed 1 --seconds 10 --trace 0

One process, closed loop, one client: the next op starts when the previous
one returned.  Each workload has a fixed pool of ops; every round runs the
whole pool in an order drawn from the seed, and the measured phase ends at
the first round boundary after ``--seconds`` of op time.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced pass with ``--trace 1``.

Every reported time is scaled to a fixed reference speed of the host (see
``speed.py``); the raw wall-clock figures are printed beside the scaled ones.
"""

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DSLIE_CACHE_DIR", None)  # runs never share a build cache

import argparse
import gc
import hashlib
import itertools
import json
import platform
import random
import resource
import shutil
import statistics
import tempfile

from speed import REFERENCE_KERNEL_S, Mark, SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPEATS = 3
MAX_MEASURE_S = 120.0  # wall-clock cap on the measured phase, so a run ends within 180 s
WORKLOAD_NAMES = ("ds-exceptional", "classical-tables", "defect-sweep", "build-catalog")


def import_library():
    """Import dslie from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dslie", "__init__.py")):
        raise SystemExit(f"perfbench: no dslie sources under {SRC}")
    sys.path.insert(0, SRC)
    import dslie
    if not os.path.abspath(dslie.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: dslie imported from {dslie.__file__}, not {SRC}")
    return dslie


def environment() -> dict:
    import numpy
    cpu = platform.machine() or "?"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def rounds(pool_len: int, workload: str, seed: int):
    """Endless rounds; each is the whole pool in an order drawn from the
    seed.  Every op of round r gets r as its op seed (defect-sweep samples
    with it), so round r does the same work in every run and the measured
    rates compare across seeds; the seed changes the order."""
    rng = random.Random(f"{workload}/{seed}")
    for r in itertools.count():
        order = list(range(pool_len))
        rng.shuffle(order)
        yield [(i, r) for i in order]


class Phase:
    """Runs ops, times each call into the library, checks each result.

    Per op it records the pool index, the latency of the library call and
    the busy interval (the collection of the previous op's garbage plus the
    op), each with its scale to the reference speed.  The checks are not
    part of either."""

    def __init__(self, w, probe: SpeedProbe, tracer=None):
        self.w = w
        self.probe = probe
        self.tracer = tracer
        self.rounds = 0
        self.index = []
        self.latency = []
        self.busy = []
        self.attempted = 0
        self.failed = 0
        self.lines = []

    def op(self, idx: int, op_seed: int):
        op = self.w.pool[idx]
        if self.tracer is not None:
            self.tracer.op_id = f"{self.attempted}"
        m0 = self.probe.mark()
        # every op starts from an empty young generation, so the collections
        # it triggers depend on its own allocations, not on the ops before it
        gc.collect()
        m1 = self.probe.mark()
        try:
            out, err = self.w.run(op, op_seed), None
        except Exception as exc:  # a failing op is counted, never dropped
            out, err = None, exc
        m2 = self.probe.mark()
        self.latency.append(self.probe.since(m1, m2))
        self.busy.append(self.probe.since(m0, m2))
        self.index.append(idx)
        self.attempted += 1
        if err is None:
            try:
                ok, line = self.w.check(op, op_seed, out)
            except Exception as exc:
                ok, line = False, f"{op!r}|check raised {type(exc).__name__}: {exc}"
        else:
            ok, line = False, f"{op!r}|raised {type(err).__name__}: {err}"
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED op {self.attempted - 1}: {line}", file=sys.stderr)
        self.lines.append(line)

    def run_round(self, rnd, deadline=None):
        """Run one round; stop early only once past ``deadline``."""
        self.rounds += 1
        for idx, op_seed in rnd:
            self.op(idx, op_seed)
            if deadline is not None and time.perf_counter() > deadline:
                break

    def busy_s(self) -> float:
        return sum(b.scaled_wall for b in self.busy)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:20]


def median_op_latency(lat, index):
    """Median over the pool of each op's median latency across rounds; two
    ops of very different cost next to the middle cannot make it jump."""
    per_op = {}
    for x, i in zip(lat, index):
        per_op.setdefault(i, []).append(x)
    return statistics.median(statistics.median(v) for v in per_op.values())


def tail_latency(lat):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    s = sorted(lat)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def setup_workload(workloads, name, cache_dir):
    workloads.reset_library_caches()
    w = workloads.make_workload(name, cache_dir)
    w.setup()
    return w


def freeze_heap():
    """Move everything alive after setup out of the collector's reach, as a
    long-running server does after warm-up; ops then pay only for
    collecting their own objects."""
    gc.collect()
    gc.freeze()


def run_untraced(args, workloads, probe, imports, cache_dir):
    setups = []
    w = None
    for _ in range(SETUP_REPEATS):
        w = None
        gc.collect()
        m = probe.mark()
        w = setup_workload(workloads, args.workload, cache_dir)
        setups.append(probe.since(m))
    setup_s = imports.scaled_wall + statistics.median(s.scaled_wall for s in setups)

    freeze_heap()
    ph = Phase(w, probe)
    gen = rounds(len(w.pool), args.workload, args.seed)
    deadline = time.perf_counter() + MAX_MEASURE_S
    ph.run_round(next(gen))
    round1 = digest(ph.lines)
    while ph.busy_s() < args.seconds and time.perf_counter() < deadline:
        ph.run_round(next(gen), deadline=deadline)

    lat = [x.scaled_wall for x in ph.latency]
    raw_lat = [x.wall for x in ph.latency]
    busy = ph.busy_s()
    cpu = sum(b.scaled_cpu for b in ph.busy)
    ok_ops = ph.attempted - ph.failed
    tail, tail_pct = tail_latency(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok_ops / busy, "1/s"),
        "latency_p50_ms": (1e3 * median_op_latency(lat, ph.index), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "cpu_ms_per_op": (1e3 * cpu / ph.attempted, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = len(lat)
    scales = [b.scale for b in ph.busy]
    print(f"setup_s {setup_s:.4f} s (imports {imports.scaled_wall:.3f} s + median of "
          f"{SETUP_REPEATS} setups {', '.join(f'{s.scaled_wall:.3f}' for s in setups)}; "
          f"raw imports {imports.wall:.3f}, setups {', '.join(f'{s.wall:.3f}' for s in setups)})")
    print(f"ops_per_s {metrics['ops_per_s'][0]:.4f} 1/s ({ok_ops} ops in {busy:.3f} s, "
          f"{ph.rounds} rounds of {len(w.pool)}; raw {ok_ops / sum(b.wall for b in ph.busy):.4f})")
    print(f"latency_p50_ms {metrics['latency_p50_ms'][0]:.4f} ms (n={n}, {len(w.pool)} ops; "
          f"raw {1e3 * median_op_latency(raw_lat, ph.index):.4f})")
    print(f"latency_tail_ms {metrics['latency_tail_ms'][0]:.4f} ms (p{tail_pct:.2f}, n={n}, "
          f"{min(n, 10)} samples beyond; raw {1e3 * tail_latency(raw_lat)[0]:.4f})")
    print(f"cpu_ms_per_op {metrics['cpu_ms_per_op'][0]:.4f} ms "
          f"(raw {1e3 * sum(b.cpu for b in ph.busy) / ph.attempted:.4f})")
    print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.4f} MB")
    print(f"fail_ratio {ph.failed / ph.attempted:.6f} ratio ({ph.failed} of {ph.attempted})")
    print(f"digest {round1} (first round, {len(w.pool)} ops)")
    print(f"speed scale per op: median {statistics.median(scales):.3f}, min {min(scales):.3f}, "
          f"max {max(scales):.3f} ({len(probe.took)} probe samples, reference kernel "
          f"{1e3 * REFERENCE_KERNEL_S:.2f} ms)")
    return ph, metrics


def run_traced(args, workloads, probe, cache_dir):
    from tracer import HEAVY, Tracer, metric_spec
    tr = Tracer()
    tr.install()
    tr.enabled = True
    w = setup_workload(workloads, args.workload, cache_dir)
    tr.uninstall()
    freeze_heap()
    rnd = next(rounds(len(w.pool), args.workload, args.seed))

    plain = Phase(w, probe)
    plain.run_round(rnd)
    untraced_s = plain.busy_s()

    tr.install()
    ph = Phase(w, probe, tracer=tr)
    ph.run_round(rnd)
    traced_s = ph.busy_s()
    tr.enabled = False
    tr.uninstall()

    values = tr.metrics()
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values["trace.spans"] = len(tr.spans)
    missing = [m for m in HEAVY[args.workload] if not values.get(m)]
    trace_path = os.path.join(RUNS_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    tr.dump(trace_path)
    print(f"traced one round of {len(rnd)} ops: untraced {untraced_s:.3f} s, traced "
          f"{traced_s:.3f} s, overhead x{values['trace.overhead_ratio']:.3f}")
    print(f"spans {len(tr.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    print(f"coverage {'ok' if not missing else 'MISSING ' + ', '.join(missing)} "
          f"({len(HEAVY[args.workload])} layer counters checked for {args.workload})")
    print(f"digest {digest(ph.lines)} (first round, {len(w.pool)} ops); "
          f"untraced pass {digest(plain.lines)}")
    for name in sorted(values):
        print(f"  {name} {values[name]:.6g} {metric_spec(name)[0]}")
    metrics = {k: (v, metric_spec(k)[0]) for k, v in values.items()}
    return ph, metrics, not missing and digest(ph.lines) == digest(plain.lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    try:
        import_library()
        import workloads
        imports = probe.since(Mark(_T0, 0.0, 0.0, 0.0))  # from process start
        env = environment()
        print("env " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}"
                                for k, v in env.items()))

        os.makedirs(RUNS_DIR, exist_ok=True)
        run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
        try:
            cache_dir = os.path.join(run_dir, "cache")
            if args.trace:
                ph, metrics, trace_ok = run_traced(args, workloads, probe, cache_dir)
            else:
                ph, metrics = run_untraced(args, workloads, probe, imports, cache_dir)
                trace_ok = True
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    finally:
        probe.stop()

    result = {
        "correct": ph.failed == 0 and trace_ok,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
