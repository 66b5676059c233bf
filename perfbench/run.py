"""Run one workload of the lderiv benchmark and print its metrics.

    python3 perfbench/run.py --workload points|count|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.  The
set-up (a fresh interpreter importing lderiv and enumerating the workload's
characters) is timed in child interpreters, half of them before the timed
section and half after it; setup_s is their median.  The workload then
runs whole rounds of the same operations until S seconds have passed,
clearing the point cache before each round, on one thread.  The first
round's outputs are checked against the stored mpmath references (refs/)
and every later round must reproduce them exactly.

wall_s is the time of one round, taking each operation at its 90th
percentile over the run's rounds (its slowest with fewer than ten rounds).
A shared host's speed wanders by up to half for seconds to minutes at a
time.  Its slow end is nearly the same from run to run, and an upper
percentile per operation finds it; a median of whole rounds instead
follows how much of the run fell in faster stretches.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics -- the end-to-end ones with --trace 0, the
per-layer ones of the set-up and first round of a traced run with --trace 1
(every round of a traced run is traced, so that its wall_s shows the cost
of tracing).  Lines before it starting
with '#' report the fault ledger and workload-specific figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# one thread for every numerical library, set before numpy is imported here
# and inherited by the set-up interpreters
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # fresh set-up interpreters before the timed section, and as many after it
WALL_PERCENTILE = 90


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def time_setup(workload):
    """Wall times of SETUP_REPEATS fresh interpreters doing the set-up."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import workloads; workloads.setup(sys.argv[3])")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, HERE, SRC, workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up failed:\n{proc.stderr}")
    return times


def same(a, b):
    """Exact equality of two round outcomes (numpy arrays compared bitwise)."""
    (va, ea), (vb, eb) = a, b
    if (ea is None) != (eb is None):
        return False
    if ea is not None:
        return type(ea) is type(eb) and str(ea) == str(eb)
    if hasattr(va, "tobytes"):
        return hasattr(vb, "tobytes") and va.tobytes() == vb.tobytes()
    return va == vb


def main(argv=None):
    ap = argparse.ArgumentParser(description="lderiv benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lderiv", "__init__.py")):
        fail(f"no lderiv sources under {SRC}; run from the root of a checkout")
    setup_times = time_setup(args.workload) if not args.trace else None

    sys.path.insert(0, SRC)
    import lderiv  # noqa: F401
    from lderiv import lfunc

    if not os.path.abspath(lderiv.__file__).startswith(SRC + os.sep):
        fail(f"lderiv imported from {lderiv.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")
    lderiv_mod, chars = workloads.setup(args.workload)
    _, make_ops, check = workloads.WORKLOADS[args.workload]
    ops = make_ops(lderiv_mod, chars, args.seed)
    refs = workloads.load_refs(args.workload)

    first = None
    walls, all_times = [], []
    nrounds = 0
    deterministic = True
    t_start = time.perf_counter()
    while True:
        lfunc.clear_cache()
        outcomes, times = [], []
        t0 = time.perf_counter()
        for op in ops:
            o0 = time.perf_counter()
            try:
                outcome = (op.fn(), None)
            except Exception as exc:  # the fault ledger records it; the run goes on
                outcome = (None, exc)
            times.append(time.perf_counter() - o0)
            outcomes.append(outcome)
        walls.append(time.perf_counter() - t0)
        nrounds += 1
        if tracer is not None:
            if nrounds == 1:  # the per-layer metrics are those of the set-up and first round
                layer_metrics = tracer.metrics()
                tracer.write_spans(spans_path)
            tracer.clear()  # later rounds pay for the tracing and keep nothing
        if first is None:
            first = outcomes
            first_ok = [exc is None for _, exc in outcomes]
        else:
            deterministic &= all(same(a, b) for a, b in zip(first, outcomes))
        all_times.append(times)
        if time.perf_counter() - t_start >= args.seconds:
            break

    if setup_times is not None:
        # the second half after the timed section, so the median spans the run
        setup_times += time_setup(args.workload)
    correct = deterministic
    try:
        failures = check(lderiv_mod, chars, ops, first, refs)
    except workloads.Failure as why:
        print(f"# incorrect: {why}")
        correct = False
        failures = {op.name: "unchecked" for op, (_, exc) in zip(ops, first) if exc is not None}
    if not deterministic:
        print("# incorrect: a later round's outputs differ from the first round's")
    tally = stats.Tally()
    for _ in range(nrounds):
        tally.add_round(len(ops), failures)
    for name, fault in sorted(failures.items()):
        print(f"# failed: {name}: {fault}")

    wall_s = stats.op_percentile_sum(all_times, WALL_PERCENTILE)
    print(f"# rounds: {nrounds}, operations per round: {len(ops)}, failed per round: {len(failures)}")
    print(f"# round wall time: first {walls[0]:.4f} s, median {statistics.median(walls):.4f} s")
    for line in figures(args.workload, ops, first, first_ok, all_times):
        print(f"# {line}")

    if tracer is None:
        import resource

        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        tracer.uninstall()
        print(f"# traced wall_s: {wall_s:.4f} s")
        metrics = layer_metrics
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if tracer else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def figures(workload, ops, first, first_ok, all_times):
    """Workload-specific figures, printed for the reader, not gated."""
    lines = []
    kinds = [op.name.split(":", 1)[0] for op in ops]
    ok_times = [[(k, t) for k, t, ok in zip(kinds, times, first_ok) if ok] for times in all_times]
    if workload == "points":
        scal = [t for times in ok_times for k, t in times if k != "grid"]
        grid_time = sum(t for times in ok_times for k, t in times if k == "grid") / len(all_times)
        grid_pts = sum(v.size for (v, exc), k in zip(first, kinds) if k == "grid" and exc is None)
        lines.append(f"evals_per_s {len(scal) / sum(scal):.1f} 1/s ({len(scal)} scalar evaluations)")
        lines.append(f"eval_p50_us {1e6 * stats.percentile(scal, 50):.1f} us")
        if stats.reportable(len(scal), 99):
            lines.append(f"eval_p99_us {1e6 * stats.percentile(scal, 99):.1f} us")
        lines.append(f"grid_points_per_s {grid_pts / grid_time:.1f} 1/s ({grid_pts} points per round)")
    elif workload == "count":
        first_times = ok_times[0]
        counts = [t for k, t in first_times if k in ("N1", "strip_L", "strip_Lprime", "origin")]
        nz = sum(1 if k == "trivial" else len(v)
                 for (v, exc), k in zip(first, kinds) if exc is None and k in ("trivial", "list"))
        zt = sum(t for k, t in first_times if k in ("trivial", "list"))
        lines.append(f"count_p50_s {stats.percentile(counts, 50):.4f} s ({len(counts)} counts)")
        lines.append(f"zeros_per_s {nz / zt:.2f} 1/s ({nz} certified zeros)")
        lines.append(f"oracle_s {sum(t for k, t in first_times if k == 'oracle'):.4f} s")
    else:
        for op, (v, exc), t in zip(ops, first, all_times[0]):
            if exc is None:
                lines.append(f"digest {workloads.digest(v)} {op.name} ({t:.3f} s)")
    return lines


if __name__ == "__main__":
    sys.exit(main())
