"""Run every workload repeatedly, each run in a fresh process, and report
each end-to-end metric's median and quartiles next to its bound.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads points,count,verify]
                                [--trace]

Run from the root of a checkout.  With --runs 1 this is the one command
that runs all workloads and prints every end-to-end metric by name and
unit with each workload's attempted and failed operations.  --trace adds
one traced run per workload: every per-layer metric, and the tracing
overhead as the traced run's wall_s minus the untraced median wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(bench, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in names:
        results, digests = [], set()
        for k in range(args.runs):
            res, notes = run_once(bench, workload, args.seed0 + k, 0)
            results.append(res)
            digests.add(tuple(n.split(" (")[0] for n in notes if n.startswith("# digest")))
            print(f"{workload} seed {args.seed0 + k}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{m}={v['value']:.6g}{v['unit']}" for m, v in res["metrics"].items()),
                  flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        share_set = {f / a for f, a in shares}
        print(f"{workload}: correct in {sum(r['correct'] for r in results)}/{len(results)} runs, "
              f"failed share {sorted(share_set)}")
        ok &= all(r["correct"] for r in results) and len(share_set) == 1
        if len(digests) > 1:
            print(f"{workload}: outputs differ between runs: {digests}")
            ok = False
        for metric in bench["end_to_end"]:
            vals = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = stats.quartiles(vals * 2 if len(vals) == 1 else vals)
            spread = stats.spread(vals * 2 if len(vals) == 1 else vals)
            flag = "ok" if spread < metric["bound"] / 3 else ("wide" if spread < metric["bound"] else "OVER")
            if metric["name"] != "setup_s" and spread >= metric["bound"]:
                ok = False
            print(f"  {metric['name']:<12} median {med:.6g} {metric['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  bound {metric['bound']}  {flag}")
        if args.trace:
            res, notes = run_once(bench, workload, args.seed0, 1)
            traced = [float(n.split(":")[1].split()[0]) for n in notes if "traced wall_s" in n][0]
            untraced = statistics.median(r["metrics"]["wall_s"]["value"] for r in results)
            print(f"  traced run: correct={res['correct']} wall_s {traced:.4f} s, "
                  f"overhead {traced - untraced:+.4f} s ({(traced - untraced) / untraced:+.1%})")
            for name, v in res["metrics"].items():
                print(f"    {name:<26} {v['value']:.6g} {v['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
