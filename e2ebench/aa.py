#!/usr/bin/env python3
"""A/A steadiness check of the end-to-end benchmark on unchanged code.

Runs every workload (or those given) --runs times per set, each run for
run_seconds of BENCHMARK.json and with its own seed (set 1 on seeds 1, 2,
..., set 2 on seeds 1001, 1002, ...), and prints for each end-to-end metric the median, the first
and third quartile (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json. A
spread below a third of the bound is marked "steady". Every spread but
that of setup_s (one cold set-up per run) must stay within its bound. With --sets 2 a
second set of runs on other seeds follows, and the table adds how much
worse the second median is than the first, against the same bound.

    python3 e2ebench/aa.py --runs 10 --sets 2
    python3 e2ebench/aa.py --workloads fleet_ingest --runs 5

Raw results are kept in aa-results.json in the build directory.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_share(first, second, better):
    """How much worse the second median is than the first (<= 0: not worse)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1, choices=(1, 2))
    p.add_argument("--workloads", default="")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    results = {}
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = 1 + 1000 * s + i
                r = run_once(w, seed, seconds, 0)
                results.setdefault(w, [[] for _ in range(args.sets)])[s].append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}",
                      file=sys.stderr, flush=True)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    (target / "e2ebench").mkdir(parents=True, exist_ok=True)
    (target / "e2ebench" / "aa-results.json").write_text(json.dumps(results))

    all_ok = True
    for w in workloads:
        print(f"\n{w} ({args.runs} runs per set, {seconds} s each)")
        header = f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
        if args.sets == 2:
            header += f" {'median2':>12} {'worse2':>8}"
        print(header)
        for s, runs in enumerate(results[w]):
            bad = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            print(f"  set {s + 1}: correct={correct} failed shares={sorted(bad)}")
            all_ok &= correct
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = [r["metrics"][name]["value"] for r in results[w][0]]
            med, q1, q3, sp = spread(first)
            verdict = "steady" if sp < bound / 3 else ("within" if sp <= bound else "WIDE")
            # setup_s times one cold set-up per run, a single sample: only
            # its median is held to the bound, not its spread.
            if name != "setup_s":
                all_ok &= sp <= bound
            line = f"{name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.2%} {bound:6.2f}"
            if args.sets == 2:
                second = [r["metrics"][name]["value"] for r in results[w][1]]
                med2 = statistics.median(second)
                ws = worse_share(med, med2, m["better"])
                all_ok &= ws <= bound
                line += f" {med2:12.6g} {ws:8.2%}"
            print(f"{line}  {verdict}")
    print("\nA/A", "PASSED" if all_ok else "FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
