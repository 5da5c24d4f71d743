#!/usr/bin/env python3
"""Steadiness tooling for perfbench: repeat workloads, then compare sets.

Repeat each workload N times with seeds S, S+1, ... and print every metric's
median, quartiles and spread (quartile distance over median) against the
bound BENCHMARK.json gives it; save the raw values:

    python3 perfbench/steady.py run --workload dashboard --workload ingest \
        --runs 10 --first-seed 1 --out .bench_build/set1.json

Compare two saved sets: the change of every metric's median from the first
set to the second, in the metric's worse direction, against its bound:

    python3 perfbench/steady.py compare .bench_build/set1.json \
        .bench_build/set2.json

Quartiles are Python's statistics.quantiles(values, n=4). Metrics that only
the "report" line carries (the workload-specific end-to-end metrics, such as
append_p50_ms on ingest) are summarised too; BENCHMARK.json gives them no
bound, so they are held to the largest declared bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(trace):
    data = spec()
    declared = {m["name"]: m for m in data["per_layer" if trace else "end_to_end"]}
    default_bound = max(m["bound"] for m in data["end_to_end"])
    return declared, default_bound, data["run_seconds"]


def run_once(workload, seed, seconds, trace):
    """One run.py invocation: (result dict, report metrics dict)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{done.returncode}\n{done.stdout}")
    result = json.loads(lines[-1])
    report = {}
    for line in lines:
        if line.startswith("report "):
            report = json.loads(line[len("report "):])["end_to_end"]
    return result, report


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def print_table(workload, runs, trace):
    declared, default_bound, _ = metric_specs(trace)
    names = list(runs[0]["metrics"])
    print(f"\n{workload}: {len(runs)} runs, seeds "
          f"{', '.join(str(r['seed']) for r in runs)}")
    print(f"  {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        median, q1, q3, spread = summarize(values)
        bound = declared.get(name, {}).get("bound")
        shown = bound if bound is not None else default_bound
        if trace:
            verdict = ""
        elif spread <= shown / 3:
            verdict = "steady"
        elif spread <= shown:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        if name == "setup_s" and verdict != "steady":
            verdict += " (not spread-checked)"
        tag = "" if name in declared else " *"
        print(f"  {name + tag:40s} {unit:6s} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:7.3f} {shown:6.3f}  {verdict}")
    if not trace:
        print("  * report-only metric: not in BENCHMARK.json")


def cmd_run(args):
    _, _, run_seconds = metric_specs(args.trace)
    seconds = args.seconds or run_seconds
    saved = {"trace": args.trace, "seconds": seconds, "workloads": {}}
    for workload in args.workload:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, report = run_once(workload, seed, seconds, args.trace)
            metrics = dict(result["metrics"])
            if not args.trace:
                for name, m in report.items():
                    metrics.setdefault(name, m)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": metrics})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        saved["workloads"][workload] = runs
        print_table(workload, runs, args.trace)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(saved, indent=1))
        print(f"\nsaved {args.out}")


def cmd_compare(args):
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    declared, default_bound, _ = metric_specs(first["trace"])
    worst_ok = True
    for workload, runs_a in first["workloads"].items():
        runs_b = second["workloads"].get(workload)
        if not runs_b:
            continue
        print(f"\n{workload}: {len(runs_a)} vs {len(runs_b)} runs")
        print(f"  {'metric':40s} {'median 1':>12s} {'median 2':>12s} "
              f"{'worse by':>9s} {'bound':>6s}  verdict")
        for name in runs_a[0]["metrics"]:
            if name not in runs_b[0]["metrics"]:
                continue
            a = statistics.median(r["metrics"][name]["value"] for r in runs_a)
            b = statistics.median(r["metrics"][name]["value"] for r in runs_b)
            better = declared.get(name, {}).get("better", "lower")
            worse = (b - a) / abs(a) if a else 0.0
            if better == "higher":
                worse = -worse
            bound = declared.get(name, {}).get("bound", default_bound)
            ok = worse <= bound
            worst_ok = worst_ok and (ok or name not in declared)
            tag = "" if name in declared else " *"
            print(f"  {name + tag:40s} {a:12.6g} {b:12.6g} {worse:9.3f} "
                  f"{bound:6.3f}  {'ok' if ok else 'WORSE THAN BOUND'}")
    print("\nall declared metrics within bounds" if worst_ok
          else "\nsome declared metric got worse than its bound")
    return 0 if worst_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="repeat workloads over seeds")
    run.add_argument("--workload", action="append", required=True,
                     choices=["dashboard", "adhoc_scan", "ingest"])
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="defaults to BENCHMARK.json's run_seconds")
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--out")
    compare = sub.add_parser("compare", help="compare two saved sets")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    if args.command == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
