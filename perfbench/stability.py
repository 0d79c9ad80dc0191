#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarize its run-to-run spread.

Run from the repository root:

    python3 perfbench/stability.py --seeds 101-110 --out perfbench/stability/set1.json
    python3 perfbench/stability.py --summarize perfbench/stability/set1.json perfbench/stability/set2.json

A set runs every workload once per seed, interleaving the workloads so that
drift in host speed falls on all of them alike. For each workload and
end-to-end metric it records the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. --summarize prints each
set's spreads against the bounds in BENCHMARK.json and how far each later
set's medians moved from the first set's.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = f".bench_build/perfbench/{workload}-seed{seed}-trace{trace}.report.json"
    with open(report) as f:
        rep = json.load(f)
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall, "result": result,
            "latency_p50_s": statistics.median(rep["latency_s_samples"]),
            "peak_rss_mb": rep["peak_rss_mb"], "provenance": rep["provenance"]}


def summarize_runs(bench, runs):
    out = {}
    for w in bench["workloads"]:
        name = w["name"]
        rows = [r for r in runs if r["workload"] == name and r["trace"] == 0]
        if not rows:
            continue
        per_metric = {}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            per_metric[m["name"]] = {
                "n": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(med), "bound": m["bound"],
            }
        traced = {}
        for t in (r for r in runs if r["workload"] == name and r["trace"] == 1):
            untraced = [r for r in rows if r["seed"] == t["seed"]]
            if untraced:
                # Tracing overhead: the traced run's median operation latency
                # against the untraced run's, same workload and seed.
                traced[str(t["seed"])] = t["latency_p50_s"] / untraced[0]["latency_p50_s"] - 1
        out[name] = {
            "tracing_overhead_by_seed": traced,
            "runs": len(rows),
            "all_correct": all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in rows),
            "wall_s_median": statistics.median(r["wall_s"] for r in rows),
            "metrics": per_metric,
        }
    return out


def print_summary(label, summary):
    print(f"== {label}")
    for workload, s in summary.items():
        print(f"  {workload}: {s['runs']} runs, all correct: {s['all_correct']}, median wall {s['wall_s_median']:.1f} s")
        for seed, overhead in s.get("tracing_overhead_by_seed", {}).items():
            print(f"    traced run (seed {seed}): median latency {overhead:+.3f} against the untraced run")
        for name, m in s["metrics"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- spread above bound/3"
            print(f"    {name:16s} median {m['median']:12.5g}  q1 {m['q1']:12.5g}  q3 {m['q3']:12.5g}"
                  f"  spread {m['spread']:6.3f}  bound {m['bound']:.2f}{flag}")


def compare(label, a, b):
    print(f"== {label} against the first set (median ratio − 1)")
    for workload in a:
        if workload not in b:
            continue
        for name, m in a[workload]["metrics"].items():
            m2 = b[workload]["metrics"][name]
            drift = m2["median"] / m["median"] - 1
            print(f"    {workload:12s} {name:16s} {drift:+.3f}  (bound {m['bound']:.2f})")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="101-110", help="seed range, lo-hi inclusive")
    ap.add_argument("--trace", action="store_true",
                    help="also make one traced run per workload, right after the first seed's untraced run")
    ap.add_argument("--out", help="write the set's runs and summary here")
    ap.add_argument("--summarize", nargs="+", metavar="SET", help="summarize recorded sets instead of running")
    args = ap.parse_args()
    bench = load_benchmark()

    if args.summarize:
        sets = []
        for path in args.summarize:
            with open(path) as f:
                sets.append(json.load(f))
            print_summary(path, sets[-1]["summary"])
        for path, later in zip(args.summarize[1:], sets[1:]):
            compare(path, sets[0]["summary"], later["summary"])
        return

    names = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs = []
    for seed in seeds:
        for name in names:
            runs.append(run_once(bench, name, seed, 0))
            m = runs[-1]["result"]["metrics"]
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v['value']:.5g}" for k, v in sorted(m.items())),
                  flush=True)
            if args.trace and seed == seeds[0]:
                # The traced run follows its untraced twin at once, so that
                # drift in host speed stays out of the overhead reading.
                runs.append(run_once(bench, name, seed, 1))
    summary = summarize_runs(bench, runs)
    print_summary(args.out or "this set", summary)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "runs": runs, "summary": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
