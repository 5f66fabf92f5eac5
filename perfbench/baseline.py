#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes it to perfbench/baseline.json.

Run it from the repository root:

    python3 perfbench/baseline.py                      # every workload
    python3 perfbench/baseline.py --workload xbmc      # one; merges into the file

For each workload it makes two sets of ten end-to-end runs (seeds 1-10 and
11-20), one run on a held-out seed, and one traced run. Per end-to-end metric
it records each set's median and spread: the distance between the first and
third quartiles of the ten values (statistics.quantiles(values, n=4)), as a
share of their median. It also records whether the second set's median is
within the metric's bound of the first's, whether the held-out run is within
the bound of the first set's median, and every run's raw metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = {"a": list(range(1, 11)), "b": list(range(11, 21))}
HELD_OUT_SEED = 1000
TRACED_SEED = 1


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    print(workload, "seed", seed, "trace", trace, json.dumps(vals) if not trace else "", flush=True)
    return {"seed": seed, "attempted": res["attempted"], "metrics": vals}


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        out[name] = {"median": med, "spread": (q[2] - q[0]) / med if med else 0.0}
    return out


def worse_by(new, old, better):
    """How much worse new is than old, as a share of old (negative: better)."""
    if old == 0:
        return 0.0
    return (old - new) / old if better == "higher" else (new - old) / old


def measure(bench, workload):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = {k: [run(bench, workload, s, 0) for s in seeds] for k, seeds in SETS.items()}
    held = run(bench, workload, HELD_OUT_SEED, 0)
    traced = run(bench, workload, TRACED_SEED, 1)
    summary = {k: summarize(v) for k, v in sets.items()}
    checks = {}
    for name, m in metrics.items():
        a, b = summary["a"][name], summary["b"][name]
        h = held["metrics"][name]
        checks[name] = {
            "bound": m["bound"],
            "spread_a_within_bound": name == "setup_s" or a["spread"] <= m["bound"],
            "spread_b_within_bound": name == "setup_s" or b["spread"] <= m["bound"],
            "b_vs_a_worse_by": worse_by(b["median"], a["median"], m["better"]),
            "held_out_vs_a_worse_by": worse_by(h, a["median"], m["better"]),
            "held_out_within_bound": abs(h - a["median"]) <= m["bound"] * a["median"],
        }
    return {
        "sets": {k: {"seeds": SETS[k], "metrics": summary[k]} for k in SETS},
        "held_out": held,
        "checks": checks,
        "traced": traced,
        "runs": {k: v for k, v in sets.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="workload to measure (repeatable; default all)")
    ap.add_argument("--out", default=os.path.join(ROOT, "perfbench", "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["machine"] = f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}"
    doc["run_seconds"] = bench["run_seconds"]
    doc.setdefault("workloads", {})
    for name in names:
        doc["workloads"][name] = measure(bench, name)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
