#!/usr/bin/env python3
"""Runs the benchmark the way the driver does and checks that it is steady.

For every workload of BENCHMARK.json it runs the manifest's command with
--trace 0 on `--seeds` different seeds, `--sets` times over (each set on its
own seeds), and prints per metric and workload each set's median, its spread
(distance between the first and third quartile as a share of the median) and
how much worse the last set's median is than the first's. It exits non-zero
if a spread (setup_s excepted, as the driver does: a 10 ms set-up repeats to
10-25 %) or a worsening exceeds the metric's bound, or if any run reports a
failed operation. It also collects the latency ladder (p50 to p99.5) every run logs,
which is what shows where a workload's tail stops being steady. With --traced
it also makes one --trace 1 run per workload and records the per-layer
metrics. --out writes everything, with a host block, as JSON
(bench/results/baseline.json is such a file).

Run it from the repository root: python3 bench/repeat.py --out bench/results/baseline.json
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(manifest, workload, seed, trace):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", str(trace),
    ]
    began = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - began
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: {result['failed']} of {result['attempted']} operations failed:\n{proc.stderr}")
    ladder = re.search(r"^paced latency ms: (.*)$", proc.stderr, re.M).group(1).split()
    result["ladder"] = {q: float(v) for q, v in zip(ladder[0::2], ladder[1::2])}
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def host():
    def out(*cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout.strip()
        except OSError:
            return ""
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "gomaxprocs": os.environ.get("GOMAXPROCS", "default"),
        "go": out("go", "version"),
        "commit": out("git", "rev-parse", "HEAD"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=2, help="independent sets of runs to compare")
    ap.add_argument("--workloads", default="", help="comma-separated subset of the manifest's workloads")
    ap.add_argument("--traced", action="store_true", help="also make one --trace 1 run per workload")
    ap.add_argument("--out", default="", help="write the results as JSON to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    names = [w["name"] for w in manifest["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = manifest["end_to_end"]

    # values[workload][set][metric] = [one value per seed]
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)] for w in names}
    ladders = {w: {} for w in names}  # ladders[workload][quantile] = one value per run of any set
    walls = []
    for s in range(args.sets):
        for w in names:
            for i in range(args.seeds):
                seed = 1 + s * args.seeds + i
                result, wall = run_once(manifest, w, seed, 0)
                walls.append(wall)
                for m in metrics:
                    values[w][s][m["name"]].append(result["metrics"][m["name"]]["value"])
                for q, v in result["ladder"].items():
                    ladders[w].setdefault(q, []).append(v)
                print(f"set {s + 1} {w} seed {seed}: {wall:.1f}s", file=sys.stderr)

    bad = 0
    rows = []
    print(f"{'workload':14} {'metric':22} " + " ".join(f"{'median' + str(s + 1):>12} {'spread':>7}" for s in range(args.sets)) + f" {'worse':>7} {'bound':>6}")
    for w in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = [statistics.median(values[w][s][name]) for s in range(args.sets)]
            spreads = [spread(values[w][s][name]) for s in range(args.sets)]
            worse = (meds[-1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            verdict = ""
            if worse > bound or (name != "setup_s" and max(spreads) > bound):
                verdict = " EXCEEDS BOUND"
                bad += 1
            print(f"{w:14} {name:22} " + " ".join(f"{meds[s]:12.6g} {spreads[s]:7.2%}" for s in range(args.sets)) + f" {worse:+7.2%} {bound:6.0%}{verdict}")
            rows.append({"workload": w, "metric": name, "unit": m["unit"], "medians": meds, "spreads": spreads, "worsening": worse, "bound": bound})
    tps = {w: statistics.median(sum((v["throughput_tps"] for v in values[w]), [])) for w in names}
    if "iter_join" in tps and "iter_nfa" in tps:
        print(f"fasp_over_fcep = iter_join.throughput_tps / iter_nfa.throughput_tps = {tps['iter_join'] / tps['iter_nfa']:.3f}")
    print("detection latency ladder, ms: median over all runs (spread)")
    ladder_rows = []
    for w in names:
        print(f"{w:14} " + "  ".join(f"{q} {statistics.median(v):.4g} ({spread(v):.0%})" for q, v in ladders[w].items()))
        ladder_rows += [{"workload": w, "quantile": q, "median_ms": statistics.median(v), "spread": spread(v)} for q, v in ladders[w].items()]

    traced = {}
    if args.traced:
        for w in names:
            result, wall = run_once(manifest, w, 1, 1)
            traced[w] = {"wall_s": wall, "metrics": result["metrics"]}
            print(f"traced {w}: {wall:.1f}s", file=sys.stderr)
    # ru_maxrss of the children is the largest any one of them reached, in KiB.
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"longest untraced run {max(walls):.1f}s, mean {statistics.mean(walls):.1f}s, largest resident set {rss_mib:.0f} MiB")

    if args.out:
        doc = {
            "host": host(),
            "run_seconds": manifest["run_seconds"],
            "seeds_per_set": args.seeds,
            "sets": args.sets,
            "run_wall_s": {"max": max(walls), "mean": statistics.mean(walls)},
            "max_rss_mib": rss_mib,
            "end_to_end": rows,
            "latency_ladder": ladder_rows,
            "per_layer": traced,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
