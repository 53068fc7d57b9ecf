"""Compare two checkouts with alternated pairs of benchmark runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workloads interp negsq --seeds 4 5 6 --seconds 30

PARENT and CHANGE are the roots of two source checkouts. For each workload
and seed, `bench/run.py` runs once in each checkout, one process at a time
and from that checkout's root, so each side measures its own sources with
its own benchmark files (which are only run, never changed). The side that
runs first alternates from one pair to the next, so a drift in machine
speed falls on both sides alike.

For every end-to-end metric the output gives the median of each side, the
parent's quartiles and interquartile range (IQR), and on how many pairs the
change read better (ties count for neither side). `gain` marks a metric on
which the change won at least nine pairs in ten and the medians differ by
more than the parent's IQR; `bound` marks one whose change median is worse
than the parent's by more than the bound in the parent's BENCHMARK.json.
`failed` and `correct` are listed per pair.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root, workload, seed, seconds):
    """The JSON result line of one benchmark run in checkout `root`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(workload, metrics, results):
    """Print one workload's table; `results` is a list of (seed, parent, change)."""
    print(f"workload {workload}: {len(results)} pairs")
    print(f"  {'metric':<16} {'parent':>10} {'change':>10} {'parent q1-q3':>21} {'IQR':>9}  wins   gain  bound")
    for m in metrics:
        name = m["name"]
        old = [p["metrics"][name]["value"] for _, p, _ in results]
        new = [c["metrics"][name]["value"] for _, _, c in results]
        lower = m["better"] == "lower"
        wins = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
        q1, q3 = quartiles(old)
        med_old, med_new = statistics.median(old), statistics.median(new)
        gain = 10 * wins >= 9 * len(results) and abs(med_new - med_old) > q3 - q1
        worse = (med_new - med_old) if lower else (med_old - med_new)
        over = worse > m["bound"] * med_old
        print(f"  {name:<16} {med_old:>10.4g} {med_new:>10.4g} {q1:>10.4g}-{q3:<10.4g} {q3 - q1:>9.3g}"
              f"  {wins:>2}/{len(results):<2} {'yes' if gain else 'no':>5} {'over' if over else 'ok':>6}")
    print("  per pair (seed: failed/attempted parent -> change, correct):")
    for seed, p, c in results:
        print(f"    {seed}: {p['failed']}/{p['attempted']} -> {c['failed']}/{c['attempted']}, "
              f"{p['correct']} -> {c['correct']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True, choices=("interp", "negsq", "cli"))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} has no bench/run.py")
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]

    for workload in args.workloads:
        results = []
        for i, seed in enumerate(args.seeds):
            sides = [("parent", args.parent), ("change", args.change)]
            out = {}
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                out[side] = run(root, workload, seed, args.seconds)
                print(f"  {workload} seed {seed} {side} done", file=sys.stderr)
            results.append((seed, out["parent"], out["change"]))
        report(workload, metrics, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
