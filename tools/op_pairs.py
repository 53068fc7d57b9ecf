"""Compare two checkouts op by op, with the ops of both interleaved in time.

    python3 tools/op_pairs.py PARENT CHANGE --workloads interp --seeds 1 2 --rounds 5

PARENT and CHANGE are the roots of two source checkouts. For each workload
one long-lived worker process starts in each root; it imports that root's
`src/` and `bench/workloads.py` (only imported, never changed), builds the
decks of the given seeds (cycles 0 .. n - 1 of each, as `bench/run.py`
builds its run's ops) and runs the untimed warm-up ops of the first seed.
The parent process then asks the two workers in turn to run op i once and
report its wall time; checking the result is not timed. Each round goes
through every op, and which side runs an op first alternates from one op
to the next and from one round to the next, so a drift in machine speed
falls on both sides alike.

An op's time is the median over the rounds. Per workload the output gives,
for each side, the p50 and p90 of the op times, their sum and the number of
ops that failed (raised, or failed their check, in any round); then the
median, quartiles and range of the per-op ratio change / parent, the
number of ops whose failed outcome differs between the sides, and the
median ratio over the other ops alone. An op that turns from failing to
passing may do different work on each side, so when a change moves
failures the whole-deck ratio mixes that in; the ratio over the ops with
the same outcome compares like with like. Last comes one line per op kind
(the label without its `deg=` and `alpha=` values): its number of ops,
their share of the deck and their median ratio, so a change confined to
some kinds shows where it sits. Only the
in-process workloads `interp` and `negsq` are supported: a `cli` op is one
fresh interpreter, whose start-up dwarfs the library, and
`tools/bench_pairs.py` compares it whole.
"""

import os

# The benchmark's BLAS setting, so both sides run the same kernels on one
# core. Must precede the numpy import.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

# Cycles per seed, as in bench/run.py; warm-up ops come from a cycle no
# timed op uses.
CYCLES = {"interp": 3, "negsq": 4}
WARMUP_CYCLE = 2**31


def worker(root, workload, seeds):
    """Serve `run i` requests on stdin: one JSON reply line per op."""
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    sys.stdout = sys.stderr  # anything the library prints stays off the replies
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import warnings

    import numpy as np

    import schurkit

    if Path(schurkit.__file__).resolve().parent != (root / "src" / "schurkit").resolve():
        raise SystemExit(f"op_pairs: imported schurkit from {schurkit.__file__}, not from {root}/src")
    # Known numerical warnings are part of the workload, as in bench/run.py.
    warnings.simplefilter("ignore")
    import workloads

    def deck(seed, cycle):
        rng = np.random.default_rng([seed, cycle])
        if workload == "interp":
            return workloads.interp_deck(rng)
        return workloads.negsq_deck(rng, cycle)

    ops = [op for seed in seeds for cycle in range(CYCLES[workload]) for op in deck(seed, cycle)[0]]
    for op in deck(seeds[0], WARMUP_CYCLE)[1]:
        op.check(op.run())
    print(json.dumps([op.label for op in ops]), file=reply)
    for line in sys.stdin:
        op = ops[int(line)]
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed op, as in bench/run.py
            result = exc
        elapsed = perf_counter() - t0
        failed = isinstance(result, Exception) or bool(op.check(result))
        print(json.dumps([elapsed, failed]), file=reply)


class Side:
    """One worker process, run from its checkout's root."""

    def __init__(self, root, workload, seeds):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root),
               "--workloads", workload, "--seeds", *map(str, seeds)]
        self.proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1)
        self.labels = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"op_pairs: worker {' '.join(self.proc.args)} exited {self.proc.wait()}")
        return json.loads(line)

    def run(self, i):
        """(wall seconds, failed) of one run of op i."""
        self.proc.stdin.write(f"{i}\n")
        return self._read()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def ms_quantiles(values):
    """p50 and p90 in milliseconds, as bench/run.py reads its op medians."""
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]
    return statistics.median(values) * 1e3, p90 * 1e3


def compare(parent, change, workload, seeds, rounds):
    sides = {"parent": Side(parent, workload, seeds)}
    try:
        sides["change"] = Side(change, workload, seeds)
        if sides["parent"].labels != sides["change"].labels:
            raise SystemExit(f"op_pairs: the two checkouts build different {workload} decks")
        n = len(sides["parent"].labels)
        times = {side: [[] for _ in range(n)] for side in sides}
        failed = {side: set() for side in sides}
        for r in range(rounds):
            for i in range(n):
                order = ("parent", "change") if (i + r) % 2 == 0 else ("change", "parent")
                for side in order:
                    elapsed, bad = sides[side].run(i)
                    times[side][i].append(elapsed)
                    if bad:
                        failed[side].add(i)
            print(f"  {workload} round {r + 1}/{rounds} done", file=sys.stderr)
    finally:
        for s in sides.values():
            s.close()

    med = {side: [statistics.median(t) for t in times[side]] for side in sides}
    print(f"workload {workload} seeds {' '.join(map(str, seeds))}: {n} ops, {rounds} rounds")
    print(f"  {'side':<8} {'p50_ms':>9} {'p90_ms':>9} {'sum_ms':>11} {'failed':>7}")
    for side in sides:
        p50, p90 = ms_quantiles(med[side])
        print(f"  {side:<8} {p50:>9.4f} {p90:>9.4f} {sum(med[side]) * 1e3:>11.1f} {len(failed[side]):>7}")
    ratios = [c / p for p, c in zip(med["parent"], med["change"])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"  per-op ratio change/parent: median {q2:.4f}, quartiles {q1:.4f}-{q3:.4f}, "
          f"range {min(ratios):.4f}-{max(ratios):.4f}")
    moved = failed["parent"] ^ failed["change"]
    print(f"  ops whose failed outcome differs: {len(moved)}")
    same = [r for i, r in enumerate(ratios) if i not in moved]
    if same:
        print(f"  per-op ratio over the {len(same)} ops with the same failed outcome: "
              f"median {statistics.median(same):.4f}")
    kinds = defaultdict(list)
    for label, r in zip(sides["parent"].labels, ratios):
        kinds[re.sub(r" (deg|alpha)=\S+", "", label)].append(r)
    print("  per-op ratio by op kind:")
    for kind, rs in sorted(kinds.items()):
        print(f"    {kind:<32} {len(rs):>5} ops ({len(rs) / n:>6.1%})  median {statistics.median(rs):.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workloads", nargs="+", choices=tuple(CYCLES), default=["interp"])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        worker(args.worker.resolve(), args.workloads[0], args.seeds)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for root in (args.parent, args.change):
        if not (root / "bench" / "workloads.py").is_file():
            parser.error(f"{root} has no bench/workloads.py")
    for workload in args.workloads:
        compare(args.parent.resolve(), args.change.resolve(), workload, args.seeds, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
