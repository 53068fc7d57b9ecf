"""Sweep the negative-squares count and the rigidity class note into BENCH_<sha>.json.

    python3 tools/sweep.py [--degrees 8 16 17 24 32 48 64] [--per-degree 60] [--out FILE]

Run from the root of a source checkout: the library is imported from ./src
and the inputs are built by ./bench/gen.py, which is only imported, never
changed. For each degree d, function i (i < --per-degree) is
`gen.generalized_schur` drawn from `default_rng([7700, d, i])` with
kappa = i % 9 disk poles, d - kappa zeros and |c| = 1 (inner) on even i, so
it has exactly kappa negative squares. It is built with `reduce=False`, so
the count sees the function as drawn.

Each cell (degree, inner) records how many counts were right, wrong and
refused (by error type), and the median and maximum microseconds per count
(`estimate_negative_squares` on the built function, one call each). Its
`factor` entry records the same for the order of `krein_langer_factor`'s
Blaschke product, and how many answers have |s0| > 1 + CIRCLE_TOL on the
circle samples `unit_circle_samples(512)`.

The class note of `rigidity_check` is swept over interp solutions: for
each k = 1..8, parameter degree 1..16 and j < PER_CELL (2), a datum and an
admissible parameter are drawn as `bench/workloads.py` draws the interp
deck (`gen.boundary_datum`, then `gen.admissible_parameter`, inner on odd
degree), from `default_rng([7800, k, degree, j])`, and solved. Each verdict
cell, keyed by the solution's degree, records how many notes give a count
and how many a range (the Schur-Cohn matrix of the denominator has a
zero-band eigenvalue), how many agree with the disk-pole count of
`s.poles()` (equal, or inside the range), the disagreements, and the
median microseconds of the note (`rigidity._class_note`) and of the roots
(`s.den.roots()`, what `s.poles()` computes), each the best of 3 calls.

The result goes to BENCH_<short sha of HEAD>.json at the checkout root (or to
--out), with `dirty` set when the working tree differs from HEAD, so two
checkouts' files can be diffed cell by cell.
"""

import os

# The benchmark's BLAS setting: one thread. Must precede the numpy import.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path.cwd()
# Interp solutions per (k, parameter degree) verdict cell.
PER_CELL = 2


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def sweep_cell(sk, gen, d, inner, per_degree):
    """Counts, factor outcomes and timings of one (degree, inner) cell."""
    from schurkit.tolerances import CIRCLE_TOL

    right, wrong, refused, micros = 0, [], Counter(), []
    factor = {"right": 0, "wrong": [], "refused": Counter(), "above_circle": 0}
    circle = sk.unit_circle_samples(512)
    for i in range(int(not inner), per_degree, 2):
        kappa = i % 9
        num, den, _ = gen.generalized_schur(np.random.default_rng([7700, d, i]), kappa, d - kappa, inner=inner)
        f = sk.RationalFn(sk.Poly(num), sk.Poly(den), reduce=False)
        start = time.perf_counter()
        try:
            count = sk.estimate_negative_squares(f)
        except sk.SchurkitError as exc:
            count = type(exc).__name__
        micros.append(1e6 * (time.perf_counter() - start))
        if isinstance(count, str):
            refused[count] += 1
        elif count == kappa:
            right += 1
        else:
            wrong.append({"i": i, "kappa": kappa, "count": count})
        try:
            s0, b = sk.krein_langer_factor(f)
        except sk.SchurkitError as exc:
            factor["refused"][type(exc).__name__] += 1
            continue
        if b.order == kappa:
            factor["right"] += 1
        else:
            factor["wrong"].append({"i": i, "kappa": kappa, "order": b.order})
        factor["above_circle"] += int(np.max(np.abs(s0(circle))) > 1.0 + CIRCLE_TOL)
    return {
        "degree": d,
        "inner": inner,
        "functions": len(micros),
        "right": right,
        "wrong": len(wrong),
        "refused": dict(sorted(refused.items())),
        "median_us": round(statistics.median(micros), 1),
        "max_us": round(max(micros), 1),
        "wrong_counts": wrong,
        "factor": {
            "right": factor["right"],
            "wrong": len(factor["wrong"]),
            "refused": dict(sorted(factor["refused"].items())),
            "above_circle": factor["above_circle"],
            "wrong_orders": factor["wrong"],
        },
    }


def verdict_cells(sk, gen):
    """Class-note cells over interp solutions, keyed by solution degree."""
    from schurkit import rigidity

    def best_us(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(1e6 * (time.perf_counter() - start))
        return min(times)

    rows, refused = defaultdict(list), Counter()
    for k in range(1, 9):
        for degree in range(1, 17):
            for j in range(PER_CELL):
                rng = np.random.default_rng([7800, k, degree, j])
                z1, tau0, tau, z0 = gen.boundary_datum(rng, k)
                num, den = gen.admissible_parameter(rng, degree, z1, tau0, inner=degree % 2 == 1)
                try:
                    data = sk.InterpData(z1=z1, k=k, tau0=tau0, tau=tau, z0=z0)
                    cm = sk.coeff_matrix(data)
                    s1 = sk.RationalFn(sk.Poly(num), sk.Poly(den))
                    s = sk.solve(data, s1, theta=cm, verify=False)
                except sk.SchurkitError as exc:
                    refused[type(exc).__name__] += 1
                    continue
                low, band = rigidity._disk_poles(s)
                roots = int(np.count_nonzero(np.abs(s.poles()) < 1.0))
                rows[s.degree].append({
                    "k": k, "degree": degree, "j": j, "low": low, "band": band, "roots": roots,
                    "note_us": best_us(lambda: rigidity._class_note(s, cm._pick_inertia.n_neg)),
                    "roots_us": best_us(s.den.roots),
                })
    cells = []
    for d in sorted(rows):
        cell = rows[d]
        cells.append({
            "solution_degree": d,
            "solutions": len(cell),
            "counts": sum(r["band"] == 0 for r in cell),
            "ranges": sum(r["band"] > 0 for r in cell),
            "agree": sum(r["low"] <= r["roots"] <= r["low"] + r["band"] for r in cell),
            "disagree": [{n: r[n] for n in ("k", "degree", "j", "low", "band", "roots")}
                         for r in cell if not r["low"] <= r["roots"] <= r["low"] + r["band"]],
            "note_median_us": round(statistics.median(r["note_us"] for r in cell), 1),
            "roots_median_us": round(statistics.median(r["roots_us"] for r in cell), 1),
        })
    return cells, dict(sorted(refused.items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--degrees", type=int, nargs="+", default=[8, 16, 17, 24, 32, 48, 64])
    parser.add_argument("--per-degree", type=int, default=60)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    if not (ROOT / "src" / "schurkit" / "__init__.py").is_file():
        raise SystemExit(f"sweep: no schurkit sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    import schurkit as sk

    sha = git("rev-parse", "--short", "HEAD") or "unknown"
    cells = []
    for d in args.degrees:
        for inner in (True, False):
            cell = sweep_cell(sk, gen, d, inner, args.per_degree)
            cells.append(cell)
            refused = sum(cell["refused"].values())
            fac = cell["factor"]
            print(f"d={d:<3} inner={inner!s:<5} right={cell['right']:<3} wrong={cell['wrong']:<3} "
                  f"refused={refused:<3} median={cell['median_us']:.0f}us max={cell['max_us']:.0f}us "
                  f"factor right={fac['right']} wrong={fac['wrong']} refused={fac['refused']} "
                  f"above_circle={fac['above_circle']}",
                  file=sys.stderr)
    verdicts, refused = verdict_cells(sk, gen)
    for cell in verdicts:
        print(f"solution degree {cell['solution_degree']:<3} n={cell['solutions']:<3} "
              f"counts={cell['counts']:<3} ranges={cell['ranges']:<3} agree={cell['agree']:<3} "
              f"note={cell['note_median_us']:.0f}us roots={cell['roots_median_us']:.0f}us",
              file=sys.stderr)
    result = {
        "sha": sha,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no", "src", "bench")),
        "machine": {
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "sweep": "estimate_negative_squares on gen.generalized_schur, default_rng([7700, d, i]), "
                 "and krein_langer_factor on the same functions, kappa = i % 9, "
                 "inner on even i, reduce=False",
        "per_degree": args.per_degree,
        "cells": cells,
        "verdict_sweep": "rigidity class note on interp solutions: gen.boundary_datum and "
                         "gen.admissible_parameter (inner on odd degree) from "
                         "default_rng([7800, k, degree, j]), k = 1..8, degree 1..16",
        "per_cell": PER_CELL,
        "verdict_refused": refused,
        "verdict_cells": verdicts,
    }
    out = args.out or ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
