"""Sweep the negative-squares count over degree cells into BENCH_<sha>.json.

    python3 tools/sweep.py [--degrees 8 16 17 24 32 48 64] [--per-degree 60] [--out FILE]

Run from the root of a source checkout: the library is imported from ./src
and the inputs are built by ./bench/gen.py, which is only imported, never
changed. For each degree d, function i (i < --per-degree) is
`gen.generalized_schur` drawn from `default_rng([7700, d, i])` with
kappa = i % 9 disk poles, d - kappa zeros and |c| = 1 (inner) on even i, so
it has exactly kappa negative squares. It is built with `reduce=False` and
untrimmed coefficients, so the count sees the function as drawn.

Each cell (degree, inner) records how many counts were right, wrong and
refused (by error type), and the median and maximum microseconds per count
(`estimate_negative_squares` on the built function, one call each). The
result goes to BENCH_<short sha of HEAD>.json at the checkout root (or to
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
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path.cwd()


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def sweep_cell(sk, gen, d, inner, per_degree):
    """Counts and timings of one (degree, inner) cell."""
    right, wrong, refused, micros = 0, [], Counter(), []
    for i in range(int(not inner), per_degree, 2):
        kappa = i % 9
        num, den, _ = gen.generalized_schur(np.random.default_rng([7700, d, i]), kappa, d - kappa, inner=inner)
        f = sk.RationalFn(sk.Poly(num, trim=False), sk.Poly(den, trim=False), reduce=False)
        start = time.perf_counter()
        try:
            count = sk.estimate_negative_squares(f)
        except sk.SchurkitError as exc:
            micros.append(1e6 * (time.perf_counter() - start))
            refused[type(exc).__name__] += 1
            continue
        micros.append(1e6 * (time.perf_counter() - start))
        if count == kappa:
            right += 1
        else:
            wrong.append({"i": i, "kappa": kappa, "count": count})
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
    }


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
            print(f"d={d:<3} inner={inner!s:<5} right={cell['right']:<3} wrong={cell['wrong']:<3} "
                  f"refused={refused:<3} median={cell['median_us']:.0f}us max={cell['max_us']:.0f}us",
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
                 "kappa = i % 9, inner on even i, reduce=False, untrimmed",
        "per_degree": args.per_degree,
        "cells": cells,
    }
    out = args.out or ROOT / f"BENCH_{sha}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
