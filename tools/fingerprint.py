"""Fingerprint the library's answers on the benchmark's decks.

    python3 tools/fingerprint.py --seeds 1 2 3 --cycles 0 1 2 [--workloads interp negsq cli] [--per-op] [--failures]

Run from the root of a source checkout: the library is imported from ./src
and the decks from ./bench/workloads.py, which is only imported, never
changed. Every op of each deck (seed, cycle) is run once, in deck order, and
its full result goes into one SHA-256 per workload: coefficient bytes of
every rational function and array, every report field, and the type and
message of every exception. Numbers are hashed by value (float.hex), not by
Python type. A `cli` op runs `schurkit.cli.main` in this process on fixture
files written to a temporary directory; its exit code and stdout bytes are
hashed. Two checkouts whose digests agree gave bit-identical answers.

With --per-op, each op's own SHA-256 (over the same bytes) is printed too,
one line per op ahead of its workload's line, so the output of two checkouts
can be diffed op by op to find the ops whose answers moved.

With --failures, each op's own `check` also runs once on its result (an op
that raises fails with the exception, as in `bench/run.py`), and for each
seed the workload's failed/attempted ops are printed over the given cycles,
with the failed checks counted by stage (the text of a check before its
first colon) and the failed ops counted by kind (the op label without its
`key=value` words, except `k=` and `kappa=`). A last block sums the seeds:
failed/attempted ops, stages and kinds over all of them. With both flags, the
per-op line of a failed op ends with ` | failed: ` and its first failed check.
"""

import os

# The benchmark's BLAS setting, so both checkouts run the same kernels.
# Must precede the numpy import.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import numbers  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path.cwd()


def feed(h, value):
    """Add a canonical encoding of one result to the hash."""
    import schurkit as sk

    if isinstance(value, BaseException):
        h.update(f"E {type(value).__name__}: {value}\n".encode())
    elif isinstance(value, sk.RationalFn):
        h.update(b"R\n")
        feed(h, value.num)
        feed(h, value.den)
    elif isinstance(value, sk.Poly):
        feed(h, value.coeffs)
    elif isinstance(value, sk.BlaschkeProduct):
        h.update(b"B\n")
        feed(h, np.array(value.zeros, dtype=complex))
        feed(h, value.const)
    elif isinstance(value, np.ndarray):
        h.update(f"A {value.dtype} {value.shape}\n".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(f"D {type(value).__name__}\n".encode())
        for f in dataclasses.fields(value):
            h.update(f"{f.name}=".encode())
            feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        h.update(f"M {len(value)}\n".encode())
        for key, item in value.items():
            h.update(f"{key}=".encode())
            feed(h, item)
    elif isinstance(value, (list, tuple)):
        h.update(f"L {len(value)}\n".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, (bool, np.bool_)):
        h.update(f"b {bool(value)}\n".encode())
    elif isinstance(value, numbers.Integral):
        h.update(f"i {int(value)}\n".encode())
    elif isinstance(value, numbers.Complex):
        z = complex(value)
        h.update(f"c {z.real.hex()} {z.imag.hex()}\n".encode())
    elif isinstance(value, bytes):
        h.update(f"y {len(value)}\n".encode())
        h.update(value)
    elif value is None or isinstance(value, str):
        h.update(f"s {value!r}\n".encode())
    else:
        raise TypeError(f"no encoding for {type(value).__name__}")


def kind(label):
    """An op label without its values, but for the contact order k and the
    negative-squares index kappa."""
    words = label.split()
    return " ".join(w for w in words if "=" not in w or w.split("=")[0] in ("k", "kappa"))


def failure_lines(header, checked):
    """Report lines of (label, problems) pairs under `header`."""
    stages = Counter(p.split(":")[0] for _, problems in checked for p in problems)
    kinds = Counter(kind(label) for label, problems in checked if problems)
    failed = sum(1 for _, problems in checked if problems)
    lines = [f"{header} failed={failed}/{len(checked)}"]
    lines += [f"  stage {name}: {n}" for name, n in sorted(stages.items())]
    lines += [f"  kind {name}: {n}" for name, n in sorted(kinds.items())]
    return lines


def digest(workloads, workload, seeds, cycles, workdir, failures=False):
    """(number of ops, SHA-256 hex digest, per-op lines, failure lines) over
    the decks of seeds x cycles; `cli` fixture files go under `workdir`.
    Failure lines are made only when `failures` is set."""
    runner = workloads.CliRunner(None, ROOT, in_process=True)
    h = hashlib.sha256()
    per_op, report, every = [], [], []
    for seed in seeds:
        checked = []
        for cycle in cycles:
            rng = np.random.default_rng([seed, cycle])
            if workload == "interp":
                deck, _ = workloads.interp_deck(rng)
            elif workload == "negsq":
                deck, _ = workloads.negsq_deck(rng, cycle)
            else:
                fixtures = Path(workdir) / f"seed-{seed}-cycle-{cycle}"
                fixtures.mkdir(exist_ok=True)
                deck, _ = workloads.cli_deck(rng, runner, fixtures)
            for index, op in enumerate(deck):
                try:
                    result = op.run()
                except Exception as exc:  # noqa: BLE001 - an op's outcome
                    result = exc
                encoded = bytearray(f"op {op.label}\n".encode())
                feed(types.SimpleNamespace(update=encoded.extend), result)
                h.update(encoded)
                line = (
                    f"{workload} seed={seed} cycle={cycle} op={index} "
                    f"sha256={hashlib.sha256(encoded).hexdigest()} {op.label}"
                )
                if failures:
                    if isinstance(result, Exception):
                        problems = [f"{type(result).__name__}: {result}"]
                    else:
                        problems = op.check(result)
                    checked.append((op.label, problems))
                    if problems:
                        line += f" | failed: {problems[0]}"
                per_op.append(line)
        if failures:
            report += failure_lines(f"{workload} seed={seed}", checked)
            every += checked
    if failures:
        report += failure_lines(f"{workload} seeds={len(seeds)}", every)
    return len(per_op), h.hexdigest(), per_op, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--cycles", type=int, nargs="+", required=True)
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=("interp", "negsq", "cli"),
        default=["interp", "negsq", "cli"],
    )
    parser.add_argument("--per-op", action="store_true", help="also print one digest per op")
    parser.add_argument(
        "--failures", action="store_true", help="also check each op and count failures per seed"
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "schurkit" / "__init__.py").is_file():
        print(f"fingerprint: no schurkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    warnings.simplefilter("ignore")
    import workloads

    for workload in args.workloads:
        with tempfile.TemporaryDirectory() as workdir:
            n, hexdigest, per_op, report = digest(
                workloads, workload, args.seeds, args.cycles, workdir, args.failures
            )
        if args.per_op:
            print("\n".join(per_op))
        if report:
            print("\n".join(report))
        seeds = ",".join(map(str, args.seeds))
        cycles = ",".join(map(str, args.cycles))
        print(f"{workload} seeds={seeds} cycles={cycles} ops={n} sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
