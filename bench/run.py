"""schurkit benchmark: one seeded workload, timed, checked and reported.

    python3 bench/run.py --workload {interp,negsq,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src. Load is one caller in a closed loop on one core: the next op starts
only after the previous one returns. A run's ops are the decks of a fixed
number of cycles, each made from (seed, cycle), shuffled together, so the
seed alone fixes them. After one whole pass over these ops, passes go on
until `--seconds` have passed; the last pass may stop part way. An op's
latency is the median of its samples, and the latency metrics weigh every
distinct op once. `attempted` counts the distinct ops and `failed` those
that failed in any pass, so neither depends on how many passes fit in the
time. The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics` (end-to-end
metrics with --trace 0, per-layer metrics from a traced run with --trace 1).
"""

import os

# Benchmark settings, not program options: keep numpy's BLAS on one thread in
# this process and in every interpreter it starts, so the load stays on one
# core of the two available. Must precede the numpy import.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_RUNS = 7  # fresh interpreters per set-up measurement, after one warm-up
WARMUP_CYCLE = 2**31  # generator stream for warm-up inputs
ORDER_STREAM = 2**31 + 1  # generator stream for the order of a run's ops
# Cycles whose decks make up a run's distinct ops: one pass takes about
# 17 s on interp, 28 s on negsq and 15 s on cli on a 2-vCPU host.
CYCLES = {"interp": 3, "negsq": 4, "cli": 4}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def wall_of(code, runs):
    """Median wall seconds of `python -c code` in fresh interpreters."""
    cmd = [sys.executable, "-c", code]
    env = child_env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_ms(module, runs):
    """Median milliseconds of `import module` measured inside fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = child_env()
    values = []
    for _ in range(runs + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True, capture_output=True, text=True
        )
        values.append(float(out.stdout.strip()) * 1e3)
    return statistics.median(values[1:])


def beyond_p90(lat):
    if len(lat) < 2:
        return 0
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    return sum(1 for x in lat if x > p90)


def run_deck(deck, samples, failures, tracer=None, until=None):
    """Run every op once, or until perf_counter() passes `until`. Appends op
    i's latency to samples[i] and records its first problem, if it failed,
    as failures[i]. Checking an op's result is not timed."""
    for i, op in enumerate(deck):
        if until is not None and perf_counter() >= until:
            break
        if tracer is not None:
            tracer.op += 1
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed op; the loop goes on
            result = exc
        samples[i].append(perf_counter() - t0)
        if isinstance(result, Exception):
            problems = [f"{type(result).__name__}: {result}"]
        else:
            problems = op.check(result)
        if problems:
            failures.setdefault(i, problems[0])


def gate_failures(ops, failures):
    return [f"{ops[i].label}: {p}" for i, p in sorted(failures.items()) if ops[i].gate]


def run_passes(ops, seconds):
    """One whole pass over `ops`, then more until `seconds` have passed; the
    last pass may stop part way. Returns (samples per op, failures)."""
    t_start = perf_counter()
    samples, failures = [[] for _ in ops], {}
    run_deck(ops, samples, failures)
    while perf_counter() - t_start < seconds:
        run_deck(ops, samples, failures, until=t_start + seconds)
    return samples, failures


def deck_maker(workloads, args, workdir, in_process):
    """cycle -> (deck, warm-up ops) for the chosen workload and seed."""
    runner = workloads.CliRunner(child_env(), ROOT, in_process=in_process)

    def cli_deck(rng, cycle):
        # Each cycle's fixture files go to a directory of their own.
        fixtures = Path(workdir) / f"cycle-{cycle}"
        fixtures.mkdir(exist_ok=True)
        return workloads.cli_deck(rng, runner, fixtures)

    build = {
        "interp": lambda rng, cycle: workloads.interp_deck(rng),
        "negsq": workloads.negsq_deck,
        "cli": cli_deck,
    }[args.workload]
    return lambda cycle: build(np.random.default_rng([args.seed, cycle]), cycle)


def distinct_ops(make_deck, args):
    """The run's ops: the decks of cycles 0 .. CYCLES - 1, shuffled together
    so that a pass cut short leaves out no cycle in particular."""
    ops = [op for cycle in range(CYCLES[args.workload]) for op in make_deck(cycle)[0]]
    order = np.random.default_rng([args.seed, ORDER_STREAM]).permutation(len(ops))
    return [ops[i] for i in order]


def warm_up(make_deck):
    """Untimed ops from a cycle no timed run uses."""
    for op in make_deck(WARMUP_CYCLE)[1]:
        op.check(op.run())


def line(name, value, unit, note=""):
    print(f"  {name:<44} {value:>12.4f} {unit:<6} {note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("interp", "negsq", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "schurkit" / "__init__.py").is_file():
        fail(f"no schurkit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import schurkit

    if Path(schurkit.__file__).resolve().parent != (SRC / "schurkit").resolve():
        fail(f"imported schurkit from {schurkit.__file__}, not from {SRC}")
    # Known numerical warnings (e.g. ill-conditioned Pick matrices) are part
    # of the workload, not output.
    warnings.simplefilter("ignore")
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as workdir:
        setup_module = "schurkit.cli" if args.workload == "cli" else "schurkit"
        if args.trace:
            return traced(args, workloads, workdir)
        setup_s = wall_of(f"import {setup_module}", SETUP_RUNS)
        make_deck = deck_maker(workloads, args, workdir, in_process=False)
        ops = distinct_ops(make_deck, args)
        warm_up(make_deck)
        samples, failures = run_passes(ops, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(who).ru_maxrss / 1024.0

    n = sum(len(x) for x in samples)
    lat = [statistics.median(x) for x in samples]
    p50 = statistics.median(lat) * 1e3
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] * 1e3
    ops_per_s = len(lat) / sum(lat)
    metrics = {
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    n_failed = len(failures)
    print(f"workload {args.workload} seed {args.seed}: {n} ops, {n / len(ops):.2f} passes over {len(ops)} distinct ops")
    line("latency_p50_ms", p50, "ms", f"n={len(lat)} op medians of {n} samples")
    line("latency_p90_ms", p90, "ms", f"n={len(lat)} op medians, {beyond_p90(lat)} beyond")
    line("ops_per_s", ops_per_s, "1/s", "closed loop, 1 caller, checks excluded")
    line("fail_ratio", n_failed / len(ops), "", f"{n_failed}/{len(ops)} distinct ops")
    line("setup_s", setup_s, "s", f"median of {SETUP_RUNS} x `import {setup_module}`")
    line("peak_rss_mb", peak_mb, "MB")
    return emit(gate_failures(ops, failures), len(ops), n_failed, metrics)


def traced(args, workloads, workdir):
    """Per-layer run: the run's ops go through pairs of passes, one traced
    and one untraced; the gap between the two is the tracing overhead."""
    import tracing

    make_deck = deck_maker(workloads, args, workdir, in_process=True)
    ops = distinct_ops(make_deck, args)
    warm_up(make_deck)
    tracer = tracing.Tracer()
    lat, plain = [[] for _ in ops], [[] for _ in ops]
    failures = {}
    pairs = 0
    t_start = perf_counter()
    while pairs == 0 or perf_counter() - t_start < args.seconds:
        # Alternate which pass goes first, so drift in machine speed cancels.
        for with_trace in (True, False) if pairs % 2 == 0 else (False, True):
            if not with_trace:
                run_deck(ops, plain, failures)
                continue
            tracer.install()
            try:
                run_deck(ops, lat, failures, tracer)
            finally:
                tracer.uninstall()
        pairs += 1
    n = len(ops) * pairs
    gates = gate_failures(ops, failures)
    m, shares = tracer.summary(n)
    busy, busy_plain = (sum(map(sum, x)) for x in (lat, plain))
    overhead = 100.0 * (busy / busy_plain - 1.0)
    m["trace.overhead_pct"] = overhead
    m["cli.import_ms"] = import_ms("schurkit.cli", 5)
    m["cli.interpreter_start_ms"] = wall_of("pass", 5) * 1e3

    # The tracer must see the calls that only module aliases reach.
    if args.workload == "interp" and m["kernels.inertia.calls"] == 0:
        gates.append("tracer saw no kernels.inertia calls on interp")
    if args.workload == "cli" and m["interpolation.coeff_matrix.builds_per_op"] == 0:
        gates.append("tracer saw no coeff_matrix builds on cli")

    print(f"workload {args.workload} seed {args.seed} traced: {len(ops)} distinct ops, {pairs} pairs of passes")
    print(f"  tracing overhead {overhead:.1f}% ({busy:.2f} s traced vs {busy_plain:.2f} s untraced)")
    print("  self-time share by module:")
    for module, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    {module:<16} {100.0 * value / busy:6.1f}%")
    print(f"    {'(outside spans)':<16} {100.0 * (busy - sum(shares.values())) / busy:6.1f}%")
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    unit_of = {e["name"]: e["unit"] for e in per_layer}
    for name in unit_of:
        line(name, m[name], unit_of[name])
    return emit(gates, len(ops), len(failures), {k: (m[k], unit_of[k]) for k in unit_of})


def emit(gates, attempted, n_failed, metrics):
    for problem in gates[:20]:
        print(f"  GATE FAILED: {problem}")
    result = {
        "correct": not gates,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
