"""The benchmark's workloads: seeded decks of operations and their checks.

Each workload builds one deck of ops per cycle from a generator seeded with
(seed, cycle), so every cycle of a run brings new inputs. An op's `run` makes
the library calls and is the only part that is timed; its `check` compares
the result with a reference the benchmark derives from how the input was
built, and returns the list of failed checks. Every stage of an op runs even
when an earlier one fails, wherever the API allows it, so a fix that turns
failures into passes does not read as a slowdown.

`gate` marks ops whose answers the seed commit is known to get right over
thousands of seeded draws. A failed gate op clears `correct` in the report;
every failed op, gated or not, counts in `failed`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import schurkit as sk
import schurkit.cli
from schurkit.errors import NotSchur

import gen

REFERENCE = Path(__file__).resolve().parent / "reference"
# Same entry point as the installed `schurkit` console script.
CLI_ENTRY = "import sys; from schurkit.cli import main; sys.exit(main())"


@dataclass
class Op:
    label: str
    gate: bool
    run: Callable[[], object]
    check: Callable[[object], list]


def attempt(fn, *args, **kwargs):
    """Call one library stage; an exception is the stage's outcome, so the
    op's later stages still run.

    The library documents typed SchurkitError failures; anything else it
    raises is a failure as well. An exception that escapes `run` fails the
    whole op.
    """
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - recorded as the op's failure
        return exc


def failed(value):
    return isinstance(value, Exception)


def why(stage, value):
    return f"{stage}: {type(value).__name__}: {value}"


def coeff_error(f, num, den):
    """Largest coefficient error of f against (num, den) with a monic
    denominator, relative to the reference's largest coefficient."""
    ref_num, ref_den = gen.monic(num, den)
    err, scale = 0.0, 1.0
    for mine, ref in ((f.num.coeffs, ref_num), (f.den.coeffs, ref_den)):
        n = max(mine.size, ref.size)
        a = np.zeros(n, complex)
        b = np.zeros(n, complex)
        a[: mine.size] = mine
        b[: ref.size] = ref
        err = max(err, float(np.max(np.abs(a - b), initial=0.0)))
        scale = max(scale, float(np.max(np.abs(ref), initial=0.0)))
    return err / scale


# ----------------------------------------------------------------------
# interp: boundary problems k = 1..8 and the fixed-derivative problem

INTERP_K = range(1, 9)
INTERP_DEGREES = range(0, 17)
ALPHA_OPS = 23  # one op in seven: 23 of 159
RECOVER_TOL = 1e-9  # criterion 5's coefficient bound, relative to the scale


def boundary_op(k, datum, degree, param):
    z1, tau0, tau, z0 = datum
    x = -tau0
    num, den = param

    def run():
        data = sk.InterpData(z1=z1, k=k, tau0=tau0, tau=tau, z0=z0)
        s1 = sk.RationalFn(sk.Poly(num), sk.Poly(den))
        cm = attempt(sk.coeff_matrix, data)
        if failed(cm):
            return {"coeff_matrix": cm}
        s = attempt(sk.solve, data, s1, theta=cm, verify=False)
        if failed(s):
            return {"solve": s}
        return {
            "expansion": attempt(sk.verify_expansion, s, data),
            "recovered": attempt(sk.recover_parameter, s, data, theta=cm),
            "verdict": attempt(sk.rigidity_check, data, x, s),
        }

    def check(out):
        bad = [why(stage, v) for stage, v in out.items() if failed(v)]
        if "expansion" not in out:
            return bad
        if not failed(out["expansion"]) and not out["expansion"].passed:
            bad.append("expansion: residuals above tolerance")
        rec = out["recovered"]
        if not failed(rec):
            err = coeff_error(rec, num, den)
            if err > RECOVER_TOL:
                bad.append(f"recovered parameter: relative coefficient error {err:.3g}")
        v = out["verdict"]
        if not failed(v):
            # s - T(x) = (s1 - x) (z - z1)^(2k) / (...): the identity is forced
            # exactly when s1 == x, else the contact order is 2k (s1(z1) != x).
            forced = degree == 0
            order = math.inf if forced else 2 * k
            if v.forced_identity != forced or v.observed_order != order:
                bad.append(
                    f"rigidity: forced={v.forced_identity} order={v.observed_order}, "
                    f"expected forced={forced} order={order}"
                )
        return bad

    # Not a gate op: even at k = 1 about 1 in 100 recoveries misses the bound
    # at the seed commit, since the node factor (z - z1)^2k is cancelled by
    # root matching.
    return Op(f"interp k={k} deg={degree}", False, run, check)


def alpha_op(alpha, quartic):
    def run():
        if not quartic:
            s = sk.RationalFn(sk.Poly([1.0 - alpha, alpha]), sk.Poly.one())
            return sk.affine_equivalences(s, alpha)
        # The demo's search: halve beta until the perturbation is Schur.
        beta = 1.0 / 20.0
        for _ in range(30):
            try:
                s = sk.quartic_perturbation(alpha, beta)
                break
            except NotSchur:
                beta *= 0.5
        else:
            raise NotSchur("no Schur quartic perturbation found")
        return sk.affine_equivalences(s, alpha)

    def check(rep):
        if quartic:
            ok = rep.consistent and not rep.identity and not rep.horocycle
            ok = ok and rep.witness is not None
        else:
            flags = (rep.identity, rep.parameter_const, rep.parameter_bound)
            ok = all(flags) and rep.lft_bound and rep.horocycle and rep.consistent
        return [] if ok else [f"equivalences: {rep}"]

    kind = "quartic" if quartic else "affine"
    return Op(f"interp alpha={alpha:.3f} {kind}", True, run, check)


def interp_deck(rng):
    deck = []
    for k in INTERP_K:
        for degree in INTERP_DEGREES:
            datum = gen.boundary_datum(rng, k)
            if degree == 0:
                param = (np.array([-datum[1]]), np.array([1.0 + 0j]))
            else:
                param = gen.admissible_parameter(
                    rng, degree, datum[0], datum[1], inner=degree % 2 == 1
                )
            deck.append(boundary_op(k, datum, degree, param))
    for i in range(ALPHA_OPS):
        deck.append(alpha_op(float(rng.uniform(0.1, 0.9)), quartic=i % 2 == 1))
    order = rng.permutation(len(deck))
    deck = [deck[i] for i in order]
    return deck, deck[:16]


# ----------------------------------------------------------------------
# negsq: negative squares and Krein-Langer factors of c B_zeros / B_poles

NEGSQ_KAPPA = range(0, 9)
NEGSQ_MAX_DEGREE = 16
# One-round plans (initial_points = max_points = n): (n, inner) per cycle.
SLICE = [(16, True), (16, False), (32, True), (32, False), (64, True), (64, False)]
SLICE += [(128, True)] * 3 + [(128, False)]
GATE_DEGREE = 4  # the test suite's generalized Schur functions stay this small


def negsq_op(num, den, kappa, plan):
    degree = max(len(num), len(den)) - 1
    plan_kw = {} if plan is None else {"initial_points": plan, "max_points": plan}

    def run():
        f = sk.RationalFn(sk.Poly(num), sk.Poly(den))
        estimate = attempt(sk.estimate_negative_squares, f, sk.SamplePlan(**plan_kw))
        return estimate, attempt(sk.krein_langer_factor, f)

    def check(out):
        estimate, factor = out
        bad = []
        if failed(estimate):
            bad.append(why("estimate_negative_squares", estimate))
        elif estimate != kappa:
            bad.append(f"estimate {estimate} != kappa {kappa}")
        if failed(factor):
            bad.append(why("krein_langer_factor", factor))
        elif factor[1].order != kappa:
            bad.append(f"Blaschke order {factor[1].order} != kappa {kappa}")
        return bad

    label = f"negsq kappa={kappa} deg={degree} plan={plan or 'default'}"
    gate = plan is None and degree <= GATE_DEGREE
    return Op(label, gate, run, check)


def negsq_deck(rng, cycle):
    """One default-plan op per (kappa, inner) and the one-round slice.

    Degrees follow a fixed schedule over (kappa, inner, cycle), so runs on
    different seeds see the same degree mix; high-degree non-inner functions
    sometimes take the estimator past 32 points, and their number would
    otherwise swing the run's total. The slice holds three n = 128 inner ops
    (~0.6 s each), so the 90th percentile falls inside that cluster rather
    than in the sparse gap above the default plans.
    """
    deck = []
    for kappa in NEGSQ_KAPPA:
        for inner in (True, False):
            n_zeros = (3 * cycle + 5 * kappa + 8 * inner) % (NEGSQ_MAX_DEGREE - kappa + 1)
            num, den, _ = gen.generalized_schur(rng, kappa, n_zeros, inner=inner)
            deck.append(negsq_op(num, den, kappa, None))
    warmup = [op for op in deck if op.gate][:4]
    for n, inner in SLICE:
        num, den, _ = gen.generalized_schur(rng, 4, 4, inner=inner)
        deck.append(negsq_op(num, den, 4, n))
    order = rng.permutation(len(deck))
    return [deck[i] for i in order], warmup


# ----------------------------------------------------------------------
# cli: one `schurkit` process per op, on fixture files made from the seed


class CliRunner:
    """Runs `schurkit <argv>` in a fresh interpreter, or in-process through
    schurkit.cli.main for the traced run; returns (exit code, stdout bytes)."""

    def __init__(self, env, cwd, in_process=False):
        self.env = env
        self.cwd = cwd
        self.in_process = in_process

    def __call__(self, argv):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = schurkit.cli.main(argv)
            return code, buf.getvalue().encode("utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            env=self.env,
            cwd=self.cwd,
            capture_output=True,
            check=False,
        )
        return proc.returncode, proc.stdout


def _pairs(values):
    return [[float(complex(v).real), float(complex(v).imag)] for v in values]


def _complex(pair):
    return complex(pair[0], pair[1])


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _report(code, out):
    """(exit code problems, parsed report) of a JSON command."""
    try:
        rep = json.loads(out)
    except ValueError:
        return [f"exit {code}, stdout is not JSON: {out[:200]!r}"], None
    bad = [] if code == 0 else [f"exit code {code}"]
    if rep.get("status") != "pass":
        bad.append(f"status {rep.get('status')}: {rep.get('error', '')}")
    return bad, rep


def cli_demo_op(runner, argv, reference):
    expected = (REFERENCE / reference).read_bytes()

    def check(out):
        code, stdout = out
        bad = [] if code == 0 else [f"exit code {code}"]
        if stdout != expected:
            bad.append(f"{' '.join(argv)}: output differs from {reference}")
        return bad

    return Op(f"cli {' '.join(argv)}", True, lambda: runner(argv), check)


def cli_solve_op(runner, workdir, k, datum, param):
    z1, tau0, tau, z0 = datum
    num, den = param
    problem = {
        "z1": _pairs([z1])[0],
        "k": k,
        "tau0": _pairs([tau0])[0],
        "tau": _pairs(tau),
        "z0": _pairs([z0])[0],
        "parameter": {"num": _pairs(num), "den": _pairs(den)},
    }
    path = _write(workdir / f"solve-k{k}.json", problem)
    pick = gen.pick_matrix(z1, tau0, tau)
    n_neg = int(np.sum(np.linalg.eigvalsh(0.5 * (pick + pick.conj().T)) < 0))
    argv = ["solve", path]

    def check(out):
        bad, rep = _report(*out)
        if rep is None:
            return bad
        got = np.array([[_complex(v) for v in row] for row in rep.get("P", [])])
        if got.shape != pick.shape or np.max(np.abs(got - pick)) > 1e-9 * np.max(np.abs(pick)):
            bad.append("Pick matrix differs from conj(tau0) T B")
        # The parameter is inner with no disk poles, so sq_-(s) = ev_-(P).
        counts = rep.get("negative_squares", {})
        if counts != {"predicted": n_neg, "observed": n_neg}:
            bad.append(f"negative squares {counts}, expected {n_neg}")
        return bad

    # k >= 2 is outside the gate: the seed commit fails about 1 in 200 such
    # solves (spurious negative squares in the solution, or a failed expansion).
    return Op(f"cli solve k={k}", k == 1, lambda: runner(argv), check)


def cli_function_ops(runner, workdir, idx, num, den, poles):
    kappa = len(poles)
    path = _write(workdir / f"function-{idx}.json", {"num": _pairs(num), "den": _pairs(den)})

    def check_negsq(out):
        bad, rep = _report(*out)
        if rep is None:
            return bad
        got = (rep.get("estimated_negative_squares"), rep["krein_langer"].get("blaschke_order"))
        if got != (kappa, kappa):
            bad.append(f"negsq (estimate, Blaschke order) {got}, expected {kappa}")
        return bad

    def check_factor(out):
        bad, rep = _report(*out)
        if rep is None:
            return bad
        zeros = [_complex(v) for v in rep["blaschke"]["zeros"]]
        if rep["blaschke"]["order"] != kappa or len(zeros) != kappa:
            bad.append(f"factor order {rep['blaschke']['order']}, expected {kappa}")
        elif any(min(abs(z - p) for z in zeros) > 1e-8 * (1 + abs(p)) for p in poles):
            bad.append("Blaschke zeros differ from the function's disk poles")
        return bad

    negsq = ["negsq", path]
    factor = ["factor", path]
    return [
        Op(f"cli negsq kappa={kappa}", True, lambda: runner(negsq), check_negsq),
        Op(f"cli factor kappa={kappa}", True, lambda: runner(factor), check_factor),
    ]


def cli_rigidity_op(runner, workdir, name, problem, candidate, expect):
    """`rigidity --contact x --candidate`; expect = (forced, order, identity)
    where identity is the expected affine-equivalence verdict or None."""
    forced, order, identity = expect
    x = -_complex(problem["tau0"])
    ppath = _write(workdir / f"rigidity-{name}.json", problem)
    cpath = _write(workdir / f"candidate-{name}.json", candidate)
    # Fixed-point text: argparse would read "-1e-05" as an option.
    contact = [f"{x.real:.17f}", f"{x.imag:.17f}"]
    argv = ["rigidity", ppath, "--contact", *contact, "--candidate", cpath]

    def check(out):
        bad, rep = _report(*out)
        if rep is None:
            return bad
        got = (rep.get("forced_identity"), rep.get("observed_order"))
        if got != (forced, order):
            bad.append(f"rigidity (forced, order) {got}, expected {(forced, order)}")
        eq = rep.get("equivalences")
        if identity is not None and not (eq and eq["consistent"] and eq["identity"] == identity):
            bad.append(f"equivalences {eq}, expected identity={identity}")
        return bad

    return Op(f"cli rigidity {name}", True, lambda: runner(argv), check)


def cli_deck(rng, runner, workdir):
    workdir = Path(workdir)
    deck = [
        cli_demo_op(runner, ["demo", "burns-krantz"], "demo-burns-krantz.json"),
        cli_demo_op(runner, ["demo", "inverse"], "demo-inverse.json"),
        cli_demo_op(runner, ["demo", "alpha", "--alpha", "0.5"], "demo-alpha-0.5.json"),
    ]
    for k in (1, 2, 3):
        datum = gen.boundary_datum(rng, k, min_ratio=0.3, max_cond=1e6)
        degree = int(rng.integers(1, 3))
        param = gen.admissible_parameter(rng, degree, datum[0], datum[1], inner=True)
        deck.append(cli_solve_op(runner, workdir, k, datum, param))
    for idx, kappa in enumerate((1, 2)):
        n_zeros = int(rng.integers(0, 2))
        num, den, poles = gen.generalized_schur(rng, kappa, n_zeros, inner=idx == 0)
        deck.extend(cli_function_ops(runner, workdir, idx, num, den, poles))
    # Rotated Burns-Krantz example: s(z) = tau0 conj(z1) z is T(-tau0) itself.
    z1, tau0 = gen.unimodular(rng), gen.unimodular(rng)
    slope = tau0 * np.conj(z1)
    problem = {"z1": _pairs([z1])[0], "k": 1, "tau0": _pairs([tau0])[0], "tau": _pairs([slope])}
    candidate = {"num": _pairs([0.0, slope]), "den": _pairs([1.0])}
    deck.append(cli_rigidity_op(runner, workdir, "rotated", problem, candidate, (True, "inf", None)))
    # Fixed-derivative problem: the affine map is T(1 - 2 alpha), not T(-1),
    # so contact with T(-1) has order 2k = 2 and all equivalences hold.
    alpha = float(rng.uniform(0.1, 0.9))
    problem = {"z1": [1.0, 0.0], "k": 1, "tau0": [1.0, 0.0], "tau": [[alpha, 0.0]]}
    candidate = {"num": [[1.0 - alpha, 0.0], [alpha, 0.0]], "den": [[1.0, 0.0]]}
    deck.append(cli_rigidity_op(runner, workdir, "affine", problem, candidate, (False, 2.0, True)))
    # Warm up on a demo, the k = 1 solve and the first negsq.
    return deck, [deck[0], deck[3], deck[6]]


