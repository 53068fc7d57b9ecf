"""Spans around the library's public functions, recorded from outside it.

Each wrapper records (name, start, end, parent span, op id, note) in memory;
the notes carry the counts taken at the same boundary (Gram sizes, degree
drops, residual ratios). A span's self time is its duration minus the time
its child spans cover. Modules import each other's functions by name, so a
function is re-bound in every schurkit module that binds it, and methods are
patched on their class.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from schurkit import cli, interpolation, kernels, rational, rigidity

# (span name, module, attribute): module-level functions.
FUNCTIONS = [
    ("rational.krein_langer_factor", rational, "krein_langer_factor"),
    ("interpolation.pick_matrix", interpolation, "pick_matrix"),
    ("interpolation.pick_polynomial", interpolation, "pick_polynomial"),
    ("interpolation.coeff_matrix", interpolation, "coeff_matrix"),
    ("interpolation.solve", interpolation, "solve"),
    ("interpolation.verify_expansion", interpolation, "verify_expansion"),
    ("interpolation.recover_parameter", interpolation, "recover_parameter"),
    ("kernels.gram_matrix", kernels, "gram_matrix"),
    ("kernels.hermitian_eigenvalues", kernels, "hermitian_eigenvalues"),
    ("kernels.inertia", kernels, "inertia"),
    ("kernels.estimate_negative_squares", kernels, "estimate_negative_squares"),
    ("rigidity.rigidity_check", rigidity, "rigidity_check"),
    ("rigidity.affine_equivalences", rigidity, "affine_equivalences"),
    ("rigidity.horocycle_check", rigidity, "horocycle_check"),
    ("rigidity.julia_quotient", rigidity, "julia_quotient"),
    ("cli.main", cli, "main"),
    ("cli.parse", cli, "parse_problem"),
    ("cli.parse", cli, "parse_function"),
]

# (span name, class, method)
METHODS = [
    ("rational.mat2rf_apply", rational.Mat2RF, "apply"),
    ("rational.mat2rf_eval", rational.Mat2RF, "eval"),
    ("rational.taylor", rational.RationalFn, "taylor"),
    ("rational.roots", rational.Poly, "roots"),
]

# Aliases that patching only the defining module would miss; the tracer
# refuses to run unless each of them is wrapped.
REQUIRED_ALIASES = [
    (interpolation, "inertia"),
    (interpolation, "estimate_negative_squares"),
    (rigidity, "coeff_matrix"),
    (rigidity, "solve"),
    (rigidity, "recover_parameter"),
    (rigidity, "verify_expansion"),
    (rigidity, "inertia"),
    (cli, "inertia"),
    (cli, "estimate_negative_squares"),
    (cli, "krein_langer_factor"),
]


def _degree(x):
    if isinstance(x, rational.Poly):
        return x.degree
    return np.atleast_1d(np.asarray(x)).size - 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self._undo = []

    # -- recording -----------------------------------------------------

    def _enter(self):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        return idx, parent

    def _leave(self, idx, name, t0, parent, note):
        self.stack.pop()
        self.spans[idx] = (name, t0, perf_counter(), parent, self.op, note)

    def wrap(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = tracer._enter()
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._leave(idx, name, t0, parent, note(args, result) if note else None)

        traced.__wrapped_by_bench__ = True
        return traced

    def wrap_reduce(self, init):
        """RationalFn.__init__: a span only for reduce=True constructions,
        noting whether the reduction lowered the degree."""
        tracer = self

        @functools.wraps(init)
        def traced(obj, num, den=1.0, **kwargs):
            if not kwargs.get("reduce", True):
                return init(obj, num, den, **kwargs)
            before = max(_degree(num), _degree(den))
            idx, parent = tracer._enter()
            t0 = perf_counter()
            lowered = None
            try:
                init(obj, num, den, **kwargs)
                lowered = obj.degree < before
            finally:
                tracer._leave(idx, "rational.reduce", t0, parent, lowered)

        return traced

    # -- installing ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "schurkit" or n.startswith("schurkit.")]
        notes = {
            "kernels.gram_matrix": lambda a, r: None if r is None else r.entries.shape[0],
            "kernels.inertia": lambda a, r: not isinstance(a[0], kernels.HermitianSample),
            "interpolation.verify_expansion": lambda a, r: (
                None if r is None or not r.passed else float(np.max(r.residuals) / r.tolerance)
            ),
        }
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, notes.get(name))
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, alias, wrapper)
        for name, cls, attr in METHODS:
            self._set(cls, attr, self.wrap(name, getattr(cls, attr)))
        self._set(rational.RationalFn, "__init__", self.wrap_reduce(rational.RationalFn.__init__))
        missing = [
            f"{m.__name__}.{a}"
            for m, a in REQUIRED_ALIASES
            if not getattr(getattr(m, a), "__wrapped_by_bench__", False)
        ]
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracer did not bind: {', '.join(missing)}")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summarising ---------------------------------------------------

    def summary(self, n_ops):
        """Per-layer metrics over the recorded spans, per op where a count."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        notes = defaultdict(list)
        gram_by_parent = defaultdict(list)
        for idx, (name, t0, t1, parent, _, note) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[idx]
            calls[name] += 1
            if note is not None:
                notes[name].append(note)
            if name == "kernels.gram_matrix" and parent >= 0:
                gram_by_parent[parent].append(note or 0)
        estimator = [
            gram_by_parent[idx]
            for idx, span in enumerate(self.spans)
            if span[0] == "kernels.estimate_negative_squares"
        ]

        def per_op(x):
            return x / n_ops

        def ms(name):
            return per_op(self_s[name]) * 1e3

        def mean(values):
            return float(np.mean(values)) if values else 0.0

        residuals = [r for r in notes["interpolation.verify_expansion"] if r is not None]
        m = {
            "rational.reduce.calls": per_op(calls["rational.reduce"]),
            "rational.reduce.self_ms": ms("rational.reduce"),
            "rational.reduce.cancel_ratio": mean([float(x) for x in notes["rational.reduce"]]),
            "rational.mat2rf_apply.self_ms": ms("rational.mat2rf_apply"),
            "rational.taylor.self_ms": ms("rational.taylor"),
            "rational.mat2rf_eval.calls": per_op(calls["rational.mat2rf_eval"]),
            "rational.mat2rf_eval.self_ms": ms("rational.mat2rf_eval"),
            "rational.roots.self_ms": ms("rational.roots"),
            "rational.krein_langer_factor.self_ms": ms("rational.krein_langer_factor"),
            "interpolation.pick_matrix.self_ms": ms("interpolation.pick_matrix"),
            "interpolation.pick_polynomial.self_ms": ms("interpolation.pick_polynomial"),
            "interpolation.coeff_matrix.self_ms": ms("interpolation.coeff_matrix"),
            "interpolation.coeff_matrix.builds_per_op": per_op(calls["interpolation.coeff_matrix"]),
            "interpolation.solve.self_ms": ms("interpolation.solve"),
            "interpolation.verify_expansion.self_ms": ms("interpolation.verify_expansion"),
            "interpolation.recover_parameter.self_ms": ms("interpolation.recover_parameter"),
            "interpolation.expansion_residual_max": max(residuals, default=0.0),
            "kernels.gram_matrix.self_ms": ms("kernels.gram_matrix"),
            "kernels.gram_matrix.entries": per_op(sum(n * n for n in notes["kernels.gram_matrix"])),
            "kernels.hermitian_eigenvalues.self_ms": ms("kernels.hermitian_eigenvalues"),
            "kernels.inertia.calls": per_op(calls["kernels.inertia"]),
            "kernels.inertia.self_ms": ms("kernels.inertia"),
            "kernels.inertia.pick_calls_per_op": per_op(sum(notes["kernels.inertia"])),
            "kernels.estimate_negative_squares.rounds": mean([len(g) for g in estimator]),
            "kernels.estimate_negative_squares.points": mean([g[-1] for g in estimator if g]),
            "kernels.estimate_negative_squares.self_ms": ms("kernels.estimate_negative_squares"),
            "rigidity.rigidity_check.self_ms": ms("rigidity.rigidity_check"),
            "rigidity.affine_equivalences.self_ms": ms("rigidity.affine_equivalences"),
            "rigidity.horocycle_check.self_ms": ms("rigidity.horocycle_check"),
            "rigidity.julia_quotient.calls": per_op(calls["rigidity.julia_quotient"]),
            "cli.main.self_ms": ms("cli.main"),
            "cli.parse.self_ms": ms("cli.parse"),
        }
        shares = defaultdict(float)
        for name, value in self_s.items():
            shares[name.split(".")[0]] += value
        return m, dict(shares)
