"""The public API's keyword parameters: thresholds are not among them.

Thresholds are constants of schurkit.tolerances. The only tolerance keywords
a public function takes are verify_expansion(order_tol) and
krein_langer_factor(circle_tol), which the CLI sets, plus the precision of
the two allclose methods; every parameter with a default is pinned here so a
deleted keyword cannot come back unnoticed. The public names (each module's
__all__ and its classes' public attributes) are pinned the same way, and
the benchmark's tracer, which re-binds some of them by name, must install.
"""

import importlib
import inspect
from pathlib import Path

import schurkit
from schurkit import interpolation, kernels, rational, rigidity

EXPECTED = {
    "rational.Poly.__init__": ["coeffs"],
    "rational.Poly.from_roots": ["leading"],
    "rational.Poly.allclose": ["tol"],
    "rational.RationalFn.__init__": ["den", "reduce"],
    "rational.RationalFn.allclose": ["tol"],
    "rational.BlaschkeProduct.__init__": ["zeros", "const"],
    "rational.krein_langer_factor": ["circle_tol"],
    "interpolation.InterpData.__init__": ["z0"],
    "interpolation.solve": ["theta", "verify"],
    "interpolation.verify_expansion": ["order_tol"],
    "interpolation.recover_parameter": ["theta"],
    "interpolation.solution_negative_squares": ["plan"],
    "kernels.SamplePlan.__init__": ["max_points", "radius", "seed", "initial_points"],
    "kernels.estimate_negative_squares": ["plan"],
    "rigidity.PathSpec.__init__": ["z1", "angle", "r0", "ratio", "count"],
}


def _public_callables(module):
    short = module.__name__.rsplit(".", 1)[-1]
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            yield f"{short}.{name}.__init__", obj.__init__
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{short}.{name}.{attr}", member
        elif callable(obj):
            yield f"{short}.{name}", obj


def test_defaulted_parameters_are_pinned():
    found = {}
    for module in (rational, interpolation, kernels, rigidity):
        for qualname, fn in _public_callables(module):
            params = inspect.signature(fn).parameters.values()
            defaulted = [p.name for p in params if p.default is not inspect.Parameter.empty]
            if defaulted:
                found[qualname] = defaulted
    assert found == EXPECTED


# Public names: each module's __all__ and each of its classes' public
# methods, properties, slots and dataclass fields.
PUBLIC = {
    "rational": [
        "BlaschkeProduct", "Mat2RF", "Poly", "RationalFn", "as_rational", "cayley", "cayley_fn",
        "krein_langer_factor", "unit_circle_samples", "vanishing_order",
    ],
    "interpolation": [
        "CoeffMatrix", "ExpansionReport", "InterpData", "J", "admissible_parameter",
        "binomial_matrix", "coeff_matrix", "denominator_closed_form", "mobius", "pick_matrix",
        "pick_polynomial", "recover_parameter", "renormalize", "solution_negative_squares",
        "solve", "toeplitz_matrix", "verify_expansion",
    ],
    "kernels": [
        "HermitianSample", "Inertia", "SamplePlan", "estimate_negative_squares", "gram_matrix",
        "hermitian_eigenvalues", "inertia", "schur_kernel",
    ],
    "rigidity": [
        "ContactReport", "EquivalenceReport", "PathSpec", "RigidityVerdict", "affine_equivalences",
        "affine_lft_bound", "cayley_decomposition", "contact_order_probe",
        "estimate_order_on_path", "horocycle_check", "julia_quotient", "nontangential_path",
        "quartic_perturbation", "rigidity_check", "schur_circle_check",
    ],
}
ATTRIBUTES = {
    "Poly": [
        "allclose", "coeffs", "constant", "degree", "from_roots", "is_zero", "one", "roots",
        "shifted", "x", "zero",
    ],
    "RationalFn": [
        "allclose", "constant", "constant_value", "degree", "den", "is_constant", "is_zero",
        "num", "poles", "taylor", "vanishing_order", "x",
    ],
    "BlaschkeProduct": ["as_rational", "const", "order", "zeros"],
    "Mat2RF": ["a", "apply", "b", "c", "d", "entries", "eval"],
    "InterpData": ["expected_coefficients", "k", "tau", "tau0", "z0", "z1"],
    "ExpansionReport": ["coefficients", "expected", "passed", "residuals", "tolerance"],
    "CoeffMatrix": ["apply", "data", "eval", "mat", "neutral", "pick", "poly", "theta"],
    "HermitianSample": ["asymmetry", "entries", "noise", "points"],
    "Inertia": ["n_neg", "n_pos", "n_zero"],
    "SamplePlan": ["initial_points", "max_points", "radius", "seed"],
    "PathSpec": ["angle", "count", "r0", "ratio", "stolz_constant", "z1"],
    "RigidityVerdict": ["forced_identity", "observed_order", "required_order", "residual_report"],
    "ContactReport": ["identical", "message", "order"],
    "EquivalenceReport": [
        "alpha", "consistent", "horocycle", "identity", "lft_bound", "parameter",
        "parameter_bound", "parameter_const", "witness",
    ],
}


def _public_attributes(cls):
    names = set(vars(cls)) | set(getattr(cls, "__dataclass_fields__", ()))
    return sorted(n for n in names if not n.startswith("_"))


def test_public_names_are_pinned():
    modules = (rational, interpolation, kernels, rigidity)
    found = {m.__name__.rsplit(".", 1)[-1]: sorted(m.__all__) for m in modules}
    classes = [getattr(m, n) for m in modules for n in m.__all__]
    attributes = {c.__name__: _public_attributes(c) for c in classes if inspect.isclass(c)}
    assert found == PUBLIC
    assert attributes == ATTRIBUTES
    # The package re-exports module names only (plus SchurkitError and INF).
    exported = {
        n for n, v in vars(schurkit).items() if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert exported - {n for m in modules for n in m.__all__} == {"INF", "SchurkitError"}


def test_benchmark_tracer_installs(monkeypatch):
    # bench/tracing.py patches Mat2RF.apply and eval and requires aliases such
    # as rigidity.inertia and cli.inertia; it raises if one of them is gone.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    apply, init = rational.Mat2RF.apply, rational.RationalFn.__init__
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert rational.Mat2RF.apply is not apply
    finally:
        tracer.uninstall()
    assert rational.Mat2RF.apply is apply and rational.RationalFn.__init__ is init
