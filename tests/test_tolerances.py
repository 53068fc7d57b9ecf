"""The public API's keyword parameters: thresholds are not among them.

Thresholds are constants of schurkit.tolerances. The only tolerance keywords
a public function takes are verify_expansion(order_tol) and
krein_langer_factor(circle_tol), which the CLI sets, plus the precision of
the two allclose methods; every parameter with a default is pinned here so a
deleted keyword cannot come back unnoticed.
"""

import inspect

from schurkit import interpolation, kernels, rational, rigidity

EXPECTED = {
    "rational.Poly.__init__": ["coeffs", "trim"],
    "rational.Poly.from_roots": ["leading"],
    "rational.Poly.allclose": ["tol"],
    "rational.RationalFn.__init__": ["den", "reduce"],
    "rational.RationalFn.allclose": ["tol"],
    "rational.BlaschkeProduct.__init__": ["zeros", "const"],
    "rational.krein_langer_factor": ["circle_tol"],
    "rational.unit_circle_samples": ["offset"],
    "interpolation.InterpData.__init__": ["z0"],
    "interpolation.pick_polynomial": ["pick"],
    "interpolation.solve": ["theta", "verify"],
    "interpolation.verify_expansion": ["order_tol"],
    "interpolation.recover_parameter": ["theta"],
    "interpolation.denominator_closed_form": ["theta"],
    "interpolation.solution_negative_squares": ["plan"],
    "kernels.HermitianSample.__init__": ["noise"],
    "kernels.SamplePlan.__init__": [
        "max_points",
        "radius",
        "pole_clearance",
        "seed",
        "stabilization_rounds",
        "initial_points",
    ],
    "kernels.schur_kernel": ["pole_clearance"],
    "kernels.estimate_negative_squares": ["plan"],
    "rigidity.PathSpec.__init__": ["z1", "angle", "r0", "ratio", "count"],
    "rigidity.contact_order_probe": ["path"],
    "rigidity.polar_grid": ["n_radii", "n_angles", "r_max"],
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
