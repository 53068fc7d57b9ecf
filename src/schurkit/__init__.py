"""Boundary interpolation for generalized Schur functions.

Construct and verify solutions of boundary interpolation problems at a
unimodular node, count negative squares of the associated reproducing
kernels, and run Burns-Krantz-type rigidity diagnostics on concrete rational
functions.
"""

from .errors import SchurkitError
from .interpolation import (
    CoeffMatrix,
    ExpansionReport,
    InterpData,
    admissible_parameter,
    binomial_matrix,
    coeff_matrix,
    denominator_closed_form,
    mobius,
    pick_matrix,
    pick_polynomial,
    recover_parameter,
    renormalize,
    solution_negative_squares,
    solve,
    toeplitz_matrix,
    verify_expansion,
)
from .kernels import (
    HermitianSample,
    Inertia,
    SamplePlan,
    estimate_negative_squares,
    gram_matrix,
    hermitian_eigenvalues,
    inertia,
    schur_kernel,
)
from .rational import (
    INF,
    BlaschkeProduct,
    Mat2RF,
    Poly,
    RationalFn,
    as_rational,
    cayley,
    cayley_fn,
    krein_langer_factor,
    unit_circle_samples,
    vanishing_order,
)
from .rigidity import (
    ContactReport,
    EquivalenceReport,
    PathSpec,
    RigidityVerdict,
    affine_equivalences,
    affine_lft_bound,
    cayley_decomposition,
    contact_order_probe,
    estimate_order_on_path,
    horocycle_check,
    julia_quotient,
    nontangential_path,
    quartic_perturbation,
    rigidity_check,
    schur_circle_check,
)

__version__ = "0.1.0"
