"""Numeric thresholds of the package.

Every threshold, margin and sample count the package decides with is a
constant here or a literal at its one use. No public operation takes a threshold as an argument
except `verify_expansion(order_tol)` and `krein_langer_factor(circle_tol)`,
which the CLI's `--tol-order` and `--tol-circle` set.
"""

# Relative cutoff for trailing polynomial coefficients (scaled by the largest
# coefficient magnitude of the polynomial being trimmed).
TRIM_REL = 1e-12

# Pole detection at a Taylor expansion point, and the Krein-Langer test
# whether a disk pole's reflection cancels against a zero of the numerator.
ROOT_TOL = 1e-8

# Unit-circle checks (unimodularity of data points, Blaschke modulus,
# J-unitarity residuals).
CIRCLE_TOL = 1e-9

# Taylor-coefficient comparisons and vanishing-order decisions.
ORDER_TOL = 1e-7

# Relative Hermitian-asymmetry bound for sampled Gram matrices and the
# structured Pick matrix.
HERM_TOL = 1e-8

# Threshold on |s1(z1) - tau0| below which a parameter is inadmissible.
ADMIS_TOL = 1e-6

# Distance from the unit circle below which a zero or pole counts as on it.
BOUNDARY_MARGIN = 1e-6

# Distance below 1 at which |s(z)| counts as reaching the circle, where the
# Julia quotient |s(z) - x|^2 / (1 - |s(z)|^2) is undefined.
MODULUS_MARGIN = 1e-12

# Number of unit-circle samples on which a supremum modulus is taken.
CIRCLE_SAMPLES = 512

# Kernel guards: least distance from an evaluation point to a pole, and the
# relative size below which 1 - z conj(w) counts as zero.
POLE_CLEARANCE = 1e-9
DIAG_TOL = 1e-12

# Degree cap for rational functions; root finding by companion matrix is
# reliable in double precision up to this size.
MAX_DEGREE = 64

# Interpolation order cap. A double-precision solution's Taylor coefficients
# at the node carry an error of about eps * R^(-2k), R the distance from z1
# to the nearest pole, so k is kept small.
MAX_CONTACT_ORDER = 8
