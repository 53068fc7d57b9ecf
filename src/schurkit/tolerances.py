"""Default numeric tolerances.

All comparisons in the package are tolerance-tagged; the constants below are
the package-wide defaults and every public operation that depends on one
accepts it as a keyword argument.
"""

# Relative cutoff for trailing polynomial coefficients (scaled by the largest
# coefficient magnitude of the polynomial being trimmed).
TRIM_REL = 1e-12

# Pole detection at a Taylor expansion point and vanishing of the Pick
# polynomial at the node.
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

# Degree cap for rational functions; root finding by companion matrix is
# reliable in double precision up to this size.
MAX_DEGREE = 64

# Interpolation order cap; the Pick matrix is inverted, so k is kept small.
MAX_CONTACT_ORDER = 8

# Condition number of the Pick matrix above which a warning is emitted.
PICK_COND_WARN = 1e8
