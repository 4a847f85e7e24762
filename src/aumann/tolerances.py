"""Every numerical tolerance used by the package, in one table.

Values are absolute unless noted. Only the matching tolerance and the ``tol``
of cone membership and of ``require_hermitian`` can be given per call.
"""

# Normalization: probability weights, density-operator traces, and GPT unit
# values must land within this distance of 1.
WEIGHT_SUM_TOL = 1e-9

# Eigenvalue floor for "positive semidefinite": eigenvalues below -PSD_EIG_TOL
# reject the matrix, values in [-PSD_EIG_TOL, 0) are treated as zero.
PSD_EIG_TOL = 1e-9

# Max |M - M^dagger| entry accepted before symmetrizing a near-Hermitian input.
HERMITIAN_TOL = 1e-12

# The same, for a matrix measured or re-expressed rather than stored: trace
# norms, quantum targets and their distances, Hermitian-basis coordinates.
HERMITIAN_LOOSE_TOL = 1e-9

# Eigenvalues at or below this count as zero when building pseudo-inverse
# square roots and support projectors.
SUPPORT_CUTOFF = 1e-12

# Default matching tolerance for posterior equality (classical), trace-norm
# state equality (quantum), and coordinate max-norm equality (GPT). Also the
# vacuity cutoff used by the verify_* operations.
MATCH_TOL = 1e-9

# A cell or event with mass at or below this is considered null: conditioning
# on it raises and its worlds are excluded from agreement-event matching.
NULL_MASS_TOL = 1e-12

# Polyhedral cone membership: a point belongs to the cone when the nonnegative
# least-squares (NNLS) fit by the generators leaves a residual norm at most
# this, that is, when its Euclidean distance to the cone is at most this.
CONE_FEAS_TOL = 1e-8

# A file's simplex or PSD unit must be this close to the canonical one in each
# entry, on top of np.allclose's default relative term (1e-5 of the entry).
CANONICAL_UNIT_TOL = 1e-12
