"""Every numerical threshold that decides what is emitted or what ``verify`` accepts."""

# A norm at or below this is zero.  ``build_tree``: relative to the input's largest entry, a
# negative entry's size that is rounding, not sign; and a node's norm in the unit vector.
# ``_plan_tree``: a child's weight, relative to its parent, so ``prune`` drops that child.
ZERO_NORM_TOL = 1e-12
# ``states_equal``: siblings whose entries differ by at most this are one state to
# ``prune``.  Rows are products of unit weights; equal subtrees agree to about 1e-16.
STATE_EQ_TOL = 1e-12
# A y-rotation within this of 0 is the identity: not emitted by ``rotation_ops`` or as a
# measurement basis, nor as a single-wire load under ``prune``.  ``_loads`` emits a
# load within it of pi/2 or pi as ``h`` or ``x``.  Either costs an infidelity below 1e-24.
ANGLE_TOL = 1e-12
# ``compile_disentangler``: siblings are equal only at machine-level overlap deficit; a
# computational shortcut above it can distort rare outcomes' amplitude ratios on wide-range
# inputs.  Below a deficit ``d`` the +/- basis keeps about 1e-16/sqrt(d) of ``plus`` in
# ``minus``, more than ``ORTH_TOL`` allows near this edge, so ``minus`` is re-orthogonalized.
OVERLAP_EQUAL_TOL = 1e-12
# Stage states are products of unit weights: a larger norm error is no rounding.
UNIT_NORM_TOL = 1e-9
# ``OrthPair.from_states``: a normalized pair's overlap above this is not orthogonal.
# ``solve_ua``: a sum of same-index overlaps above it is ``TraceNotZero``.  Six decades above
# the rounding of a unit overlap.
ORTH_TOL = 1e-10
# Plan kernel (``discrimination``): rounding of unit-scale values, four decades up.  A
# residual norm below it is a dead outcome; vanishing overlaps or arctangent terms give
# theta 0, a vanishing phase term omega 0, and small imaginary parts a real basis.
DEGENERATE_TOL = 1e-12
# Residual overlap beyond cancellation noise: the input pair was not orthogonal.
DRIFT_TOL = 1e-5
# Imaginary parts below this are rounding noise: the plan kernel gives the pair real bases,
# and ``build_tree`` takes a complex input's real part.
REAL_TOL = 1e-12
# Probability a ``distinguish`` plan may misroute: rounding in its bases.
PLAN_MISS_TOL = 1e-10
# The walk holds ``2**DEFAULT_BRANCH_CAP`` rows at most unless given a cap, checked per split.
DEFAULT_BRANCH_CAP = 14
# A branch below this path probability is dropped: no verdict can see it.
BRANCH_PROB_TOL = 1e-14
# Passing fidelity shortfall: far above rounding, below a 1e-4 rad angle error.
FIDELITY_TOL = 1e-9
# Allowed |sum of probabilities - 1|: rounding plus mass pruned by BRANCH_PROB_TOL.
PROB_SUM_TOL = 1e-10
# ``simulator`` merges rows of a cluster whose phase-aligned distance min_phi |a - e^(i phi) b|
# is at most this.  Moving a unit state by d moves a fidelity F by about d * sqrt(2 (1 - F)),
# 1e-12 at the pass edge F = 1 - FIDELITY_TOL.  Rows of deterministic stages agree to about
# 5e-10.
MERGE_TOL = 1e-12 / (2.0 * FIDELITY_TOL) ** 0.5
# Merging moves a branch of probability w by sqrt(w) times the rows' distance, and a later
# outcome of probability p magnifies the move by 1/sqrt(p) once renormalized, so ``MERGE_TOL``
# alone bounds no verdict.  ``simulator`` refuses a merge that would move some branch by more
# than this in all.  A branch that the unmerged walk keeps has norm sqrt(BRANCH_PROB_TOL) or
# more, so its unit state moves by d = 2e / (sqrt(BRANCH_PROB_TOL) - e) = 4e-5 at most, just
# under sqrt(2 FIDELITY_TOL), the most that lets an exact state still pass.  The part of that
# state off the target, u = sqrt(1 - F^2), moves by d at most, entangled or not.  A verdict so
# stays decided unless 1 - F lies between 1.1e-11 and 3.6e-9, where ``verify_preparation``
# walks again without merging.  At 1e-12 the merged walk of the benchmark's hybrid n=6
# documents, whose stages leave rows up to 5e-10 apart, takes about 1.7 times as long.
MERGE_BOUND_TOL = 2e-12
