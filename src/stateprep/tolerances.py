"""Every numerical threshold that decides what is emitted or what ``verify`` accepts."""

# A norm at or below this is zero.  ``build_tree``: absolute, for the input's norm and most
# negative entry and a node's norm in the unit vector.  ``_plan_tree``: a child's weight,
# relative to its parent, so ``prune`` drops that child.
ZERO_NORM_TOL = 1e-12
# ``states_equal``: siblings whose entries differ by at most this are one state to
# ``prune``.  Rows are products of unit weights; equal subtrees agree to about 1e-16.
STATE_EQ_TOL = 1e-12
# A y-rotation within this of 0 is the identity: not emitted by ``rotation_ops`` or as a
# measurement basis, nor as a single-wire load under ``prune``.  ``_loading_gate`` emits a
# load within it of pi/2 or pi as ``h`` or ``x``.  Either costs an infidelity below 1e-24.
ANGLE_TOL = 1e-12
# ``compile_disentangler``: siblings are equal only at machine-level overlap deficit; a
# computational shortcut above it can distort rare outcomes' amplitude ratios on wide-range
# inputs.  Below a deficit ``d`` the +/- basis keeps about 1e-16/sqrt(d) of ``plus`` in
# ``minus``, more than ``ORTH_TOL`` allows near this edge, so ``minus`` is re-orthogonalized.
OVERLAP_EQUAL_TOL = 1e-12
# Stage states are products of unit weights: a larger norm error is no rounding.
UNIT_NORM_TOL = 1e-9
# ``OrthPair.from_states``: a normalized pair's overlap above this is not orthogonal, and a
# norm below it is zero.  ``solve_ua``: a sum of same-index overlaps above it is
# ``TraceNotZero``.  Six decades above the rounding of a unit overlap.
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
# A branch below this path probability is dropped: no verdict can see it.
BRANCH_PROB_TOL = 1e-14
# A residual column below this squared norm (amplitudes 1e-12) is rounding.
EMPTY_COLUMN_TOL = 1e-24
# Passing fidelity shortfall: far above rounding, below a 1e-4 rad angle error.
FIDELITY_TOL = 1e-9
# Allowed |sum of probabilities - 1|: rounding plus mass pruned by BRANCH_PROB_TOL.
PROB_SUM_TOL = 1e-10
