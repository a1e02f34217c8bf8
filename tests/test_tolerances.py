"""Each tolerance of ``stateprep.tolerances`` decides at its edge: an input
that misses by half the tolerance is on one side, by twice it on the other.
``OVERLAP_EQUAL_TOL`` and ``ANGLE_TOL`` have their edges in
``test_divide_conquer.py``; ``ZERO_NORM_TOL``'s negative-entry edge is in
``test_tree.py``."""

import numpy as np
import pytest

import stateprep as sp
from stateprep.circuit import Circuit, Condition, hadamard, measure, roty
from stateprep.discrimination import OrthPair
from stateprep.errors import NegativeAmplitude, NonUnitInput, NotOrthogonal
from stateprep.simulator import _merge_rows, _walk
from stateprep.tolerances import (
    BRANCH_PROB_TOL,
    FIDELITY_TOL,
    MERGE_BOUND_TOL,
    MERGE_TOL,
    ORTH_TOL,
    REAL_TOL,
    STATE_EQ_TOL,
    UNIT_NORM_TOL,
)
from stateprep.tree import states_equal

EDGES = [(0.5, True), (2.0, False)]  # (multiple of the tolerance, inside it)


@pytest.mark.parametrize("scale, inside", EDGES)
def test_fidelity_tol(scale, inside):
    # roty(theta) leaves |0> with fidelity cos(theta/2) to the target |0>.
    theta = 2.0 * np.arccos(1.0 - scale * FIDELITY_TOL)
    circuit = Circuit(1, 0, (roty(0, theta),), (0,))
    assert sp.verify_preparation(circuit, [1.0, 0.0]).passed == inside


@pytest.mark.parametrize("scale, inside", EDGES)
def test_branch_prob_tol(scale, inside):
    # Outcome 1 of the measured wire has probability sin(theta/2)**2; a
    # branch below the tolerance is dropped.
    theta = 2.0 * np.arcsin(np.sqrt(scale * BRANCH_PROB_TOL))
    circuit = Circuit(2, 1, (roty(1, theta), measure(1, 0)), (0,))
    outcomes = [b.outcomes for b in sp.run(circuit)]
    assert outcomes == ([(0,)] if inside else [(0,), (1,)])


@pytest.mark.parametrize("scale, inside", EDGES)
def test_unit_norm_tol(scale, inside):
    left = np.array([1.0 + scale * UNIT_NORM_TOL, 0.0])
    right = np.array([0.0, 1.0])
    if inside:
        ops = sp.compile_disentangler(left, right, [1], 0)
        assert [op.kind for op in ops][-2:] == ["measure", "z"]
    else:
        with pytest.raises(NonUnitInput):
            sp.compile_disentangler(left, right, [1], 0)


@pytest.mark.parametrize("scale, inside", EDGES)
def test_orth_tol(scale, inside):
    eps = scale * ORTH_TOL
    plus, minus = [1.0, 0.0], [eps, np.sqrt(1.0 - eps**2)]
    if inside:
        assert OrthPair.from_states(plus, minus).m == 1
    else:
        with pytest.raises(NotOrthogonal):
            OrthPair.from_states(plus, minus)


@pytest.mark.parametrize("scale, inside", EDGES)
def test_state_eq_tol(scale, inside):
    a = np.array([[0.6, 0.8, 0.0, 0.0]])
    b = a + [[0.0, 0.0, scale * STATE_EQ_TOL, 0.0]]
    assert states_equal(a, b).tolist() == [inside]


@pytest.mark.parametrize("scale, inside", EDGES)
def test_merge_tol(scale, inside):
    # Row 1 is row 0 turned by eps and multiplied by a global phase; their
    # phase-aligned distance is 2 sin(eps / 2).  Inside the tolerance the
    # lighter row merges into the heavier one.
    eps = 2.0 * np.arcsin(scale * MERGE_TOL / 2.0)
    rows = np.array([[1.0, 0.0], np.exp(0.7j) * np.array([np.cos(eps), np.sin(eps)])])
    into, dist = _merge_rows(rows, np.array([0.6, 0.4]), np.full(2, MERGE_TOL))
    assert into.tolist() == ([0, 0] if inside else [0, 1])
    assert dist[1] == (pytest.approx(scale * MERGE_TOL) if inside else 0.0)


@pytest.mark.parametrize("scale, inside", EDGES)
def test_merge_bound_tol(scale, inside):
    # A coin turns wire 0 by an angle whose rows lie d apart, d = 4 sin(angle / 4) / 2;
    # each row has probability 1/2, so merging moves a branch by sqrt(1/2) d.  Inside
    # the tolerance the two rows merge into one at the end of the walk.
    d = scale * MERGE_BOUND_TOL * np.sqrt(2.0)
    ops = (hadamard(1), measure(1, 0),
           roty(0, 4.0 * np.arcsin(d / 2.0), condition=Condition((0,), (1,))))
    rows = _walk(Circuit(2, 1, ops, (0,)), "enumerate", None, None, 14, True)[0]
    assert len(rows) == (1 if inside else 2)


@pytest.mark.parametrize("scale, inside", EDGES)
def test_real_tol(scale, inside):
    # Imaginary parts within the tolerance are rounding: the tree takes the real part.
    x = np.array([0.6, 0.8]) + 1j * scale * REAL_TOL
    if inside:
        assert sp.build_tree(x).alpha[0] == sp.build_tree(x.real).alpha[0]
    else:
        with pytest.raises(NegativeAmplitude):
            sp.build_tree(x)
