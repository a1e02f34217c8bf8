"""Each tolerance of ``stateprep.tolerances`` decides at its edge: an input
that misses by half the tolerance is on one side, by twice it on the other.
``OVERLAP_EQUAL_TOL`` and ``ANGLE_TOL`` have their edges in
``test_divide_conquer.py``; ``ZERO_NORM_TOL``'s negative-entry edge is in
``test_tree.py``, and its node-norm edge is here.  So are the plan
kernel's ``DEGENERATE_TOL`` (a dead residual), ``DRIFT_TOL`` and
``REAL_TOL`` (a real node's angle), ``build_tree``'s use of ``REAL_TOL``,
``PROB_SUM_TOL`` and the others.  ``ORTH_TOL`` keeps a real plan's
misroutes near 1e-20, so ``PLAN_MISS_TOL``'s edge is reached by
substituting the probabilities that ``distinguish`` evaluates."""

import json

import numpy as np
import pytest

import stateprep as sp
from stateprep.circuit import Circuit
from stateprep.cli import main
from stateprep.discrimination import OrthPair, _inner_step, decompose, evaluate_plan
from stateprep.errors import NegativeAmplitude, NonUnitInput, NotOrthogonal
from stateprep.simulator import _merge_rows, _walk
from stateprep.tolerances import (
    BRANCH_PROB_TOL,
    DEGENERATE_TOL,
    DRIFT_TOL,
    FIDELITY_TOL,
    MERGE_BOUND_TOL,
    MERGE_TOL,
    ORTH_TOL,
    PLAN_MISS_TOL,
    PROB_SUM_TOL,
    REAL_TOL,
    STATE_EQ_TOL,
    UNIT_NORM_TOL,
    ZERO_NORM_TOL,
)
from stateprep.tree import states_equal

from conftest import Condition, hadamard, measure, pauli_z, records_of, reset, roty, table_of

EDGES = [(0.5, True), (2.0, False)]  # (multiple of the tolerance, inside it)


@pytest.mark.parametrize("scale, inside", EDGES)
def test_fidelity_tol(scale, inside):
    # roty(theta) leaves |0> with fidelity cos(theta/2) to the target |0>.
    theta = 2.0 * np.arccos(1.0 - scale * FIDELITY_TOL)
    circuit = Circuit(1, 0, table_of((roty(0, theta),)), (0,))
    assert sp.verify_preparation(circuit, [1.0, 0.0]).passed == inside


@pytest.mark.parametrize("scale, inside", EDGES)
def test_branch_prob_tol(scale, inside):
    # Outcome 1 of the measured wire has probability sin(theta/2)**2; a
    # branch below the tolerance is dropped.
    theta = 2.0 * np.arcsin(np.sqrt(scale * BRANCH_PROB_TOL))
    circuit = Circuit(2, 1, table_of((roty(1, theta), measure(1, 0))), (0,))
    outcomes = [b.outcomes for b in sp.run(circuit)]
    assert outcomes == ([(0,)] if inside else [(0,), (1,)])


@pytest.mark.parametrize("scale, inside", EDGES)
def test_unit_norm_tol(scale, inside):
    left = np.array([1.0 + scale * UNIT_NORM_TOL, 0.0])
    right = np.array([0.0, 1.0])
    if inside:
        ops = sp.compile_disentangler(left, right, [1], 0)
        assert [op.kind for op in records_of(ops)][-2:] == ["measure", "z"]
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
def test_degenerate_tol(scale, inside):
    # No same-index overlap: the first qubit is measured in the computational
    # basis.  Its outcome 1 leaves ``minus`` the residual w and ``plus`` one
    # of norm eps along u, orthogonal to w.  Within the tolerance that
    # residual is dead and completed from w at w's first zero, axis 2;
    # beyond it it is kept and normalized.
    eps = scale * DEGENERATE_TOL
    u, w = [0.0, 0.0, 0.6, 0.8], [0.6, 0.8, 0.0, 0.0]
    plus = np.array([[np.sqrt(1.0 - eps**2), 0.0, 0.0, 0.0] + [eps * x for x in u]], complex)
    angle, _, eta, nu = _inner_step(plus, np.array([[0.0] * 4 + w], complex))
    assert angle.tolist() == [0.0] and nu[1].tolist() == w
    assert np.allclose(eta[1], [0.0, 0.0, 1.0, 0.0] if inside else u, rtol=0, atol=1e-15)


@pytest.mark.parametrize("scale, inside", EDGES)
def test_drift_tol(scale, inside):
    # Outcome 0 of the first qubit leaves residuals of norm r whose unit
    # forms overlap by c.  Their same-index overlap r**2 c is below
    # DEGENERATE_TOL, so no basis change removes it: what is left past
    # DRIFT_TOL says the pair was not orthogonal.
    c, r = scale * DRIFT_TOL, 1e-4
    plus = [r, 0.0, np.sqrt(1.0 - r**2), 0.0]
    minus = [r * c, r * np.sqrt(1.0 - c**2), 0.0, np.sqrt(1.0 - r**2)]
    pair = OrthPair.from_states(plus, minus)
    if inside:
        assert decompose(pair).angles.tolist()[0] == 0.0
    else:
        with pytest.raises(NotOrthogonal, match="after basis change"):
            decompose(pair)


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
    rows = _walk(Circuit(2, 1, table_of(ops), (0,)), "enumerate", None, None, 14, True)[0]
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


@pytest.mark.parametrize("scale, inside", EDGES)
@pytest.mark.parametrize("m", [1, 2])
def test_real_tol_in_the_plan(scale, inside, m):
    # Within the tolerance the pair is real and every node stores its
    # y-rotation angle; beyond it every node's basis is complex and stores
    # NaN (padded to m = 2, the overlap the imaginary part leaves on the
    # first qubit is above DEGENERATE_TOL, so both outcomes keep it).
    plus = np.array([0.6, 0.8 + 1j * scale * REAL_TOL, 0.0, 0.0][: 2**m])
    minus = np.array([-0.8, 0.6, 0.0, 0.0][: 2**m])
    angles = decompose(OrthPair.from_states(plus, minus)).angles
    assert np.isfinite(angles).all() if inside else np.isnan(angles).all()


@pytest.mark.parametrize("scale, inside", EDGES)
def test_zero_norm_tol_of_a_node(scale, inside):
    # The right node of level 1 holds (0, eps) of the unit vector.  A norm
    # within the tolerance is zero, and the node reads as |0>; beyond it the
    # node's own state, |1>, is kept.
    eps = scale * ZERO_NORM_TOL
    tree = sp.build_tree([np.sqrt(1.0 - eps**2), 0.0, 0.0, eps])
    assert (tree.omega0[2], tree.omega1[2]) == ((1.0, 0.0) if inside else (0.0, 1.0))


@pytest.mark.parametrize("scale, inside", EDGES)
def test_prob_sum_tol(scale, inside):
    # Twelve measured coins leave 4,096 branches, which the last op's
    # condition keeps apart.  Each of five resets then sends p of every
    # branch to outcome 1, below BRANCH_PROB_TOL and so dropped: 5p in all
    # goes missing, and the data wire stays |0> on every branch.
    coins, p = range(2, 14), scale * PROB_SUM_TOL / 5.0
    assert p / 2**12 < BRANCH_PROB_TOL
    ops = [op for q in coins for op in (hadamard(q), measure(q, q - 2))]
    ops += [roty(1, 2.0 * np.arcsin(np.sqrt(p))), reset(1)] * 5
    ops.append(pauli_z(0, condition=Condition(tuple(range(12)), (0,))))
    rep = sp.verify_preparation(Circuit(14, 12, table_of(ops), (0,)), [1.0, 0.0])
    assert rep.sum_prob == pytest.approx(1.0 - 5.0 * p, abs=1e-13)
    assert (rep.min_fidelity, rep.passed) == (1.0, inside)


@pytest.mark.parametrize("scale, inside", EDGES)
def test_plan_miss_tol(scale, inside, tmp_path, monkeypatch, capsys):
    # The computational pair's plan routes each state to its label; the
    # substitute sends ``miss`` of each to the other label.
    miss = scale * PLAN_MISS_TOL

    def misrouting(plan, state):
        return [(path, label, abs(p - miss)) for path, label, p in evaluate_plan(plan, state)]

    monkeypatch.setattr("stateprep.cli.evaluate_plan", misrouting)
    files = [str(tmp_path / f"{name}.json") for name in ("plus", "minus")]
    for path, amplitudes in zip(files, ([1.0, 0.0], [0.0, 1.0])):
        with open(path, "w") as fh:
            json.dump({"amplitudes": amplitudes}, fh)
    assert main(["distinguish", *files]) == (0 if inside else 1)
    assert json.loads(capsys.readouterr().out)["p_correct_plus"] == 1.0 - miss
