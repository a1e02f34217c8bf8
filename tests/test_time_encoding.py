import numpy as np
import pytest

import stateprep as sp
from stateprep.divide_conquer import _plan_tree
from stateprep.time_encoding import rotation_ops
from stateprep.tolerances import ANGLE_TOL

from conftest import oracle_statevector, random_unit


def test_dense_example_structure(dense_vector):
    c = sp.synthesize_time(sp.build_tree(dense_vector))
    assert len(c.ops) == 7
    m = sp.metrics(c)
    assert (m.qubits, m.depth_gates) == (3, 7)
    assert np.allclose(np.abs(sp.statevector(c)), dense_vector, atol=1e-12)
    assert sp.fidelity(sp.statevector(c), dense_vector) == pytest.approx(1, abs=1e-12)


def test_single_qubit_is_plain_rotation():
    t = 0.8321
    c = sp.synthesize_time(sp.build_tree([np.cos(t / 2), np.sin(t / 2)]))
    assert len(c.ops) == 1
    assert c.ops[0].kind == "roty"
    assert c.ops[0].angle == pytest.approx(t, abs=1e-12)


def test_random_vectors_exact():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = random_unit(rng, 16)
        c = sp.synthesize_time(sp.build_tree(x))
        assert sp.fidelity(sp.statevector(c), x) == pytest.approx(1, abs=1e-12)


def test_matches_dense_matrix_oracle():
    rng = np.random.default_rng(13)
    x = random_unit(rng, 8)
    c = sp.synthesize_time(sp.build_tree(x))
    assert np.allclose(sp.statevector(c), oracle_statevector(c), atol=1e-12)


def test_gate_count_bound_with_zero_angles():
    # A vector whose tree contains zero angles loses those gates.
    x = np.array([1.0, 0, 1.0, 0, 1.0, 0, 1.0, 0])
    x = x / np.linalg.norm(x)
    c = sp.synthesize_time(sp.build_tree(x))
    assert len(c.ops) < 7
    assert sp.fidelity(sp.statevector(c), x) == pytest.approx(1, abs=1e-12)


def test_controls_enumerate_prefixes():
    rng = np.random.default_rng(14)
    x = random_unit(rng, 8)
    c = sp.synthesize_time(sp.build_tree(x))
    level_counts = {}
    for op in c.ops:
        n_controls = 0 if op.kind == "roty" else len(op.qubits) - 1
        level_counts[n_controls] = level_counts.get(n_controls, 0) + 1
        if op.kind == "mcroty":
            assert op.qubits[-1] == n_controls
            assert op.qubits[:-1] == tuple(range(n_controls))
    assert level_counts == {0: 1, 1: 2, 2: 4}


def test_depth_equals_gate_count(dense_vector):
    rng = np.random.default_rng(15)
    for size in (4, 8, 16):
        x = random_unit(rng, size)
        c = sp.synthesize_time(sp.build_tree(x))
        assert sp.metrics(c).depth_gates == len(c.ops)


def test_rotation_ops_polarities_spell_positions():
    rng = np.random.default_rng(16)
    checked = 0
    for n in range(1, 7):
        w = np.zeros(2**n)
        w[[2**j for j in range(n)]] = 1.0
        sparse = np.where(rng.random(2**n) < 0.5, rng.random(2**n), 0.0)
        sparse[-1] += 0.1
        for x in (random_unit(rng, 2**n), w, sparse):
            tree = sp.build_tree(x / np.linalg.norm(x))
            for lam in range(2, n + 1):
                for prune in (False, True):
                    plan = _plan_tree(tree, n - lam, prune)
                    for f in plan.order[plan.order >= 2 ** (n - lam) - 1].tolist():
                        wires = list(range(plan.wire[f], plan.wire[f] + lam))
                        want = [
                            (k, p, tree.alpha[(f + 1) * 2**k - 1 + p])
                            for k in range(len(wires))
                            for p in range(2**k)
                            if abs(tree.alpha[(f + 1) * 2**k - 1 + p]) > ANGLE_TOL
                        ]
                        ops = rotation_ops(tree, wires, base_node=f)
                        assert len(ops) == len(want)
                        for op, (k, p, angle) in zip(ops, want):
                            assert op.kind == ("roty" if k == 0 else "mcroty")
                            assert op.qubits == tuple(wires[: k + 1])
                            if k > 0:
                                assert op.polarities == tuple(
                                    (p >> (k - 1 - j)) & 1 for j in range(k)
                                )
                            assert type(op.angle) is float and op.angle == angle
                            checked += 1
    assert checked > 1000
