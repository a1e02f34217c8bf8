import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import stateprep as sp
from stateprep.divide_conquer import _plan_tree
from stateprep.time_encoding import rotation_ops
from stateprep.tolerances import ANGLE_TOL

from conftest import fidelity, oracle_statevector, random_unit, records_of, statevector


def test_dense_example_structure(dense_vector):
    c = sp.synthesize_time(sp.build_tree(dense_vector))
    assert len(c.ops) == 7
    m = sp.metrics(c)
    assert (m.qubits, m.depth_gates) == (3, 7)
    assert np.allclose(np.abs(statevector(c)), dense_vector, atol=1e-12)
    assert fidelity(statevector(c), dense_vector) == pytest.approx(1, abs=1e-12)


def test_single_qubit_is_plain_rotation():
    t = 0.8321
    c = sp.synthesize_time(sp.build_tree([np.cos(t / 2), np.sin(t / 2)]))
    assert len(c.ops) == 1
    assert records_of(c.ops)[0].kind == "roty"
    assert records_of(c.ops)[0].angle == pytest.approx(t, abs=1e-12)


def test_random_vectors_exact():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = random_unit(rng, 16)
        c = sp.synthesize_time(sp.build_tree(x))
        assert fidelity(statevector(c), x) == pytest.approx(1, abs=1e-12)


def test_matches_dense_matrix_oracle():
    rng = np.random.default_rng(13)
    x = random_unit(rng, 8)
    c = sp.synthesize_time(sp.build_tree(x))
    assert np.allclose(statevector(c), oracle_statevector(c), atol=1e-12)


def test_gate_count_bound_with_zero_angles():
    # A vector whose tree contains zero angles loses those gates.
    x = np.array([1.0, 0, 1.0, 0, 1.0, 0, 1.0, 0])
    x = x / np.linalg.norm(x)
    c = sp.synthesize_time(sp.build_tree(x))
    assert len(c.ops) < 7
    assert fidelity(statevector(c), x) == pytest.approx(1, abs=1e-12)


def test_controls_enumerate_prefixes():
    rng = np.random.default_rng(14)
    x = random_unit(rng, 8)
    c = sp.synthesize_time(sp.build_tree(x))
    level_counts = {}
    for op in records_of(c.ops):
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
                        for op, (k, p, angle) in zip(records_of(ops), want):
                            assert op.kind == ("roty" if k == 0 else "mcroty")
                            assert op.qubits == tuple(wires[: k + 1])
                            if k > 0:
                                assert op.polarities == tuple(
                                    (p >> (k - 1 - j)) & 1 for j in range(k)
                                )
                            assert type(op.angle) is float and op.angle == angle
                            checked += 1
    assert checked > 1000


def test_rotation_ops_on_wires_in_any_order():
    # The qubit column is indexed into ``wires`` in place.
    tree = sp.build_tree(random_unit(np.random.default_rng(3), 16))
    wires = [7, 2, 11, 0]
    ops = rotation_ops(tree, wires)
    assert [op.qubits for op in records_of(ops)] == [
        tuple(wires[:k + 1]) for k in range(4) for _ in range(2**k)]


def test_synthesis_holds_little_more_than_the_table():
    # ``rotation_ops`` builds its polarity and qubit columns in place, and
    # ``validate`` maps no entry to its op unless it is bad: at n=14 the
    # peak reads 1.34x the 4.0 MiB table returned, where temporaries as
    # long as its entry arrays, and per-entry owners, peaked at 2.0x.
    tree = sp.build_tree(random_unit(np.random.default_rng(14), 2**14))
    tracemalloc.start()
    try:
        c = sp.synthesize_time(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(getattr(c.ops, f.name).nbytes for f in fields(c.ops))
    assert peak <= 1.4 * size, (peak, size)
