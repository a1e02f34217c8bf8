import numpy as np
import pytest

import stateprep as sp
from stateprep.divide_conquer import DcOptions
from stateprep.errors import LambdaOutOfRange

from conftest import fidelity, oracle_statevector, random_unit, records_of, statevector


def test_n4_lambda2_matches_published_point():
    rng = np.random.default_rng(40)
    x = random_unit(rng, 16)
    c = sp.synthesize_hybrid(sp.build_tree(x), 2)
    m = sp.metrics(c)
    assert (m.qubits, m.depth_gates) == (11, 8)


def test_n4_lambda3_point():
    rng = np.random.default_rng(41)
    x = random_unit(rng, 16)
    m = sp.metrics(sp.synthesize_hybrid(sp.build_tree(x), 3))
    assert (m.qubits, m.depth_gates) == (7, 10)
    f = sp.hybrid_formulas(4, 3)
    assert (f.qubits, f.depth) == (7, 10)


def test_lambda_one_equals_dc():
    rng = np.random.default_rng(42)
    x = random_unit(rng, 16)
    tree = sp.build_tree(x)
    assert sp.synthesize_hybrid(tree, 1).ops == sp.synthesize_dc(tree).ops


def test_lambda_n_equals_time_encoding():
    rng = np.random.default_rng(43)
    for n in range(2, 7):
        x = random_unit(rng, 2**n)
        tree = sp.build_tree(x)
        h = sp.synthesize_hybrid(tree, n)
        t = sp.synthesize_time(tree)
        assert h.ops == t.ops, n
        assert sp.metrics(h) == sp.metrics(t)
        assert fidelity(statevector(h), x) == pytest.approx(1, abs=1e-12)
    # At n = 1 time encoding is the pruned one-wire circuit, so the two
    # special loading angles use the Hadamard/X spelling.
    for x, kind in (([1.0, 1.0], "h"), ([0.0, 1.0], "x")):
        x = np.asarray(x) / np.linalg.norm(x)
        t = sp.synthesize_time(sp.build_tree(x))
        assert [op.kind for op in records_of(t.ops)] == [kind]
        assert np.allclose(oracle_statevector(t), x, atol=1e-12)


def test_metrics_match_formulas_up_to_n6():
    rng = np.random.default_rng(44)
    for n in range(1, 7):
        x = random_unit(rng, 2**n)
        tree = sp.build_tree(x)
        for lam in range(1, n + 1):
            m = sp.metrics(sp.synthesize_hybrid(tree, lam))
            f = sp.hybrid_formulas(n, lam)
            assert (m.qubits, m.depth_gates) == (f.qubits, f.depth), (n, lam)


def test_monotone_tradeoff_n6():
    rng = np.random.default_rng(45)
    x = random_unit(rng, 64)
    tree = sp.build_tree(x)
    reports = [sp.metrics(sp.synthesize_hybrid(tree, lam)) for lam in range(1, 7)]
    qubits = [m.qubits for m in reports]
    depth = [m.depth_gates for m in reports]
    assert all(a >= b for a, b in zip(qubits, qubits[1:]))
    assert all(a <= b for a, b in zip(depth, depth[1:]))


def test_branch_determinism_all_lambdas():
    rng = np.random.default_rng(46)
    for n in (2, 3, 4):
        for lam in range(1, n + 1):
            for _ in range(3):
                x = random_unit(rng, 2**n)
                c = sp.synthesize_hybrid(sp.build_tree(x), lam)
                assert sp.verify_preparation(c, x).passed, (n, lam)


def test_prune_carries_into_sub_blocks(w_vector):
    c = sp.synthesize_hybrid(sp.build_tree(w_vector), 2, DcOptions(prune=True))
    assert sp.verify_preparation(c, w_vector).passed
    plain = sp.synthesize_hybrid(sp.build_tree(w_vector), 2)
    assert c.n_qubits <= plain.n_qubits


def test_lambda_out_of_range():
    rng = np.random.default_rng(47)
    tree = sp.build_tree(random_unit(rng, 8))
    with pytest.raises(LambdaOutOfRange):
        sp.synthesize_hybrid(tree, 0)
    with pytest.raises(LambdaOutOfRange):
        sp.synthesize_hybrid(tree, 4)
