from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import stateprep as sp
from stateprep.circuit import Circuit, Condition, cswap, hadamard, measure, pauli_x, pauli_z, reset, roty, rotz, mcroty
from stateprep.errors import DimensionMismatch, TooManyBranches
from stateprep.simulator import data_probabilities, statevector

from conftest import oracle_branches, oracle_statevector, random_unit


class TestGateApplication:
    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(17)
        ops = (
            hadamard(0),
            roty(1, 0.83),
            rotz(2, -1.1),
            pauli_x(3),
            cswap(0, 1, 3),
            mcroty(0.6, [(0, 1), (1, 0)], 2),
            pauli_z(1),
            cswap(2, 0, 3),
        )
        c = Circuit(4, 0, ops, tuple(range(4))).validate()
        assert np.allclose(statevector(c), oracle_statevector(c), atol=1e-12)

    def test_norm_preserved_per_gate(self):
        rng = np.random.default_rng(4)
        ops = [roty(i % 3, float(rng.normal())) for i in range(10)]
        ops += [cswap(0, 1, 2), hadamard(1), rotz(2, 0.4)]
        c = Circuit(3, 0, tuple(ops), (0, 1, 2)).validate()
        assert np.linalg.norm(statevector(c)) == pytest.approx(1, abs=1e-12)


class TestEnumerate:
    def test_single_wire_half_half(self):
        c = Circuit(1, 1, (roty(0, np.pi / 2), measure(0, 0)), (0,)).validate()
        branches = sp.run(c)
        assert [b.outcomes for b in branches] == [(0,), (1,)]
        assert all(b.probability == pytest.approx(0.5, abs=1e-12) for b in branches)

    def test_lexicographic_order(self):
        ops = (hadamard(0), hadamard(1), measure(0, 0), measure(1, 1))
        c = Circuit(2, 2, ops, (0,)).validate()
        branches = sp.run(c)
        assert [b.outcomes for b in branches] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_w_state_branches(self, w_vector):
        c = sp.synthesize_dc(sp.build_tree(w_vector), sp.DcOptions(prune=True))
        branches = sp.run(c)
        # First measurement of the circuit and first final-stage ancilla
        # are both unbiased coin flips.
        for bit in (0, c.stage_reports[-1].clbits[0]):
            p0 = sum(b.probability for b in branches if b.outcomes[bit] == 0)
            assert p0 == pytest.approx(0.5, abs=1e-10)
        for b in branches:
            assert sp.fidelity(b.data_state, w_vector) == pytest.approx(1, abs=1e-9)

    def test_dense_example_sixteen_branches(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        branches = sp.run(c)
        assert len(branches) == 16
        assert sum(b.probability for b in branches) == pytest.approx(1, abs=1e-10)
        for b in branches:
            assert sp.fidelity(b.data_state, dense_vector) >= 1 - 1e-9

    def test_zero_probability_branches_pruned(self):
        ops = (pauli_x(0), measure(0, 0))
        c = Circuit(1, 1, ops, (0,)).validate()
        branches = sp.run(c)
        assert [b.outcomes for b in branches] == [(1,)]

    def test_conditions_respected(self):
        # Flip wire 1 only when the measured bit is 1: wire 0 starts in
        # |+>, so one branch fires the flip and the other does not.
        ops = (
            hadamard(0),
            measure(0, 0),
            pauli_x(1, condition=Condition((0,), (1,))),
        )
        c = Circuit(2, 1, ops, (1,)).validate()
        unfired, fired = sp.run(c)
        assert (unfired.outcomes, fired.outcomes) == ((0,), (1,))
        assert np.allclose(unfired.data_state, [1, 0])
        assert np.allclose(fired.data_state, [0, 1])

    def test_branch_cap(self):
        ops = tuple(hadamard(i) for i in range(3)) + tuple(measure(i, i) for i in range(3))
        c = Circuit(3, 3, ops, (0,)).validate()
        with pytest.raises(TooManyBranches):
            sp.run(c, branch_cap=2)

    def test_branches_match_projector_oracle(self, dense_vector, w_vector):
        for vec, prune in ((dense_vector, False), (w_vector, True)):
            c = sp.synthesize_dc(sp.build_tree(vec), sp.DcOptions(prune=prune))
            got = sp.run(c)
            expected = oracle_branches(c)
            assert len(got) == len(expected)
            for b, (outcomes, prob, data) in zip(got, expected):
                assert b.outcomes == outcomes
                assert b.probability == pytest.approx(prob, abs=1e-12)
                assert np.allclose(b.data_state, data, atol=1e-10)

    def test_long_circuit_needs_no_recursion(self):
        # Each reset of a wire in |0> has one outcome, so the walk goes
        # 1,201 measurement points deep without branching.
        ops = (reset(0),) * 1200 + (measure(0, 0),)
        c = Circuit(1, 1, ops, (0,))
        for kwargs in ({}, {"mode": "sample", "shots": 64, "seed": 0}):
            [branch] = sp.run(c, **kwargs)
            assert branch.outcomes == (0,) * 1201
            assert branch.probability == 1.0

    def test_reset_collapses_to_zero(self):
        ops = (hadamard(0), reset(0), measure(0, 0))
        c = Circuit(1, 1, ops, (0,)).validate()
        branches = sp.run(c)
        # Two reset outcomes, both leaving the wire in |0>.
        assert len(branches) == 2
        for b in branches:
            assert b.outcomes[-1] == 0
            assert b.probability == pytest.approx(0.5, abs=1e-12)


class TestConditions:
    def test_out_of_order_bits_match_oracle(self):
        # Clbits are written out of wire order, and each condition reads
        # non-adjacent bits with the higher clbit as the more significant.
        ops = (
            hadamard(0),
            roty(1, 1.1),
            roty(2, 0.7),
            roty(3, 0.4),
            roty(4, 1.3),
            hadamard(5),
            cswap(0, 3, 4),
            mcroty(0.9, [(1, 1)], 5),
            mcroty(-0.6, [(2, 0), (0, 1)], 3),
            measure(2, 0),
            measure(0, 2),
            measure(1, 1),
            roty(3, 0.9, condition=Condition((2, 0), (1, 2))),
            replace(cswap(3, 4, 5), condition=Condition((2, 0), (0, 3))),
            replace(mcroty(0.8, [(3, 0), (5, 1)], 4), condition=Condition((2, 1, 0), (1, 4, 6))),
            rotz(5, 0.5, condition=Condition((1, 2), (1,))),
            pauli_x(4, condition=Condition((2, 0), (2,))),
        )
        c = Circuit(6, 3, ops, (3, 4, 5))
        got = sp.run(c)
        expected = oracle_branches(c)
        assert len(got) == len(expected) == 8
        for b, (outcomes, prob, data) in zip(got, expected):
            assert b.outcomes == outcomes
            assert b.probability == pytest.approx(prob, abs=1e-12)
            assert np.allclose(b.data_state, data, atol=1e-10)
        sampled = sp.run(c, mode="sample", shots=20_000, seed=3)
        assert [b.outcomes for b in sampled] == [b.outcomes for b in got]
        for s_branch, e_branch in zip(sampled, got):
            assert np.array_equal(s_branch.data_state, e_branch.data_state)


class TestSample:
    def test_deterministic_given_seed(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        a = sp.run(c, mode="sample", shots=200, seed=11)
        b = sp.run(c, mode="sample", shots=200, seed=11)
        assert [x.outcomes for x in a] == [x.outcomes for x in b]
        assert [x.probability for x in a] == [x.probability for x in b]

    def test_frequencies_match_enumeration_chi2(self):
        # Balanced branch probabilities so every cell has a large
        # expected count at 1e5 shots.
        ops = (
            roty(0, 1.0),
            roty(1, 2.0),
            roty(2, 0.7),
            measure(0, 0),
            measure(1, 1),
            measure(2, 2),
        )
        c = Circuit(3, 3, ops, (0, 1, 2)).validate()
        exact = {b.outcomes: b.probability for b in sp.run(c)}
        shots = 100_000
        sampled = sp.run(c, mode="sample", shots=shots, seed=5)
        assert len(sampled) == len(exact)
        observed = np.array([b.probability * shots for b in sampled])
        expected = np.array([exact[b.outcomes] * shots for b in sampled])
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        cutoff = stats.chi2.ppf(1 - 1e-4, df=len(exact) - 1)
        assert chi2 < cutoff

    def test_shot_counts_are_integers_summing_to_shots(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        for shots in (1, 7, 1000):
            counts = [b.probability * shots for b in sp.run(c, mode="sample", shots=shots, seed=4)]
            assert all(abs(k - round(k)) < 1e-9 * shots and round(k) >= 1 for k in counts)
            assert sum(round(k) for k in counts) == shots

    def test_sampled_branch_equals_enumerated_branch(self, dense_vector, w_vector):
        for vec, prune in ((dense_vector, False), (w_vector, True)):
            c = sp.synthesize_dc(sp.build_tree(vec), sp.DcOptions(prune=prune))
            exact = {b.outcomes: b for b in sp.run(c)}
            for b in sp.run(c, mode="sample", shots=3000, seed=1):
                e = exact[b.outcomes]
                assert np.array_equal(b.data_state, e.data_state)
                assert b.residual_wires == e.residual_wires
                assert b.fixed_outcomes == e.fixed_outcomes

    def test_reset_in_sample_mode(self):
        ops = (hadamard(0), reset(0), measure(0, 0))
        c = Circuit(1, 1, ops, (0,))
        sampled = sp.run(c, mode="sample", shots=4000, seed=2)
        assert [b.outcomes for b in sampled] == [(0, 0), (1, 0)]
        assert sum(b.probability for b in sampled) == pytest.approx(1, abs=1e-12)
        for b in sampled:
            assert b.probability == pytest.approx(0.5, abs=0.05)
            assert b.fixed_outcomes == {0: 0}

    def test_a_billion_shots_cost_one_walk(self):
        rng = np.random.default_rng(21)
        x = random_unit(rng, 8)
        c = sp.synthesize_dc(sp.build_tree(x))
        exact = {b.outcomes: b.probability for b in sp.run(c)}
        sampled = sp.run(c, mode="sample", shots=10**9, seed=0)
        assert len(sampled) == len(exact)
        for b in sampled:
            assert abs(b.probability - exact[b.outcomes]) < 1e-3

    def test_sampled_branches_subset_of_enumeration(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        exact = {b.outcomes: b.probability for b in sp.run(c)}
        sampled = sp.run(c, mode="sample", shots=2000, seed=3)
        for b in sampled:
            assert b.outcomes in exact
            sigma = np.sqrt(exact[b.outcomes] * (1 - exact[b.outcomes]) / 2000)
            assert abs(b.probability - exact[b.outcomes]) < max(6 * sigma, 5e-3)


class TestFidelity:
    def test_self_fidelity(self):
        v = np.array([0.6, 0.8])
        assert sp.fidelity(v, v) == pytest.approx(1, abs=1e-12)

    def test_orthogonal_states(self):
        assert sp.fidelity([1, 0], [0, 1]) == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        for gamma in (0.3, 1.7, -2.2):
            assert sp.fidelity(v, np.exp(1j * gamma) * v) == pytest.approx(1, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sp.fidelity([1, 0], [1, 0, 0, 0])


class TestVerifyPreparation:
    def test_time_encoding_single_branch(self, dense_vector):
        c = sp.synthesize_time(sp.build_tree(dense_vector))
        rep = sp.verify_preparation(c, dense_vector)
        assert rep.branches == 1 and rep.passed

    def test_disentangled_passes(self):
        rng = np.random.default_rng(8)
        x = random_unit(rng, 8)
        c = sp.synthesize_dc(sp.build_tree(x))
        assert sp.verify_preparation(c, x).passed

    def test_entangled_baseline_fails_but_keeps_probabilities(self):
        rng = np.random.default_rng(9)
        x = random_unit(rng, 8)
        c = sp.synthesize_dc(sp.build_tree(x), sp.DcOptions(disentangle=False))
        rep = sp.verify_preparation(c, x)
        assert not rep.passed
        [branch] = sp.run(c)
        probs = data_probabilities(branch, c.data_qubits)
        assert np.allclose(probs, x**2, atol=1e-9)

    def test_report_json_shape(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        doc = sp.verify_preparation(c, dense_vector).to_json_dict()
        assert set(doc) == {"branches", "sum_prob", "min_fidelity", "pass"}

    def test_dimension_check(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        with pytest.raises(DimensionMismatch):
            sp.verify_preparation(c, dense_vector[:4])
