import json
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy import stats

import stateprep as sp
from stateprep.circuit import KIND, Circuit
from stateprep.errors import DimensionMismatch, TooManyBranches, ZeroVector
from stateprep.tolerances import BRANCH_PROB_TOL, FIDELITY_TOL
from stateprep.simulator import _mix, _slices, _walk

from conftest import (
    Condition,
    assert_waits_match_reference,
    cswap,
    data_probabilities,
    fidelity,
    hadamard,
    mcroty,
    measure,
    oracle_branches,
    oracle_statevector,
    per_value_records,
    random_complex_unit,
    pauli_x,
    pauli_z,
    random_unit,
    records_of,
    reduced_fidelity,
    reference_report,
    reset,
    roty,
    rotz,
    statevector,
    table_of,
)


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
        c = Circuit(4, 0, table_of(ops), tuple(range(4))).validate()
        assert np.allclose(statevector(c), oracle_statevector(c), atol=1e-12)

    def test_norm_preserved_per_gate(self):
        rng = np.random.default_rng(4)
        ops = [roty(i % 3, float(rng.normal())) for i in range(10)]
        ops += [cswap(0, 1, 2), hadamard(1), rotz(2, 0.4)]
        c = Circuit(3, 0, table_of(ops), (0, 1, 2)).validate()
        assert np.linalg.norm(statevector(c)) == pytest.approx(1, abs=1e-12)

    def test_statevector_refuses_measuring_circuit(self):
        for last in (measure(0, 0), reset(0)):
            with pytest.raises(ValueError, match="measurement-free"):
                statevector(Circuit(1, 1, table_of((hadamard(0), last)), (0,)))


def mix_reference(state, i0, i1, mats, sel):
    """Each row's two slices times its selected 2x2 matrix, by einsum."""
    m = mats[np.ones(len(state), dtype=int) if sel is None else sel]
    a, b = state[i0], state[i1]
    pair = np.stack((a.reshape(len(a), -1), b.reshape(len(b), -1)), axis=1)
    out, mixed = state.copy(), np.einsum("rij,rjk->rik", m, pair)
    out[i0], out[i1] = mixed[:, 0].reshape(a.shape), mixed[:, 1].reshape(b.shape)
    return out


@pytest.mark.parametrize("n_wires", [1, 2, 3, 4])
def test_mix_matches_a_per_row_reference(n_wires):
    """``_mix`` on random cluster tensors of 1-6 rows: a one-wire op, a
    ``cswap`` and an ``mcroty`` with polarities, each with diagonal and
    non-diagonal matrices, on every row or selected per row.  A row that
    selects the identity comes back bit for bit."""
    rng = np.random.default_rng(n_wires)
    wires = [int(w) for w in rng.permutation(8)[:n_wires]]  # axis order, not label order
    ops = [(KIND["roty"], [wires[int(rng.integers(n_wires))]], [])]
    if n_wires >= 2:
        qubits = rng.permutation(wires).tolist()  # controls, then the target
        ops.append((KIND["mcroty"], qubits, rng.integers(0, 2, n_wires - 1).tolist()))
    if n_wires >= 3:
        ops.append((KIND["cswap"], rng.permutation(wires)[:3].tolist(), []))
    for (kind, qubits, pols), rows, diagonal in product(ops, range(1, 7), (True, False)):
        i0, i1 = _slices(kind, qubits, pols, wires)
        if diagonal:
            mats = np.array([np.diag(np.exp(1j * rng.normal(size=2))) for _ in range(4)])
        else:
            mats = np.linalg.qr(rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2)))[0]
        mats[0] = np.eye(2)
        for sel in (None, np.concatenate(([0], rng.integers(0, 4, rows - 1)))):
            state = rng.normal(size=(rows,) + (2,) * n_wires) * np.exp(1j * rng.normal())
            expected = mix_reference(state, i0, i1, mats, sel)
            before = state.copy()
            _mix(state, i0, i1, mats, sel)
            assert np.allclose(state, expected, rtol=0.0, atol=1e-14)
            for r in [] if sel is None else np.flatnonzero(sel == 0):
                assert state[r].tobytes() == before[r].tobytes()


@pytest.mark.parametrize("kwargs, message", [
    ({"mode": "sample"}, "positive shot count"),
    ({"mode": "sample", "shots": 0}, "positive shot count"),
    ({"mode": "walk"}, "unknown mode"),
])
def test_run_refuses_bad_mode_or_shots(kwargs, message):
    with pytest.raises(ValueError, match=message):
        sp.run(Circuit(1, 1, table_of((hadamard(0), measure(0, 0))), (0,)), **kwargs)


class TestEnumerate:
    def test_single_wire_half_half(self):
        c = Circuit(1, 1, table_of((roty(0, np.pi / 2), measure(0, 0))), (0,)).validate()
        branches = sp.run(c)
        assert [b.outcomes for b in branches] == [(0,), (1,)]
        assert all(b.probability == pytest.approx(0.5, abs=1e-12) for b in branches)

    def test_lexicographic_order(self):
        ops = (hadamard(0), hadamard(1), measure(0, 0), measure(1, 1))
        c = Circuit(2, 2, table_of(ops), (0,)).validate()
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
            assert fidelity(b.data_state, w_vector) == pytest.approx(1, abs=1e-9)

    def test_dense_example_sixteen_branches(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        branches = sp.run(c)
        assert len(branches) == 16
        assert sum(b.probability for b in branches) == pytest.approx(1, abs=1e-10)
        for b in branches:
            assert fidelity(b.data_state, dense_vector) >= 1 - 1e-9

    def test_zero_probability_branches_pruned(self):
        ops = (pauli_x(0), measure(0, 0))
        c = Circuit(1, 1, table_of(ops), (0,)).validate()
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
        c = Circuit(2, 1, table_of(ops), (1,)).validate()
        unfired, fired = sp.run(c)
        assert (unfired.outcomes, fired.outcomes) == ((0,), (1,))
        assert np.allclose(unfired.data_state, [1, 0])
        assert np.allclose(fired.data_state, [0, 1])

    def test_branch_cap(self):
        ops = tuple(hadamard(i) for i in range(3)) + tuple(measure(i, i) for i in range(3))
        c = Circuit(3, 3, table_of(ops), (0,)).validate()
        with pytest.raises(TooManyBranches):
            sp.run(c, branch_cap=2)
        # A negative cap is refused before the walk, in either mode.
        for call in (sp.run, lambda c, **kw: sp.verify_preparation(c, [1, 0], **kw)):
            for kwargs in ({}, {"mode": "sample", "shots": 8}):
                with pytest.raises(ValueError, match="^branch cap -1 is negative$"):
                    call(c, branch_cap=-1, **kwargs)

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
        c = Circuit(1, 1, table_of(ops), (0,))
        for kwargs in ({}, {"mode": "sample", "shots": 64, "seed": 0}):
            [branch] = sp.run(c, **kwargs)
            assert branch.outcomes == (0,) * 1201
            assert branch.probability == 1.0

    def test_reset_collapses_to_zero(self):
        ops = (hadamard(0), reset(0), measure(0, 0))
        c = Circuit(1, 1, table_of(ops), (0,)).validate()
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
        c = Circuit(6, 3, table_of(ops), (3, 4, 5))
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

    def test_selected_rotation_walks_as_its_records(self):
        # One roty whose angle outcomes 00, 10 and 11 select (01 applies
        # none), on a wire that a swap has joined to two others.  Split
        # into one op per value, it walks to the same bytes.
        ops = [{"kind": "h", "qubits": [q]} for q in (0, 1, 3)] + [
            {"kind": "roty", "qubits": [4], "angle": 0.8}, {"kind": "cswap", "qubits": [3, 2, 4]},
            {"kind": "measure", "qubits": [0], "clbit": 0},
            {"kind": "measure", "qubits": [1], "clbit": 1},
            {"kind": "roty", "qubits": [2], "angle": [0.3, -1.1, 2.0],
             "condition": {"bits": [0, 1], "values": [0, 2, 3]}},
        ]
        text = json.dumps({"n_qubits": 5, "n_clbits": 2, "data_qubits": [2, 3, 4], "ops": ops},
                          separators=(",", ":")) + "\n"
        selected = sp.deserialize(text)
        assert sp.serialize(selected) == text
        per_value = Circuit(5, 2, table_of(per_value_records(selected.ops)), (2, 3, 4))
        assert (selected.ops.n_ops, per_value.ops.n_ops, len(selected.ops)) == (8, 10, 8)
        for kwargs in ({}, {"mode": "sample", "shots": 1000, "seed": 4}):
            got, want = sp.run(selected, **kwargs), sp.run(per_value, **kwargs)
            assert [(b.outcomes, b.probability, b.residual_state.tobytes()) for b in got] == [
                (b.outcomes, b.probability, b.residual_state.tobytes()) for b in want]
        expected = oracle_branches(selected)
        assert len(expected) == 4
        for b, (outcomes, prob, data) in zip(sp.run(selected), expected):
            assert b.outcomes == outcomes
            assert b.probability == pytest.approx(prob, abs=1e-12)
            assert np.allclose(b.data_state, data, atol=1e-10)


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
        c = Circuit(3, 3, table_of(ops), (0, 1, 2)).validate()
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
        c = Circuit(1, 1, table_of(ops), (0,))
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
        assert fidelity(v, v) == pytest.approx(1, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity([1, 0], [0, 1]) == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        for gamma in (0.3, 1.7, -2.2):
            assert fidelity(v, np.exp(1j * gamma) * v) == pytest.approx(1, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity([1, 0], [1, 0, 0, 0])

    def test_huge_and_zero_entries(self):
        assert fidelity([1e308, 1e308], [1e308, 1e308]) == pytest.approx(1, abs=1e-15)
        with pytest.raises(ZeroVector):
            fidelity([0, 0], [1, 0])


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

    def test_target_scale_is_free_and_zero_raises(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        unit = sp.verify_preparation(c, dense_vector)
        huge = sp.verify_preparation(c, 1e308 * dense_vector)
        assert huge.passed and huge.min_fidelity == pytest.approx(unit.min_fidelity, abs=1e-15)
        with pytest.raises(ZeroVector):
            sp.verify_preparation(c, np.zeros(8))

    def test_entangled_residue_scores_its_reduced_state(self):
        # Wire 1 holds cos(0.1)|0> + sin(0.1)|1> and flips data wire 0 where it is 1:
        # cos(0.1)|00> + sin(0.1)|11>.  Both columns are heavy, and the data
        # register's reduced state is diag(cos^2, sin^2), so sqrt(<0|rho|0>) = cos(0.1).
        c = Circuit(2, 0, table_of((roty(1, 0.2), mcroty(np.pi, [(1, 1)], 0))), (0,))
        rep = sp.verify_preparation(c, [1.0, 0.0])
        assert not rep.passed
        assert rep.min_fidelity == pytest.approx(np.cos(0.1), abs=1e-12)

    @staticmethod
    def random_entangling_circuit(rng):
        """Unitary ops on 3 or 4 wires, at least one of which couples a data
        wire to a wire outside the data register."""
        n = int(rng.integers(3, 5))
        data = tuple(int(q) for q in rng.permutation(n)[: rng.integers(1, n)])
        other = [q for q in range(n) if q not in data]
        ops = [hadamard(int(q)) for q in rng.permutation(n)[:2]]
        for _ in range(int(rng.integers(3, 8))):
            a, b, d = (int(q) for q in rng.permutation(n)[:3])
            angle, kind = rng.normal(), int(rng.integers(4))
            ops.append((roty(a, angle), rotz(a, angle), mcroty(angle, [(b, int(angle > 0))], a),
                        cswap(d, a, b))[kind])
        ops.append(mcroty(rng.normal(), [(int(rng.choice(other)), 1)], data[0]))
        return Circuit(n, 0, table_of(ops), data)

    def test_matches_oracle_reduced_state(self):
        # Measurement-free circuits leave one branch; its score is sqrt(<t|rho|t>),
        # with rho the partial trace of the dense-matrix oracle's final state.
        rng = np.random.default_rng(47)
        circuits = [
            (sp.synthesize_dc(sp.build_tree(x), sp.DcOptions(disentangle=False)), x)
            for n in (1, 2, 3)
            for x in (random_unit(rng, 2**n), random_unit(rng, 2**n, floor=10.0))
        ]
        circuits += [(self.random_entangling_circuit(rng), None) for _ in range(30)]
        for c, x in circuits:
            psi = oracle_statevector(c)
            dim = 2 ** len(c.data_qubits)
            for t in (x, random_complex_unit(rng, dim), random_unit(rng, dim)):
                if t is None:
                    continue
                expect = reduced_fidelity(psi, range(c.n_qubits), c.data_qubits, {}, t)
                rep = sp.verify_preparation(c, t)
                assert rep.min_fidelity == pytest.approx(expect, abs=1e-12)
                assert rep.passed == (expect >= 1.0 - FIDELITY_TOL)


class TestMergedVerify:
    """Enumerate-mode verification merges branches that leave the same
    state; ``conftest.reference_report`` builds the report branch by branch."""

    @staticmethod
    def assert_matches_reference(c, target):
        got = sp.verify_preparation(c, target)
        ref = reference_report(c, target)
        assert got.passed == ref.passed
        assert got.sum_prob == pytest.approx(ref.sum_prob, abs=1e-12)
        assert got.min_fidelity == pytest.approx(ref.min_fidelity, abs=1e-12)
        # A merged row is pruned only when its summed weight is below
        # BRANCH_PROB_TOL, so it may count branches that run() drops one by one.
        assert got.branches >= ref.branches
        return got

    def test_late_condition_on_an_early_bit(self):
        # A correction on bit 0 returns wire 1 to |0>, so both rows of its
        # cluster agree when bit 1's measurement ends.  Bit 0 is still to be
        # read, so the branches stay apart: the late flip fires on one only.
        ops = (
            roty(0, 1.0),
            mcroty(0.9, [(0, 1)], 1),
            measure(0, 0),
            roty(1, -0.9, condition=Condition((0,), (1,))),
            hadamard(2),
            measure(2, 1),
            pauli_x(1, condition=Condition((0,), (1,))),
        )
        c = Circuit(3, 2, table_of(ops), (1,))
        rep = self.assert_matches_reference(c, [1.0, 0.0])
        assert rep.branches == 4 and not rep.passed
        assert rep.min_fidelity == pytest.approx(0.0, abs=1e-12)

    def test_merge_that_moves_a_rare_outcome_is_refused(self):
        # Bit 0 turns the data wire 2 by 2t on the part of wire 1 that has
        # probability p, so the two rows of cluster {1, 2} are
        # sqrt(p) 2 sin(t/2) ~ 2.2e-8 apart, within MERGE_TOL.  Wire 1's
        # outcome 1 then keeps that part alone: its data state is |0> for
        # bit 0 = 0 but cos t|0> + sin t|1> for bit 0 = 1.  Merged, both
        # would read |0>; the merge would move a branch of probability 1/2
        # by 1.6e-8, past MERGE_BOUND_TOL, so the rows stay apart.
        p, t = 1e-13, 0.07
        turn = replace(mcroty(2 * t, [(1, 1)], 2), condition=Condition((0,), (1,)))
        ops = (hadamard(0), measure(0, 0), roty(1, 2 * np.arcsin(np.sqrt(p))), turn, measure(1, 1))
        c = Circuit(3, 2, table_of(ops), (2,))
        rep = self.assert_matches_reference(c, [1.0, 0.0])
        assert not rep.passed and rep.branches == 4
        assert rep.min_fidelity == pytest.approx(np.cos(t), abs=1e-12)

    def test_verdict_within_the_bound_walks_again(self):
        # As above with t = 4e-6: the rows lie 1.3e-12 apart and merge, the
        # merged walk's bound lets wire 1's outcome 1 move by 1.8e-5.  The
        # target is turned by -tau, tau^2 / 2 = 0.95 FIDELITY_TOL: merged, every
        # branch passes, but the branch the merge moved has fidelity
        # cos(tau + t) and fails.  The bound leaves the verdict open, so
        # verify walks again without merging and fails.
        p, t = 1e-13, 4e-6
        turn = replace(mcroty(2 * t, [(1, 1)], 2), condition=Condition((0,), (1,)))
        ops = (hadamard(0), measure(0, 0), roty(1, 2 * np.arcsin(np.sqrt(p))), turn, measure(1, 1))
        c = Circuit(3, 2, table_of(ops), (2,))
        rows, *_, spread = _walk(c, "enumerate", None, None, 14, True)
        assert len(rows) == 1 and 0.0 < spread.max() < 2e-5
        tau = np.sqrt(2.0 * 0.95 * FIDELITY_TOL)
        rep = self.assert_matches_reference(c, [np.cos(tau), -np.sin(tau)])
        assert not rep.passed
        assert rep.min_fidelity == pytest.approx(np.cos(tau + t), abs=1e-15)

    def test_pruned_outcome_within_the_bound_walks_again(self):
        # A coin turns data wire 0 by 1.2e-12 (a 2.4e-12 rotation), merged
        # away: the bound on the row's error is sqrt(1/2) 1.2e-12.  Wire 2's
        # outcome 1 then has probability 1e-14 (1 - 1e-5), pruned, but within
        # that bound of BRANCH_PROB_TOL, so the merged walk gives no bound
        # and verify walks again without merging.
        p = BRANCH_PROB_TOL * (1.0 - 1e-5)
        ops = (hadamard(1), measure(1, 0), roty(0, 2.4e-12, condition=Condition((0,), (1,))),
               roty(2, 2.0 * np.arcsin(np.sqrt(p))), measure(2, 1))
        c = Circuit(3, 2, table_of(ops), (0,))
        rows, *_, spread = _walk(c, "enumerate", None, None, 14, True)
        assert len(rows) == 1 and np.isinf(spread).all()
        assert self.assert_matches_reference(c, [1.0, 0.0]).branches == 2

    def test_entangled_baseline_still_fails(self):
        rng = np.random.default_rng(9)
        x = random_unit(rng, 16)
        c = sp.synthesize_dc(sp.build_tree(x), sp.DcOptions(disentangle=False))
        assert not self.assert_matches_reference(c, x).passed

    def test_erratum_angle_still_fails(self, dense_vector):
        # Criterion 2: the paper's printed wire-6 angle, in place of the
        # synthesized one, leaves a stage whose rows never merge.
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        records = records_of(c.ops)
        wire6 = next(op for op in records if op.role == "meas_basis" and op.qubits == (6,))
        for angle in (1.24, -1.24):
            ops = [replace(op, angle=angle) if op is wire6 else op for op in records]
            rep = self.assert_matches_reference(replace(c, ops=table_of(ops)), dense_vector)
            assert not rep.passed and rep.branches == 16

    def test_merged_walk_matches_reference(self, dense_vector, w_vector):
        rng = np.random.default_rng(31)
        sparse = np.zeros(16)
        sparse[[2, 7, 11]] = rng.random(3) + 0.1
        for x in (dense_vector, w_vector, random_unit(rng, 16), sparse / np.linalg.norm(sparse)):
            tree = sp.build_tree(x)
            for opts in (sp.DcOptions(), sp.DcOptions(prune=True), sp.DcOptions(parallelize=True)):
                self.assert_matches_reference(sp.synthesize_dc(tree, opts), x)
            self.assert_matches_reference(sp.synthesize_hybrid(tree, 2), x)
            wrong = np.roll(x, 1)
            self.assert_matches_reference(sp.synthesize_dc(tree), wrong / np.linalg.norm(wrong))

    def test_large_cap_costs_nothing(self):
        # The cap is compared by bit length: 2**cap is never built.
        ops = (hadamard(0),) + tuple(measure(k, k) for k in range(20))
        c = Circuit(20, 20, table_of(ops), (0,))
        tracemalloc.start()
        try:
            assert len(sp.run(c, branch_cap=10**8)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cap_bounds_rows_not_measured_wires(self):
        # 20 measured wires, all but one certain: two branches fit a cap of 1.
        ops = (hadamard(0),) + tuple(measure(k, k) for k in range(20))
        c = Circuit(20, 20, table_of(ops), (0,))
        assert len(sp.run(c, branch_cap=1)) == 2
        with pytest.raises(TooManyBranches):
            sp.run(c, branch_cap=0)


def hand_made_circuit(rng):
    """A random circuit of 4 or 5 wires whose data register is 2 or 3 of
    them in shuffled order.  Its ops act on live wires: one-wire gates,
    some conditioned on earlier outcomes, swaps, controlled rotations,
    measurements and resets, of data wires too; ancillas that no op
    measures or resets stay entangled.  In half the circuits the data wires
    and the ancillas never meet, no data op is conditioned, no data wire is
    reset, and a data wire is measured only first, in a basis state, so the
    data register can end in one state on every branch.  The other half,
    where a data wire and an ancilla are still live, end by entangling the
    ancilla with the data wire and resetting it."""
    n = int(rng.integers(4, 6))
    wires = [int(q) for q in rng.permutation(n)]
    data = tuple(wires[: int(rng.integers(2, 4))])
    isolated = rng.random() < 0.5
    groups = [list(data), [q for q in range(n) if q not in data]] if isolated else [list(range(n))]
    ops, written = [], []

    def measured(q):
        written.append(q)
        return measure(q, len(written) - 1)

    for q in data:
        if isolated and rng.random() < 0.3:
            ops += [pauli_x(q)] * int(rng.integers(2)) + [measured(q)]
    for _ in range(int(rng.integers(6, 13))):
        live = [q for q in groups[int(rng.integers(len(groups)))] if q not in written]
        if not live:
            continue
        q = [int(v) for v in rng.permutation(live)]
        cond = None
        if written and rng.random() < 0.4 and not (isolated and q[0] in data):
            bits = tuple(int(b) for b in rng.permutation(len(written))[: rng.integers(1, 3)])
            values = {int(v) for v in rng.integers(0, 2 ** len(bits), 2)}
            cond = Condition(bits, tuple(sorted(values)))
        r = rng.random()
        if r < 0.15 and len(q) >= 3:
            ops.append(cswap(*q[:3]))
        elif r < 0.3 and len(q) >= 2:
            ops.append(mcroty(float(rng.normal()), [(q[0], int(rng.integers(2)))], q[1]))
        elif r < 0.45:
            ops.append(measured(q[0]))
        elif r < 0.55 and not (isolated and q[0] in data):
            ops.append(reset(q[0]))
        else:
            gate = [roty, rotz, hadamard, pauli_x][int(rng.integers(4))]
            args = (float(rng.normal()),) if gate in (roty, rotz) else ()
            ops.append(gate(q[0], *args, condition=cond))
    live = [q for q in range(n) if q not in written]
    ends = [q for q in live if q in data], [q for q in live if q not in data]
    if not isolated and all(ends):
        d, a = ends[0][0], ends[1][0]
        ops += [hadamard(d), mcroty(float(rng.normal()), [(d, 1)], a), reset(a)]
    return Circuit(n, len(written), table_of(ops), data)


def test_waits_of_hand_made_circuits_match_the_reference():
    # The walk planner reads which measurement each condition bit waits for
    # from ``OpTable.waits``; these circuits reset and re-use wires.
    rng, resets = np.random.default_rng(53), 0
    for _ in range(200):
        c = hand_made_circuit(rng)
        assert_waits_match_reference(c.ops)
        resets += any(op.kind == "reset" for op in records_of(c.ops))
    assert resets > 50


class TestDataRegisterView:
    """``verify_preparation``, ``run`` and ``data_probabilities`` read the
    data register from one view of the walk's rows."""

    def test_condition_reads_a_measured_data_wire(self):
        # Data wire 0's outcome is read by a condition and then places the
        # data state: the merged walk keeps its column to the end.
        ops = (hadamard(0), measure(0, 0), pauli_x(1, condition=Condition((0,), (1,))))
        c = Circuit(2, 1, table_of(ops), (1, 0))
        assert [b.data_state.tolist() for b in sp.run(c)] == [[1, 0, 0, 0], [0, 0, 0, 1]]
        rep = sp.verify_preparation(c, [1.0, 0.0, 0.0, 0.0])
        assert (rep.passed, rep.branches, rep.min_fidelity) == (False, 2, 0.0)

    def test_hand_made_circuits_match_the_references(self):
        rng = np.random.default_rng(53)
        kinds = ("passed", "failed", "unsorted data", "measured data", "live ancilla", "reset",
                 "reset ancilla")
        seen = dict.fromkeys(kinds, 0)
        for _ in range(200):
            c = hand_made_circuit(rng)
            seen["unsorted data"] += list(c.data_qubits) != sorted(c.data_qubits)
            measures = [op.qubits[0] for op in records_of(c.ops) if op.kind == "measure"]
            seen["measured data"] += bool(set(measures) & set(c.data_qubits))
            last = {q: op.kind for op in records_of(c.ops) for q in op.qubits}
            ancillas = [q for q in range(c.n_qubits)
                        if q not in c.data_qubits and last.get(q) not in ("measure", "reset")]
            seen["live ancilla"] += bool(ancillas)
            seen["reset"] += any(op.kind == "reset" for op in records_of(c.ops))
            # An ancilla that ends in a reset is fixed at 0 for the oracle.
            seen["reset ancilla"] += any(last.get(q) == "reset" for q in range(c.n_qubits)
                                         if q not in c.data_qubits)
            targets = (sp.run(c)[0].data_state, random_complex_unit(rng, 2 ** len(c.data_qubits)))
            for target in targets:
                for kwargs in ({}, {"mode": "sample", "shots": 64, "seed": 5}):
                    got = sp.verify_preparation(c, target, **kwargs)
                    ref = reference_report(c, target, **kwargs)
                    assert (got.passed, got.branches) == (ref.passed, ref.branches)
                    assert got.min_fidelity == pytest.approx(ref.min_fidelity, abs=1e-12)
                    seen["passed" if got.passed else "failed"] += 1
            # Measured at the end, every ancilla is sliced by the oracle,
            # whose data axes run in wire order; its data state keeps the
            # branch's phase.
            ends = [measure(q, len(measures) + k) for k, q in enumerate(ancillas)]
            closed = Circuit(c.n_qubits, len(measures) + len(ancillas),
                             table_of(records_of(c.ops) + ends), c.data_qubits)
            axes = [sorted(c.data_qubits).index(q) for q in c.data_qubits]
            want = {o: (p, d) for o, p, d in oracle_branches(closed)}
            for b in sp.run(closed):
                p, d = want[b.outcomes]
                assert b.probability == pytest.approx(p, abs=1e-12)
                d = np.transpose(d.reshape((2,) * len(axes)), axes).reshape(-1)
                assert np.allclose(b.data_state, d, atol=1e-10)
                probs = data_probabilities(b, c.data_qubits)
                assert np.allclose(probs, np.abs(d) ** 2, atol=1e-12)
        assert min(seen.values()) >= 40, seen
