
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stateprep as sp
from stateprep import divide_conquer
from stateprep.circuit import Circuit, OpTable
from stateprep.discrimination import decompose
from stateprep.divide_conquer import DcOptions, _plan_tree, compile_disentangler
from stateprep.errors import NonUnitInput
from stateprep.tolerances import ANGLE_TOL
from stateprep.writer import layers

from conftest import (
    count_steps, cswap, data_probabilities, fidelity, mcroty, preorder, random_unit, records_of,
    reference_plan, roty, subtree_state, table_of,
)


def branch_sets_equal(a, b, atol=1e-12):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x.outcomes != y.outcomes:
            return False
        if abs(x.probability - y.probability) > atol:
            return False
        if not np.allclose(x.data_state, y.data_state, atol=atol):
            return False
    return True


def signed_loads(v, wires):
    """Gates that load the real unit vector ``v``, signs included, on one or
    two ``wires``, first wire most significant."""
    if len(wires) == 1:
        return [roty(wires[0], 2.0 * np.arctan2(v[1], v[0]))]
    top = 2.0 * np.arctan2(np.linalg.norm(v[2:]), np.linalg.norm(v[:2]))
    return [roty(wires[0], top)] + [
        mcroty(2.0 * np.arctan2(v[2 * b + 1], v[2 * b]), [(wires[0], b)], wires[1])
        for b in (0, 1)
    ]


class TestSynthesizeDc:
    def test_n3_layout(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        m = sp.metrics(c)
        assert (m.qubits, m.unit_cswaps, m.depth_gates) == (7, 4, 4)
        swaps = [op.qubits for op in records_of(c.ops) if op.kind == "cswap"]
        assert swaps == [(1, 2, 3), (4, 5, 6), (0, 1, 4), (0, 2, 5)]
        assert c.data_qubits == (0, 1, 2)
        measured = [op.qubits[0] for op in records_of(c.ops) if op.kind == "measure"]
        assert measured == [3, 6, 4, 5]

    def test_loading_follows_preorder(self, dense_vector):
        tree = sp.build_tree(dense_vector)
        c = sp.synthesize_dc(tree)
        loads = [op for op in records_of(c.ops) if op.role == "load"]
        order = preorder(tree)
        assert [op.qubits[0] for op in loads] == list(range(7))
        assert [op.angle for op in loads] == pytest.approx([tree.alpha[f] for f in order])

    def test_basis_state_prunes_to_empty(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        c = sp.synthesize_dc(sp.build_tree(e0), DcOptions(prune=True))
        assert c.n_qubits == 3
        assert len(c.ops) == 0
        assert c.data_qubits == (0, 1, 2)

    def test_random_branch_determinism(self):
        rng = np.random.default_rng(20)
        for n in (2, 3, 4):
            for _ in range(10):
                x = random_unit(rng, 2**n)
                c = sp.synthesize_dc(sp.build_tree(x))
                rep = sp.verify_preparation(c, x)
                assert rep.passed, (n, rep)
                assert rep.sum_prob == pytest.approx(1, abs=1e-10)

    def test_measurement_budget(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            x = random_unit(rng, 2**n)
            c = sp.synthesize_dc(sp.build_tree(x))
            n_meas = sum(1 for op in records_of(c.ops) if op.kind == "measure")
            assert n_meas == 2**n - n - 1
            assert c.n_clbits == n_meas

    def test_no_disentangle_keeps_amplitude_profile(self):
        rng = np.random.default_rng(22)
        x = random_unit(rng, 8)
        c = sp.synthesize_dc(sp.build_tree(x), DcOptions(disentangle=False))
        assert c.n_clbits == 0
        [branch] = sp.run(c)
        probs = data_probabilities(branch, c.data_qubits)
        assert np.allclose(probs, x**2, atol=1e-9)

    def test_prune_preserves_state(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            x = np.zeros(16)
            idx = rng.choice(16, size=3, replace=False)
            x[idx] = rng.random(3) + 0.2
            x /= np.linalg.norm(x)
            pruned = sp.synthesize_dc(sp.build_tree(x), DcOptions(prune=True))
            plain = sp.synthesize_dc(sp.build_tree(x))
            assert sp.verify_preparation(pruned, x).passed
            assert sp.verify_preparation(plain, x).passed
            assert pruned.n_qubits <= plain.n_qubits

    def test_sparse_qubit_bound(self):
        rng = np.random.default_rng(24)
        n, d = 5, 3
        for _ in range(10):
            x = np.zeros(2**n)
            idx = rng.choice(2**n, size=d, replace=False)
            x[idx] = rng.random(d) + 0.2
            x /= np.linalg.norm(x)
            c = sp.synthesize_dc(sp.build_tree(x), DcOptions(prune=True))
            assert c.n_qubits <= n * d

    def test_first_stage_outcome_probabilities_analytic(self):
        # Measuring the combined pair in the symmetric/antisymmetric
        # basis hits each outcome with probability (1 +/- overlap)/2.
        rng = np.random.default_rng(26)
        for _ in range(25):
            x = random_unit(rng, 4, floor=0.02)
            tree = sp.build_tree(x)
            c = sp.synthesize_dc(tree)
            overlap = float(subtree_state(tree, 1) @ subtree_state(tree, 2))
            branches = sp.run(c)
            assert len(branches) == 2
            assert branches[0].probability == pytest.approx((1 + overlap) / 2, abs=1e-12)
            assert branches[1].probability == pytest.approx((1 - overlap) / 2, abs=1e-12)

    def test_wide_amplitude_ranges_stay_deterministic(self):
        # Amplitudes spanning six orders of magnitude produce stages
        # whose sibling states overlap to within 1e-9 without being
        # equal; every branch must still land on the target.
        rng = np.random.default_rng(27)
        for trial in range(60):
            size = 8 if trial % 2 else 16
            x = 10.0 ** rng.uniform(-6, 0, size=size)
            x /= np.linalg.norm(x)
            rep = sp.verify_preparation(sp.synthesize_dc(sp.build_tree(x)), x)
            assert rep.passed, trial

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ten_decade_inputs_verify(self, n):
        # The README's ten-decade inputs.  Some leaves have omega1 near 1,
        # where an angle read from omega1 alone, 2 asin(omega1), keeps only
        # half its digits: 5 of these 30 then fail, at fidelity 0.99998.
        for seed in range(10):
            x = 10 ** np.random.default_rng(seed).uniform(-10, 0, 2**n)
            rep = sp.verify_preparation(sp.synthesize_dc(sp.build_tree(x)), x)
            assert rep.passed, (seed, rep)

    def test_nearly_equal_halves(self):
        rng = np.random.default_rng(28)
        base = rng.random(4) + 0.1
        for eps in (1e-6, 1e-8, 1e-10):
            x = np.concatenate([base, base * (1 + eps)])
            x /= np.linalg.norm(x)
            rep = sp.verify_preparation(sp.synthesize_dc(sp.build_tree(x)), x)
            assert rep.passed, eps

    @given(
        st.sampled_from([2, 4, 8]),
        st.integers(0, 2**32 - 1),
        st.floats(1.42e-6, 2.5e-6),
    )
    @settings(max_examples=60, deadline=None)
    def test_near_equal_siblings_compile_and_verify(self, m, seed, eps):
        # Halves rotated from each other by eps have an overlap deficit
        # 1 - cos(eps) of 1.0e-12 to 3.1e-12, just above OVERLAP_EQUAL_TOL,
        # so the root combines them in the +/- basis.  Only the root
        # combines with lambda = n - 1, which keeps the register small.
        rng = np.random.default_rng(seed)
        left = rng.random(m) + 0.1
        left /= np.linalg.norm(left)
        turn = rng.normal(size=m)
        turn -= (turn @ left) * left
        right = np.cos(eps) * left + np.sin(eps) * turn / np.linalg.norm(turn)
        x = np.concatenate([left, right]) / np.sqrt(2.0)
        tree = sp.build_tree(x)
        assert sp.verify_preparation(sp.synthesize_hybrid(tree, tree.n - 1), x).passed

    @given(
        st.sampled_from([np.pi / 2, np.pi]),
        st.floats(-3e-12, 3e-12) | st.sampled_from([-1e-7, -1e-9, 1e-9, 1e-7]),
    )
    @example(np.pi, 1e-9)
    @example(np.pi, -1e-9)
    @settings(max_examples=60, deadline=None)
    def test_loading_angles_at_angle_tol_edges(self, base, delta):
        # One qubit loaded at theta = base + delta: h (x at pi) within
        # ANGLE_TOL of the base, roty beyond it.  Rounding moves alpha
        # across the edge, so the expected spelling reads tree.alpha.
        # alpha = 2 atan2(omega1, omega0) keeps its digits near pi too, so
        # an offset of 1e-9 spells a roty at either base.
        half = (base + delta) / 2
        x = np.array([abs(np.cos(half)), np.sin(half)])
        tree = sp.build_tree(x)
        if abs(tree.alpha[0] - base) > ANGLE_TOL:
            kind = "roty"
        else:
            kind = "h" if base < 2 else "x"
        assert abs(delta) < 1e-9 or kind == "roty"
        for c in (sp.synthesize_dc(tree), sp.synthesize_time(tree)):
            assert records_of(c.ops)[0].kind == kind
            assert sp.verify_preparation(c, x / np.linalg.norm(x)).passed

    def test_stage_reports_cover_measured_wires(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        wires = [w for rep in c.stage_reports for w in rep.ancilla_wires]
        assert wires == [3, 6, 4, 5]
        final = c.stage_reports[-1]
        assert final.control_wire == 0
        correction = records_of(c.ops)[-1]
        assert correction.kind == "z" and correction.condition.bits == final.clbits
        assert final.correction_values == correction.condition.values
        assert len(final.correction_values) == 2


    @pytest.mark.parametrize("n", [5, 6])
    def test_stages_match_single_stage_calls(self, n):
        # Each stage's machinery, compiled with its whole level, equals
        # the ops of a call on that stage alone.
        x = random_unit(np.random.default_rng(50 + n), 2**n)
        tree = sp.build_tree(x)
        c = sp.synthesize_dc(tree)
        assert len(c.stage_reports) == 2 ** (n - 1) - 1
        for rep in c.stage_reports:
            left, right = 2 * rep.node + 1, 2 * rep.node + 2
            alone = records_of(compile_disentangler(
                subtree_state(tree, left),
                subtree_state(tree, right),
                rep.ancilla_wires,
                rep.control_wire,
                first_clbit=rep.clbits[0],
            ))
            inside = [
                op
                for op in records_of(c.ops)
                if (op.role == "meas_basis" or op.kind == "measure")
                and op.qubits[0] in rep.ancilla_wires
                or op.role == "correct" and op.condition.bits == rep.clbits
            ]
            assert len(inside) == len(alone)
            for a, b in zip(inside, alone):
                assert (a.kind, a.qubits, a.clbit, a.condition, a.role) == (
                    b.kind,
                    b.qubits,
                    b.clbit,
                    b.condition,
                    b.role,
                )
                assert (a.angle is None and b.angle is None) or np.max(
                    np.abs(np.subtract(a.angle, b.angle))) <= 1e-14

    def test_level_mixing_equal_and_unequal_siblings(self):
        # Level 1 of this n=4 tree has one stage whose siblings hold the
        # same state (node 1: u and u) and one whose siblings differ
        # (node 2: v and w).
        rng = np.random.default_rng(29)
        u, v, w = (rng.random(4) + 0.1 for _ in range(3))
        x = np.concatenate([u, u, v, w])
        x /= np.linalg.norm(x)
        c = sp.synthesize_dc(sp.build_tree(x))
        level1 = {rep.node: rep for rep in c.stage_reports if rep.level == 1}
        same, differ = level1[1], level1[2]
        assert same.computational and same.correction_values == ()
        assert not differ.computational and len(differ.correction_values) == 2
        assert differ.clbits == (same.clbits[-1] + 1, same.clbits[-1] + 2)
        records = records_of(c.ops)
        machinery = [op for op in records if op.role == "meas_basis" or op.kind == "measure"]
        same_ops = [op for op in machinery if op.qubits[0] in same.ancilla_wires]
        assert [(op.kind, op.clbit) for op in same_ops] == [("measure", b) for b in same.clbits]
        corrections = {op.condition.bits: op for op in records if op.role == "correct"}
        assert same.clbits not in corrections
        assert corrections[differ.clbits].qubits == (differ.control_wire,)
        assert sp.verify_preparation(c, x).passed


def plan_inputs(rng, n):
    """Dense, sparse, W and zero-norm-subtree vectors of length ``2**n``."""
    dense = rng.random(2**n) + 0.05
    sparse = np.where(rng.random(2**n) < 0.3, rng.random(2**n), 0.0)
    sparse[rng.integers(2**n)] = 1.0
    w = np.zeros(2**n)
    w[[2**j for j in range(n)]] = 1.0
    holed = rng.random(2**n) + 0.05
    size = 2 ** rng.integers(n)
    holed[size * rng.integers(2**n // size) :][:size] = 0.0
    return dense, sparse, w, holed


def test_plan_matches_reference():
    """The level-array plan against the recursive visit: modes, pre-order,
    wires and width, and the live registers through the circuit's data
    register, combining swaps and stage reports."""
    rng = np.random.default_rng(25)
    names = {(True, True): "combine", (True, False): "left", (False, True): "right"}
    checked = 0
    for n in range(1, 9):
        for x in plan_inputs(rng, n):
            tree = sp.build_tree(x / np.linalg.norm(x))
            for lam in range(1, n + 1):
                for prune in (False, True):
                    top = 2 ** (n - lam) - 1
                    plan = _plan_tree(tree, n - lam, prune)
                    mode, wires, live = reference_plan(tree, n - lam, prune)
                    assert {f: names[tuple(plan.keep[f].tolist())] for f in mode} == mode
                    assert plan.order.tolist() == list(wires)
                    assert plan.planned.tolist() == [f in wires for f in range(2 * top + 1)]
                    own = {f: list(range(plan.wire[f], plan.wire[f] + (1 if f < top else lam)))
                           for f in plan.order.tolist()}
                    assert own == wires
                    assert plan.n_qubits == sum(map(len, wires.values()))

                    circuit = sp.synthesize_hybrid(tree, lam, DcOptions(prune=prune))
                    combiners = [f for f in sorted(mode, key=lambda f: (-(f + 1).bit_length(), f))
                                 if mode[f] == "combine"]
                    assert circuit.n_qubits == plan.n_qubits
                    assert list(circuit.data_qubits) == live[0]
                    assert [op.qubits for op in records_of(circuit.ops) if op.kind == "cswap"] == [
                        (wires[f][0], a, b) for f in combiners
                        for a, b in zip(live[2 * f + 1], live[2 * f + 2])]
                    assert [(r.node, r.control_wire, r.ancilla_wires)
                            for r in circuit.stage_reports] == [
                        (f, wires[f][0], tuple(live[2 * f + 2])) for f in combiners]
                    checked += 1
    assert checked == 4 * 2 * sum(range(1, 9))


class TestWState(object):
    def test_six_qubit_circuit(self, w_vector):
        c = sp.synthesize_dc(sp.build_tree(w_vector), DcOptions(prune=True))
        assert c.n_qubits == 6
        kinds = {}
        for op in records_of(c.ops):
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        assert kinds["cswap"] == 3
        assert kinds["measure"] == 3
        assert kinds["h"] == 1 and kinds["x"] == 1

    def test_control_rotation_angle(self, w_vector):
        c = sp.synthesize_dc(sp.build_tree(w_vector), DcOptions(prune=True))
        roots = [op for op in records_of(c.ops) if op.role == "load" and op.kind == "roty"]
        assert len(roots) == 1
        assert roots[0].qubits == (0,)
        assert abs(roots[0].angle) == pytest.approx(1.23, abs=0.005)

    def test_all_branches_prepare_w(self, w_vector):
        c = sp.synthesize_dc(sp.build_tree(w_vector), DcOptions(prune=True))
        for b in sp.run(c):
            assert fidelity(b.data_state, w_vector) >= 1 - 1e-9

    def test_first_final_ancilla_is_unbiased(self, w_vector):
        c = sp.synthesize_dc(sp.build_tree(w_vector), DcOptions(prune=True))
        bit = c.stage_reports[-1].clbits[0]
        branches = sp.run(c)
        p0 = sum(b.probability for b in branches if b.outcomes[bit] == 0)
        assert p0 == pytest.approx(0.5, abs=1e-10)


class TestCompileDisentangler:
    def test_dense_stage_two_rotations(self, dense_vector):
        # Leaf-pair measurement rotations of the worked example.  The
        # first matches the published -1.91; the second is 1.486 from the
        # published basis vectors (see the golden-angle notes in the
        # acceptance suite).
        tree = sp.build_tree(dense_vector)
        ops_a = compile_disentangler(
            subtree_state(tree, 3), subtree_state(tree, 4), [3], 1, first_clbit=0
        )
        ops_b = compile_disentangler(
            subtree_state(tree, 5), subtree_state(tree, 6), [6], 4, first_clbit=1
        )
        rot_a = [op for op in records_of(ops_a) if op.kind == "roty"][0]
        rot_b = [op for op in records_of(ops_b) if op.kind == "roty"][0]
        assert abs(rot_a.angle) == pytest.approx(1.9054, abs=5e-4)
        assert abs(rot_b.angle) == pytest.approx(1.4862, abs=5e-4)

    def test_equal_states_measure_computationally(self):
        v = np.array([0.6, 0.8])
        ops = compile_disentangler(v, v, [2], 0, first_clbit=0)
        assert [op.kind for op in records_of(ops)] == ["measure"]

    def test_w_final_stage_first_rotation_is_half_pi(self, w_vector):
        tree = sp.build_tree(w_vector)
        psi1 = subtree_state(tree, 1)
        psi2 = subtree_state(tree, 2)
        ops = compile_disentangler(psi1, psi2, [4, 5], 0, first_clbit=0)
        first_rot = [op for op in records_of(ops) if op.kind == "roty"][0]
        assert abs(first_rot.angle) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_correction_is_conditioned_z_on_control(self, dense_vector):
        tree = sp.build_tree(dense_vector)
        ops = compile_disentangler(
            subtree_state(tree, 1), subtree_state(tree, 2), [4, 5], 0, first_clbit=0
        )
        z = records_of(ops)[-1]
        assert z.kind == "z" and z.qubits == (0,)
        assert z.condition is not None and z.condition.bits == (0, 1)
        assert len(z.condition.values) == 2 and set(z.condition.values) <= {0, 1, 2, 3}

    def test_rejects_non_unit_input(self):
        with pytest.raises(NonUnitInput):
            compile_disentangler([0.5, 0.5], [1.0, 0.0], [0], 1)
        with pytest.raises(NonUnitInput, match="real vectors"):
            compile_disentangler([1j, 0.0], [0.0, 1.0], [0], 1)
        with pytest.raises(NonUnitInput, match="do not fit"):
            compile_disentangler([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0], 1)

    def test_rejects_a_plan_angle_that_is_not_a_rotation(self, monkeypatch):
        # A plan marks a complex basis with a NaN angle; real stages never
        # give one, so one is put into the plan.
        def complex_plan(pairs, bases=True):
            plans = decompose(pairs, bases)
            for plan in plans:
                plan.angles[..., 0] = np.nan
            return plans

        monkeypatch.setattr(divide_conquer, "decompose", complex_plan)
        with pytest.raises(NonUnitInput, match="plan basis is not a real rotation"):
            compile_disentangler([0.6, 0.8], [0.8, 0.6], [1], 0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_negatively_overlapping_siblings_disentangle(self, m):
        # Signed siblings with L.R < 0 take the flipped branch, which
        # corrects on the even outcome paths.  After the coin, the loads and
        # the swaps, every branch must leave w0|0>|L> + w1|1>|R>.
        rng = np.random.default_rng(60 + m)
        left_wires, right_wires = list(range(1, m + 1)), list(range(m + 1, 2 * m + 1))
        for _ in range(30):
            left, right = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 2**m)))
            right = -np.sign(left @ right) * right
            coin = rng.uniform(0.1, np.pi - 0.1)
            gates = [roty(0, coin), *signed_loads(left, left_wires),
                     *signed_loads(right, right_wires)]
            gates += [cswap(0, a, b) for a, b in zip(left_wires, right_wires)]
            stage = compile_disentangler(left, right, right_wires, 0)
            ops = OpTable.concat([table_of(gates), stage])
            circuit = Circuit(2 * m + 1, m, ops, (0, *left_wires))
            target = np.concatenate([np.cos(coin / 2) * left, np.sin(coin / 2) * right])
            assert left @ right < 0.0
            assert sp.verify_preparation(circuit, target).passed


class TestPlansSolvedTogether:
    """The engine makes one ``compile_disentangler`` call, which solves the
    measurement plans of every level in one ``decompose`` call, then emits
    each level's stages."""

    def test_dense_n4_makes_one_decompose_call(self, monkeypatch):
        widths, compiles = [], []

        def recorded(pairs, bases=True):
            widths.append([pair.m for pair in pairs])
            return decompose(pairs, bases)

        def compiled(*args, **kwargs):
            compiles.append(len(args[0]))
            return compile_disentangler(*args, **kwargs)

        monkeypatch.setattr(divide_conquer, "decompose", recorded)
        monkeypatch.setattr(divide_conquer, "compile_disentangler", compiled)
        steps = count_steps(monkeypatch)
        sp.synthesize_dc(sp.build_tree(random_unit(np.random.default_rng(4), 16)))
        assert compiles == [3]  # one call, with a stack per level
        assert widths == [[1, 2, 3]]  # levels 2, 1 and 0
        assert steps == {"inner": 2, "leaf": 1}  # one per residual width

    def test_stacks_compile_as_separate_calls(self):
        # Stacks of several widths give, per stack, the ops of a call on that
        # stack alone, each on the classical bits after the last stack's,
        # with its stages' flags.
        rng = np.random.default_rng(91)
        tree = sp.build_tree(random_unit(rng, 32))
        lefts, rights, wires, controls = [], [], [], []
        for level, stages in ((3, [0, 2, 5]), (1, [1]), (2, [0, 3])):
            states = tree.states[level + 1]
            m = tree.n - level - 1
            lefts.append(states[[2 * p for p in stages]])
            rights.append(states[[2 * p + 1 for p in stages]])
            wires.append([list(range(10 * j + 1, 10 * j + 1 + m)) for j in range(len(stages))])
            controls.append([10 * j for j in range(len(stages))])
        rights[0][1] = lefts[0][1]  # a stage of equal states
        rights[2][0] = -rights[2][0]  # and one that overlaps negatively, if it did not
        together = compile_disentangler(lefts, rights, wires, controls, first_clbit=5)
        bit = 5
        for got, *stack in zip(together, lefts, rights, wires, controls):
            ops, flipped, equal = got
            assert ops == compile_disentangler(*stack, first_clbit=bit)
            overlap = np.einsum("ij,ij->i", stack[0], stack[1])
            assert flipped.tolist() == (overlap < 0).tolist()
            assert equal.tolist() == [np.allclose(a, b) for a, b in zip(*stack[:2])]
            bit += np.size(stack[2])
        assert together[0][2].tolist() == [False, True, False]

    def test_rejects_stacks_that_do_not_match(self):
        left, right = np.array([[0.6, 0.8]]), np.array([[0.8, 0.6]])
        with pytest.raises(NonUnitInput, match="stacks"):
            compile_disentangler([left, left], [right], [[[1]], [[2]]], [[0], [0]])

    @pytest.mark.parametrize("kind", ["dense", "sparse", "w"])
    def test_reports_give_the_emitted_corrections(self, kind):
        rng = np.random.default_rng(90)
        for n in range(2, 7):
            x = random_unit(rng, 2**n)
            if kind == "sparse":
                x[rng.random(2**n) < 0.7] = 0.0
                x[0] = 1.0
            elif kind == "w":
                x = np.zeros(2**n)
                x[2 ** np.arange(n)] = 1.0
            tree = sp.build_tree(x / np.linalg.norm(x))
            for lam in range(1, n):
                for opts in (DcOptions(), DcOptions(prune=True)):
                    c = sp.synthesize_hybrid(tree, lam, opts)
                    fired = {op.condition.bits: op
                             for op in records_of(c.ops) if op.role == "correct"}
                    assert len(fired) == sum(not r.computational for r in c.stage_reports)
                    for rep in c.stage_reports:
                        fix = fired.get(rep.clbits)
                        assert rep.computational == (fix is None)
                        assert rep.correction_values == (fix.condition.values if fix else ())
                        assert fix is None or fix.qubits == (rep.control_wire,)


PARALLEL = DcOptions(parallelize=True)


class TestParallelize:
    def test_n3_unchanged_depth(self, dense_vector):
        c = sp.synthesize_dc(sp.build_tree(dense_vector))
        cp = sp.synthesize_dc(sp.build_tree(dense_vector), PARALLEL)
        assert sp.metrics(cp).depth_gates == 4
        assert sorted(op.qubits for op in records_of(cp.ops) if op.kind == "cswap") == sorted(
            op.qubits for op in records_of(c.ops) if op.kind == "cswap"
        )

    def test_depth_two_n_minus_two(self):
        rng = np.random.default_rng(30)
        for n in (4, 5, 6):
            x = random_unit(rng, 2**n)
            c = sp.synthesize_dc(sp.build_tree(x))
            cp = sp.synthesize_dc(sp.build_tree(x), PARALLEL)
            m, mp = sp.metrics(c), sp.metrics(cp)
            assert mp.depth_gates == 2 * n - 2
            # Everything except depth is untouched.
            assert (mp.qubits, mp.unit_cswaps) == (m.qubits, m.unit_cswaps)

    def test_layers_have_disjoint_wires(self):
        rng = np.random.default_rng(31)
        for n in (4, 5, 6, 7):
            x = random_unit(rng, 2**n)
            cp = sp.synthesize_dc(sp.build_tree(x), PARALLEL)
            layer_idx = layers(cp, full=False)
            by_layer = {}
            for op, layer in zip(records_of(cp.ops), layer_idx):
                if layer is None or op.kind != "cswap":
                    continue
                for q in op.qubits:
                    assert q not in by_layer.setdefault(layer, set())
                    by_layer[layer].add(q)

    def test_same_target_order_preserved(self):
        rng = np.random.default_rng(32)
        x = random_unit(rng, 32)
        c = sp.synthesize_dc(sp.build_tree(x))
        cp = sp.synthesize_dc(sp.build_tree(x), PARALLEL)

        def touch_orders(circ):
            orders = {}
            for op in records_of(circ.ops):
                if op.kind != "cswap":
                    continue
                for q in op.qubits[1:]:
                    orders.setdefault(q, []).append(op.qubits)
            return orders

        assert touch_orders(c) == touch_orders(cp)

    def test_branches_preserved(self):
        rng = np.random.default_rng(33)
        # n=1 has no swaps to schedule.
        for n in (3, 4, 1):
            x = random_unit(rng, 2**n)
            c = sp.synthesize_dc(sp.build_tree(x))
            cp = sp.synthesize_dc(sp.build_tree(x), PARALLEL)
            assert branch_sets_equal(sp.run(c), sp.run(cp))

    def test_hybrid_structure_also_preserved(self):
        rng = np.random.default_rng(36)
        x = random_unit(rng, 16)
        # lambda = n leaves no swaps to schedule.
        for lam in (2, 4):
            h = sp.synthesize_hybrid(sp.build_tree(x), lam)
            hp = sp.synthesize_hybrid(sp.build_tree(x), lam, PARALLEL)
            assert branch_sets_equal(sp.run(h), sp.run(hp))
