import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stateprep as sp
from stateprep.circuit import ROLE_LOAD
from stateprep.divide_conquer import DcOptions, _plan_tree
from stateprep.errors import (
    NegativeAmplitude,
    NonFiniteAmplitude,
    NonPowerOfTwoLength,
    StatePrepError,
    ZeroVector,
)
from stateprep.tolerances import ZERO_NORM_TOL

from conftest import children_of, level_of, preorder, random_unit, records_of, subtree_state


def path_product(tree, leaf):
    """Oracle: multiply edge weights from the root down to ``leaf``."""
    prod = 1.0
    f = 0
    for step in range(tree.n - 1, -1, -1):
        bit = (leaf >> step) & 1
        prod *= tree.omega1[f] if bit else tree.omega0[f]
        f = 2 * f + 1 + bit
    return prod


class TestBuildTree:
    def test_dense_example_angles(self, dense_vector):
        tree = sp.build_tree(dense_vector)
        order = preorder(tree)
        got = [tree.alpha[f] for f in order]
        expected = [1.51, 1.94, 2.13, 1.68, 1.90, 1.70, 1.28]
        assert np.allclose(got, expected, atol=0.005)

    def test_single_qubit_extremes(self):
        assert sp.build_tree([1.0, 0.0]).alpha[0] == 0.0
        assert sp.build_tree([0.0, 1.0]).alpha[0] == pytest.approx(np.pi)

    def test_path_products_reconstruct_input(self):
        rng = np.random.default_rng(11)
        x = random_unit(rng, 16)
        tree = sp.build_tree(x)
        for i in range(16):
            assert path_product(tree, i) == pytest.approx(x[i], abs=1e-12)

    def test_weights_normalized_per_node(self, dense_vector, w_vector):
        for tree in map(sp.build_tree, (dense_vector, w_vector)):
            for f in range(tree.num_nodes):
                assert tree.omega0[f] ** 2 + tree.omega1[f] ** 2 == pytest.approx(1, abs=1e-12)
                assert 0.0 <= tree.alpha[f] <= np.pi

    def test_renormalizes_input(self):
        tree = sp.build_tree([3.0, 4.0])
        assert tree.omega0[0] == pytest.approx(0.6)
        assert tree.omega1[0] == pytest.approx(0.8)

    def test_zero_norm_nodes_flagged(self, w_vector):
        tree = sp.build_tree(w_vector)
        assert (tree.omega0[6], tree.omega1[6], tree.alpha[6]) == (1.0, 0.0, 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(NonPowerOfTwoLength):
            sp.build_tree([0.5, 0.5, 0.5])
        with pytest.raises(NegativeAmplitude):
            sp.build_tree([0.8, -0.6])
        with pytest.raises(NegativeAmplitude):
            sp.build_tree([0.8 + 0.1j, 0.6])
        with pytest.raises(ZeroVector):
            sp.build_tree([0.0, 0.0, 0.0, 0.0])

    def test_tiny_vector_is_valid(self):
        # The zero test is relative to the largest entry, not absolute.
        tree = sp.build_tree([1e-13, 1e-13])
        assert tree.alpha[0] == pytest.approx(np.pi / 2)

    def test_negative_entry_judged_against_largest(self):
        # -9e-13 is 30% of the largest entry: a sign, not rounding.
        with pytest.raises(NegativeAmplitude):
            sp.build_tree([3e-12, -9e-13])
        # Within ZERO_NORM_TOL of the largest entry it is rounding, cleared
        # to 0; at twice that, a sign.
        tree = sp.build_tree([4.0, -2.0 * ZERO_NORM_TOL])
        assert (tree.omega0[0], tree.omega1[0]) == (1.0, 0.0)
        with pytest.raises(NegativeAmplitude):
            sp.build_tree([4.0, -8.0 * ZERO_NORM_TOL])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteAmplitude):
            sp.build_tree([bad, 1.0, 1.0, 1.0])
        assert issubclass(NonFiniteAmplitude, StatePrepError)

    def test_huge_entries_normalize_without_overflow(self):
        x = np.array([1e300, 1e300, 1.0, 1.0])
        big = sp.build_tree(x)
        small = sp.build_tree(np.ldexp(x, -1000))
        for name in ("omega0", "omega1", "alpha"):
            assert np.array_equal(getattr(big, name), getattr(small, name)), name
        assert big.alpha[0] == pytest.approx(0.0, abs=1e-12)
        assert big.alpha[1] == pytest.approx(np.pi / 2, abs=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=8, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_path_product_property(self, values):
        x = np.asarray(values)
        x = x / np.linalg.norm(x)
        tree = sp.build_tree(x)
        for i in range(8):
            assert abs(path_product(tree, i) - x[i]) < 1e-12

    def test_pad_to_power_of_two(self):
        assert list(sp.pad_to_power_of_two([1.0, 2.0, 3.0])) == [1.0, 2.0, 3.0, 0.0]
        assert list(sp.pad_to_power_of_two([1.0])) == [1.0, 0.0]
        assert list(sp.pad_to_power_of_two([1.0, 2.0])) == [1.0, 2.0]


class TestPreorder:
    def test_n3(self, dense_vector):
        assert preorder(sp.build_tree(dense_vector)) == [0, 1, 3, 4, 2, 5, 6]

    def test_n1(self):
        assert preorder(sp.build_tree([0.6, 0.8])) == [0]

    def test_n4(self):
        rng = np.random.default_rng(3)
        tree = sp.build_tree(random_unit(rng, 16))
        expected = [0, 1, 3, 7, 8, 4, 9, 10, 2, 5, 11, 12, 6, 13, 14]

        def recurse(f):
            if f >= 15:
                return []
            return [f] + recurse(2 * f + 1) + recurse(2 * f + 2)

        assert recurse(0) == expected
        assert preorder(tree) == expected

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=12, deadline=None)
    def test_is_permutation(self, n):
        x = np.ones(2**n) / 2 ** (n / 2)
        order = preorder(sp.build_tree(x))
        assert sorted(order) == list(range(2**n - 1))


class TestSubtreeState:
    def test_dense_internal_node(self, dense_vector):
        tree = sp.build_tree(dense_vector)
        expected = np.sqrt([0.04, 0.13, 0.16, 0.2]) / np.sqrt(0.53)
        assert np.allclose(subtree_state(tree, 1), expected, atol=1e-12)

    def test_dense_leaf_node(self, dense_vector):
        tree = sp.build_tree(dense_vector)
        expected = np.sqrt([0.04, 0.13]) / np.sqrt(0.17)
        assert np.allclose(subtree_state(tree, 3), expected, atol=1e-12)

    def test_root_reproduces_input(self, dense_vector):
        tree = sp.build_tree(dense_vector)
        assert np.allclose(subtree_state(tree, 0), dense_vector, atol=1e-12)

    def test_matches_slice_oracle(self):
        rng = np.random.default_rng(5)
        x = random_unit(rng, 16)
        tree = sp.build_tree(x)
        for f in range(15):
            level = level_of(f)
            width = 16 >> level
            seg = x[(f - (2**level - 1)) * width : (f - (2**level - 1)) * width + width]
            assert np.allclose(subtree_state(tree, f), seg / np.linalg.norm(seg), atol=1e-12)

    def test_undefined_node_raises(self, w_vector):
        tree = sp.build_tree(w_vector)
        for f in (-1, 7):
            with pytest.raises(IndexError):
                subtree_state(tree, f)

    def test_rebuild_idempotence(self, dense_vector):
        tree = sp.build_tree(dense_vector)
        rebuilt = sp.build_tree(subtree_state(tree, 0))
        assert np.allclose(tree.omega0, rebuilt.omega0, atol=1e-12)
        assert np.allclose(tree.omega1, rebuilt.omega1, atol=1e-12)
        assert np.allclose(tree.alpha, rebuilt.alpha, atol=1e-12)


class TestPrune:
    """Pruning is decided by the synthesis planner; these pin its output."""

    @staticmethod
    def pruned(x):
        tree = sp.build_tree(x)
        circuit = sp.synthesize_dc(tree, DcOptions(prune=True))
        loads = {op.qubits[0] for op in records_of(circuit.ops) if op.role == ROLE_LOAD}
        return _plan_tree(tree, tree.n - 1, prune=True), circuit, loads

    def test_w_state_plan(self, w_vector):
        plan, _, loads = self.pruned(w_vector)
        assert plan.keep.tolist() == [[True, True], [True, True], [True, False]]
        assert plan.order.tolist() == [0, 1, 3, 4, 2, 5]
        assert not loads & {plan.wire[f] for f in (2, 4, 5)}
        assert loads == {plan.wire[f] for f in (0, 1, 3)}

    def test_basis_state_plan(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        plan, circuit, loads = self.pruned(e0)
        assert plan.keep.tolist() == [[True, False]] * 3
        assert not loads
        assert not any(op.kind == "cswap" for op in records_of(circuit.ops))

    def test_balanced_vector_plan(self):
        x = np.array([1.0, 2.0, 1.0, 2.0])
        plan, _, _ = self.pruned(x / np.linalg.norm(x))
        assert plan.keep.tolist() == [[True, False]]

    def test_state_or_ground_for_zero_norm(self, w_vector):
        tree = sp.build_tree(w_vector)
        assert np.array_equal(subtree_state(tree, 6), [1.0, 0.0])

    def test_levels_and_children_helpers(self):
        assert [level_of(f) for f in (0, 1, 2, 3, 6, 7, 14)] == [0, 1, 1, 2, 2, 3, 3]
        assert children_of(1) == (3, 4)
