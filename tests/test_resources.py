import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stateprep as sp
from stateprep.errors import LambdaOutOfRange, NOutOfRange

from conftest import random_unit


class TestDcFormulas:
    def test_published_n3(self):
        f = sp.dc_formulas(3)
        assert (f.qubits, f.cswaps, f.depth, f.depth_parallel) == (7, 4, 4, 4)

    def test_n1(self):
        f = sp.dc_formulas(1)
        assert (f.qubits, f.cswaps, f.depth, f.depth_parallel) == (1, 0, 1, 1)

    def test_n6(self):
        f = sp.dc_formulas(6)
        assert (f.qubits, f.cswaps, f.depth, f.depth_parallel) == (63, 57, 16, 10)

    def test_matches_synthesized_circuits(self):
        rng = np.random.default_rng(50)
        for n in range(1, 9):
            x = random_unit(rng, 2**n)
            c = sp.synthesize_dc(sp.build_tree(x))
            m = sp.metrics(c)
            f = sp.dc_formulas(n)
            assert (m.qubits, m.unit_cswaps, m.depth_gates) == (f.qubits, f.cswaps, f.depth)
            mp = sp.metrics(sp.synthesize_dc(sp.build_tree(x), sp.DcOptions(parallelize=True)))
            assert mp.depth_gates == f.depth_parallel
            assert mp.unit_cswaps == f.cswaps


class TestHybridFormulas:
    def test_published_n4_lambda2(self):
        f = sp.hybrid_formulas(4, 2)
        assert (f.qubits, f.depth) == (11, 8)

    def test_endpoints(self):
        for n in range(1, 8):
            f1 = sp.hybrid_formulas(n, 1)
            dc = sp.dc_formulas(n)
            assert (f1.qubits, f1.depth) == (dc.qubits, dc.depth)
            fn = sp.hybrid_formulas(n, n)
            assert (fn.qubits, fn.depth) == (n, 2**n - 1)

    def test_n6_lambda3(self):
        f = sp.hybrid_formulas(6, 3)
        assert (f.qubits, f.depth) == (31, 19)

    def test_lambda_range(self):
        with pytest.raises(LambdaOutOfRange):
            sp.hybrid_formulas(4, 5)
        with pytest.raises(LambdaOutOfRange):
            sp.hybrid_formulas(4, 0)


class TestMidResetFormulas:
    def test_n3(self):
        f = sp.midreset_formulas(3)
        assert (f.q_min, f.depth) == (6, 9)

    def test_n4(self):
        f = sp.midreset_formulas(4)
        assert (f.q_min, f.depth) == (10, 16)

    def test_saves_qubits_relative_to_full_circuit(self):
        for n in range(3, 9):
            assert sp.midreset_formulas(n).q_min < sp.dc_formulas(n).qubits

    def test_small_n_rejected(self):
        with pytest.raises(NOutOfRange):
            sp.midreset_formulas(2)


@pytest.mark.parametrize("formula, args", [
    (sp.dc_formulas, (0,)), (sp.hybrid_formulas, (0, 1)), (sp.reuse_schedule, (-1, 3)),
])
def test_n_out_of_range_rejected(formula, args):
    with pytest.raises(NOutOfRange):
        formula(*args)


class TestReuseSchedule:
    def test_published_points(self):
        assert sp.reuse_schedule(7, 3).total_circuits == 1
        assert sp.reuse_schedule(8, 3).total_circuits == 1
        assert sp.reuse_schedule(10, 3).total_circuits == 2
        s14 = sp.reuse_schedule(14, 3)
        assert s14.total_circuits == 3 and s14.max_parallel == 2

    def test_21_qubits(self):
        s = sp.reuse_schedule(21, 3)
        assert s.total_circuits == 5 and s.max_parallel == 3
        assert s.rounds == (3, 1, 1)

    def test_below_threshold(self):
        s = sp.reuse_schedule(6, 3)
        assert s.total_circuits == 0 and s.max_parallel == 0 and s.rounds == ()

    def test_every_three_qubits_add_a_circuit_for_n3(self):
        base = sp.reuse_schedule(7, 3).total_circuits
        for k in range(1, 6):
            assert sp.reuse_schedule(7 + 3 * k, 3).total_circuits == base + k

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_pool_size(self, q, n):
        a = sp.reuse_schedule(q, n)
        b = sp.reuse_schedule(q + 1, n)
        assert b.total_circuits >= a.total_circuits

    @given(st.integers(min_value=0, max_value=100), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_full_extra_instance_raises_parallelism(self, q, n):
        a = sp.reuse_schedule(q, n)
        b = sp.reuse_schedule(q + 2**n - 1, n)
        assert b.max_parallel >= a.max_parallel + 1
