import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stateprep.discrimination import OrthPair, decompose, evaluate_plan, solve_ua
from stateprep.errors import DimensionMismatch, NotOrthogonal, TraceNotZero, ZeroVector

from conftest import random_orthogonal_pair


def pm_pair(a, b):
    ov = float(np.real(np.vdot(a, b)))
    plus = (a + b) / np.sqrt(2 * (1 + ov))
    minus = (a - b) / np.sqrt(2 * (1 - ov))
    return OrthPair.from_states(plus, minus)


def label_mass(plan, state):
    dist = evaluate_plan(plan, state)
    mass = {"+": 0.0, "-": 0.0}
    for _, label, p in dist:
        mass[label] += p
    return mass


def plan_depth(plan):
    # A complete heap of depth d has 2**d - 1 nodes.
    return (plan.angles.shape[-1] + 1).bit_length() - 1


def apply_ua(theta, omega, eta0, eta1, nu0, nu1):
    c, s = np.cos(theta), np.sin(theta)
    u = np.array([[c, s * np.exp(1j * omega)], [s * np.exp(-1j * omega), -c]])
    etap = [u[a, 0] * eta0 + u[a, 1] * eta1 for a in (0, 1)]
    nup = [u[a, 0] * nu0 + u[a, 1] * nu1 for a in (0, 1)]
    return [abs(np.vdot(nup[a], etap[a])) for a in (0, 1)]


class TestSolveUa:
    def test_real_inputs_give_zero_omega(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            plus, minus = random_orthogonal_pair(rng, 4, real=True)
            _, omega = solve_ua(plus[:2], plus[2:], minus[:2], minus[2:])
            assert omega == 0.0

    def test_already_diagonal_gives_zero_theta(self):
        # plus = |00>, minus = |11>: both same-index overlaps vanish.
        theta, omega = solve_ua([1, 0], [0, 0], [0, 0], [0, 1])
        assert theta == 0.0 and omega == 0.0

    def test_zero_diagonal_after_transform(self):
        rng = np.random.default_rng(1)
        for real in (True, False):
            for _ in range(100):
                plus, minus = random_orthogonal_pair(rng, 4, real=real)
                eta0, eta1 = plus[:2], plus[2:]
                nu0, nu1 = minus[:2], minus[2:]
                theta, omega = solve_ua(eta0, eta1, nu0, nu1)
                diag = apply_ua(theta, omega, eta0, eta1, nu0, nu1)
                assert max(diag) < 1e-10

    def test_trace_violation_rejected(self):
        with pytest.raises(TraceNotZero):
            solve_ua([1, 0], [1, 0], [1, 0], [1, 0])


class TestDecompose:
    def test_computational_pair(self):
        pair = OrthPair.from_states([1, 0, 0, 0], [0, 1, 0, 0])
        plan = decompose(pair)
        assert plan.m == 2
        assert label_mass(plan, pair.plus)["+"] == pytest.approx(1, abs=1e-12)
        assert label_mass(plan, pair.minus)["-"] == pytest.approx(1, abs=1e-12)

    def test_dense_example_first_basis(self, dense_vector):
        # Final-stage pair of the worked dense example; reference basis
        # {0.83|0> - 0.55|1>, -0.55|0> - 0.83|1>} up to per-element sign.
        psi1 = dense_vector[:4] / np.linalg.norm(dense_vector[:4])
        psi2 = dense_vector[4:] / np.linalg.norm(dense_vector[4:])
        plan = decompose(pm_pair(psi1, psi2))
        basis = np.real(plan.bases[0])
        got = {tuple(np.round(np.abs(row), 2)) for row in basis}
        assert got == {(0.55, 0.83), (0.83, 0.55)}
        expected = [np.array([0.83, -0.55]), np.array([-0.55, -0.83])]
        for ref in expected:
            ref = ref / np.linalg.norm(ref)
            assert any(
                min(np.abs(row - ref).max(), np.abs(row + ref).max()) < 5e-3
                for row in basis
            )

    def test_perfect_discrimination_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            m = int(rng.integers(1, 4))
            real = bool(rng.integers(0, 2))
            plus, minus = random_orthogonal_pair(rng, 2**m, real=real)
            plan = decompose(OrthPair.from_states(plus, minus))
            assert label_mass(plan, plus)["-"] < 1e-10
            assert label_mass(plan, minus)["+"] < 1e-10

    def test_real_pairs_have_real_bases(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            plus, minus = random_orthogonal_pair(rng, 8, real=True)
            plan = decompose(OrthPair.from_states(plus, minus))
            assert not np.isnan(plan.angles).any()
            assert np.max(np.abs(plan.bases.imag)) < 1e-12

    def test_depth_equals_qubit_count(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 3):
            plus, minus = random_orthogonal_pair(rng, 2**m)
            plan = decompose(OrthPair.from_states(plus, minus))
            assert plan_depth(plan) == m
            assert all(len(path) == m for path, _ in plan.paths())

    @pytest.mark.parametrize("real", [False, True])
    def test_stacked_pairs_match_single_pairs(self, real):
        rng = np.random.default_rng(11)
        pairs = [random_orthogonal_pair(rng, 8, real=real) for _ in range(20)]
        stacked = decompose(OrthPair.from_states([p for p, _ in pairs], [m for _, m in pairs]))
        assert stacked.angles.shape == (20, 7) and stacked.bases.shape == (20, 7, 2, 2)
        # Complex bases store NaN angles; real ones store every angle.
        assert np.isnan(stacked.angles).all() != real
        for row, (plus, minus) in enumerate(pairs):
            single = decompose(OrthPair.from_states(plus, minus))
            for got, want in zip((stacked.angles, stacked.bases), (single.angles, single.bases)):
                assert np.allclose(got[row], want, rtol=0, atol=1e-14, equal_nan=True)

    def test_not_orthogonal_rejected(self):
        with pytest.raises(NotOrthogonal):
            OrthPair.from_states([1, 0], [np.sqrt(0.5), np.sqrt(0.5)])

    def test_huge_entries_normalized(self):
        pair = OrthPair.from_states([1e308, 1e308], [1e308, -1e308])
        assert np.allclose(pair.plus, [np.sqrt(0.5)] * 2, atol=1e-15)
        assert np.allclose(pair.minus, [np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-15)
        with pytest.raises(ZeroVector):
            OrthPair.from_states([0, 0], [1, 0])


class TestEvaluatePlan:
    def test_plus_state_all_plus(self):
        pair = OrthPair.from_states([1, 0, 0, 0], [0, 1, 0, 0])
        plan = decompose(pair)
        dist = evaluate_plan(plan, [1, 0, 0, 0])
        assert sum(p for _, _, p in dist) == pytest.approx(1, abs=1e-12)
        assert label_mass(plan, [1, 0, 0, 0])["+"] == pytest.approx(1, abs=1e-12)

    def test_equal_superposition_splits_half(self):
        rng = np.random.default_rng(21)
        plus, minus = random_orthogonal_pair(rng, 4, real=True)
        plan = decompose(OrthPair.from_states(plus, minus))
        mass = label_mass(plan, (plus + minus) / np.sqrt(2))
        assert mass["+"] == pytest.approx(0.5, abs=1e-10)
        assert mass["-"] == pytest.approx(0.5, abs=1e-10)

    def test_span_states_follow_overlap_rule(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            plus, minus = random_orthogonal_pair(rng, 2**m)
            plan = decompose(OrthPair.from_states(plus, minus))
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            state = a * plus + b * minus
            state /= np.linalg.norm(state)
            mass = label_mass(plan, state)
            assert mass["+"] == pytest.approx(abs(np.vdot(plus, state)) ** 2, abs=1e-10)
            assert mass["-"] == pytest.approx(abs(np.vdot(minus, state)) ** 2, abs=1e-10)

    def test_dimension_mismatch(self):
        pair = OrthPair.from_states([1, 0, 0, 0], [0, 1, 0, 0])
        plan = decompose(pair)
        with pytest.raises(DimensionMismatch):
            evaluate_plan(plan, [1, 0])

    def test_huge_and_zero_states(self):
        plan = decompose(OrthPair.from_states([1, 1], [1, -1]))
        assert label_mass(plan, [1e308, 1e308])["+"] == pytest.approx(1, abs=1e-12)
        with pytest.raises(ZeroVector):
            evaluate_plan(plan, [0, 0])

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_discrimination_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        plus, minus = random_orthogonal_pair(rng, 2**m, real=bool(rng.integers(0, 2)))
        plan = decompose(OrthPair.from_states(plus, minus))
        assert label_mass(plan, plus)["+"] > 1 - 1e-10
        assert label_mass(plan, minus)["-"] > 1 - 1e-10


class TestResidualOrthogonality:
    def test_residual_pairs_orthogonal(self):
        # decompose() checks this internally and raises on violation;
        # run it over many random pairs to exercise the check.
        rng = np.random.default_rng(31)
        for _ in range(100):
            plus, minus = random_orthogonal_pair(rng, 8, real=bool(rng.integers(0, 2)))
            decompose(OrthPair.from_states(plus, minus))
