import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stateprep.discrimination import (
    OrthPair,
    _inner_step,
    _sign_fixed,
    decompose,
    evaluate_plan,
    plan_document,
    solve_ua,
)
from stateprep.errors import DimensionMismatch, NotOrthogonal, TraceNotZero, ZeroVector

from conftest import count_steps, random_orthogonal_pair


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
        # A reflection, like the paper's, not a rotation.
        assert np.linalg.det(basis) == pytest.approx(-1.0, abs=1e-12)

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

    def test_real_angles_measure_the_node_bases(self):
        # Each row of the y-rotation by a node's angle is, up to sign, the
        # same row of the basis the node solves for.
        rng = np.random.default_rng(13)
        for m in (1, 2, 3, 4):
            pairs = [random_orthogonal_pair(rng, 2**m, real=True) for _ in range(25)]
            plan = decompose(OrthPair.from_states(*map(np.array, zip(*pairs))))
            c, s = np.cos(plan.angles / 2.0), np.sin(plan.angles / 2.0)
            ry = np.stack([c, -s, s, c], -1).reshape(plan.bases.shape)
            rows = np.minimum(np.abs(ry - plan.bases).max(-1), np.abs(ry + plan.bases).max(-1))
            assert rows.max() < 1e-12

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

    @pytest.mark.parametrize("plus, minus", [
        ([1, 0], [0, 1, 0, 0]),  # mismatched shapes
        ([1, 0, 0], [0, 1, 0]),  # not a power of two
        ([1], [1]),
    ])
    def test_malformed_pair_rejected(self, plus, minus):
        with pytest.raises(DimensionMismatch):
            OrthPair.from_states(plus, minus)

    def test_complex_plan_document_writes_basis_rows(self):
        plus, minus = random_orthogonal_pair(np.random.default_rng(5), 4)
        plan = decompose(OrthPair.from_states(plus, minus))
        root = plan_document(plan)["root"]
        assert "angle" not in root and "angle" not in root["on1"]
        assert np.array_equal(np.array(root["basis"]) @ [1, 1j], plan.bases[0])

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
        stacked = decompose(OrthPair.from_states([[1, 0, 0, 0]] * 2, [[0, 1, 0, 0]] * 2))
        with pytest.raises(DimensionMismatch, match="single pair"):
            evaluate_plan(stacked, [1, 0, 0, 0])

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


def reference_filler(v):
    """The per-row search that one-sided plan rows were once completed by:
    of the unit vectors e_j - conj(v_j) v, the one of largest computed norm,
    the first on ties."""
    dim = v.size
    best, best_norm = None, -1.0
    for j in range(dim):
        cand = np.zeros(dim, dtype=complex)
        cand[j] = 1.0
        cand = cand - np.vdot(v, cand) * v
        norm = np.linalg.norm(cand)
        if norm > best_norm:
            best, best_norm = cand, norm
    return best / best_norm


def tie_prone_unit(rng, dim, real):
    """A random unit vector, some of whose entries are exact zeros or have
    exactly the magnitude of another entry."""
    v = rng.normal(size=dim) + (0.0 if real else 1j * rng.normal(size=dim))
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.integers(0, dim, 2)
        v[i] = [0.0, -v[j], np.conj(v[j])][rng.integers(0, 3)]
    if not v.any():
        v[0] = 1.0
    return v / np.linalg.norm(v)


class TestCompletion:
    """A side that a plan row misses is completed in one array step."""

    def test_one_sided_rows_match_the_deleted_search(self):
        rng = np.random.default_rng(61)
        checked = compared = 0
        for dim in range(2, 65):
            for real in (True, False):
                vs = np.array([tie_prone_unit(rng, dim, real) for _ in range(16)])
                zero = np.zeros_like(vs)
                # Measured in the computational basis, each row leaves ``plus``
                # only outcome 0 and ``minus`` only outcome 1, both along v.
                plus, minus = np.hstack([vs, zero]), np.hstack([zero, vs])
                _, _, eta, nu = _inner_step(plus, minus)
                for v, got in zip(np.vstack([vs, vs]), np.vstack([nu[0::2], eta[1::2]])):
                    assert abs(np.linalg.norm(got) - 1.0) <= 1e-15
                    assert abs(np.vdot(v, got)) <= 1e-15
                    low = np.sort(np.abs(v))
                    if low[1] - low[0] > 1e-7:
                        want = _sign_fixed(reference_filler(v)[None])[0]
                        assert np.max(np.abs(got - want)) <= 1e-15
                        compared += 1
                    checked += 1
        assert checked >= 4000 and compared >= 3000, (checked, compared)

    def test_row_no_state_reaches_is_computational(self):
        rng = np.random.default_rng(67)
        for dim in (2, 3, 8):
            v = tie_prone_unit(rng, dim, real=False)
            w = reference_filler(v)
            zero = np.zeros(dim)
            _, _, eta, nu = _inner_step(np.hstack([v, zero])[None], np.hstack([w, zero])[None])
            assert eta[1].tolist() == np.eye(dim)[0].tolist()
            assert nu[1].tolist() == np.eye(dim)[1].tolist()


def random_pairs(rng, m, rows, real):
    """An ``OrthPair`` stacking ``rows`` random orthonormal pairs of ``m`` qubits."""
    plus, minus = zip(*(random_orthogonal_pair(rng, 2**m, real=real) for _ in range(rows)))
    return OrthPair.from_states(plus, minus)


def tree_pairs(x):
    """The pair that each level's disentangling stages tell apart, for the
    angle tree of ``x``, deepest level first, as synthesis plans them."""
    from stateprep import build_tree
    from stateprep.divide_conquer import _stages

    states = build_tree(x).states
    return [_stages(s[0::2], s[1::2])[2] for s in reversed(states[1:])]


def assert_same_plans(pairs):
    """``decompose`` of ``pairs`` together gives each pair's own plan, bit
    for bit."""
    together = decompose(pairs)
    assert len(together) == len(pairs)
    for got, pair in zip(together, pairs):
        want = decompose(pair)
        assert got.m == want.m
        for a, b in ((got.angles, want.angles), (got.bases, want.bases)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSeveralWidths:
    """Pairs of several widths step together, one kernel step per residual
    width; every step acts on each row alone, so each plan is the one the
    pair gets by itself."""

    @pytest.mark.parametrize("widths", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("real", [False, True])
    def test_matches_one_pair_at_a_time(self, widths, real):
        rng = np.random.default_rng(70 + widths)
        for _ in range(5):
            ms = rng.permutation(6)[:widths] + 1
            ms = np.append(ms, ms[: int(rng.integers(0, widths + 1))])  # some widths twice
            assert_same_plans([random_pairs(rng, int(m), int(rng.integers(1, 5)), real)
                               for m in ms])

    @pytest.mark.parametrize("kind", ["sparse", "w", "dense"])
    def test_synthesis_pairs_match(self, kind):
        # Sparse trees give plan rows that one state misses, and W trees
        # stages of equal states, which leave their pairs fewer rows.
        rng = np.random.default_rng(80)
        for n in range(2, 8):
            x, k = np.zeros(2**n), max(2, 2**n // 8)
            if kind == "w":
                x[2 ** np.arange(n)] = 1.0
            elif kind == "sparse":
                x[rng.choice(2**n, k, replace=False)] = rng.random(k) + 0.05
            else:
                x = rng.random(2**n) + 0.1
            assert_same_plans(tree_pairs(x / np.linalg.norm(x)))

    def test_single_pair_and_empty_list(self):
        pair = random_pairs(np.random.default_rng(81), 3, 2, real=True)
        plan = decompose(pair)
        assert plan.angles.shape == (2, 7)
        assert decompose([]) == []
        empty = OrthPair(np.zeros((0, 4), dtype=complex), np.zeros((0, 4), dtype=complex), 2)
        assert decompose([empty, pair])[0].angles.shape == (0, 3)

    def test_angles_alone(self):
        # Without bases the plans hold the same angles, bit for bit.
        rng = np.random.default_rng(83)
        pairs = [random_pairs(rng, m, 3, real) for m, real in ((3, True), (1, False), (2, True))]
        for full, bare in zip(decompose(pairs), decompose(pairs, bases=False)):
            assert bare.bases is None
            assert np.array_equal(full.angles, bare.angles, equal_nan=True)

    @pytest.mark.parametrize("extra, inner, leaf", [(0, 2, 1), (1, 3, 2)])
    def test_stacks_up_to_the_entry_cap(self, monkeypatch, extra, inner, leaf):
        # A 3-qubit and a 2-qubit pair of STEP_ENTRIES entries in all share
        # the steps at widths 4 and 2; one row more and each steps alone.
        from stateprep.discrimination import STEP_ENTRIES

        rng = np.random.default_rng(82)
        pairs = [random_pairs(rng, 3, STEP_ENTRIES // 16, real=True),
                 random_pairs(rng, 2, STEP_ENTRIES // 8 + extra, real=True)]
        assert sum(p.plus.size for p in pairs) == STEP_ENTRIES + 4 * extra
        steps = count_steps(monkeypatch)
        decompose(pairs)
        assert steps == {"inner": inner, "leaf": leaf}
        assert_same_plans(pairs)
