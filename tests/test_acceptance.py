"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output) and then asserts the criterion at
its stated tolerance.  Criterion 2 pins the synthesized circuit to the
angles of the paper's worked dense example.  For the second leaf-stage
rotation it checks the angle that the printed measurement basis fixes,
2*atan2(1.35, 1.46) = 1.49; the printed angle there (-1.24) is an
erratum, and the test shows that substituting it breaks determinism.
"""

import time
from dataclasses import replace

import numpy as np

import stateprep as sp
from stateprep.circuit import layers
from stateprep.discrimination import OrthPair, decompose, evaluate_plan
from stateprep.divide_conquer import DcOptions

from conftest import (
    DENSE_SQUARES, data_probabilities, fidelity, preorder, random_orthogonal_pair, random_unit,
    records_of, table_of,
)

PI = np.pi


def report(num: int, ok: bool, detail: str = "") -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    return ok


def magnitude_matches(angle: float, target: float, tol: float = 0.01) -> bool:
    """Compare rotation magnitudes, treating the two orderings of the
    measured basis (angles differing by pi) as equivalent."""
    a = abs(angle) % PI
    return min(abs(a - target), abs((PI - a) - target)) <= tol


def test_criterion_1_formula_reproduction():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        x = random_unit(rng, 2**n, floor=0.1)
        c = sp.synthesize_dc(sp.build_tree(x))
        m = sp.metrics(c)
        f = sp.dc_formulas(n)
        ok &= (m.qubits, m.unit_cswaps, m.depth_gates) == (f.qubits, f.cswaps, f.depth)
        if n >= 2:
            parallel = sp.synthesize_dc(sp.build_tree(x), DcOptions(parallelize=True))
            ok &= sp.metrics(parallel).depth_gates == 2 * n - 2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report(1, ok, f"dense formulas n=1..8, {elapsed:.2f}s")


def test_criterion_2_golden_angles(dense_vector):
    tree = sp.build_tree(dense_vector)
    order = preorder(tree)
    angles_ok = np.allclose(
        [tree.alpha[f] for f in order],
        [1.51, 1.94, 2.13, 1.68, 1.90, 1.70, 1.28],
        atol=0.005,
    )

    c = sp.synthesize_dc(tree)
    records = records_of(c.ops)
    basis_rots = [op for op in records if op.role == "meas_basis"]
    by_wire = {}
    for op in basis_rots:
        by_wire.setdefault(op.qubits[0], []).append(op)

    # Leaf-stage measurements on wires 3 and 6.
    stage2_first = magnitude_matches(by_wire[3][0].angle, 1.91)
    # The paper prints the wire-6 basis as (1.46|0> +/- 1.35|1>)/sqrt(2(1 +/- 0.98)),
    # i.e. (a5 +/- a6) normalized, where a5 and a6 are the ancilla states for
    # control 0 and 1.  Those coordinates fix the rotation magnitude; derive it
    # from them, and check them against the dense example itself.
    squares = np.array(DENSE_SQUARES)
    a5 = np.sqrt(squares[4:6]) / np.linalg.norm(np.sqrt(squares[4:6]))
    a6 = np.sqrt(squares[6:8]) / np.linalg.norm(np.sqrt(squares[6:8]))
    basis_ok = tuple(np.round(a5 + a6, 2)) == (1.46, 1.35) and round(float(a5 @ a6), 2) == 0.98
    stage2_expected = 2 * np.arctan2(1.35, 1.46)
    wire6 = by_wire[6][0]
    stage2_second = basis_ok and magnitude_matches(wire6.angle, stage2_expected)

    # Erratum: the paper prints -1.24 for the same rotation, which fits neither
    # that basis nor the method.  With either sign in place of the wire-6
    # rotation, some measurement branch misses the target state.
    published_wire6 = -1.24

    def verifies(angle):
        ops = [replace(op, angle=angle) if op is wire6 else op for op in records]
        return sp.verify_preparation(replace(c, ops=table_of(ops)), dense_vector).passed

    erratum_ok = verifies(wire6.angle) and not any(
        verifies(sign * published_wire6) for sign in (1, -1)
    )

    # Final-stage adaptive measurement: wire 4 first, then wire 5.
    adaptive_a = magnitude_matches(by_wire[4][0].angle, 1.97)
    # Wire 5's rotation selects one angle per wire-4 outcome.
    adaptive_b = any(magnitude_matches(a, 1.19) for op in by_wire[5] for a in op.angle)

    ok = angles_ok and stage2_first and stage2_second and erratum_ok and adaptive_a and adaptive_b
    detail = (
        f"alpha {angles_ok}, stage2 1.91 {stage2_first}, "
        f"stage2 {stage2_expected:.4f} {stage2_second} (synthesized {abs(wire6.angle):.4f}), "
        f"erratum {published_wire6} breaks verification {erratum_ok}, "
        f"adaptive 1.97 {adaptive_a}, 1.19 {adaptive_b}"
    )
    assert report(2, ok, detail)


def test_criterion_3_deterministic_preparation():
    rng = np.random.default_rng(300)
    ok = True
    counts = {}
    for n in (2, 3, 4):
        for _ in range(200):
            x = random_unit(rng, 2**n, floor=0.0)
            c = sp.synthesize_dc(sp.build_tree(x))
            rep = sp.verify_preparation(c, x)
            counts[n] = rep.branches
            ok &= rep.min_fidelity >= 1 - 1e-9
            ok &= abs(rep.sum_prob - 1) <= 1e-10
    assert report(3, ok, f"200 vectors each at n=2,3,4; branches {counts}")


def test_criterion_4_w_state(w_vector):
    c = sp.synthesize_dc(sp.build_tree(w_vector), DcOptions(prune=True))
    six_qubits = c.n_qubits == 6

    branches = sp.run(c)
    first_final_bit = c.stage_reports[-1].clbits[0]
    p0 = sum(b.probability for b in branches if b.outcomes[first_final_bit] == 0)
    p1 = sum(b.probability for b in branches if b.outcomes[first_final_bit] == 1)
    unbiased = abs(p0 - 0.5) <= 1e-10 and abs(p1 - 0.5) <= 1e-10

    all_w = all(fidelity(b.data_state, w_vector) >= 1 - 1e-9 for b in branches)

    control = [op for op in records_of(c.ops) if op.role == "load" and op.kind == "roty"]
    angle_ok = len(control) == 1 and abs(abs(control[0].angle) - 1.23) <= 0.005

    ok = six_qubits and unbiased and all_w and angle_ok
    assert report(4, ok, f"qubits={c.n_qubits}, p0={p0:.12f}, angle={control[0].angle:.4f}")


def test_criterion_5_entangled_baseline():
    rng = np.random.default_rng(500)
    probs_ok = True
    failures = 0
    for _ in range(10):
        x = random_unit(rng, 8)
        c = sp.synthesize_dc(sp.build_tree(x), DcOptions(disentangle=False))
        [branch] = sp.run(c)
        probs = data_probabilities(branch, c.data_qubits)
        probs_ok &= bool(np.allclose(probs, x**2, atol=1e-9))
        if not sp.verify_preparation(c, x).passed:
            failures += 1
    ok = probs_ok and failures >= 1
    assert report(5, ok, f"amplitude profile kept; {failures}/10 inputs fail verification")


def test_criterion_6_discrimination_properties():
    rng = np.random.default_rng(600)
    ok = True
    for i in range(500):
        m = int(rng.integers(1, 4))
        real = i % 2 == 0
        plus, minus = random_orthogonal_pair(rng, 2**m, real=real)
        pair = OrthPair.from_states(plus, minus)
        plan = decompose(pair)  # residual orthogonality checked inside
        mis_plus = sum(p for _, label, p in evaluate_plan(plan, pair.plus) if label == "-")
        mis_minus = sum(p for _, label, p in evaluate_plan(plan, pair.minus) if label == "+")
        ok &= mis_plus <= 1e-10 and mis_minus <= 1e-10
        if real:
            ok &= not np.isnan(plan.angles).any()
            ok &= float(np.max(np.abs(plan.bases.imag))) < 1e-12
    assert report(6, ok, "500 pairs, m in 1..3")


def test_criterion_7_hybrid_interpolation():
    rng = np.random.default_rng(700)
    x16 = random_unit(rng, 16)
    m = sp.metrics(sp.synthesize_hybrid(sp.build_tree(x16), 2))
    point_ok = (m.qubits, m.depth_gates) == (11, 8)

    formulas_ok = True
    for n in range(1, 7):
        tree = sp.build_tree(random_unit(rng, 2**n))
        for lam in range(1, n + 1):
            mm = sp.metrics(sp.synthesize_hybrid(tree, lam))
            f = sp.hybrid_formulas(n, lam)
            formulas_ok &= (mm.qubits, mm.depth_gates) == (f.qubits, f.depth)

    endpoints_ok = True
    for n in (2, 3, 4, 5):
        tree = sp.build_tree(random_unit(rng, 2**n))
        dc_m = sp.metrics(sp.synthesize_dc(tree))
        h1 = sp.metrics(sp.synthesize_hybrid(tree, 1))
        endpoints_ok &= dc_m == h1
        te = sp.metrics(sp.synthesize_time(tree))
        hn = sp.metrics(sp.synthesize_hybrid(tree, n))
        endpoints_ok &= te == hn

    branches_ok = True
    for n in (2, 3, 4):
        for lam in range(1, n + 1):
            for _ in range(10):
                x = random_unit(rng, 2**n, floor=0.0)
                c = sp.synthesize_hybrid(sp.build_tree(x), lam)
                branches_ok &= sp.verify_preparation(c, x).passed

    ok = point_ok and formulas_ok and endpoints_ok and branches_ok
    assert report(
        7,
        ok,
        f"(11,8) {point_ok}, formulas {formulas_ok}, endpoints {endpoints_ok}, branches {branches_ok}",
    )


def test_criterion_8_resource_calculators():
    pts = {
        (7, 3): 1,
        (8, 3): 1,
        (10, 3): 2,
        (14, 3): 3,
    }
    ok = all(sp.reuse_schedule(q, n).total_circuits == t for (q, n), t in pts.items())
    ok &= sp.reuse_schedule(14, 3).max_parallel == 2
    mr = sp.midreset_formulas(3)
    ok &= (mr.q_min, mr.depth) == (6, 9)
    assert report(8, ok, "reuse points and mid-reset figures")


def test_criterion_9_sparse_bound():
    rng = np.random.default_rng(900)
    n = 5
    ok = True
    worst = 0
    for d in (2, 3, 4):
        for _ in range(50):
            x = np.zeros(2**n)
            idx = rng.choice(2**n, size=d, replace=False)
            x[idx] = rng.random(d) + 0.1
            x /= np.linalg.norm(x)
            c = sp.synthesize_dc(sp.build_tree(x), DcOptions(prune=True))
            worst = max(worst, c.n_qubits)
            ok &= c.n_qubits <= n * d
            ok &= sp.verify_preparation(c, x).passed
    assert report(9, ok, f"150 sparse states, worst width {worst}")


def test_criterion_10_swap_scheduling():
    rng = np.random.default_rng(1000)
    ok = True
    for n in range(4, 9):
        x = random_unit(rng, 2**n)
        c = sp.synthesize_dc(sp.build_tree(x))
        cp = sp.synthesize_dc(sp.build_tree(x), DcOptions(parallelize=True))

        layer_idx = layers(cp, full=False)
        by_layer = {}
        disjoint = True
        for op, layer in zip(records_of(cp.ops), layer_idx):
            if layer is None or op.kind != "cswap":
                continue
            wires = by_layer.setdefault(layer, set())
            if wires & set(op.qubits):
                disjoint = False
            wires |= set(op.qubits)
        ok &= disjoint

        def target_orders(circ):
            orders = {}
            for op in records_of(circ.ops):
                if op.kind != "cswap":
                    continue
                for q in op.qubits[1:]:
                    orders.setdefault(q, []).append(op.qubits)
            return orders

        ok &= target_orders(c) == target_orders(cp)

        if n <= 4:
            before = sp.run(c)
            after = sp.run(cp)
            ok &= len(before) == len(after)
            for a, b in zip(before, after):
                ok &= a.outcomes == b.outcomes
                ok &= abs(a.probability - b.probability) <= 1e-12
                ok &= bool(np.allclose(a.data_state, b.data_state, atol=1e-12))
    assert report(10, ok, "layer disjointness, order preservation, state equality")
