import numpy as np
import pytest

import stateprep as sp
from stateprep.tolerances import FIDELITY_TOL, PROB_SUM_TOL

DENSE_SQUARES = (0.04, 0.13, 0.16, 0.2, 0.07, 0.09, 0.2, 0.11)


@pytest.fixture
def dense_vector():
    x = np.sqrt(np.array(DENSE_SQUARES))
    return x / np.linalg.norm(x)


@pytest.fixture
def w_vector():
    w = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=float)
    return w / np.linalg.norm(w)


def random_unit(rng, size, floor=0.05):
    x = rng.random(size) + floor
    return x / np.linalg.norm(x)


def random_complex_unit(rng, size):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def random_orthogonal_pair(rng, dim, real=False):
    if real:
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
    else:
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    a = a / np.linalg.norm(a)
    b = b - np.vdot(a, b) * a
    return a, b / np.linalg.norm(b)


def kron_all(mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _one_qubit_matrix(op):
    # Written out here, independent of the simulator's definitions.
    if op.kind in ("roty", "mcroty"):
        c, s = np.cos(op.angle / 2), np.sin(op.angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if op.kind == "rotz":
        return np.diag([np.exp(-0.5j * op.angle), np.exp(0.5j * op.angle)])
    if op.kind == "z":
        return np.diag([1.0, -1.0]).astype(complex)
    if op.kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if op.kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    raise ValueError(op.kind)


def full_unitary(op, n_qubits):
    """Dense matrix of one unitary op, built by explicit kron products.

    Independent of the simulator's tensor indexing: controls and swaps are
    expanded as sums of projector products.
    """
    eye = np.eye(2, dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    dim = 2**n_qubits
    if op.kind == "cswap":
        c, a, b = op.qubits
        out = np.zeros((dim, dim), dtype=complex)
        for basis in range(dim):
            bits = [(basis >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
            if bits[c] == 1:
                bits[a], bits[b] = bits[b], bits[a]
            target = 0
            for v in bits:
                target = (target << 1) | v
            out[target, basis] = 1.0
        return out
    if op.kind == "mcroty" and len(op.qubits) > 1:
        controls = dict(zip(op.qubits[:-1], op.polarities))
        target = op.qubits[-1]
        gate = _one_qubit_matrix(op)
        proj = kron_all(
            [(p1 if controls[q] else p0) if q in controls else eye for q in range(n_qubits)]
        )
        gate_on_target = kron_all([gate if q == target else eye for q in range(n_qubits)])
        return gate_on_target @ proj + (np.eye(dim, dtype=complex) - proj)
    mat = _one_qubit_matrix(op)
    q = op.qubits[-1]
    return kron_all([mat if w == q else eye for w in range(n_qubits)])


def oracle_statevector(circuit):
    """Reference final state for measurement-free circuits via dense
    matrix products (wire 0 is the most significant bit)."""
    dim = 2**circuit.n_qubits
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    for op in circuit.ops:
        assert op.condition is None and op.kind not in ("measure", "reset")
        state = full_unitary(op, circuit.n_qubits) @ state
    return state


def _projector(wire, value, n_qubits):
    eye = np.eye(2, dtype=complex)
    p = np.diag([1.0 - value, float(value)]).astype(complex)
    return kron_all([p if q == wire else eye for q in range(n_qubits)])


def oracle_branches(circuit, prob_floor=1e-14):
    """Reference branch list via unnormalized projector products.

    Enumerates every assignment to the measured bits, replays the full
    circuit with dense matrices and explicit projectors (no state
    shrinking, no renormalization until the end), and extracts the data
    register by slicing the measured wires at their outcomes.  Every
    non-data wire must be measured.
    """
    n = circuit.n_qubits
    meas_ops = [op for op in circuit.ops if op.kind == "measure"]
    assert set(range(n)) - {op.qubits[0] for op in meas_ops} <= set(circuit.data_qubits)
    out = []
    for assignment in np.ndindex(*(2,) * len(meas_ops)):
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        bits = {}
        k = 0
        for op in circuit.ops:
            if op.kind == "measure":
                value = int(assignment[k])
                state = _projector(op.qubits[0], value, n) @ state
                bits[op.clbit] = value
                k += 1
            else:
                if op.condition is not None:
                    value = 0
                    for b in op.condition.bits:
                        value = 2 * value + bits[b]
                    if value not in op.condition.values:
                        continue
                state = full_unitary(op, n) @ state
        prob = float(np.vdot(state, state).real)
        if prob < prob_floor:
            continue
        state = state / np.sqrt(prob)
        tensor = state.reshape((2,) * n)
        idx = [slice(None)] * n
        for op, value in zip(meas_ops, assignment):
            if op.qubits[0] not in circuit.data_qubits:
                idx[op.qubits[0]] = int(value)
        data = tensor[tuple(idx)].reshape(-1)
        out.append((tuple(int(v) for v in assignment), prob, data))
    return out


def reduced_fidelity(state, wires, data_qubits, fixed, target):
    """sqrt(<t|rho|t>): ``rho`` the data register's reduced state of a
    branch whose joint state over ``wires`` is ``state``, with measured data
    wires fixed at ``fixed``; ``t`` the normalized ``target``.  Built as an
    explicit density matrix over the active data wires."""
    wires = list(wires)
    target = np.asarray(target, dtype=complex).reshape((2,) * len(data_qubits))
    target = target / np.linalg.norm(target)
    active_data = [q for q in data_qubits if q in wires]
    # The target's amplitudes on the slice that the measured data wires fix.
    t = target[tuple(slice(None) if q in active_data else fixed[q] for q in data_qubits)]
    tensor = np.moveaxis(
        np.asarray(state).reshape((2,) * len(wires)),
        [wires.index(q) for q in active_data],
        list(range(len(active_data))),
    )
    m = tensor.reshape(2 ** len(active_data), -1)
    rho = m @ m.conj().T / np.vdot(m, m).real
    t = t.reshape(-1)
    return float(np.sqrt(max(np.vdot(t, rho @ t).real, 0.0)))


def reference_report(circuit, target, **run_kwargs):
    """``verify_preparation``'s report, computed branch by branch from
    ``sp.run``, which never merges branches: the reference for the merged
    walk of enumerate mode."""
    branches = sp.run(circuit, **run_kwargs)
    min_fid = min(
        reduced_fidelity(b.residual_state, b.residual_wires, circuit.data_qubits,
                         b.fixed_outcomes, target)
        for b in branches
    )
    total = sum(b.probability for b in branches)
    passed = min_fid >= 1.0 - FIDELITY_TOL and abs(total - 1.0) <= PROB_SUM_TOL
    return sp.VerificationReport(len(branches), total, float(min_fid), passed)


def oracle_layers(circuit, full=True):
    """Reference ASAP schedule: one pass per depth figure.

    Gate depth keeps only unconditioned unitaries that are not
    measurement-basis rotations; every other op gets ``None``.
    """
    def keep(op):
        if full:
            return True
        return op.is_unitary and op.condition is None and op.role != "meas_basis"

    wire_free, bit_ready, out = {}, {}, []
    for op in circuit.ops:
        if not keep(op):
            out.append(None)
            continue
        layer = max([wire_free.get(q, 0) for q in op.qubits], default=0)
        if op.condition is not None:
            layer = max([layer] + [bit_ready.get(b, 0) for b in op.condition.bits])
        out.append(layer)
        for q in op.qubits:
            wire_free[q] = layer + 1
        if op.kind == "measure":
            bit_ready[op.clbit] = layer + 1
    return out


def oracle_metrics(circuit):
    """(qubits, unit_cswaps, depth_gates, depth_full) from ``oracle_layers``."""
    def depth(full):
        kept = [v for v in oracle_layers(circuit, full) if v is not None]
        return 1 + max(kept) if kept else 0

    cswaps = sum(1 for op in circuit.ops if op.kind == "cswap")
    return circuit.n_qubits, cswaps, depth(False), depth(True)
