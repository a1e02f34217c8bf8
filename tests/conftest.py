from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
import pytest

import stateprep as sp
from stateprep import discrimination
from stateprep.circuit import KIND, KINDS, RAGGED, ROLE, ROLES, UNITARY_KINDS, op_table
from stateprep.errors import DimensionMismatch
from stateprep.simulator import _data_matrices
from stateprep.tolerances import FIDELITY_TOL, PROB_SUM_TOL, STATE_EQ_TOL, ZERO_NORM_TOL
from stateprep.vector import normalize

DENSE_SQUARES = (0.04, 0.13, 0.16, 0.2, 0.07, 0.09, 0.2, 0.11)


# Test records: how tests write circuits by hand and read them op by op.
# ``table_of`` turns records into the op table that ``Circuit`` takes, and
# ``records_of`` reads a table back as records.


@dataclass(frozen=True)
class Condition:
    """Fires when the integer ``bits`` spell (``bits[0]`` most significant)
    is in ``values``."""

    bits: tuple[int, ...]
    values: tuple[int, ...]


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | tuple[float, ...] | None = None  # a tuple: one per condition value
    clbit: int | None = None
    polarities: tuple[int, ...] | None = None
    condition: Condition | None = None
    role: str | None = None


def roty(q, theta, condition=None, role=None):
    theta = tuple(map(float, theta)) if isinstance(theta, tuple) else float(theta)
    return Gate("roty", (q,), angle=theta, condition=condition, role=role)


def rotz(q, phi, condition=None, role=None):
    return Gate("rotz", (q,), angle=float(phi), condition=condition, role=role)


def pauli_z(q, condition=None, role=None):
    return Gate("z", (q,), condition=condition, role=role)


def pauli_x(q, condition=None, role=None):
    return Gate("x", (q,), condition=condition, role=role)


def hadamard(q, condition=None, role=None):
    return Gate("h", (q,), condition=condition, role=role)


def cswap(control, target_a, target_b, role=None):
    return Gate("cswap", (control, target_a, target_b), role=role)


def mcroty(theta, controls, target, role=None):
    """A y-rotation of ``target`` controlled by (wire, polarity) pairs."""
    controls = tuple(controls)
    qubits = tuple(q for q, _ in controls) + (target,)
    pols = tuple(int(p) for _, p in controls)
    return Gate("mcroty", qubits, angle=float(theta), polarities=pols, role=role)


def measure(q, clbit):
    return Gate("measure", (q,), clbit=clbit)


def reset(q):
    return Gate("reset", (q,))


def table_of(gates):
    """The op table of ``gates``; a kind or role that the package does not
    name becomes code -1, which ``validate`` refuses."""
    conds = [g.condition or Condition((), ()) for g in gates]
    ragged = ([g.qubits for g in gates], [g.polarities or () for g in gates],
              [c.bits for c in conds], [c.values for c in conds],
              [np.ravel(() if g.angle is None else g.angle) for g in gates])
    return op_table([KIND.get(g.kind, -1) for g in gates],
                    *[(list(chain.from_iterable(r)), list(map(len, r))) for r in ragged],
                    role=[ROLE.get(g.role, -1) for g in gates],
                    clbit=[-1 if g.clbit is None else g.clbit for g in gates])


def records_of(table):
    """The ops of ``table`` as records, a selected rotation's angles as one
    tuple: ``table_of`` of them is ``table``."""
    def record(k, r, c, q, p, b, v, a):
        return Gate(KINDS[k], q, a[0] if len(a) == 1 else a or None, None if c < 0 else c,
                    p if k == KIND["mcroty"] else None, Condition(b, v) if b else None, ROLES[r])

    rows = (map(tuple, table.rows(j)) for j in range(len(RAGGED)))
    return list(map(record, table.kind.tolist(), table.role.tolist(), table.clbit.tolist(), *rows))


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


def count_steps(monkeypatch):
    """Counts of the kernel's inner and leaf steps from here on."""
    steps = {"inner": 0, "leaf": 0}
    for name, key in (("_inner_step", "inner"), ("_leaf_step", "leaf")):
        def counted(*args, _step=getattr(discrimination, name), _key=key):
            steps[_key] += 1
            return _step(*args)
        monkeypatch.setattr(discrimination, name, counted)
    return steps


def level_of(f):
    return (f + 1).bit_length() - 1


def children_of(f):
    return 2 * f + 1, 2 * f + 2


def preorder(tree):
    """Node indices in root, left-subtree, right-subtree order."""
    out, stack = [], [0]
    while stack:
        f = stack.pop()
        out.append(f)
        left, right = children_of(f)
        if left < tree.num_nodes:
            stack += [right, left]
    return out


def subtree_state(tree, f):
    """Normalized state of the ``n - level(f)`` qubits below node ``f``;
    ``|0...0>`` when no amplitude lies below it."""
    if not 0 <= f < tree.num_nodes:
        raise IndexError(f"node index {f} out of range")
    level = level_of(f)
    return tree.states[level][f + 1 - 2**level].copy()


def statevector(circuit):
    """Full state of a measurement-free circuit as a flat vector, from ``sp.run``."""
    if np.isin(circuit.ops.kind, [KIND["measure"], KIND["reset"]]).any():
        raise ValueError("statevector requires a measurement-free circuit")
    [branch] = sp.run(circuit)
    return branch.residual_state


def fidelity(a, b):
    """Global-phase-insensitive overlap magnitude of two vectors, each normalized."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    return float(np.abs(np.vdot(normalize(a), normalize(b))))


def data_probabilities(branch, data_qubits):
    """Marginal computational probabilities of the data register of a ``sp.run`` branch."""
    mats = _data_matrices(branch.residual_state[None], branch.residual_wires, data_qubits,
                          branch.fixed_outcomes)
    return np.sum(np.abs(mats[0]) ** 2, axis=1)


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


def full_unitary(op, n_qubits, value=None):
    """Dense matrix of one unitary op, built by explicit kron products; a
    selected rotation applies the angle of the condition ``value`` that fired.

    Independent of the simulator's tensor indexing: controls and swaps are
    expanded as sums of projector products.
    """
    if isinstance(op.angle, tuple):
        op = replace(op, angle=op.angle[op.condition.values.index(value)])
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
    for op in records_of(circuit.ops):
        assert op.condition is None and op.kind not in ("measure", "reset")
        state = full_unitary(op, circuit.n_qubits) @ state
    return state


def _on_wire(mat, wire, n_qubits):
    eye = np.eye(2, dtype=complex)
    return kron_all([np.array(mat, dtype=complex) if q == wire else eye for q in range(n_qubits)])


def oracle_branches(circuit, prob_floor=1e-14):
    """Reference branch list via unnormalized projector products.

    Enumerates every outcome assignment of the splitting ops (measurements
    and resets, in op order), replays the full circuit with dense matrices
    and explicit projectors (no state shrinking, no renormalization until
    the end), and extracts the data register by slicing each non-data wire
    at the value that its last op fixed: a measurement's outcome, or 0
    after a reset.  A reset projects its wire onto the outcome and flips
    outcome 1 back to |0>.  Every non-data wire must end in a measurement
    or a reset.
    """
    n = circuit.n_qubits
    ops = records_of(circuit.ops)
    splits = [i for i, op in enumerate(ops) if op.kind in ("measure", "reset")]
    last = {q: i for i, op in enumerate(ops) for q in op.qubits}
    ancillas = [q for q in range(n) if q not in circuit.data_qubits]
    assert all(last.get(q) in splits for q in ancillas)
    out = []
    for assignment in np.ndindex(*(2,) * len(splits)):
        outcome = dict(zip(splits, (int(v) for v in assignment)))
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        bits = {}
        for i, op in enumerate(ops):
            if i in outcome:
                value = outcome[i]
                state = _on_wire(np.diag([1.0 - value, float(value)]), op.qubits[0], n) @ state
                if op.kind == "measure":
                    bits[op.clbit] = value
                elif value:
                    state = _on_wire([[0, 1], [1, 0]], op.qubits[0], n) @ state
                continue
            value = None
            if op.condition is not None:
                value = 0
                for b in op.condition.bits:
                    value = 2 * value + bits[b]
                if value not in op.condition.values:
                    continue
            state = full_unitary(op, n, value) @ state
        prob = float(np.vdot(state, state).real)
        if prob < prob_floor:
            continue
        state = state / np.sqrt(prob)
        tensor = state.reshape((2,) * n)
        idx = [slice(None)] * n
        for q in ancillas:
            idx[q] = outcome[last[q]] if ops[last[q]].kind == "measure" else 0
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
    """Reference ASAP schedule: one pass per depth figure, over the
    circuit's records.

    Gate depth keeps only unconditioned unitaries that are not
    measurement-basis rotations; every other op gets ``None``.
    """
    def keep(op):
        if full:
            return True
        return op.kind in UNITARY_KINDS and op.condition is None and op.role != "meas_basis"

    wire_free, bit_ready, out = {}, {}, []
    for op in records_of(circuit.ops):
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


def per_value_records(table):
    """The records of ``table`` with each selected rotation split into one
    record per condition value, as documents were written before selected
    rotations: the form of the golden and ``exact/per_value_*`` fixtures."""
    out = []
    for op in records_of(table):
        if not isinstance(op.angle, tuple):
            out.append(op)
            continue
        bits, values = op.condition.bits, op.condition.values
        out += [replace(op, angle=a, condition=Condition(bits, (v,)))
                for a, v in zip(op.angle, values)]
    return out


def reference_waits(table):
    """``OpTable.waits`` by a plain per-op walk: per ``qubits`` entry the
    last earlier op on its wire, per ``bits`` entry the last earlier
    ``measure`` of its clbit, -1 for none."""
    last_on, measured_by, wire, bit = {}, {}, [], []
    rows = zip(table.kind.tolist(), table.clbit.tolist(), table.rows(0), table.rows(2))
    for i, (kind, clbit, qubits, bits) in enumerate(rows):
        wire += [last_on.get(q, -1) for q in qubits]
        bit += [measured_by.get(b, -1) for b in bits]
        last_on.update(dict.fromkeys(qubits, i))
        if kind == KIND["measure"]:
            measured_by[clbit] = i
    return wire, bit


def reference_plan(tree, block_level, prune):
    """The synthesis plan by a recursive pre-order visit: per node above
    the blocks its mode, ``"combine"``, ``"left"`` or ``"right"`` (the
    child or children it keeps); per planned node, in pre-order, its own
    wires and its live register, the wires that hold its subtree's state."""
    mode, wires, live = {}, {}, {}

    def visit(f, level, cursor):
        if level == block_level:
            wires[f] = live[f] = list(range(cursor, cursor + tree.n - level))
            return cursor + tree.n - level
        wires[f] = [cursor]
        p = f + 1 - 2**level
        states = tree.states[level + 1]
        if not prune:
            mode[f] = "combine"
        elif tree.omega1[f] <= ZERO_NORM_TOL:
            mode[f] = "left"
        elif tree.omega0[f] <= ZERO_NORM_TOL:
            mode[f] = "right"
        elif np.max(np.abs(states[2 * p] - states[2 * p + 1])) <= STATE_EQ_TOL:
            mode[f] = "left"
        else:
            mode[f] = "combine"
        cursor += 1
        if mode[f] != "right":
            cursor = visit(2 * f + 1, level + 1, cursor)
        if mode[f] != "left":
            cursor = visit(2 * f + 2, level + 1, cursor)
        live[f] = wires[f] + live[2 * f + 2 if mode[f] == "right" else 2 * f + 1]
        return cursor

    visit(0, 0, 0)
    return mode, wires, live


def assert_waits_match_reference(table):
    wire, bit = table.waits
    assert (wire.tolist(), bit.tolist()) == reference_waits(table)


def oracle_metrics(circuit):
    """(qubits, unit_cswaps, depth_gates, depth_full) from ``oracle_layers``."""
    def depth(full):
        kept = [v for v in oracle_layers(circuit, full) if v is not None]
        return 1 + max(kept) if kept else 0

    cswaps = sum(1 for op in records_of(circuit.ops) if op.kind == "cswap")
    return circuit.n_qubits, cswaps, depth(False), depth(True)
