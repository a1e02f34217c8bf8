"""Statevector simulation with mid-circuit measurement and feed-forward.

Wire 0 is the most significant index bit.  One breadth-first walk serves
both modes: it advances every branch together, as one row of a frontier
tensor with an axis per *active* wire, and reads each op once.  Nothing
conditions a measurement, so every branch has the same active wires at
every op, and the two slices an op mixes or splits are indexed once per
circuit (``_layout``).  A unitary replaces its two slices by a 2x2 mix of
them; a conditioned one mixes only the rows whose bits fire it.  A
``measure`` or ``reset`` splits each row in two, outcome 0 first, so rows
stay in lexicographic outcome order; a measured wire's axis is dropped and
a reset wire is put back in |0>.  ``enumerate`` weighs a row by its path
probability and keeps every outcome of probability at least
``BRANCH_PROB_TOL``.  ``sample`` weighs it by its shot count, splits the
shots between the outcomes with one binomial draw per row and keeps those
that receive any, so the counts are multinomial and no shot count makes
the walk longer than enumeration.

The frontier holds every live branch at once.  Without ``reset`` it never
holds more amplitudes than the initial tensor, since a split halves each
row; a reset that can give either outcome doubles it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import DimensionMismatch, TooManyBranches
from .tolerances import BRANCH_PROB_TOL, EMPTY_COLUMN_TOL, FIDELITY_TOL, PROB_SUM_TOL

DEFAULT_BRANCH_CAP = 14
# The largest shot count a binomial draw takes: numpy's int64.
MAX_SHOTS = 2**63 - 1

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_FIXED_MATRICES = {
    "z": np.diag([1.0, -1.0]).astype(complex),
    "x": _X,
    "cswap": _X,  # exchanges its slices 01 and 10
    "h": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
}


def _matrix(op) -> np.ndarray | None:
    """The 2x2 matrix that mixes ``op``'s two slices; None for ``measure``
    and ``reset``."""
    if op.kind in ("roty", "mcroty"):
        c, s = np.cos(op.angle / 2.0), np.sin(op.angle / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if op.kind == "rotz":
        return np.diag([np.exp(-0.5j * op.angle), np.exp(0.5j * op.angle)])
    return _FIXED_MATRICES.get(op.kind)


@dataclass
class Branch:
    """One measurement trajectory: outcomes, Born probability and the
    state left on the data register.  ``residual_state`` holds the joint
    state of all still-active wires (``residual_wires``) for diagnostics,
    and ``fixed_outcomes`` maps each measured wire to its collapsed value.
    """

    outcomes: tuple[int, ...]
    probability: float
    data_state: np.ndarray
    residual_wires: tuple[int, ...]
    residual_state: np.ndarray
    fixed_outcomes: dict[int, int]


@dataclass
class VerificationReport:
    branches: int
    sum_prob: float
    min_fidelity: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "branches": self.branches,
            "sum_prob": self.sum_prob,
            "min_fidelity": self.min_fidelity,
            "pass": self.passed,
        }


def _layout(circuit: Circuit):
    """Per op, the index tuples of the two frontier slices that it mixes
    or splits, axis 0 running over branches; and the wires active at the
    end.  A ``mcroty`` fixes its controls to their polarities and a
    ``cswap`` its control to 1 and its targets to 01 and 10.  A tuple ends
    at its last fixed axis, so a split's wire is the last axis it names.
    """
    active = list(range(circuit.n_qubits))
    out = []
    for op in circuit.ops:
        *controls, target = op.qubits
        fixed = dict(zip(controls, op.polarities or ()))
        ends = ({target: 0}, {target: 1})
        if op.kind == "cswap":
            fixed = {controls[0]: 1}
            ends = ({controls[1]: 0, target: 1}, {controls[1]: 1, target: 0})
        stop = 1 + max(map(active.index, op.qubits))
        out.append(
            tuple(
                (slice(None),) + tuple({**fixed, **end}.get(q, slice(None)) for q in active[:stop])
                for end in ends
            )
        )
        if op.kind == "measure":
            active.remove(target)
    return out, active


def _mix(state: np.ndarray, i0, i1, mat: np.ndarray, fires) -> None:
    """Replace the slices ``a = state[i0]`` and ``b = state[i1]`` by
    ``mat @ (a, b)``, on the rows where ``fires`` (all if None)."""
    (m00, m01), (m10, m11) = mat.tolist()
    if m01 == 0 and m10 == 0:
        # A diagonal matrix scales the slices in place, each row by its own
        # factor: 1 where the condition does not fire.
        a, b = state[i0], state[i1]
        if fires is not None:
            shape = (-1,) + (1,) * (a.ndim - 1)
            m00, m11 = (np.where(fires, m, 1).reshape(shape) for m in (m00, m11))
        a *= m00
        b *= m11
        return
    if fires is not None:
        rows = np.flatnonzero(fires)
        i0, i1 = (rows,) + i0[1:], (rows,) + i1[1:]
    a, b = state[i0], state[i1]  # views, or copies of the rows that fire
    tmp = a.copy()
    a *= m00
    a += m01 * b
    b *= m11
    b += m10 * tmp
    if fires is not None:
        state[i0], state[i1] = a, b


def _fires(cond, outcomes: np.ndarray, column: dict[int, int]) -> np.ndarray:
    """Whether ``cond`` holds on each row of ``outcomes``; ``column`` maps
    a clbit to the outcome column that wrote it.  ``values`` ascend, so a
    binary search finds each row's integer.  The bits are distinct, each
    from its own measured wire, so a state that allocates has fewer than
    63 of them and the integers fit in int64."""
    place = 1 << np.arange(len(cond.bits) - 1, -1, -1, dtype=np.int64)
    idx = outcomes[:, [column[b] for b in cond.bits]] @ place
    values = np.array((*cond.values, -1), dtype=np.int64)
    return values[np.searchsorted(values[:-1], idx)] == idx


def _norm_sq(a: np.ndarray) -> np.ndarray:
    """Squared norm of each row (axis 0) of ``a``."""
    sq = a.real**2 + a.imag**2
    return sq.reshape(len(sq), -1).sum(axis=1)


def _walk(circuit: Circuit, rng, total) -> list[Branch]:
    """Breadth-first over the outcome tree, reading each op once.  Without
    ``rng`` every outcome above ``BRANCH_PROB_TOL`` is kept; with it,
    ``total`` shots are split binomially at each measurement."""
    slices, active = _layout(circuit)
    state = np.zeros((1,) + (2,) * circuit.n_qubits, dtype=complex)
    state.flat[0] = 1.0
    outcomes = np.zeros((1, 0), dtype=np.int8)
    weight = np.array([total])
    column: dict[int, int] = {}  # clbit -> the outcome column it holds
    measured: dict[int, int] = {}  # measured wire -> its outcome column
    for op, (i0, i1) in zip(circuit.ops, slices):
        if op.kind not in ("measure", "reset"):
            fires = None if op.condition is None else _fires(op.condition, outcomes, column)
            _mix(state, i0, i1, _matrix(op), fires)
            continue
        probs = np.stack((_norm_sq(state[i0]), _norm_sq(state[i1])), axis=1)
        if rng is None:
            split = weight[:, None] * probs
            split[split < BRANCH_PROB_TOL] = 0.0
        else:
            k1 = rng.binomial(weight, probs[:, 1] / probs.sum(axis=1))
            split = np.stack((weight - k1, k1), axis=1)
        # Row-major order puts each row's outcome 0 first: lexicographic.
        rows, outs = np.nonzero(split)
        kept = state[(rows,) + i0[1:-1] + (outs,)]
        kept /= np.sqrt(probs[rows, outs]).reshape((-1,) + (1,) * (kept.ndim - 1))
        if op.kind == "measure":
            state = kept
            column[op.clbit] = measured[op.qubits[0]] = outcomes.shape[1]
        else:
            state = np.zeros((len(rows),) + state.shape[1:], dtype=complex)
            state[i0] = kept
        outcomes = np.column_stack((outcomes[rows], outs.astype(np.int8)))
        weight = split[rows, outs]
    out = []
    for row, outs, w in zip(state, outcomes.tolist(), weight.tolist()):
        fixed = {q: outs[k] for q, k in measured.items()}
        out.append(
            Branch(
                outcomes=tuple(outs),
                probability=w / total,
                data_state=_extract_data_state(row, active, circuit.data_qubits, fixed),
                residual_wires=tuple(active),
                residual_state=row.reshape(-1),
                fixed_outcomes=fixed,
            )
        )
    return out


def _data_rows(state: np.ndarray, active, data_qubits):
    """The active data wires of ``data_qubits`` (in that order), and
    ``state`` over ``active`` as a matrix with one row per assignment of
    them and one column per assignment of the other active wires."""
    active_data = [q for q in data_qubits if q in active]
    perm = [active.index(q) for q in active_data] + [
        i for i, w in enumerate(active) if w not in active_data
    ]
    tensor = np.transpose(state.reshape((2,) * len(active)), perm)
    return active_data, tensor.reshape(2 ** len(active_data), -1)


def _embed_measured(vec: np.ndarray, active_data, data_qubits, fixed) -> np.ndarray:
    """Widen ``vec``, over ``active_data``, to all of ``data_qubits`` by
    fixing each measured data wire to its outcome in ``fixed``."""
    if len(active_data) == len(data_qubits):
        return vec
    full = np.zeros((2,) * len(data_qubits), dtype=vec.dtype)
    idx = tuple(slice(None) if q in active_data else fixed[q] for q in data_qubits)
    full[idx] = vec.reshape((2,) * len(active_data))
    return full.reshape(-1)


def _extract_data_state(state: np.ndarray, active, data_qubits, fixed) -> np.ndarray:
    """Best pure state on the data register, from one branch's ``state``
    over ``active`` and its measured wires' outcomes ``fixed``.

    When the remaining wires factor out (the usual case after the
    disentangling measurements) this is exact; otherwise the principal
    eigenvector of the reduced density matrix is returned, so entangled
    residue shows up as fidelity loss.
    """
    if list(data_qubits) == active:
        vec = state.reshape(-1)
        return vec / np.linalg.norm(vec)
    active_data, mat = _data_rows(state, active, data_qubits)
    col_norms = np.sum(np.abs(mat) ** 2, axis=0)
    nonzero = np.flatnonzero(col_norms > EMPTY_COLUMN_TOL)
    if len(nonzero) == 1:
        vec = mat[:, nonzero[0]]
    else:
        _, vecs = np.linalg.eigh(mat @ mat.conj().T)
        vec = vecs[:, -1]
    vec = vec / np.linalg.norm(vec)
    return _embed_measured(vec, active_data, data_qubits, fixed)


def run(
    circuit: Circuit,
    mode: str = "enumerate",
    shots: int | None = None,
    seed: int | None = None,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> list[Branch]:
    """Simulate ``circuit`` and return its measurement branches.

    ``enumerate`` explores every outcome assignment (requires at most
    ``branch_cap`` measured wires); ``sample`` splits ``shots`` seeded
    shots over the branches and reports frequencies as probabilities.
    """
    if mode == "enumerate":
        n_meas = sum(1 for op in circuit.ops if op.kind == "measure")
        if n_meas > branch_cap:
            raise TooManyBranches(f"{n_meas} measured wires exceed cap {branch_cap}")
        return _walk(circuit, None, 1.0)
    if mode == "sample":
        if not shots or shots <= 0:
            raise ValueError("sample mode needs a positive shot count")
        if shots > MAX_SHOTS:
            raise ValueError(f"shot count {shots} exceeds {MAX_SHOTS}")
        return _walk(circuit, np.random.default_rng(seed), shots)
    raise ValueError(f"unknown mode {mode!r}")


def statevector(circuit: Circuit) -> np.ndarray:
    """Full state of a measurement-free circuit as a flat vector."""
    if any(op.kind in ("measure", "reset") for op in circuit.ops):
        raise ValueError("statevector requires a measurement-free circuit")
    [branch] = run(circuit)
    return branch.residual_state


def fidelity(a, b) -> float:
    """Global-phase-insensitive overlap magnitude of two unit vectors."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DimensionMismatch("zero-norm input")
    return float(np.abs(np.vdot(a, b)) / (na * nb))


def data_probabilities(branch: Branch, data_qubits) -> np.ndarray:
    """Marginal computational probabilities of the data register."""
    active_data, mat = _data_rows(
        branch.residual_state, list(branch.residual_wires), data_qubits
    )
    probs = np.sum(np.abs(mat) ** 2, axis=1)
    return _embed_measured(probs, active_data, data_qubits, branch.fixed_outcomes)


def verify_preparation(
    circuit: Circuit,
    target,
    mode: str = "enumerate",
    shots: int | None = None,
    seed: int | None = None,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> VerificationReport:
    """Check that every branch leaves the data register in ``target``."""
    target = np.asarray(target, dtype=complex).reshape(-1)
    if 2 ** len(circuit.data_qubits) != target.size:
        raise DimensionMismatch(
            f"target dimension {target.size} vs data register {len(circuit.data_qubits)}"
        )
    branches = run(circuit, mode=mode, shots=shots, seed=seed, branch_cap=branch_cap)
    stacked = np.stack([b.data_state for b in branches])
    min_fid = float(np.min(np.abs(stacked.conj() @ (target / np.linalg.norm(target)))))
    total = float(sum(b.probability for b in branches))
    passed = min_fid >= 1.0 - FIDELITY_TOL and abs(total - 1.0) <= PROB_SUM_TOL
    return VerificationReport(
        branches=len(branches), sum_prob=total, min_fidelity=min_fid, passed=passed
    )
