"""Statevector simulation with mid-circuit measurement and feed-forward.

The state is kept as a tensor with one axis per *active* wire (wire 0 is
the most significant index bit).  A measured wire collapses to a
computational value and its axis is dropped, so branch enumeration stays
cheap even for circuits that measure most of their wires.  ``enumerate``
mode explores both outcomes of every measurement depth-first and returns
branches in lexicographic outcome order; ``sample`` mode draws seeded
shots and aggregates identical outcome strings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import DimensionMismatch, TooManyBranches

BRANCH_PROB_TOL = 1e-14
DEFAULT_BRANCH_CAP = 14


def _roty_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rotz_matrix(phi: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * phi / 2.0), 0.0], [0.0, np.exp(1j * phi / 2.0)]], dtype=complex
    )


_Z = np.diag([1.0, -1.0]).astype(complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _single_qubit_matrix(op) -> np.ndarray:
    if op.kind in ("roty", "mcroty"):
        return _roty_matrix(op.angle)
    if op.kind == "rotz":
        return _rotz_matrix(op.angle)
    if op.kind == "z":
        return _Z
    if op.kind == "x":
        return _X
    if op.kind == "h":
        return _H
    raise ValueError(f"not a single-qubit unitary: {op.kind}")


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


class _Frame:
    """Mutable simulation frame: active tensor plus classical records."""

    __slots__ = ("state", "active", "bits", "outcomes", "fixed", "prob")

    def __init__(self, state, active, bits, outcomes, fixed, prob):
        self.state = state
        self.active = active
        self.bits = bits
        self.outcomes = outcomes
        self.fixed = fixed
        self.prob = prob

    def copy(self, state=None) -> "_Frame":
        return _Frame(
            self.state if state is None else state,
            list(self.active),
            dict(self.bits),
            list(self.outcomes),
            dict(self.fixed),
            self.prob,
        )


def _split_view(state: np.ndarray, ax: int):
    """View of a contiguous tensor as (pre, 2, post) around axis ``ax``.

    The caller mutates the result in place, so a silent reshape copy
    would corrupt the simulation; frames keep their buffers contiguous.
    """
    if not state.flags.c_contiguous:
        raise AssertionError("simulation state buffer lost contiguity")
    pre = 1
    for d in range(ax):
        pre *= state.shape[d]
    post = state.size // (2 * pre)
    return state.reshape(pre, 2, post)


def _apply_unitary(frame: _Frame, op) -> None:
    active = frame.active
    state = frame.state
    if op.kind == "cswap":
        c, a, b = (active.index(q) for q in op.qubits)
        idx = [slice(None)] * state.ndim
        idx[c] = 1
        sub = state[tuple(idx)]
        adj = lambda ax: ax - (1 if ax > c else 0)
        state[tuple(idx)] = np.swapaxes(sub, adj(a), adj(b)).copy()
        return
    if op.kind == "mcroty" and len(op.qubits) > 1:
        mat = _single_qubit_matrix(op)
        controls = op.qubits[:-1]
        target = op.qubits[-1]
        caxes = [active.index(q) for q in controls]
        idx = [slice(None)] * state.ndim
        for ax, pol in zip(caxes, op.polarities):
            idx[ax] = pol
        sub = state[tuple(idx)]
        t_full = active.index(target)
        t_ax = t_full - sum(1 for ax in caxes if ax < t_full)
        sub = np.tensordot(mat, sub, axes=([1], [t_ax]))
        state[tuple(idx)] = np.moveaxis(sub, 0, t_ax)
        return
    v = _split_view(state, active.index(op.qubits[-1]))
    v0, v1 = v[:, 0, :], v[:, 1, :]
    if op.kind == "z":
        v1 *= -1.0
        return
    if op.kind == "x":
        tmp = v0.copy()
        v0[...] = v1
        v1[...] = tmp
        return
    if op.kind == "roty":
        c, s = np.cos(op.angle / 2.0), np.sin(op.angle / 2.0)
        tmp = v0.copy()
        v0 *= c
        v0 -= s * v1
        v1 *= c
        v1 += s * tmp
        return
    if op.kind == "rotz":
        v0 *= np.exp(-0.5j * op.angle)
        v1 *= np.exp(0.5j * op.angle)
        return
    if op.kind == "h":
        r = 1.0 / np.sqrt(2.0)
        tmp = v0.copy()
        v0 += v1
        v0 *= r
        v1 *= -r
        v1 += r * tmp
        return
    raise ValueError(f"cannot apply op kind {op.kind!r}")


def _norm_sq(a: np.ndarray) -> float:
    flat = a.reshape(-1)
    return float(np.vdot(flat, flat).real)


def _measure_probs(state: np.ndarray, ax: int) -> tuple[float, float, np.ndarray, np.ndarray]:
    v = _split_view(state, ax)
    sl0, sl1 = v[:, 0, :], v[:, 1, :]
    p0 = _norm_sq(sl0)
    p1 = _norm_sq(sl1)
    return p0, p1, sl0, sl1


def _project_measure(frame: _Frame, op, outcome: int, slc: np.ndarray, prob: float) -> None:
    frame.state = (slc / np.sqrt(prob)).reshape((2,) * (len(frame.active) - 1))
    frame.active.remove(op.qubits[0])
    frame.outcomes.append(outcome)
    frame.fixed[op.qubits[0]] = outcome
    frame.bits[op.clbit] = outcome
    frame.prob *= prob


def _apply_reset(frame: _Frame, op, outcome: int, slc: np.ndarray, prob: float) -> None:
    # Projective reset: collapse, then place the wire back in |0>.
    ax = frame.active.index(op.qubits[0])
    shape = (2,) * len(frame.active)
    collapsed = (slc / np.sqrt(prob)).reshape(shape[:ax] + shape[ax + 1 :])
    new = np.zeros(shape, dtype=complex)
    idx = [slice(None)] * new.ndim
    idx[ax] = 0
    new[tuple(idx)] = collapsed
    frame.state = new
    frame.outcomes.append(outcome)
    frame.prob *= prob


def _extract_data_state(frame: _Frame, data_qubits) -> np.ndarray:
    """Best pure state on the data register.

    When the remaining wires factor out (the usual case after the
    disentangling measurements) this is exact; otherwise the principal
    eigenvector of the reduced density matrix is returned, so entangled
    residue shows up as fidelity loss.
    """
    if list(data_qubits) == frame.active:
        vec = frame.state.reshape(-1)
        return vec / np.sqrt(_norm_sq(vec))
    active_data = [q for q in data_qubits if q in frame.active]
    other = [w for w in frame.active if w not in active_data]
    perm = [frame.active.index(q) for q in active_data] + [
        frame.active.index(w) for w in other
    ]
    tensor = np.transpose(frame.state, perm)
    d_dim = 2 ** len(active_data)
    mat = tensor.reshape(d_dim, -1)
    if mat.shape[1] == 1:
        vec = mat[:, 0]
    else:
        col_norms = np.sum(np.abs(mat) ** 2, axis=0)
        nonzero = np.flatnonzero(col_norms > 1e-24)
        if len(nonzero) == 1:
            vec = mat[:, nonzero[0]]
        else:
            rho = mat @ mat.conj().T
            _, vecs = np.linalg.eigh(rho)
            vec = vecs[:, -1]
    vec = vec / np.linalg.norm(vec)

    if len(active_data) == len(data_qubits):
        return vec
    # Insert measured data wires as fixed computational factors.
    full = np.zeros((2,) * len(data_qubits), dtype=complex)
    idx: list = []
    for q in data_qubits:
        idx.append(slice(None) if q in frame.active else frame.fixed[q])
    full[tuple(idx)] = vec.reshape((2,) * len(active_data))
    return full.reshape(-1)


def _initial_frame(circuit: Circuit) -> _Frame:
    state = np.zeros((2,) * circuit.n_qubits, dtype=complex)
    state[(0,) * circuit.n_qubits] = 1.0
    return _Frame(state, list(range(circuit.n_qubits)), {}, [], {}, 1.0)


def run(
    circuit: Circuit,
    mode: str = "enumerate",
    shots: int | None = None,
    seed: int | None = None,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> list[Branch]:
    """Simulate ``circuit`` and return its measurement branches.

    ``enumerate`` explores every outcome assignment (requires at most
    ``branch_cap`` measured wires); ``sample`` draws ``shots`` seeded
    trajectories and reports frequencies as probabilities.
    """
    if mode == "enumerate":
        n_meas = sum(1 for op in circuit.ops if op.kind == "measure")
        if n_meas > branch_cap:
            raise TooManyBranches(f"{n_meas} measured wires exceed cap {branch_cap}")
        branches: list[Branch] = []
        _enumerate(circuit, _initial_frame(circuit), 0, branches)
        return branches
    if mode == "sample":
        if not shots or shots <= 0:
            raise ValueError("sample mode needs a positive shot count")
        return _sample(circuit, shots, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _finish_branch(circuit: Circuit, frame: _Frame) -> Branch:
    return Branch(
        outcomes=tuple(frame.outcomes),
        probability=frame.prob,
        data_state=_extract_data_state(frame, circuit.data_qubits),
        residual_wires=tuple(frame.active),
        residual_state=frame.state.reshape(-1),
        fixed_outcomes=dict(frame.fixed),
    )


def _enumerate(circuit: Circuit, frame: _Frame, start: int, out: list[Branch]) -> None:
    ops = circuit.ops
    i = start
    while i < len(ops):
        op = ops[i]
        if op.kind in ("measure", "reset"):
            ax = frame.active.index(op.qubits[0])
            p0, p1, sl0, sl1 = _measure_probs(frame.state, ax)
            for outcome, p, slc in ((0, p0, sl0), (1, p1, sl1)):
                if frame.prob * p < BRANCH_PROB_TOL:
                    continue
                child = frame.copy(state=frame.state)
                if op.kind == "measure":
                    _project_measure(child, op, outcome, slc, p)
                else:
                    _apply_reset(child, op, outcome, slc, p)
                _enumerate(circuit, child, i + 1, out)
            return
        if op.condition is None or op.condition.holds(frame.bits):
            _apply_unitary(frame, op)
        i += 1
    out.append(_finish_branch(circuit, frame))


def _run_single(circuit: Circuit, rng: np.random.Generator) -> _Frame:
    frame = _initial_frame(circuit)
    for op in circuit.ops:
        if op.kind in ("measure", "reset"):
            ax = frame.active.index(op.qubits[0])
            p0, p1, sl0, sl1 = _measure_probs(frame.state, ax)
            outcome = 1 if rng.random() < p1 / (p0 + p1) else 0
            p, slc = ((p0, sl0), (p1, sl1))[outcome]
            if op.kind == "measure":
                _project_measure(frame, op, outcome, slc, p)
            else:
                _apply_reset(frame, op, outcome, slc, p)
        elif op.condition is None or op.condition.holds(frame.bits):
            _apply_unitary(frame, op)
    return frame


def _sample(circuit: Circuit, shots: int, seed: int | None) -> list[Branch]:
    rng = np.random.default_rng(seed)
    counts: dict[tuple[int, ...], int] = {}
    kept: dict[tuple[int, ...], _Frame] = {}
    for _ in range(shots):
        frame = _run_single(circuit, rng)
        key = tuple(frame.outcomes)
        counts[key] = counts.get(key, 0) + 1
        if key not in kept:
            kept[key] = frame
    branches = []
    for key in sorted(counts):
        frame = kept[key]
        branch = _finish_branch(circuit, frame)
        branch.probability = counts[key] / shots
        branches.append(branch)
    return branches


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
    active = list(branch.residual_wires)
    state = branch.residual_state.reshape((2,) * len(active))
    active_data = [q for q in data_qubits if q in active]
    perm = [active.index(q) for q in active_data] + [
        i for i, w in enumerate(active) if w not in active_data
    ]
    tensor = np.transpose(state, perm)
    mat = tensor.reshape(2 ** len(active_data), -1)
    probs_active = np.sum(np.abs(mat) ** 2, axis=1)
    full = np.zeros((2,) * len(data_qubits))
    idx = []
    for q in data_qubits:
        idx.append(slice(None) if q in active else branch.fixed_outcomes[q])
    full[tuple(idx)] = probs_active.reshape((2,) * len(active_data))
    return full.reshape(-1)


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
    passed = min_fid >= 1.0 - 1e-9 and abs(total - 1.0) <= 1e-10
    return VerificationReport(
        branches=len(branches), sum_prob=total, min_fidelity=min_fid, passed=passed
    )
