"""Statevector simulation with mid-circuit measurement and feed-forward.

The state is kept as a tensor with one axis per *active* wire (wire 0 is
the most significant index bit); a measured wire collapses and its axis
is dropped.  One iterative depth-first walk serves both modes, splitting
a weighted frame at every ``measure`` or ``reset``.  ``enumerate``
weighs a frame by its path probability and follows every outcome of
probability at least ``BRANCH_PROB_TOL``.  ``sample`` weighs it by its
shot count, splits the shots between the outcomes with one binomial
draw and follows those that receive any, so the counts are multinomial
and no shot count makes the walk longer than enumeration.  Branches come
back in lexicographic outcome order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import DimensionMismatch, TooManyBranches

# A branch below this path probability is dropped: no verdict can see it.
BRANCH_PROB_TOL = 1e-14
DEFAULT_BRANCH_CAP = 14
# A residual column below this squared norm (amplitudes 1e-12) is rounding.
EMPTY_COLUMN_TOL = 1e-24
# Passing fidelity shortfall: far above rounding, below a 1e-4 rad angle error.
FIDELITY_TOL = 1e-9
# Allowed |sum of probabilities - 1|: rounding plus mass pruned by BRANCH_PROB_TOL.
PROB_SUM_TOL = 1e-10

_FIXED_MATRICES = {
    "z": np.diag([1.0, -1.0]).astype(complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "h": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
}


def _single_qubit_matrix(op) -> np.ndarray | None:
    """The matrix ``op`` applies to its last wire; None for ``cswap``,
    ``measure`` and ``reset``."""
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


@dataclass(slots=True)
class _Frame:
    """Mutable simulation frame: active tensor, classical records and the
    frame's weight (path probability, or shot count when sampling)."""

    state: np.ndarray
    active: list[int]
    bits: dict[int, int]
    outcomes: list[int]
    fixed: dict[int, int]
    weight: float

    def copy(self) -> "_Frame":
        return _Frame(
            self.state,
            list(self.active),
            dict(self.bits),
            list(self.outcomes),
            dict(self.fixed),
            self.weight,
        )


def _split_view(state: np.ndarray, ax: int):
    """View of a contiguous tensor as (pre, 2, post) around axis ``ax``.

    The caller mutates the result in place, so a silent reshape copy
    would corrupt the simulation; frames keep their buffers contiguous.
    """
    if not state.flags.c_contiguous:
        raise AssertionError("simulation state buffer lost contiguity")
    return state.reshape(2**ax, 2, -1)


def _apply_unitary(frame: _Frame, op, mat: np.ndarray | None) -> None:
    """Apply unitary ``op``, whose ``_single_qubit_matrix`` is ``mat``."""
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
    (m00, m01), (m10, m11) = mat.tolist()
    v = _split_view(state, active.index(op.qubits[-1]))
    v0, v1 = v[:, 0, :], v[:, 1, :]
    if m01 == 0 and m10 == 0:
        # A diagonal matrix scales the halves; skipping the zero terms
        # leaves every value unchanged and saves most of a gate's cost.
        v0 *= m00
        v1 *= m11
        return
    tmp = v0.copy()
    v0 *= m00
    v0 += m01 * v1
    v1 *= m11
    v1 += m10 * tmp


def _norm_sq(a: np.ndarray) -> float:
    flat = a.reshape(-1)
    return float(np.vdot(flat, flat).real)


def _collapse(frame: _Frame, op, outcome: int, slc: np.ndarray, p: float) -> None:
    """Project ``op``'s wire onto ``outcome``, whose slice of the state is
    ``slc`` with squared norm ``p``.  A measured wire leaves the tensor; a
    reset wire is put back in |0>."""
    q = op.qubits[0]
    ax = frame.active.index(q)
    shape = (2,) * len(frame.active)
    collapsed = (slc / np.sqrt(p)).reshape(shape[:ax] + shape[ax + 1 :])
    frame.outcomes.append(outcome)
    if op.kind == "measure":
        del frame.active[ax]
        frame.state = collapsed
        frame.fixed[q] = outcome
        frame.bits[op.clbit] = outcome
        return
    frame.state = np.zeros(shape, dtype=complex)
    frame.state[(slice(None),) * ax + (0,)] = collapsed


def _split(weight, p0: float, p1: float, rng):
    """The two outcomes' weights; an outcome of weight 0 is not followed."""
    if rng is None:
        return tuple(w if w >= BRANCH_PROB_TOL else 0.0 for w in (weight * p0, weight * p1))
    k1 = int(rng.binomial(weight, p1 / (p0 + p1)))
    return weight - k1, k1


def _walk(circuit: Circuit, rng, total) -> list[Branch]:
    """Depth-first over the outcome tree with an explicit stack.  Without
    ``rng`` every outcome above ``BRANCH_PROB_TOL`` is followed; with it,
    ``total`` shots are split binomially at each measurement."""
    ops = circuit.ops
    mats = [_single_qubit_matrix(op) for op in ops]  # shared by every branch
    state = np.zeros((2,) * circuit.n_qubits, dtype=complex)
    state[(0,) * circuit.n_qubits] = 1.0
    stack = [(0, _Frame(state, list(range(circuit.n_qubits)), {}, [], {}, total))]
    out: list[Branch] = []
    while stack:
        start, frame = stack.pop()
        for i in range(start, len(ops)):
            op = ops[i]
            if op.kind not in ("measure", "reset"):
                if op.condition is None or op.condition.holds(frame.bits):
                    _apply_unitary(frame, op, mats[i])
                continue
            v = _split_view(frame.state, frame.active.index(op.qubits[0]))
            slices = (v[:, 0, :], v[:, 1, :])
            probs = (_norm_sq(slices[0]), _norm_sq(slices[1]))
            weights = _split(frame.weight, probs[0], probs[1], rng)
            # Outcome 0 is pushed last, so walked first: lexicographic order.
            kept = [o for o in (1, 0) if weights[o]]
            for o in kept:
                child = frame if o == kept[-1] else frame.copy()
                _collapse(child, op, o, slices[o], probs[o])
                child.weight = weights[o]
                stack.append((i + 1, child))
            break
        else:
            out.append(
                Branch(
                    outcomes=tuple(frame.outcomes),
                    probability=frame.weight / total,
                    data_state=_extract_data_state(frame, circuit.data_qubits),
                    residual_wires=tuple(frame.active),
                    residual_state=frame.state.reshape(-1),
                    fixed_outcomes=dict(frame.fixed),
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
    active_data, mat = _data_rows(frame.state, frame.active, data_qubits)
    col_norms = np.sum(np.abs(mat) ** 2, axis=0)
    nonzero = np.flatnonzero(col_norms > EMPTY_COLUMN_TOL)
    if len(nonzero) == 1:
        vec = mat[:, nonzero[0]]
    else:
        _, vecs = np.linalg.eigh(mat @ mat.conj().T)
        vec = vecs[:, -1]
    vec = vec / np.linalg.norm(vec)
    return _embed_measured(vec, active_data, data_qubits, frame.fixed)


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
