"""Statevector simulation with mid-circuit measurement and feed-forward.

Wire 0 is the most significant index bit.  One breadth-first walk serves
both modes, reading each op once and advancing every branch together.
Wires that no op has yet joined are independent, so the state is kept as
*clusters*, each a tensor of rows with an axis per wire; a branch names
one row of every cluster.  An op joins the clusters of its wires into the
distinct row tuples that the branches use, and a conditioned op splits
its rows by whether it fires.  Nothing conditions a measurement, so the
clusters and each op's two slices are planned once per circuit
(``_plan``).  A ``measure`` or ``reset`` splits each branch in two,
outcome 0 first, so branches stay in lexicographic outcome order; the
wire leaves its cluster, and a reset wire starts a new one in |0>.
``enumerate`` keeps every outcome of path probability at least
``BRANCH_PROB_TOL``.  ``sample`` splits a branch's shots between the
outcomes with one binomial draw, so the counts are multinomial.

``verify_preparation`` in enumerate mode also merges.  After the last
reader of some outcomes, the rows of a cluster within ``MERGE_TOL`` of
its heaviest row, up to phase, become that row (``_merge_rows``), and
branches that then agree on every row and every outcome still to be read
become one row that counts them.  A deterministic disentangling stage so
leaves one row.  The walk bounds how far merging moved each branch, and
where that leaves the verdict open the walk is repeated without merging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import DimensionMismatch, TooManyBranches
from .tolerances import BRANCH_PROB_TOL, FIDELITY_TOL, MERGE_BOUND_TOL, MERGE_TOL, PROB_SUM_TOL
from .tree import normalize

# ``2**DEFAULT_BRANCH_CAP`` rows at most, checked at each split.
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
_GROUND = np.array([[1.0, 0.0]], dtype=complex)  # one row: a wire in |0>


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


def _slices(op, wires: list[int]):
    """The index tuples of the two slices of a cluster tensor over
    ``wires`` (axis 0 running over rows) that ``op`` mixes or splits.  A
    ``mcroty`` fixes its controls to their polarities and a ``cswap`` its
    control to 1 and its targets to 01 and 10.  A tuple ends at its last
    fixed axis, so a split's wire is the last axis it names."""
    *controls, target = op.qubits
    fixed = dict(zip(controls, op.polarities or ()))
    ends = ({target: 0}, {target: 1})
    if op.kind == "cswap":
        fixed = {controls[0]: 1}
        ends = ({controls[1]: 0, target: 1}, {controls[1]: 1, target: 0})
    stop = 1 + max(map(wires.index, op.qubits))
    return tuple(
        (slice(None),) + tuple({**fixed, **end}.get(q, slice(None)) for q in wires[:stop])
        for end in ends
    )


def _plan(circuit: Circuit):
    """The walk's clusters.  Per op: (the clusters it joins, the one it
    acts on, its two slices there, the splitting ops whose bits its
    condition reads, the new cluster of a reset wire).  Per splitting op,
    the last op that needs its outcome; a measured data wire's outcome
    places the data state, so it is needed to the end.  The clusters left
    at the end, and the widest cluster, their join included."""
    n = circuit.n_qubits
    wires = {q: [q] for q in range(n)}  # cluster -> its wires, one axis each
    owner = list(range(n))
    writer: dict[int, int] = {}  # clbit -> the op that measured it
    last: dict[int, int] = {}  # splitting op -> the last op that needs its outcome
    steps, widest, new = [], min(n, 1), n
    for i, op in enumerate(circuit.ops):
        joined = tuple(dict.fromkeys(owner[q] for q in op.qubits))
        c, fresh, reads = joined[0], None, ()
        if len(joined) > 1:
            c, new = new, new + 1
            wires[c] = [w for j in joined for w in wires.pop(j)]
            for w in wires[c]:
                owner[w] = c
        widest = max(widest, len(wires[c]))
        if op.condition is not None:
            if len(op.condition.bits) > 63:
                raise ValueError(f"op {i}: {len(op.condition.bits)} condition bits, over 63")
            reads = tuple(writer[b] for b in op.condition.bits)
            last.update(dict.fromkeys(reads, i))
        slices = _slices(op, wires[c])
        if op.kind in ("measure", "reset"):
            q = op.qubits[0]
            wires[c].remove(q)
            if not wires[c]:
                del wires[c]
            last[i] = len(circuit.ops) if op.kind == "measure" and q in circuit.data_qubits else i
            if op.kind == "measure":
                writer[op.clbit] = i
            else:
                fresh, new = new, new + 1
                wires[fresh], owner[q] = [q], fresh
        steps.append((joined, c, slices, reads, fresh))
    return steps, last, wires, max(widest, sum(map(len, wires.values())))


def widest_cluster(circuit: Circuit) -> int:
    """The most wires that one cluster of ``circuit``'s walk holds."""
    return _plan(circuit)[3]


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


def _fires(values, bits: np.ndarray) -> np.ndarray:
    """Whether the integer each row of ``bits`` spells (first column most
    significant, at most 63 columns) is one of ``values``, which ascend."""
    place = 1 << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64)
    idx = bits @ place
    values = np.array((*values, -1), dtype=np.int64)
    return values[np.searchsorted(values[:-1], idx)] == idx


def _norm_sq(a: np.ndarray) -> np.ndarray:
    """Squared norm of each row (axis 0) of ``a``."""
    sq = a.real**2 + a.imag**2
    return sq.reshape(len(sq), -1).sum(axis=1)


def _distinct(keys, n: int):
    """The first of ``n`` branches with each distinct tuple of ``keys``
    (int arrays over the branches), and every branch's tuple number."""
    key = np.zeros(n, dtype=np.intp)
    for k in keys:
        _, key = np.unique(key * (int(k.max(initial=0)) + 1) + k, return_inverse=True)
    return np.unique(key, return_index=True)[1], key.reshape(-1)


def _product(parts, n_rows: int) -> np.ndarray:
    """Row-wise tensor product of cluster tensors of ``n_rows`` rows each,
    allocated whole first: one too large for memory raises before any work."""
    wires = sum(p.ndim - 1 for p in parts)
    out, before = np.ones((n_rows, 2**wires), dtype=complex), 1
    for p in parts:
        view = out.reshape(n_rows, before, p[0].size, -1)
        view *= p.reshape(n_rows, 1, -1, 1)
        before *= p[0].size
    return out.reshape((n_rows,) + (2,) * wires)


def _merge_rows(rows: np.ndarray, weights: np.ndarray, limit: np.ndarray):
    """For each row of ``rows`` (axis 0), the row it merges into and their
    distance.  The heaviest row not yet placed takes every unplaced row
    ``b`` whose phase-aligned distance ``min_phi |a - e^(i phi) b|`` to it
    is at most ``limit[b]``.  The distance resolves ``MERGE_TOL`` where
    ``1 - |<a|b>|`` would be rounding.  The distance also bounds the
    change of the key ``<v, |a|>`` for a unit ``v``, so a row whose key has
    no other within twice the tolerance stays alone, unexamined."""
    flat = rows.reshape(len(rows), -1)
    into, dist = np.full(len(rows), -1), np.zeros(len(rows))
    v = np.linspace(1.0, 2.0, flat.shape[1])
    key = np.abs(flat) @ (v / np.linalg.norm(v))
    order = np.argsort(key)
    pair = np.diff(key[order]) <= 2.0 * limit.max()
    alone = np.setdiff1d(order, np.concatenate((order[:-1][pair], order[1:][pair])))
    into[alone] = alone
    for i in np.argsort(-weights, kind="stable"):
        if into[i] >= 0:
            continue
        rest = np.flatnonzero(into < 0)
        overlap = flat[rest].conj() @ flat[i]
        size = np.abs(overlap)
        aligned = overlap / np.where(size > 0.0, size, 1.0)
        d = np.linalg.norm(flat[i] - aligned[:, None] * flat[rest], axis=1)
        near = d <= limit[rest]
        into[rest[near]], dist[rest[near]] = i, d[near]
    return into, dist


def _walk(circuit: Circuit, mode: str, shots, seed, cap: int, merge: bool):
    """Breadth-first over the outcome tree, reading each op once.
    ``enumerate`` keeps every outcome above ``BRANCH_PROB_TOL`` in at most
    ``2**cap`` rows, and ``merge`` merges them; ``sample`` splits ``shots``
    binomially at each measurement.  Returns per row (outcomes, measured
    wires' outcomes, unit state over the active wires), and the rows'
    probabilities, counts, the active wires and, per row, a bound on the
    distance up to phase of its state from that of each branch it stands
    for that the unmerged walk keeps.

    A merge moves a branch's state, of norm sqrt(weight), by sqrt(weight)
    times the merge distance, and a split, a projection, moves it no
    further: ``error`` bounds that move, and a merge that would take it
    past ``MERGE_BOUND_TOL`` is refused.  ``doubt`` is set if a pruned
    outcome's norm is within ``error`` of sqrt(BRANCH_PROB_TOL)."""
    rng, total = None, 1.0
    if mode == "sample":
        if not shots or shots <= 0:
            raise ValueError("sample mode needs a positive shot count")
        if shots > MAX_SHOTS:
            raise ValueError(f"shot count {shots} exceeds {MAX_SHOTS}")
        rng, total, merge = np.random.default_rng(seed), shots, False
    elif mode != "enumerate":
        raise ValueError(f"unknown mode {mode!r}")
    steps, last, final, _ = _plan(circuit)
    ends = set(last.values()) if merge else set()
    tensors = {q: _GROUND.copy() for q in range(circuit.n_qubits)}
    rows: dict[int, np.ndarray] = {}  # cluster -> each branch's row, if it has several
    outcomes = np.zeros((1, 0), dtype=np.int8)
    column: dict[int, int] = {}  # splitting op -> its outcome column
    weight, phase = np.array([total]), np.ones(1, dtype=complex)
    count = np.ones(1, dtype=object)  # Python ints: the logical branches of a row
    error, doubt = np.zeros(1), False
    touched: set[int] = set()

    def take_rows(c):
        return rows.pop(c) if c in rows else np.zeros(len(weight), dtype=np.intp)

    def join(c, clusters, keys):
        first, inverse = _distinct(keys, len(keys[0]))
        parts = [tensors.pop(j) for j in clusters]
        # A cluster's rows are all in use, so only a split or a join reorders them.
        parts = [t if np.array_equal(k[first], np.arange(len(t))) else t[k[first]]
                 for t, k in zip(parts, keys)]
        tensors[c] = parts[0] if len(parts) == 1 else _product(parts, len(first))
        if len(first) > 1:
            rows[c] = inverse
        return first

    for i, (op, (joined, c, (i0, i1), reads, fresh)) in enumerate(zip(circuit.ops, steps)):
        touched.add(c)
        if op.kind not in ("measure", "reset"):
            mat, fires = _matrix(op), None
            if reads:
                fires = _fires(op.condition.values, outcomes[:, [column[w] for w in reads]])
            if len(joined) > 1 or reads:
                first = join(c, joined, [take_rows(j) for j in joined] + [fires] * bool(reads))
                fires = None if fires is None or fires[first].all() else fires[first]
            if fires is None or fires.any():
                _mix(tensors[c], i0, i1, mat, fires)
        else:
            t, r = tensors.pop(c), take_rows(c)
            probs = np.stack((_norm_sq(t[i0]), _norm_sq(t[i1])), axis=1)
            if rng is None:
                split = weight[:, None] * probs[r]
                gone = split < BRANCH_PROB_TOL
                reach = (np.sqrt(split) + error[:, None]) ** 2
                doubt |= bool(np.any(reach[gone] >= BRANCH_PROB_TOL))
                split[gone] = 0.0
            else:
                k1 = rng.binomial(weight, probs[r, 1] / probs[r].sum(axis=1))
                split = np.stack((weight - k1, k1), axis=1)
            # Row-major order puts each branch's outcome 0 first: lexicographic.
            keep, outs = np.nonzero(split)
            if rng is None and (len(keep) - 1).bit_length() > cap:  # len(keep) > 2**cap
                raise TooManyBranches(f"{len(keep)} rows exceed the cap of 2**{cap}")
            rows = {d: k[keep] for d, k in rows.items()}
            weight, phase, count, error = split[keep, outs], phase[keep], count[keep], error[keep]
            outcomes = np.column_stack((outcomes[keep], outs.astype(np.int8)))
            column[i] = outcomes.shape[1] - 1
            first, inverse = _distinct([r[keep], outs], len(keep))
            src, o = r[keep][first], outs[first]
            kept = t[(src,) + i0[1:-1] + (o,)]
            kept /= np.sqrt(probs[src, o]).reshape((-1,) + (1,) * (kept.ndim - 1))
            if kept.ndim == 1:  # its last wire: the cluster's row is a phase of the branch
                phase = phase * kept[inverse]
            else:
                tensors[c] = kept
                if len(first) > 1:
                    rows[c] = inverse
            if fresh is not None:
                tensors[fresh] = _GROUND.copy()
        if i not in ends:
            continue
        live = [w for w in column if last[w] > i]
        outcomes = outcomes[:, [column[w] for w in live]]
        column = {w: k for k, w in enumerate(live)}
        for d in touched & rows.keys():
            limit = np.full(len(tensors[d]), MERGE_TOL)
            np.minimum.at(limit, rows[d], (MERGE_BOUND_TOL - error) / np.sqrt(weight))
            into, dist = _merge_rows(tensors[d], np.bincount(rows[d], weight, len(limit)), limit)
            error = error + np.sqrt(weight) * dist[rows[d]]
            heaviest, renumber = np.unique(into, return_inverse=True)
            tensors[d], rows[d] = tensors[d][heaviest], renumber.reshape(-1)[rows[d]]
            if len(heaviest) == 1:
                del rows[d]
        touched.clear()
        first, inverse = _distinct([*rows.values(), *outcomes.T], len(weight))
        if len(first) < len(weight):
            weight, merged = np.bincount(inverse, weight), np.zeros(len(first), dtype=object)
            worst = np.zeros(len(first))
            np.add.at(merged, inverse, count)
            np.maximum.at(worst, inverse, error)
            rows = {d: k[first] for d, k in rows.items()}
            outcomes, phase, count, error = outcomes[first], phase[first], merged, worst

    if final:
        join(-1, list(final), [take_rows(d) for d in final])
    order = [w for d in final for w in final[d]]
    active = sorted(order)
    state = tensors.pop(-1, np.ones(1, dtype=complex))
    state = state.transpose([0] + [1 + order.index(w) for w in active])
    measured = {op.qubits[0]: i for i, op in enumerate(circuit.ops) if op.kind == "measure"}
    out = []
    for r, outs, ph in zip(take_rows(-1).tolist(), outcomes.tolist(), phase.tolist()):
        fixed = {q: outs[column[w]] for q, w in measured.items() if w in column}
        out.append((outs, fixed, ph * state[r]))
    # A kept branch has a norm of at least sqrt(BRANCH_PROB_TOL) - error here, and
    # normalizing a vector of norm m moves it by 2 error / m.
    spread = 2.0 * error / (np.sqrt(BRANCH_PROB_TOL) - error)
    if doubt:  # an outcome it may have pruned could hold any state
        spread[:] = np.inf
    return out, weight / total, count, active, spread


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
    """Widen ``vec``, whose rows run over ``active_data``, to rows over all
    of ``data_qubits`` by fixing each measured data wire to its outcome in
    ``fixed``."""
    if len(active_data) == len(data_qubits):
        return vec
    full = np.zeros((2,) * len(data_qubits) + vec.shape[1:], dtype=vec.dtype)
    idx = tuple(slice(None) if q in active_data else fixed[q] for q in data_qubits)
    full[idx] = vec.reshape((2,) * len(active_data) + vec.shape[1:])
    return full.reshape((-1,) + vec.shape[1:])


def _extract_data_state(state: np.ndarray, active, data_qubits, fixed) -> np.ndarray:
    """The data register's state in one branch, from its ``state`` over
    ``active`` and its measured wires' outcomes ``fixed``: the normalized
    data slice of the heaviest column.  Exact when the other active wires
    factor out; otherwise a representative, which no verdict reads."""
    active_data, mat = _data_rows(state, active, data_qubits)
    vec = mat[:, np.argmax(_norm_sq(mat.T))]
    return _embed_measured(vec / np.linalg.norm(vec), active_data, data_qubits, fixed)


def _branch_fidelity(state: np.ndarray, active, data_qubits, fixed, target: np.ndarray) -> float:
    """sqrt(<t|rho|t>) for the unit ``target`` t and one branch's reduced
    state rho on the data register.  With ``state`` as a matrix M of data
    wires, measured ones fixed at their outcomes ``fixed``, by other active
    wires, that is |M^dagger t| / |M|: |<v|t>| for a pure data state v, and
    exact for entangled residue too."""
    active_data, mat = _data_rows(state, active, data_qubits)
    mat = _embed_measured(mat, active_data, data_qubits, fixed)
    return float(np.linalg.norm(target.conj() @ mat) / np.linalg.norm(mat))


def run(
    circuit: Circuit,
    mode: str = "enumerate",
    shots: int | None = None,
    seed: int | None = None,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> list[Branch]:
    """Simulate ``circuit`` and return its measurement branches, one per
    outcome string.

    ``enumerate`` explores every outcome assignment (at most
    ``2**branch_cap`` branches at a time); ``sample`` splits ``shots``
    seeded shots over the branches and reports frequencies as
    probabilities.
    """
    rows, probability, _, active, _ = _walk(circuit, mode, shots, seed, branch_cap, False)
    return [
        Branch(tuple(outs), p, _extract_data_state(state, active, circuit.data_qubits, fixed),
               tuple(active), state.reshape(-1), fixed)
        for (outs, fixed, state), p in zip(rows, probability.tolist())
    ]


def statevector(circuit: Circuit) -> np.ndarray:
    """Full state of a measurement-free circuit as a flat vector."""
    if any(op.kind in ("measure", "reset") for op in circuit.ops):
        raise ValueError("statevector requires a measurement-free circuit")
    [branch] = run(circuit)
    return branch.residual_state


def fidelity(a, b) -> float:
    """Global-phase-insensitive overlap magnitude of two vectors, each
    normalized."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    return float(np.abs(np.vdot(normalize(a), normalize(b))))


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
    """Check that every branch leaves the data register in ``target``.
    A branch scores F = sqrt(<t|rho|t>), with ``rho`` its reduced state on
    the data register and t the normalized target; it passes if F is at
    least 1 - ``FIDELITY_TOL``.  Enumeration merges branches that leave
    the same state (see the module notes), and ``branches`` counts the
    logical branches they stand for.  Merging moves a branch's unit state
    by at most d, and so moves u = sqrt(1 - F^2), the norm of the part of
    that state off t, by at most d.  So the verdict passes if u + d is
    within the edge for every row, fails if u - d is past it for some row,
    and otherwise the walk is repeated without merging."""
    target = np.asarray(target, dtype=complex).reshape(-1)
    if 2 ** len(circuit.data_qubits) != target.size:
        raise DimensionMismatch(
            f"target dimension {target.size} vs data register {len(circuit.data_qubits)}"
        )
    target, edge = normalize(target), np.sqrt(FIDELITY_TOL * (2.0 - FIDELITY_TOL))
    for merge in (True, False):
        rows, prob, count, active, spread = _walk(circuit, mode, shots, seed, branch_cap, merge)
        fid = np.array([_branch_fidelity(state, active, circuit.data_qubits, fixed, target)
                        for _, fixed, state in rows])
        off = np.sqrt(np.maximum(1.0 - fid**2, 0.0))
        passed = bool(np.max(off + spread) <= edge)
        if passed or np.max(off - spread) > edge:
            break
    total = float(prob.sum())
    passed &= abs(total - 1.0) <= PROB_SUM_TOL
    return VerificationReport(
        branches=int(count.sum()), sum_prob=total, min_fidelity=float(fid.min()), passed=passed
    )
