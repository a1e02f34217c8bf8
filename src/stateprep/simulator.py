"""Statevector simulation with mid-circuit measurement and feed-forward.

Wire 0 is the most significant index bit.  One breadth-first walk serves
both modes, reading each op once and advancing every branch together.
Wires that no op has yet joined are independent, so the state is kept as
*clusters*, each a tensor of rows with an axis per wire; a branch names
one row of every cluster.  An op joins the clusters of its wires into the
distinct row tuples that the branches use, and a conditioned op gives
each row the matrix that its outcomes select: its kind's, or one per value
of a selected rotation, or the identity if it does not fire.  One update
(``_mix``) then mixes the op's two slices on every row.  Nothing conditions
a measurement, so the clusters and each op's two slices are planned once
per circuit (``_plan``).  A ``measure`` or ``reset`` splits each branch in
two, outcome 0 first, so branches stay in lexicographic outcome order; the
wire leaves its cluster, and a reset wire starts a new one in |0>.
``enumerate`` keeps every outcome of path probability at least
``BRANCH_PROB_TOL``.  ``sample`` splits a branch's shots between the
outcomes with one exact binomial draw from the standard library's
Mersenne Twister seeded by ``seed`` (``binomial``, which only sample mode
imports), so the counts are multinomial.  The walk hands back arrays over
its rows, and ``run`` and ``verify_preparation`` read the data register
from one view of them (``_data_matrices``).  A wire that no op touches
and that holds no data stays in |0> and factors out, so no cluster holds
it.

``verify_preparation`` in enumerate mode also merges.  After the last
reader of some outcomes, the rows of a cluster within ``MERGE_TOL`` of
its heaviest row, up to phase, become that row (``_merge_rows``), and
branches that then agree on every row and every outcome still to be read
become one row that counts them.  A deterministic disentangling stage so
leaves one row.  The walk bounds how far merging moved each branch, and
where that leaves the verdict open the walk is repeated without merging.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .circuit import KIND, KINDS, Circuit, ranges
from .errors import DimensionMismatch, TooManyBranches
from .tolerances import (BRANCH_PROB_TOL, DEFAULT_BRANCH_CAP, FIDELITY_TOL, MERGE_BOUND_TOL,
                         MERGE_TOL, PROB_SUM_TOL)
from .vector import normalize

# The largest shot count: the walk's shot counts and ``binomial``'s rows are int64.
MAX_SHOTS = 2**63 - 1

_X = [[0.0, 1.0], [1.0, 0.0]]  # a cswap's too: it exchanges its slices 01 and 10
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# Per kind code, the matrix that mixes an op's two slices: a rotation's is
# set from its angle, and ``measure`` and ``reset`` mix none.
_KIND_MATRICES = np.array([{"z": np.diag([1.0, -1.0]), "x": _X, "cswap": _X, "h": _H}.get(
    k, np.eye(2)) for k in KINDS], dtype=complex)
_SPLITS = (KIND["measure"], KIND["reset"])
_GROUND = np.array([[1.0, 0.0]], dtype=complex)  # one row: a wire in |0>


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
        """The report as ``json.dumps`` prints it.  A ``branches`` count past
        Python's int-to-string limit (4,300 decimal digits by default; dense
        n=14 has about 2**16369 branches) is the string of its hexadecimal
        digits, which ``int(text, 16)`` reads back: the limit spares bases
        that are powers of two."""
        branches = self.branches
        try:
            str(branches)  # as ``json.dumps`` writes an int
        except ValueError:
            branches = hex(branches)
        return {
            "branches": branches,
            "sum_prob": self.sum_prob,
            "min_fidelity": self.min_fidelity,
            "pass": self.passed,
        }


def _slices(kind: int, qubits: list[int], polarities: list[int], wires: list[int]):
    """The index tuples of the two slices of a cluster tensor over
    ``wires`` (axis 0 running over rows) that an op mixes or splits.  An
    ``mcroty`` fixes its controls to their ``polarities`` and a ``cswap``
    its control to 1 and its targets to 01 and 10.  A tuple ends at its
    last fixed axis, so a split's wire is the last axis it names."""
    *controls, target = qubits
    fixed = dict(zip(controls, polarities))
    ends = ({target: 0}, {target: 1})
    if kind == KIND["cswap"]:
        fixed = {controls[0]: 1}
        ends = ({controls[1]: 0, target: 1}, {controls[1]: 1, target: 0})
    stop = 1 + max(map(wires.index, qubits))
    return tuple(
        (slice(None),) + tuple({**fixed, **end}.get(q, slice(None)) for q in wires[:stop])
        for end in ends
    )


def _plan(circuit: Circuit, used: list[int]):
    """The walk over the wires ``used``, read from the op table.  Per op:
    (the clusters it joins, the one it acts on, its two slices there, the
    measurement that each bit of its condition waits for
    (``OpTable.bit_waits``), the values on which it fires, its matrices or
    None for a split, the new cluster of a reset wire).  An op's matrices
    are the identity, then its kind's matrix or one per angle, in the order
    of its values (see ``_selects``).  Per splitting op, the last op that
    needs its outcome; a measured data wire's outcome places the data state,
    so it is needed to the end.  The clusters left at the end, and the op
    that measures each measured wire.  Cluster ``q`` is wire ``q`` before an
    op joins it."""
    t, n = circuit.ops, circuit.n_qubits
    kind, na = np.repeat(t.kind, t.counts[:, 4]), t.counts[:, 4]  # per angle; per op
    cos, sin = np.cos(t.angle / 2.0), np.sin(t.angle / 2.0)
    turns = np.stack((cos, -sin, sin, cos), axis=1).reshape(-1, 2, 2).astype(complex)
    z = kind == KIND["rotz"]
    turns[z] = 0.0
    turns[z, 0, 0], turns[z, 1, 1] = np.exp(-0.5j * t.angle[z]), np.exp(0.5j * t.angle[z])
    own = np.concatenate((np.eye(2, dtype=complex)[None], _KIND_MATRICES[t.kind], turns))
    size = np.maximum(na, 1) + 1
    j, op = ranges(size), np.repeat(np.arange(t.n_ops), size)
    pick = np.where(na[op] > 0, t.n_ops + t.offsets(4)[op] + j, 1 + op)
    stacks, bounds = own[np.where(j > 0, pick, 0)], np.cumsum(size).tolist()
    wires = {q: [q] for q in used}  # cluster -> its wires, one axis each
    owner = dict(zip(used, used))
    last: dict[int, int] = {}  # splitting op -> the last op that needs its outcome
    measured: dict[int, int] = {}  # wire -> the op that measured it
    steps, new = [], n
    ops = zip(t.kind.tolist(), [0] + bounds, bounds, t.rows(0), t.rows(1), t.rows(2, t.bit_waits),
              t.rows(3))
    for i, (kind, start, stop, qubits, pols, reads, values) in enumerate(ops):
        joined = tuple(dict.fromkeys(owner[q] for q in qubits))
        c, fresh = joined[0], None
        if len(joined) > 1:
            c, new = new, new + 1
            wires[c] = [w for j in joined for w in wires.pop(j)]
            for w in wires[c]:
                owner[w] = c
        if reads:
            last.update({w: max(last[w], i) for w in reads})
        slices, mats = _slices(kind, qubits, pols, wires[c]), stacks[start:stop]
        if kind in _SPLITS:
            mats, q = None, qubits[0]
            wires[c].remove(q)
            if not wires[c]:
                del wires[c]
            last[i] = t.n_ops if kind == KIND["measure"] and q in circuit.data_qubits else i
            if kind == KIND["measure"]:
                measured[q] = i
            else:
                fresh, new = new, new + 1
                wires[fresh], owner[q] = [q], fresh
        steps.append((joined, c, slices, reads, values, mats, fresh))
    return steps, last, wires, measured


def _mix(state: np.ndarray, i0, i1, mats: np.ndarray, sel) -> None:
    """Set the slices ``a = state[i0]`` and ``b = state[i1]`` of each row
    ``r`` to ``mats[sel[r]] @ (a, b)``, or to ``mats[1] @ (a, b)`` if ``sel``
    is None.  A row that selects ``mats[0]``, the identity, keeps its values."""
    a, b = state[i0], state[i1]  # views
    if sel is None:
        m00, m01, m10, m11 = mats[1].reshape(4).tolist()
    else:
        m00, m01, m10, m11 = mats[sel].reshape((len(sel), 4) + (1,) * (a.ndim - 1)).swapaxes(0, 1)
    new_b = m10 * a  # in place from here: two slice-sized temporaries at most
    new_b += m11 * b
    a *= m00
    a += m01 * b
    b[...] = new_b


def _selects(values, n: int, bits: np.ndarray) -> np.ndarray:
    """Per row of ``bits``, the one of an op's ``n`` matrices it selects: 0
    unless the integer it spells (first column most significant, at most 63
    columns) is in ``values``, which ascend; else 1 for one matrix, or the
    value's index + 1 for one per value."""
    place = 1 << np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64)
    idx = bits @ place
    values = np.array((*values, -1), dtype=np.int64)
    pos = np.searchsorted(values[:-1], idx)
    return np.where(values[pos] == idx, pos + 1 if n > 1 else 1, 0)


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
    # einsum, not ``@``: these matvecs are small, and a threaded BLAS call
    # can cost milliseconds each when its threads are not pinned.
    key = np.einsum("ij,j->i", np.abs(flat), v / np.linalg.norm(v))
    order = np.argsort(key)
    pair = np.diff(key[order]) <= 2.0 * limit.max()
    paired = np.zeros(len(rows), dtype=bool)
    paired[order[:-1][pair]] = paired[order[1:][pair]] = True
    alone = np.flatnonzero(~paired)
    into[alone] = alone
    for i in np.argsort(-weights, kind="stable"):
        if into[i] >= 0:
            continue
        rest = np.flatnonzero(into < 0)
        overlap = np.einsum("ij,j->i", flat[rest].conj(), flat[i])
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
    binomially at each measurement.  Returns arrays over the rows: their
    outcomes still read (all unless merging), each measured wire's outcome
    column among them (the data wires' alone if merging), their unit
    states over the active wires with their phase applied, probabilities,
    counts, and a bound on the distance up to phase of a row's state from
    that of each branch it stands for that the unmerged walk keeps; and
    the active wires, ascending.

    A merge moves a branch's state, of norm sqrt(weight), by sqrt(weight)
    times the merge distance, and a split, a projection, moves it no
    further: ``error`` bounds that move, and a merge that would take it
    past ``MERGE_BOUND_TOL`` is refused.  ``doubt`` is set if a pruned
    outcome's norm is within ``error`` of sqrt(BRANCH_PROB_TOL)."""
    rng, total = None, 1.0
    if cap < 0:
        raise ValueError(f"branch cap {cap} is negative")
    if mode == "sample":
        if not shots or shots <= 0:
            raise ValueError("sample mode needs a positive shot count")
        if shots > MAX_SHOTS:
            raise ValueError(f"shot count {shots} exceeds {MAX_SHOTS}")
        from .binomial import binomial, generator

        rng, total, merge = generator(seed), shots, False
    elif mode != "enumerate":
        raise ValueError(f"unknown mode {mode!r}")
    # The wires that ops touch or that hold data, and that no op measures,
    # are the final register.  The final join fails only after planning, so
    # a final register of more than sys.maxsize bytes is refused first.
    used = sorted({*circuit.ops.qubits.tolist(), *circuit.data_qubits})
    width = len(used) - int(np.count_nonzero(circuit.ops.kind == KIND["measure"]))
    too_wide = f"a final register of {width} wires does not fit in memory"
    if 16 * 2 ** min(width, 64) > sys.maxsize:
        raise MemoryError(too_wide)
    steps, last, final, measured = _plan(circuit, used)
    ends = set(last.values()) if merge else set()
    tensors = {q: _GROUND.copy() for q in used}
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

    for i, (joined, c, (i0, i1), reads, values, mats, fresh) in enumerate(steps):
        touched.add(c)
        if mats is not None:
            sel = None
            if reads:
                sel = _selects(values, len(mats) - 1, outcomes[:, [column[w] for w in reads]])
            if len(joined) > 1 or reads:
                first = join(c, joined, [take_rows(j) for j in joined] + [sel] * bool(reads))
                sel = None if sel is None else sel[first]
            _mix(tensors[c], i0, i1, mats, sel)
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
                k1 = binomial(rng, weight, probs[r, 1] / probs[r].sum(axis=1))
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
        try:
            join(-1, list(final), [take_rows(d) for d in final])
        except MemoryError:
            raise MemoryError(too_wide) from None
    order = [w for d in final for w in final[d]]
    active = sorted(order)
    state = tensors.pop(-1, np.ones(1, dtype=complex))
    state = state.transpose([0] + [1 + order.index(w) for w in active]).reshape(len(state), -1)
    states = state[take_rows(-1)]
    states *= phase[:, None]
    fixed = {q: outcomes[:, column[w]] for q, w in measured.items() if w in column}
    # A kept branch has a norm of at least sqrt(BRANCH_PROB_TOL) - error here, and
    # normalizing a vector of norm m moves it by 2 error / m.
    spread = 2.0 * error / (np.sqrt(BRANCH_PROB_TOL) - error)
    if doubt:  # an outcome it may have pruned could hold any state
        spread[:] = np.inf
    return outcomes, fixed, states, weight / total, count, active, spread


def _data_matrices(states: np.ndarray, active, data_qubits, fixed) -> np.ndarray:
    """The data register's matrix M of each row of ``states``, a state
    over the ``active`` wires: a row per assignment of ``data_qubits``,
    each measured one fixed at its outcome in ``fixed`` (a column over the
    rows, or one value), by a column per assignment of the other active
    wires.  For a unit target t, sqrt(<t|rho|t>) of the reduced data state
    rho is |M^dagger t| / |M|, exact for entangled residue too."""
    live = [q for q in data_qubits if q in active]
    rest = [q for q in active if q not in live]
    n = len(states)
    tensor = states.reshape((n,) + (2,) * len(active))
    tensor = tensor.transpose([0] + [1 + active.index(q) for q in live + rest])
    if len(live) == len(data_qubits):
        return tensor.reshape(n, 2 ** len(live), -1)
    mats = np.zeros((n,) + (2,) * len(data_qubits) + (2 ** len(rest),), dtype=complex)
    at = tuple(slice(None) if q in live else fixed[q] for q in data_qubits)
    mats[(np.arange(n),) + at] = tensor.reshape((n,) + (2,) * len(live) + (-1,))
    return mats.reshape(n, 2 ** len(data_qubits), -1)


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
    probabilities.  A branch's ``data_state`` is the heaviest column of
    its data-register matrix (``_data_matrices``), normalized: exact when
    the other active wires factor out, else a representative, which no
    verdict reads.
    """
    outcomes, fixed, states, probability, _, active, _ = _walk(
        circuit, mode, shots, seed, branch_cap, False)
    mats = _data_matrices(states, active, circuit.data_qubits, fixed)
    heaviest = (mats.real**2 + mats.imag**2).sum(axis=1).argmax(axis=1)
    vecs = mats[np.arange(len(mats)), :, heaviest]
    cols = {q: col.tolist() for q, col in fixed.items()}
    rows = zip(outcomes.tolist(), probability.tolist(), vecs, states)
    return [Branch(tuple(outs), p, v / np.linalg.norm(v), tuple(active), state,
                   {q: col[r] for q, col in cols.items()})
            for r, (outs, p, v, state) in enumerate(rows)]


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
    k = len(circuit.data_qubits)
    if 2**k != target.size:
        raise DimensionMismatch(
            f"target dimension {target.size} vs {2**k} of a {k}-qubit data register"
        )
    target, edge = normalize(target), np.sqrt(FIDELITY_TOL * (2.0 - FIDELITY_TOL))
    for merge in (True, False):
        _, fixed, states, prob, count, active, spread = _walk(
            circuit, mode, shots, seed, branch_cap, merge)
        mats = _data_matrices(states, active, circuit.data_qubits, fixed)
        fid = np.linalg.norm(target.conj() @ mats, axis=1) / np.linalg.norm(mats, axis=(1, 2))
        np.minimum(fid, 1.0, out=fid)  # the ratio of two rounded norms may pass 1
        off = np.sqrt(np.maximum(1.0 - fid**2, 0.0))
        passed = bool(np.max(off + spread) <= edge)
        if passed or np.max(off - spread) > edge:
            break
    total = float(prob.sum())
    passed &= abs(total - 1.0) <= PROB_SUM_TOL
    return VerificationReport(
        branches=int(count.sum()), sum_prob=total, min_fidelity=float(fid.min()), passed=passed
    )
