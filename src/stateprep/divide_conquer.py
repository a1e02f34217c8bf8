"""The synthesis engine.  ``synthesize_combine(tree, lam, opts)`` prepares
every ``lam``-qubit subtree as a multiplexed-rotation block on its own
wires, loads each node above them on one control wire, and combines the
registers bottom-up with controlled swaps and measurement-based
disentangling.  ``lam = 1`` is the divide-and-conquer circuit
(``synthesize_dc``), ``lam = n`` plain time encoding (``synthesize_time``)
and the values between are the hybrid family (``synthesize_hybrid``).

The planner (``_plan_tree``) fills heap-indexed arrays a tree level at a
time from the root: which children each node keeps, so which nodes are
planned.  One sort puts the planned nodes in pre-order, and the widths
before a node (one wire each, ``lam`` at a block root) sum to its first
wire, so the data register occupies the first wires.  Levels are
combined from the bottom up, which also builds each node's live
register, the wires holding its subtree's state.  The combine at a node
swaps the live registers of its two children under its control wire,
then the right register is measured in an adaptive basis and a
conditioned Z on the control wire undoes the relative sign, leaving the
ancilla wires in computational states.  With ``prune``, the planner alone decides which
nodes keep one child.

Nothing recurses over the plans.  The sibling states of every combining
stage of a level are rows of the tree's level arrays
(``AmplitudeTree.states``, where a zero-norm subtree's row is the ground
state its wires are left in).  A stage's measurement plan reads only
these states, so the engine hands every level's stages, a stack per
level, to one ``compile_disentangler`` call.  It plans them all first,
in one ``decompose`` call that steps the pairs of every level together
(one step per residual width), then emits the ops level by level, in
stage order; the engine puts each level's ops after its swaps.

With ``parallelize`` the engine also schedules the combining swaps: it
gives every op a slot as it emits it and returns the ops sorted by slot.
In a run of ``c`` swaps (stage ``m = c + 1``) the first and last swaps
are rigid and the ``j``-th movable swap joins rigid slot ``2(m-3) - j``;
a level's measurement machinery follows its last swap layer.  All runs
of a level have the same length, so one layer list per level serves
them all, and the gate depth of the dense circuit becomes ``2n - 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    KIND,
    ROLE,
    ROLE_COMBINE,
    ROLE_CORRECT,
    ROLE_LOAD,
    ROLE_MEAS_BASIS,
    Circuit,
    OpTable,
    op_table,
    ranges,
)
from .discrimination import OrthPair, decompose
from .errors import LambdaOutOfRange, NonUnitInput
from .time_encoding import rotation_ops
from .tolerances import ANGLE_TOL, OVERLAP_EQUAL_TOL, UNIT_NORM_TOL, ZERO_NORM_TOL
from .tree import AmplitudeTree, states_equal


@dataclass(frozen=True)
class DcOptions:
    disentangle: bool = True
    parallelize: bool = False
    prune: bool = False


@dataclass(frozen=True)
class StageReport:
    """Sidecar record for one disentangling stage."""

    level: int
    node: int
    control_wire: int
    ancilla_wires: tuple[int, ...]
    clbits: tuple[int, ...]
    computational: bool
    correction_values: tuple[int, ...]


def _loads(tree: AmplitudeTree, f: np.ndarray, wires: np.ndarray, prune: bool) -> OpTable:
    """One-wire loads of nodes ``f`` on ``wires``: ``h`` or ``x`` for an angle
    within ``ANGLE_TOL`` of pi/2 or pi, else a y-rotation; with ``prune``,
    none for an angle within it of 0."""
    angle = tree.alpha[f]
    if prune:
        kept = np.abs(angle) > ANGLE_TOL
        angle, wires = angle[kept], wires[kept]
    kind = np.where(np.abs(angle - np.pi) <= ANGLE_TOL, KIND["x"], KIND["roty"])
    kind[np.abs(angle - np.pi / 2.0) <= ANGLE_TOL] = KIND["h"]
    rotation = kind == KIND["roty"]
    return op_table(kind, wires[:, None], angle=(angle[rotation], rotation), role=ROLE[ROLE_LOAD])


def _stages(left: np.ndarray, right: np.ndarray):
    """What the disentangling stages of stacked real sibling states measure:
    which stages take the right state negated (``flipped``: the two overlap
    negatively), which hold equal states (``equal``), and the ``OrthPair``
    of the others' symmetric and antisymmetric combinations."""
    overlap = np.einsum("ij,ij->i", left, right)
    flipped = overlap < 0.0
    overlap = np.abs(overlap)
    # Equal states: the register factors out, any basis works.
    equal = overlap >= 1.0 - OVERLAP_EQUAL_TOL
    live = ~equal
    left, ov = left[live], overlap[live, None]
    right = np.where(flipped[live, None], -right[live], right[live])
    plus = (left + right) / np.sqrt(2.0 * (1.0 + ov))
    minus = (left - right) / np.sqrt(2.0 * (1.0 - ov))
    minus -= np.einsum("ij,ij->i", minus, plus)[:, None] * plus
    minus /= np.linalg.norm(minus, axis=1, keepdims=True)
    return flipped, equal, OrthPair.from_states(plus, minus)


def _corrections(flipped: np.ndarray, m: int) -> np.ndarray:
    """Per stage of unequal states on ``m`` ancilla wires, the outcome
    paths that picked the antisymmetric projector, on which the stage
    corrects.  Every leaf pair of a plan is labelled (+, -), so these are
    the odd paths, or the even ones when the stage took its right state
    negated (``flipped``)."""
    return (~flipped[:, None]).astype(np.int64) + 2 * np.arange(2 ** (m - 1))


def _checked(left, right, wires, controls):
    """One stack of stages as ``compile_disentangler`` takes it, checked:
    its states as 2-d float arrays, its wires as an int array of one row
    per stage, and its control wires."""
    left, right = np.asarray(left), np.asarray(right)
    if np.iscomplexobj(left) or np.iscomplexobj(right):
        raise NonUnitInput("disentangling bases are built from real vectors only")
    if left.ndim == 1:
        wires, controls = [wires], [controls]
    left, right = (np.atleast_2d(v).astype(float, copy=False) for v in (left, right))
    wires = [list(w) for w in wires]
    m = len(wires[0])
    ragged = len(controls) != len(wires) or any(len(w) != m for w in wires)
    if ragged or left.shape != right.shape or left.shape != (len(wires), 2**m):
        raise NonUnitInput(f"states {left.shape}/{right.shape} do not fit {len(wires)}x{m} wires")
    norms = np.linalg.norm(np.concatenate([left, right]), axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise NonUnitInput("input states must be unit norm")
    return left, right, np.reshape(np.array(wires, dtype=np.int64), (len(wires), m)), controls


def compile_disentangler(psi_left, psi_right, ancilla_wires, control_wire, first_clbit: int = 0):
    """Ops that measure out an ancilla register holding one of two known
    real states and restore the controlled superposition's relative sign.

    Measures ``ancilla_wires`` (ascending, one classical bit each,
    starting at ``first_clbit``) in the basis built from the symmetric
    and antisymmetric combinations of ``psi_left`` and ``psi_right``,
    then applies a Z on ``control_wire`` conditioned on the outcome
    paths that picked the antisymmetric projector.  When the two states
    coincide the register is already in a product state and plain
    computational measurements are emitted with no correction.

    Stacked states of shape ``(stages, 2**m)``, with one wire list and
    one control wire per stage, compile every stage at once; their ops
    follow in stage order on consecutive classical bits.  Lists of such
    stacks, of any widths, with a list of wire lists and a list of control
    wires per stack, are planned in one ``decompose`` call, then emitted
    stack by stack, each stack's classical bits following the last's.
    They give a list of ``(ops, flipped, equal)``, one per stack, with
    flags per stage: whether it took the right state negated, and whether
    it held equal states.
    """
    several = isinstance(psi_left, (list, tuple)) and len(psi_left) > 0
    several = several and np.ndim(psi_left[0]) == 2
    stacks = (psi_left, psi_right, ancilla_wires, control_wire)
    if not several:
        stacks = [stacks]
    elif len(set(map(len, stacks))) != 1:
        raise NonUnitInput(f"{'/'.join(str(len(x)) for x in stacks)} stacks of states, wires "
                           "and control wires")
    else:
        stacks = list(zip(*stacks))
    layouts, measured = [], []
    for stack in stacks:
        left, right, wires, controls = _checked(*stack)
        layouts.append((wires, controls))
        measured.append(_stages(left, right))
    plans = decompose([pair for *_, pair in measured], bases=False)
    if any(np.isnan(plan.angles).any() for plan in plans):
        raise NonUnitInput("plan basis is not a real rotation")
    out = []
    for (wires, controls), (flipped, equal, _), plan in zip(layouts, measured, plans):
        ops = _emit(wires, controls, flipped, equal, plan.angles, first_clbit)
        out.append((ops, flipped, equal))
        first_clbit += wires.size
    return out if several else out[0][0]


def _emit(wires: np.ndarray, controls, flipped: np.ndarray, equal: np.ndarray,
          angles: np.ndarray, first_clbit: int) -> OpTable:
    """The ops of one stack of stages on ``wires`` (a row per stage), given
    their flags and the plan angles of the stages of unequal states."""
    # Plan node ``2**k - 1 + path`` measures wire ``k`` after the outcomes
    # that spell ``path``, first outcome most significant, which is how a
    # condition reads bits.  Each stage follows one template: per wire
    # ``k`` one rotation, whose angle the path selects among the ``2**k``
    # nodes it keeps (slot ``2k``), then its measurement (``2k + 1``);
    # then the correction (``2m``), on the control wire, column ``m`` of
    # ``targets``.
    stages, m = wires.shape
    size = 2**m - 1
    depth = np.repeat(np.arange(m), 2 ** np.arange(m))  # of each plan node
    stage_angles, keep = np.zeros((stages, size)), np.zeros((stages, size), dtype=bool)
    stage_angles[~equal], keep[~equal] = angles, np.abs(angles) > ANGLE_TOL
    kept = np.add.reduceat(keep, 2 ** np.arange(m) - 1, axis=1, dtype=np.int64)  # per wire
    emit = np.ones((stages, 2 * m + 1), dtype=bool)
    emit[:, :-1:2], emit[:, -1] = kept > 0, ~equal
    stage, slot = np.nonzero(emit)
    k = slot // 2
    rotation, measured = (slot % 2 == 0) & (k < m), slot % 2 == 1
    first = first_clbit + m * stage  # each stage's first classical bit
    n_bits = np.where(measured, 0, k)
    n_angles = np.where(rotation, kept[stage, np.minimum(k, m - 1)], 0)
    n_values = np.where(rotation, n_angles * (k > 0), np.where(measured, 0, 2 ** (m - 1)))
    values = np.empty(n_values.sum(), dtype=np.int64)
    path = np.broadcast_to(np.arange(size) + 1 - 2**depth, keep.shape)
    values[np.repeat(rotation, n_values)] = path[keep & (depth > 0)]
    values[np.repeat(slot == 2 * m, n_values)] = _corrections(flipped[~equal], m).ravel()
    targets = np.column_stack((wires, controls))
    return op_table(
        np.where(rotation, KIND["roty"], np.where(measured, KIND["measure"], KIND["z"])),
        targets[stage, k][:, None],
        None,
        (np.repeat(first, n_bits) + ranges(n_bits), n_bits),
        (values, n_values),
        (stage_angles[keep], n_angles),
        role=np.where(rotation, ROLE[ROLE_MEAS_BASIS], np.where(measured, 0, ROLE[ROLE_CORRECT])),
        clbit=np.where(measured, first + k, -1),
    )


@dataclass(frozen=True)
class _Plan:
    """Planned synthesis, heap-indexed over the nodes down to the block roots."""

    keep: np.ndarray  # (nodes above the blocks, 2): whether each keeps its left, right child
    planned: np.ndarray  # whether each node is in the circuit
    order: np.ndarray  # the planned nodes in pre-order
    wire: np.ndarray  # each planned node's first wire; a block root's register starts there
    n_qubits: int


def _plan_tree(tree: AmplitudeTree, block_level: int, prune: bool) -> _Plan:
    top = 2**block_level - 1  # the first block root
    keep = np.ones((top, 2), dtype=bool)
    planned = np.zeros(2 * top + 1, dtype=bool)
    planned[0] = True
    for level in range(block_level):
        f = slice(2**level - 1, 2 ** (level + 1) - 1)
        if prune:  # left alone if the right weighs nothing, right alone if the left
            # does, else left alone if both children hold one state
            states = tree.states[level + 1]
            one = (tree.omega1[f] <= ZERO_NORM_TOL, tree.omega0[f] <= ZERO_NORM_TOL,
                   states_equal(states[0::2], states[1::2]))
            keep[f] = np.select([c[:, None] for c in one], [[1, 0], [0, 1], [1, 0]], 1)
        planned[2 ** (level + 1) - 1 : 2 ** (level + 2) - 1] = (planned[f, None] & keep[f]).ravel()
    # Pre-order: by the leftmost block position below each node, then ancestors first.
    f = np.flatnonzero(planned)
    depth = np.frexp(f + 1)[1] - 1
    order = f[np.lexsort((depth, (f + 1 - 2**depth) << (block_level - depth)))]
    width = np.where(order < top, 1, tree.n - block_level)
    wire = np.zeros(len(planned), dtype=np.int64)
    wire[order] = np.cumsum(width) - width
    return _Plan(keep, planned, order, wire, int(width.sum()))


def synthesize_combine(tree: AmplitudeTree, lam: int, opts: DcOptions) -> Circuit:
    """Shared engine: time-encode ``lam``-qubit sub-blocks, then combine
    them level by level with controlled swaps and disentangling."""
    block_level = tree.n - lam
    top = 2**block_level - 1
    plan = _plan_tree(tree, block_level, opts.prune)
    wire = plan.wire

    # Loads in the plan's pre-order: one op per one-wire node and a
    # multiplexed-rotation block at each wider block root.
    parts = []
    single = (plan.order < top) | (lam == 1)
    for run in np.split(plan.order, np.flatnonzero(np.diff(single)) + 1):
        if run[0] < top or lam == 1:
            parts.append(_loads(tree, run, wire[run], opts.prune))
        else:
            parts += [rotation_ops(tree, range(wire[f], wire[f] + lam), base_node=f) for f in run]

    # The combining stages of each level, from the bottom: its planned
    # nodes that keep both children, and the live registers they swap.
    # Each node's live register is its wire, then its kept child's (rows
    # of nodes not planned are never read).
    combines = []
    live = wire[top:, None] + np.arange(lam)
    for level in range(block_level - 1, -1, -1):
        base = 2**level - 1
        f = np.arange(base, 2 * base + 1)
        below, keep = live, plan.keep[f]
        live = np.column_stack((wire[f], below[2 * (f - base) + ~keep[:, 0]]))
        if len(p := np.flatnonzero(plan.planned[f] & keep.all(1))):
            combines.append((level, p, wire[f[p]], below[2 * p], below[2 * p + 1]))
    # A stage's measurement plan reads only its sibling states, rows of the
    # tree's level arrays, so one call plans and emits every level's stages.
    disentanglers = []
    if opts.disentangle and combines:
        states = [tree.states[level + 1] for level, *_ in combines]
        disentanglers = compile_disentangler(
            [s[2 * p] for s, (_, p, *_) in zip(states, combines)],
            [s[2 * p + 1] for s, (_, p, *_) in zip(states, combines)],
            [rights.tolist() for *_, rights in combines],
            [controls.tolist() for _, _, controls, *_ in combines],
        )

    # Each op's slot in the parallel schedule: twice its layer, plus one
    # after the level's swaps.
    slots = [np.zeros(sum(part.n_ops for part in parts), dtype=np.int64)]
    next_bit = 0
    reports: list[StageReport] = []
    for i, (level, p, controls, lefts, rights) in enumerate(combines):
        run_layers = np.array(_run_layers(tree.n - level - 1))
        m = rights.shape[1]
        swaps = np.column_stack((np.repeat(controls, m), lefts.ravel(), rights.ravel()))
        parts.append(op_table(KIND["cswap"], swaps, role=ROLE[ROLE_COMBINE]))
        slots.append(np.tile(2 * run_layers, len(p)))
        if not disentanglers:
            continue
        stage_ops, flipped, equal = disentanglers[i]
        parts.append(stage_ops)
        slots.append(np.full(stage_ops.n_ops, 2 * run_layers[-1] + 1))
        for node, control, wires, same, values in zip(
            (2**level - 1 + p).tolist(), controls.tolist(), rights.tolist(), equal.tolist(),
            _corrections(flipped, m).tolist(),
        ):
            clbits = tuple(range(next_bit, next_bit + m))
            reports.append(StageReport(level, node, control, tuple(wires), clbits, same,
                                       () if same else tuple(values)))
            next_bit += m

    ops = OpTable.concat(parts)
    del parts, disentanglers  # held no longer while the circuit validates
    if opts.parallelize:
        # Stable, so ops sharing a slot keep their emission order.
        ops = ops.take(np.argsort(np.concatenate(slots), kind="stable"))
    return Circuit(
        n_qubits=plan.n_qubits,
        n_clbits=next_bit,
        ops=ops,
        data_qubits=tuple(live[0].tolist()),
        stage_reports=tuple(reports),
    )


def synthesize_dc(tree: AmplitudeTree, opts: DcOptions | None = None) -> Circuit:
    """Divide-and-conquer circuit (``lam = 1``); one wire per tree node."""
    return synthesize_combine(tree, 1, opts or DcOptions())


def synthesize_hybrid(tree: AmplitudeTree, lam: int, opts: DcOptions | None = None) -> Circuit:
    """Hybrid circuit with ``lam``-qubit time-encoded sub-blocks."""
    if not 1 <= lam <= tree.n:
        raise LambdaOutOfRange(f"lambda {lam} outside 1..{tree.n}")
    return synthesize_combine(tree, lam, opts or DcOptions())


def synthesize_time(tree: AmplitudeTree) -> Circuit:
    """Measurement-free circuit on ``n`` wires (``lam = n``, pruned)."""
    return synthesize_combine(tree, tree.n, DcOptions(prune=True))


def _run_layers(length: int) -> list[int]:
    """Parallel-schedule layer (loading layer excluded) of each swap in a
    combining run of ``length`` swaps."""
    if length == 1:
        return [1]
    m = length + 1
    movable = [2 * m - 5 - j for j in range(length - 2)]
    return [2 * m - 4] + movable + [2 * m - 3]
