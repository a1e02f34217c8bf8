"""The synthesis engine.  ``synthesize_combine(tree, lam, opts)`` prepares
every ``lam``-qubit subtree as a multiplexed-rotation block on its own
wires, loads each node above them on one control wire, and combines the
registers bottom-up with controlled swaps and measurement-based
disentangling.  ``lam = 1`` is the divide-and-conquer circuit
(``synthesize_dc``), ``lam = n`` plain time encoding (``synthesize_time``)
and the values between are the hybrid family (``synthesize_hybrid``).

The planner (``_plan_tree``) makes one pre-order pass over the angle
tree: it decides each node's mode, gives the node its own wires on the
way down (so the data register occupies the first wires) and its live
register, the wires holding its subtree's state, on the way back up.
Levels are combined from the bottom up; the combine at a node swaps the
live registers of its two children under its control wire, then the
right register is measured in an adaptive basis and a conditioned Z on
the control wire undoes the relative sign, leaving the ancilla wires in
computational states.  With ``prune``, the planner alone decides which
nodes keep one child.

Synthesis works one tree level at a time and nothing recurses over the
plans: the sibling states of every combining stage of a level are rows of
the tree's level arrays (``AmplitudeTree.states``, where a zero-norm
subtree's row is the ground state its wires are left in), and one
``compile_disentangler`` call builds all of the level's measurement plans
together and emits the level's ops in stage order.

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
from itertools import groupby

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
from .tree import AmplitudeTree, children_of, states_equal


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


def _loads(tree: AmplitudeTree, nodes: list[tuple[int, int]], prune: bool) -> OpTable:
    """One-wire loads of ``(node, wire)`` pairs: ``h`` or ``x`` for an angle
    within ``ANGLE_TOL`` of pi/2 or pi, else a y-rotation; with ``prune``,
    none for an angle within it of 0."""
    f, wires = np.array(nodes, dtype=np.int64).T
    angle = tree.alpha[f]
    if prune:
        kept = np.abs(angle) > ANGLE_TOL
        angle, wires = angle[kept], wires[kept]
    kind = np.where(np.abs(angle - np.pi) <= ANGLE_TOL, KIND["x"], KIND["roty"])
    kind[np.abs(angle - np.pi / 2.0) <= ANGLE_TOL] = KIND["h"]
    rotation = kind == KIND["roty"]
    return op_table(kind, wires[:, None], angle=(angle[rotation], rotation), role=ROLE[ROLE_LOAD])


def compile_disentangler(
    psi_left,
    psi_right,
    ancilla_wires,
    control_wire,
    first_clbit: int = 0,
) -> OpTable:
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
    follow in stage order on consecutive classical bits.
    """
    left, right = np.asarray(psi_left), np.asarray(psi_right)
    if np.iscomplexobj(left) or np.iscomplexobj(right):
        raise NonUnitInput("disentangling bases are built from real vectors only")
    if left.ndim == 1:
        ancilla_wires, control_wire = [ancilla_wires], [control_wire]
    left, right = (np.atleast_2d(v).astype(float) for v in (left, right))
    wires = [list(w) for w in ancilla_wires]
    m = len(wires[0])
    ragged = len(control_wire) != len(wires) or any(len(w) != m for w in wires)
    if ragged or left.shape != right.shape or left.shape != (len(wires), 2**m):
        raise NonUnitInput(f"states {left.shape}/{right.shape} do not fit {len(wires)}x{m} wires")
    norms = np.linalg.norm(np.concatenate([left, right]), axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise NonUnitInput("input states must be unit norm")

    overlap = np.einsum("ij,ij->i", left, right)
    flipped = overlap < 0.0
    right = np.where(flipped[:, None], -right, right)
    overlap = np.abs(overlap)
    # Equal states: the register factors out, any basis works.
    equal = overlap >= 1.0 - OVERLAP_EQUAL_TOL
    live = np.flatnonzero(~equal)
    ov = overlap[live, None]
    plus = (left[live] + right[live]) / np.sqrt(2.0 * (1.0 + ov))
    minus = (left[live] - right[live]) / np.sqrt(2.0 * (1.0 - ov))
    minus -= np.einsum("ij,ij->i", minus, plus)[:, None] * plus
    minus /= np.linalg.norm(minus, axis=1, keepdims=True)
    angles = decompose(OrthPair.from_states(plus, minus)).angles
    if np.isnan(angles).any():
        raise NonUnitInput("plan basis is not a real rotation")

    # Plan node ``2**k - 1 + path`` measures wire ``k`` after the outcomes
    # that spell ``path``, first outcome most significant, which is how a
    # condition reads bits.  Every leaf pair is labelled (+, -), so the
    # antisymmetric outcomes are the odd paths (even ones when flipped).
    # Each stage follows one template: per wire ``k`` one rotation, whose
    # angle the path selects among the ``2**k`` nodes it keeps (slot ``2k``),
    # then its measurement (``2k + 1``); then the correction (``2m``), on
    # the control wire, column ``m`` of ``targets``.
    size = 2**m - 1
    depth = np.repeat(np.arange(m), 2 ** np.arange(m))  # of each plan node
    stage_angles, keep = np.zeros((len(wires), size)), np.zeros((len(wires), size), dtype=bool)
    stage_angles[live], keep[live] = angles, np.abs(angles) > ANGLE_TOL
    kept = np.add.reduceat(keep, 2 ** np.arange(m) - 1, axis=1, dtype=np.int64)  # per wire
    emit = np.ones((len(wires), 2 * m + 1), dtype=bool)
    emit[:, :-1:2], emit[:, -1] = kept > 0, ~equal
    stage, slot = np.nonzero(emit)
    k = slot // 2
    rotation, measured = (slot % 2 == 0) & (k < m), slot % 2 == 1
    first = first_clbit + m * stage  # each stage's first classical bit
    n_bits = np.where(measured, 0, k)
    n_angles = np.where(rotation, kept[stage, np.minimum(k, m - 1)], 0)
    n_values = np.where(rotation, n_angles * (k > 0), np.where(measured, 0, 2 ** (m - 1)))
    values = np.repeat(1 - flipped[stage].astype(np.int64), n_values) + 2 * ranges(n_values)
    path = np.broadcast_to(np.arange(size) + 1 - 2**depth, keep.shape)
    values[np.repeat(rotation, n_values)] = path[keep & (depth > 0)]
    targets = np.column_stack((np.reshape(np.array(wires, dtype=np.int64), (len(wires), m)),
                               control_wire))
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


@dataclass
class _Plan:
    """Planned synthesis: which nodes exist, their wires and how each one combines."""

    mode: dict[int, str]  # "combine" | "left" | "right" for control nodes
    wires: dict[int, list[int]]  # included node -> its own wires, in pre-order
    live: dict[int, list[int]]  # included node -> the register holding its state


def _plan_tree(tree: AmplitudeTree, block_level: int, prune: bool) -> _Plan:
    plan = _Plan({}, {}, {})
    # Whether the two children of each node hold the same state, by level.
    same: list[np.ndarray] = []
    if prune:
        for level in range(block_level):
            states = tree.states[level + 1]
            same.append(states_equal(states[0::2], states[1::2]))

    def visit(f: int, level: int, cursor: int) -> int:
        """Plan the subtree at ``f`` from wire ``cursor``; the next free wire."""
        if level == block_level:
            plan.wires[f] = plan.live[f] = list(range(cursor, cursor + tree.n - level))
            return cursor + tree.n - level
        plan.wires[f] = [cursor]
        left, right = children_of(f)
        if not prune:
            mode = "combine"
        elif tree.omega1[f] <= ZERO_NORM_TOL:
            mode = "left"
        elif tree.omega0[f] <= ZERO_NORM_TOL:
            mode = "right"
        elif same[level][f + 1 - 2**level]:
            mode = "left"
        else:
            mode = "combine"
        plan.mode[f] = mode
        cursor += 1
        if mode != "right":
            cursor = visit(left, level + 1, cursor)
        if mode != "left":
            cursor = visit(right, level + 1, cursor)
        plan.live[f] = [plan.wires[f][0]] + plan.live[right if mode == "right" else left]
        return cursor

    visit(0, 0, 0)
    return plan


def synthesize_combine(tree: AmplitudeTree, lam: int, opts: DcOptions) -> Circuit:
    """Shared engine: time-encode ``lam``-qubit sub-blocks, then combine
    them level by level with controlled swaps and disentangling."""
    block_level = tree.n - lam
    plan = _plan_tree(tree, block_level, opts.prune)

    # Loads in the plan's pre-order: one op per node above the blocks and a
    # multiplexed-rotation block at each block root.
    parts = []
    for single, run in groupby(plan.wires.items(), key=lambda item: len(item[1]) == 1):
        if single:
            parts.append(_loads(tree, [(f, wires[0]) for f, wires in run], opts.prune))
        else:
            parts += [rotation_ops(tree, wires, base_node=f) for f, wires in run]

    # Each op's slot in the parallel schedule: twice its layer, plus one
    # after the level's swaps.
    slots = [np.zeros(sum(part.n_ops for part in parts), dtype=np.int64)]
    next_bit = 0
    reports: list[StageReport] = []
    for level in range(block_level - 1, -1, -1):
        base = 2**level - 1
        combiners = [base + p for p in range(2**level) if plan.mode.get(base + p) == "combine"]
        if not combiners:
            continue
        run_layers = np.array(_run_layers(tree.n - level - 1))
        controls = np.array([plan.wires[f][0] for f in combiners])
        lefts, rights = (np.array([plan.live[children_of(f)[side]] for f in combiners])
                         for side in (0, 1))
        m = rights.shape[1]
        swaps = np.column_stack((np.repeat(controls, m), lefts.ravel(), rights.ravel()))
        parts.append(op_table(KIND["cswap"], swaps, role=ROLE[ROLE_COMBINE]))
        slots.append(np.tile(2 * run_layers, len(combiners)))
        if not opts.disentangle:
            continue
        states = tree.states[level + 1]
        pos = 2 * (np.array(combiners) - base)
        stage_ops = compile_disentangler(
            states[pos], states[pos + 1], rights.tolist(), controls.tolist(), first_clbit=next_bit
        )
        parts.append(stage_ops)
        slots.append(np.full(stage_ops.n_ops, 2 * run_layers[-1] + 1))
        # Each correction has one wire, so its qubits line up with its rows.
        fixes = stage_ops.take(np.flatnonzero(stage_ops.role == ROLE[ROLE_CORRECT]))
        fired = dict(zip(fixes.qubits.tolist(), fixes.rows(3)))
        for f, control, wires in zip(combiners, controls.tolist(), rights.tolist()):
            clbits = tuple(range(next_bit, next_bit + m))
            values = tuple(fired.get(control, ()))
            reports.append(StageReport(level, f, control, tuple(wires), clbits, not values, values))
            next_bit += m

    ops = OpTable.concat(parts)
    if opts.parallelize:
        # Stable, so ops sharing a slot keep their emission order.
        ops = ops.take(np.argsort(np.concatenate(slots), kind="stable"))
    return Circuit(
        n_qubits=sum(map(len, plan.wires.values())),
        n_clbits=next_bit,
        ops=ops,
        data_qubits=tuple(plan.live[0]),
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
