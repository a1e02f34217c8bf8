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

import numpy as np

from .circuit import (
    ROLE_COMBINE,
    ROLE_CORRECT,
    ROLE_LOAD,
    ROLE_MEAS_BASIS,
    Circuit,
    Condition,
    Gate,
    cswap,
    hadamard,
    measure,
    pauli_x,
    pauli_z,
    roty,
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


def _loading_gate(wire: int, angle: float) -> Gate:
    if abs(angle - np.pi / 2.0) <= ANGLE_TOL:
        return hadamard(wire, role=ROLE_LOAD)
    if abs(angle - np.pi) <= ANGLE_TOL:
        return pauli_x(wire, role=ROLE_LOAD)
    return roty(wire, angle, role=ROLE_LOAD)


def compile_disentangler(
    psi_left,
    psi_right,
    ancilla_wires,
    control_wire,
    first_clbit: int = 0,
) -> list[Gate]:
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
    plans = zip(angles.tolist(), (np.abs(angles) > ANGLE_TOL).tolist())

    # Plan node ``2**k - 1 + path`` measures wire ``k`` after the outcomes
    # that spell ``path``, first outcome most significant, which is how a
    # ``Condition`` reads bits.  Every leaf pair is labelled (+, -), so the
    # antisymmetric outcomes are the odd paths (even ones when flipped).
    ops: list[Gate] = []
    for stage, (stage_wires, control) in enumerate(zip(wires, control_wire)):
        clbits = tuple(range(first_clbit + stage * m, first_clbit + (stage + 1) * m))
        if equal[stage]:
            ops.extend(measure(w, b) for w, b in zip(stage_wires, clbits))
            continue
        stage_angles, keep = next(plans)
        for k, wire in enumerate(stage_wires):
            for path in range(2**k):
                node = 2**k - 1 + path
                if keep[node]:
                    condition = Condition(clbits[:k], (path,)) if k else None
                    ops.append(roty(wire, stage_angles[node], condition, ROLE_MEAS_BASIS))
            ops.append(measure(wire, clbits[k]))
        values = tuple(range(1 - int(flipped[stage]), 2**m, 2))
        ops.append(pauli_z(control, condition=Condition(clbits, values), role=ROLE_CORRECT))
    return ops


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

    ops: list[Gate] = []
    for f, wires in plan.wires.items():
        if len(wires) > 1:
            ops.extend(rotation_ops(tree, wires, base_node=f))
            continue
        angle = tree.alpha[f]
        if opts.prune and abs(angle) <= ANGLE_TOL:
            continue
        ops.append(_loading_gate(wires[0], angle))

    # Each op's slot in the parallel schedule: (layer, after the level's swaps).
    slots = [(0, 0)] * len(ops)
    next_bit = 0
    reports: list[StageReport] = []
    for level in range(block_level - 1, -1, -1):
        base = 2**level - 1
        combiners = [base + p for p in range(2**level) if plan.mode.get(base + p) == "combine"]
        run_layers = _run_layers(tree.n - level - 1)
        controls, right_lives = [], []
        for f in combiners:
            control, (left, right) = plan.wires[f][0], children_of(f)
            for a, b in zip(plan.live[left], plan.live[right]):
                ops.append(cswap(control, a, b, role=ROLE_COMBINE))
            slots.extend((layer, 0) for layer in run_layers)
            controls.append(control)
            right_lives.append(plan.live[right])
        if not opts.disentangle or not combiners:
            continue
        states = tree.states[level + 1]
        pos = 2 * (np.array(combiners) - base)
        stage_ops = compile_disentangler(
            states[pos], states[pos + 1], right_lives, controls, first_clbit=next_bit
        )
        ops.extend(stage_ops)
        slots.extend([(run_layers[-1], 1)] * len(stage_ops))
        fired = {op.qubits[0]: op.condition.values for op in stage_ops if op.role == ROLE_CORRECT}
        m = len(right_lives[0])
        for f, control, wires in zip(combiners, controls, right_lives):
            clbits = tuple(range(next_bit, next_bit + m))
            values = fired.get(control, ())
            reports.append(StageReport(level, f, control, tuple(wires), clbits, not values, values))
            next_bit += m

    if opts.parallelize:
        # Stable, so ops sharing a slot keep their emission order.
        ops = [ops[i] for i in sorted(range(len(ops)), key=slots.__getitem__)]
    return Circuit(
        n_qubits=sum(map(len, plan.wires.values())),
        n_clbits=next_bit,
        ops=tuple(ops),
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
