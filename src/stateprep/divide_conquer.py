"""The synthesis engine.  ``synthesize_combine(tree, lam, opts)`` prepares
every ``lam``-qubit subtree as a multiplexed-rotation block on its own
wires, loads each node above them on one control wire, and combines the
registers bottom-up with controlled swaps and measurement-based
disentangling.  ``lam = 1`` is the divide-and-conquer circuit
(``synthesize_dc``), ``lam = n`` plain time encoding (``synthesize_time``)
and the values between are the hybrid family (``synthesize_hybrid``).

Wires are assigned by pre-order traversal of the angle tree so that the
data register always occupies the first wires.  Levels are combined from
the bottom up; the combine at a node swaps the live registers of its two
children under its control wire, then the right register is measured in
an adaptive basis and a conditioned Z on the control wire undoes the
relative sign, leaving the ancilla wires in computational states.
With ``prune``, ``_plan_tree`` alone decides which nodes keep one child.

``parallelize_cswaps`` repositions the interior swaps of every combining
run into earlier layers.  In a run of ``c`` swaps (its enclosing block
calls it stage ``m = c + 1``) the first and last swaps are rigid; the
``j``-th movable swap is placed alongside rigid slot ``2(m-3) - j``,
which compresses the gate depth of the dense circuit to ``2n - 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tree as tree_mod
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
    with_ops,
)
from .discrimination import OrthPair, PlanLeaf, decompose
from .errors import (
    LambdaOutOfRange,
    NegativeOverlapAfterConvention,
    NonUnitInput,
    UnrecognizedStructure,
)
from .time_encoding import rotation_ops
from .tree import ANGLE_TOL, AmplitudeTree, ZERO_NORM_TOL, children_of, state_or_ground

# States are treated as equal only at machine-level overlap deficit.
# The +/- basis construction stays numerically sound for any larger
# deficit, while a computational shortcut there can distort the rare
# outcomes' amplitude ratios on wide-dynamic-range inputs.
OVERLAP_EQUAL_TOL = 1e-12


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
    control_wire: int,
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
    """
    left = np.asarray(psi_left, dtype=float if not np.iscomplexobj(psi_left) else complex)
    right = np.asarray(psi_right, dtype=float if not np.iscomplexobj(psi_right) else complex)
    if np.iscomplexobj(left) or np.iscomplexobj(right):
        raise NonUnitInput("disentangling bases are built from real vectors only")
    left = left.reshape(-1).astype(float)
    right = right.reshape(-1).astype(float)
    wires = list(ancilla_wires)
    if left.shape != right.shape or left.size != 2 ** len(wires):
        raise NonUnitInput(
            f"state dimensions {left.size}/{right.size} do not match {len(wires)} wires"
        )
    if abs(np.linalg.norm(left) - 1.0) > 1e-9 or abs(np.linalg.norm(right) - 1.0) > 1e-9:
        raise NonUnitInput("input states must be unit norm")

    flipped = False
    overlap = float(left @ right)
    if overlap < 0.0:
        right = -right
        overlap = -overlap
        flipped = True
    if overlap < -1e-12:
        raise NegativeOverlapAfterConvention(f"overlap {overlap} still negative")

    if overlap >= 1.0 - OVERLAP_EQUAL_TOL:
        # Equal states: the register factors out, any basis works.
        return [measure(w, first_clbit + k) for k, w in enumerate(wires)]

    plus = (left + right) / np.sqrt(2.0 * (1.0 + overlap))
    minus = (left - right) / np.sqrt(2.0 * (1.0 - overlap))
    plan = decompose(OrthPair.from_states(plus, minus))

    # A plan path is tracked as the integer its outcomes spell, first
    # outcome most significant, which is how a ``Condition`` reads bits.
    ops: list[Gate] = []
    nodes = [(0, plan.root)]
    for k, wire in enumerate(wires):
        bits = tuple(range(first_clbit, first_clbit + k))
        next_nodes = []
        for path, node in nodes:
            if isinstance(node, PlanLeaf):
                raise NonUnitInput("plan shorter than ancilla register")
            if node.angle is None:
                raise NonUnitInput("plan basis is not a real rotation")
            if abs(node.angle) > ANGLE_TOL:
                condition = Condition(bits, (path,)) if k > 0 else None
                ops.append(
                    roty(wire, node.angle, condition=condition, role=ROLE_MEAS_BASIS)
                )
            next_nodes.append((2 * path, node.on0))
            next_nodes.append((2 * path + 1, node.on1))
        ops.append(measure(wire, first_clbit + k))
        nodes = next_nodes

    # ``paths()`` lists all 2**m leaves in order, so a leaf's index is its path.
    bits = tuple(range(first_clbit, first_clbit + len(wires)))
    values = tuple(
        i for i, (_, label) in enumerate(plan.paths()) if (label == "-") != flipped
    )
    ops.append(pauli_z(control_wire, condition=Condition(bits, values), role=ROLE_CORRECT))
    return ops


@dataclass
class _Plan:
    """Planned synthesis: which nodes exist and how each one combines."""

    mode: dict[int, str]  # "combine" | "left" | "right" for control nodes
    wire: dict[int, int]  # control node -> wire
    block_wires: dict[int, list[int]]  # block root -> wires
    order: list[int]  # included nodes in pre-order


def _plan_tree(tree: AmplitudeTree, block_level: int, prune: bool) -> _Plan:
    mode: dict[int, str] = {}
    included: list[int] = []

    def visit(f: int, level: int) -> None:
        included.append(f)
        if level == block_level:
            return
        left, right = children_of(f)
        if not prune:
            mode[f] = "combine"
        elif tree.omega1[f] <= ZERO_NORM_TOL:
            mode[f] = "left"
        elif tree.omega0[f] <= ZERO_NORM_TOL:
            mode[f] = "right"
        elif tree_mod.states_equal(state_or_ground(tree, left), state_or_ground(tree, right)):
            mode[f] = "left"
        else:
            mode[f] = "combine"
        if mode[f] != "right":
            visit(left, level + 1)
        if mode[f] != "left":
            visit(right, level + 1)

    visit(0, 0)

    lam = tree.n - block_level
    wire: dict[int, int] = {}
    block_wires: dict[int, list[int]] = {}
    cursor = 0
    for f in included:
        if tree_mod.level_of(f) == block_level:
            block_wires[f] = list(range(cursor, cursor + lam))
            cursor += lam
        else:
            wire[f] = cursor
            cursor += 1
    return _Plan(mode=mode, wire=wire, block_wires=block_wires, order=included)


def _live_wires(plan: _Plan, f: int, block_level: int) -> list[int]:
    if tree_mod.level_of(f) == block_level:
        return plan.block_wires[f]
    left, right = children_of(f)
    child = right if plan.mode[f] == "right" else left
    return [plan.wire[f]] + _live_wires(plan, child, block_level)


def synthesize_combine(tree: AmplitudeTree, lam: int, opts: DcOptions) -> Circuit:
    """Shared engine: time-encode ``lam``-qubit sub-blocks, then combine
    them level by level with controlled swaps and disentangling."""
    block_level = tree.n - lam
    plan = _plan_tree(tree, block_level, opts.prune)

    ops: list[Gate] = []
    for f in plan.order:
        if f in plan.block_wires and lam > 1:
            ops.extend(rotation_ops(tree, plan.block_wires[f], base_node=f))
            continue
        angle = tree.alpha[f]
        if opts.prune and abs(angle) <= ANGLE_TOL:
            continue
        wire = plan.wire[f] if f in plan.wire else plan.block_wires[f][0]
        ops.append(_loading_gate(wire, angle))

    next_bit = 0
    reports: list[StageReport] = []
    for level in range(block_level - 1, -1, -1):
        base = 2**level - 1
        combiners = [base + p for p in range(2**level) if plan.mode.get(base + p) == "combine"]
        stage_meta = []
        for f in combiners:
            left, right = children_of(f)
            control = plan.wire[f]
            left_live = _live_wires(plan, left, block_level)
            right_live = _live_wires(plan, right, block_level)
            for a, b in zip(left_live, right_live):
                ops.append(cswap(control, a, b, role=ROLE_COMBINE))
            stage_meta.append((f, control, right_live, left, right))
        if not opts.disentangle:
            continue
        for f, control, right_live, left, right in stage_meta:
            psi_left = state_or_ground(tree, left)
            psi_right = state_or_ground(tree, right)
            stage_ops = compile_disentangler(
                psi_left, psi_right, right_live, control, first_clbit=next_bit
            )
            clbits = tuple(range(next_bit, next_bit + len(right_live)))
            next_bit += len(right_live)
            ops.extend(stage_ops)
            correction = stage_ops[-1] if stage_ops[-1].kind == "z" else None
            reports.append(
                StageReport(
                    level=level,
                    node=f,
                    control_wire=control,
                    ancilla_wires=tuple(right_live),
                    clbits=clbits,
                    computational=correction is None,
                    correction_values=correction.condition.values if correction else (),
                )
            )

    n_qubits = len(plan.wire) + lam * len(plan.block_wires)
    data = tuple(_live_wires(plan, 0, block_level))
    circuit = Circuit(
        n_qubits=n_qubits,
        n_clbits=next_bit,
        ops=tuple(ops),
        data_qubits=data,
        stage_reports=tuple(reports),
    )
    if opts.parallelize:
        circuit = parallelize_cswaps(circuit)
    return circuit


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
    """Post-parallelization layer (loading layer excluded) of each swap in
    a combining run of ``length`` swaps."""
    m = length + 1
    if length == 1:
        return [1]
    if length == 2:
        return [2, 3]
    movable = [2 * m - 5 - j for j in range(length - 2)]
    return [2 * m - 4] + movable + [2 * m - 3]


def parallelize_cswaps(circuit: Circuit) -> Circuit:
    """Reposition movable swaps so every combining stage beyond the first
    two contributes only its two rigid layers.

    Expects the op layout produced by ``synthesize_dc``: loading ops,
    then per level a group of swap runs followed by that level's
    measurement machinery.  The simulated state is unchanged; the gate
    depth of the dense circuit becomes ``2n - 2``.
    """
    ops = circuit.ops
    first_cswap = next((i for i, op in enumerate(ops) if op.kind == "cswap"), None)
    if first_cswap is None:
        return circuit
    loads = ops[:first_cswap]
    if any(not op.is_unitary or op.condition is not None for op in loads):
        raise UnrecognizedStructure("unexpected ops before the first swap run")

    # Split the remainder into swap runs (one per control) and machinery.
    segments: list[tuple[str, list[tuple[int, Gate]]]] = []
    for idx in range(first_cswap, len(ops)):
        op = ops[idx]
        if op.kind == "cswap":
            if (
                segments
                and segments[-1][0] == "run"
                and segments[-1][1][-1][1].qubits[0] == op.qubits[0]
            ):
                segments[-1][1].append((idx, op))
            else:
                segments.append(("run", [(idx, op)]))
        else:
            if segments and segments[-1][0] == "mach":
                segments[-1][1].append((idx, op))
            else:
                segments.append(("mach", [(idx, op)]))

    # Validate the level structure so an already-parallelized circuit is
    # rejected instead of silently scrambled.  With measurement machinery
    # present, the runs between two machinery blocks form one level and
    # must share a length, and lengths must grow level over level; with
    # no machinery, the run lengths must be non-decreasing.
    has_machinery = any(kind == "mach" for kind, _ in segments)
    prev_level_len: int | None = None
    group: list[int] = []
    for kind, entries in segments + [("mach", [])]:
        if kind == "run":
            group.append(len(entries))
            continue
        if has_machinery:
            if len(set(group)) > 1:
                raise UnrecognizedStructure("swap runs of mixed length within one level")
            if group:
                if prev_level_len is not None and group[0] <= prev_level_len:
                    raise UnrecognizedStructure("swap runs fail to grow between levels")
                prev_level_len = group[0]
        elif group != sorted(group):
            raise UnrecognizedStructure("swap runs shrink between levels")
        group = []

    keyed: list[tuple[tuple[int, int, int], Gate]] = []
    for i, op in enumerate(loads):
        keyed.append(((0, 0, i), op))
    last_run_len: int | None = None
    for kind, entries in segments:
        if kind == "run":
            last_run_len = len(entries)
            layers = _run_layers(last_run_len)
            for (idx, op), layer in zip(entries, layers):
                keyed.append(((layer, 0, idx), op))
        else:
            if last_run_len is None:
                raise UnrecognizedStructure("measurement machinery before any swap run")
            mach_layer = _run_layers(last_run_len)[-1]
            for idx, op in entries:
                keyed.append(((mach_layer, 1, idx), op))

    keyed.sort(key=lambda item: item[0])
    return with_ops(circuit, (op for _, op in keyed))
