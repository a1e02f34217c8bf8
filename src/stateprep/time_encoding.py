"""Multiplexed-rotation block emitter.

The node at depth ``k`` and position ``p`` below a block's root becomes a
y-rotation on the block's ``k``-th wire, controlled on the first ``k``
wires reading the binary digits of ``p``.  Zero-angle nodes are skipped.
The synthesis engine (``divide_conquer.synthesize_combine``) emits every
sub-block wider than one qubit here; one block over all ``n`` wires is
plain time encoding (``synthesize_time``).
"""

from __future__ import annotations

from itertools import product

from .circuit import ROLE_LOAD, Gate, roty
from .tolerances import ANGLE_TOL
from .tree import AmplitudeTree


def rotation_ops(tree: AmplitudeTree, wires: list[int], base_node: int = 0) -> list[Gate]:
    """Multiplexed-rotation ops preparing the subtree at ``base_node`` on
    ``wires``."""
    root = float(tree.alpha[base_node])
    ops = [roty(wires[0], root, role=ROLE_LOAD)] if abs(root) > ANGLE_TOL else []
    for k in range(1, len(wires)):
        first = (base_node + 1) * 2**k - 1
        angles = tree.alpha[first : first + 2**k].tolist()
        qubits = tuple(wires[: k + 1])
        # ``product`` spells each position ``p`` in binary, most significant first.
        for angle, pols in zip(angles, product((0, 1), repeat=k)):
            if abs(angle) > ANGLE_TOL:
                ops.append(Gate("mcroty", qubits, angle=angle, polarities=pols, role=ROLE_LOAD))
    return ops
