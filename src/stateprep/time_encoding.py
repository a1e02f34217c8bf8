"""Multiplexed-rotation block emitter.

The node at depth ``k`` and position ``p`` below a block's root becomes a
y-rotation on the block's ``k``-th wire, controlled on the first ``k``
wires reading the binary digits of ``p``.  Zero-angle nodes are skipped.
The synthesis engine (``divide_conquer.synthesize_combine``) emits every
sub-block wider than one qubit here; one block over all ``n`` wires is
plain time encoding (``synthesize_time``).
"""

from __future__ import annotations

from .circuit import ROLE_LOAD, Gate, mcroty, roty
from .tree import ANGLE_TOL, AmplitudeTree


def rotation_ops(tree: AmplitudeTree, wires: list[int], base_node: int = 0) -> list[Gate]:
    """Multiplexed-rotation ops preparing the subtree at ``base_node`` on
    ``wires``."""
    depth = len(wires)
    ops: list[Gate] = []
    for k in range(depth):
        for p in range(2**k):
            angle = tree.alpha[(base_node + 1) * 2**k - 1 + p]
            if abs(angle) <= ANGLE_TOL:
                continue
            if k == 0:
                ops.append(roty(wires[0], angle, role=ROLE_LOAD))
            else:
                controls = [(wires[j], (p >> (k - 1 - j)) & 1) for j in range(k)]
                ops.append(mcroty(angle, controls, wires[k], role=ROLE_LOAD))
    return ops

