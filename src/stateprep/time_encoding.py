"""Multiplexed-rotation block emitter.

The node at depth ``k`` and position ``p`` below a block's root becomes a
y-rotation on the block's ``k``-th wire, controlled on the first ``k``
wires reading the binary digits of ``p``.  Zero-angle nodes are skipped.
The synthesis engine (``divide_conquer.synthesize_combine``) emits every
sub-block wider than one qubit here; one block over all ``n`` wires is
plain time encoding (``synthesize_time``).
"""

from __future__ import annotations

import numpy as np

from .circuit import KIND, ROLE, ROLE_LOAD, OpTable, op_table, ranges
from .tolerances import ANGLE_TOL
from .tree import AmplitudeTree


def rotation_ops(tree: AmplitudeTree, wires: list[int], base_node: int = 0) -> OpTable:
    """Multiplexed-rotation ops preparing the subtree at ``base_node`` on
    ``wires``, every level at once."""
    k = np.repeat(np.arange(len(wires)), 2 ** np.arange(len(wires)))  # each node's depth
    p = np.arange(len(k)) - (2**k - 1)  # and its position in its level
    angle = tree.alpha[(base_node + 1) * 2**k - 1 + p]
    kept = np.abs(angle) > ANGLE_TOL
    k, p, angle = k[kept], p[kept], angle[kept]
    # Position ``p``'s polarities spell it in binary, most significant first.
    pols = (np.repeat(p, k) >> (np.repeat(k, k) - 1 - ranges(k))) & 1
    qubits = np.asarray(wires, dtype=np.int64)[ranges(k + 1)]
    kind = np.where(k > 0, KIND["mcroty"], KIND["roty"])
    return op_table(kind, (qubits, k + 1), (pols, k), angle=angle[:, None], role=ROLE[ROLE_LOAD])
