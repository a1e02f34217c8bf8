"""Weighted binary tree encoding of a non-negative amplitude vector.

A length-``2**n`` vector is represented by a tree with ``2**n - 1`` nodes.
The node at level ``l`` (root is level 0) and position ``p`` has flat index
``f = 2**l - 1 + p``.  Each node stores the pair of edge weights to its
children and the y-rotation angle that prepares the corresponding
single-qubit state.  The product of edge weights along the path from the
root to leaf ``i`` equals amplitude ``x_i``.  A zero-norm node (no
amplitude anywhere below it) gets the unit weights ``(1, 0)`` and angle 0,
so every node's weights form a unit vector and the state below a
zero-norm node is ``|0...0>``, which is what the circuit leaves there.

The states below all nodes are formed bottom up, one level per array
step (``AmplitudeTree.states``); nothing recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NegativeAmplitude, NonFiniteAmplitude, NonPowerOfTwoLength
from .tolerances import REAL_TOL, STATE_EQ_TOL, ZERO_NORM_TOL
from .vector import normalize


@dataclass(frozen=True)
class AmplitudeTree:
    """Immutable angle tree for one input vector.

    All node arrays have length ``2**n - 1`` and are indexed by the flat
    node index ``f``.  Zero-norm nodes have weights ``(1, 0)`` and angle 0.
    """

    n: int
    omega0: np.ndarray
    omega1: np.ndarray
    alpha: np.ndarray

    @property
    def num_nodes(self) -> int:
        return 2**self.n - 1

    @cached_property
    def states(self) -> tuple[np.ndarray, ...]:
        """``states[l]`` has shape ``(2**l, 2**(n - l))``; row ``p`` is the
        state below node ``2**l - 1 + p``, ``|0...0>`` for zero-norm nodes."""
        level, out = np.ones((2**self.n, 1)), []
        for lvl in range(self.n - 1, -1, -1):
            w0, w1 = (w[2**lvl - 1 : 2 ** (lvl + 1) - 1, None] for w in (self.omega0, self.omega1))
            level = np.concatenate([w0 * level[0::2], w1 * level[1::2]], 1)
            out.append(level)
        return tuple(reversed(out))


def build_tree(amplitudes) -> AmplitudeTree:
    """Build the weighted tree for a non-negative vector of length ``2**n``.

    The vector is renormalized internally; entries must be real, finite
    and non-negative.  Raises ``NonPowerOfTwoLength``,
    ``NonFiniteAmplitude``, ``NegativeAmplitude`` or ``ZeroVector`` on
    invalid input.
    """
    arr = np.asarray(amplitudes)
    if np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag)) > REAL_TOL:
            raise NegativeAmplitude("complex amplitudes are not supported")
        arr = arr.real
    x = np.asarray(arr, dtype=float)
    size = x.size
    if size < 2 or size & (size - 1):
        raise NonPowerOfTwoLength(f"length {size} is not a power of two >= 2")
    if not np.isfinite(x).all():
        raise NonFiniteAmplitude("amplitudes must be finite")
    # A negative entry this small beside the largest one is rounding, not sign.
    if np.min(x) < -ZERO_NORM_TOL * np.max(np.abs(x)):
        raise NegativeAmplitude(f"negative amplitude {np.min(x)}")
    x = normalize(np.clip(x, 0.0, None))

    n = size.bit_length() - 1
    omega0 = np.zeros(size - 1)
    omega1 = np.zeros(size - 1)

    cur = x
    for level in range(n - 1, -1, -1):
        parent = np.sqrt(cur[0::2] ** 2 + cur[1::2] ** 2)
        base = 2**level - 1
        ok = parent > ZERO_NORM_TOL
        safe = np.where(ok, parent, 1.0)
        omega0[base : base + 2**level] = np.where(ok, cur[0::2] / safe, 1.0)
        omega1[base : base + 2**level] = np.where(ok, cur[1::2] / safe, 0.0)
        cur = np.where(ok, parent, 0.0)

    alpha = 2.0 * np.arctan2(omega1, omega0)
    return AmplitudeTree(n=n, omega0=omega0, omega1=omega1, alpha=alpha)


def states_equal(a: np.ndarray, b: np.ndarray):
    """Whether rows of ``a`` and ``b`` agree entry by entry, within ``STATE_EQ_TOL``."""
    return np.max(np.abs(a - b), axis=-1) <= STATE_EQ_TOL
