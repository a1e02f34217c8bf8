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

from .errors import (
    NegativeAmplitude,
    NonFiniteAmplitude,
    NonPowerOfTwoLength,
    ZeroVector,
)
from .tolerances import REAL_TOL, STATE_EQ_TOL, ZERO_NORM_TOL


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


def level_of(f: int) -> int:
    return (f + 1).bit_length() - 1


def children_of(f: int) -> tuple[int, int]:
    return 2 * f + 1, 2 * f + 2


def pad_to_power_of_two(amplitudes) -> np.ndarray:
    """Append zeros until the length is a power of two (at least 2)."""
    x = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    size = max(2, 1 << (int(len(x)) - 1).bit_length())
    if len(x) == size:
        return x
    return np.concatenate([x, np.zeros(size - len(x))])


def normalize(x) -> np.ndarray:
    """``x`` over its norm, along the last axis.  Each row is first scaled
    by a power of two, which is exact and keeps its squares from
    overflowing or underflowing.  Raises ``ZeroVector`` for a zero row."""
    x = np.asarray(x)
    parts = np.stack((x.real, x.imag))
    top = np.max(np.abs(parts), axis=(0, -1), keepdims=True)
    if np.any(top == 0.0):
        raise ZeroVector("vector has zero norm")
    parts = np.ldexp(parts, -np.frexp(top)[1])
    x = parts[0] + 1j * parts[1] if np.iscomplexobj(x) else parts[0]
    return x / (np.linalg.norm(x) if x.ndim == 1 else np.linalg.norm(x, axis=-1, keepdims=True))


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

    alpha = 2.0 * np.arcsin(np.clip(omega1, 0.0, 1.0))
    return AmplitudeTree(n=n, omega0=omega0, omega1=omega1, alpha=alpha)


def preorder(tree: AmplitudeTree) -> list[int]:
    """Node indices in root, left-subtree, right-subtree order."""
    out: list[int] = []
    stack = [0]
    last = tree.num_nodes
    while stack:
        f = stack.pop()
        out.append(f)
        left, right = children_of(f)
        if left < last:
            stack.append(right)
            stack.append(left)
    return out


def subtree_state(tree: AmplitudeTree, f: int) -> np.ndarray:
    """Normalized state of the ``n - level(f)`` qubits below node ``f``;
    ``|0...0>`` when no amplitude lies below it."""
    if not 0 <= f < tree.num_nodes:
        raise IndexError(f"node index {f} out of range")
    level = level_of(f)
    return tree.states[level][f + 1 - 2**level].copy()


def states_equal(a: np.ndarray, b: np.ndarray):
    """Whether rows of ``a`` and ``b`` agree entry by entry, within ``STATE_EQ_TOL``."""
    return np.max(np.abs(a - b), axis=-1) <= STATE_EQ_TOL
