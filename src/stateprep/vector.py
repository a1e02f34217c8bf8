"""Plain amplitude vectors: padding to a power of two and normalizing.

Apart from the angle tree (``tree``), so that a ``verify`` request, which
builds no tree, does not compile it.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVector


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
