"""Adaptive local-measurement discrimination of two orthogonal states.

Any pair of orthogonal ``m``-qubit states can be told apart perfectly by
measuring one qubit at a time, feeding each outcome forward to pick the
next measurement basis.  The plan is a complete binary decision tree of
depth ``m``: the node for outcome path ``p`` at depth ``d`` measures
qubit ``d`` (most significant first) in a basis that removes the
same-index overlaps between the two conditional residuals, and every leaf
pair is labelled ``+`` (outcome 0) and ``-`` (outcome 1).

The tree is built depth by depth and nothing recurses.  At depth ``d``
the residual pairs of all ``2**d`` nodes, of every stacked input pair,
are the rows of two arrays of shape ``(pairs * 2**d, 2**(m - d))``; one
step solves every row's basis and splits each row into its two children.
Degenerate, dead and nearly dead rows are handled by masks.

For real input pairs every basis in the tree is a plane rotation, and the
stored ``angle`` is the y-rotation that maps the basis to the
computational axes; complex bases store ``NaN`` there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOrthogonal, TraceNotZero
from .tolerances import DEGENERATE_TOL, DRIFT_TOL, ORTH_TOL, REAL_TOL
from .tree import normalize


@dataclass(frozen=True)
class OrthPair:
    """Two orthonormal states of ``m`` qubits, or a stack of such pairs
    (arrays of shape ``(pairs, 2**m)``)."""

    plus: np.ndarray
    minus: np.ndarray
    m: int

    @classmethod
    def from_states(cls, plus, minus) -> "OrthPair":
        plus = np.asarray(plus, dtype=complex)
        minus = np.asarray(minus, dtype=complex)
        if plus.ndim != 2:
            plus, minus = plus.reshape(-1), minus.reshape(-1)
        if plus.shape != minus.shape:
            raise DimensionMismatch(f"{plus.shape} vs {minus.shape}")
        dim = plus.shape[-1]
        if dim < 2 or dim & (dim - 1):
            raise DimensionMismatch(f"dimension {dim} is not a power of two >= 2")
        plus, minus = normalize(plus), normalize(minus)
        overlap = np.abs(_dot(plus, minus))
        if np.any(overlap > ORTH_TOL):
            raise NotOrthogonal(f"overlap {np.max(overlap):.3e} exceeds tolerance")
        return cls(plus=plus, minus=minus, m=dim.bit_length() - 1)


@dataclass(frozen=True)
class AdaptiveMeasPlan:
    """Plan nodes in heap order (children of ``i`` at ``2i + 1``, ``2i + 2``):
    ``angles`` has shape ``(..., 2**m - 1)`` and ``bases`` ``(..., 2**m - 1,
    2, 2)``, with a leading axis over stacked pairs if any."""

    m: int
    angles: np.ndarray
    bases: np.ndarray

    def paths(self) -> list[tuple[tuple[int, ...], str]]:
        """All (outcome path, leaf label) pairs in lexicographic order."""
        return [
            (tuple((i >> (self.m - 1 - k)) & 1 for k in range(self.m)), "+-"[i & 1])
            for i in range(2**self.m)
        ]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``vdot`` over the last axis."""
    return np.einsum("...i,...i->...", a.conj(), b)


def _norm(v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norm over the last axis."""
    return np.sqrt(_dot(v.real, v.real) + _dot(v.imag, v.imag))


def solve_ua(eta0, eta1, nu0, nu1):
    """Parameters (theta, omega) of the first-qubit basis change.

    The returned unitary ``[[cos t, sin t e^{i w}], [sin t e^{-i w},
    -cos t]]`` zeroes both same-index overlaps between the transformed
    residual families.  Stacked inputs of shape ``(rows, k)`` give one
    pair of parameters per row.  Raises ``TraceNotZero`` when the inputs
    do not come from an orthogonal pair.
    """
    eta0, eta1, nu0, nu1 = (np.asarray(v, dtype=complex) for v in (eta0, eta1, nu0, nu1))
    m00 = _dot(nu0, eta0)
    m11 = _dot(nu1, eta1)
    trace = np.abs(m00 + m11)
    if np.any(trace > ORTH_TOL):
        raise TraceNotZero(f"sum of same-index overlaps is {np.max(trace):.3e}")
    degenerate = (np.abs(m00) < DEGENERATE_TOL) & (np.abs(m11) < DEGENERATE_TOL)

    p = _dot(nu1, eta0)
    q = _dot(nu0, eta1)
    a = m00 - m11

    # Phase alignment: pick omega so the off-diagonal combination shares
    # the phase of the diagonal difference.  The sign conventions follow
    # the row-splitting used here (first-qubit block rows), which negates
    # the numerator relative to the transposed-overlap convention.
    omega_n = a.imag * (p + q).real - a.real * (p + q).imag
    omega_d = a.real * (p - q).real + a.imag * (p - q).imag
    # omega = 0 and omega = pi both align the phases when the numerator
    # vanishes; zero keeps real inputs on real bases.
    omega = np.where(np.abs(omega_n) < DEGENERATE_TOL, 0.0, -np.arctan2(omega_n, omega_d))

    b = q * np.exp(1j * omega) + p * np.exp(-1j * omega)
    # Real case: numerator/denominator are plain real parts.  Otherwise
    # project onto the common phase so the arctangent stays real.
    real = (np.abs(a.imag) < DEGENERATE_TOL) & (np.abs(b.imag) < DEGENERATE_TOL)
    ref = np.where(np.abs(a) >= np.abs(b), a, b)
    ref = np.where(real, 1.0, ref / np.where(real, 1.0, np.abs(ref)))
    theta_n = np.where(real, a.real, (a / ref).real)
    theta_d = np.where(real, b.real, (b / ref).real)
    flat = (np.abs(theta_n) < DEGENERATE_TOL) & (np.abs(theta_d) < DEGENERATE_TOL)
    theta = np.where(flat | degenerate, 0.0, 0.5 * np.arctan2(-theta_n, theta_d))
    omega = np.where(degenerate, 0.0, omega)
    if theta.ndim == 0:
        return float(theta), float(omega)
    return theta, omega


def _sign_fixed(v: np.ndarray) -> np.ndarray:
    """Rows rescaled by a phase that makes their first non-negligible
    entry real and positive."""
    live = np.abs(v) > DEGENERATE_TOL
    pivot = v[np.arange(len(v)), live.argmax(axis=1)]
    pivot = np.where(live.any(axis=1), pivot, 1.0)
    return v / (pivot / np.abs(pivot))[:, None]


def _is_real(v: np.ndarray) -> np.ndarray:
    return np.max(np.abs(v.imag), axis=1) < REAL_TOL


def _bases(a, b, c, d) -> np.ndarray:
    """One 2x2 basis ``[[a, b], [c, d]]`` per row."""
    return np.stack([a, b, c, d], -1).reshape(-1, 2, 2)


def _rotation_bases(angle: np.ndarray) -> np.ndarray:
    """Bases of the y-rotations by ``-angle``."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return _bases(c, -s, s, c)


def _split(bases: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project the first qubit of every row of ``v`` onto the two rows of
    its basis: row ``r`` becomes rows ``2r`` (outcome 0) and ``2r + 1``."""
    half = v.shape[1] // 2
    out = bases[:, :, 0, None] * v[:, None, :half] + bases[:, :, 1, None] * v[:, None, half:]
    return out.reshape(-1, half)


def _orthogonal_filler(v: np.ndarray) -> np.ndarray:
    """Any unit vector orthogonal to unit ``v``."""
    dim = v.size
    best, best_norm = None, -1.0
    for j in range(dim):
        cand = np.zeros(dim, dtype=complex)
        cand[j] = 1.0
        cand = cand - np.vdot(v, cand) * v
        norm = np.linalg.norm(cand)
        if norm > best_norm:
            best, best_norm = cand, norm
    return best / best_norm


def _inner_step(plus: np.ndarray, minus: np.ndarray):
    """Bases of one depth's rows and the residual pairs below them."""
    half = plus.shape[1] // 2
    theta, omega = solve_ua(plus[:, :half], plus[:, half:], minus[:, :half], minus[:, half:])
    real = (np.abs(omega) < DEGENERATE_TOL) & _is_real(plus) & _is_real(minus)
    angle = -2.0 * theta
    c, s = np.cos(theta), np.sin(theta)
    ua = _bases(c, s * np.exp(1j * omega), s * np.exp(-1j * omega), -c)
    bases = np.where(real[:, None, None], _rotation_bases(angle), ua)

    eta, nu = _split(bases, plus), _split(bases, minus)
    ne, nn = _norm(eta), _norm(nu)
    live_e, live_n = ne > DEGENERATE_TOL, nn > DEGENERATE_TOL
    eta = eta / np.where(live_e, ne, 1.0)[:, None]
    nu = nu / np.where(live_n, nn, 1.0)[:, None]
    both = live_e & live_n
    overlap = np.where(both, _dot(eta, nu), 0.0)
    drift = np.abs(overlap)
    if np.any(drift > DRIFT_TOL):
        raise NotOrthogonal(f"residual pair overlap {np.max(drift):.3e} after basis change")
    # The exact residuals are orthogonal; cancellation noise on
    # near-dead outcomes can leave a small computed overlap.
    # Re-orthogonalizing keeps the plan bases exactly valid.
    fix = np.flatnonzero(drift > 0.0)
    v = nu[fix] - overlap[fix, None] * eta[fix]
    nu[fix] = v / _norm(v)[:, None]
    for r in np.flatnonzero(~both):
        if live_n[r]:
            eta[r] = _orthogonal_filler(nu[r])
        elif live_e[r]:
            nu[r] = _orthogonal_filler(eta[r])
        else:
            # Dead branch: neither state reaches this outcome.
            eta[r] = np.arange(eta.shape[1]) == 0
            nu[r] = _orthogonal_filler(eta[r])
    return np.where(real, angle, np.nan), bases, _sign_fixed(eta), _sign_fixed(nu)


def _leaf_step(plus: np.ndarray, minus: np.ndarray):
    """Bases of single-qubit rows."""
    plus, minus = _sign_fixed(plus), _sign_fixed(minus)
    real = _is_real(plus) & _is_real(minus)
    angle = -2.0 * np.arctan2(plus[:, 1].real, plus[:, 0].real)
    measured = np.stack([plus, minus], 1).conj()
    bases = np.where(real[:, None, None], _rotation_bases(angle), measured)
    return np.where(real, angle, np.nan), bases


def decompose(pair: OrthPair) -> AdaptiveMeasPlan:
    """Adaptive single-qubit measurement plan discriminating ``pair``, or
    one plan per pair of a stacked ``pair``.

    The first measured qubit is the most significant one; depth ``d``
    measures qubit ``d`` conditioned on all previous outcomes.
    """
    size = 2**pair.m
    plus, minus = pair.plus.reshape(-1, size), pair.minus.reshape(-1, size)
    count = len(plus)
    angles = np.empty((count, size - 1))
    bases = np.empty((count, size - 1, 2, 2), dtype=complex)
    for d in range(pair.m):
        if d < pair.m - 1:
            angle, basis, plus, minus = _inner_step(plus, minus)
        else:
            angle, basis = _leaf_step(plus, minus)
        angles[:, 2**d - 1 : 2 ** (d + 1) - 1] = angle.reshape(count, 2**d)
        bases[:, 2**d - 1 : 2 ** (d + 1) - 1] = basis.reshape(count, 2**d, 2, 2)
    lead = pair.plus.shape[:-1] + (size - 1,)
    return AdaptiveMeasPlan(pair.m, angles.reshape(lead), bases.reshape(lead + (2, 2)))


def plan_document(plan: AdaptiveMeasPlan) -> dict:
    """JSON-ready nested form of a single-pair ``plan``: each node holds
    its ``angle`` (a complex basis: its ``basis`` rows as [re, im] pairs)
    and its ``on0``/``on1`` subplans; leaves hold their ``label``."""

    def node(i: int) -> dict:
        if i >= len(plan.angles):
            return {"label": "-+"[i % 2]}
        angle = float(plan.angles[i])
        if np.isnan(angle):
            doc = {"basis": [[[c.real, c.imag] for c in row] for row in plan.bases[i].tolist()]}
        else:
            doc = {"angle": float(f"{angle:.12g}")}
        return {**doc, "on0": node(2 * i + 1), "on1": node(2 * i + 2)}

    return {"m": plan.m, "root": node(0)}


def evaluate_plan(plan: AdaptiveMeasPlan, state) -> list[tuple[tuple[int, ...], str, float]]:
    """Outcome distribution of running a single-pair ``plan`` on ``state``.

    Returns one entry per outcome path: (path, leaf label, probability).
    Probabilities sum to one.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    if plan.bases.ndim != 3:
        raise DimensionMismatch("evaluate_plan takes the plan of a single pair")
    if state.size != 2**plan.m:
        raise DimensionMismatch(f"state dimension {state.size}, plan expects {2 ** plan.m}")
    # Probability bookkeeping via unnormalized residuals, one row per path.
    rows = normalize(state)[None, :]
    for d in range(plan.m):
        rows = _split(plan.bases[2**d - 1 : 2 ** (d + 1) - 1], rows)
    probs = _norm(rows) ** 2
    return [(path, label, float(p)) for (path, label), p in zip(plan.paths(), probs)]
