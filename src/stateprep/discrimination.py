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
Degenerate rows and rows that one state misses are handled by masks; a
missing side becomes ``e_j - conj(v_j) v``, normalized, for the kept side ``v``.

Pairs of several widths advance together, one step per residual width:
the rows of width ``2**r`` of every pair, whatever its depth there, are
stacked into one step, up to ``STEP_ENTRIES`` entries.  Every operation
of a step acts on each row alone, so a plan does not depend on what it
was stacked with.

Every node keeps the basis it solves for, ``[[c, s e^{iw}], [s e^{-iw},
-c]]``: for a real pair it is the reflection form that the paper prints,
and the stored ``angle`` is the y-rotation that measures the same basis
(its outcome-1 row is the basis row negated); complex bases store ``NaN``
there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import _number
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
    2, 2)``, with a leading axis over stacked pairs if any; ``bases`` is
    None in a plan solved for its angles alone."""

    m: int
    angles: np.ndarray
    bases: np.ndarray | None

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
    # Project onto the unit phase of the larger of a and b, taken with a
    # non-negative real part (1 where both vanish), so the arctangent stays
    # real.  Its parts are divided separately: numpy's complex division
    # multiplies by a rounded reciprocal, and a real phase must be exactly 1.
    ref = np.where(np.abs(a) >= np.abs(b), a, b)
    ref = np.where(ref.real < 0.0, -ref, ref) + (ref == 0.0)
    ref = ref.real / np.abs(ref) + 1j * (ref.imag / np.abs(ref))
    theta_n, theta_d = (a / ref).real, (b / ref).real
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


def _split(bases: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project the first qubit of every row of ``v`` onto the two rows of
    its basis: row ``r`` becomes rows ``2r`` (outcome 0) and ``2r + 1``."""
    half = v.shape[1] // 2
    out = bases[:, :, 0, None] * v[:, None, :half] + bases[:, :, 1, None] * v[:, None, half:]
    return out.reshape(-1, half)


def _inner_step(plus: np.ndarray, minus: np.ndarray):
    """Bases of one depth's rows and the residual pairs below them.  A row
    that neither state reaches takes |0> as ``eta``; then each side that a
    row misses becomes ``e_j - conj(v_j) v``, normalized, with ``v`` the
    kept side and ``j`` the first axis of its smallest ``|v_j|``."""
    half = plus.shape[1] // 2
    theta, omega = solve_ua(plus[:, :half], plus[:, half:], minus[:, :half], minus[:, half:])
    real = (np.abs(omega) < DEGENERATE_TOL) & _is_real(plus) & _is_real(minus)
    c, s = np.cos(theta), np.sin(theta)
    bases = np.stack([c, s * np.exp(1j * omega), s * np.exp(-1j * omega), -c], -1)
    bases = bases.reshape(-1, 2, 2)

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
    eta[~(live_e | live_n)] = np.arange(eta.shape[1]) == 0
    v = np.where(live_n[~both, None], nu[~both], eta[~both])
    j = np.abs(v).argmin(axis=1)
    w = (np.arange(v.shape[1]) == j[:, None]) - v[np.arange(len(v)), j, None].conj() * v
    w = w / _norm(w)[:, None]
    eta[live_n & ~live_e] = w[live_n[~both]]
    nu[~live_n] = w[~live_n[~both]]
    return np.where(real, -2.0 * theta, np.nan), bases, _sign_fixed(eta), _sign_fixed(nu)


def _leaf_step(plus: np.ndarray, minus: np.ndarray):
    """Bases of single-qubit rows."""
    plus, minus = _sign_fixed(plus), _sign_fixed(minus)
    real = _is_real(plus) & _is_real(minus)
    angle = -2.0 * np.arctan2(plus[:, 1].real, plus[:, 0].real)
    return np.where(real, angle, np.nan), np.stack([plus, minus], 1).conj()


@dataclass
class _Run:
    """Rows that step together: those of the pairs ``members``, each pair's
    rows in one block, in the order the pairs joined."""

    members: list[int]
    plus: np.ndarray
    minus: np.ndarray


# The most entries (rows times width, of one state) that a step stacks
# from several pairs; a larger pair steps alone.  Timed on dense
# synthesis (2-core x86-64, numpy 2.4, best of 150): at n=11 caps of
# 2**11, 2**12 and 2**13 took 21.8-22.7, 18.5-21.0 and 17.6-19.5 ms, and
# 2**14 or no cap no less.  At n=14, where every pair holds 2**13
# entries, a cap of 2**17 or none raised the synthesis phase's peak RSS
# by 7 MiB (28.6 to 35.5 MiB above the tree's) and was no faster.
STEP_ENTRIES = 2**13


def decompose(pairs, bases: bool = True):
    """Adaptive single-qubit measurement plan discriminating an
    ``OrthPair``, or one plan per pair of a stacked one; given a sequence
    of pairs, of any widths, the list of their plans.  With ``bases=False``
    the plans hold only their angles (``bases`` is None), for a caller
    that reads nothing else.

    The first measured qubit is the most significant one; depth ``d``
    measures qubit ``d`` conditioned on all previous outcomes.
    """
    if isinstance(pairs, OrthPair):
        return decompose([pairs], bases)[0]
    rows = [(p.plus.reshape(-1, 2**p.m), p.minus.reshape(-1, 2**p.m)) for p in pairs]
    angles = [np.empty((len(plus), 2**p.m - 1)) for p, (plus, _) in zip(pairs, rows)]
    held = [np.empty(a.shape + (2, 2), dtype=complex) if bases else None for a in angles]
    runs: list[_Run] = []
    for r in range(max((p.m for p in pairs), default=0), 0, -1):
        for i in (i for i, p in enumerate(pairs) if p.m == r and len(angles[i])):
            plus, minus = rows[i]
            if runs and runs[-1].plus.size + plus.size <= STEP_ENTRIES:
                run = runs[-1]
                run.members.append(i)
                run.plus = np.concatenate((run.plus, plus))
                run.minus = np.concatenate((run.minus, minus))
            else:
                runs.append(_Run([i], plus, minus))
        for run in runs:
            if r > 1:
                angle, basis, run.plus, run.minus = _inner_step(run.plus, run.minus)
            else:
                angle, basis = _leaf_step(run.plus, run.minus)
            start = 0
            for i in run.members:
                count, d = len(angles[i]), pairs[i].m - r
                end = start + (count << d)
                nodes = slice(2**d - 1, 2 ** (d + 1) - 1)
                angles[i][:, nodes] = angle[start:end].reshape(count, -1)
                if bases:
                    held[i][:, nodes] = basis[start:end].reshape(count, -1, 2, 2)
                start = end
    return [
        AdaptiveMeasPlan(p.m, a.reshape(lead), None if b is None else b.reshape(lead + (2, 2)))
        for p, a, b in zip(pairs, angles, held)
        for lead in [p.plus.shape[:-1] + (2**p.m - 1,)]
    ]


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
            doc = {"angle": float(_number(angle))}  # the precision documents keep
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
