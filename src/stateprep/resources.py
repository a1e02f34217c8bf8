"""Closed-form resource figures and the post-circuit qubit-reuse model."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LambdaOutOfRange, NOutOfRange


@dataclass(frozen=True)
class DcFormulas:
    qubits: int
    cswaps: int
    depth: int
    depth_parallel: int


@dataclass(frozen=True)
class HybridFormulas:
    qubits: int
    depth: int


@dataclass(frozen=True)
class MidResetFormulas:
    q_min: int
    depth: int


@dataclass(frozen=True)
class ReuseSchedule:
    total_circuits: int
    max_parallel: int
    rounds: tuple[int, ...]


def dc_formulas(n: int) -> DcFormulas:
    """Qubits, unit swaps and gate depth of the dense bottom-up circuit:
    its width and depth are the interpolated circuit's at ``lam`` = 1."""
    base = hybrid_formulas(n, 1)
    return DcFormulas(
        qubits=base.qubits,
        cswaps=2**n - n - 1,
        depth=base.depth,
        depth_parallel=max(1, 2 * n - 2),
    )


def hybrid_formulas(n: int, lam: int) -> HybridFormulas:
    """Width/depth of the interpolated circuit with ``lam``-qubit blocks."""
    if n < 1:
        raise NOutOfRange(f"n must be >= 1, got {n}")
    if not 1 <= lam <= n:
        raise LambdaOutOfRange(f"lambda {lam} outside 1..{n}")
    depth = 2**lam - 1 + sum(n - l - 1 for l in range(n - lam))
    return HybridFormulas(qubits=(lam + 1) * 2 ** (n - lam) - 1, depth=depth)


def midreset_formulas(n: int) -> MidResetFormulas:
    """Minimum width and depth when sub-states are built serially with
    mid-circuit resets instead of in parallel."""
    if n <= 2:
        raise NOutOfRange(f"mid-circuit reset model needs n > 2, got {n}")
    return MidResetFormulas(q_min=2 ** (n - 2) + 2 ** (n - 3) + n, depth=n * n)


def reuse_schedule(q_physical: int, n: int) -> ReuseSchedule:
    """Greedy round-based model of re-running the circuit on reset qubits.

    Each instance takes ``2**n - 1`` fresh qubits, keeps ``n`` as data
    forever and returns the remaining ``2**n - n - 1`` to the pool when
    its round ends.  Rounds repeat while a full instance still fits.
    """
    if q_physical < 0 or n < 1:
        raise NOutOfRange(f"invalid pool ({q_physical}) or n ({n})")
    need = 2**n - 1
    free = q_physical
    rounds: list[int] = []
    while free >= need:
        k = free // need
        rounds.append(k)
        free -= k * n
    return ReuseSchedule(
        total_circuits=sum(rounds),
        max_parallel=rounds[0] if rounds else 0,
        rounds=tuple(rounds),
    )
