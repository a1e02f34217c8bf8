"""Exact binomial variates from the standard library's generator, for
sample mode, which alone imports this module.

Uniforms come from ``random.Random``, the Mersenne Twister: the top 52
bits of each 64-bit word of ``randbytes``, plus half a step, scaled by
2**-52.  Each is an odd multiple of 2**-53, exact in a double and strictly
inside (0, 1), so no draw divides by 0 or takes the log of 0; 53 bits and
half a step would not fit a double above 1/2.  ``binomial`` draws one
Binomial(n, p) per row: a row with p > 1/2 draws n - Bin(n, 1 - p); one
with n p < 10 inverts its distribution function; the others use BTRS,
the transformed rejection with squeeze of Hörmann, J. Stat. Comput.
Simul. 46:101 (1993), which accepts about 80% to 90% of its tries.

Each method has two forms.  The vectorized one steps every row together
and costs tens of numpy operations whatever its rows, so it takes its
steps in blocks: inversion k = 0 and 1, then up to 16 values of k at a
time, BTRS one try per row not yet accepted.  The scalar one takes a row
in Python, in a few microseconds.  A method hands its rows to the scalar
form once no more than ``_SCALAR`` are left: at once for a small call,
and after a round or two for a large one.
"""

from __future__ import annotations

import math
import operator
import random

import numpy as np

# Inversion takes k = 0 and 1 in its first round, which covers most rows of a
# walk's late splits (they hold a shot or two), then up to ``_STEPS`` values
# of k a round, and gives a row a fresh uniform at k = ``_RESTART``: for
# n p < 10 and p <= 1/2 the mass from there on is below 1e-29, so only the
# rounding of the sums lies there.  Per k, k - 1 and 1/k (1 at k = 0), as
# columns.
_FIRST, _STEPS, _RESTART = 2, 16, 64
_KM1 = np.arange(-1.0, _RESTART - 1.0)[:, None]
_INV_K = 1.0 / np.maximum(_KM1 + 1.0, 1.0)
# Up to this many rows, the scalar forms cost less than a vectorized round.
# Measured per call on rows drawn from sampled dense walks (2-core x86,
# pinned): inversion's vectorized round costs less from about 40 rows, BTRS's
# from about 56, counting the rows a round leaves.
_SCALAR = 48
# The least float above -1.
_ABOVE_MINUS_ONE = -1.0 + 2.0**-53
# Hörmann's f_c(k) = log k! - (k + 1/2) log(k + 1) + k + 1 - log(2 pi) / 2,
# exact below 10 and Stirling's series from there, one term longer than his,
# so that it errs by under 4e-13.
_TAIL = [math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + k + 1 - 0.5 * math.log(2 * math.pi)
         for k in range(10)]
_TAIL_ARRAY = np.array(_TAIL)
_REFUSED = "a binomial row needs n >= 0 and p in [0, 1]"


def generator(seed: int | None) -> random.Random:
    """A Mersenne Twister seeded by ``seed``, a non-negative integer, or
    from the system's entropy if None."""
    if seed is not None and operator.index(seed) < 0:
        raise ValueError(f"seed {seed} is negative")
    return random.Random(None if seed is None else operator.index(seed))


def uniforms(rng: random.Random, *shape: int) -> np.ndarray:
    """Uniforms on (0, 1): the odd multiples of 2**-53."""
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8") >> np.uint64(12)
    return (words * 2.0**-52 + 2.0**-53).reshape(shape)


def _uniform(rng: random.Random) -> float:
    """The next of ``uniforms``: ``randbytes`` is ``getrandbits`` as
    little-endian bytes, so its 64-bit words are successive ``getrandbits(64)``."""
    return (rng.getrandbits(64) >> 12) * 2.0**-52 + 2.0**-53


def binomial(rng: random.Random, n, p) -> np.ndarray:
    """Per row, a Binomial(n, p) variate: ``n`` non-negative integers up to
    2**63 - 1, ``p`` probabilities.  n = 0, p = 0 and p = 1 give 0, 0 and
    n: inversion's first term, q**n, is then 1."""
    n, p = np.asarray(n, dtype=np.int64), np.asarray(p, dtype=float)
    if len(n) <= _SCALAR:
        return np.array([_one(rng, ni, pi) for ni, pi in zip(n.tolist(), p.tolist())],
                        dtype=np.int64)
    if not ((n >= 0) & (p >= 0.0) & (p <= 1.0)).all():  # NaN fails too
        raise ValueError(_REFUSED)
    q = np.minimum(p, 1.0 - p)  # exact
    big = n * q >= 10.0
    if big.any():
        k, small = np.empty(len(n), dtype=np.int64), ~big
        k[big], k[small] = _btrs(rng, n[big], q[big]), _inversion(rng, n[small], q[small])
    else:
        k = _inversion(rng, n, q)
    return np.where(p > 0.5, n - k, k)


def _one(rng, n: int, p: float) -> int:
    """``binomial`` of one row, by the scalar forms."""
    if not (n >= 0 and 0.0 <= p <= 1.0):  # a NaN would never cover its uniform
        raise ValueError(_REFUSED)
    q = min(p, 1.0 - p)
    if n * q >= 10.0:
        k = _btrs_one(rng, n, q)
    else:
        k = _invert_one(rng, n, q / (1.0 - q), math.exp(n * math.log1p(-q)), 0.0, 0.0, _RESTART)
    return n - k if p > 0.5 else k


def _inversion(rng, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The least k whose distribution function exceeds the row's uniform.
    Every row steps the recurrence f(k) = f(k - 1) (n - k + 1) / k * p/q
    from f(0) = q**n, taking off f(k) from its uniform, until its uniform
    is covered.  Past k = n the factor is 0, then negative, so f stays 0.
    Arrays run over k, then rows.  A row's state is its next k, shared, f
    at it and what its uniform has left; k = ``_RESTART`` starts afresh."""
    nf, r = n.astype(float), p / (1.0 - p)
    f0 = np.exp(nf * np.log1p(-p))
    k, rows = np.empty(len(n), dtype=np.int64), np.arange(len(n))
    start, stop, f, u = _RESTART, _FIRST, f0, f0
    while len(rows) > _SCALAR:
        if start == _RESTART:
            u, f, start, stop = uniforms(rng, len(rows)), f0[rows], 0, min(stop, _STEPS)
        pmf = (nf - _KM1[start:stop]) * (r * _INV_K[start:stop])
        pmf[0] = f
        np.cumprod(pmf, axis=0, out=pmf)
        sums = np.cumsum(pmf, axis=0)
        below = (sums <= u).sum(axis=0)
        width = stop - start
        if below.max(initial=0) < width:
            k[rows] = start + below
            return k
        done, left = below < width, below == width
        k[rows[done]] = start + below[done]
        rows, nf, r = rows[left], nf[left], r[left]
        f = pmf[-1, left] * (nf - (stop - 1.0)) * (r / stop)
        u = u[left] - sums[-1, left]
        start, stop = stop, min(stop + _STEPS, _RESTART)
    for row, *args in zip(*(x.tolist() for x in (rows, nf, r, f0[rows], f, u))):
        k[row] = _invert_one(rng, *args, start)
    return k


def _invert_one(rng, n: float, r: float, f0: float, f: float, u: float, k: int) -> int:
    """``_inversion`` of one row in Python, from the same state."""
    while True:
        if k == _RESTART:
            k, f, u = 0, f0, _uniform(rng)
        if f > u:
            return k
        u -= f
        k += 1
        f *= (n - k + 1.0) * (r / k)


def _tail(k: np.ndarray) -> np.ndarray:
    """Hörmann's f_c at each of the non-negative integers ``k``."""
    w = 1.0 / (k + 1.0) ** 2
    series = (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - w / 1680.0) * w) * w) * np.sqrt(w)
    return np.where(k < 10, _TAIL_ARRAY.take(k, mode="clip"), series)


def _tail_one(k: int) -> float:
    if k < 10:
        return _TAIL[k]
    w = 1.0 / (k + 1.0) ** 2
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - w / 1680.0) * w) * w) * math.sqrt(w)


def _btrs(rng, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """BTRS for rows with n p >= 10 and p <= 1/2, one try a round per row
    not yet accepted.  A try's k = floor((2a/us + b) u + c) is taken in two
    parts, floor(c) as an integer and the rest as a float, so that it
    reaches every integer at any n.  In the squeeze box (us >= 0.07,
    v <= v_r) it is accepted at once.  Outside, it is accepted if
    log(v alpha / (a/us^2 + b)) <= log f(k)/f(m), at the mode m, written in
    differences d = k - m so that no term cancels at large n; only those
    tries, about one in three, compute it."""
    k, rows = np.empty(len(n), dtype=np.int64), np.arange(len(n))
    while len(rows) > _SCALAR:
        nf = n.astype(float)
        spq = np.sqrt(nf * p * (1.0 - p))
        b = 1.15 + 2.53 * spq
        a, c = -0.0873 + 0.0248 * b + 0.01 * p, nf * p + 0.5
        base = np.floor(c)
        u, v = uniforms(rng, 2, len(rows))
        u -= 0.5
        us = 0.5 - np.abs(u)
        off = np.floor((2.0 * a / us + b) * u + (c - base))
        near = np.abs(off) < 2.0**62  # past it, k lies outside [0, n] or has no mass
        kk = base.astype(np.int64) + np.where(near, off, 0.0).astype(np.int64)
        ok = near & (kk >= 0) & (kk <= n)
        accept = ok & (us >= 0.07) & (v <= 0.92 - 4.2 / b)
        i = np.flatnonzero(ok & ~accept)
        if len(i):
            kt, nt, pt, bt = kk[i], n[i], p[i], b[i]
            mt = np.floor((nt + 1.0) * pt).astype(np.int64)
            d = (kt - mt).astype(float)
            m1, nm1 = mt + 1.0, (nt - mt) + 1.0
            # At k = 0 or n with a mode past 2**53, a log1p argument would round
            # to -1; held just above it, log_ratio stays finite and far below 0.
            shifts = np.log1p(np.maximum(np.stack((d / m1, -d / nm1)), _ABOVE_MINUS_ONE))
            ends = np.stack((kt, nt - kt, mt, nt - mt))
            tails = _tail(ends)
            log_ratio = (d * np.log(nm1 * pt / (m1 * (1.0 - pt))) + tails[2] + tails[3]
                         - ((ends[:2] + 0.5) * shifts + tails[:2]).sum(axis=0))
            alpha = (2.83 + 5.1 / bt) * spq[i]
            accept[i] = np.log(v[i] * alpha / (a[i] / us[i] ** 2 + bt)) <= log_ratio
        k[rows[accept]] = kk[accept]
        left = ~accept
        rows, n, p = rows[left], n[left], p[left]
    for row, ni, pi in zip(rows.tolist(), n.tolist(), p.tolist()):
        k[row] = _btrs_one(rng, ni, pi)
    return k


def _btrs_one(rng, n: int, p: float) -> int:
    """``_btrs`` of one row in Python, a try at a time."""
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a, c = -0.0873 + 0.0248 * b + 0.01 * p, n * p + 0.5
    base = math.floor(c)
    while True:
        u, v = _uniform(rng) - 0.5, _uniform(rng)
        us = 0.5 - abs(u)
        k = base + math.floor((2.0 * a / us + b) * u + (c - base))
        if not 0 <= k <= n:
            continue
        if us >= 0.07 and v <= 0.92 - 4.2 / b:
            return k
        m = math.floor((n + 1.0) * p)
        d, m1, nm1 = k - m, m + 1.0, (n - m) + 1.0
        log_ratio = (d * math.log(nm1 * p / (m1 * (1.0 - p))) + _tail_one(m) + _tail_one(n - m)
                     - (k + 0.5) * math.log1p(max(d / m1, _ABOVE_MINUS_ONE)) - _tail_one(k)
                     - (n - k + 0.5) * math.log1p(max(-d / nm1, _ABOVE_MINUS_ONE)) - _tail_one(n - k))
        if math.log(v * (2.83 + 5.1 / b) * spq / (a / us**2 + b)) <= log_ratio:
            return k
