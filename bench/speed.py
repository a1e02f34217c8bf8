"""Correcting wall times for the speed of a shared host.

On a shared virtual machine the CPU's speed drifts with other tenants'
load: the same request can take 1.8 s in one minute and 2.9 s a few
minutes later.  Longer runs do not average that out, because the drift is
slower than a run.  So the benchmark measures the host's speed while each
request runs and reports times at a fixed reference speed.

The speed is read with a probe: two fixed tasks timed every
``INTERVAL_S`` by the benchmark process, pinned to the same CPU as the
request it is waiting for.  One is a JSON round trip of small dicts,
allocation-heavy Python like the compiler's; the other applies a 2x2
gate to a 2^15-amplitude state with numpy, like the simulator.  The two
slow down by different amounts, as do the workloads, so the probe time is
their geometric mean.  A request's corrected time is its wall time
times ``REFERENCE_S`` over the mean probe time during it, that is, the
time it would have taken on a host where the probe takes ``REFERENCE_S``.
The probe takes about 2% of the CPU from the request, on every commit
alike.  Raw wall times are kept next to the corrected ones.
"""

from __future__ import annotations

import json
import math
import os
import select
import statistics
import time

import numpy as np

# Probe time at the reference speed: about what an unloaded 2-vCPU
# x86-64 host takes.  Any fixed value serves; it only sets the scale.
REFERENCE_S = 5.0e-4
INTERVAL_S = 0.1
_STATE = np.ones(2**15, dtype=complex)
_GATE = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)


def _python_task() -> None:
    json.loads(json.dumps([{"a": i, "b": [i, i + 1.5]} for i in range(150)]))


def _numpy_task() -> None:
    out = np.tensordot(_GATE, _STATE.reshape(2, -1), axes=1)
    float(np.sum(np.abs(out) ** 2))


def _fastest(task) -> float:
    """The faster of two tries, so that a try the scheduler interrupted
    does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        task()
        best = min(best, time.perf_counter() - t0)
    return best


def probe() -> float:
    """Seconds the probe takes now: the geometric mean of its two tasks."""
    return math.sqrt(_fastest(_python_task) * _fastest(_numpy_task))


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU, the
    one the probe then measures.  Returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def wait_probing(pid: int, timeout: float) -> tuple[bool, list[float]]:
    """Probe every INTERVAL_S until process ``pid`` exits or ``timeout``
    passes.  Returns whether it exited, and the probe times (at least one)."""
    samples = [probe()]
    deadline = time.perf_counter() + timeout
    pidfd = os.pidfd_open(pid)
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                return False, samples
            if select.select([pidfd], [], [], min(INTERVAL_S, left))[0]:
                return True, samples
            samples.append(probe())
    finally:
        os.close(pidfd)


def factor(samples: list[float]) -> float:
    """Reference time over measured time: multiply a wall time by it."""
    return REFERENCE_S / statistics.mean(samples)

