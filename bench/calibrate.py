"""Host-speed probes taken during a job, so that its time can be read in host-speed units.

On a shared host the same job's wall time swings by up to 2x within minutes,
with CPU time equal to wall time: other tenants slow the core, its caches and
the memory bus, and a slow period can outlast a whole run. So while an
untraced job runs, a one-shot interval timer interrupts it every
`INTERVAL_S` of wall time and runs a fixed reference kernel (`reference_kernel`)
on the same core. The end-to-end metric `job_ref` is the job's own time (wall
time minus the probes) divided by the mean probe time: host speed cancels,
while a change to the program moves `job_ref` exactly as it moves the job's
time, since the kernel runs no metrosim code.

The kernel mixes the kinds of work the workloads do: interpreter-bound Python,
small 100x100 array passes, an (N, N, t) broadcast-and-reduce like MSA
assignment's network closure at 10x10, a small matrix product, and a 400x400
relaxation with exp and product like free-flow scoring at 20x20. One probe
takes about 3 ms, some 3% of the job.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1

_rng = np.random.default_rng(20190906)
_M = _rng.random((100, 100)) + 0.5
_A = _rng.random((100, 40))
_B = _rng.random((40, 100))
_D = _rng.random((400, 400))
_J = _rng.random((400, 3))


def reference_kernel() -> float:
    """Run the fixed kernel once; returns a value so no work is optimised away."""
    x = 0
    for i in range(1500):
        x += i * i
    total = float(x % 7)
    for k in range(3):
        total += float(np.minimum(_M, _M[:, k, None] + _M[None, 3 * k, :]).sum())
    total += float((_A[:, :, None] + _B[None, :, :]).min(axis=1).sum())
    total += float((_M @ _M)[0, 0])
    relaxed = np.minimum(_D, _D[:, 5, None] + _D[None, 7, :])
    total += float((np.exp(-8.0 * relaxed) @ _J).sum())
    return total


class HostProbe:
    """Times `reference_kernel` every INTERVAL_S while installed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None
        self._active = False

    def _tick(self, signum, frame) -> None:
        if not self._active:  # delivered while uninstalling
            return
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)
        # One-shot and re-armed after the probe, so probes never overlap.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def install(self) -> None:
        reference_kernel()  # first-call costs stay out of the samples
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def uninstall(self) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def total_s(self) -> float:
        return sum(self.samples)

    @property
    def mean_s(self) -> float:
        if not self.samples:  # a job shorter than one interval
            start = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - start)
        return sum(self.samples) / len(self.samples)
