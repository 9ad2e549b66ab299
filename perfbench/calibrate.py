"""Host-speed calibration for the benchmark's time metrics.

On a shared host the same operation's wall time drifts with the load of
other tenants, by as much as 1.7x over a few minutes on the 4-vCPU VM
this benchmark was built on (CPU time drifted with it, so it is no
remedy). An engine run therefore also times :func:`kernel`, a fixed
pure-Python loop of the same kind of work as the engine (small
objects, a deque, tuple-keyed dict updates, periodic sorted scans),
once before set-up and once after every operation in each of its
processes, and reports its time metrics scaled by
``REF_S / mean(kernel time)`` over all of them: the time the run would
have taken on a host where the kernel takes ``REF_S``. The kernel uses
nothing from ``repro``, so a change to the program cannot move it. Raw
wall-clock values are printed beside the calibrated ones.

The Spark workload is not calibrated: its work runs in the JVM on
several cores, which this single-threaded kernel does not track well
(in paired trials it widened spark-stream-q5's run-to-run spread from
0.055 to 0.166).
"""
import statistics
import time
from collections import deque

#: Kernel time, in seconds, of the reference host speed.
REF_S = 0.3


class _Item:
    __slots__ = ("key", "ts", "val")

    def __init__(self, key, ts, val):
        self.key, self.ts, self.val = key, ts, val


def kernel(n: int = 300_000) -> float:
    """Run the fixed loop once; return its wall time in seconds."""
    t0 = time.perf_counter()
    q: deque = deque()
    state: dict = {}
    out: list = []
    for i in range(n):
        q.append(_Item(i % 613, i, i & 15))
        if len(q) > 64:
            it = q.popleft()
            k = (it.key, it.ts // 100)
            state[k] = state.get(k, 0) + it.val
        if i % 500 == 0:
            horizon = i // 100 - 5
            out.extend(sorted(v for (_, p), v in state.items() if p < horizon)[:10])
            state = {k: v for k, v in state.items() if k[1] >= horizon}
    return time.perf_counter() - t0


class Calibration:
    """Kernel samples of one process; the first is taken on construction."""

    def __init__(self):
        self.samples = [kernel()]

    def sample(self) -> None:
        self.samples.append(kernel())


def scale(samples: list) -> float:
    """Factor from wall seconds to calibrated seconds."""
    return REF_S / statistics.fmean(samples)
