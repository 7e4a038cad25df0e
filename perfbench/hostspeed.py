"""A fixed calibration kernel that gauges how fast the host runs right now.

On a shared host the same operation can run 1.5-2x slower for minutes at a
time, with the process on the CPU all along (its CPU time grows with its
wall time), so neither CPU time nor longer runs remove the drift. `run.py`
therefore runs a `Probe` through the set-up phase and after every timed
operation, and rescales each phase's time by REFERENCE_S / (the phase's
mean probe): times are reported in seconds at the host speed at which the
probe takes REFERENCE_S.

The kernel touches what hcnet's operations touch: interpreted Python,
many small NumPy calls, gathers and scatter-adds on a table that fits in
L2, a stream over arrays that do not fit in any cache, and small
matrix products. It uses nothing from hcnet, so no change to the program
can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time at which reported times equal measured ones: the probe's time
# in the slower phases of the 2-vCPU host the benchmark was written on (in
# its faster phases the probe took 0.017-0.019 s).
REFERENCE_S = 0.030
# Timed kernel runs per probe: about 0.1 s a probe with the untimed one.
PASSES = 3



class Probe:
    """The calibration kernel's data (about 50 MB, so create it only after
    the run's memory has been read) and its timing."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((32, 32))
        self.table = rng.standard_normal((2000, 32))
        self.index = rng.integers(0, 2000, 8000)
        self.sink = np.zeros_like(self.table)
        self.stream_a = rng.standard_normal(2_000_000)
        self.stream_b = rng.standard_normal(2_000_000)
        self.stream_out = np.empty_like(self.stream_a)
        self.square = rng.standard_normal((96, 96))
        for _ in range(PASSES):
            self._kernel()

    def _kernel(self) -> float:
        acc = 0.0
        counts: dict[int, int] = {}
        for i in range(30000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        acc += sum(counts.values())
        x = self.small
        for _ in range(750):
            x = np.maximum(x * 0.5 + self.small, 0.0)
            acc += float(x[0, 0])
        rows = self.table[self.index]
        self.sink.fill(0.0)
        np.add.at(self.sink, self.index, rows)
        acc += float(self.sink[0, 0])
        np.add(self.stream_a, self.stream_b, out=self.stream_out)
        acc += float(self.stream_out[0])
        y = self.square
        for _ in range(40):
            y = np.tanh(y @ self.square * 0.01)
        return acc + float(y[0, 0])

    def __call__(self) -> float:
        """Seconds per run of the kernel now: one untimed run to bring its
        data back into cache, then the mean of PASSES timed runs."""
        self._kernel()
        t0 = time.perf_counter()
        for _ in range(PASSES):
            self._kernel()
        return (time.perf_counter() - t0) / PASSES
