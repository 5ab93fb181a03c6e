"""The machine's speed, as the time of a fixed task.

The benchmark runs on machines whose cores are shared with other
tenants, where the speed a process gets swings by tens of percent from
one second to the next.  Timing this task right next to the work being
measured, and scaling the work's time by CAL_REF_S over the task's time,
takes most of that swing out: a change to curvex moves the scaled time
as it moves the raw time, while a change in the machine's speed moves
the task's time too and largely cancels.
"""

from __future__ import annotations

import time

import numpy as np

# The task's time on the machine in README.md when quiet, so that scaled
# times read as seconds there.  A fixed constant, never re-measured:
# comparisons between commits need the same scale.
CAL_REF_S = 0.065


def calibrate(reps: int = 3) -> float:
    """Median seconds of a fixed task mixing the kinds of work curvex does:
    elementwise numpy over arrays larger than the caches, batched small
    matrix products, and interpreted Python.  It does not touch curvex,
    so only the speed the machine gives this process moves it.  Its
    arrays live only for the call, so it holds no memory between calls."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1 << 20)
    m = rng.standard_normal((20000, 4, 4))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(2):
            (np.exp(-0.5 * x * x) * np.sin(x) + np.sqrt(np.abs(x))).sum()
        np.einsum("nij,njk->nik", m, m).sum()
        s = 0
        for i in range(100_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]
