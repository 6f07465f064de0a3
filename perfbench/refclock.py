"""A reference clock: the speed of the core the program runs on, sampled
while it runs.

The benchmark was built on two cores of a shared Intel Xeon machine. Each
core's speed swings by up to a factor of two within seconds, and all cores
together drift over minutes: the same tcrselect command took 2.9 s and 6.2 s
within one minute. Wall time and CPU time both move with it (there is
almost no steal time; the core itself runs slower), and the speeds of two
cores agree poorly from second to second, so a probe on another core cannot
correct for it.

So the runner pins itself and every child to one core, and while a child
runs it wakes every SAMPLE_INTERVAL_S to time one TICK, a fixed slice of
pure-Python work, on that same core. The child's CPU seconds divided by the
mean tick length is its cost counted in ticks, which stays put when the core
slows down. Ticks are reported as seconds at the nominal tick length TICK_S,
a fixed scale, so the figure reads like CPU time on a calm core. Over ten
runs in a row of one simulate command there, the wall time spread by 47%
between quartiles and the tick count by 7%.

The samples take about 7% of the core from the child.
"""

from __future__ import annotations

import statistics
import time

# Iterations of the fixed work in one tick (about 0.35 ms on a calm core).
TICK_ITERATIONS = 1_000

# Sleep between ticks while a child runs.
SAMPLE_INTERVAL_S = 0.004

# Nominal seconds per tick: about the tick's length on a calm core of a
# 2-core Intel Xeon host. A fixed scale only; changing it rescales every
# normalised figure and breaks comparison with earlier runs.
TICK_S = 0.00035

# A tick this many times the median was preempted, not slowed; it is dropped.
PREEMPTED = 3.0


def tick() -> float:
    """Time one tick of dict and string work, as in the program's per-row
    Python, and return its length in seconds."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    total = 0
    for i in range(TICK_ITERATIONS):
        key = "CASS" + str(i % 500)
        counts[key] = counts.get(key, 0) + 1
        total += len(key) * (i & 7)
    return time.perf_counter() - start


def at_nominal_speed(cpu_s: float, ticks: list[float]) -> float:
    """CPU seconds measured while the core ran ticks of the given lengths,
    rescaled to a core on which a tick takes TICK_S."""
    typical = statistics.median(ticks)
    kept = [t for t in ticks if t < PREEMPTED * typical]
    return cpu_s * TICK_S * len(kept) / sum(kept)
