"""Speed factors: how fast the machine ran, read off the pinned copy of lmn.

On a shared machine the same operation can run 1.5 times slower for a
minute at a time, when other tenants make page faults and memory traffic
dearer; a whole run, or a whole set of runs, can fall into such a period.
So every round of the program's timed operations is matched by the same
operations of the pinned copy in ``perfbench/pinned``, and the program's
set-up by a set-up of the pinned copy. The speed factor of an operation
is its pinned twin's nominal time over its measured time, and every time
measured in the program's operation is multiplied by it; the program's
set-up time is multiplied by the set-up factor.

Reported times are therefore in reference seconds: the time the program
takes on a machine that runs the pinned copy in its nominal time. A change
to lmn moves only the program's side of each pair; a change in the
machine's speed moves both. Each run's detail file keeps the unscaled
wall-clock figures as well.
"""

from __future__ import annotations

# Times of the pinned copy at the FULL shapes, in seconds: its set-up
# (corpus, models, warm-up) and one operation per model, each the median
# over runs.
# Measured over runs of every workload on a 2-vCPU Intel Xeon VM with
# Python 3.11 and numpy 2 on one OpenBLAS thread.
NOMINAL_S = {
    "train": {"setup": 0.90, "logmem": 0.209, "expsum": 0.479, "baseline-attn": 0.119},
    "prefill": {"setup": 0.656, "logmem": 0.0785, "expsum": 0.2435, "baseline-attn": 0.1558},
    "generate": {"setup": 0.49, "logmem": 0.488, "expsum": 0.400, "baseline-attn": 0.241},
}


def factor(measured: float, nominal: float | None) -> float:
    """Nominal over measured time. Without a nominal time (the smoke shapes
    have none) the factor is 1."""
    return 1.0 if nominal is None else nominal / measured
