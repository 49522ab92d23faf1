"""Host-speed probe: ``python3 calibrate.py`` prints the seconds a fixed
loop takes.

The loop does the kind of work the package does -- tuple allocation, dict
inserts and a growing heap -- but shares no code with it, so its time
tracks only how fast the shared host runs at the moment, which drifts by
tens of percent from minute to minute.  It runs in its own process so that
its memory never counts in a repetition's peak RSS.
"""

from __future__ import annotations

import time

LOOPS = 1_000_000


def calibrate() -> float:
    start = time.perf_counter()
    counts: dict = {}
    recent = []
    for i in range(LOOPS):
        key = (i & 1023, i >> 10)
        counts[key] = counts.get(key, 0) + 1
        recent.append(key)
        if len(recent) > 4096:
            recent.clear()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(calibrate())
