"""The machine's current speed, from a fixed reference loop.

On a shared machine the speed of one core changes by up to a factor of
two within a minute, as neighbours come and go, and a job's wall time
swings with it.  The reference loop is pure Python of the same kind as
netfence's work (sorting, merging and testing small integer tuples) and
none of netfence's code, so its time tracks those swings and no change to
netfence moves it.  A timing taken between two loops is scaled to the
speed at which one loop takes `NOMINAL_S`.

    python3 bench/speed.py    # prints one loop's time
"""

from __future__ import annotations

import time

NOMINAL_S = 0.020
_PARTS = [((i * 7919) % 65521, (i * 7919) % 65521 + 40) for i in range(200)]
_ROUNDS = 40


def reference_loop():
    """Run the fixed loop once; return its wall time in seconds."""
    start = time.perf_counter()
    for r in range(_ROUNDS):
        merged = []
        for lo, hi in sorted(_PARTS, key=lambda p: (p[0] ^ r, p[1])):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        {m: any(m[0] <= x <= m[1] for x in range(0, 65536, 8192)) for m in merged}
    return time.perf_counter() - start


class Speed:
    """Scale factors for consecutive timed steps: each step is scaled by
    the mean of the loops run just before and just after it."""

    def __init__(self):
        self.last = reference_loop()

    def scale(self):
        """Call right after a timed step."""
        now = reference_loop()
        factor = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return factor


if __name__ == "__main__":
    print(f"{reference_loop():.6f}")
