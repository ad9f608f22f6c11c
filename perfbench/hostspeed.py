"""Host speed probe: a fixed pure-Python kernel timed beside each flow.

On a shared host the speed of a CPU changes by up to 2x over seconds to
minutes (a neighbour's load on the same cores and caches), and process
CPU time changes with it: it is not stolen time but slower time. So the
benchmark times a fixed kernel that does not use the program just
before and after each timed flow, and reports the flow's time at the
reference speed::

    normalised = wall * REFERENCE_S / mean(probe before, probe after)

A change to the program moves ``wall`` and not the probes; a slower or
faster host moves both. The raw wall times are printed beside the
normalised ones.

Run as a script it is a sampler for the served workload, whose latency
is measured while the benchmark process must keep its sending schedule::

    python3 perfbench/hostspeed.py --seconds 18 --every 1.0

prints one ``<unix time> <probe seconds>`` line per probe until the
seconds are spent.
"""

from __future__ import annotations

import argparse
import bisect
import sys
import time

# Probe seconds on the host the benchmark was tuned on at its fastest
# (Intel Xeon, 2 vCPUs, Python 3.11), so normalised times read close to
# wall times there.
REFERENCE_S = 0.045


def probe() -> float:
    """Seconds one run of the fixed kernel takes: dict, set and sort work."""
    started = time.perf_counter()
    table = {}
    for i in range(40000):
        table[(i, i * 7 % 1013)] = frozenset((i % 97, i % 89, i % 83))
    total = 0
    for key in sorted(table, key=lambda k: k[1]):
        total += len(table[key] | {key[0] % 5})
    return time.perf_counter() - started


class Clock:
    """Normalises consecutive timed sections by the probes around them."""

    def __init__(self) -> None:
        self.last = probe()
        self.probes = [self.last]

    def normalise(self, seconds: float) -> float:
        """Probe again; *seconds* at the reference speed."""
        after = probe()
        self.probes.append(after)
        speed = (self.last + after) / 2
        self.last = after
        return seconds * REFERENCE_S / speed


def nearest(samples: list[tuple[float, float]], when: float) -> float:
    """Probe seconds of the sample taken closest to *when* (time order)."""
    times = [t for t, _ in samples]
    i = bisect.bisect_left(times, when)
    near = [samples[j] for j in (i - 1, i) if 0 <= j < len(samples)]
    return min(near, key=lambda sample: abs(sample[0] - when))[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--every", type=float, default=1.0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds
    while True:
        started = time.monotonic()
        print(f"{time.time():.6f} {probe():.6f}", flush=True)
        if started + args.every > deadline:
            return 0
        time.sleep(max(0.0, started + args.every - time.monotonic()))


if __name__ == "__main__":
    sys.exit(main())
