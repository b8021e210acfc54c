"""Host-speed correction: a fixed pure-Python kernel timed around each query.

On the shared 2-vCPU host the benchmark was tuned on, the same query runs up
to 1.8 times slower while other tenants load the machine, in periods that
last from a second to several minutes. Averaging over a longer run does not
remove periods that long, and CPU time swings with wall time. So the runner
times `kernel` just before and just after every query and reports the
query's wall time scaled to a host on which the kernel takes REFERENCE_S:

    scaled = wall * REFERENCE_S / mean(kernel before, kernel after)

The kernel does the kind of work the package does (an odometer over owner
vectors that updates per-agent sums in lists, tuple and dict building,
`Fraction` sums, small-integer arithmetic), so contention slows both alike.
A change to the package moves the query times and leaves the kernel alone;
the raw wall-clock figures are kept in the run's `meta`.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel takes about 0.9 ms on an unloaded vCPU of the tuning host
# (Intel Xeon, Python 3.11), so corrected times are close to the wall times
# such a host gives. The odometer half and the integer-loop half take about
# equal time: that mix tracked the queries' own slow-downs best.
REFERENCE_S = 1e-3

_ROWS = ((7, 3, 11, 5, 2, 13, 4), (1, 9, 6, 8, 12, 3, 10), (5, 5, 2, 14, 7, 1, 6))


def _owner_vectors(rows, n: int, m: int):
    owner = [1] * m
    util = [0] * n
    for j in range(m):
        util[0] += rows[0][j]
    while True:
        yield owner, util
        j = m - 1
        while j >= 0:
            a = owner[j]
            util[a - 1] -= rows[a - 1][j]
            if a == n:
                owner[j] = 1
                util[0] += rows[0][j]
                j -= 1
            else:
                owner[j] = a + 1
                util[a] += rows[a][j]
                break
        if j < 0:
            return


def kernel() -> int:
    """A fixed amount of interpreter work; the result is only a checksum."""
    best, seen = None, {}
    for owner, util in _owner_vectors(_ROWS, 3, 6):
        w = min(util)
        if best is None or w > best[0]:
            best = (w, tuple(owner))
        seen[w] = seen.get(w, 0) + 1
    total = sum((Fraction(k, v + 1) for k, v in seen.items()), Fraction(0))
    s = 0
    for i in range(8000):
        s += i * i % 7
    return best[0] + total.numerator % 97 + s


def measure() -> float:
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


kernel()  # warm up before the first measurement
