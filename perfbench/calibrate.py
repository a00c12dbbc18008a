"""The machine's speed, from a fixed piece of work timed beside the program.

The benchmark runs on shared machines whose speed drifts by up to a factor
of two within minutes, while its own load stays the same.  So every run
times `chunk()`, a fixed exact-arithmetic computation of the kind latsym
does (Fraction elimination and integer matrix products, pure Python),
between the program's inputs, and scales each timing of the program by

    REF_CHUNK_S / (the chunk's seconds measured beside it)

A scaled time is what the program would have taken at the speed at which
one chunk takes REF_CHUNK_S.  The chunk is the benchmark's own code and
never calls latsym, so a change to the program moves the scaled times and
leaves the scale alone.

REF_CHUNK_S is pinned; to see the chunk's time on a machine, run

    python3 perfbench/calibrate.py
"""

import statistics
import time
from fractions import Fraction

REF_CHUNK_S = 0.0035
N = 10
_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 4)
            for j in range(N)] for i in range(N)]
_INTS = [[(13 * i + 5 * j) % 29 - 14 for j in range(N)] for i in range(N)]


def chunk():
    """One fixed computation; returns its determinant and product trace,
    so that the work cannot be skipped."""
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(N):
        p = next(r for r in range(c, N) if a[r][c])
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, N):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    m = _INTS
    for _ in range(3):
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*_INTS)]
             for row in m]
    return det, sum(m[i][i] for i in range(N))


def timed_chunks(count):
    """Seconds taken by `count` chunks run back to back."""
    start = time.perf_counter()
    for _ in range(count):
        chunk()
    return time.perf_counter() - start


if __name__ == "__main__":
    times = [timed_chunks(1) for _ in range(500)]
    print("chunk: median %.6f s, quartiles %.6f %.6f s (REF_CHUNK_S = %s)" % (
        statistics.median(times), *statistics.quantiles(times, n=4)[::2],
        REF_CHUNK_S))
