"""Machine-speed reference for the benchmark's timed metrics.

On a shared host the speed of one core can change by 1.5-2x from one
second to the next (a pure-Python loop reads 22 ms and 40 ms per call
within the same half minute, in CPU time as well as wall time), so raw
wall times of runs made minutes apart mostly measure the neighbours.
The benchmark therefore times a fixed pure-Python reference chunk -- a
breadth-first search over a seeded sparse digraph, the same kind of dict,
set and list work earlab does -- right before every CLI call and after
the last one, and scales each call's wall time by REF_MS / (median chunk
time in a window around the call).  A reported millisecond is thus a
millisecond at the speed at which one chunk takes REF_MS; on a host in
its fast mode that is close to wall time.  The chunk uses nothing from
earlab, so a change to earlab moves the scaled times and the chunk not.
"""

from __future__ import annotations

import random
import statistics
import time

# Milliseconds one chunk takes at the reference speed: the median chunk
# time in the fast mode of a shared 2-vCPU Linux VM with Python 3.11.
REF_MS = 0.21
# Chunks on each side of a call whose median sets its speed factor.
WINDOW = 4
_N = 300


def _graph() -> list[list[int]]:
    rng = random.Random(0)
    return [[(v + 1) % _N, rng.randrange(_N), rng.randrange(_N)] for v in range(_N)]


_ADJ = _graph()


def _chunk() -> int:
    total = 0
    for root in (0, 97, 211):
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in _ADJ[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values())
    return total


def sample() -> float:
    """Seconds one reference chunk takes now."""
    start = time.perf_counter()
    _chunk()
    return time.perf_counter() - start


def samples(count: int) -> list[float]:
    return [sample() for _ in range(count)]


def factor(chunk_seconds) -> float:
    """Scale from wall time to reference time, given chunk times taken
    around the timed work."""
    return REF_MS / 1000 / statistics.median(chunk_seconds)


def call_factors(chunks: list[float]) -> list[float]:
    """One factor per call of a pass, where chunks[i] was taken right
    before call i and chunks[-1] after the last call."""
    return [factor(chunks[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(len(chunks) - 1)]
