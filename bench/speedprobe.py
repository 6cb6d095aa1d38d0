"""A fixed piece of pure-Python work, timed between benchmark items.

A 2-core Linux VM (Python 3.11.7) was seen to change speed by up to a factor
of two within a minute: one CLI item took 433 ms, and 30 s later 818 ms, while the
ratio of its time to this probe's stayed within about 10 %. Run-to-run
spreads of raw times were therefore 14 % and more. The benchmark scales each
time by ``REFERENCE_S`` over the probe time measured next to it, so times
read as if the machine ran at the speed where the probe takes 15 ms.
"""

from __future__ import annotations

import time
from collections import deque

REFERENCE_S = 0.015


def _bfs_sweeps(n: int = 30, sources: int = 24) -> int:
    adj = {
        (i, j): [(i + di, j + dj) for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                 if 0 <= i + di < n and 0 <= j + dj < n]
        for i in range(n) for j in range(n)
    }
    total = 0
    for s in list(adj)[:sources]:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
    return total


def probe_s() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    _bfs_sweeps()
    return time.perf_counter() - t0
