"""Sequential forms of the vector tier's batched primitives: a test oracle.

Production :class:`~repro.cluster.epoch.Station` advances a capacity-``c``
pool's round-robin chains with one 2-D numpy scan, and the vector tier's
backlog tracker buckets a cohort's costs onto the epoch grid with one
``searchsorted`` + ``bincount``.  This module keeps the plain per-job
loops those replaced, so tests can compare the batched forms against
them on any cohort.
"""

import bisect


def chain_scan(arrive, service, carries, count: int, capacity: int):
    """Round-robin chain recursion: job ``j`` waits on job ``j - capacity``.

    ``carries`` holds each chain's last departure and ``count`` the jobs
    the station granted before this cohort (it fixes chain membership).
    Returns ``(start, depart, carries')`` as lists.
    """
    start, depart = [], []
    out = list(carries)
    for j, (at, span) in enumerate(zip(arrive, service)):
        chain = (count + j) % capacity
        begin = at if at > out[chain] else out[chain]
        out[chain] = begin + span
        start.append(begin)
        depart.append(out[chain])
    return start, depart, out


class BisectBacklog:
    """Outstanding work bucketed per job with ``bisect``.

    The same contract as :class:`repro.cluster.vector._Backlog`: a job's
    cost lands in the first grid boundary at or after its departure (or
    the overflow slot past the grid), and :meth:`at` expires every bucket
    at or before ``t``.
    """

    def __init__(self, grid):
        self._grid = list(grid)
        self._bins = [0.0] * (len(self._grid) + 1)
        self._cursor = 0
        self._total = 0.0

    def add(self, departs, costs) -> None:
        for depart, cost in zip(departs, costs):
            self._bins[bisect.bisect_left(self._grid, depart)] += cost
            self._total += cost

    def at(self, t: float) -> float:
        while self._cursor < len(self._grid) and self._grid[self._cursor] <= t:
            self._total -= self._bins[self._cursor]
            self._cursor += 1
        return self._total
