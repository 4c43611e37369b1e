"""The machine's current speed, from a fixed reference kernel.

On a shared virtual machine the same code can run up to twice as slow,
in spells that last minutes, and the simulator's host time moves with
it.  The benchmark therefore times a fixed pure-Python kernel in between
the ops it measures and scales every host-time metric by how fast the
kernel ran.

The kernel is a small set-associative cache over a dict backing store:
slotted objects, dict lookups and evictions, and byte-string rebuilding,
the same kinds of work as the simulator's memory hierarchy.  Of the
kernels tried (an integer loop, ``difflib``, pointer chasing through a
large dict, and this one) it followed the simulator's slow spells most
closely.  The kernel is part of the benchmark, not of the program, so a
change to the program cannot move it.

Kernel calls are spread through each pass like the ops are: the n-th
call of every pass is one *slot*, and every pass has the same slots.
A slot's time is its fastest call over the passes, just as an op's host
time is its fastest replay, and the machine's speed is the median slot.
"""

from __future__ import annotations

import random
import statistics
import time

#: The median slot's time (seconds) that the scaled metrics refer to:
#: about what it took on a 2-vCPU Intel Xeon virtual machine while that
#: machine ran quick.  A scaled host time reads as the time the same work
#: would take on a machine where the median slot takes this long.
NOMINAL_S = 0.007


_LINE = bytes(range(64))
_SETS = 256
_WAYS = 8


class _Line:
    __slots__ = ("tag", "data", "dirty")

    def __init__(self, tag: int, data: bytes):
        self.tag = tag
        self.data = data
        self.dirty = False


class SpeedProbe:
    """Times the reference kernel and keeps each slot's fastest call."""

    def __init__(self):
        rng = random.Random(7)
        self._addresses = [rng.randrange(1 << 16) * 64 for _ in range(4096)]
        self._backing = {a: _LINE for a in range(0, 1 << 22, 64)}
        self._fastest = {}
        self._slot = 0

    def _kernel(self) -> int:
        sets = [{} for _ in range(_SETS)]
        backing = self._backing
        writebacks = 0
        for i, address in enumerate(self._addresses):
            ways = sets[(address >> 6) % _SETS]
            line = ways.get(address)
            if line is None:
                if len(ways) >= _WAYS:
                    victim = ways.pop(next(iter(ways)))
                    if victim.dirty:
                        backing[victim.tag] = victim.data
                        writebacks += 1
                line = _Line(address, backing.get(address, _LINE))
                ways[address] = line
            if i & 1:
                head = bytes(a ^ b for a, b in zip(line.data[:16], _LINE))
                line.data = head + line.data[16:]
                line.dirty = True
        return writebacks

    def start_pass(self) -> None:
        self._slot = 0

    def tick(self) -> float:
        """Time one kernel call in the next slot; returns its host time."""
        clock = time.thread_time
        start = clock()
        self._kernel()
        elapsed = clock() - start
        slot = self._slot
        self._slot += 1
        self._fastest[slot] = min(self._fastest.get(slot, elapsed), elapsed)
        return elapsed

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the machine ran: a host time
        divided by this is the scaled host time."""
        return statistics.median(self._fastest.values()) / NOMINAL_S
