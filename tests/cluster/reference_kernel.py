"""The heap-only event kernel: a test oracle for the ready-queue kernel.

Production :class:`~repro.cluster.kernel.Simulator` keeps events for the
current instant in a FIFO ready queue and only future events in its
``(time, sequence)`` heap; a process's ``yield delay`` resumes through
:meth:`~repro.cluster.kernel.Simulator.resume_after` without an Event.
Both must give exactly the order of the original kernel, in which every
event, the current instant's included, goes through the one heap and a
delay is a :meth:`timeout` Event that a process waits on.

:class:`ReferenceSimulator` is that original kernel, kept here so a
differential test can run one schedule on both and diff callback order,
clock and event counts.  It reuses the production :class:`Event`,
:class:`Process` and :class:`Resource`: only the scheduling and the loop
differ.
"""

import heapq

from repro.cluster.kernel import Event, Simulator


class ReferenceSimulator(Simulator):
    """Every event through one ``(time, sequence)`` heap."""

    def _push(self, time: float, callback, argument) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, callback, argument))

    def _post(self, callback, argument) -> None:
        self._push(self.now, callback, argument)

    def timeout(self, delay: float, value=None) -> Event:
        if delay < 0:
            raise ValueError("negative timeout")
        event = Event(self)
        self._push(self.now + delay, self._fire, (event, value))
        return event

    @staticmethod
    def _fire(pair) -> None:
        event, value = pair
        event.succeed(value)

    def resume_after(self, delay: float, callback) -> None:
        # The original process step: a timeout Event with one waiter.
        self.timeout(delay).wait(callback)

    def run(self, until: float = None) -> int:
        processed = 0
        heap = self._heap
        while heap:
            time, _, callback, argument = heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            self.now = time
            callback(argument)
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        self.events_processed += processed
        return processed
