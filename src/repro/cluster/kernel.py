"""Deterministic discrete-event simulation kernel.

A minimal process-style DES engine in the simpy idiom, purpose-built for
the cluster layer: an event heap keyed by ``(time, sequence)`` for future
instants, a FIFO ready queue for the current one, a simulated clock, one
seeded :class:`random.Random`, and coroutine processes that ``yield``
timeouts, events, or resource grants.

Determinism is the design constraint, not an afterthought:

* simultaneous events fire in the order they were scheduled.  Future
  events wait in the heap, tie-broken by a monotonically increasing
  sequence number; an event for the current instant is appended to the
  ready queue.  When the ready queue drains, the clock advances to the
  next instant and its heap entries run in sequence order, then the ready
  queue they filled.  Those heap entries were all pushed before the clock
  reached that instant, so they precede anything posted at it: the order
  is exactly the one a single ``(time, sequence)`` heap gives (pinned
  against that heap-only kernel by ``tests/cluster/test_kernel_oracle.py``);
* all randomness flows through ``Simulator.rng`` (or children derived from
  it via :meth:`Simulator.fork_rng`) — no module-level ``random`` anywhere
  in the cluster layer;
* nothing reads wall-clock time, object ids, or hash-randomised iteration
  order.

Two runs with the same seed therefore produce byte-identical event
sequences and, downstream, byte-identical metrics (see
``tests/cluster/test_determinism.py``).
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque


class Event:
    """A one-shot occurrence processes can wait on.

    Starts untriggered; :meth:`succeed` fires it with an optional value.
    Callbacks added after the trigger still run (immediately, in schedule
    order), so there is no lost-wakeup race.
    """

    __slots__ = ("sim", "value", "triggered", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.value = None
        self.triggered = False
        self._callbacks = []

    def succeed(self, value=None) -> "Event":
        """Trigger the event with `value`, waking every waiter (once only)."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks:
            self.sim._post(callback, self)
        return self

    def wait(self, callback) -> None:
        """Run `callback(event)` once the event has triggered."""
        if self.triggered:
            self.sim._post(callback, self)
        else:
            self._callbacks.append(callback)


class Process(Event):
    """A coroutine driven by the kernel; doubles as its completion event.

    The wrapped generator may ``yield``:

    * a number — sleep that many simulated seconds;
    * an :class:`Event` (including another process or a resource grant) —
      resume when it triggers, receiving the event's value.

    The generator's ``return`` value becomes the process's event value.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator):
        super().__init__(sim)
        self._generator = generator
        sim._post(self._step, None)

    def _step(self, fired: Event) -> None:
        value = fired.value if fired is not None else None
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        if isinstance(target, (int, float)):
            self.sim.resume_after(target, self._step)
        elif isinstance(target, Event):
            target.wait(self._step)
        else:
            raise TypeError(
                "process yielded %r; expected a delay or an Event" % (target,)
            )


class Resource:
    """A FIFO multi-server resource (`capacity` concurrent holders).

    `acquire()` returns an :class:`Event` that triggers when a slot is
    granted; `release()` hands the slot to the longest-waiting requester.
    Busy time is integrated continuously so utilisation over any window is
    exact, not sampled.

    `max_queue` declares a bounded queue: :attr:`full` turns True once
    `max_queue` waiters are queued.  The bound is advisory — callers
    (the fleet's backpressure path) must check `full` *before* calling
    `acquire()` and re-route or reject instead; `acquire()` itself never
    refuses, so internal code that already holds an admission ticket
    cannot deadlock on its own bound.
    """

    __slots__ = ("sim", "name", "capacity", "busy", "max_queue", "_waiters",
                 "_busy_integral", "_last_change", "timeline")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "",
                 timeline=None, max_queue: int = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.busy = 0
        self.max_queue = max_queue
        self._waiters = deque()
        self._busy_integral = 0.0
        self._last_change = sim.now
        self.timeline = timeline

    def _account(self) -> None:
        self._busy_integral += self.busy * (self.sim.now - self._last_change)
        self._last_change = self.sim.now
        if self.timeline is not None:
            self.timeline.add(self.sim.now, self.busy / self.capacity)

    def acquire(self) -> Event:
        """Request a slot; the returned event triggers when it is granted."""
        grant = Event(self.sim)
        if self.busy < self.capacity:
            self._account()
            self.busy += 1
            grant.succeed()
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Free a held slot, handing it to the longest-waiting requester."""
        if not self.busy:
            raise RuntimeError("release of %r with no holder" % self.name)
        if self._waiters:
            # Slot changes hands; occupancy is unchanged.
            self._waiters.popleft().succeed()
        else:
            self._account()
            self.busy -= 1

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    @property
    def full(self) -> bool:
        """Whether the bounded queue has reached its depth limit."""
        return self.max_queue is not None and len(self._waiters) >= self.max_queue

    def reset_utilisation(self) -> None:
        """Restart busy-time integration (e.g. at the end of warmup)."""
        self._busy_integral = 0.0
        self._last_change = self.sim.now

    def utilisation(self, since: float = 0.0) -> float:
        """Mean busy fraction from the last reset (at `since`) to now."""
        window = self.sim.now - since
        if window <= 0.0:
            return 0.0
        integral = self._busy_integral + self.busy * (self.sim.now - self._last_change)
        return integral / (window * self.capacity)


class Simulator:
    """The event loop: heap, ready queue, clock, seeded RNG, spawner."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = random.Random(seed)
        self._heap = []
        self._ready = deque()
        self._sequence = 0
        self.events_processed = 0

    # -- scheduling -------------------------------------------------------------

    def _push(self, time: float, callback, argument) -> None:
        if time == self.now:
            self._ready.append((callback, argument))
            return
        # Heap entries are (time, sequence, callback, argument).  The
        # sequence is strictly monotonic and unique per push, so heapq's
        # tuple comparison NEVER reaches the callback/argument slots: events
        # with colliding timestamps pop in submission order, and payloads
        # need not be orderable (lambdas, dicts, Events are all fine).
        # Pinned by tests/cluster/test_kernel.py::TestTimestampCollisions.
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, callback, argument))

    def _post(self, callback, argument) -> None:
        """Schedule `callback(argument)` at the current instant (FIFO)."""
        self._ready.append((callback, argument))

    def schedule(self, delay: float, callback, argument=None) -> None:
        """Run `callback(argument)` after `delay` simulated seconds."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self._push(self.now + delay, callback, argument)

    def timeout(self, delay: float, value=None) -> Event:
        """An event that triggers `delay` seconds from now."""
        if delay < 0:
            raise ValueError("negative timeout")
        event = Event(self)
        self._push(self.now + delay, event.succeed, value)
        return event

    def resume_after(self, delay: float, callback) -> None:
        """Run `callback(None)` `delay` seconds from now, in the order a
        :meth:`timeout` with one waiter would: the expiry is one event
        and the resume a second, posted by it — without the Event."""
        if delay < 0:
            raise ValueError("negative timeout")
        self._push(self.now + delay, self._ready.append, (callback, None))

    def spawn(self, generator) -> Process:
        """Start a coroutine process; returns its completion event."""
        return Process(self, generator)

    def fork_rng(self, label: str) -> random.Random:
        """A child RNG derived deterministically from the master seed."""
        return random.Random((self.rng.getrandbits(48) << 16) ^ len(label))

    def resource(self, capacity: int = 1, name: str = "", timeline=None,
                 max_queue: int = None) -> Resource:
        """Create a FIFO :class:`Resource` bound to this simulator's clock."""
        return Resource(self, capacity, name, timeline, max_queue)

    # -- running ----------------------------------------------------------------

    def run(self, until: float = None) -> int:
        """Process events until none remain or the clock passes `until`.

        Returns the number of events processed by this call.  With `until`
        given, the clock is left exactly at `until` even if the last event
        fired earlier (so back-to-back windows tile perfectly).
        """
        processed = 0
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        limit = math.inf if until is None else until
        if self.now <= limit:
            while True:
                while ready:
                    callback, argument = ready.popleft()
                    callback(argument)
                    processed += 1
                if not heap:
                    break
                time = heap[0][0]
                if time > limit:
                    break
                self.now = time
                # The instant's heap entries, in sequence order; whatever
                # they post joins the ready queue behind them.
                while True:
                    _, _, callback, argument = pop(heap)
                    callback(argument)
                    processed += 1
                    if not heap or heap[0][0] != time:
                        break
        if until is not None and self.now < until:
            self.now = until
        self.events_processed += processed
        return processed
