"""The ready-queue kernel against the heap-only oracle.

Hypothesis draws schedules of processes that sleep (zero delays, delays
that round to ``now``, ints and floats), wait on timeouts, shared events,
child processes and resource grants with waiters, plus plain scheduled
callbacks, run in back-to-back ``run(until=)`` windows.  Each schedule
runs on the production :class:`Simulator` and on
:class:`ReferenceSimulator`; the callback log, the clock after each run,
each run's event count and ``events_processed`` must all match.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.kernel import Event, Resource, Simulator
from repro.qos.drr import QosResource

from tests.cluster.reference_kernel import ReferenceSimulator

#: 1e-300 is a distinct instant at t=0 and rounds to ``now`` after it.
DELAYS = (0, 0.0, 1e-300, 0.1, 0.25, 0.5, 1, 1.0)

delays = st.sampled_from(DELAYS)
steps = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("hold"), st.integers(0, 1), delays),
    st.tuples(st.just("wait"), st.integers(0, 1)),
    st.tuples(st.just("trigger"), st.integers(0, 1)),
    st.tuples(st.just("child"), delays),
    st.tuples(st.just("fork"), delays),
    st.tuples(st.just("schedule"), delays),
)
programs = st.lists(st.lists(steps, min_size=1, max_size=6),
                    min_size=1, max_size=5)
schedules = st.fixed_dictionaries({
    "programs": programs,
    "callbacks": st.lists(delays, max_size=4),
    "capacities": st.tuples(st.integers(1, 2), st.integers(1, 2)),
    "windows": st.lists(st.sampled_from((0.0, 1e-300, 0.25, 0.5, 1.0)),
                        max_size=3),
})


def _play(sim, schedule) -> list:
    """Build `schedule` on `sim`, run it window by window; return the log."""
    log = []
    resources = [Resource(sim, capacity, "r%d" % index)
                 for index, capacity in enumerate(schedule["capacities"])]
    events = [Event(sim), Event(sim)]

    def note(*entry):
        log.append(entry + (sim.now,))

    def child(tag, delay):
        yield delay
        note("child", tag)
        return tag

    def process(pid, program):
        for index, step in enumerate(program):
            tag = (pid, index)
            kind = step[0]
            if kind == "sleep":
                value = yield step[1]
            elif kind == "timeout":
                value = yield sim.timeout(step[1], tag)
            elif kind == "hold":
                resource = resources[step[1]]
                yield resource.acquire()
                note("granted", tag, resource.queue_depth)
                yield step[2]
                resource.release()
                value = None
            elif kind == "wait":
                value = yield events[step[1]]
            elif kind == "trigger":
                event = events[step[1]]
                if not event.triggered:
                    event.succeed(tag)
                value = None
            elif kind == "child":
                value = yield sim.spawn(child(tag, step[1]))
            elif kind == "fork":
                sim.spawn(child(tag, step[1]))
                value = None
            else:
                sim.schedule(step[1], lambda _, tag=tag: note("called", tag))
                value = None
            note(kind, tag, value)
        return pid

    for pid, program in enumerate(schedule["programs"]):
        sim.spawn(process(pid, program))
        if pid < len(schedule["callbacks"]):
            sim.schedule(schedule["callbacks"][pid],
                         lambda _, pid=pid: note("top", pid))
    until = 0.0
    for step in schedule["windows"]:
        until += step
        processed = sim.run(until=until)
        log.append(("window", until, processed, sim.now,
                    sim.events_processed))
    processed = sim.run()
    log.append(("end", processed, sim.now, sim.events_processed))
    return log


@settings(max_examples=300, deadline=None)
@given(schedules)
def test_schedule_matches_heap_only_oracle(schedule):
    assert _play(Simulator(), schedule) == _play(ReferenceSimulator(), schedule)


def test_delay_rounding_to_now_keeps_heap_order():
    """At t>0, ``now + 1e-300 == now``: the resume joins the current
    instant behind everything already posted, as a heap entry at
    ``(now, next sequence)`` would."""
    for sim in (Simulator(), ReferenceSimulator()):
        log = []

        def sleeper():
            yield 1.0
            sim.schedule(0.0, lambda _: log.append("posted"))
            yield 1e-300
            log.append(("resumed", sim.now))

        sim.spawn(sleeper())
        sim.schedule(1.0, lambda _: log.append("same instant"))
        sim.run()
        assert log == ["same instant", "posted", ("resumed", 1.0)]


@pytest.mark.parametrize("make", [Simulator, ReferenceSimulator])
def test_negative_delay_raises_value_error(make):
    sim = make()

    def worker():
        yield -1e-9

    sim.spawn(worker())
    with pytest.raises(ValueError):
        sim.run()
    with pytest.raises(ValueError):
        sim.resume_after(-1.0, lambda _: None)


@pytest.mark.parametrize("make", [Simulator, ReferenceSimulator])
@pytest.mark.parametrize("bad", ["1.0", None, [1.0], object()])
def test_non_delay_non_event_raises_type_error(make, bad):
    sim = make()

    def worker():
        yield bad

    sim.spawn(worker())
    with pytest.raises(TypeError):
        sim.run()


def test_run_until_in_the_past_processes_nothing():
    for sim in (Simulator(), ReferenceSimulator()):
        sim.run(until=2.0)
        fired = []
        sim.schedule(0.0, lambda _: fired.append(sim.now))
        assert sim.run(until=1.0) == 0 and not fired
        assert sim.now == 2.0
        assert sim.run() == 1 and fired == [2.0]


@pytest.mark.parametrize("station", [
    lambda sim: Resource(sim, 2, "fifo"),
    lambda sim: QosResource(sim, 2, "drr"),
])
def test_release_without_holder_raises(station):
    sim = Simulator()
    resource = station(sim)
    with pytest.raises(RuntimeError):
        resource.release()
    resource.acquire()
    resource.release()
    with pytest.raises(RuntimeError):
        resource.release()
    # The failed releases left occupancy and the integral untouched.
    assert resource.busy == 0
    sim.run(until=1.0)
    assert resource.utilisation(0.0) == 0.0
