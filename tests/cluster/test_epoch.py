"""Batched-epoch primitive tests: scans, stations, planners, integrals.

The batched numpy forms are held to brute-force sequential references:
the Lindley recursion and first-free dispatch here, the round-robin
chain recursion in :mod:`tests.cluster.reference_epoch`.
"""

import heapq
import math

import numpy as np
import pytest

from repro.cluster.epoch import (
    Station,
    fifo_scan,
    interleave_targets,
    overlap_sum,
    spread_mask,
    water_fill,
    window_overlaps,
)

from tests.cluster.reference_epoch import chain_scan


def _col(values):
    return np.asarray(values, dtype=np.float64)


# -- fifo_scan ---------------------------------------------------------------------


def _lindley(arrive, service, carry):
    start, depart, prev = [], [], carry
    for a, s in zip(arrive, service):
        begin = max(a, prev)
        prev = begin + s
        start.append(begin)
        depart.append(prev)
    return start, depart, prev


def test_fifo_scan_matches_sequential_recursion():
    arrive = [0.0, 0.1, 0.15, 0.9, 0.91]
    service = [0.2, 0.05, 0.3, 0.01, 0.5]
    want_start, want_depart, want_carry = _lindley(arrive, service, 0.05)
    start, depart, carry = fifo_scan(_col(arrive), _col(service), 0.05)
    assert start.tolist() == pytest.approx(want_start)
    assert depart.tolist() == pytest.approx(want_depart)
    assert carry == pytest.approx(want_carry)


def test_fifo_scan_empty_cohort():
    empty = _col([])
    start, depart, carry = fifo_scan(empty, empty, 1.5)
    assert len(start) == 0 and len(depart) == 0
    assert carry == 1.5


# -- Station: chain decomposition vs first-free dispatch ----------------------------


def _first_free(arrive, service, carries):
    """Brute-force event-kernel dispatch: head of FIFO takes first token."""
    avail = list(carries)
    heapq.heapify(avail)
    start, depart = [], []
    for a, s in zip(arrive, service):
        begin = max(a, avail[0])
        heapq.heapreplace(avail, begin + s)
        start.append(begin)
        depart.append(begin + s)
    return start, depart


def test_station_uniform_service_chains_are_first_free():
    """With uniform service, round-robin chains == first-free dispatch."""
    arrive = [0.0, 0.0, 0.01, 0.02, 0.02, 0.5, 0.5, 0.5]
    service = [0.1] * len(arrive)
    station = Station(3)
    start, depart, shed = station.drain(_col(arrive), _col(service))
    want_start, want_depart = _first_free(arrive, service, [0.0] * 3)
    assert shed is None
    assert start.tolist() == pytest.approx(want_start)
    assert depart.tolist() == pytest.approx(want_depart)


def test_station_chain_carries_persist_across_cohorts():
    """Splitting one uniform stream into two drains must not change it."""
    arrive = [0.01 * j for j in range(10)]
    service = [0.07] * 10
    whole = Station(2)
    d_whole = whole.drain(_col(arrive), _col(service))[1]
    split = Station(2)
    d_a = split.drain(_col(arrive[:6]), _col(service[:6]))[1]
    d_b = split.drain(_col(arrive[6:]), _col(service[6:]))[1]
    assert d_whole.tolist() == pytest.approx(d_a.tolist() + d_b.tolist())


def test_station_mixed_service_uses_exact_first_free():
    """Heterogeneous cohorts switch to the heap path — exact, not chains."""
    arrive = [0.0, 0.0, 0.0, 0.0, 0.2]
    service = [1.0, 0.01, 0.01, 0.01, 0.01]
    station = Station(2)
    start, depart, _ = station.drain(_col(arrive), _col(service))
    want_start, want_depart = _first_free(arrive, service, [0.0] * 2)
    assert start.tolist() == pytest.approx(want_start)
    assert depart.tolist() == pytest.approx(want_depart)
    # ...and the station stays on the exact path for later uniform cohorts.
    start2, depart2, _ = station.drain(_col([2.0, 2.0]), _col([0.5, 0.5]))
    assert depart2.tolist() == pytest.approx([2.5, 2.5])


def test_station_capacity_gt_one_numpy_matches_python():
    """The 2-D batched chain scan equals the sequential chain recursion,
    cohort after cohort (the second one starts mid-rotation)."""
    station = Station(4)
    carries, count = [0.0] * 4, 0
    for first, jobs in ((0.0, 23), (0.07, 10)):  # 23 jobs: pads a 4-chain scan
        arrive = [first + 0.003 * j for j in range(jobs)]
        service = [0.02] * jobs
        start, depart, _ = station.drain(_col(arrive), _col(service))
        want_start, want_depart, carries = chain_scan(
            arrive, service, carries, count, 4)
        count += jobs
        assert start.tolist() == pytest.approx(want_start)
        assert depart.tolist() == pytest.approx(want_depart)
        assert station.carries == pytest.approx(carries)


def test_station_deadline_shedding_zero_service():
    """An expired job holds its slot for zero seconds and departs at grant."""
    arrive = _col([0.0, 0.0, 0.0])
    service = _col([1.0, 1.0, 1.0])
    deadline = _col([10.0, 0.5, 10.0])  # job 1 expires while queued
    station = Station(1)
    start, depart, shed = station.drain(arrive, service, deadline)
    assert shed.tolist() == [False, True, False]
    assert start.tolist() == pytest.approx([0.0, 1.0, 1.0])
    assert depart.tolist() == pytest.approx([1.0, 1.0, 2.0])


def test_station_shed_fixpoint_matches_sequential():
    """The scan/re-flag fixpoint equals the exact per-job recursion."""
    arrive = [0.01 * j for j in range(40)]
    service = [0.05] * 40
    deadline = [a + 0.12 for a in arrive]
    station = Station(1)
    start, depart, shed = station.drain(
        _col(arrive), _col(service), _col(deadline))
    prev, want_shed, want_depart = 0.0, [], []
    for a, s, d in zip(arrive, service, deadline):
        begin = max(a, prev)
        expired = begin >= d
        prev = begin if expired else begin + s
        want_shed.append(expired)
        want_depart.append(prev)
    assert any(want_shed)  # the config must actually shed something
    assert shed.tolist() == want_shed
    assert depart.tolist() == pytest.approx(want_depart)


def test_station_rejects_zero_capacity():
    with pytest.raises(ValueError):
        Station(0)


# -- busy-time integrals -----------------------------------------------------------


def test_overlap_sum_clips_to_window():
    start = _col([0.0, 2.0, 9.5])
    depart = _col([1.5, 3.0, 12.0])
    # window [1, 10): 0.5 from the first, 1.0 from the second, 0.5 tail
    assert overlap_sum(start, depart, 1.0, 10.0) == pytest.approx(2.0)
    assert overlap_sum(_col([]), _col([]), 0.0, 1.0) == 0.0


def test_window_overlaps_partition_the_total():
    start = _col([0.1, 0.4, 0.85])
    depart = _col([0.3, 0.6, 1.4])
    per = window_overlaps(start, depart, 0.0, 1.0, 4)
    assert len(per) == 4
    assert sum(per) == pytest.approx(overlap_sum(start, depart, 0.0, 1.0))
    with pytest.raises(ValueError):
        window_overlaps(start, depart, 0.0, 1.0, 0)


# -- cohort planners ---------------------------------------------------------------


def test_water_fill_levels_backlogs():
    counts = water_fill([0.0, 4.0], 6, 1.0)
    assert counts == [5, 1]  # projected levels meet at 5.0
    assert water_fill([1.0, 1.0, 1.0], 0, 1.0) == [0, 0, 0]


def test_water_fill_skips_down_targets():
    counts = water_fill([0.0, math.inf, 0.0], 4, 1.0)
    assert counts[1] == 0 and sum(counts) == 4
    with pytest.raises(ValueError):
        water_fill([math.inf], 1, 1.0)


def test_water_fill_is_deterministic():
    backlogs = [0.3, 0.1, 0.1, 0.7]
    assert water_fill(backlogs, 11, 0.05) == water_fill(backlogs, 11, 0.05)


def test_interleave_targets_spreads_assignments():
    out = interleave_targets([2, 1]).tolist()
    assert sorted(out) == [0, 0, 1]
    assert out != [0, 0, 1]  # interleaved, not contiguous runs
    assert len(interleave_targets([0, 0])) == 0


def test_spread_mask_picks_evenly():
    mask = spread_mask(10, 3).tolist()
    assert sum(mask) == 3
    assert mask[0]  # Bresenham spacing always picks slot 0
    assert spread_mask(4, 9).tolist() == [True] * 4  # clamped
    assert len(spread_mask(0, 2)) == 0
