"""Golden digests: the vector fleet tier's reports pinned byte for byte.

Each case runs one short scenario through a distinct path of the vector
tier and pins ``sha256(report.to_json())`` plus ``events_processed``
(the crosscheck case pins the verdict's canonical JSON instead).  The
digests were captured while the tier still carried a second, list-based
array backend; a change to a scan, a planner, a dtype or a stable sort
that alters one float of a report fails here.

* closed loop, static placement (hashed connection slots, capacity-c
  CPU chains);
* closed loop, adaptive spill on a mixed-size workload (cohort water-
  fill, the Observation-2 spill plan, first-free CPU dispatch);
* open loop, poisson arrivals on the replay stream;
* open loop, bursty arrivals with deadline shedding at every station
  (the shed fixpoint on capacity-1 stations);
* open loop on the bulk ``arrival_stream="batch"`` stream;
* ``node_down`` + ``channel_wedge`` fault windows under adaptive spill;
* one :func:`crosscheck_tiers` verdict.
"""

import hashlib
import json

import pytest

from repro.cluster import ClusterScenario, crosscheck_tiers, run_scenario
from repro.cluster.chaos import FaultWindow
from repro.cluster.loadgen import MixEntry, RequestMix
from repro.cluster.vector import run_vector_scenario


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _closed(**overrides):
    base = dict(servers=2, channels=2, threads=4, connections=48, ulp="tls",
                message_bytes=4096, duration_s=0.003, warmup_s=0.0005,
                seed=3, tier="vector")
    base.update(overrides)
    return ClusterScenario(**base)


def _open(**overrides):
    base = dict(servers=2, channels=2, threads=4, ulp="tls",
                message_bytes=4096, mode="open", arrival="poisson",
                rate_rps=60e3, scheduler="static",
                duration_s=0.004, warmup_s=0.0005, seed=5, tier="vector")
    base.update(overrides)
    return ClusterScenario(**base)


_MIX = RequestMix([MixEntry(size=1024, weight=0.5),
                   MixEntry(size=16384, weight=0.3),
                   MixEntry(size=65536, weight=0.2)])


def _closed_spill():
    return run_scenario(_closed(
        scheduler="adaptive-spill", mix=_MIX, dsa_bytes_per_sec=300e6,
        connections=96))


def _open_bursty_shed():
    return run_scenario(_open(
        arrival="bursty", threads=1, rate_rps=20e3, burst_rps=200e3,
        base_s=0.001, burst_s=0.001, scheduler="least-loaded",
        message_bytes=16384, dsa_bytes_per_sec=300e6, deadline_s=2e-4))


def _faulted():
    return run_vector_scenario(_open(
        servers=3, rate_rps=120e3, scheduler="adaptive-spill",
        message_bytes=16384, dsa_bytes_per_sec=300e6),
        fault_windows=[
            FaultWindow(kind="node_down", server=0, start_s=0.001,
                        duration_s=0.001),
            FaultWindow(kind="channel_wedge", server=1, channel=0,
                        start_s=0.0015, duration_s=0.0015),
        ])


#: name -> (run, report digest, events_processed, whether the run took
#: the path the docstring names: a digest guards only what its case runs)
GOLDEN = {
    "closed_static": (
        lambda: run_scenario(_closed(scheduler="static")),
        "2e2e67a0defe32df80f3f76b7a4d7429d6e5a8fd8d778bdc9ef67d62e2400027",
        14064,
        lambda r: r.completed > 0 and r.spilled == 0),
    "closed_adaptive_spill": (
        _closed_spill,
        "9db6e23183f37c16926e193d559d7e4b69ca086cec06361f4c2916e905910b61",
        3376,
        lambda r: r.spilled > 0),
    "open_poisson_replay": (
        lambda: run_scenario(_open()),
        "81cc23b374a6e3d88adb1a523bbbf9107b5181b57e3ca54081f9733d01d5e01b",
        904,
        lambda r: r.completed > 0),
    "open_bursty_shed": (
        _open_bursty_shed,
        "b46c9c3fcf503b4e08ed05c57cb64b83c4eede6152742df6cc1c463c5b99021d",
        1136,
        lambda r: all(count > 0 for count in r.overload["shed"].values())),
    "open_batch_stream": (
        lambda: run_scenario(_open(arrival_stream="batch")),
        "90dee7d9ceb57a5801c80f607375d39c35a95bfbd4930b056d849ebc0125bfba",
        1064,
        lambda r: r.completed > 0),
    "faults_node_down_wedge": (
        _faulted,
        "b772075307bb52d3e4397e43a593f896578142070448a30d0374c1c7e47f8328",
        1580,
        lambda r: r.spilled > 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_vector_report_digest_is_pinned(name):
    run, digest, events, exercised = GOLDEN[name]
    report = run()
    assert exercised(report)
    assert report.events_processed == events
    assert _sha(report.to_json()) == digest


def test_crosscheck_verdict_is_pinned():
    verdict = crosscheck_tiers(_open())
    text = json.dumps(verdict, indent=2, sort_keys=True)
    assert verdict["passed"]
    assert _sha(text) == (
        "3bb32eeeaff4fd94274ea41a5e986f8fb1d3fcebce61d72fbd6fdfbde36beb59")
