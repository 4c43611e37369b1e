"""Golden digests: the fleet DES's reports pinned byte for byte.

Each case runs one short scenario through a distinct path of the event
tier and pins ``sha256(report.to_json())`` plus ``events_processed``.
The digests were captured before the kernel gained its same-instant
ready queue and the fleet's station walk became callbacks; a change to
either that alters one callback's order, one event, or one float in a
report fails here.

* overload at 2x capacity, shed arm: CoDel admission, bounded-queue
  reroute and reject, brownout;
* the same load with nothing enforced (noshed);
* a closed loop under adaptive spill with bounded queues: processes
  wait on ``Fleet.submit``'s event and back off after a reject, and
  requests shed at every station;
* QoS DRR tenants (``QosResource`` stations, per-tenant bounds);
* ``FleetFaultInjector`` node_down + channel_wedge windows;
* ABD replication under the sweep's chaos schedule (quorum joins and
  hop timeouts over ``submit``'s event);
* a traced closed loop, which also pins the Chrome-trace bytes.
"""

import hashlib

import pytest

from repro.cluster import ClusterScenario, run_scenario
from repro.cluster.chaos import FaultWindow, FleetFaultInjector
from repro.overload.sweep import fleet_capacity_rps, overload_scenario
from repro.qos import sweep as qos_sweep
from repro.replication.scenario import run_replication
from repro.replication.sweep import replication_scenario, standard_windows


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _overload(control: bool):
    rate = 2.0 * fleet_capacity_rps(11)
    return run_scenario(overload_scenario(rate, control, 11, 0.004, 0.001))


def _closed_spill():
    return run_scenario(ClusterScenario(
        servers=2, channels=2, threads=4, connections=256, mode="closed",
        ulp="deflate", message_bytes=16384, dsa_bytes_per_sec=300e6,
        scheduler="adaptive-spill", think_s=2e-5, deadline_s=4e-4,
        admission="codel", cpu_queue_limit=16, dsa_queue_limit=4,
        duration_s=0.004, warmup_s=0.001, seed=7))


def _qos_drr():
    tenants = qos_sweep.make_tenants(
        qos_sweep.tenant_rates(qos_sweep.fleet_capacity_rps()))
    return run_scenario(qos_sweep.qos_scenario(
        tenants, 11, 0.004, 0.001, qos_sweep.derive_deadline_s()))


def _chaos():
    injector = FleetFaultInjector([
        FaultWindow(kind="node_down", server=0, start_s=0.0015,
                    duration_s=0.001),
        FaultWindow(kind="channel_wedge", server=1, channel=0,
                    start_s=0.002, duration_s=0.001),
    ])
    return run_scenario(ClusterScenario(
        servers=2, channels=4, threads=8, mode="open",
        rate_rps=1.2 * fleet_capacity_rps(11), deadline_s=1e-3,
        cpu_queue_limit=32, dsa_queue_limit=8,
        duration_s=0.004, warmup_s=0.001, seed=5),
        fault_injector=injector)


def _replication_abd():
    duration_s, warmup_s = 0.006, 0.001
    scenario = replication_scenario("smartdimm", "abd", 11,
                                    duration_s=duration_s, warmup_s=warmup_s)
    injector = FleetFaultInjector(standard_windows(duration_s, warmup_s))
    return run_replication(scenario, fault_injector=injector)


def _spills_rejects_and_sheds(report) -> bool:
    return (report.spilled > 0
            and report.overload["rejected_backpressure"] > 0
            and all(count > 0 for count in report.overload["shed"].values()))


#: name -> (run, report digest, events_processed, whether the run took
#: the paths the docstring names: a digest guards only what its case runs)
GOLDEN = {
    "overload_shed": (
        lambda: _overload(True),
        "8bf5bab8df21de1893429d22d2ced41762374bf4506a80ad2977feb7f72281e9",
        66523,
        lambda r: (r.overload["rejected_admission"] > 0
                   and r.overload["rejected_backpressure"] > 0
                   and r.overload["brownouts"] > 0)),
    "overload_noshed": (
        lambda: _overload(False),
        "fc82f10b0495227e5f599bd628696da4f96973003caa095ffeb2b673eaa9b660",
        70254,
        lambda r: r.completed > 0),
    "closed_adaptive_spill": (
        _closed_spill,
        "d51fb989914347f04c842ca54fb3bf8a52baeebfd9095ba0eda04092b7e903c4",
        6914,
        _spills_rejects_and_sheds),
    "qos_drr": (
        _qos_drr,
        "5d9d9e5f18c94543d4490c34e477992b4f4169fc0545be291ab212d78989b88e",
        20929,
        lambda r: bool(r.qos["arbiter_served_seconds"])),
    "chaos_node_down_wedge": (
        _chaos,
        "bfd002f644ef30e609f80f4edbc667fedda0806a01f452936cb47810d803a208",
        52483,
        lambda r: r.chaos["rerouted"] > 0 and r.chaos["degraded_served"] > 0),
    "replication_abd": (
        _replication_abd,
        "bb9c19fd7c226a9f69648935998c7ae8a00a6c23fe968132c0c74ac1cca615c3",
        39411,
        lambda r: r.ops["hop_timeouts"] > 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_is_pinned(name):
    run, digest, events, exercised = GOLDEN[name]
    report = run()
    assert exercised(report)
    assert report.events_processed == events
    assert _sha(report.to_json().encode()) == digest


def test_trace_export_is_pinned(tmp_path):
    path = tmp_path / "trace.json"
    report = run_scenario(ClusterScenario(
        servers=2, channels=2, threads=4, connections=32, mode="closed",
        ulp="tls", message_bytes=16384, dsa_bytes_per_sec=500e6,
        duration_s=0.001, warmup_s=0.0002, seed=3, trace_path=str(path)))
    assert report.events_processed == 5105
    assert _sha(report.to_json().encode()) == (
        "f0c811731b6f75115d6a1ce5a05624b3ad4d99ec920ab40d8052eaf68fe881ec")
    assert _sha(path.read_bytes()) == (
        "b441a542912301f2f975da8b12bd25afd92efaeba2f2ec812336fa2bcb118049")
