"""Guard rail for the property gates of the committed sweep baselines.

One row per gate condition and per baseline-tolerance row of the four
extension targets (overload, replication, qos, ras).  Each row loads the
committed ``BENCH_<target>.json`` payload, sets one field just inside its
threshold (the gate must still pass) and just past it (exactly one
failure).  The unmodified payloads must pass everything.  Together the
rows pin every threshold: a condition that is dropped, loosened or
tightened fails its row.

``check_regression.py --list`` is pinned to its wall-clock rows: the
property gates live on the matrix targets and nowhere else.
"""

import copy
import json
import math
import os
import subprocess
import sys

import pytest

import repro
from repro.exp.targets import TOLERANCE, get_target

pytestmark = pytest.mark.exp

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SWEEP_TARGETS = ("overload", "replication", "qos", "ras")


def below(value):
    """The largest float strictly below `value`."""
    return math.nextafter(value, -math.inf)


def above(value):
    """The smallest float strictly above `value`."""
    return math.nextafter(value, math.inf)


#: (target, payload path, value just inside, value just past) per gate
#: condition.
GATE_ROWS = (
    ("overload", "sweep.summary.shed_2x_over_peak", 0.70, below(0.70)),
    ("overload", "sweep.summary.noshed_2x_over_peak", 0.35, above(0.35)),
    ("replication", "summary.total_violations", 0, 1),
    ("replication", "summary.smartdimm_over_cpu_goodput_fault",
     above(1.0), 1.0),
    ("qos", "fairness.summary.victim_goodput_ratio", 0.85, below(0.85)),
    ("qos", "fairness.summary.steady_goodput_ratio", 0.85, below(0.85)),
    ("qos", "fairness.summary.victim_goodput_ratio_chaos", 0.85,
     below(0.85)),
    ("qos", "fairness.summary.aggressor_capped", True, False),
    ("qos", "fairness.summary.surge_latency_bounded", True, False),
    ("qos", "retry_isolation.victim_isolated", True, False),
    ("qos", "fairness.summary.victim_goodput_ratio_fifo", 0.75,
     above(0.75)),
    ("ras", "summary.grid_undetected", 0, 1),
    ("ras", "summary.sdc_undetected_verify_on", 0, 1),
    ("ras", "summary.sdc_undetected_verify_off", 1, 0),
    ("ras", "summary.scrub_overhead_default", 0.10, above(0.10)),
    # The committed baseline has at_risk_scrub_off == 3.
    ("ras", "summary.at_risk_scrub_default", 2, 3),
    ("ras", "summary.quarantine_trips", 1, 0),
    ("ras", "summary.quarantine_readmissions", 1, 0),
    ("ras", "summary.fleet_undetected_full_coverage", 0, 1),
    ("ras", "summary.fleet_detected_full_coverage", 1, 0),
)

#: (target, payload path, direction) per baseline-tolerance row.
TOLERANCE_ROWS = (
    ("overload", "sweep.summary.capacity_rps", "min"),
    ("overload", "sweep.summary.peak_goodput_shed_rps", "min"),
    ("overload", "sweep.summary.goodput_2x_shed_rps", "min"),
    ("replication", "summary.smartdimm_over_cpu_goodput_fault", "min"),
    ("replication", "summary.abd_smartdimm_goodput_fault_rps", "min"),
    ("replication", "summary.chain_smartdimm_goodput_fault_rps", "min"),
    ("qos", "fairness.summary.capacity_rps", "min"),
    ("qos", "fairness.summary.victim_goodput_ratio", "min"),
    ("qos", "fairness.summary.victim_goodput_ratio_chaos", "min"),
    ("ras", "summary.grid_detection_coverage", "min"),
    ("ras", "summary.grid_retired_rows", "min"),
    ("ras", "summary.fleet_detected_full_coverage", "min"),
    ("ras", "summary.scrub_overhead_default", "max"),
)


def committed(name: str) -> dict:
    """The committed BENCH payload of one target."""
    with open(os.path.join(REPO_ROOT, get_target(name).baseline)) as handle:
        return json.load(handle)


def lookup(payload: dict, path: str):
    for key in path.split("."):
        payload = payload[key]
    return payload


def nudged(payload: dict, path: str, value) -> dict:
    """A deep copy of `payload` with the field at `path` set to `value`."""
    out = copy.deepcopy(payload)
    *parents, leaf = path.split(".")
    node = out
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


def test_row_counts_match_the_gate_inventory():
    gates = {name: sum(1 for row in GATE_ROWS if row[0] == name)
             for name in SWEEP_TARGETS}
    tolerances = {name: sum(1 for row in TOLERANCE_ROWS if row[0] == name)
                  for name in SWEEP_TARGETS}
    assert gates == {"overload": 2, "replication": 2, "qos": 7, "ras": 9}
    assert tolerances == {"overload": 3, "replication": 3, "qos": 3,
                          "ras": 4}


@pytest.mark.parametrize("name", SWEEP_TARGETS)
def test_committed_payload_passes(name):
    target = get_target(name)
    payload = committed(name)
    assert target.gate(payload) == []
    assert target.tolerance_failures(payload, payload) == []


@pytest.mark.parametrize("name", SWEEP_TARGETS)
def test_tolerance_table_is_the_one_on_the_target(name):
    rows = {(path, direction)
            for target, path, direction in TOLERANCE_ROWS if target == name}
    assert set(get_target(name).tolerances) == rows
    assert TOLERANCE == 0.20


@pytest.mark.parametrize(
    "name,path,inside,outside", GATE_ROWS,
    ids=["%s:%s" % (row[0], row[1].rsplit(".", 1)[1]) for row in GATE_ROWS])
def test_gate_condition(name, path, inside, outside):
    target = get_target(name)
    payload = committed(name)
    assert target.gate(nudged(payload, path, inside)) == []
    failures = target.gate(nudged(payload, path, outside))
    assert len(failures) == 1, failures
    assert failures[0].startswith(name + ": ")


@pytest.mark.parametrize(
    "name,path,direction", TOLERANCE_ROWS,
    ids=["%s:%s" % (row[0], row[1].rsplit(".", 1)[1])
         for row in TOLERANCE_ROWS])
def test_tolerance_row(name, path, direction):
    target = get_target(name)
    baseline = committed(name)
    base = lookup(baseline, path)
    if direction == "min":
        inside = (1.0 - TOLERANCE) * base
        outside = below(inside)
    else:
        inside = (1.0 + TOLERANCE) * base
        outside = above(inside)
    assert target.tolerance_failures(
        baseline, nudged(baseline, path, inside)) == []
    failures = target.tolerance_failures(
        baseline, nudged(baseline, path, outside))
    assert len(failures) == 1, failures
    assert path in failures[0]


def test_tolerance_flags_a_metric_missing_from_the_fresh_run():
    target = get_target("overload")
    baseline = committed("overload")
    fresh = copy.deepcopy(baseline)
    del fresh["sweep"]["summary"]["capacity_rps"]
    failures = target.tolerance_failures(baseline, fresh)
    assert failures == ["overload: sweep.summary.capacity_rps missing "
                        "from fresh run"]


def test_check_regression_lists_only_wall_clock_rows():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(repro.__file__)),
                      env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable,
         os.path.join(REPO_ROOT, "benchmarks", "perf", "check_regression.py"),
         "--list"],
        check=True, capture_output=True, text=True, env=env).stdout
    rows = [line.split()[0] for line in out.splitlines()
            if line.startswith("  ")]
    assert rows == ["datapath", "cluster", "compcpy5x", "fleetvec",
                    "faults", "matrix3x"]
