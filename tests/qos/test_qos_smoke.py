"""Deterministic QoS smoke: the ``python -m repro qos`` sweep.

Tier-2 regression gate for the whole multi-tenant stack — the reduced
(quick) sweep must pass its own fairness gate, demonstrate the FIFO
contrast damage, and reproduce byte-identically under the same seed.
Runs in tens of seconds; select with ``-m qos``.
"""

import json

import pytest

from repro.exp import build_matrix, run_matrix
from repro.qos.sweep import gate_failures

pytestmark = pytest.mark.qos


def run_qos(seed: int) -> dict:
    """The quick qos payload, run serially through the experiment matrix."""
    result = run_matrix(build_matrix(only=["qos"], seed=seed, quick=True),
                        jobs=1)
    return result.payload["targets"]["qos"]


def canonical(report: dict) -> str:
    """The payload serialised the way its BENCH file stores it."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def report():
    return run_qos(11)


class TestFairnessGate:
    def test_sweep_passes_its_own_gate(self, report):
        assert gate_failures(report) == []

    def test_victim_keeps_isolated_goodput(self, report):
        summary = report["fairness"]["summary"]
        assert summary["victim_goodput_ratio"] >= 0.85
        assert summary["victim_goodput_ratio_chaos"] >= 0.85

    def test_aggressor_capped_near_fair_share(self, report):
        summary = report["fairness"]["summary"]
        assert summary["aggressor_goodput_rps"] <= summary["aggressor_cap_rps"]

    def test_fifo_arm_demonstrates_interference(self, report):
        summary = report["fairness"]["summary"]
        # Without DRR isolation the victim loses real goodput — the DRR
        # arm's >= 85% is only meaningful against this contrast.
        assert (summary["victim_goodput_ratio_fifo"]
                < summary["victim_goodput_ratio"])

    def test_latency_class_bounded_under_surge(self, report):
        summary = report["fairness"]["summary"]
        assert (summary["surge_latency_p99_us"]
                <= summary["surge_latency_deadline_us"])


class TestRetryIsolation:
    def test_no_cross_tenant_budget_exhaustion(self, report):
        retry = report["retry_isolation"]
        assert retry["victim_denied_parent"] == 0
        assert retry["victim_isolated"]

    def test_aggressor_storm_is_contained_to_its_child(self, report):
        retry = report["retry_isolation"]
        budget = retry["aggressor"]["budget"]
        assert budget["denied_child"] + budget["denied_parent"] > 0
        assert retry["victim"]["ok"] == retry["victim"]["ops"]


class TestDeterminism:
    def test_same_seed_byte_identical_payload(self, report):
        again = run_qos(11)
        assert canonical(again) == canonical(report)

    def test_different_seed_differs(self, report):
        assert canonical(run_qos(12)) != canonical(report)
