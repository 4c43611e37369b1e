"""Deterministic chaos-smoke scenario: the `python -m repro chaos` run.

Tier-1 regression gate for the whole fault stack — one seeded end-to-end
run through the micro, network, and cluster phases must inject faults at
every layer, recover everywhere, corrupt nothing, and reproduce
byte-identically under the same seed.  The CLI tests pin what the
command prints: the summary, the JSON only under ``--json-out``, and a
``FAIL:`` line (exit 1) when corrupted outputs escape.
"""

import copy
import json

import pytest

from repro.__main__ import main as cli_main
from repro.faults import chaos as chaos_module
from repro.faults.chaos import render_chaos, run_chaos

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def report():
    return run_chaos(seed=7)


class TestMicroPhase:
    def test_zero_corruption_with_checksums_verified(self, report):
        micro = report["micro"]
        assert micro["corruption_observed"] == 0
        assert micro["checksums_verified"] > 0

    def test_faults_actually_injected(self, report):
        micro = report["micro"]
        assert micro["injected_wedges"] >= 1
        assert micro["injected_storms"] >= 1
        assert micro["ecc"]["injected"] >= 1

    def test_recovery_engaged(self, report):
        micro = report["micro"]
        assert micro["offloads_aborted"] >= 1
        assert micro["resilience"]["hw_failures"] >= 1
        assert micro["resilience"]["onloaded_ops"] >= 1
        assert micro["breaker"]["opens"] >= 1
        assert micro["alerts"] > 0


class TestNetPhase:
    def test_lossy_link_injected_but_transfer_completed(self, report):
        net = report["net"]
        assert net["link"]["dropped"] >= 1
        assert net["tcp"]["retransmissions"] >= 1
        assert net["tcp"]["goodput_gbps"] > 0

    def test_accelerator_completion_drops(self, report):
        qat = report["net"]["quickassist"]
        assert qat["completions_lost"] >= 1
        assert qat["completion_retries"] >= 1
        assert qat["ok"] + qat["gave_up"] == 40


class TestClusterPhase:
    def test_fault_windows_detected_and_restored(self, report):
        chaos = report["cluster"]["chaos"]
        assert len(chaos["windows"]) == 2
        for window in chaos["windows"]:
            assert window["detected_s"] is not None
            assert window["restored_s"] is not None
            assert window["mttr_s"] > 0

    def test_availability_and_goodput_sensible(self, report):
        chaos = report["cluster"]["chaos"]
        assert 0.0 < chaos["availability"] < 1.0
        assert chaos["mttr_mean_s"] > 0
        assert chaos["rerouted"] > 0
        assert chaos["breaker_spills"] > 0
        assert chaos["goodput_clear_rps"] > chaos["goodput_in_fault_rps"]


def test_identical_seed_identical_report(report):
    again = run_chaos(seed=7)
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)


# -- the CLI: the summary on stdout, the JSON only where --json-out says -----


def _cli(monkeypatch, capsys, report, *extra):
    monkeypatch.setattr(chaos_module, "run_chaos", lambda seed, ops: report)
    code = cli_main(["chaos", "--seed", str(report["seed"]), *extra])
    return code, capsys.readouterr().out


def test_cli_prints_only_the_summary(report, monkeypatch, capsys):
    code, out = _cli(monkeypatch, capsys, report)
    assert code == 0
    assert out == render_chaos(report) + "\n"


def test_cli_json_out_holds_the_report(report, monkeypatch, capsys, tmp_path):
    path = tmp_path / "chaos.json"
    code, out = _cli(monkeypatch, capsys, report, "--json-out", str(path))
    assert code == 0
    assert path.read_text() == json.dumps(report, sort_keys=True)
    assert out == (render_chaos(report)
                   + "\nchaos report JSON written to %s\n" % path)


def test_cli_fails_when_corruption_escapes(report, monkeypatch, capsys):
    escaped = copy.deepcopy(report)
    escaped["micro"]["corruption_observed"] = 2
    code, out = _cli(monkeypatch, capsys, escaped)
    assert code == 1
    assert out == (render_chaos(escaped)
                   + "\nFAIL: 2 corrupted outputs escaped recovery\n")
