"""The experiment-matrix target registry.

A :class:`Target` is one figure family and the single owner of its
verdict: it enumerates its points (``points``), runs one point purely
(``run_point``), reassembles point results into the payload its
``BENCH_*.json`` baseline stores (``rollup``), distils the headline
numbers the cross-target statistics roll up (``headline``), judges the
payload (``gate``), names its committed ``baseline`` and the
``tolerances`` that baseline is held to, and names the *code-relevant*
source prefixes its cache digest covers (``code_deps`` — an edit outside
them keeps every cached point valid).

Seven targets mirror the seven sweeps:

* ``datapath`` — the paper's two headline analytic figures: the
  placement crossover vs message size (Figs. 11/12) and the Table I
  co-runner interference matrix, straight from the calibrated
  :class:`~repro.sim.server.ServerModel`.
* ``cluster`` — the rack-scale DES: closed-loop TLS per placement plus
  an open-loop spill point.
* ``faults`` — whole-stack chaos (``python -m repro chaos``) across
  several seeds; the rollup requires zero escaped corruption.
* ``overload`` / ``replication`` / ``qos`` / ``ras`` — the extension
  sweeps, delegating points, rollup and gate to their sweep modules
  (``matrix_points`` / ``run_point`` / ``rollup`` / ``gate_failures``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exp.spec import RunSpec

#: Source prefixes nearly every simulation target depends on.
_MICRO_DEPS = ("repro.core", "repro.ulp", "repro.dram", "repro.cache",
               "repro.cpu", "repro.workloads", "repro.faults")
_FLEET_DEPS = ("repro.cluster", "repro.sim", "repro.overload", "repro.qos",
               "repro.accel", "repro.net", "repro.apps")

#: Fractional drift from the committed baseline every tolerance row allows.
TOLERANCE = 0.20


def _lookup(payload: dict, path: str):
    """The value at a dotted `path` in `payload`, or None when absent."""
    for key in path.split("."):
        if not isinstance(payload, dict) or key not in payload:
            return None
        payload = payload[key]
    return payload


@dataclass(frozen=True)
class Target:
    """One figure family of the experiment matrix."""

    name: str
    description: str
    code_deps: tuple          # source prefixes hashed into the cache key
    default_seed: int
    points: callable          # (seed, quick) -> [instance, ...]
    run_point: callable       # RunSpec -> result dict
    rollup: callable          # ({instance: result}, seed, quick) -> payload
    headline: callable        # rollup payload -> {metric: value}
    gate: callable = None     # rollup payload -> [failure, ...] (or None)
    baseline: str = None      # committed BENCH file the rollup must match
    tolerances: tuple = ()    # ((dotted payload path, "min"|"max"), ...)
    render: callable = None   # rollup payload -> human summary (or None)

    def specs(self, seed: int = None, quick: bool = False) -> list:
        """This target's full point grid as RunSpecs (None = default seed)."""
        seed = self.default_seed if seed is None else seed
        return [RunSpec.make(self.name, instance, seed, quick=quick)
                for instance in self.points(seed, quick)]

    def tolerance_failures(self, baseline: dict, fresh: dict) -> list:
        """Tolerance rows on which `fresh` drifted from `baseline`.

        A ``min`` row fails when the fresh value drops below
        ``(1 - TOLERANCE)`` x the baseline value, a ``max`` row when it
        grows above ``(1 + TOLERANCE)`` x.  A row the baseline lacks is
        skipped; a row the fresh payload lacks fails.
        """
        failures = []
        for path, direction in self.tolerances:
            base_value = _lookup(baseline, path)
            if base_value is None:
                continue
            fresh_value = _lookup(fresh, path)
            if fresh_value is None:
                failures.append("%s: %s missing from fresh run"
                                % (self.name, path))
            elif direction == "min":
                floor = (1.0 - TOLERANCE) * base_value
                if fresh_value < floor:
                    failures.append(
                        "%s: %s %.6g < floor %.6g (baseline %.6g, -%.0f%%)"
                        % (self.name, path, fresh_value, floor, base_value,
                           100.0 * (1.0 - fresh_value / base_value)))
            else:
                ceiling = (1.0 + TOLERANCE) * base_value
                if fresh_value > ceiling:
                    failures.append(
                        "%s: %s %.6g > ceiling %.6g (baseline %.6g, +%.0f%%)"
                        % (self.name, path, fresh_value, ceiling, base_value,
                           100.0 * (fresh_value / base_value - 1.0)))
        return failures


def geomean(values) -> float:
    """Geometric mean of the positive entries of `values` (0.0 if none)."""
    values = [v for v in values if v and v > 0.0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- datapath: placement crossover + co-runner interference --------------------------

#: Message sizes of the crossover figure (Fig. 11/12 sweep).
CROSSOVER_SIZES = (4096, 16384, 65536)
QUICK_CROSSOVER_SIZES = (16384,)

#: Placements per ULP (SmartNIC cannot run DEFLATE).
CROSSOVER_PLACEMENTS = {
    "tls": ("cpu", "smartnic", "quickassist", "smartdimm"),
    "deflate": ("cpu", "quickassist", "smartdimm"),
}

CORUN_PLACEMENTS = ("cpu", "smartnic", "quickassist", "smartdimm")


def _datapath_points(seed: int, quick: bool) -> list:
    sizes = QUICK_CROSSOVER_SIZES if quick else CROSSOVER_SIZES
    points = ["crossover/%s/%s/%d" % (ulp, placement, size)
              for ulp in sorted(CROSSOVER_PLACEMENTS)
              for placement in CROSSOVER_PLACEMENTS[ulp]
              for size in sizes]
    points += ["corun/%s" % placement for placement in CORUN_PLACEMENTS]
    return points


def _server_spec(ulp: str, placement: str, size: int):
    from repro.sim.server import Placement, Ulp, WorkloadSpec

    return WorkloadSpec(ulp=Ulp(ulp), placement=Placement(placement),
                        message_bytes=size)


def _datapath_run_point(spec: RunSpec) -> dict:
    from repro.sim.server import ServerModel, corun

    kind, rest = spec.instance.split("/", 1)
    if kind == "crossover":
        ulp, placement, size = rest.split("/")
        metrics = ServerModel(_server_spec(ulp, placement, int(size))).solve()
        return {
            "rps": metrics.rps,
            "cycles_per_request": metrics.cycles_per_request,
            "membw_bytes_per_request": metrics.membw_bytes_per_request,
            "miss_probability": metrics.miss_probability,
            "bottleneck": metrics.bottleneck,
        }
    if kind == "corun":
        result = corun(_server_spec("tls", rest, 4096))
        return {
            "nginx_solo_rps": result.nginx_solo.rps,
            "nginx_corun_rps": result.nginx_corun.rps,
            "nginx_slowdown": result.nginx_slowdown,
            "corunner_slowdown": result.corunner_slowdown,
        }
    raise ValueError("unknown datapath instance %r" % spec.instance)


def _datapath_rollup(results: dict, seed: int, quick: bool) -> dict:
    sizes = QUICK_CROSSOVER_SIZES if quick else CROSSOVER_SIZES
    crossover = {}
    for ulp in sorted(CROSSOVER_PLACEMENTS):
        crossover[ulp] = {}
        for size in sizes:
            row = {placement: results["crossover/%s/%s/%d"
                                      % (ulp, placement, size)]
                   for placement in CROSSOVER_PLACEMENTS[ulp]}
            cpu_rps = row["cpu"]["rps"]
            for placement, point in row.items():
                point["speedup_vs_cpu"] = (
                    point["rps"] / cpu_rps if cpu_rps else None)
            crossover[ulp]["%d" % size] = row
    corun_rows = {placement: results["corun/%s" % placement]
                  for placement in CORUN_PLACEMENTS}
    smartdimm_speedups = [
        crossover[ulp][size_key]["smartdimm"]["speedup_vs_cpu"]
        for ulp in crossover for size_key in crossover[ulp]]
    summary = {
        "geomean_smartdimm_speedup_vs_cpu": geomean(smartdimm_speedups),
        "corun_best_isolation": min(
            corun_rows, key=lambda p: corun_rows[p]["nginx_slowdown"]),
        "corun_smartdimm_nginx_slowdown": (
            corun_rows["smartdimm"]["nginx_slowdown"]),
        "corun_smartdimm_mcf_slowdown": (
            corun_rows["smartdimm"]["corunner_slowdown"]),
    }
    return {"seed": seed, "quick": quick, "crossover": crossover,
            "corun": corun_rows, "summary": summary}


def _datapath_headline(payload: dict) -> dict:
    return {
        "smartdimm_speedup_vs_cpu": (
            payload["summary"]["geomean_smartdimm_speedup_vs_cpu"]),
        "corun_nginx_slowdown": (
            payload["summary"]["corun_smartdimm_nginx_slowdown"]),
    }


def _datapath_gate(payload: dict) -> list:
    failures = []
    summary = payload["summary"]
    if summary["geomean_smartdimm_speedup_vs_cpu"] <= 1.0:
        failures.append(
            "datapath: smartdimm geomean speedup vs cpu is %.2fx (<= 1x)"
            % summary["geomean_smartdimm_speedup_vs_cpu"])
    if summary["corun_smartdimm_nginx_slowdown"] >= (
            payload["corun"]["cpu"]["nginx_slowdown"]):
        failures.append(
            "datapath: smartdimm co-run slowdown %.1f%% is not below cpu's "
            "%.1f%%" % (100 * summary["corun_smartdimm_nginx_slowdown"],
                        100 * payload["corun"]["cpu"]["nginx_slowdown"]))
    return failures


# -- cluster: rack-scale DES ---------------------------------------------------------

CLUSTER_PLACEMENTS = ("smartdimm", "cpu", "quickassist")


def _cluster_points(seed: int, quick: bool) -> list:
    return (["closed/%s" % placement for placement in CLUSTER_PLACEMENTS]
            + ["open/spill"])


def _cluster_durations(quick: bool) -> tuple:
    return (0.008, 0.002) if quick else (0.02, 0.005)


def _cluster_run_point(spec: RunSpec) -> dict:
    from repro.cluster.scenario import ClusterScenario, run_scenario

    duration_s, warmup_s = _cluster_durations(spec.quick)
    kind, rest = spec.instance.split("/", 1)
    if kind == "closed":
        scenario = ClusterScenario(
            servers=2, channels=4, threads=8,
            ulp="tls", placement=rest, message_bytes=16384,
            mode="closed", connections=256,
            duration_s=duration_s, warmup_s=warmup_s, seed=spec.seed)
    elif spec.instance == "open/spill":
        scenario = ClusterScenario(
            servers=2, channels=4, threads=8,
            ulp="tls", placement="smartdimm", message_bytes=16384,
            mode="open", arrival="poisson", scheduler="adaptive-spill",
            duration_s=duration_s, warmup_s=warmup_s, seed=spec.seed)
    else:
        raise ValueError("unknown cluster instance %r" % spec.instance)
    return run_scenario(scenario).to_dict()


def _cluster_rollup(results: dict, seed: int, quick: bool) -> dict:
    closed = {placement: results["closed/%s" % placement]
              for placement in CLUSTER_PLACEMENTS}
    cpu_rps = closed["cpu"]["rps"]
    summary = {
        "smartdimm_rps": closed["smartdimm"]["rps"],
        "smartdimm_over_cpu_rps": (
            closed["smartdimm"]["rps"] / cpu_rps if cpu_rps else None),
        "smartdimm_p99_s": closed["smartdimm"]["latency_s"]["p99"],
        "spill_fraction": (
            results["open/spill"]["spilled"]
            / max(1, results["open/spill"]["submitted"])),
    }
    return {"seed": seed, "quick": quick, "closed": closed,
            "open_spill": results["open/spill"], "summary": summary}


def _cluster_headline(payload: dict) -> dict:
    return {"smartdimm_over_cpu_rps":
            payload["summary"]["smartdimm_over_cpu_rps"]}


def _cluster_gate(payload: dict) -> list:
    ratio = payload["summary"]["smartdimm_over_cpu_rps"] or 0.0
    if ratio <= 1.0:
        return ["cluster: smartdimm closed-loop rps is %.2fx cpu (<= 1x)"
                % ratio]
    return []


# -- faults: whole-stack chaos -------------------------------------------------------

#: Seed offsets of the chaos arms (spec.seed + offset drives each run).
CHAOS_ARMS = (0, 1, 2)
QUICK_CHAOS_ARMS = (0,)


def _faults_points(seed: int, quick: bool) -> list:
    arms = QUICK_CHAOS_ARMS if quick else CHAOS_ARMS
    return ["chaos/seed%d" % (seed + offset) for offset in arms]


def _faults_run_point(spec: RunSpec) -> dict:
    from repro.faults.chaos import run_chaos

    arm_seed = int(spec.instance.split("seed", 1)[1])
    return run_chaos(seed=arm_seed, ops=12 if spec.quick else 24)


def _faults_rollup(results: dict, seed: int, quick: bool) -> dict:
    arms = QUICK_CHAOS_ARMS if quick else CHAOS_ARMS
    runs = {"seed%d" % (seed + offset):
            results["chaos/seed%d" % (seed + offset)] for offset in arms}
    corruption = sum(run["micro"]["corruption_observed"]
                     for run in runs.values())
    availability = geomean(
        [run["cluster"]["chaos"]["availability"] for run in runs.values()])
    summary = {
        "corruption_observed_default_seed": (
            runs["seed%d" % seed]["micro"]["corruption_observed"]),
        "corruption_observed_total": corruption,
        "geomean_availability": availability,
        "seeds": sorted(runs),
    }
    return {"seed": seed, "quick": quick, "runs": runs, "summary": summary}


def _faults_headline(payload: dict) -> dict:
    return {
        "corruption_observed_default_seed": (
            payload["summary"]["corruption_observed_default_seed"]),
        "corruption_observed_total": (
            payload["summary"]["corruption_observed_total"]),
        "geomean_availability": payload["summary"]["geomean_availability"],
    }


def _faults_gate(payload: dict) -> list:
    # The zero-corruption contract (`python -m repro chaos`'s docstring)
    # is pinned at the default seed.  Extra arms are exploratory: they
    # report corruption_observed_total as telemetry but do not gate —
    # the matrix already surfaced one real finding this way (seed 9
    # escapes via a 2-bit source-page flip that deflate's output-only
    # device CRC cannot see; see the ROADMAP input-integrity item).
    corrupted = payload["summary"]["corruption_observed_default_seed"]
    if corrupted:
        return ["faults: %d corrupted outputs escaped recovery at the "
                "default chaos seed (must be 0)" % corrupted]
    return []


# -- the extension sweeps delegate to their modules ----------------------------------


def _sweep_target(name, description, deps, default_seed, headline,
                  tolerances):
    """Build a Target whose points, rollup and gate live in ``repro.<name>.sweep``.

    The module is imported on first use, so building the registry stays
    cheap for callers that only list targets.
    """
    import importlib

    def module():
        return importlib.import_module("repro.%s.sweep" % name)

    def gate(payload):
        return ["%s: %s" % (name, failure)
                for failure in module().gate_failures(payload)]

    return Target(
        name=name, description=description, code_deps=deps,
        default_seed=default_seed,
        points=lambda seed, quick: module().matrix_points(seed, quick),
        run_point=lambda spec: module().run_point(spec),
        rollup=lambda results, seed, quick: module().rollup(results, seed,
                                                            quick),
        headline=headline, gate=gate, baseline="BENCH_%s.json" % name,
        tolerances=tolerances,
        render=lambda payload: module().render(payload))


def _overload_headline(payload: dict) -> dict:
    summary = payload["sweep"]["summary"]
    return {"shed_2x_over_peak": summary["shed_2x_over_peak"],
            "capacity_rps": summary["capacity_rps"]}


def _replication_headline(payload: dict) -> dict:
    summary = payload["summary"]
    return {
        "smartdimm_over_cpu_goodput_fault": (
            summary["smartdimm_over_cpu_goodput_fault"]),
        "total_violations": summary["total_violations"],
    }


def _qos_headline(payload: dict) -> dict:
    summary = payload["fairness"]["summary"]
    return {"victim_goodput_ratio": summary["victim_goodput_ratio"],
            "aggressor_capped": summary["aggressor_capped"]}


def _ras_headline(payload: dict) -> dict:
    summary = payload["summary"]
    return {
        "grid_undetected": summary["grid_undetected"],
        "scrub_overhead_default": summary["scrub_overhead_default"],
    }


# -- the registry --------------------------------------------------------------------

TARGETS = {
    target.name: target for target in (
        Target(
            name="datapath",
            description="placement crossover (Figs. 11/12) + Table I "
                        "co-runner interference, analytic",
            code_deps=("repro.sim", "repro.cpu"),
            default_seed=1,
            points=_datapath_points,
            run_point=_datapath_run_point,
            rollup=_datapath_rollup,
            headline=_datapath_headline,
            gate=_datapath_gate,
        ),
        Target(
            name="cluster",
            description="rack-scale DES: closed-loop TLS per placement + "
                        "open-loop spill",
            code_deps=_FLEET_DEPS + _MICRO_DEPS,
            default_seed=1,
            points=_cluster_points,
            run_point=_cluster_run_point,
            rollup=_cluster_rollup,
            headline=_cluster_headline,
            gate=_cluster_gate,
        ),
        Target(
            name="faults",
            description="whole-stack chaos across seeds: zero escaped "
                        "corruption at the default seed",
            code_deps=_MICRO_DEPS + _FLEET_DEPS,
            default_seed=7,
            points=_faults_points,
            run_point=_faults_run_point,
            rollup=_faults_rollup,
            headline=_faults_headline,
            gate=_faults_gate,
        ),
        _sweep_target(
            "overload",
            "goodput-vs-offered-load: control on vs off, retry "
            "amplification, chaos composition",
            ("repro.overload",) + _FLEET_DEPS + _MICRO_DEPS, 11,
            _overload_headline,
            (("sweep.summary.capacity_rps", "min"),
             ("sweep.summary.peak_goodput_shed_rps", "min"),
             ("sweep.summary.goodput_2x_shed_rps", "min"))),
        _sweep_target(
            "replication",
            "replicated storage: protocol x placement under chaos",
            ("repro.replication",) + _FLEET_DEPS + _MICRO_DEPS, 7,
            _replication_headline,
            (("summary.smartdimm_over_cpu_goodput_fault", "min"),
             ("summary.abd_smartdimm_goodput_fault_rps", "min"),
             ("summary.chain_smartdimm_goodput_fault_rps", "min"))),
        _sweep_target(
            "qos",
            "multi-tenant fairness: noisy neighbor vs DRR isolation",
            ("repro.qos",) + _FLEET_DEPS + _MICRO_DEPS, 11,
            _qos_headline,
            (("fairness.summary.capacity_rps", "min"),
             ("fairness.summary.victim_goodput_ratio", "min"),
             ("fairness.summary.victim_goodput_ratio_chaos", "min"))),
        _sweep_target(
            "ras",
            "memory RAS + integrity: scrub x SDC grid, quarantine, fleet "
            "storms",
            ("repro.ras",) + _MICRO_DEPS + _FLEET_DEPS, 11,
            _ras_headline,
            (("summary.grid_detection_coverage", "min"),
             ("summary.grid_retired_rows", "min"),
             ("summary.fleet_detected_full_coverage", "min"),
             ("summary.scrub_overhead_default", "max"))),
    )
}


def target_names() -> list:
    """Every registered target name, sorted."""
    return sorted(TARGETS)


def get_target(name: str) -> Target:
    """Look a target up by name; KeyError lists the known names."""
    try:
        return TARGETS[name]
    except KeyError:
        raise KeyError("unknown matrix target %r (known: %s)"
                       % (name, ", ".join(target_names())))
