"""The SmartDIMM simulator's benchmark.

Run from the root of a checkout::

    python3 simbench/run.py --workload tls_records --seed 1 --seconds 10 --trace 0

One process, one closed-loop caller: each op is issued after the previous
one returned.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` is a separate run with spans installed
on the program's public methods; it prints the per-layer metrics (host
self time per layer, call counts, stat counters, the simulated-cycle
ledger).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it gives the determinism
fingerprints, ``error_frac``, the machine's ``slowdown`` and the unscaled
host times (``speed.py``).  ``simbench/METRICS.md`` defines every metric
and which layer metric should move which end-to-end metric.

The program is measured only from outside: the benchmark times calls
into public functions, reads ``mc.cycle`` around them and reads the
public ``*Stats`` objects.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
STORE = os.path.join(ROOT, ".simbench", "fingerprints.json")

#: Cold set-ups per run, one before each of the first passes;
#: ``setup_s`` is their median.
SETUP_PROBES = 5
#: Share of the traced total the per-layer self times may leave
#: unattributed (the outermost wrappers' own cost).
SELF_TIME_TOLERANCE = 0.05
#: Share of a traced run spent on untraced passes (the overhead base).
UNTRACED_SHARE = 1.0 / 3.0
#: End-to-end host-time metrics, scaled by the machine's slowdown
#: (``speed.py``): a time is divided by it, a rate multiplied.
HOST_TIME = {"setup_s": 1, "op_ms_p50": 1, "op_ms_p90": 1, "ops_per_s": -1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("simbench: no program source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    spec = _load_spec()
    work = workloads.build(args.workload, args.seed)
    work.warm_up()
    probe = speed.SpeedProbe()
    problems = []
    if args.trace:
        metrics, fingerprints, passes = traced_run(work, args.seconds,
                                                   probe, problems)
        names = spec["per_layer"]
        raw = {}
    else:
        setups = []

        def set_up():
            if len(setups) < SETUP_PROBES:
                setups.append(_probe(args.workload, args.seed))

        passes = run_passes(work, args.seconds, probe, min_passes=2,
                            between=set_up)
        while len(setups) < SETUP_PROBES:  # a run too short for them all
            setups.append(_probe(args.workload, args.seed))
        _same_fingerprint(passes, problems)
        raw = end_to_end(passes, statistics.median(setups))
        metrics = dict(raw)
        for name, power in HOST_TIME.items():
            metrics[name] = raw[name] / probe.slowdown ** power
        fingerprints = {"fingerprint": passes[0].fingerprint}
        names = spec["end_to_end"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for note in passes[0].errors:
        print("failed: " + note, file=sys.stderr)
    _check_store(args.workload, args.seed, fingerprints, problems)
    if set(metrics) != set(names):
        problems.append("metrics differ from BENCHMARK.json: %s"
                        % sorted(set(metrics) ^ set(names)))
    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)
    correct = failed == 0 and not problems
    detail = dict(fingerprints, workload=args.workload, seed=args.seed,
                  error_frac=failed / attempted, slowdown=probe.slowdown,
                  unscaled={name: raw[name] for name in HOST_TIME
                            if name in raw})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": names[name]}
                    for name in names if name in metrics},
    }))
    return 0 if correct else 1


def _load_spec() -> dict:
    """Metric names and units, from the benchmark's own BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# -- set-up time --------------------------------------------------------------


def setup_probe(name: str, seed: int) -> float:
    """Seconds of one cold set-up: imports, session or ServiceProfile
    construction, and one warm-up op.  Generating the op list is input
    preparation and is not counted."""
    clock = time.perf_counter
    start = clock()
    import workloads  # imports the program

    imported = clock()
    work = workloads.build(name, seed)  # the fleet builds its profile here
    built = clock()
    work.warm_up()
    warmed = clock()
    construction = 0.0 if work.micro else built - imported
    return (imported - start) + construction + (warmed - built)


def _probe(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter (waited for; timeout bounded)."""
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(completed.stdout.strip().splitlines()[-1])


# -- timed passes -------------------------------------------------------------


def run_passes(work, seconds: float, probe, min_passes: int = 1,
               between=None) -> list:
    """Whole passes within `seconds` of wall time, at least `min_passes`.

    A pass starts only if one more of the slowest pass so far still fits,
    so a run ends close to `seconds` however slow the machine is.  The
    speed `probe` times its kernel in between the ops of every pass.
    `between`, if given, is called before each pass, inside the run's
    time; the set-up probes run there, so they too are spread over the
    run.
    """
    passes = []
    start = time.perf_counter()
    slowest = 0.0
    while len(passes) < min_passes or \
            time.perf_counter() - start + slowest <= seconds:
        if between is not None:
            between()
        began = time.perf_counter()
        gc.collect()  # every pass starts from a collected heap
        passes.append(work.run_pass(probe=probe))
        slowest = max(slowest, time.perf_counter() - began)
    return passes


def end_to_end(passes, setup_s: float) -> dict:
    """The end-to-end metrics of a run's passes.

    Every pass replays the same ops in the same order, so an op's host
    time is taken as its fastest replay: the slower replays differ by
    what other processes on the machine did, not by what the simulator
    did.
    """
    ops = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    fastest = [min(replays) for replays in zip(*(p.op_seconds
                                                 for p in passes))]
    op_ms = [s * 1e3 for s in fastest]
    sim = passes[0].sim
    return {
        "setup_s": setup_s,
        "ops_per_s": len(fastest) / sum(fastest),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10,
                                          method="inclusive")[8],
        "sim_cycles_per_kb": sim["cycles_per_kb"],
        "sim_goodput_rps": sim["goodput_rps"],
        "sim_p90_cycles": sim["p90_cycles"],
        "ok_frac": (ops - failed) / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


# -- the traced run -----------------------------------------------------------


def traced_run(work, seconds: float, probe, problems: list) -> tuple:
    """Untraced passes, then traced ones.

    Returns the per-layer metrics, the fingerprints and every pass.
    """
    import spans

    untraced = run_passes(work, seconds * UNTRACED_SHARE, probe)
    tracer = spans.Tracer(spans.MICRO_TARGETS if work.micro
                          else spans.FLEET_TARGETS)
    tracer.install()
    traced, ledgers = [], []
    start = time.perf_counter()
    slowest = 0.0
    try:
        # Like run_passes: a traced pass starts only if it still fits.
        while not traced or time.perf_counter() - start + slowest \
                <= seconds * (1 - UNTRACED_SHARE):
            began = time.perf_counter()
            before = dict(tracer.ledger)
            gc.collect()
            traced.append(work.run_pass(tracer))
            ledgers.append({k: tracer.ledger[k] - before[k]
                            for k in spans.LEDGER})
            slowest = max(slowest, time.perf_counter() - began)
    finally:
        tracer.uninstall()
    passes = untraced + traced
    _same_fingerprint(passes, problems)
    for ledger, result in zip(ledgers, traced):
        if sum(ledger.values()) != sum(result.op_cycles):
            problems.append("ledger sums to %d cycles, ops took %d"
                            % (sum(ledger.values()), sum(result.op_cycles)))
    ledger_digest = hashlib.sha256(
        json.dumps(ledgers[0], sort_keys=True).encode()).hexdigest()
    if any(ledger != ledgers[0] for ledger in ledgers):
        problems.append("ledger differs between traced passes")

    ops = sum(p.attempted for p in traced)
    traced_s = sum(p.seconds for p in traced)
    layers = spans.MICRO_LAYERS if work.micro else spans.FLEET_LAYERS
    attributed_s = sum(tracer.self_s[layer] for layer in layers)
    unattributed = (traced_s - attributed_s) / traced_s
    if abs(unattributed) > SELF_TIME_TOLERANCE:
        problems.append("layer self times leave %.1f%% of the traced total "
                        "unattributed (tolerance %.0f%%)"
                        % (100 * unattributed, 100 * SELF_TIME_TOLERANCE))
    # Micro layers report per op, fleet layers per request (ms per 1k),
    # scaled by the machine's slowdown like the end-to-end host times.
    # The speed probe runs in the untraced passes only, so that no span
    # holds its kernel.
    ms_scale = (1e3 if work.micro else 1e6) / ops / probe.slowdown
    metrics = {}
    for layer in spans.MICRO_LAYERS + spans.FLEET_LAYERS:
        sep = "_" if "." in layer else "."
        metrics[layer + sep + "self_ms"] = tracer.self_s[layer] * ms_scale
        metrics[layer + sep + "calls_per_op"] = tracer.calls[layer] / ops
    counts = traced[0].counts
    for name in _COUNTS:
        metrics[name] = counts.get(name, 0.0)
    cycles = sum(sum(ledger.values()) for ledger in ledgers)
    for entry in spans.LEDGER:
        metrics["sim.%s_cycles" % entry] = \
            sum(ledger[entry] for ledger in ledgers) / ops
    metrics["sim.total_cycles"] = cycles / ops
    untraced_per_op = sum(p.seconds for p in untraced) / \
        sum(p.attempted for p in untraced)
    metrics["trace.overhead_x"] = (traced_s / ops) / untraced_per_op
    metrics["trace.unattributed_frac"] = unattributed
    fingerprints = {"fingerprint": passes[0].fingerprint}
    if work.micro:
        fingerprints["ledger_fingerprint"] = ledger_digest
    return metrics, fingerprints, passes


#: Counter metrics of the traced run; 0 where a workload has no such layer.
_COUNTS = (
    "llc.hit_rate", "llc.writebacks_per_op", "mc.reads_per_op",
    "mc.writes_per_op", "mc.row_hit_rate", "mc.alerts_per_op",
    "device.dsa_lines_per_op", "device.self_recycles_per_op",
    "device.scratchpad_serves_per_op", "compcpy.registrations_retried_per_op",
    "compcpy.force_recycles_per_op", "deflate.overflow_frac", "deflate.ratio",
    "resilience.offload_frac", "resilience.hw_failures_per_op",
    "faults.fired_per_op", "ras.ce_corrected_per_op", "ras.ue_poisoned_per_op",
    "sim.alert_backoff_cycles", "kernel.events_per_req", "fleet.spill_frac",
    "overload.shed_frac", "overload.rejected_frac", "fleet.completed_frac",
)


# -- determinism --------------------------------------------------------------


def _same_fingerprint(passes, problems: list) -> None:
    prints = {p.fingerprint for p in passes}
    if len(prints) != 1:
        problems.append("%d different fingerprints across %d passes of one "
                        "seed" % (len(prints), len(passes)))


def _source_digest() -> str:
    """Digest of the program's and the benchmark's source, so stored
    fingerprints from other code are never compared."""
    digest = hashlib.sha256()
    for tree in (os.path.join(SRC, "repro"), BENCH_DIR):
        for directory, subdirs, files in os.walk(tree):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def _check_store(name: str, seed: int, fingerprints: dict,
                 problems: list) -> None:
    """Compare with earlier runs of this seed on this code; record ours."""
    try:
        with open(STORE) as handle:
            store = json.load(handle)
    except (OSError, ValueError):
        store = {}
    key = "%s:%d:%s" % (name, seed, _source_digest())
    known = store.setdefault(key, {})
    for label, value in fingerprints.items():
        if known.setdefault(label, value) != value:
            problems.append("%s differs from an earlier run of seed %d"
                            % (label, seed))
    os.makedirs(os.path.dirname(STORE), exist_ok=True)
    temporary = STORE + ".tmp"
    with open(temporary, "w") as handle:
        json.dump(store, handle, sort_keys=True, indent=1)
    os.replace(temporary, STORE)


if __name__ == "__main__":
    sys.exit(main())
