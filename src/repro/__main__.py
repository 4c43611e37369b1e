"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — run the quickstart offloads and print device statistics.
* ``compare [sizes...]`` — the Figs. 11/12 placement comparison tables.
* ``report [-o FILE]`` — aggregate benchmarks/results into one document.
* ``power [utilisation]`` — the Sec. VII-D power/area estimate.
* ``cluster`` — rack-scale discrete-event simulation: RPS, p50/p99/p999
  tail latency, and per-channel DSA utilisation under a chosen scheduler.
* ``chaos`` — seed-driven fault injection across the whole stack (ALERT_N
  storms, wedged DSAs, DRAM flips, packet loss, lost completions, a node
  failure) with MTTR/availability/goodput accounting; byte-identical
  reports per seed.
* ``overload`` — goodput-vs-offered-load sweep (0.5x-3x capacity) with the
  overload-control stack (deadlines, CoDel admission, bounded queues,
  retry budgets) on vs off.
* ``qos`` — multi-tenant noisy-neighbor sweep: an aggressor tenant at 3x
  its fair share (plus chaos) against well-behaved latency/standard
  tenants under DRR weighted-fair stations, strict-priority classes, and
  per-tenant overload isolation.
* ``profile`` — cProfile one warmed TLS offload through the
  micro-simulation (the instrument behind the batched range path).
* ``replicate`` — replicated storage on the fleet: ABD quorum or chain
  replication with SmartDIMM-priced compress+encrypt hops, optional
  node_down/channel_wedge chaos, and a post-run consistency audit
  (exits non-zero on any violation); ``--sweep`` runs the placement
  comparison behind ``BENCH_replication.json``.
* ``ras`` — memory RAS + end-to-end integrity sweep: scrub-rate x
  SDC-rate grid (patrol scrub priced against goodput, CE->UE poison
  escalation, row retirement), per-lane DSA quarantine with probation
  re-admission, and fleet SDC storms.

* ``matrix`` — the whole experiment matrix: every target's grid of
  (instance, seed) points fanned across a process pool (``--jobs N``)
  with a content-addressed result cache; reassembles each target's
  serial payload byte-identically, rolls up cross-target statistics,
  and evaluates every acceptance gate.

The sweep commands (``overload``, ``qos``, ``ras``, ``replicate
--sweep``) run one matrix target serially through one handler; each
writes the payload its committed ``BENCH_*.json`` stores (``--json-out``)
and exits non-zero when the target's gate fails.  The gates, baselines and
tolerance rows live on the :class:`~repro.exp.targets.Target`, so
``python -m repro matrix --check`` applies exactly the same verdicts.
``--check`` (on ``overload``/``qos``/``ras``; ``matrix --check`` for
every target at once) additionally holds the payload to the committed
baseline: the target's tolerance rows first, naming any metric that
moved more than 20%, then a byte-for-byte comparison.  Missing or
corrupt baselines exit non-zero with a one-line error, no traceback.
"""

from __future__ import annotations

import argparse
import sys

#: Matrix targets that are also subcommands of their own.
SWEEP_COMMANDS = ("overload", "qos", "ras")


def write_json_report(path: str, payload: str, label: str) -> None:
    """Atomically write a report payload: tmp file + rename.

    Every ``--json-out`` goes through here so a crash (or a parallel
    matrix run racing a serial one) can never leave a torn half-written
    baseline on disk.
    """
    import os
    import tempfile

    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix="." + os.path.basename(target) + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    print("%s JSON written to %s" % (label, path))


def _load_baseline(path: str, name: str) -> dict:
    """Load a committed ``BENCH_*.json`` baseline or die with one line.

    Missing or corrupt baselines are operator errors, not bugs worth a
    traceback: raise :class:`SystemExit` with a single-line message so
    every subcommand fails the same way (non-zero, stderr, no stack).
    """
    import json

    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            "error: no committed %s baseline at %s "
            "(generate one with --json-out %s)" % (name, path, path))
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise SystemExit(
            "error: committed %s baseline %s is unreadable: %s"
            % (name, path, exc))


def _check_baseline(target, payload: dict, path: str, baseline: dict) -> int:
    """Hold a fresh target payload to its committed baseline.

    The target's tolerance rows are checked first, so a drift names the
    metric that moved; then both sides are canonicalised through the same
    JSON encoding and compared exactly, so any other drift (different
    seed, different mode, or a genuine behaviour change) fails too.
    """
    import json

    failures = target.tolerance_failures(baseline, payload)
    for failure in failures:
        print("FAIL: %s" % failure)
    canonical = json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    if canonical != json.dumps(payload, indent=2, sort_keys=True) + "\n":
        print("FAIL: fresh %s run differs from committed %s "
              "(was it generated with the same seed and mode?)"
              % (target.name, path))
        return 1
    if failures:
        return 1
    print("baseline check passed: fresh run matches %s" % path)
    return 0


def _cmd_demo(_args) -> int:
    import zlib

    from repro import SmartDIMMSession
    from repro.ulp.ctx_cache import cached_aesgcm
    from repro.workloads.corpus import CorpusKind, generate_corpus

    session = SmartDIMMSession()
    key, nonce = bytes(range(16)), bytes(12)
    payload = generate_corpus(CorpusKind.TEXT, 6000)
    out = session.tls_encrypt(key, nonce, payload)
    ct, tag = cached_aesgcm(key).encrypt(nonce, payload)
    assert out == ct + tag
    print("TLS offload: %d bytes encrypted, bit-exact vs software" % len(payload))
    page = generate_corpus(CorpusKind.HTML, 4096)
    stream = session.deflate_page(page)
    assert zlib.decompress(stream, -15) == page
    print("deflate offload: 4096 -> %d bytes, zlib-verified" % len(stream))
    back = session.inflate_page(stream)
    assert back == page
    print("inflate offload: round trip complete")
    stats = session.device.stats
    print(
        "device: %d offloads, %d DSA lines, %d self-recycles, %d S10 serves, "
        "%d S7 drops, %d ALERT_N"
        % (
            stats.offloads_finalized,
            stats.dsa_lines_processed,
            stats.self_recycles,
            stats.scratchpad_serves,
            stats.ignored_writes,
            stats.alerts,
        )
    )
    return 0


def _cmd_compare(args) -> int:
    from repro.sim.server import Placement, ServerModel, Ulp, WorkloadSpec

    sizes = [int(s) for s in args.sizes] or [4096, 16384]
    for message_bytes in sizes:
        for ulp, placements in (
            (Ulp.TLS, [Placement.CPU, Placement.SMARTNIC, Placement.QUICKASSIST,
                       Placement.SMARTDIMM]),
            (Ulp.DEFLATE, [Placement.CPU, Placement.QUICKASSIST, Placement.SMARTDIMM]),
        ):
            base = ServerModel(
                WorkloadSpec(ulp=ulp, placement=Placement.CPU, message_bytes=message_bytes)
            ).solve()
            print(f"\n{ulp.value.upper()} {message_bytes}B "
                  f"(CPU: {base.rps:,.0f} req/s)")
            for placement in placements:
                metrics = ServerModel(
                    WorkloadSpec(ulp=ulp, placement=placement, message_bytes=message_bytes)
                ).solve()
                print(
                    f"  {placement.value:<12} rps={metrics.rps / base.rps:5.2f}x "
                    f"cpu={metrics.cycles_per_request / base.cycles_per_request:5.2f}x "
                    f"bw={metrics.membw_bytes_per_request / base.membw_bytes_per_request:5.2f}x"
                )
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import build_report, coverage

    text = build_report()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        present, total = coverage()
        print("wrote %s (%d/%d sections)" % (args.output, present, total))
    else:
        print(text)
    return 0


def _cmd_power(args) -> int:
    from repro.analysis.power import PowerModel

    model = PowerModel()
    utilisation = args.utilisation
    report = model.report(utilisation)
    print("channel utilisation: %.0f%%" % (100 * utilisation))
    print("dynamic power: %.2f W (full activity: %.2f W)"
          % (report.dynamic_watts, model.full_activity_watts()))
    print("TLS DSA FPGA share: %.1f%%" % (100 * model.tls_utilisation_fraction()))
    for component, watts in sorted(report.breakdown.items(), key=lambda kv: -kv[1]):
        print("  %-18s %6.2f W" % (component, watts))
    return 0


def _cmd_cluster(args) -> int:
    import json

    from repro.cluster import ClusterScenario, crosscheck_tiers, run_scenario

    scenario = ClusterScenario(
        servers=args.servers,
        channels=args.channels,
        threads=args.threads,
        ulp=args.ulp,
        placement=args.placement,
        message_bytes=args.message_bytes,
        mode=args.mode,
        connections=args.connections,
        arrival=args.arrival,
        rate_rps=args.rate,
        scheduler=args.sched,
        dsa_bytes_per_sec=args.dsa_rate,
        duration_s=args.duration,
        warmup_s=args.warmup,
        seed=args.seed,
        trace_path=args.trace_out,
        tier=args.tier,
        epoch_s=args.epoch_s,
        arrival_stream=args.arrival_stream,
    )
    if args.crosscheck:
        verdict = crosscheck_tiers(scenario)
        print(json.dumps(verdict, indent=2, sort_keys=True))
        if not verdict["passed"]:
            print("FAIL: vector tier diverged from the event kernel")
            return 1
        print("crosscheck passed: tiers agree within tolerance")
        return 0
    report = run_scenario(scenario)
    print(report.table())
    if args.trace_out:
        print("chrome trace written to %s (open in about:tracing)" % args.trace_out)
    if args.json_out:
        write_json_report(args.json_out, report.to_json(), "metrics")
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.faults.chaos import render_chaos, run_chaos

    report = run_chaos(seed=args.seed, ops=args.ops)
    print(render_chaos(report))
    if args.json_out:
        write_json_report(args.json_out, json.dumps(report, sort_keys=True),
                          "chaos report")
    corrupted = report["micro"]["corruption_observed"]
    if corrupted:
        print("FAIL: %d corrupted outputs escaped recovery" % corrupted)
        return 1
    return 0


def _run_sweep(name: str, seed: int, quick: bool, json_out: str,
               check: str) -> int:
    """Run one sweep target serially: render, write, check, then gate.

    The gate always applies; with `check` the payload must also hold to
    the baseline at that path (loaded first, so a missing or corrupt
    baseline fails before the run).
    """
    from repro.exp import build_matrix, run_matrix
    from repro.exp.matrix import target_payload_json
    from repro.exp.targets import get_target

    target = get_target(name)
    baseline = _load_baseline(check, name) if check is not None else None
    result = run_matrix(build_matrix(only=[name], seed=seed, quick=quick))
    payload = result.payload["targets"][name]
    print(target.render(payload))
    if json_out:
        write_json_report(json_out, target_payload_json(result, name),
                          "%s report" % name)
    status = 0
    if baseline is not None:
        status = _check_baseline(target, payload, check, baseline)
    for failure in result.gate_failures:
        print("FAIL: %s" % failure)
    return 1 if result.gate_failures else status


def _cmd_sweep(args) -> int:
    return _run_sweep(args.command, args.seed, args.quick, args.json_out,
                      args.check)


def _cmd_replicate(args) -> int:
    from repro.cluster.chaos import FleetFaultInjector
    from repro.replication import sweep
    from repro.replication.scenario import run_replication

    if args.sweep:
        return _run_sweep("replication", args.seed, args.quick,
                          args.json_out, None)
    scenario = sweep.replication_scenario(
        args.placement, args.protocol, args.seed,
        value_bytes=args.value_bytes,
        duration_s=args.duration, warmup_s=args.warmup)
    scenario.replicas = args.replicas
    scenario.servers = max(scenario.servers, args.replicas)
    injector = (
        FleetFaultInjector(sweep.standard_windows(args.duration, args.warmup))
        if args.chaos else None)
    report = run_replication(scenario, fault_injector=injector)
    print(report.table())
    if args.json_out:
        write_json_report(args.json_out, report.to_json(),
                          "replication report")
    violations = report.consistency["violation_count"]
    if violations:
        print("FAIL: %d consistency violations" % violations)
        return 1
    return 0


def _cmd_matrix(args) -> int:
    from repro.exp import ResultCache, build_matrix, matrix_to_json, run_matrix
    from repro.exp.matrix import render
    from repro.exp.targets import TARGETS, target_names

    if args.list:
        for name in target_names():
            target = TARGETS[name]
            points = len(target.specs(quick=args.quick))
            print("%-12s %3d points  %s" % (name, points, target.description))
        return 0
    only = args.only or None
    if only:
        unknown = sorted(set(only) - set(TARGETS))
        if unknown:
            raise SystemExit(
                "error: unknown matrix target(s): %s (known: %s)"
                % (", ".join(unknown), ", ".join(target_names())))
    if args.check and args.quick:
        raise SystemExit(
            "error: --check compares full-mode baselines; drop --quick")
    if args.check and args.seed is not None:
        raise SystemExit(
            "error: --check requires each target's default seed; drop --seed")
    specs = build_matrix(only=only, quick=args.quick, seed=args.seed)
    baselines = {}
    if args.check:
        for name in sorted({spec.target for spec in specs}):
            if TARGETS[name].baseline is not None:
                baselines[name] = _load_baseline(TARGETS[name].baseline,
                                                 name)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    result = run_matrix(specs, jobs=args.jobs, cache=cache,
                        force=args.force, progress=print)
    print(render(result))
    if args.json_out:
        write_json_report(args.json_out, matrix_to_json(result),
                          "matrix report")
    status = 0
    for name, baseline in sorted(baselines.items()):
        target = TARGETS[name]
        status |= _check_baseline(target, result.payload["targets"][name],
                                  target.baseline, baseline)
    if result.gate_failures:
        for failure in result.gate_failures:
            print("FAIL: %s" % failure)
        return 1
    return status


def _cmd_profile(args) -> int:
    from repro.profiling import run_profile

    print(run_profile(size=args.size, top=args.top, sort=args.sort))
    return 0


def main(argv=None) -> int:
    from repro.exp.targets import get_target

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SmartDIMM reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run the quickstart offloads")
    compare = sub.add_parser("compare", help="placement comparison tables")
    compare.add_argument("sizes", nargs="*", help="message sizes in bytes")
    report = sub.add_parser("report", help="aggregate benchmark results")
    report.add_argument("-o", "--output", help="write to a file")
    power = sub.add_parser("power", help="power/area estimate")
    power.add_argument("utilisation", nargs="?", type=float, default=0.3)
    cluster = sub.add_parser(
        "cluster",
        help="rack-scale DES: tail latency + per-channel DSA utilisation",
    )
    cluster.add_argument("--servers", type=int, default=4)
    cluster.add_argument("--channels", type=int, default=6,
                         help="memory channels (DSA queues) per server")
    cluster.add_argument("--threads", type=int, default=10)
    cluster.add_argument("--connections", type=int, default=512)
    cluster.add_argument("--ulp", choices=["tls", "deflate", "none"],
                         default="tls")
    cluster.add_argument("--placement", default="smartdimm",
                         help="smartdimm | cpu | quickassist | smartnic | "
                              "smartdimm_direct")
    cluster.add_argument("--message-bytes", type=int, default=16384)
    cluster.add_argument("--mode", choices=["closed", "open"], default="closed")
    cluster.add_argument("--arrival", choices=["poisson", "bursty"],
                         default="poisson", help="open-loop arrival process")
    cluster.add_argument("--rate", type=float, default=None,
                         help="open-loop arrival rate in req/s")
    cluster.add_argument("--sched", default="adaptive-spill",
                         choices=["static", "least-loaded", "adaptive-spill"])
    cluster.add_argument("--dsa-rate", type=float, default=None,
                         help="per-channel DSA bytes/sec (default: channel bw)")
    cluster.add_argument("--duration", type=float, default=0.02,
                         help="simulated seconds (default 0.02)")
    cluster.add_argument("--warmup", type=float, default=0.005)
    cluster.add_argument("--seed", type=int, default=1)
    cluster.add_argument("--tier", choices=["event", "vector"],
                         default="event",
                         help="event = exact DES kernel; vector = "
                              "batched-epoch fleet tier (~20x faster at "
                              "fleet scale)")
    cluster.add_argument("--epoch-s", type=float, default=None,
                         help="vector-tier epoch length in seconds "
                              "(default: duration / 50)")
    cluster.add_argument("--arrival-stream", choices=["replay", "batch"],
                         default="replay",
                         help="vector-tier open-loop arrivals: replay the "
                              "event tier's RNG draw-for-draw, or batch-"
                              "generate the same process with bulk numpy")
    cluster.add_argument("--crosscheck", action="store_true",
                         help="run BOTH tiers and verify they agree; "
                              "prints the verdict, exits 1 on divergence")
    cluster.add_argument("--trace-out", default=None,
                         help="write a Chrome-trace JSON here")
    cluster.add_argument("--json-out", default=None,
                         help="write the metrics report JSON here")
    chaos = sub.add_parser(
        "chaos",
        help="whole-stack fault injection with recovery accounting",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="drives every fault decision (default 7)")
    chaos.add_argument("--ops", type=int, default=24,
                       help="micro-phase offload operations (default 24)")
    chaos.add_argument("--json-out", default=None,
                       help="write the machine-readable report here "
                            "(default: print only the summary)")
    for name in SWEEP_COMMANDS:
        target = get_target(name)
        command = sub.add_parser(name, help=target.description)
        command.add_argument("--seed", type=int, default=target.default_seed,
                             help="drives every simulated draw (default %d)"
                                  % target.default_seed)
        command.add_argument("--quick", action="store_true",
                             help="reduced grid and short windows "
                                  "(smoke-test speed)")
        command.add_argument("--json-out", default=None,
                             help="write the %s payload here" % target.baseline)
        command.add_argument("--check", nargs="?", const=target.baseline,
                             default=None, metavar="BASELINE",
                             help="hold the payload to a committed baseline: "
                                  "its tolerance rows, then byte-for-byte "
                                  "(default path %s)" % target.baseline)
    replicate = sub.add_parser(
        "replicate",
        help="replicated storage on the fleet: ABD/chain with SmartDIMM hops",
    )
    replicate.add_argument("--protocol", choices=["abd", "chain"],
                           default="abd")
    replicate.add_argument("--replicas", type=int, default=3)
    replicate.add_argument("--placement",
                           choices=["smartdimm", "cpu", "quickassist"],
                           default="smartdimm",
                           help="where every hop's compress+encrypt runs")
    replicate.add_argument("--value-bytes", type=int, default=16384)
    replicate.add_argument("--chaos", action="store_true",
                           help="inject the standard node_down + "
                                "channel_wedge windows")
    replicate.add_argument("--sweep", action="store_true",
                           help="run the full placement x protocol sweep "
                                "(the BENCH_replication.json payload)")
    replicate.add_argument("--quick", action="store_true",
                           help="shorter sweep window")
    replicate.add_argument("--duration", type=float, default=0.03,
                           help="simulated seconds (default 0.03)")
    replicate.add_argument("--warmup", type=float, default=0.005)
    replicate.add_argument("--seed", type=int, default=7)
    replicate.add_argument("--json-out", default=None,
                           help="write the report JSON here")
    matrix = sub.add_parser(
        "matrix",
        help="run the whole experiment matrix: every target's point grid "
             "through a process pool with a content-addressed result cache",
    )
    matrix.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = serial, "
                             "byte-identical output either way)")
    matrix.add_argument("--quick", action="store_true",
                        help="reduced grids and short windows per target")
    matrix.add_argument("--only", action="append", metavar="TARGET",
                        help="restrict to this target (repeatable); "
                             "see --list")
    matrix.add_argument("--seed", type=int, default=None,
                        help="override every target's default seed")
    matrix.add_argument("--force", action="store_true",
                        help="ignore cached results and re-run every point "
                             "(the cache is refreshed)")
    matrix.add_argument("--cache-dir", default=".exp-cache",
                        help="result-cache directory (default .exp-cache)")
    matrix.add_argument("--no-cache", action="store_true",
                        help="run without reading or writing the cache")
    matrix.add_argument("--json-out", default=None,
                        help="write the full matrix payload JSON here")
    matrix.add_argument("--check", action="store_true",
                        help="hold every target with a committed "
                             "BENCH_*.json baseline to its tolerance rows, "
                             "then byte-for-byte")
    matrix.add_argument("--list", action="store_true",
                        help="list targets and point counts, then exit")
    profile = sub.add_parser(
        "profile",
        help="cProfile one TLS offload through the micro-simulation",
    )
    profile.add_argument("--size", type=int, default=65536,
                         help="record bytes (default 65536)")
    profile.add_argument("--top", type=int, default=25,
                         help="rows to print (default 25)")
    profile.add_argument("--sort", default="cumulative",
                         help="pstats sort key (default cumulative)")
    args = parser.parse_args(argv)
    return {
        "demo": _cmd_demo,
        "compare": _cmd_compare,
        "report": _cmd_report,
        "power": _cmd_power,
        "cluster": _cmd_cluster,
        "chaos": _cmd_chaos,
        **{name: _cmd_sweep for name in SWEEP_COMMANDS},
        "replicate": _cmd_replicate,
        "matrix": _cmd_matrix,
        "profile": _cmd_profile,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
