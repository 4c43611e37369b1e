"""The benchmark's workloads: seeded inputs, one pass, per-op checks.

A *pass* replays a workload's fixed op list against fresh program state
(a new :class:`~repro.core.offload_api.SmartDIMMSession`, or a new
fleet run), so every pass of one seed must produce the same simulated
numbers, stat counters and outputs.  The caller issues each op only
after the previous one returned; only the op call itself is timed.
Checks against the software references run after the timer stops.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
import zlib
from dataclasses import astuple, dataclass, field

from repro.cluster.metrics import Counter, MetricsRegistry
from repro.cluster.scenario import run_scenario
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.dram.ras import RasConfig
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.overload.sweep import (
    fleet_capacity_rps,
    overload_scenario,
    sweep_durations,
)
from repro.ulp.gcm import AESGCM
from repro.workloads.corpus import CorpusKind, generate_corpus

#: Host time of an op: CPU time of the calling thread.  The simulator is
#: single-threaded and CPU-bound; CPU time leaves out the time the
#: operating system gave to other processes on a shared machine.
HOST_CLOCK = time.thread_time

#: Submitted requests per timed block of the fleet (about 10 ms of host
#: time at 2x capacity).
FLEET_BLOCK = 128

#: How often a pass times the speed probe's kernel (``speed.py``): after
#: every this many micro ops, or fleet blocks.  About 27 calls a pass.
PROBE_EVERY = 4

#: Controller clock period (ns) of the default ``TimingParams``; converts
#: between controller cycles and simulated seconds.
CYCLE_NS = 0.625


@dataclass
class Op:
    """One offload call: session method name, arguments, reference output."""

    method: str
    args: tuple  # None for an inflate: its input is the preceding stream
    expect: bytes
    payload_bytes: int


@dataclass
class PassResult:
    """What one replay of the op list measured and checked."""

    #: Host seconds of each op, in op-list order (the same in every pass).
    op_seconds: list = field(default_factory=list)
    op_cycles: list = field(default_factory=list)
    seconds: float = 0.0  # host seconds inside the pass's timed calls
    attempted: int = 0
    failed: int = 0
    payload_bytes: int = 0  # micro: application payload of the ops
    fingerprint: str = ""
    counts: dict = field(default_factory=dict)  # per-layer counters
    sim: dict = field(default_factory=dict)  # simulated end-to-end numbers
    errors: list = field(default_factory=list)  # first few failure notes


# -- micro workloads ----------------------------------------------------------


def _fault_specs(chaos: bool):
    """The fault sites of the chaos micro phase (``repro.faults.chaos``).

    ``chaos`` keeps its schedule, including the 2-bit ``dram.corrupt``
    flips.  Otherwise the flips are left out and the DSA wedges exactly
    once, at the 1000th line decision: the chaos schedule's four random
    wedges drain the ALERT_N watchdog once or twice depending on the op
    order, which moved simulated cycles by a third between seeds.
    """
    if chaos:
        wedge = FaultSpec(FaultSite.DSA_WEDGE, probability=0.01, max_fires=4)
    else:
        wedge = FaultSpec(FaultSite.DSA_WEDGE, skip=1000, max_fires=1)
    specs = [
        FaultSpec(FaultSite.DSA_ALERT_STORM, probability=0.002),
        wedge,
        FaultSpec(FaultSite.TT_INSERT, probability=0.002, max_fires=2),
        FaultSpec(FaultSite.SCRATCHPAD_EXHAUST, probability=0.002,
                  max_fires=2),
    ]
    if chaos:
        specs.append(FaultSpec(FaultSite.DRAM_CORRUPT, probability=0.001,
                               max_fires=3, params={"bits": 2}))
    return tuple(specs)


def _tls_ops(rng: random.Random, sizes, rounds: int) -> list:
    """Encrypt/decrypt pairs over HTML and JSON records of `sizes`."""
    key = rng.randbytes(16)
    gcm = AESGCM(key)
    records = [(size, kind) for _ in range(rounds) for size in sizes
               for kind in (CorpusKind.HTML, CorpusKind.JSON)]
    rng.shuffle(records)
    ops = []
    for size, kind in records:
        payload = generate_corpus(kind, size, seed=rng.randrange(1 << 30))
        nonce = rng.randbytes(12)
        aad = rng.randbytes(13)  # a TLS record header's worth
        ciphertext, tag = gcm.encrypt(nonce, payload, aad)
        ops.append(Op("tls_encrypt", (key, nonce, payload, aad),
                      ciphertext + tag, size))
        # Decrypt returns plaintext || the tag it computed over the input.
        ops.append(Op("tls_decrypt", (key, nonce, ciphertext, aad),
                      payload + tag, size))
    return ops


def _deflate_ops(rng: random.Random, pages_per_kind: int) -> list:
    """deflate_page then inflate_page of the produced stream, per page.

    The mix of corpus kinds is fixed: the share of incompressible pages
    sets how many inflates run, and the median op sits where inflates
    and the cheapest deflates meet.
    """
    pages = [generate_corpus(kind, 4096, seed=rng.randrange(1 << 30))
             for kind in CorpusKind for _ in range(pages_per_kind)]
    rng.shuffle(pages)
    ops = []
    for page in pages:
        ops.append(Op("deflate_page", (page,), page, len(page)))
        ops.append(Op("inflate_page", None, page, len(page)))
    return ops


def _counters(session, plan) -> tuple:
    """Every public stat counter of the session, as one flat tuple."""
    parts = [session.llc.stats, session.mc.stats, session.device.stats,
             session.compcpy.stats, session.resilience_stats,
             session.memory.ecc_stats]
    flat = []
    for stats in parts:
        flat.extend(astuple(stats))
    if session.ras is not None:
        flat.extend(astuple(session.ras.stats))
    if plan is not None:
        flat.extend(sorted(plan.fired.items()))
    return tuple(flat)


class MicroWorkload:
    """Offload calls on one SmartDIMM session, closed loop."""

    micro = True

    def __init__(self, ops: list, plan_seed: int = None, specs=(),
                 ras: bool = False):
        self.ops = ops
        self.plan_seed = plan_seed
        self.specs = specs
        self.ras = ras

    def new_session(self):
        """A fresh session (and its fault plan) for one pass."""
        plan = FaultPlan(seed=self.plan_seed, specs=self.specs) \
            if self.specs else None
        config = SessionConfig(fault_plan=plan,
                               ras=RasConfig() if self.ras else None)
        return SmartDIMMSession(config), plan

    def warm_up(self) -> None:
        """One op on a throwaway session (first-use caches, lazy imports)."""
        session, _ = self.new_session()
        op = self.ops[0]
        getattr(session, op.method)(*op.args)

    def run_pass(self, tracer=None, probe=None) -> PassResult:
        session, plan = self.new_session()
        if probe is not None:
            probe.start_pass()
        if tracer is not None:
            tracer.mc = session.mc
        mc = session.mc
        clock = HOST_CLOCK
        result = PassResult()
        digest = hashlib.sha256()
        stream = None
        deflates = overflows = deflate_in = deflate_out = 0
        for op in self.ops:
            if op.args is None:
                if stream is None:
                    continue  # the page overflowed: nothing to inflate
                args = (stream,)
            else:
                args = op.args
            call = getattr(session, op.method)
            cycle0 = mc.cycle
            start = clock()
            try:
                output = call(*args)
            except Exception as error:  # a failed op, counted below
                output = error
            elapsed = clock() - start
            cycles = mc.cycle - cycle0
            ok, note = _check(op, output)
            if op.method == "deflate_page":
                deflates += 1
                stream = output if ok and output is not None else None
                if ok and output is None:
                    overflows += 1
                elif ok:
                    deflate_in += len(op.expect)
                    deflate_out += len(output)
            result.op_seconds.append(elapsed)
            result.seconds += elapsed
            result.op_cycles.append(cycles)
            result.attempted += 1
            result.payload_bytes += op.payload_bytes
            if not ok:
                result.failed += 1
                if len(result.errors) < 3:
                    result.errors.append("%s op %d: %s" % (
                        op.method, result.attempted - 1, note))
            digest.update(repr((
                cycles, _output_digest(output), _counters(session, plan)
            )).encode())
            if probe is not None and result.attempted % PROBE_EVERY == 0:
                probe.tick()
        if tracer is not None:
            tracer.mc = None
        result.fingerprint = digest.hexdigest()
        result.counts = _micro_counts(session, plan, result.attempted)
        result.counts["deflate.overflow_frac"] = \
            overflows / deflates if deflates else 0.0
        result.counts["deflate.ratio"] = \
            deflate_in / deflate_out if deflate_out else 0.0
        result.counts["sim.alert_backoff_cycles"] = \
            session.mc.stats.alert_backoff_cycles / result.attempted
        total_cycles = sum(result.op_cycles)
        good = result.attempted - result.failed
        result.sim = {
            "cycles_per_kb": total_cycles / (result.payload_bytes / 1024.0),
            "goodput_rps": good / (total_cycles * CYCLE_NS * 1e-9),
            "p90_cycles": statistics.quantiles(
                result.op_cycles, n=10, method="inclusive")[8],
        }
        return result


def _output_digest(output) -> str:
    if isinstance(output, Exception):
        return type(output).__name__
    if output is None:
        return "None"
    return hashlib.sha256(output).hexdigest()


def _check(op: Op, output) -> tuple:
    """(ok, note): the op's output against the software reference."""
    if isinstance(output, Exception):
        return False, "raised %r" % output
    if op.method == "deflate_page":
        if output is None:
            return True, ""  # hardware overflow: the CPU falls back
        try:
            inflated = zlib.decompress(output, -15)
        except zlib.error as error:
            return False, "stream does not inflate: %s" % error
        if inflated != op.expect:
            return False, "stream inflates to other bytes"
        return True, ""
    if output != op.expect:
        return False, "output differs from the reference"
    return True, ""


def _micro_counts(session, plan, ops: int) -> dict:
    llc, mc, device = session.llc.stats, session.mc.stats, session.device.stats
    compcpy, resilience = session.compcpy.stats, session.resilience_stats
    ras = session.ras.stats if session.ras is not None else None
    row_accesses = mc.row_hits + mc.row_misses
    # Without a resilience guard there is no onload path: every op runs
    # on the DSA.
    offloaded = resilience.offloaded_ops if session.breaker is not None \
        else ops
    return {
        "llc.hit_rate": llc.hits / llc.accesses if llc.accesses else 0.0,
        "llc.writebacks_per_op": llc.writebacks / ops,
        "mc.reads_per_op": mc.reads / ops,
        "mc.writes_per_op": mc.writes / ops,
        "mc.row_hit_rate": mc.row_hits / row_accesses if row_accesses else 0.0,
        "mc.alerts_per_op": mc.alerts / ops,
        "device.dsa_lines_per_op": device.dsa_lines_processed / ops,
        "device.self_recycles_per_op": device.self_recycles / ops,
        "device.scratchpad_serves_per_op": device.scratchpad_serves / ops,
        "compcpy.registrations_retried_per_op":
            compcpy.registrations_retried / ops,
        "compcpy.force_recycles_per_op": compcpy.force_recycles / ops,
        "resilience.offload_frac": offloaded / ops,
        "resilience.hw_failures_per_op": resilience.hw_failures / ops,
        "faults.fired_per_op":
            (sum(plan.fired.values()) if plan is not None else 0) / ops,
        "ras.ce_corrected_per_op": (ras.ce_corrected if ras else 0) / ops,
        "ras.ue_poisoned_per_op": (ras.ue_poisoned if ras else 0) / ops,
    }


# -- the fleet ----------------------------------------------------------------


class _SubmitStamps(Counter):
    """The fleet's ``submitted`` counter, stamping host time per count.

    The fleet increments it once per admitted request while it measures,
    so the stamps time the simulator as it works through the requests.
    """

    __slots__ = ("stamps", "probe", "paused")

    def __init__(self, probe=None):
        super().__init__("submitted")
        self.stamps = []
        self.probe = probe
        #: Host time spent in the speed probe, left out of the stamps.
        self.paused = 0.0

    def inc(self, amount: int = 1) -> None:
        if self.probe is not None and \
                len(self.stamps) % (PROBE_EVERY * FLEET_BLOCK) == 0:
            start = HOST_CLOCK()
            self.probe.tick()
            self.paused += HOST_CLOCK() - start
        self.stamps.append(HOST_CLOCK() - self.paused)
        super().inc(amount)


class FleetWorkload:
    """The overload sweep's rack at 2x its fixed-point capacity, shed arm."""

    micro = False
    load_factor = 2.0

    def __init__(self, seed: int):
        duration_s, warmup_s = sweep_durations(quick=False)
        rate = self.load_factor * fleet_capacity_rps(seed)
        self.scenario = overload_scenario(rate, True, seed, duration_s,
                                          warmup_s)
        # A few hundred requests of the same rack: the warm-up op.
        self.warm_scenario = overload_scenario(rate, True, seed, 6e-4, 1e-4)

    def warm_up(self) -> None:
        run_scenario(self.warm_scenario)

    def run_pass(self, tracer=None, probe=None) -> PassResult:
        if probe is not None:
            probe.start_pass()
        submitted = _SubmitStamps(probe)
        registry = MetricsRegistry(counters={"submitted": submitted})
        start = HOST_CLOCK()
        report = run_scenario(self.scenario, registry=registry)
        elapsed = HOST_CLOCK() - start - submitted.paused
        # An op is one submitted request.  A single request is too short
        # to time (tens of microseconds), so each block of FLEET_BLOCK
        # consecutive submissions is timed and its requests are given
        # the block's mean host time.
        stamps = submitted.stamps
        op_seconds = [(stamps[i + FLEET_BLOCK] - stamps[i]) / FLEET_BLOCK
                      for i in range(0, len(stamps) - FLEET_BLOCK,
                                     FLEET_BLOCK)]
        scenario = self.scenario
        over = report.overload
        shed = sum(over["shed"].values())
        rejected = over["rejected_admission"] + over["rejected_backpressure"]
        offered = report.submitted + rejected
        result = PassResult(op_seconds=op_seconds, seconds=elapsed,
                            attempted=report.submitted)
        problems = _fleet_invariants(scenario, report, shed)
        if problems:
            result.failed = report.submitted
            result.errors = problems[:3]
        result.fingerprint = hashlib.sha256(report.to_json().encode()) \
            .hexdigest()
        window_s = scenario.duration_s - scenario.warmup_s
        result.sim = {
            "cycles_per_kb": (window_s * 1e9 / CYCLE_NS)
            / (report.bytes_out / 1024.0),
            "goodput_rps": over["goodput_rps"],
            "p90_cycles": report.latency["p90"] * 1e9 / CYCLE_NS,
        }
        result.counts = {
            "kernel.events_per_req":
                report.events_processed / report.submitted,
            "fleet.spill_frac": report.spilled / report.submitted,
            "overload.shed_frac": shed / offered,
            "overload.rejected_frac": rejected / offered,
            "fleet.completed_frac": report.completed / offered,
        }
        return result


def _fleet_invariants(scenario, report, shed: int) -> list:
    """Report invariants of one fleet run; returns the broken ones.

    The fleet counts ``submitted`` after admission, so rejected requests
    are not part of it.  Requests still in flight when measurement starts
    complete inside the window without having been submitted in it; they
    fit in the bounded stations, which caps that carry-over.
    """
    over = report.overload
    problems = []
    if over["deadline_met"] + over["deadline_missed"] != report.completed:
        problems.append("deadline met + missed != completed")
    if report.latency["count"] != report.completed:
        problems.append("latency samples != completed")
    stations = scenario.threads + scenario.cpu_queue_limit + \
        scenario.channels * (1 + scenario.dsa_queue_limit)
    carry_over = scenario.servers * stations
    if report.completed + shed > report.submitted + carry_over:
        problems.append("completed + shed %d > submitted %d + in-flight %d"
                        % (report.completed + shed, report.submitted,
                           carry_over))
    return problems


# -- registry -----------------------------------------------------------------


def build(name: str, seed: int):
    """The workload `name` with every input generated from `seed`."""
    rng = random.Random(seed)
    if name == "tls_records":
        return MicroWorkload(_tls_ops(rng, (4096, 16384, 65536), rounds=9))
    if name == "deflate_pages":
        return MicroWorkload(_deflate_ops(rng, pages_per_kind=12))
    if name in ("tls_faulted", "tls_recovery"):
        return MicroWorkload(_tls_ops(rng, (4096, 16384), rounds=13),
                             plan_seed=seed,
                             specs=_fault_specs(name == "tls_faulted"),
                             ras=True)
    if name == "fleet_overload":
        return FleetWorkload(seed)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("tls_records", "deflate_pages", "tls_faulted", "tls_recovery",
             "fleet_overload")
