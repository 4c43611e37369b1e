"""Spans recorded from outside the program, for the traced run.

:class:`Tracer` replaces public methods at class level with wrappers that
time each call.  Spans nest on one stack, so a layer's *self* time is its
span's duration minus the spans it called.  Nothing is kept per span: each
layer accumulates its self time and its call count.

While a micro session runs, the wrappers also read ``mc.cycle`` (the
memory controller's simulated clock) on entry and exit, and credit each
span's self cycles to one entry of the simulated-cycle ledger.  The
ledger sums to the controller-cycle total of the traced ops by
construction, and ``run.py`` checks that it does, exactly.

:meth:`Tracer.uninstall` puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict

from workloads import HOST_CLOCK

# Ledger entries.  "copy" is the rdCAS stream plus the DSA, "flush_dst"
# the destination flush that self-recycles the scratchpad, "other" what
# no entry below claims (the op's own bookkeeping, spins, aborts).
LEDGER = ("stage", "flush_src", "register", "copy", "flush_dst",
          "readback", "alloc", "ras", "other")

#: (module, class or None for a module function, names, layer, ledger entry)
#: A ledger entry of None inherits the caller's entry.
MICRO_TARGETS = (
    ("repro.core.offload_api", "SmartDIMMSession",
     ("tls_encrypt", "tls_decrypt", "deflate_page", "inflate_page",
      "write", "read", "pump_ras"), "offload_api", "other"),
    ("repro.core.compcpy", "CompCpy", ("compcpy",), "compcpy", "flush_src"),
    ("repro.core.compcpy", "CompCpy", ("write_buffer",), "compcpy", "stage"),
    ("repro.core.compcpy", "CompCpy", ("read_buffer", "verify_destination"),
     "compcpy", "readback"),
    ("repro.core.compcpy", "CompCpy", ("force_recycle",), "compcpy",
     "flush_dst"),
    ("repro.core.driver", "SmartDIMMDriver", ("alloc_pages", "free_pages"),
     "driver", "alloc"),
    ("repro.core.driver", "SmartDIMMDriver",
     ("register_offload", "read_free_pages"), "driver", "register"),
    ("repro.core.driver", "SmartDIMMDriver", ("abort_offload",), "driver",
     None),
    ("repro.cache.llc", "LLC",
     ("load", "store", "load_range", "store_range", "copy_range",
      "flush_range", "flush_line"), "llc", None),
    ("repro.dram.memory_controller", "MemoryController",
     ("read_line", "read_lines", "write_line", "write_lines",
      "write_lines_now", "write_line_now", "fence"), "mc", None),
    ("repro.core.smartdimm", "SmartDIMM",
     ("handle_command", "read_line_run", "write_line_run"), "device", None),
    ("repro.core.translation_table", "TranslationTable",
     ("insert", "remove", "lookup"), "tt", None),
    ("repro.core.dsa.tls_dsa", "TLSDSA",
     ("process_line", "process_run", "finalize"), "dsa", None),
    ("repro.core.dsa.deflate_dsa", "DeflateDSA",
     ("process_line", "finalize"), "dsa", None),
    ("repro.core.dsa.deflate_dsa", "InflateDSA",
     ("process_line", "finalize"), "dsa", None),
    ("repro.core.dsa.deflate_dsa", "HardwareMatcher", ("tokenize",), "dsa",
     None),
    ("repro.ulp.gcm", "AESGCM", ("encrypt", "keystream", "tag", "ghash"),
     "ulp", None),
    ("repro.ulp.deflate", None, ("deflate_compress", "deflate_decompress"),
     "ulp", None),
    ("repro.dram.ras", "MemoryRas", ("advance",), "ras", "ras"),
)

MICRO_LAYERS = ("offload_api", "compcpy", "driver", "llc", "mc", "device",
                "tt", "dsa", "ulp", "ras")

FLEET_TARGETS = (
    ("repro.cluster.kernel", "Simulator", ("run",), "kernel.loop", None),
    ("repro.cluster.kernel", "Simulator", ("schedule", "timeout", "spawn"),
     "kernel.api", None),
    ("repro.cluster.kernel", "Event", ("succeed",), "kernel.api", None),
    ("repro.cluster.kernel", "Resource", ("acquire", "release"),
     "kernel.api", None),
    # Every scheduler class; only methods a class defines itself are
    # wrapped, so an inherited method is timed once, at its definition.
    ("repro.cluster.sched", "Scheduler", ("assign", "reroute_full"), "sched",
     None),
    ("repro.cluster.sched", "SCHEDULERS", ("assign", "reroute_full"), "sched",
     None),
    ("repro.cluster.fleet", "Fleet",
     ("submit", "has_room", "cpu_has_room", "dsa_has_room"), "fleet", None),
    ("repro.cluster.fleet", "ServerSim", ("backlog_seconds",), "fleet", None),
    ("repro.cluster.fleet", "ServiceProfile", ("route",), "pricing", None),
    ("repro.overload.policy", "OverloadPolicy",
     ("deadline_for", "expired", "observe", "admit", "brownout"), "overload",
     None),
    ("repro.overload.policy", "MultiTenantOverloadPolicy",
     ("deadline_for", "expired", "observe", "admit", "brownout"), "overload",
     None),
    ("repro.cluster.metrics", "LogHistogram", ("record", "record_many"),
     "metrics", None),
    ("repro.cluster.metrics", "Timeline", ("add",), "metrics", None),
    ("repro.cluster.metrics", "Counter", ("inc",), "metrics", None),
    ("repro.cluster.metrics", "Gauge", ("set",), "metrics", None),
    ("repro.cluster.loadgen", "RequestMix", ("sample_index", "sample"),
     "loadgen", None),
    ("repro.cluster.loadgen", "PoissonArrivals", ("next_gap",), "loadgen",
     None),
)

FLEET_LAYERS = ("kernel.loop", "kernel.api", "sched", "fleet", "pricing",
                "overload", "metrics", "loadgen")


class Tracer:
    """Per-layer self time, call counts and the simulated-cycle ledger."""

    def __init__(self, targets):
        self.targets = targets
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.ledger = dict.fromkeys(LEDGER, 0)
        #: The memory controller whose clock the ledger reads (None: the
        #: fleet, which has no controller clock).
        self.mc = None
        self._stack = []
        self._saved = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at class (or module) level."""
        for module_name, owner_name, names, layer, entry in self.targets:
            module = importlib.import_module(module_name)
            if owner_name is None:
                for name in names:
                    self._patch_function(module_name, getattr(module, name),
                                         layer, entry)
                continue
            owner = getattr(module, owner_name)
            classes = owner.values() if isinstance(owner, dict) else (owner,)
            for cls in classes:
                for name in names:
                    if name in cls.__dict__:
                        self._patch_attribute(cls, name, layer, entry)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch_attribute(self, cls, name, layer, entry) -> None:
        original = cls.__dict__[name]
        if isinstance(original, property):  # ServerSim.backlog_seconds
            wrapped = property(self._span(original.fget, name, layer, entry))
        else:
            wrapped = self._span(original, name, layer, entry)
        self._saved.append((cls, name, original))
        setattr(cls, name, wrapped)

    def _patch_function(self, module_name, function, layer, entry) -> None:
        # Modules that imported the function by name hold their own
        # reference; replace it wherever the package binds it.
        wrapped = self._span(function, function.__name__, layer, entry)
        prefix = module_name.split(".")[0] + "."
        for name, module in list(sys.modules.items()):
            if not name.startswith(prefix) or module is None:
                continue
            if getattr(module, function.__name__, None) is function:
                self._saved.append((module, function.__name__, function))
                setattr(module, function.__name__, wrapped)

    # -- the span -------------------------------------------------------------

    def _span(self, function, name, layer, entry):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        ledger = self.ledger
        clock = HOST_CLOCK
        tracer = self
        is_register = name == "register_offload"
        is_flush = name == "flush_range"
        is_ras = layer == "ras"

        @functools.wraps(function)
        def span(*args, **kwargs):
            mc = tracer.mc
            parent = stack[-1] if stack else None
            if parent is not None and parent[3] == "compcpy" \
                    and is_flush and parent[2] == "copy":
                parent[2] = "flush_dst"  # the flush after the copy
            # frame: [child seconds, child cycles, ledger entry, name]
            frame = [0.0, 0,
                     entry if entry is not None
                     else (parent[2] if parent is not None else "other"),
                     name]
            stack.append(frame)
            cycle0 = mc.cycle if mc is not None else 0
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cycles = (mc.cycle if mc is not None else 0) - cycle0
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                ledger[frame[2]] += cycles - frame[1]
                if parent is not None:
                    parent[0] += elapsed
                    parent[1] += cycles
            if parent is not None:
                if is_register and parent[3] == "compcpy":
                    parent[2] = "copy"  # registration done: the copy runs
                if is_ras:
                    # The session adds advance()'s cycles to the clock
                    # after the call returns, inside the caller's span.
                    ledger["ras"] += result
                    ledger[parent[2]] -= result
            return result

        return span
