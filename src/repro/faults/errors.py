"""Typed failure exceptions for the SmartDIMM stack.

The seed model raised bare ``RuntimeError`` when a retry budget drained,
which conflates "the DSA is wedged" with genuine model bugs and leaves the
caller nothing to recover on.  Every exception here subclasses
:class:`FaultError` *and* ``RuntimeError`` (so pre-existing ``except
RuntimeError`` call sites keep working) and carries the structured fields a
recovery layer needs: which site failed, at what address, after how many
retries, and how many backoff cycles were burned waiting.
"""

from __future__ import annotations


class FaultError(RuntimeError):
    """Base class for every typed failure raised by the SmartDIMM stack.

    A fault that cuts a range read short carries ``partial``: the bytes of
    the whole lines that read served before the faulting line.  Each layer
    on the way up (DRAM, buffer device, controller, LLC) settles its state
    for exactly those lines, as a per-line loop would have, and re-raises.
    """

    partial = b""


class RetryBudgetExceeded(FaultError):
    """A bounded retry loop exhausted its budget without succeeding.

    Attributes
    ----------
    site:
        Injection/retry site name (e.g. ``"rdCAS"``, ``"SPAD_WB"``,
        ``"compcpy.verify"``).
    address:
        Physical address involved, or ``None`` when not address-shaped.
    retries:
        How many retries were consumed before giving up.
    backoff_cycles:
        Total controller cycles spent in exponential backoff.
    """

    def __init__(self, message: str, site: str = "", address: int = None,
                 retries: int = 0, backoff_cycles: int = 0):
        super().__init__(message)
        self.site = site
        self.address = address
        self.retries = retries
        self.backoff_cycles = backoff_cycles


class DsaWedgedError(RetryBudgetExceeded):
    """ALERT_N (or SPAD_WB) retries exhausted: the DSA never finished.

    Raised by the memory controller when a destination line stays pending
    past the full exponential-backoff budget — the model's equivalent of a
    hardware watchdog timeout.  Recovery is the caller's job: abort the
    offload, reclaim its scratchpad pages, and onload the ULP to the CPU.
    """


class PoisonError(FaultError):
    """A read touched a line marked *poisoned* by the RAS engine.

    CE→UE escalation: when the memory RAS layer finds an uncorrectable
    error (two or more latent flips under SEC-DED) it marks the line
    poisoned instead of handing corrupted data downstream.  Every
    subsequent read of the line raises this until software rewrites it
    (a write repairs the cells and clears the poison).  Because it
    subclasses :class:`FaultError`, the session's resilience guard turns
    a poisoned CompCpy input into an aborted offload plus a CPU onload —
    the op never produces output from poisoned bytes.
    """

    def __init__(self, message: str, address: int = None, row: int = None):
        super().__init__(message)
        self.address = address
        self.row = row


class CorruptionDetectedError(FaultError):
    """An end-to-end payload checksum mismatched: data was corrupted.

    The detection point (not the corruption point) raises this; the
    `site` names the verification layer, `address` the buffer base.
    """

    def __init__(self, message: str, site: str = "", address: int = None,
                 expected: int = None, actual: int = None):
        super().__init__(message)
        self.site = site
        self.address = address
        self.expected = expected
        self.actual = actual


class CompletionLostError(FaultError):
    """A lookaside accelerator dropped the completion past the retry budget.

    Carries how many attempts were made and the wall time burned polling.
    """

    def __init__(self, message: str, attempts: int = 0,
                 wasted_seconds: float = 0.0):
        super().__init__(message)
        self.attempts = attempts
        self.wasted_seconds = wasted_seconds


class DeadlineExceededError(FaultError):
    """An operation's deadline passed before (or while) it was served.

    Raised by deadline-aware layers (`repro.overload`) when checking the
    remaining budget at a queueing station finds none left — shedding the
    work beats burning service time on a result nobody will wait for.
    `site` names the station; `now`/`deadline` are in that layer's clock
    (controller cycles for the micro stack, seconds elsewhere).
    """

    def __init__(self, message: str, site: str = "", now: float = 0.0,
                 deadline: float = 0.0):
        super().__init__(message)
        self.site = site
        self.now = now
        self.deadline = deadline


class DeviceBusyError(FaultError):
    """The device refused new work: its bounded offload queue is full.

    The backpressure signal of the micro stack — a
    :class:`~repro.core.smartdimm.SmartDIMM` with
    ``max_inflight_offloads`` set raises this from registration instead
    of queueing unboundedly.  It subclasses :class:`FaultError`, so the
    session's resilience guard treats it like any recoverable hardware
    condition and onloads the operation to the CPU.
    """

    def __init__(self, message: str, inflight: int = 0, limit: int = 0):
        super().__init__(message)
        self.inflight = inflight
        self.limit = limit
