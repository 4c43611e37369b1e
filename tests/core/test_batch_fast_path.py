"""The production datapath vs the per-line reference oracle.

Production runs one datapath: LLC range ops, the batched controller and
the device's ``*_line_run`` methods, with or without a fault plan.  It must
be *bit-identical* to the per-line loop in ``tests/reference_path.py``:
same output bytes, controller stats, cycle, write queue and rdCAS/wrCAS
trace, same LLC stats and contents, same device, scratchpad, DRAM, RAS and
fault-plan state.  Every twin test here drives a production session and an
oracle session through the same workload and diffs that complete state,
including when an injected fault cuts a range op short.
"""

from unittest import mock

import pytest

from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.core.dsa.base import UlpKind
from repro.core.dsa.tls_dsa import TLSOffloadContext
from repro.core.smartdimm import SmartDIMM, SmartDIMMConfig
from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.dram.ras import RasConfig
from repro.faults.errors import DsaWedgedError, PoisonError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.ulp.ctx_cache import cached_aesgcm
from tests.reference_path import decode_reference, reference_session

KEY = bytes(range(16))
NONCE = bytes(range(12))
AAD = b"\x17\x03\x03\x12\x34"


def _payload(size: int) -> bytes:
    return bytes((13 * i + 7) & 0xFF for i in range(size))


def _twins(faults=(), **config):
    """(oracle, production) sessions; each gets its own plan over `faults`."""
    def build(make_session):
        if faults:
            config["fault_plan"] = FaultPlan(seed=7, specs=[
                FaultSpec(site, **spec) for site, spec in faults])
        return make_session(SessionConfig(trace=True, **config))
    return build(reference_session), build(SmartDIMMSession)


def _state(session) -> dict:
    """Everything a datapath can change, as comparable values."""
    plan = session.config.fault_plan
    ras = session.ras
    return {
        "mc.stats": session.mc.stats,
        "mc.cycle": session.mc.cycle,
        "mc.trace": session.mc.trace,
        "mc.write_queue": list(session.mc._write_queue.items()),
        "llc.stats": session.llc.stats,
        "llc.clock": session.llc._clock,
        "llc.lines": [dict(lines) for lines in session.llc._sets],
        "device.stats": session.device.stats,
        "scratchpad": (session.device.scratchpad.self_recycled_lines,
                       session.device.scratchpad.force_recycled_lines),
        "memory": (session.memory._pages, session.memory.ecc_stats),
        "compcpy.stats": session.compcpy.stats,
        "resilience": session.resilience_stats,
        "plan": plan.report() if plan is not None else None,
        "ras": ((ras.report(), ras.latent, ras.poisoned)
                if ras is not None else None),
    }


def _assert_state_identical(ref, fast):
    ref_state, fast_state = _state(ref), _state(fast)
    for key in ref_state:
        assert fast_state[key] == ref_state[key], key


@pytest.mark.parametrize("size", [PAGE_SIZE, 3 * PAGE_SIZE, 16 * PAGE_SIZE])
def test_tls_unordered_copy_is_bit_identical(size):
    """The bulk copy_range/read_lines/write_lines pipeline reproduces the
    reference TLS offload exactly — output, stats, cycle, and trace."""
    ref, fast = _twins()
    payload = _payload(size)
    out_ref = ref.tls_encrypt(KEY, NONCE, payload, AAD)
    out_fast = fast.tls_encrypt(KEY, NONCE, payload, AAD)
    expected = cached_aesgcm(KEY).encrypt(NONCE, payload, AAD)
    assert out_fast == out_ref == expected[0] + expected[1]
    _assert_state_identical(ref, fast)


def test_tls_decrypt_is_bit_identical():
    payload = _payload(2 * PAGE_SIZE)
    ciphertext, tag = cached_aesgcm(KEY).encrypt(NONCE, payload, AAD)
    ref, fast = _twins()
    out_ref = ref.tls_decrypt(KEY, NONCE, ciphertext, AAD)
    out_fast = fast.tls_decrypt(KEY, NONCE, ciphertext, AAD)
    assert out_fast == out_ref == payload + tag
    _assert_state_identical(ref, fast)


def test_deflate_ordered_copy_is_bit_identical():
    """The ordered (fenced, per-line) copy also matches across paths —
    flushes and buffer reads still use the range ops."""
    data = (b"smartdimm deflates html " * 200)[:PAGE_SIZE]
    ref, fast = _twins()
    out_ref = ref.deflate_page(data)
    out_fast = fast.deflate_page(data)
    assert out_fast == out_ref
    _assert_state_identical(ref, fast)


def test_multiple_records_per_session_stay_identical():
    """State equality must hold across back-to-back offloads, where the LLC
    and write queue start each record warm, not empty."""
    ref, fast = _twins()
    for size in (PAGE_SIZE, 4 * PAGE_SIZE, PAGE_SIZE):
        payload = _payload(size)
        assert fast.tls_encrypt(KEY, NONCE, payload, AAD) == ref.tls_encrypt(
            KEY, NONCE, payload, AAD
        )
    _assert_state_identical(ref, fast)


def _compcpy_offload(session, size, flush_destination):
    sbuf = session.driver.alloc_pages(size // PAGE_SIZE)
    dbuf = session.driver.alloc_pages(size // PAGE_SIZE + 1)
    session.compcpy.write_buffer(sbuf, _payload(size))
    # Leave room for the 16-byte tag inside the registered pages.
    context = TLSOffloadContext(key=KEY, nonce=NONCE, record_length=size - 16, aad=AAD)
    offload = session.compcpy.compcpy(
        dbuf, sbuf, size, context, UlpKind.TLS_ENCRYPT,
        flush_destination=flush_destination,
    )
    return sbuf, dbuf, offload


def test_deferred_flush_and_force_recycle_are_bit_identical():
    """flush_destination=False leaves dirty plaintext in the LLC; the
    explicit Force-Recycle (Algorithm 1) must behave identically on both
    paths, including its flush_range and per-line recycle traffic."""
    size = 2 * PAGE_SIZE
    ref, fast = _twins()
    for session in (ref, fast):
        _compcpy_offload(session, size, flush_destination=False)
        session.compcpy.force_recycle(size // PAGE_SIZE)
    assert fast.compcpy.stats == ref.compcpy.stats
    assert fast.compcpy.stats.force_recycles == 1
    _assert_state_identical(ref, fast)


def test_explicit_flush_after_deferred_use_is_bit_identical():
    size = 3 * PAGE_SIZE
    ref, fast = _twins()
    outputs = []
    for session in (ref, fast):
        sbuf, dbuf, _ = _compcpy_offload(session, size, flush_destination=False)
        session.llc.flush_range(dbuf, size)
        session.mc.fence()
        outputs.append(session.compcpy.read_buffer(dbuf, size))
    assert outputs[0] == outputs[1]
    _assert_state_identical(ref, fast)


# -- faulted twins: a fault plan runs the same datapath ------------------------


def _tls_and_deflate(session):
    """An encrypt, a decrypt and a deflate; returns their outputs."""
    payload = _payload(2 * PAGE_SIZE - 16)
    ciphertext, tag = cached_aesgcm(KEY).encrypt(NONCE, payload, AAD)
    return [
        session.tls_encrypt(KEY, NONCE, payload, AAD),
        session.tls_decrypt(KEY, NONCE, ciphertext, AAD),
        session.deflate_page((b"smartdimm deflates html " * 200)[:PAGE_SIZE]),
    ]


@pytest.mark.parametrize("faults", [
    [(FaultSite.DSA_ALERT_STORM, {"probability": 0.1})],
    [(FaultSite.DRAM_CORRUPT, {"probability": 0.05, "params": {"bits": 1}})],
    [(FaultSite.DRAM_CORRUPT, {"probability": 0.05, "params": {"bits": 2}})],
    [(FaultSite.DSA_SDC, {"probability": 0.05})],
], ids=["alert_storm", "corrupt_1bit", "corrupt_2bit", "sdc"])
def test_faulted_sessions_match_the_reference(faults):
    """Storms, in-flight DRAM flips and DSA lane corruption fire at the
    same lines in the same order on both paths, with the same effects."""
    ref, fast = _twins(faults)
    outputs = [_tls_and_deflate(ref), _tls_and_deflate(fast)]
    assert outputs[1] == outputs[0]
    assert sum(ref.config.fault_plan.fired.values()) > 0
    _assert_state_identical(ref, fast)


def _flip_source_line_on_register(session, line: int) -> None:
    """Deposit a 2-flip latent error on source line `line` of the next
    offload, after CompCpy's source flush has rewritten the cells."""
    register = session.driver.register_offload

    def register_then_flip(kind, context, sbuf, dbuf, pages):
        session.ras.inject_flips(sbuf + line * CACHELINE_SIZE, bits=2)
        return register(kind, context, sbuf, dbuf, pages)

    session.driver.register_offload = register_then_flip


@pytest.mark.parametrize("line", [0, 5, 37, 70])
def test_poisoned_source_line_cuts_the_copy_like_the_reference(line):
    """A poisoned source line stops copy_range mid-range: the lines before
    it are filled, copied and fed to the DSA, the faulting load is charged,
    and the session onloads."""
    # The never-firing plan arms the resilience guard (abort + onload).
    ref, fast = _twins([(FaultSite.DSA_SDC, {"probability": 0.0})],
                       ras=RasConfig())
    payload = _payload(2 * PAGE_SIZE - 16)
    expected = b"".join(cached_aesgcm(KEY).encrypt(NONCE, payload, AAD))
    for session in (ref, fast):
        _flip_source_line_on_register(session, line)
        assert session.tls_encrypt(KEY, NONCE, payload, AAD) == expected
        assert session.ras.stats.ue_poisoned == 1
        assert session.resilience_stats.hw_failures == 1
    _assert_state_identical(ref, fast)


@pytest.mark.parametrize("line", [0, 9, 100])
def test_poisoned_plain_line_cuts_load_range_like_the_reference(line):
    """An application read of a poisoned buffer line stops load_range at
    that line on both paths, with the lines before it resident."""
    ref, fast = _twins(ras=RasConfig())
    for session in (ref, fast):
        base = session.alloc(4 * PAGE_SIZE)
        session.write(base, _payload(4 * PAGE_SIZE))
        session.llc.flush_range(base, 4 * PAGE_SIZE)
        session.mc.fence()
        session.ras.inject_flips(base + line * CACHELINE_SIZE, bits=2)
        with pytest.raises(PoisonError):
            session.read(base, 4 * PAGE_SIZE)
    _assert_state_identical(ref, fast)


@pytest.mark.parametrize("line", [0, 3, 20])
def test_poisoned_recycled_destination_line_cuts_the_readback(line):
    """A recycled destination line (served from DRAM while its page is
    still registered) that is poisoned stops the device's burst there."""
    ref, fast = _twins(ras=RasConfig())
    for session in (ref, fast):
        _, dbuf, _ = _compcpy_offload(session, 2 * PAGE_SIZE, flush_destination=False)
        session.llc.flush_range(dbuf, PAGE_SIZE // 2)  # recycle lines 0-31
        session.mc.fence()
        session.ras.inject_flips(dbuf + line * CACHELINE_SIZE, bits=2)
        with pytest.raises(PoisonError):
            session.read(dbuf, 2 * PAGE_SIZE)
        assert session.device.stats.self_recycles >= PAGE_SIZE // 2 // CACHELINE_SIZE
    _assert_state_identical(ref, fast)


def test_wedge_during_readback_matches_the_reference():
    """A wedged destination line trips DsaWedgedError inside the read-back
    load_range: the lines before it are filled, the retry budget drains
    identically, and the session aborts and onloads."""
    ref, fast = _twins([(FaultSite.DSA_WEDGE, {"skip": 40, "max_fires": 1})])
    payload = _payload(2 * PAGE_SIZE - 16)
    expected = b"".join(cached_aesgcm(KEY).encrypt(NONCE, payload, AAD))
    for session in (ref, fast):
        assert session.tls_encrypt(KEY, NONCE, payload, AAD) == expected
        assert session.mc.stats.wedges == 1
        assert session.device.stats.offloads_aborted == 1
    _assert_state_identical(ref, fast)


def test_fault_plan_keeps_the_range_path():
    """An attached FaultPlan must not send the device back to per-line
    commands: a TLS offload still reaches the burst methods."""
    session = SmartDIMMSession(SessionConfig(fault_plan=FaultPlan(seed=1)))
    with mock.patch.object(SmartDIMM, "read_line_run", autospec=True,
                           side_effect=SmartDIMM.read_line_run) as reads, \
            mock.patch.object(SmartDIMM, "write_line_run", autospec=True,
                              side_effect=SmartDIMM.write_line_run) as writes:
        session.tls_encrypt(KEY, NONCE, _payload(2 * PAGE_SIZE), AAD)
    assert reads.call_count >= 1
    assert writes.call_count >= 1


def test_wedge_error_fields_match_on_burst_and_single_line_reads():
    """The ALERT_N retry loop is one loop: a wedge found by a burst read
    and by a single-line read reports the same retries and backoff."""
    errors = []
    for read in ("burst", "line"):
        session = SmartDIMMSession(SessionConfig(fault_plan=FaultPlan(
            seed=1, specs=[FaultSpec(FaultSite.DSA_WEDGE, skip=3, max_fires=1)])))
        sbuf, dbuf, _ = _compcpy_offload(session, PAGE_SIZE, flush_destination=True)
        with pytest.raises(DsaWedgedError) as info:
            if read == "burst":
                session.compcpy.read_buffer(dbuf, PAGE_SIZE)
            else:
                session.mc.read_line(dbuf + 3 * CACHELINE_SIZE)
        errors.append(info.value)
    timing = session.mc.timing
    for error in errors:
        assert error.address == dbuf + 3 * CACHELINE_SIZE
        assert error.retries == timing.max_alert_retries == 64
        # 64 cycles x (1 + 2 + ... + 32, then 58 rounds capped at 64).
        assert error.backoff_cycles == 241600


# -- satellite regressions ------------------------------------------------------


def test_free_page_accounting_exact_fit():
    """S1: a copy needing exactly the scratchpad's capacity must register
    without a Force-Recycle — the guard and the decrement both use the
    `pages` bound, not an off-by-one."""
    pages = 4
    config = SmartDIMMConfig(scratchpad_pages=pages)
    session = SmartDIMMSession(SessionConfig(smartdimm=config))
    # len(plaintext) + 16-byte tag exactly fills `pages` registered pages.
    payload = _payload(pages * PAGE_SIZE - 16)
    out = session.tls_encrypt(KEY, NONCE, payload, AAD)
    assert session.compcpy.stats.force_recycles == 0
    assert session.compcpy.stats.free_page_refreshes == 1
    expected = cached_aesgcm(KEY).encrypt(NONCE, payload, AAD)
    assert out == expected[0] + expected[1]


def test_scratchpad_writeback_reports_completion():
    """S2: scratchpad_writeback_line returns True even when the DSA has not
    finished the line yet — the ALERT_N retry loop backs off and completes
    the writeback rather than reporting partial failure."""
    session = SmartDIMMSession(SessionConfig())
    size = PAGE_SIZE
    sbuf, dbuf, offload = _compcpy_offload(session, size, flush_destination=False)
    # Pick a destination line the DSA has computed; its ready cycle may
    # still be in the future, which is exactly the retry-loop case.
    assert session.mc.scratchpad_writeback_line(dbuf) is True
    assert session.mc.stats.scratchpad_writebacks == 1


def test_address_decode_matches_reference():
    session = SmartDIMMSession(SessionConfig())
    mapping = session.mapping
    for address in range(0, 1 << 20, 4096 + 64):
        assert mapping.decode(address) == decode_reference(mapping, address)


def test_run_length_covers_page_runs():
    """run_length(addr) must equal the remaining lines of the page run that
    contains addr, for every line of several pages."""
    session = SmartDIMMSession(SessionConfig())
    mapping = session.mapping
    for page_number in (0, 1, 7):
        runs = mapping.page_runs(page_number)
        assert sum(count for _, count in runs) == PAGE_SIZE // CACHELINE_SIZE
        for start, count in runs:
            for line in range(start, start + count):
                address = page_number * PAGE_SIZE + line * CACHELINE_SIZE
                assert mapping.run_length(address) == start + count - line
