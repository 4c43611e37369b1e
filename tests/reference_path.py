"""Per-line reference semantics for the micro-simulation: a test oracle.

Production runs one datapath: LLC range ops, the batched memory controller
and the buffer device's ``*_line_run`` methods.  That path must behave
exactly like a loop of single-line operations, including when a fault cuts
a range short.  This module builds that loop out of the production
per-line primitives (``LLC.load``/``store``/``flush_line``,
``MemoryController.read_line``/``write_line``/``write_line_now``, and each
device's ``handle_command``), so a twin-session test can diff the
production path against it.

* :class:`ReferenceLLC` turns every LLC range op into a line loop.
* :class:`ReferenceController` turns every controller range op, and the
  write-queue drain, into a line loop; no ``*_line_run`` is ever called.
* :class:`CommandDIMM` is a plain DIMM served through ``handle_command``:
  the controller's plain-DIMM direct path only takes exact
  :class:`PlainDIMM` instances, so this subclass goes the Command way.
* :func:`decode_reference` is the original sequential shift chain that
  ``AddressMapping.decode``'s precomputed shift/mask fields must match.
"""

from repro.cache.llc import LLC
from repro.core.offload_api import SessionConfig, SmartDIMMSession
from repro.dram.address import AddressMapping, DramCoordinate, InterleaveMode
from repro.dram.commands import CACHELINE_SIZE
from repro.dram.memory_controller import MemoryController, PlainDIMM, TimingParams

_LINE_MASK = ~(CACHELINE_SIZE - 1)


class CommandDIMM(PlainDIMM):
    """A plain DIMM whose every command goes through ``handle_command``."""


class ReferenceController(MemoryController):
    """Range reads and writes as loops of line reads and writes."""

    def read_lines(self, address: int, count: int) -> bytes:
        return b"".join(self.read_line(address + (i << 6)) for i in range(count))

    def write_lines(self, address: int, data: bytes) -> None:
        for offset in range(0, len(data), CACHELINE_SIZE):
            self.write_line(address + offset, data[offset:offset + CACHELINE_SIZE])

    def write_lines_now(self, address: int, datas: list) -> None:
        for i, data in enumerate(datas):
            self.write_line_now(address + (i << 6), data)

    def _drain_writes(self, target: int) -> None:
        # Oldest first, one line at a time (write_line_now pops the entry).
        queue = self._write_queue
        while len(queue) > target:
            address = next(iter(queue))
            self.write_line_now(address, queue[address])


class ReferenceLLC(LLC):
    """Range loads, stores, copies and flushes as loops of line ops."""

    def load_range(self, address: int, count: int) -> bytes:
        address &= _LINE_MASK
        return b"".join(self.load(address + (i << 6)) for i in range(count))

    def store_range(self, address: int, data: bytes) -> None:
        address &= _LINE_MASK
        for offset in range(0, len(data), CACHELINE_SIZE):
            self.store(address + offset, data[offset:offset + CACHELINE_SIZE])

    def copy_range(self, src: int, dst: int, count: int) -> None:
        src &= _LINE_MASK
        dst &= _LINE_MASK
        for i in range(count):
            self.store(dst + (i << 6), self.load(src + (i << 6)))

    def flush_range(self, address: int, length: int) -> int:
        start = address & _LINE_MASK
        return sum(
            self.flush_line(line_address)
            for line_address in range(start, address + length, CACHELINE_SIZE)
        )


def reference_session(config: SessionConfig = None) -> SmartDIMMSession:
    """A session whose LLC and controller run the per-line loops.

    The oracle classes add no state, so re-classing the built session's
    LLC and controller leaves every other component (driver, CompCpy,
    device) bound to them unchanged.
    """
    session = SmartDIMMSession(config)
    session.llc.__class__ = ReferenceLLC
    session.mc.__class__ = ReferenceController
    return session


def reference_controller(mapping, memory, timing: TimingParams = None,
                         trace: bool = False) -> ReferenceController:
    """A per-line controller over one plain DIMM on channel 0."""
    return ReferenceController(mapping, {0: CommandDIMM(memory)}, timing, trace=trace)


def decode_reference(mapping: AddressMapping, address: int) -> DramCoordinate:
    """Physical address -> DRAM coordinate by the sequential shift chain."""
    if not 0 <= address < mapping.total_capacity:
        raise ValueError("address 0x%x out of range" % address)
    bits = address >> mapping._offset_bits
    if mapping.interleave is InterleaveMode.CACHELINE and mapping.channels > 1:
        channel = bits & (mapping.channels - 1)
        bits >>= mapping._channel_bits
    else:
        channel = 0
    column = bits & (mapping.columns_per_row - 1)
    bits >>= mapping._column_bits
    bank = bits & (mapping.banks_per_group - 1)
    bits >>= mapping._bank_bits
    bank_group = bits & (mapping.bank_groups - 1)
    bits >>= mapping._bg_bits
    row = bits & (mapping.rows - 1)
    bits >>= mapping._row_bits
    if mapping.interleave is InterleaveMode.SINGLE_CHANNEL and mapping.channels > 1:
        channel = bits & (mapping.channels - 1)
    return DramCoordinate(
        channel=channel, bank_group=bank_group, bank=bank, row=row, column=column
    )
