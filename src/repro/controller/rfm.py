"""RAA counters for the DDR5 RFM interface (paper Table I, Section II-A).

A small per-bank activation counter (the RAA count) lives at the MC.
When it reaches RAAIMT the MC owes the device an RFM command; issuing
the RFM subtracts RAAIMT, and an all-bank REF also credits the counter
(the device gets mitigation slack during tRFC anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dram.device import BankAddress


@dataclass
class RaaCounterBank:
    """The full set of per-bank RAA counters.

    ``due`` holds the banks currently at or above RAAIMT, kept up to
    date by every ACT, RFM and REF (each may cross the threshold), so
    the scheduler never scans the counters to find the banks it owes an
    RFM.  It maps each due bank to its *first-touch stamp*, the position
    at which the bank entered ``counters``, and
    :meth:`banks_needing_rfm` lists the due banks in stamp order,
    rebuilt only when the set changes.  The scheduler's tie-breaks
    depend on that order: a list ordered by crossing time would change
    the command stream.
    """

    raaimt: int
    ref_credit: int = None  # decrement applied per REF; defaults to RAAIMT
    counters: Dict[BankAddress, int] = field(default_factory=dict)
    rfms_issued: int = 0
    due: Dict[BankAddress, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.raaimt <= 0:
            raise ValueError("RAAIMT must be positive")
        if self.ref_credit is None:
            self.ref_credit = self.raaimt
        if self.ref_credit < 0:
            raise ValueError("ref_credit must be non-negative")
        self._stamps = {addr: i for i, addr in enumerate(self.counters)}
        self.due = {addr: self._stamps[addr]
                    for addr, c in self.counters.items() if c >= self.raaimt}
        #: Stamp-ordered view of ``due``; None after it changes.
        self._due_list: Optional[List[BankAddress]] = None

    @property
    def due_count(self) -> int:
        return len(self.due)

    def count(self, addr: BankAddress) -> int:
        return self.counters.get(addr, 0)

    def on_activate(self, addr: BankAddress) -> bool:
        """Count one ACT; returns True when this ACT crossed RAAIMT
        (the bank just became RFM-due -- security telemetry hooks on
        exactly these crossings)."""
        value = self.counters.get(addr)
        if value is None:
            self._stamps[addr] = len(self._stamps)
            value = 0
        value += 1
        self.counters[addr] = value
        if value == self.raaimt:
            self.due[addr] = self._stamps[addr]
            self._due_list = None
            return True
        return False

    def rfm_needed(self, addr: BankAddress) -> bool:
        return addr in self.due

    def banks_needing_rfm(self) -> List[BankAddress]:
        """Due banks in first-touch order (a shared list: do not mutate)."""
        due_list = self._due_list
        if due_list is None:
            due = self.due
            self._due_list = due_list = sorted(due, key=due.__getitem__)
        return due_list

    def on_rfm(self, addr: BankAddress) -> None:
        if addr not in self.due:
            raise RuntimeError(
                "RFM issued to a bank whose RAA count is below RAAIMT"
            )
        value = self.counters[addr] - self.raaimt
        self.counters[addr] = value
        if value < self.raaimt:
            del self.due[addr]
            self._due_list = None
        self.rfms_issued += 1

    def on_ref(self, addr: BankAddress) -> None:
        old = self.counters.get(addr)
        if old is None:
            self._stamps[addr] = len(self._stamps)
            old = 0
        new = max(0, old - self.ref_credit)
        self.counters[addr] = new
        if old >= self.raaimt > new:
            del self.due[addr]
            self._due_list = None
