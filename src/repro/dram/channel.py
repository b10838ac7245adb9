"""Channel-level shared resources: command bus and data bus.

One command may issue per channel per cycle; data bursts occupy the
shared data bus for tBL cycles.  RRS-style row swaps block the whole
channel (paper Section III-A), which is modelled here explicitly.

Both buses are kept as stored floors -- ``cmd_floor`` and
``data_floor``, the earliest cycle the next command / burst may use the
bus, channel blocking included -- moved only by :meth:`record_command`,
:meth:`record_data` and :meth:`block`.  The scheduler reads them
directly.
"""

from __future__ import annotations


class ChannelTiming:
    """Occupancy tracking for one channel's command and data buses."""

    __slots__ = ("cmd_floor", "data_floor", "_blocked_until",
                 "blocked_cycles", "commands_issued", "data_busy_cycles")

    def __init__(self):
        self.cmd_floor = 0    # earliest cycle of the next command
        self.data_floor = 0   # earliest start of the next data burst
        self._blocked_until = 0
        self.blocked_cycles = 0   # total channel-blocking time (RRS swaps)
        self.commands_issued = 0  # commands placed on the command bus
        self.data_busy_cycles = 0  # total data-bus burst occupancy

    # -- command bus -----------------------------------------------------------

    def earliest_command(self, cycle: int) -> int:
        floor = self.cmd_floor
        return cycle if cycle > floor else floor

    def record_command(self, cycle: int) -> None:
        if cycle < self.cmd_floor:
            raise RuntimeError(
                "DRAM protocol violation: command bus busy at issue time"
            )
        # cycle >= the block end, so the block no longer bounds the bus.
        self.cmd_floor = cycle + 1
        self.commands_issued += 1

    # -- data bus ---------------------------------------------------------------

    def earliest_data(self, start: int) -> int:
        """Earliest cycle >= ``start`` a data burst may begin."""
        floor = self.data_floor
        return start if start > floor else floor

    def record_data(self, start: int, burst: int) -> None:
        if start < self.data_floor:
            raise RuntimeError(
                "DRAM protocol violation: data bus busy at burst start"
            )
        self.data_floor = start + burst
        self.data_busy_cycles += burst

    # -- whole-channel blocking (RRS) --------------------------------------------

    def block(self, cycle: int, duration: int) -> int:
        """Block the entire channel for ``duration`` cycles; returns end."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(cycle, self._blocked_until)
        end = self._blocked_until = start + duration
        if self.cmd_floor < end:
            self.cmd_floor = end
        if self.data_floor < end:
            self.data_floor = end
        self.blocked_cycles += duration
        return end
