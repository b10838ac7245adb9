"""Rank-level constraints: tRRD, the four-activate window, and
bank-group-aware command spacing.

A rank limits how quickly ACTs may issue across its banks: consecutive
ACTs must be tRRD apart (tRRD_L within a bank group, tRRD_S across
groups) and at most four ACTs may fall in any tFAW window.  Column
commands on the shared bus are likewise spaced tCCD_L within a group
and tCCD_S across groups -- the reason controllers interleave bank
groups on DDR4/DDR5.

This module is the only place those rules are written down.  They are
stored as per-group *floors* -- the earliest legal cycle of the next ACT
(``act_floor[g]``) and column command (``col_floor[g]``) to group ``g``
-- recomputed only when a command is recorded, so the scheduler's
candidate scan reads one list entry per bank instead of re-deriving the
spacing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.dram.timing import TimingParams


class RankTiming:
    """Rank-wide ACT/column spacing, kept as per-bank-group floors."""

    __slots__ = ("_t", "_act_times", "_group_last_act", "_group_last_col",
                 "act_floor", "col_floor")

    def __init__(self, timing: TimingParams, groups: int):
        self._t = timing
        self._act_times: Deque[int] = deque(maxlen=4)
        #: Last ACT per bank group (``None`` until the group activates).
        self._group_last_act: List = [None] * groups
        #: Last column command per bank group (``None`` until its first).
        self._group_last_col: List = [None] * groups
        #: Earliest legal cycle of the next ACT / column command per group.
        self.act_floor: List[int] = [0] * groups
        self.col_floor: List[int] = [0] * groups

    # -- activates --------------------------------------------------------------

    def earliest_act(self, cycle: int, group: int = 0) -> int:
        """Earliest cycle >= ``cycle`` an ACT to ``group`` may issue."""
        floor = self.act_floor[group]
        return cycle if cycle > floor else floor

    def record_act(self, cycle: int, group: int = 0) -> None:
        if cycle < self.act_floor[group]:
            raise RuntimeError(
                "DRAM protocol violation: rank ACT before tRRD/tFAW allow"
            )
        t = self._t
        act_times = self._act_times
        act_times.append(cycle)
        group_last = self._group_last_act
        group_last[group] = cycle
        faw = act_times[0] + t.tFAW if len(act_times) == 4 else 0
        floors = self.act_floor
        for g, last in enumerate(group_last):
            if g == group:
                floor = cycle + t.tRRD_L
            else:
                # tRRD_S from this ACT, but still tRRD_L from the
                # group's own last ACT (g0 -> g1 -> g0 keeps the g0
                # spacing).
                floor = cycle + t.tRRD_S
                if last is not None and last + t.tRRD_L > floor:
                    floor = last + t.tRRD_L
            floors[g] = faw if faw > floor else floor

    # -- column commands ------------------------------------------------------------

    def earliest_column(self, cycle: int, group: int = 0) -> int:
        """Earliest cycle >= ``cycle`` a RD/WR to ``group`` may issue."""
        floor = self.col_floor[group]
        return cycle if cycle > floor else floor

    def record_column(self, cycle: int, group: int = 0) -> None:
        if cycle < self.col_floor[group]:
            raise RuntimeError(
                "DRAM protocol violation: column command before tCCD allows"
            )
        t = self._t
        group_last = self._group_last_col
        group_last[group] = cycle
        floors = self.col_floor
        short = cycle + t.tCCD_S
        for g, last in enumerate(group_last):
            if g == group:
                floors[g] = cycle + t.tCCD_L
            elif last is not None and last + t.tCCD_L > short:
                # tCCD_S from this command, but still tCCD_L from the
                # group's own last column command (as for ACTs).
                floors[g] = last + t.tCCD_L
            else:
                floors[g] = short
