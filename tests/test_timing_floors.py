"""Property test: the stored rank/bus floors against a from-scratch oracle.

:class:`~repro.dram.rank.RankTiming` and
:class:`~repro.dram.channel.ChannelTiming` keep the earliest legal cycle
of the next command as state, updated only when a command is recorded.
This test replays random ACT / column / channel-block sequences through
them, each command issued at the earliest cycle the trackers allow, and
after every step recomputes every floor from the recorded history using
the JEDEC definitions written out below -- an oracle that shares no code
with the trackers.  It also checks that recording one cycle before any
floor is rejected.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.channel import ChannelTiming
from repro.dram.rank import RankTiming
from repro.dram.timing import DDR4_2666, DDR5_4800

TIMINGS = {
    "ddr4": DDR4_2666,
    "ddr5": DDR5_4800,
    # tRRD_L > 2 * tRRD_S: a group's own last ACT still binds after an
    # other-group ACT in between (on the real sets the tRRD_S from the
    # intervening ACT always covers it).
    "long-trrd-l": replace(DDR4_2666, tRRD_L=13),
    # tCCD_L > 2 * tCCD_S: the same holds for column commands.
    "long-tccd-l": replace(DDR4_2666, tCCD_L=9),
}


def oracle_act_floor(t, acts, group):
    """Next ACT to ``group``: tRRD_L after every same-group ACT, tRRD_S
    after every ACT, and at most four ACTs in any tFAW window."""
    floor = 0
    for cycle, g in acts:
        floor = max(floor, cycle + t.tRRD_S)
        if g == group:
            floor = max(floor, cycle + t.tRRD_L)
    if len(acts) >= 4:
        floor = max(floor, acts[-4][0] + t.tFAW)
    return floor


def oracle_col_floor(t, cols, group):
    """Next RD/WR to ``group``: tCCD_L after every same-group column
    command, tCCD_S after every column command."""
    floor = 0
    for cycle, g in cols:
        floor = max(floor, cycle + (t.tCCD_L if g == group else t.tCCD_S))
    return floor


def oracle_block_end(blocks):
    """Channel blocks queue back to back: each starts at its request
    cycle or when the previous one ends, whichever is later."""
    end = 0
    for cycle, duration in blocks:
        end = max(cycle, end) + duration
    return end


def oracle_bus_floors(cmds, bursts, blocks):
    """One command per cycle; bursts never overlap; nothing moves on
    either bus while the channel is blocked."""
    blocked = oracle_block_end(blocks)
    cmd = max([0, blocked] + [c + 1 for c in cmds])
    data = max([0, blocked] + [start + burst for start, burst in bursts])
    return cmd, data


# ACTs are drawn most often and gap 0 (issue as soon as allowed) is
# common, so runs of back-to-back ACTs reach the tFAW window.  ``arg``
# is the bank group for ACT/column steps and the duration for blocks.
step = st.tuples(st.sampled_from(["act", "act", "act", "col", "block"]),
                 st.integers(0, 300),
                 st.one_of(st.just(0), st.integers(0, 60)))


@pytest.mark.parametrize("name", sorted(TIMINGS))
@given(groups=st.sampled_from([1, 2, 4, 8]),
       steps=st.lists(step, min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_floors_match_oracle(name, groups, steps):
    t = TIMINGS[name]
    rank = RankTiming(t, groups)
    chan = ChannelTiming()
    acts, cols, cmds, bursts, blocks = [], [], [], [], []
    now = 0
    for kind, arg, gap in steps:
        cycle = now + gap
        if kind == "block":
            chan.block(cycle, arg)
            blocks.append((cycle, arg))
            now = cycle
        elif kind == "act":
            group = arg % groups
            cycle = rank.earliest_act(chan.earliest_command(cycle), group)
            chan.record_command(cycle)
            rank.record_act(cycle, group)
            cmds.append(cycle)
            acts.append((cycle, group))
            now = cycle
        else:
            group = arg % groups
            lead = t.tCL if gap % 2 else t.tCWL
            cycle = rank.earliest_column(chan.earliest_command(cycle), group)
            cycle = chan.earliest_data(cycle + lead) - lead
            chan.record_command(cycle)
            rank.record_column(cycle, group)
            chan.record_data(cycle + lead, t.tBL)
            cmds.append(cycle)
            cols.append((cycle, group))
            bursts.append((cycle + lead, t.tBL))
            now = cycle

        for g in range(groups):
            assert rank.act_floor[g] == oracle_act_floor(t, acts, g)
            assert rank.col_floor[g] == oracle_col_floor(t, cols, g)
            assert rank.earliest_act(0, g) == rank.act_floor[g]
            assert rank.earliest_column(0, g) == rank.col_floor[g]
        cmd_floor, data_floor = oracle_bus_floors(cmds, bursts, blocks)
        assert chan.cmd_floor == cmd_floor
        assert chan.data_floor == data_floor
        assert chan.earliest_command(0) == cmd_floor
        assert chan.earliest_data(0) == data_floor

        # One cycle early is a protocol violation (and a rejected
        # record leaves the tracker untouched: the floors are
        # re-checked against the oracle after the next step).
        for g in range(groups):
            with pytest.raises(RuntimeError):
                rank.record_act(rank.act_floor[g] - 1, g)
            with pytest.raises(RuntimeError):
                rank.record_column(rank.col_floor[g] - 1, g)
        with pytest.raises(RuntimeError):
            chan.record_command(cmd_floor - 1)
        with pytest.raises(RuntimeError):
            chan.record_data(data_floor - 1, t.tBL)
