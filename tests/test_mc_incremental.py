"""Regressions for the incremental scheduling core.

Covers the invariants the candidate cache must preserve: FIFO-age
tie-breaking, O(1) pending counters, refresh obligations on idle
channels, cache invalidation on translation-generation bumps, and the
cross-drain memo: every enqueue folded into it must leave the candidate
a full scan would pick.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.address import MemoryLocation
from repro.controller.mc import McConfig, MemoryController
from repro.controller.request import MemoryRequest
from repro.dram.device import BankAddress, DramDevice, DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR4_2666
from repro.mitigations.base import Mitigation
from repro.mitigations.none import NoMitigation
from repro.sim import System, SystemConfig

T = DDR4_2666
SMALL = DramGeometry(
    channels=1, ranks_per_channel=1, banks_per_rank=2,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
    columns_per_row=32,
)
TWO_CHAN = DramGeometry(
    channels=2, ranks_per_channel=1, banks_per_rank=2,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
    columns_per_row=32,
)


def make_mc(mitigation=None, geometry=SMALL, refresh=True):
    device = DramDevice(geometry, T)
    mc = MemoryController(device, mitigation or NoMitigation(),
                          config=McConfig(enable_refresh=refresh))
    return device, mc


def req(row, col=0, bank=0, channel=0, write=False, arrival=0, thread=0):
    return MemoryRequest(
        location=MemoryLocation(channel, 0, bank, row, col),
        is_write=write, thread_id=thread, arrival=arrival)


def run_to_completion(mc, channels=(0,), horizon=5_000_000):
    done = []
    cycle = 0
    while mc.pending_requests() and cycle < horizon:
        wakes = []
        for ch in channels:
            completions, wake = mc.drain(ch, cycle)
            done.extend(completions)
            if wake is not None:
                wakes.append(wake)
        if mc.pending_requests() == 0:
            break
        nxt = min(wakes) if wakes else cycle + 1
        cycle = nxt if nxt > cycle else cycle + 1
    assert mc.pending_requests() == 0, "requests stuck in the queues"
    return done


class TestFifoAgeTieBreaks:
    def test_same_row_hits_retire_in_fifo_order(self):
        device, mc = make_mc(refresh=False)
        requests = [req(row=3, col=i, arrival=i) for i in range(6)]
        for r in requests:
            mc.enqueue(r)
        done = run_to_completion(mc)
        assert [r.request_id for r, _ in done] == \
            [r.request_id for r in requests]
        issue_cycles = [r.issued for r in requests]
        assert issue_cycles == sorted(issue_cycles)

    def test_equal_readiness_prefers_older_request_across_banks(self):
        # Two closed banks, both ACT-ready at cycle 0: the older arrival
        # must win the tie even though both candidates are identical in
        # (earliest, priority).
        device, mc = make_mc(refresh=False)
        older = req(row=1, bank=1, arrival=0)
        younger = req(row=2, bank=0, arrival=1)
        mc.enqueue(younger)
        mc.enqueue(older)
        run_to_completion(mc)
        assert older.issued < younger.issued

    def test_row_hit_beats_older_conflict(self):
        # FR-FCFS: a younger hit on the open row overtakes an older
        # request that needs a PRE+ACT.
        device, mc = make_mc(refresh=False)
        opener = req(row=1, col=0, arrival=0)
        conflict = req(row=2, col=0, arrival=1)
        hit = req(row=1, col=1, arrival=2)
        for r in (opener, conflict, hit):
            mc.enqueue(r)
        run_to_completion(mc)
        assert hit.completed < conflict.completed


class TestIdleRefreshWake:
    def test_idle_channel_wakes_for_refresh_and_issues_ref(self):
        device, mc = make_mc(refresh=True)
        # Nothing enqueued: the drain finds no candidate before the
        # refresh horizon and must report the tREFI due time as wake.
        completions, wake = mc.drain(0, 0)
        assert completions == []
        tracker = mc.refresh[(0, 0)]
        assert wake == tracker.next_due
        assert wake > 0
        # Draining at the due time issues the REF on the idle channel.
        before = tracker.refs_issued
        mc.drain(0, wake)
        assert tracker.refs_issued == before + 1
        assert device.banks[BankAddress(0, 0, 0)].stats.refreshes == 1

    def test_refreshes_keep_coming_on_idle_channel(self):
        device, mc = make_mc(refresh=True)
        cycle, refs = 0, 0
        for _ in range(5):
            _, wake = mc.drain(0, cycle)
            assert wake is not None
            cycle = wake
            mc.drain(0, cycle)
            refs = mc.refresh[(0, 0)].refs_issued
        assert refs >= 4


class TestPendingCounters:
    def test_counts_per_channel_and_total(self):
        device, mc = make_mc(geometry=TWO_CHAN, refresh=False)
        for i in range(3):
            mc.enqueue(req(row=i, channel=0, arrival=i))
        for i in range(2):
            mc.enqueue(req(row=i, channel=1, arrival=i))
        assert mc.pending_requests() == 5
        assert mc.pending_requests(0) == 3
        assert mc.pending_requests(1) == 2
        run_to_completion(mc, channels=(0, 1))
        assert mc.pending_requests() == 0
        assert mc.pending_requests(0) == 0
        assert mc.pending_requests(1) == 0

    def test_counters_track_queue_contents(self):
        device, mc = make_mc(refresh=False)
        requests = [req(row=r, arrival=r) for r in range(4)]
        for r in requests:
            mc.enqueue(r)
        while mc.pending_requests():
            live = sum(len(q) for q in mc.queues.values())
            assert live == mc.pending_requests()
            before = mc.retired
            cycle = 0 if mc.retired == 0 else max(
                r.completed or 0 for r in requests)
            completions, wake = mc.drain(0, cycle + 100000)
            if not completions and wake is None:
                break
        assert mc.pending_requests() == 0
        assert mc.queues == {}


class _RemapToggle(Mitigation):
    """Toy dynamic scheme: flips two rows' DA mapping on demand."""

    name = "remap-toggle"

    def __init__(self, row_a, row_b):
        super().__init__()
        self.row_a = row_a
        self.row_b = row_b
        self.flipped = False
        self.generation = 0

    def translate(self, addr, pa_row):
        base = self.geometry.layout.identity_da
        if self.flipped:
            if pa_row == self.row_a:
                return base(self.row_b)
            if pa_row == self.row_b:
                return base(self.row_a)
        return base(pa_row)

    def translation_generation(self, addr):
        return self.generation

    def flip(self, addr):
        self.flipped = not self.flipped
        self.generation += 1
        self.notify_translation_changed(addr)


class TestTranslationInvalidation:
    def test_generation_bump_retargets_queued_requests(self):
        mitigation = _RemapToggle(row_a=1, row_b=2)
        device, mc = make_mc(mitigation, refresh=False)
        addr = BankAddress(0, 0, 0)
        ident = mitigation.geometry.layout.identity_da

        opener = req(row=1, col=0, arrival=0)
        queued = req(row=1, col=1, arrival=1)
        mc.enqueue(opener)
        mc.enqueue(queued)
        # Issue ACT+RD for the opener only: stop before queued's column.
        mc.drain(0, T.tRCD)
        assert opener.issued is not None
        assert device.banks[addr].open_row == ident(1)

        # Remap while `queued` is still waiting: its cached DA row and
        # the controller's hit index must re-translate, so it now
        # conflicts with the open row instead of hitting it.
        mitigation.flip(addr)
        run_to_completion(mc)
        assert queued.da_row == ident(2)
        assert device.banks[addr].stats.row_conflicts >= 1

    def test_listener_registered_by_controller(self):
        mitigation = _RemapToggle(row_a=1, row_b=2)
        device, mc = make_mc(mitigation, refresh=False)
        mc.enqueue(req(row=1))
        ctx = mc._ctx[BankAddress(0, 0, 0)]
        mc._best_candidate(0, 0)
        assert not ctx.dirty
        mitigation.flip(BankAddress(0, 0, 0))
        assert ctx.dirty


# -- the enqueue-proof memo against full scans ------------------------------------

def _load_golden_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_memo",
        Path(__file__).resolve().parent / "golden" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_golden_generator()


def run_checking_folds(system):
    """Run ``system``; at every memo fold, compare the folded candidate
    with a full ``_best_candidate`` scan of the same state.  Returns the
    number of folds checked."""
    mc = system.mc
    drain, reduce = mc.drain, mc._reduce
    untils = {}
    folds = []

    def checked_drain(channel, until):
        untils[channel] = until
        return drain(channel, until)

    def checked_reduce(channel, banks, best, draining, rfm_ctxs):
        folded = reduce(channel, banks, best, draining, rfm_ctxs)
        if banks is mc._fresh[channel]:
            full = MemoryController._best_candidate(mc, channel,
                                                    untils[channel])
            assert folded == full, (
                f"fold on channel {channel} at until={untils[channel]} "
                f"chose {folded[:4]}, a full scan {full[:4]}")
            folds.append(channel)
        return folded

    mc.drain = checked_drain
    mc._reduce = checked_reduce
    system.run()
    return len(folds)


def _memo_system(scheme, channels, ranks, banks, threads, requests, seed):
    geometry = DramGeometry(
        channels=channels, ranks_per_channel=ranks, banks_per_rank=banks,
        layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=64),
        columns_per_row=32)
    config = SystemConfig(geometry=geometry, seed=seed,
                          requests_per_thread=requests)
    return System((list(GEN.THREADS) * 2)[:threads],
                  GEN.make_mitigation(scheme), config=config)


@given(scheme=st.sampled_from(["none", "shadow", "dapper", "rrs"]),
       channels=st.integers(1, 2), ranks=st.integers(1, 2),
       banks=st.sampled_from([2, 4, 8]), threads=st.integers(1, 4),
       requests=st.integers(20, 150), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_every_fold_equals_a_full_scan(scheme, channels, ranks, banks,
                                       threads, requests, seed):
    run_checking_folds(_memo_system(scheme, channels, ranks, banks,
                                    threads, requests, seed))


def test_exact_tie_goes_to_lower_active_stamp():
    # Two closed banks with same-cycle arrivals tie exactly on
    # (earliest, prio, age); a scan in active-list order keeps the
    # first.  A fold that meets the banks in the other order must pick
    # the same winner, by stamp.
    _device, mc = make_mc(refresh=False)
    mc.enqueue(req(row=1, bank=0, arrival=5))
    mc.enqueue(req(row=2, bank=1, arrival=5))
    first, second = mc._active[0]
    assert first.stamp < second.stamp
    assert mc._best_candidate(0, 0)[4] is first
    best_second = mc._reduce(0, [second], None, None, None)
    assert best_second[:3] == mc._reduce(0, [first], None, None, None)[:3]
    assert mc._reduce(0, [first], best_second, None, None)[4] is first


def test_folds_happen():
    # The property above is vacuous if no fold ever runs.
    assert run_checking_folds(
        _memo_system("shadow", 2, 1, 8, 3, 300, 13)) > 100
