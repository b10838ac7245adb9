"""Tracker data structures: Misra-Gries, CbS, CMS, D-CBF, and the
tracker protocol they implement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.device import BankAddress, DramGeometry
from repro.dram.timing import DDR4_2666
from repro.mitigations import trackers
from repro.mitigations.trackers import (
    CountMinSketch,
    CounterSummary,
    DualCountingBloomFilter,
    MisraGries,
    ResilientMisraGries,
    Tracker,
)
from repro.spec.registry import SCHEMES, TRACKERS
from repro.utils.rng import SystemRng


class TestMisraGries:
    def test_tracks_heavy_hitter_exactly_when_room(self):
        mg = MisraGries(capacity=4)
        for _ in range(10):
            mg.observe(1)
        assert mg.estimate(1) == 10

    def test_never_underestimates_by_more_than_spill(self):
        mg = MisraGries(capacity=2)
        truth = {}
        keys = [1, 2, 3, 4, 1, 1, 2, 5, 1, 1, 6, 1]
        for k in keys:
            truth[k] = truth.get(k, 0) + 1
            mg.observe(k)
        for k, count in truth.items():
            assert mg.estimate(k) >= count - mg.spill

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=200))
    @settings(max_examples=40)
    def test_overestimate_bounded_by_spill_property(self, keys):
        mg = MisraGries(capacity=3)
        truth = {}
        for k in keys:
            truth[k] = truth.get(k, 0) + 1
            mg.observe(k)
        for k in truth:
            assert truth[k] <= mg.estimate(k) + mg.spill
            assert mg.estimate(k) <= truth[k] + mg.spill

    def test_reset_key(self):
        mg = MisraGries(capacity=2)
        for _ in range(5):
            mg.observe(7)
        mg.reset_key(7)
        assert mg.estimate(7) == mg.spill

    def test_max_entry_and_clear(self):
        mg = MisraGries(capacity=4)
        for _ in range(3):
            mg.observe(1)
        mg.observe(2)
        assert mg.hottest() == (1, 3)
        mg.clear()
        assert mg.hottest() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MisraGries(0)


class TestCounterSummary:
    def test_hottest_tracks_heavy_hitter(self):
        cbs = CounterSummary(entries=4)
        for _ in range(20):
            cbs.observe(42)
        for k in range(100, 110):
            cbs.observe(k)
        key, count = cbs.hottest()
        assert key == 42
        assert count >= 20

    def test_min_inheritance_never_undercounts(self):
        cbs = CounterSummary(entries=2)
        truth = {}
        for k in [1, 2, 3, 3, 4, 3, 5, 3]:
            truth[k] = truth.get(k, 0) + 1
            cbs.observe(k)
        # The CbS invariant: a tracked key's count >= its true count.
        for k, c in cbs.counts.items():
            assert c >= truth[k]

    def test_settle(self):
        cbs = CounterSummary(entries=4)
        for _ in range(10):
            cbs.observe(1)
        cbs.observe(2)
        cbs.settle(1)
        assert cbs.counts[1] == cbs.floor()

    def test_empty(self):
        cbs = CounterSummary(entries=2)
        assert cbs.hottest() is None
        assert cbs.floor() == 0


class TestCountMinSketch:
    def test_never_underestimates(self):
        cms = CountMinSketch(width=32, depth=4)
        truth = {}
        for k in range(200):
            key = k % 17
            truth[key] = truth.get(key, 0) + 1
            cms.add(key)
        for key, count in truth.items():
            assert cms.estimate(key) >= count

    def test_exact_when_sparse(self):
        cms = CountMinSketch(width=1024, depth=4)
        cms.add(5, amount=7)
        assert cms.estimate(5) == 7
        assert cms.estimate(6) == 0

    def test_clear(self):
        cms = CountMinSketch(width=16, depth=2)
        cms.add(1)
        cms.clear()
        assert cms.estimate(1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch(width=8, depth=99)


class TestDualCbf:
    def test_counts_within_epoch(self):
        dcbf = DualCountingBloomFilter(width=256, epoch_cycles=1000)
        for i in range(10):
            dcbf.observe(5, cycle=i)
        assert dcbf.estimate(5, cycle=10) >= 10

    def test_estimate_survives_one_rotation(self):
        dcbf = DualCountingBloomFilter(width=256, epoch_cycles=1000)
        for i in range(10):
            dcbf.observe(5, cycle=i)
        # After one rotation the retired filter still holds the counts.
        assert dcbf.estimate(5, cycle=1500) >= 10
        assert dcbf.rotations == 1

    def test_counts_expire_after_two_epochs(self):
        dcbf = DualCountingBloomFilter(width=256, epoch_cycles=1000)
        for i in range(10):
            dcbf.observe(5, cycle=i)
        assert dcbf.estimate(5, cycle=2500) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DualCountingBloomFilter(width=8, epoch_cycles=0)


#: Constructor arguments for every registered tracker name.
_TRACKER_PARAMS = {
    "misra-gries": dict(capacity=4),
    "counter-summary": dict(entries=4),
    "dcbf": dict(width=16, epoch_cycles=100),
    "recent-history": dict(depth=4),
    "mint": dict(window=4, rng=SystemRng(1)),
    "dapper": dict(capacity=4),
    "none": {},
}


class TestTrackerProtocol:
    def test_every_registered_name_builds_a_tracker(self):
        assert set(TRACKERS.names()) == set(_TRACKER_PARAMS)
        for name, params in _TRACKER_PARAMS.items():
            tracker = TRACKERS.build(name, **params)
            assert isinstance(tracker, Tracker), name
            assert type(tracker).__module__ == trackers.__name__, name

    @pytest.mark.parametrize("scheme, structure", [
        ("dapper", ResilientMisraGries),
        ("mithril-perf", CounterSummary),
    ])
    def test_scheme_scope_holds_the_structure_itself(self, scheme,
                                                      structure):
        mitigation = SCHEMES.build(scheme, hcnt=4096)
        mitigation.bind(DramGeometry(), DDR4_2666)
        mitigation.on_activate(BankAddress(0, 0, 0), 5, 5, cycle=0)
        (state,) = mitigation._states.values()
        assert type(state.tracker) is structure
