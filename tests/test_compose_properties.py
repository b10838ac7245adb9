"""Property tests for the tracker structures behind composed schemes.

Each tracker backs a security argument, so its invariant is stated as a
*property over arbitrary activation streams* (hypothesis), not as a
handful of examples:

* Misra-Gries: the estimate undercounts the true count by at most the
  spill (the bound Graphene's threshold math relies on).
* CbS min-inheritance: the estimate never undercounts at all -- an
  evicted newcomer inherits min+1, so Mithril can never *miss* a row
  hotter than the table floor.
* D-CBF: a count observed in epoch half k survives through half k+1
  and is fully forgotten by half k+2 (BlockHammer's staleness bound).
* MINT sampler: exactly one capture per window, always one of that
  window's observed keys, uniform over slots.
* Resilient Misra-Gries: the estimate (the lower bound) never exceeds
  the true count, under any stream and across halvings -- the "thrash
  cannot promote a cold row" guarantee DAPPER's deterministic security
  bound rests on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigations.trackers import (
    CounterSummary,
    DualCountingBloomFilter,
    MintSampler,
    MisraGries,
    ResilientMisraGries,
)


class FakeRng:
    """Deterministic RandomSource: yields scripted randrange results."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, bound):
        v = self.values.pop(0) % bound
        return v


keys_stream = st.lists(st.integers(min_value=0, max_value=15),
                       min_size=1, max_size=300)


class TestMisraGriesProperties:
    @given(keys_stream, st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_bounded_undercount(self, keys, capacity):
        mg = MisraGries(capacity=capacity)
        truth = {}
        for k in keys:
            truth[k] = truth.get(k, 0) + 1
            mg.observe(k)
        for k, count in truth.items():
            assert mg.estimate(k) >= count - mg.spill
            assert mg.estimate(k) <= count + mg.spill

    @given(keys_stream, st.integers(min_value=1, max_value=6))
    @settings(max_examples=30)
    def test_spill_bounded_by_misses(self, keys, capacity):
        mg = MisraGries(capacity=capacity)
        for k in keys:
            mg.observe(k)
        # The spillover counter moves only on an observation that finds
        # the table full without its key, and at least ``capacity``
        # observations went to fills or entry hits.
        assert mg.spill <= max(0, len(keys) - capacity)


class TestCounterSummaryProperties:
    @given(keys_stream, st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_min_inheritance_never_undercounts(self, keys, entries):
        cbs = CounterSummary(entries=entries)
        truth = {}
        for k in keys:
            truth[k] = truth.get(k, 0) + 1
            cbs.observe(k)
        for k, count in cbs.counts.items():
            assert count >= truth[k]

    @given(keys_stream)
    @settings(max_examples=30)
    def test_hottest_is_table_max(self, keys):
        cbs = CounterSummary(entries=4)
        for k in keys:
            cbs.observe(k)
        key, count = cbs.hottest()
        assert count == max(cbs.counts.values())
        assert cbs.counts[key] == count


class TestDualCbfProperties:
    @given(keys_stream)
    @settings(max_examples=40)
    def test_epoch_half_alternation(self, keys):
        epoch = 100
        cbf = DualCountingBloomFilter(width=64, epoch_cycles=epoch)
        for k in keys:
            cbf.observe(k, cycle=0)
        truth = {}
        for k in keys:
            truth[k] = truth.get(k, 0) + 1
        # Still visible (and never undercounted) in the next half...
        for k, count in truth.items():
            assert cbf.estimate(k, cycle=epoch) >= count
        # ...and fully forgotten one full epoch later.
        for k in truth:
            assert cbf.estimate(k, cycle=2 * epoch) == 0
        assert cbf.rotations == 2


class TestMintSamplerProperties:
    @given(st.lists(st.integers(min_value=0, max_value=99),
                    min_size=1, max_size=64),
           st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=60)
    def test_capture_is_the_selected_observation(self, window_keys, raw):
        window = len(window_keys)
        sampler = MintSampler(window=window, rng=FakeRng([raw]))
        for k in window_keys:
            sampler.observe(k)
        # Exactly one slot is selected per window and the capture is
        # that slot's key.
        assert sampler.windows == 1
        slot = raw % window  # FakeRng folds into range(window)
        assert sampler.sample() == window_keys[slot]

    def test_uniform_over_slots(self):
        window = 4
        counts = [0] * window
        for slot in range(window):
            sampler = MintSampler(window=window, rng=FakeRng([slot]))
            for k in range(window):
                sampler.observe(k)
            counts[sampler.sample()] += 1
        assert counts == [1] * window

    def test_clear_rearms(self):
        sampler = MintSampler(window=2, rng=FakeRng([0, 1]))
        sampler.observe(10)
        sampler.observe(11)
        assert sampler.sample() == 10
        sampler.clear()
        assert sampler.sample() is None
        sampler.observe(20)
        sampler.observe(21)
        assert sampler.sample() == 21
        assert sampler.windows == 2


class TestResilientMisraGriesProperties:
    @given(keys_stream, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_lower_bound_is_sound(self, keys, capacity):
        rmg = ResilientMisraGries(capacity=capacity)
        truth = {}
        for k in keys:
            truth[k] = truth.get(k, 0) + 1
            observed = rmg.observe(k)
            assert observed == rmg.estimate(k) <= truth[k]
        for k in set(keys) | {999}:
            assert rmg.estimate(k) <= truth.get(k, 0)

    @given(keys_stream, st.lists(st.booleans(), min_size=0, max_size=8))
    @settings(max_examples=60)
    def test_lower_bound_sound_across_halvings(self, keys, halvings):
        """Interleave halvings anywhere in the stream: the lower bound
        must stay below the true count *since the start* (halving only
        discards history, it never manufactures it)."""
        rmg = ResilientMisraGries(capacity=3)
        truth = {}
        stream = list(keys)
        cuts = sorted(i % (len(stream) + 1) for i, h in enumerate(halvings)
                      if h)
        pos = 0
        for cut in cuts + [len(stream)]:
            for k in stream[pos:cut]:
                truth[k] = truth.get(k, 0) + 1
                rmg.observe(k)
            if cut != len(stream):
                rmg.window_reset()
            pos = cut
        for k in truth:
            assert rmg.estimate(k) <= truth[k]

    @given(keys_stream)
    @settings(max_examples=40)
    def test_hottest_requires_provable_heat(self, keys):
        rmg = ResilientMisraGries(capacity=2)
        truth = {}
        for k in keys:
            truth[k] = truth.get(k, 0) + 1
            rmg.observe(k)
        entry = rmg.hottest()
        if entry is not None:
            key, bound = entry
            assert bound > 0
            assert bound <= truth[key]
