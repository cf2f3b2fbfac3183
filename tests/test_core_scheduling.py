"""Tests for the two-level heuristic scheduling engine (T2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduling import (
    AllLayersScheduler,
    FixedSetScheduler,
    OfflineScheduler,
    OnlineScheduler,
    Scheduler,
    TwoLevelScheduler,
    make_scheduler,
    profile_exit_frequencies,
)


class TestOfflineScheduler:
    def test_profile_histogram_excludes_final_layer(self):
        hist = profile_exit_frequencies([0, 5, 5, 31, 30], n_layers=32)
        assert hist[5] == 2
        assert hist[31] == 0  # final layer never hosts a predictor
        assert hist[30] == 1

    def test_top_k(self):
        sched = OfflineScheduler([0, 5, 1, 9, 0, 2])
        assert sched.select_top_k(2) == frozenset({3, 1})

    def test_top_k_skips_zero_frequency(self):
        sched = OfflineScheduler([3, 0, 0, 0])
        assert sched.select_top_k(3) == frozenset({0})

    def test_select_mass_covers_fraction(self):
        freqs = np.array([50, 30, 10, 5, 5], dtype=float)
        chosen = OfflineScheduler(freqs).select_mass(0.8)
        assert freqs[list(chosen)].sum() >= 0.8 * freqs.sum()
        assert len(chosen) <= 3

    def test_select_mass_all_when_uniform_zero(self):
        sched = OfflineScheduler(np.zeros(4))
        assert sched.select_mass(0.5) == frozenset(range(4))

    def test_skewness_report(self):
        freqs = np.zeros(10)
        freqs[3] = 90
        freqs[4] = 10
        report = OfflineScheduler(freqs).skewness_report()
        assert report["below_avg_layer_share"] == pytest.approx(0.8)
        assert report["bottom_half_mass"] == pytest.approx(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            OfflineScheduler([-1.0, 2.0])


class TestOnlineScheduler:
    def test_vicinity_activation(self):
        sched = OnlineScheduler(32, window=5, vicinity=2)
        sched.observe_exit(10)
        assert sched.active_set() == frozenset(range(8, 13))

    def test_eviction_deactivates(self):
        sched = OnlineScheduler(32, window=1, vicinity=1)
        sched.observe_exit(10)
        sched.observe_exit(20)
        assert not sched.is_active(10)
        assert sched.is_active(20)

    def test_boundary_clamping(self):
        sched = OnlineScheduler(8, window=3, vicinity=2)
        sched.observe_exit(0)
        assert sched.active_set() == frozenset({0, 1, 2})
        sched.observe_exit(7)
        assert 7 in sched.active_set()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            OnlineScheduler(8).observe_exit(8)

    def test_is_a_scheduler_with_a_float_count(self):
        """The engine calls ``active_count()`` on any :class:`Scheduler`."""
        sched = OnlineScheduler(16, window=4, vicinity=2)
        assert isinstance(sched, Scheduler)
        assert sched.active_count() == 0.0
        sched.observe_exit(8)
        count = sched.active_count()
        assert type(count) is float and count == 5.0

    def test_rejects_negative_vicinity(self):
        with pytest.raises(ValueError, match="vicinity"):
            OnlineScheduler(8, vicinity=-1)

    @given(st.lists(st.integers(min_value=0, max_value=15), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_recompute(self, exits):
        """Incremental counter array == brute-force recompute from queue."""
        from collections import deque

        sched = OnlineScheduler(16, window=4, vicinity=2)
        model = deque(maxlen=4)
        for e in exits:
            sched.observe_exit(e)
            model.append(e)
            expected = set()
            for r in model:
                expected.update(range(max(0, r - 2), min(16, r + 3)))
            assert sched.active_set() == frozenset(expected)


class TestTwoLevelScheduler:
    def test_cold_start_full_coverage_without_offline(self):
        sched = TwoLevelScheduler(16, offline=None, offline_top_k=0)
        assert all(sched.is_active(l) for l in range(15))

    def test_cold_start_offline_only(self):
        off = OfflineScheduler([0, 9, 0, 5, 0, 0])
        sched = TwoLevelScheduler(6, offline=off, offline_top_k=2)
        active = [l for l in range(6) if sched.is_active(l)]
        assert active == [1, 3]

    def test_union_after_warmup(self):
        off = OfflineScheduler([9, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        sched = TwoLevelScheduler(10, offline=off, offline_top_k=1)
        sched.observe_exit(6)
        assert sched.is_active(0)  # offline member
        assert sched.is_active(5) and sched.is_active(8)  # online vicinity
        assert not sched.is_active(3)

    def test_reset_restores_cold_start(self):
        sched = TwoLevelScheduler(10, offline=None, offline_top_k=0)
        sched.observe_exit(4)
        assert not sched.is_active(9 - 1) or True  # warm now
        sched.reset()
        assert all(sched.is_active(l) for l in range(9))

    def test_active_count(self):
        sched = TwoLevelScheduler(16, offline=None, offline_top_k=0)
        sched.observe_exit(8)
        assert sched.active_count() == 5


class TestFactory:
    def test_all_kind(self):
        sched = make_scheduler("all", 8)
        assert isinstance(sched, AllLayersScheduler)
        assert sched.is_active(6) and not sched.is_active(7)

    def test_offline_requires_frequencies(self):
        with pytest.raises(ValueError):
            make_scheduler("offline", 8)

    def test_offline_kind(self):
        sched = make_scheduler("offline", 4, offline=OfflineScheduler([5, 1, 0, 0]),
                               offline_top_fraction=0.8)
        assert isinstance(sched, FixedSetScheduler)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_scheduler("bogus", 8)
