"""The SSD feature cache (Section 7.2)."""

import numpy as np
import pytest

from repro.common.errors import StorageError
from repro.tectonic import FeatureCache, StreamKey


def key(i, length=20_000):
    return StreamKey(f"f{i % 4}", offset=i * length, length=length)


class TestBasics:
    def test_first_read_misses_second_hits(self):
        cache = FeatureCache(capacity_bytes=1 << 20, admission_threshold=1)
        cache.read(key(0))
        assert cache.stats.misses == 1
        cache.read(key(0))
        assert cache.stats.hits == 1
        assert key(0) in cache._resident

    def test_admission_threshold_resists_scans(self):
        cache = FeatureCache(capacity_bytes=1 << 20, admission_threshold=3)
        cache.read(key(0))
        cache.read(key(0))
        assert key(0) not in cache._resident  # two touches: not admitted
        cache.read(key(0))
        assert key(0) in cache._resident

    def test_capacity_enforced_with_eviction(self):
        cache = FeatureCache(capacity_bytes=50_000, admission_threshold=1)
        for i in range(5):  # 5 x 20 KB > 50 KB
            cache.read(key(i))
        assert cache.used_bytes <= 50_000
        assert cache.stats.evictions >= 3

    def test_eviction_prefers_cold_keys(self):
        cache = FeatureCache(capacity_bytes=45_000, admission_threshold=1)
        cache.read(key(0))
        for _ in range(5):
            cache.read(key(0))  # key 0 is hot
        cache.read(key(1))
        cache.read(key(2))  # forces an eviction
        assert key(0) in cache._resident  # the hot key survives

    def test_oversized_range_never_cached(self):
        cache = FeatureCache(capacity_bytes=10_000, admission_threshold=1)
        big = StreamKey("f", 0, 50_000)
        cache.read(big)
        cache.read(big)
        assert big not in cache._resident

    def test_validation(self):
        with pytest.raises(StorageError):
            FeatureCache(capacity_bytes=0)
        with pytest.raises(StorageError):
            FeatureCache(capacity_bytes=1, admission_threshold=0)


class TestServiceAccounting:
    def test_hits_faster_than_misses(self):
        cache = FeatureCache(capacity_bytes=1 << 20, admission_threshold=1)
        miss_time = cache.read(key(0))
        hit_time = cache.read(key(0))
        assert hit_time < miss_time

    def test_speedup_grows_with_hit_rate(self):
        hot = FeatureCache(capacity_bytes=1 << 20, admission_threshold=1)
        for _ in range(50):
            hot.read(key(0))
        cold = FeatureCache(capacity_bytes=1 << 20, admission_threshold=1)
        for i in range(50):
            cold.read(key(i, length=10_000))
        assert hot.speedup_vs_hdd() > cold.speedup_vs_hdd()

    def test_no_reads_rejected(self):
        cache = FeatureCache(capacity_bytes=1 << 20)
        with pytest.raises(StorageError):
            cache.speedup_vs_hdd()


class TestPopularityWorkload:
    def test_zipf_workload_hits_paper_regime(self):
        """Under a Figure-7-like skew, a cache holding a minority of
        bytes absorbs the large majority of requests."""
        rng = np.random.default_rng(0)
        n_streams = 200
        weights = np.arange(1, n_streams + 1, dtype=np.float64) ** -1.1
        rng.shuffle(weights)  # popularity uncorrelated with stream index
        weights /= weights.sum()
        keys = [key(i, length=20_000) for i in range(n_streams)]
        # Cache for ~25% of the stream bytes.
        cache = FeatureCache(
            capacity_bytes=50 * 20_000, admission_threshold=1
        )
        draws = rng.choice(n_streams, size=8_000, p=weights)
        for i in draws:
            cache.read(keys[i])
        assert cache.stats.hits / cache.stats.requests > 0.6
        # Node-level SSD models (calibrated to the paper's 3.26x
        # IOPS/W ratio) bound per-read gains at ~1.65x.
        assert cache.speedup_vs_hdd() > 1.3

    def test_uniform_workload_gains_little(self):
        rng = np.random.default_rng(1)
        n_streams = 400
        keys = [key(i, length=20_000) for i in range(n_streams)]
        cache = FeatureCache(capacity_bytes=50 * 20_000, admission_threshold=1)
        for i in rng.integers(0, n_streams, size=4_000):
            cache.read(keys[int(i)])
        # With uniform popularity a small cache barely helps.
        assert cache.stats.hits / cache.stats.requests < 0.35

    def test_byte_hit_rate_tracks_hit_rate_for_equal_sizes(self):
        cache = FeatureCache(capacity_bytes=1 << 20, admission_threshold=1)
        for _ in range(10):
            cache.read(key(0))
        stats = cache.stats
        assert stats.byte_hit_rate == pytest.approx(stats.hits / stats.requests)


class TestGhostListBound:
    def test_scan_of_1m_unique_keys_stays_bounded(self):
        """The miss-history ("ghost") list must not grow without bound
        under scan workloads (ISSUE 3): 1M unique keys, bounded
        metadata."""
        ghost_cap = 10_000
        cache = FeatureCache(
            capacity_bytes=1 << 20,
            admission_threshold=2,
            ghost_capacity=ghost_cap,
        )
        for i in range(1_000_000):
            cache.read(key(i))
        assert len(cache._ghost) <= ghost_cap
        # A pure scan admits nothing (threshold 2, every key unique).
        assert len(cache._resident) == 0
        assert cache.stats.misses == 1_000_000

    def test_hot_key_survives_scan_to_admission(self):
        cache = FeatureCache(
            capacity_bytes=1 << 20, admission_threshold=2, ghost_capacity=64
        )
        hot = key(10**7)
        cache.read(hot)
        for i in range(32):  # scan pressure below the ghost bound
            cache.read(key(i))
        cache.read(hot)  # second touch: admitted despite the scan
        assert hot in cache._resident

    def test_evicted_resident_demotes_to_ghost(self):
        cache = FeatureCache(
            capacity_bytes=25_000, admission_threshold=1, ghost_capacity=16
        )
        cache.read(key(0))  # resident (20 KB)
        cache.read(key(1))  # evicts key(0) into the ghost list
        assert key(0) not in cache._resident
        assert len(cache._ghost) >= 1
        cache.read(key(0))  # re-warm: popularity survived demotion
        assert key(0) in cache._resident

    def test_ghost_capacity_validation(self):
        with pytest.raises(StorageError):
            FeatureCache(capacity_bytes=1 << 20, ghost_capacity=0)
