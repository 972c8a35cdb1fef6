"""Tests for the Datagen statistical distributions."""

import math

import pytest

from repro.datagen import distributions as dist
from repro.util.rng import DeterministicRng


class TestMeanDegree:
    def test_follows_facebook_law(self):
        # mean = n ** (0.512 - 0.028 log10 n), the fit from [31].
        n = 10_000
        expected = n ** (0.512 - 0.028 * math.log10(n))
        assert dist.mean_degree(n) == pytest.approx(expected)

    def test_grows_with_population(self):
        assert dist.mean_degree(100) < dist.mean_degree(10_000)

    def test_trivial_networks(self):
        assert dist.mean_degree(1) == 0.0
        assert dist.mean_degree(0) == 0.0

    def test_clamped_for_tiny_networks(self):
        assert dist.mean_degree(3) <= 2


class TestMaxDegree:
    def test_capped_at_5000(self):
        assert dist.max_degree(10 ** 9) <= 5000

    def test_capped_by_population(self):
        assert dist.max_degree(10) <= 9

    def test_at_least_one(self):
        assert dist.max_degree(2) >= 1


class TestSampleDegree:
    def test_realized_mean_tracks_target(self):
        n = 2000
        rng = DeterministicRng(42, "degrees")
        samples = [dist.sample_degree(rng, n) for _ in range(8000)]
        target = dist.mean_degree(n)
        realized = sum(samples) / len(samples)
        assert abs(realized - target) < 0.1 * target

    def test_heavy_tail_median_below_mean(self):
        # Facebook data: median 100 < mean 190; the shape must match.
        n = 2000
        rng = DeterministicRng(43, "degrees")
        samples = sorted(dist.sample_degree(rng, n) for _ in range(4000))
        median = samples[len(samples) // 2]
        mean = sum(samples) / len(samples)
        assert median < mean

    def test_respects_cap(self):
        n = 50
        cap = dist.max_degree(n)
        rng = DeterministicRng(44, "degrees")
        assert all(dist.sample_degree(rng, n) <= cap for _ in range(2000))

    def test_at_least_one_friend(self):
        rng = DeterministicRng(45, "degrees")
        assert all(dist.sample_degree(rng, 1000) >= 1 for _ in range(500))
