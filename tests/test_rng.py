"""Unit tests for repro.util.rng — the determinism backbone of Datagen."""

import pytest
from hypothesis import given, strategies as st

from repro.util.rng import (
    DeterministicRng,
    derive_seed,
    digests_under,
    label_digest,
)


class TestDeriveSeed:
    def test_same_labels_same_seed(self):
        assert derive_seed(42, "person", 7) == derive_seed(42, "person", 7)

    def test_different_master_different_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_different_labels_different_seed(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_label_order_matters(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")

    def test_label_boundaries_do_not_collide(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_64_bit_range(self):
        seed = derive_seed(123, "anything")
        assert 0 <= seed < 2 ** 64

    @given(st.integers(), st.text(max_size=20))
    def test_is_pure(self, master, label):
        assert derive_seed(master, label) == derive_seed(master, label)

    def test_seed_is_the_digest_head(self):
        digest = label_digest(42, "delete", "like", "3-14")
        assert len(digest) == 32
        assert derive_seed(42, "delete", "like", "3-14") == int.from_bytes(
            digest[:8], "big"
        )


class TestDigestsUnder:
    @given(st.integers(), st.lists(st.one_of(st.integers(), st.text(
        max_size=8)), max_size=3), st.one_of(st.integers(), st.text(max_size=8)))
    def test_equals_the_full_digest(self, master, prefix, label):
        digest = digests_under(master, *prefix)
        assert digest(label) == label_digest(master, *prefix, label)

    def test_prefix_state_is_not_consumed(self):
        digest = digests_under(7, "delete", "person")
        first = digest(1)
        digest(2)
        assert digest(1) == first != digest(2)


class TestStreams:
    def test_stream_is_reproducible(self):
        a = DeterministicRng(42, "stage", 1)
        b = DeterministicRng(42, "stage", 1)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_streams_are_independent(self):
        a = DeterministicRng(42, "stage", 1)
        b = DeterministicRng(42, "stage", 2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestGeometric:
    def test_rejects_bad_p(self):
        rng = DeterministicRng(1)
        with pytest.raises(ValueError):
            rng.geometric(0.0)
        with pytest.raises(ValueError):
            rng.geometric(1.5)

    def test_p_one_is_always_zero(self):
        rng = DeterministicRng(1)
        assert all(rng.geometric(1.0) == 0 for _ in range(50))

    def test_mean_close_to_theory(self):
        rng = DeterministicRng(7)
        p = 0.25
        samples = [rng.geometric(p) for _ in range(20000)]
        expected = (1 - p) / p
        assert abs(sum(samples) / len(samples) - expected) < 0.15 * expected

    def test_non_negative(self):
        rng = DeterministicRng(3)
        assert all(rng.geometric(0.05) >= 0 for _ in range(500))


class TestZipf:
    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).zipf_rank(0)

    def test_in_range(self):
        rng = DeterministicRng(11)
        assert all(0 <= rng.zipf_rank(10) < 10 for _ in range(1000))

    def test_skews_to_low_ranks(self):
        rng = DeterministicRng(13)
        samples = [rng.zipf_rank(100) for _ in range(5000)]
        low = sum(1 for s in samples if s < 10)
        high = sum(1 for s in samples if s >= 90)
        assert low > 5 * max(high, 1)

    def test_singleton_domain(self):
        rng = DeterministicRng(1)
        assert rng.zipf_rank(1) == 0

    def test_non_unit_exponent(self):
        rng = DeterministicRng(1)
        assert all(0 <= rng.zipf_rank(50, exponent=1.5) < 50 for _ in range(500))


class TestWeightedIndex:
    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).weighted_index([0.0, 0.0])

    def test_respects_weights(self):
        rng = DeterministicRng(21)
        counts = [0, 0]
        for _ in range(5000):
            counts[rng.weighted_index([9.0, 1.0])] += 1
        assert counts[0] > 4 * counts[1]

    def test_zero_weight_never_chosen(self):
        rng = DeterministicRng(22)
        assert all(rng.weighted_index([0.0, 1.0]) == 1 for _ in range(200))


class TestSubset:
    def test_probability_zero_empty(self):
        rng = DeterministicRng(31)
        assert rng.subset(range(100), 0.0) == []

    def test_probability_one_everything(self):
        rng = DeterministicRng(31)
        assert rng.subset(range(100), 1.0) == list(range(100))

    def test_preserves_order(self):
        rng = DeterministicRng(33)
        picked = rng.subset(range(1000), 0.3)
        assert picked == sorted(picked)
