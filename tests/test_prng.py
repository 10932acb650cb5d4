"""Tests for the deterministic stimulus PRNG."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mp.prng import DeterministicPrng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicPrng(123)
        b = DeterministicPrng(123)
        assert [a.next_u64() for _ in range(10)] == \
            [b.next_u64() for _ in range(10)]

    def test_different_seeds_diverge(self):
        a = DeterministicPrng(1)
        b = DeterministicPrng(2)
        assert [a.next_u64() for _ in range(4)] != \
            [b.next_u64() for _ in range(4)]

    def test_zero_seed_handled(self):
        prng = DeterministicPrng(0)
        assert prng.next_u64() != 0

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=0, max_value=40))
    def test_block_is_the_call_sequence(self, seed, count):
        """A block is ``count`` next_u64 calls, state included."""
        block = DeterministicPrng(seed)
        calls = DeterministicPrng(seed)
        assert block.next_u64_block(count) == \
            [calls.next_u64() for _ in range(count)]
        assert block.next_u64() == calls.next_u64()


class TestRanges:
    @given(st.integers(min_value=1, max_value=512))
    def test_next_bits_bounded(self, nbits):
        value = DeterministicPrng(7).next_bits(nbits)
        assert 0 <= value < (1 << nbits)

    @given(st.integers(min_value=1, max_value=10 ** 12))
    def test_next_int_bounded(self, upper):
        assert 0 <= DeterministicPrng(9).next_int(upper) < upper

    def test_next_int_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DeterministicPrng().next_int(0)

    @given(st.integers(min_value=-100, max_value=100),
           st.integers(min_value=0, max_value=1000))
    def test_next_range_inclusive(self, low, span):
        value = DeterministicPrng(3).next_range(low, low + span)
        assert low <= value <= low + span

    @given(st.integers(min_value=2, max_value=256))
    def test_next_odd_bits(self, nbits):
        value = DeterministicPrng(5).next_odd_bits(nbits)
        assert value & 1
        assert value.bit_length() == nbits

    def test_next_odd_bits_too_small(self):
        with pytest.raises(ValueError):
            DeterministicPrng().next_odd_bits(1)

    def test_next_bytes_length(self):
        assert len(DeterministicPrng().next_bytes(33)) == 33

    def test_next_limbs(self):
        limbs = DeterministicPrng(11).next_limbs(8)
        assert len(limbs) == 8
        assert all(0 <= limb < (1 << 32) for limb in limbs)


class TestCollections:
    def test_choice_stays_in_sequence(self):
        prng = DeterministicPrng(13)
        seq = ["a", "b", "c"]
        for _ in range(20):
            assert prng.choice(seq) in seq

    def test_shuffle_is_permutation(self):
        prng = DeterministicPrng(17)
        seq = list(range(50))
        shuffled = list(seq)
        prng.shuffle(shuffled)
        assert sorted(shuffled) == seq
        assert shuffled != seq  # overwhelmingly likely with 50 elements


class TestStatisticalSanity:
    def test_bit_balance(self):
        """The xorshift* stream should be roughly bit-balanced."""
        prng = DeterministicPrng(29)
        ones = sum(bin(prng.next_u64()).count("1") for _ in range(500))
        total = 500 * 64
        assert 0.47 < ones / total < 0.53

    def test_next_int_covers_range(self):
        prng = DeterministicPrng(31)
        seen = {prng.next_int(8) for _ in range(200)}
        assert seen == set(range(8))
