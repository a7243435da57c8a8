"""Tests for chunking policy (paper Eq. 4) and byte-range mapping."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.collectives.chunking import (
    chunk_offsets,
    chunks_covering,
    optimal_chunk_count,
    split_bytes,
)


class TestOptimalChunkCount:
    def test_matches_eq4(self):
        n, p, alpha, beta = 64 * 2**20, 8, 2e-6, 1 / 25e9
        expected = math.sqrt(math.log2(p) * beta * n / alpha)
        assert optimal_chunk_count(p, n, alpha=alpha, beta=beta) == round(expected)

    def test_small_message_single_chunk(self):
        assert optimal_chunk_count(8, 128, alpha=1e-3, beta=1e-9) == 1

    def test_cap_applies(self):
        k = optimal_chunk_count(1024, 1e12, alpha=1e-9, beta=1e-6,
                                max_chunks=256)
        assert k == 256

    def test_zero_alpha_returns_cap(self):
        assert optimal_chunk_count(8, 1e6, alpha=0.0, beta=1e-9,
                                   max_chunks=99) == 99

    @given(
        p=st.integers(min_value=2, max_value=1024),
        n=st.floats(min_value=1e3, max_value=1e9),
    )
    def test_always_at_least_one(self, p, n):
        assert optimal_chunk_count(p, n, alpha=2e-6, beta=1 / 25e9) >= 1

    @given(n=st.floats(min_value=1e4, max_value=1e9))
    def test_monotone_in_message_size(self, n):
        k1 = optimal_chunk_count(8, n, alpha=2e-6, beta=1e-9)
        k2 = optimal_chunk_count(8, 4 * n, alpha=2e-6, beta=1e-9)
        assert k2 >= k1

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            optimal_chunk_count(1, 1e6, alpha=1e-6, beta=1e-9)
        with pytest.raises(ConfigError):
            optimal_chunk_count(8, 0, alpha=1e-6, beta=1e-9)


class TestSplitBytes:
    @given(
        nbytes=st.floats(min_value=0, max_value=1e9),
        k=st.integers(min_value=1, max_value=512),
    )
    def test_sum_preserved(self, nbytes, k):
        sizes = split_bytes(nbytes, k)
        assert len(sizes) == k
        assert sum(sizes) == pytest.approx(nbytes, rel=1e-9, abs=1e-9)

    def test_equal_chunks(self):
        assert split_bytes(100.0, 4) == [25.0] * 4

    def test_invalid(self):
        with pytest.raises(ConfigError):
            split_bytes(10.0, 0)
        with pytest.raises(ConfigError):
            split_bytes(-1.0, 2)


class TestChunkOffsets:
    def test_offsets_are_prefix_sums(self):
        assert chunk_offsets([10.0, 20.0, 30.0]) == [0.0, 10.0, 30.0]

    def test_empty(self):
        assert chunk_offsets([]) == []


class TestChunksCovering:
    def test_exact_chunk(self):
        sizes = [10.0] * 4
        assert chunks_covering(sizes, (10.0, 20.0)) == [1]

    def test_spanning_range(self):
        sizes = [10.0] * 4
        assert chunks_covering(sizes, (5.0, 25.0)) == [0, 1, 2]

    def test_empty_range(self):
        sizes = [10.0] * 4
        assert chunks_covering(sizes, (10.0, 10.0)) == []

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            chunks_covering([10.0], (5.0, 1.0))

    @given(
        k=st.integers(min_value=1, max_value=64),
        lo=st.floats(min_value=0, max_value=999),
        width=st.floats(min_value=0.001, max_value=1000),
    )
    def test_every_nonempty_range_within_buffer_covered(self, k, lo, width):
        sizes = split_bytes(1000.0, k)
        hi = min(1000.0, lo + width)
        if hi <= lo:
            return
        covering = chunks_covering(sizes, (lo, hi))
        assert covering, (k, lo, hi)
        # Covering chunks are contiguous.
        assert covering == list(range(covering[0], covering[-1] + 1))
