"""Property tests: the cached/batch Hilbert codec is bit-identical to the
scalar Skilling reference implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hilbert
from repro.core.hilbert import (
    MAX_TABLE_CELLS,
    curve_length,
    curve_tables,
    decode_many,
    encode_many,
    index_to_point,
    point_to_index,
)
from repro.errors import PartitionError


@st.composite
def bits_dims(draw):
    dims = draw(st.integers(min_value=1, max_value=4))
    max_bits = {1: 8, 2: 5, 3: 3, 4: 2}[dims]
    bits = draw(st.integers(min_value=1, max_value=max_bits))
    return bits, dims


class TestTables:
    def test_tables_cached_and_reused(self):
        a = curve_tables(3, 2)
        b = curve_tables(3, 2)
        assert a is b
        assert a.num_cells == curve_length(3, 2)

    def test_tables_none_above_cap(self):
        # 2^(8*2) = 65536 cells > MAX_TABLE_CELLS: no table is built.
        assert (1 << 16) > MAX_TABLE_CELLS
        assert curve_tables(8, 2) is None

    def test_table_decode_matches_reference(self):
        tables = curve_tables(4, 2)
        for index in range(tables.num_cells):
            assert tables.decode(index) == index_to_point(index, 4, 2)

    def test_table_encode_matches_reference(self):
        tables = curve_tables(2, 3)
        for index in range(tables.num_cells):
            point = index_to_point(index, 2, 3)
            assert tables.encode(point) == point_to_index(point, 2, 3)

    def test_invalid_arguments_still_rejected(self):
        with pytest.raises(PartitionError):
            curve_tables(0, 2)
        with pytest.raises(PartitionError):
            decode_many([0], 2, 0)

    def test_batch_apis_validate_like_reference(self):
        """Out-of-range batch input raises instead of silently aliasing
        into a different cell (regression: row-major flat aliasing)."""
        with pytest.raises(PartitionError):
            encode_many([(0, 8)], 3, 2)  # coordinate >= side
        with pytest.raises(PartitionError):
            encode_many([(0, -1)], 3, 2)  # negative coordinate
        with pytest.raises(PartitionError):
            encode_many([(0, 1, 2)], 3, 2)  # wrong arity
        with pytest.raises(PartitionError):
            decode_many([64], 3, 2)  # index >= curve length
        with pytest.raises(PartitionError):
            decode_many([-1], 3, 2)
        # Above the table cap the same validation applies.
        with pytest.raises(PartitionError):
            decode_many([1 << 16], 8, 2)
        with pytest.raises(PartitionError):
            encode_many([(0, 256)], 8, 2)

    def test_empty_batches(self):
        """Empty input returns empty output on every path (regression:
        the above-cap numpy encode crashed on an empty 1-D array)."""
        assert decode_many([], 3, 2) == []
        assert encode_many([], 3, 2) == []
        assert decode_many([], 8, 2) == []
        assert encode_many([], 8, 2) == []


class TestBatchProperties:
    @given(bits_dims(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_decode_many_bit_identical_to_scalar(self, bd, data):
        bits, dims = bd
        n = curve_length(bits, dims)
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=64
            )
        )
        batch = decode_many(indices, bits, dims)
        assert [tuple(p) for p in batch] == [
            index_to_point(i, bits, dims) for i in indices
        ]

    @given(bits_dims(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_encode_many_bit_identical_to_scalar(self, bd, data):
        bits, dims = bd
        side = 1 << bits
        points = data.draw(
            st.lists(
                st.tuples(
                    *[
                        st.integers(min_value=0, max_value=side - 1)
                        for _ in range(dims)
                    ]
                ),
                min_size=1,
                max_size=64,
            )
        )
        batch = encode_many(points, bits, dims)
        assert list(batch) == [point_to_index(p, bits, dims) for p in points]

    @given(bits_dims())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_through_batch_apis(self, bd):
        bits, dims = bd
        n = min(curve_length(bits, dims), 2048)
        points = decode_many(range(n), bits, dims)
        assert encode_many(points, bits, dims) == list(range(n))

    @pytest.mark.parametrize("bits,dims", [(8, 2), (5, 3), (4, 4)])
    def test_above_cap_paths_match_scalar(self, bits, dims):
        """Grids above the table cap use the direct (vectorized) path."""
        n = curve_length(bits, dims)
        sample = list(range(0, n, max(1, n // 257)))
        reference = [index_to_point(i, bits, dims) for i in sample]
        assert [tuple(p) for p in decode_many(sample, bits, dims)] == reference
        assert encode_many(reference, bits, dims) == sample


class TestNumpyFallback:
    def test_pure_python_fallback_matches(self):
        """Past 62 index bits the batch APIs fall back to scalar loops;
        both sides of that size gate match the scalar codec."""
        for bits, dims in ((31, 2), (32, 2)):
            top = curve_length(bits, dims) - 1
            indices = [0, 1, 2, top // 3, top - 1, top]
            reference = [tuple(index_to_point(i, bits, dims)) for i in indices]
            assert [
                tuple(p) for p in hilbert._decode_batch(indices, bits, dims)
            ] == reference
            assert hilbert._encode_batch(reference, bits, dims) == indices
