"""Unit tests for the service-area block grid."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GridError
from repro.geo.grid import BlockGrid


@pytest.fixture()
def grid():
    return BlockGrid(rows=4, cols=6, block_size_m=10.0)


class TestBasics:
    def test_dimensions(self, grid):
        assert grid.num_blocks == 24
        assert grid.width_m == 60.0
        assert grid.height_m == 40.0

    def test_validation(self):
        with pytest.raises(GridError):
            BlockGrid(rows=0, cols=5)
        with pytest.raises(GridError):
            BlockGrid(rows=5, cols=5, block_size_m=0.0)

    def test_block_lookup_row_major(self, grid):
        block = grid.block(7)  # row 1, col 1
        assert (block.row, block.col) == (1, 1)
        assert block.center_x_m == pytest.approx(15.0)
        assert block.center_y_m == pytest.approx(15.0)

    def test_index_of_inverse(self, grid):
        for index in range(grid.num_blocks):
            block = grid.block(index)
            assert grid.index_of(block.row, block.col) == index

    def test_index_bounds(self, grid):
        with pytest.raises(GridError):
            grid.block(24)
        with pytest.raises(GridError):
            grid.block(-1)
        with pytest.raises(GridError):
            grid.index_of(4, 0)

    def test_blocks_iterator(self, grid):
        blocks = list(grid.blocks())
        assert len(blocks) == 24
        assert [b.index for b in blocks] == list(range(24))

    def test_lower_left_corner_is_origin(self):
        grid = BlockGrid(rows=2, cols=2, block_size_m=10.0)
        assert grid.block(0).center_x_m == 5.0
        assert grid.block(0).center_y_m == 5.0
        assert grid.block_at(0.0, 0.0).index == 0


class TestBlockAt:
    def test_point_lookup(self, grid):
        assert grid.block_at(0.1, 0.1).index == 0
        assert grid.block_at(59.9, 39.9).index == 23
        assert grid.block_at(25.0, 15.0).index == grid.index_of(1, 2)

    def test_outside_raises(self, grid):
        with pytest.raises(GridError):
            grid.block_at(-0.1, 5.0)
        with pytest.raises(GridError):
            grid.block_at(5.0, 40.1)


class TestDistances:
    def test_adjacent_blocks(self, grid):
        assert grid.distance_m(0, 1) == pytest.approx(10.0)
        assert grid.distance_m(0, 6) == pytest.approx(10.0)

    def test_diagonal(self, grid):
        assert grid.distance_m(0, 7) == pytest.approx(10.0 * math.sqrt(2))

    def test_symmetry(self, grid):
        for a, b in ((0, 23), (5, 18), (11, 12)):
            assert grid.distance_m(a, b) == grid.distance_m(b, a)

    def test_self_distance_zero(self, grid):
        assert grid.distance_m(9, 9) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(a=st.integers(0, 23), b=st.integers(0, 23), c=st.integers(0, 23))
    def test_triangle_inequality(self, a, b, c):
        grid = BlockGrid(rows=4, cols=6, block_size_m=10.0)
        assert grid.distance_m(a, c) <= grid.distance_m(a, b) + grid.distance_m(b, c) + 1e-9


class TestBlocksWithin:
    def test_zero_radius_is_self(self, grid):
        assert grid.blocks_within(9, 0.0) == [9]

    def test_small_radius_cross(self, grid):
        result = set(grid.blocks_within(9, 10.0))
        assert result == {3, 8, 9, 10, 15}

    def test_large_radius_covers_all(self, grid):
        assert set(grid.blocks_within(0, 1000.0)) == set(range(24))

    def test_respects_boundaries(self, grid):
        result = set(grid.blocks_within(0, 10.0))
        assert result == {0, 1, 6}

    def test_negative_radius_raises(self, grid):
        with pytest.raises(GridError):
            grid.blocks_within(0, -5.0)

    def test_all_returned_within_radius(self, grid):
        radius = 25.0
        for index in grid.blocks_within(9, radius):
            assert grid.distance_m(9, index) <= radius
