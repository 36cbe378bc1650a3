"""Block-grid quantisation of the service area.

The SDC's service area is a ``rows × cols`` grid of square blocks; the
paper's flat block index ``b ∈ [0, B)`` is row-major.  The default block
size is 10 m × 10 m, "as pointed out in [36]" (§IV-A2).

The grid also memoises pairwise block-centre distances, which the SU
request preparation (eq. (5)) evaluates for every (channel, block) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import GridError

__all__ = ["Block", "BlockGrid"]


@dataclass(frozen=True)
class Block:
    """A single grid block."""

    index: int
    row: int
    col: int
    center_x_m: float
    center_y_m: float


class BlockGrid:
    """A row-major grid of square blocks covering the service area.

    The grid's lower-left corner is the metric origin ``(0, 0)``.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; ``B = rows * cols``.
    block_size_m:
        Side of each square block (paper: 10 m).
    """

    def __init__(self, rows: int, cols: int, block_size_m: float = 10.0) -> None:
        if rows < 1 or cols < 1:
            raise GridError("grid dimensions must be positive")
        if block_size_m <= 0:
            raise GridError("block size must be positive")
        self.rows = rows
        self.cols = cols
        self.block_size_m = float(block_size_m)

    # -- basic queries ------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Total block count ``B``."""
        return self.rows * self.cols

    @property
    def width_m(self) -> float:
        return self.cols * self.block_size_m

    @property
    def height_m(self) -> float:
        return self.rows * self.block_size_m

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_blocks:
            raise GridError(f"block index {index} outside [0, {self.num_blocks})")

    def block(self, index: int) -> Block:
        """Return the :class:`Block` for a flat row-major index."""
        self._check_index(index)
        row, col = divmod(index, self.cols)
        return Block(
            index=index,
            row=row,
            col=col,
            center_x_m=(col + 0.5) * self.block_size_m,
            center_y_m=(row + 0.5) * self.block_size_m,
        )

    def index_of(self, row: int, col: int) -> int:
        """Flat index for ``(row, col)`` coordinates."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise GridError(f"({row}, {col}) outside a {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def block_at(self, x_m: float, y_m: float) -> Block:
        """The block containing metric point ``(x, y)``."""
        col = math.floor(x_m / self.block_size_m)
        row = math.floor(y_m / self.block_size_m)
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise GridError(f"point ({x_m}, {y_m}) outside the service area")
        return self.block(self.index_of(row, col))

    def blocks(self):
        """Iterate over all blocks in flat-index order."""
        for index in range(self.num_blocks):
            yield self.block(index)

    # -- distances ------------------------------------------------------------

    def distance_m(self, index_a: int, index_b: int) -> float:
        """Centre-to-centre distance between two blocks, in metres."""
        self._check_index(index_a)
        self._check_index(index_b)
        return self._distance_by_offset(
            abs(index_a // self.cols - index_b // self.cols),
            abs(index_a % self.cols - index_b % self.cols),
        )

    @lru_cache(maxsize=65536)
    def _distance_by_offset(self, d_row: int, d_col: int) -> float:
        return math.hypot(d_row, d_col) * self.block_size_m

    def blocks_within(self, center_index: int, radius_m: float) -> list[int]:
        """Flat indices of all blocks whose centre is within ``radius_m``.

        Used to restrict eq. (5)/(6) to PU blocks within the exclusion
        distance ``d^c`` of the SU.
        """
        self._check_index(center_index)
        if radius_m < 0:
            raise GridError("radius must be non-negative")
        c_row, c_col = divmod(center_index, self.cols)
        reach = int(radius_m / self.block_size_m) + 1
        result = []
        for row in range(max(0, c_row - reach), min(self.rows, c_row + reach + 1)):
            for col in range(max(0, c_col - reach), min(self.cols, c_col + reach + 1)):
                if (
                    self._distance_by_offset(abs(row - c_row), abs(col - c_col))
                    <= radius_m
                ):
                    result.append(row * self.cols + col)
        return result

    def __repr__(self) -> str:
        return (
            f"BlockGrid(rows={self.rows}, cols={self.cols}, "
            f"block_size_m={self.block_size_m})"
        )
