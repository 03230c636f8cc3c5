"""d-dimensional Hilbert space-filling curve (encode and decode).

Theorem 2 of the paper proves the Hilbert curve is a *perfect partition
function* for the join hyper-cube: cutting the curve into equal segments
touches the same proportion of every dimension, which minimises the tuple
duplication score of Equation 7.  This module provides the curve itself:
a bijection between linear curve positions and grid cells of a
``dims``-dimensional cube with ``2**bits`` cells per side.

The implementation follows John Skilling, "Programming the Hilbert
curve" (AIP Conf. Proc. 707, 2004): axes <-> transpose-form Gray-code
transforms, plus the bit interleaving between the transpose form and the
integer curve index.

Two layers:

* the scalar functions :func:`index_to_point` / :func:`point_to_index`
  are the *reference implementation* — kept deliberately simple;
* :func:`curve_tables` memoizes the full ``index -> point`` and flattened
  ``point -> index`` arrays per ``(bits, dims)`` (grids are capped at
  2^14 cells by the partitioner, so tables are small), and
  :func:`decode_many` / :func:`encode_many` batch-convert through the
  tables, with NumPy-vectorized transforms up to 62 index bits and the
  pure-Python codec beyond.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import PartitionError

#: Largest grid whose codec tables are cached (matches the partitioner's
#: MAX_GRID_CELLS; bigger grids fall back to direct computation).
MAX_TABLE_CELLS = 1 << 14


def _validate(bits: int, dims: int) -> None:
    if bits < 1:
        raise PartitionError(f"bits must be >= 1, got {bits}")
    if dims < 1:
        raise PartitionError(f"dims must be >= 1, got {dims}")


def _transpose_to_axes(x: List[int], bits: int, dims: int) -> List[int]:
    """Skilling's TransposetoAxes: transpose-form index -> coordinates."""
    n = dims
    # Gray decode by H ^ (H/2).
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # Undo excess work.
    q = 2
    top = 1 << bits
    while q != top:
        p = q - 1
        for i in range(n - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def _axes_to_transpose(x: List[int], bits: int, dims: int) -> List[int]:
    """Skilling's AxestoTranspose: coordinates -> transpose-form index."""
    n = dims
    m = 1 << (bits - 1)
    # Inverse undo.
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def _index_to_transpose(index: int, bits: int, dims: int) -> List[int]:
    """Unpack the ``bits*dims``-bit curve index into the transpose form.

    Bit ``b`` (counting from the most significant) of coordinate slot
    ``d`` comes from index bit ``(bits-1-b)*dims + (dims-1-d)``.
    """
    x = [0] * dims
    for b in range(bits):
        for d in range(dims):
            source = (bits - 1 - b) * dims + (dims - 1 - d)
            if (index >> source) & 1:
                x[d] |= 1 << (bits - 1 - b)
    return x


def _transpose_to_index(x: Sequence[int], bits: int, dims: int) -> int:
    index = 0
    for b in range(bits):
        for d in range(dims):
            if (x[d] >> (bits - 1 - b)) & 1:
                index |= 1 << ((bits - 1 - b) * dims + (dims - 1 - d))
    return index


def index_to_point(index: int, bits: int, dims: int) -> Tuple[int, ...]:
    """Grid cell at position ``index`` along the Hilbert curve.

    ``index`` must lie in ``[0, 2**(bits*dims))``; the returned coordinates
    each lie in ``[0, 2**bits)``.
    """
    _validate(bits, dims)
    total = 1 << (bits * dims)
    if not 0 <= index < total:
        raise PartitionError(f"index {index} outside [0, {total})")
    transpose = _index_to_transpose(index, bits, dims)
    return tuple(_transpose_to_axes(transpose, bits, dims))


def point_to_index(point: Sequence[int], bits: int, dims: int) -> int:
    """Hilbert curve position of grid cell ``point`` (inverse of above)."""
    _validate(bits, dims)
    if len(point) != dims:
        raise PartitionError(f"point has {len(point)} coords, expected {dims}")
    side = 1 << bits
    for coordinate in point:
        if not 0 <= coordinate < side:
            raise PartitionError(f"coordinate {coordinate} outside [0, {side})")
    transpose = _axes_to_transpose(list(point), bits, dims)
    return _transpose_to_index(transpose, bits, dims)


def curve_length(bits: int, dims: int) -> int:
    """Number of cells on the curve: ``2**(bits*dims)``."""
    _validate(bits, dims)
    return 1 << (bits * dims)


def walk(bits: int, dims: int):
    """Iterate all grid cells in Hilbert order (generator of tuples)."""
    tables = curve_tables(bits, dims)
    if tables is not None:
        yield from tables.points
        return
    for index in range(curve_length(bits, dims)):
        yield index_to_point(index, bits, dims)


# ---------------------------------------------------------------------------
# memoized codec tables and batch APIs
# ---------------------------------------------------------------------------


class CurveTables:
    """Precomputed codec for one ``(bits, dims)`` grid.

    ``points[i]`` is the cell at curve position ``i``; ``flat_to_index``
    maps the row-major flattened cell id (``sum(coord * side**(dims-1-d))``)
    back to the curve position.  Both are plain sequences so lookups are
    single array accesses in the hot partition/ownership paths.
    """

    __slots__ = ("bits", "dims", "side", "num_cells", "points", "flat_to_index")

    def __init__(self, bits: int, dims: int) -> None:
        self.bits = bits
        self.dims = dims
        self.side = 1 << bits
        self.num_cells = 1 << (bits * dims)
        self.points: Tuple[Tuple[int, ...], ...] = tuple(
            map(tuple, _decode_block(self.num_cells, bits, dims))
        )
        flat: List[int] = [0] * self.num_cells
        side = self.side
        for index, point in enumerate(self.points):
            f = 0
            for coordinate in point:
                f = f * side + coordinate
            flat[f] = index
        self.flat_to_index: Tuple[int, ...] = tuple(flat)

    def flat_of(self, point: Sequence[int]) -> int:
        """Row-major flattened id of a grid cell."""
        f = 0
        for coordinate in point:
            f = f * self.side + coordinate
        return f

    def decode(self, index: int) -> Tuple[int, ...]:
        return self.points[index]

    def encode(self, point: Sequence[int]) -> int:
        return self.flat_to_index[self.flat_of(point)]


_TABLES: Dict[Tuple[int, int], CurveTables] = {}


def curve_tables(bits: int, dims: int) -> Optional[CurveTables]:
    """The memoized codec tables, or ``None`` when the grid exceeds the cap."""
    _validate(bits, dims)
    if (1 << (bits * dims)) > MAX_TABLE_CELLS:
        return None
    key = (bits, dims)
    tables = _TABLES.get(key)
    if tables is None:
        tables = _TABLES[key] = CurveTables(bits, dims)
    return tables


def decode_many(
    indices: Iterable[int], bits: int, dims: int
) -> List[Tuple[int, ...]]:
    """Batch ``index -> point``; table lookup when cached, else vectorized.

    Validates like the scalar reference: out-of-range indices raise
    :class:`PartitionError` instead of silently aliasing.
    """
    tables = curve_tables(bits, dims)
    total = 1 << (bits * dims)
    if tables is not None:
        points = tables.points
        out: List[Tuple[int, ...]] = []
        for index in indices:
            if not 0 <= index < total:
                raise PartitionError(f"index {index} outside [0, {total})")
            out.append(points[index])
        return out
    checked = list(indices)
    for index in checked:
        if not 0 <= index < total:
            raise PartitionError(f"index {index} outside [0, {total})")
    return [tuple(p) for p in _decode_batch(checked, bits, dims)]


def encode_many(
    points: Iterable[Sequence[int]], bits: int, dims: int
) -> List[int]:
    """Batch ``point -> index``; table lookup when cached, else vectorized.

    Validates like the scalar reference: wrong arity or out-of-range
    coordinates raise :class:`PartitionError` instead of aliasing into a
    different cell.
    """
    side = 1 << bits

    def check(point: Sequence[int]) -> None:
        if len(point) != dims:
            raise PartitionError(
                f"point has {len(point)} coords, expected {dims}"
            )
        for coordinate in point:
            if not 0 <= coordinate < side:
                raise PartitionError(
                    f"coordinate {coordinate} outside [0, {side})"
                )

    tables = curve_tables(bits, dims)
    if tables is not None:
        flat_to_index = tables.flat_to_index
        out: List[int] = []
        for point in points:
            check(point)
            f = 0
            for coordinate in point:
                f = f * side + coordinate
            out.append(flat_to_index[f])
        return out
    checked = list(points)
    for point in checked:
        check(point)
    return _encode_batch(checked, bits, dims)


def _decode_block(count: int, bits: int, dims: int) -> List[Sequence[int]]:
    """Decode curve positions ``0..count-1`` (used for table construction)."""
    return _decode_batch(range(count), bits, dims)


def _decode_batch(indices, bits: int, dims: int) -> List[Sequence[int]]:
    if bits * dims <= 62:
        # tolist() materializes plain Python ints: downstream consumers
        # (shuffle keys, stable_hash) must never see numpy scalars.
        return _decode_many_numpy(indices, bits, dims).tolist()
    return [index_to_point(i, bits, dims) for i in indices]


def _encode_batch(points, bits: int, dims: int) -> List[int]:
    if not points:
        # np.asarray([]) is 1-D; the transpose transform needs (n, dims).
        return []
    if bits * dims <= 62:
        return [int(i) for i in _encode_many_numpy(points, bits, dims)]
    return [point_to_index(p, bits, dims) for p in points]


def _decode_many_numpy(indices, bits: int, dims: int):
    """Vectorized Skilling decode over an array of curve indices."""
    idx = _np.asarray(indices, dtype=_np.int64)
    n = dims
    x = _np.zeros((n, idx.shape[0]), dtype=_np.int64)
    # Unpack the transpose form (cf. _index_to_transpose).
    for b in range(bits):
        for d in range(dims):
            source = (bits - 1 - b) * dims + (dims - 1 - d)
            x[d] |= ((idx >> source) & 1) << (bits - 1 - b)
    # TransposetoAxes (cf. _transpose_to_axes).
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    q = 2
    top = 1 << bits
    while q != top:
        p = q - 1
        for i in range(n - 1, -1, -1):
            cond = (x[i] & q) != 0
            if i == 0:
                # The else-branch is a no-op for i == 0 (t would be 0).
                x[0] = _np.where(cond, x[0] ^ p, x[0])
            else:
                swap = (x[0] ^ x[i]) & p
                x0 = _np.where(cond, x[0] ^ p, x[0] ^ swap)
                xi = _np.where(cond, x[i], x[i] ^ swap)
                x[0] = x0
                x[i] = xi
        q <<= 1
    return x.T


def _encode_many_numpy(points, bits: int, dims: int):
    """Vectorized Skilling encode over an array of grid points."""
    pts = _np.asarray(points, dtype=_np.int64)
    n = dims
    x = pts.T.copy()
    # AxestoTranspose (cf. _axes_to_transpose).
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            cond = (x[i] & q) != 0
            if i == 0:
                x[0] = _np.where(cond, x[0] ^ p, x[0])
            else:
                swap = (x[0] ^ x[i]) & p
                x0 = _np.where(cond, x[0] ^ p, x[0] ^ swap)
                xi = _np.where(cond, x[i], x[i] ^ swap)
                x[0] = x0
                x[i] = xi
        q >>= 1
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = _np.zeros(x.shape[1], dtype=_np.int64)
    q = m
    while q > 1:
        t = _np.where((x[n - 1] & q) != 0, t ^ (q - 1), t)
        q >>= 1
    for i in range(n):
        x[i] ^= t
    # Pack the transpose form (cf. _transpose_to_index).
    index = _np.zeros(x.shape[1], dtype=_np.int64)
    for b in range(bits):
        for d in range(dims):
            bit = (x[d] >> (bits - 1 - b)) & 1
            index |= bit << ((bits - 1 - b) * dims + (dims - 1 - d))
    return index
