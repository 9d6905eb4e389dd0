"""Planar geometry and tag deployment generators.

The paper evaluates CCM on tags placed uniformly at random inside a disk of
radius 30 m with the reader at the centre (Sec. VI-A).  This module provides
that deployment plus a few others (annulus, clustered, grid) that the
examples and robustness experiments use, together with the distance helpers
the topology layer builds on.

Positions are held as an ``(n, 2)`` float64 numpy array; all generators are
driven by an explicit ``numpy.random.Generator`` so trials are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Point:
    """A point in the deployment plane (metres)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=np.float64)


ORIGIN = Point(0.0, 0.0)


def pairwise_distance(positions: np.ndarray, point: Point) -> np.ndarray:
    """Euclidean distance from every row of ``positions`` to ``point``."""
    d = positions - np.array([point.x, point.y])
    return np.hypot(d[:, 0], d[:, 1])


def disk_area(radius: float) -> float:
    """Area of a disk (m^2)."""
    return math.pi * radius * radius


def density_for(n_tags: int, radius: float) -> float:
    """Tag density rho = n / (pi * radius^2), as in Sec. VI-A."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return n_tags / disk_area(radius)


def _rng(rng: Optional[np.random.Generator], seed: Optional[int]) -> np.random.Generator:
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def uniform_disk(
    n_tags: int,
    radius: float,
    center: Point = ORIGIN,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Place ``n_tags`` uniformly at random in a disk.

    Uses the inverse-CDF radius transform (``R*sqrt(u)``) so the density is
    uniform in area, matching the paper's deployment.
    """
    if n_tags < 0:
        raise ValueError("n_tags must be non-negative")
    if radius <= 0:
        raise ValueError("radius must be positive")
    gen = _rng(rng, seed)
    r = radius * np.sqrt(gen.random(n_tags))
    theta = gen.random(n_tags) * 2.0 * math.pi
    pos = np.empty((n_tags, 2), dtype=np.float64)
    pos[:, 0] = center.x + r * np.cos(theta)
    pos[:, 1] = center.y + r * np.sin(theta)
    return pos


def uniform_annulus(
    n_tags: int,
    inner_radius: float,
    outer_radius: float,
    center: Point = ORIGIN,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Place tags uniformly in an annulus (e.g. shelving around a reader)."""
    if not 0 <= inner_radius < outer_radius:
        raise ValueError("need 0 <= inner_radius < outer_radius")
    gen = _rng(rng, seed)
    lo, hi = inner_radius**2, outer_radius**2
    r = np.sqrt(lo + (hi - lo) * gen.random(n_tags))
    theta = gen.random(n_tags) * 2.0 * math.pi
    pos = np.empty((n_tags, 2), dtype=np.float64)
    pos[:, 0] = center.x + r * np.cos(theta)
    pos[:, 1] = center.y + r * np.sin(theta)
    return pos


def clustered_disk(
    n_tags: int,
    radius: float,
    n_clusters: int,
    cluster_sigma: float,
    center: Point = ORIGIN,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Place tags in Gaussian clusters whose centres are uniform in the disk.

    Models palletised stock: tags bunch on pallets rather than spreading
    evenly.  Samples falling outside the disk are radially clamped onto it
    so the deployment region matches the reader's coverage assumption.
    """
    if n_clusters <= 0:
        raise ValueError("n_clusters must be positive")
    if cluster_sigma < 0:
        raise ValueError("cluster_sigma must be non-negative")
    gen = _rng(rng, seed)
    centers = uniform_disk(n_clusters, radius * 0.9, center, rng=gen)
    assignment = gen.integers(0, n_clusters, size=n_tags)
    pos = centers[assignment] + gen.normal(0.0, cluster_sigma, size=(n_tags, 2))
    # Clamp strays back onto the disk boundary.
    offset = pos - np.array([center.x, center.y])
    dist = np.hypot(offset[:, 0], offset[:, 1])
    outside = dist > radius
    if np.any(outside):
        scale = radius / dist[outside]
        pos[outside] = (
            np.array([center.x, center.y]) + offset[outside] * scale[:, None]
        )
    return pos


def grid_deployment(
    rows: int,
    cols: int,
    spacing: float,
    center: Point = ORIGIN,
    jitter: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Place tags on a ``rows x cols`` grid (warehouse racking), optionally
    jittered by a uniform offset in ``[-jitter, jitter]`` per axis."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing + center.x
    ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing + center.y
    gx, gy = np.meshgrid(xs, ys)
    pos = np.column_stack([gx.ravel(), gy.ravel()]).astype(np.float64)
    if jitter > 0:
        gen = _rng(rng, seed)
        pos += gen.uniform(-jitter, jitter, size=pos.shape)
    return pos


class GridIndex:
    """Uniform-grid spatial index for fixed-radius neighbour queries.

    Bins the positions into square cells of side ``cell_size`` and answers
    "all points within ``radius`` of point i" by scanning the 3x3 cell
    neighbourhood.  With ``cell_size == radius`` this is exact and runs in
    expected O(occupancy) per query — the standard structure for building
    random geometric graphs at n = 10,000 scale.
    """

    def __init__(self, positions: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        self.positions = np.asarray(positions, dtype=np.float64)
        self.cell_size = float(cell_size)
        self._cells: dict = {}
        cx = np.floor(self.positions[:, 0] / cell_size).astype(np.int64)
        cy = np.floor(self.positions[:, 1] / cell_size).astype(np.int64)
        for i, key in enumerate(zip(cx.tolist(), cy.tolist())):
            self._cells.setdefault(key, []).append(i)
        self._cells = {k: np.array(v, dtype=np.int64) for k, v in self._cells.items()}

    def _candidates(self, cx: int, cy: int) -> np.ndarray:
        """Points of cell ``(cx, cy)``'s 3x3 neighbourhood, cell by cell in
        ``dx`` then ``dy`` order, each cell's points ascending."""
        chunks = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cell = self._cells.get((cx + dx, cy + dy))
                if cell is not None:
                    chunks.append(cell)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def _check_radius(self, radius: float) -> None:
        if radius > self.cell_size + 1e-12:
            raise ValueError(
                f"radius {radius} exceeds cell size {self.cell_size}; "
                "build the index with cell_size >= radius"
            )

    def query_point(self, point: Point, radius: float) -> np.ndarray:
        """Indices of stored points within ``radius`` of ``point``."""
        self._check_radius(radius)
        cand = self._candidates(
            math.floor(point.x / self.cell_size), math.floor(point.y / self.cell_size)
        )
        if cand.size == 0:
            return cand
        d = self.positions[cand] - np.array([point.x, point.y])
        keep = d[:, 0] ** 2 + d[:, 1] ** 2 <= radius * radius
        return cand[keep]

    def query_index(self, i: int, radius: float) -> np.ndarray:
        """Indices of stored points within ``radius`` of stored point ``i``
        (excluding ``i`` itself)."""
        x, y = self.positions[i]
        out = self.query_point(Point(float(x), float(y)), radius)
        return out[out != i]

    def neighbor_lists(self, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """All-pairs fixed-radius neighbours in CSR form.

        Returns ``(indptr, indices)`` (int64, int32): the neighbours of
        point ``i`` are ``indices[indptr[i]:indptr[i+1]]``, in
        :meth:`query_index` order.  Symmetric by construction (the link
        model of Sec. II is distance-based).  The distance blocks are
        evaluated twice, to count each row and then to fill the CSR
        preallocated from those counts, so peak memory is one CSR.
        """
        self._check_radius(radius)
        indptr = np.zeros(self.positions.shape[0] + 1, dtype=np.int64)
        for rows, _, hits in self._blocks(radius):
            indptr[rows + 1] = np.count_nonzero(hits, axis=1)
        np.cumsum(indptr, out=indptr)
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        for rows, cand, hits in self._blocks(radius):
            hit_ids = np.extract(hits, np.broadcast_to(cand, hits.shape))
            indices[csr_positions(indptr, rows)] = hit_ids
        return indptr, indices

    def _blocks(self, radius: float, max_elems: int = 1 << 16):
        """Yield ``(rows, cand, hits)``: runs of each cell's points, the
        cell's :meth:`_candidates` (int32) and the block "candidate within
        ``radius`` of the row's point, and not that point" — evaluated with
        :meth:`query_point`'s float expression, at most ``max_elems``
        entries per block."""
        xs, ys = self.positions[:, 0], self.positions[:, 1]
        for (cx, cy), members in self._cells.items():
            cand = self._candidates(cx, cy)
            own = int(np.argmax(cand == members[0]))  # the cell's first point
            cand_x, cand_y = xs[cand], ys[cand]
            cand = cand.astype(np.int32)
            step = max(1, max_elems // cand.size)
            for lo in range(0, members.size, step):
                rows = members[lo : lo + step]
                d = (cand_x - xs[rows, None]) ** 2
                d += (cand_y - ys[rows, None]) ** 2
                hits = d <= radius * radius
                k = np.arange(rows.size)
                hits[k, own + lo + k] = False
                yield rows, cand, hits


def csr_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Flat positions of the CSR entries of ``rows``, row by row in the
    given order, without a per-row loop."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    pos = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    pos += np.arange(pos.size)
    return pos


def csr_row_runs(
    indptr: np.ndarray, rows: np.ndarray, max_entries: int = 1 << 16
) -> List[np.ndarray]:
    """Split ``rows`` where their running CSR entry count crosses a
    multiple of ``max_entries``, bounding per-entry temporaries: a run
    holds fewer than ``max_entries`` entries beyond its first row's."""
    ends = np.cumsum(indptr[rows + 1] - indptr[rows])
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(max_entries, total, max_entries))
    return [run for run in np.split(rows, cuts) if run.size]
