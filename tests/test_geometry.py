"""Unit tests for repro.net.geometry — deployments and spatial index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.geometry import (
    GridIndex,
    Point,
    clustered_disk,
    csr_positions,
    csr_row_runs,
    density_for,
    disk_area,
    grid_deployment,
    pairwise_distance,
    uniform_annulus,
    uniform_disk,
)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_as_array(self):
        arr = Point(1.5, -2.0).as_array()
        assert arr.tolist() == [1.5, -2.0]


class TestScalars:
    def test_disk_area(self):
        assert disk_area(30.0) == pytest.approx(math.pi * 900)

    def test_density_matches_paper(self):
        # Sec. VI-A: rho = 10,000 / (pi * 30^2) ~ 3.54
        assert density_for(10_000, 30.0) == pytest.approx(3.5368, abs=1e-3)

    def test_density_invalid_radius(self):
        with pytest.raises(ValueError):
            density_for(10, 0.0)

    def test_pairwise_distance(self):
        pos = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_distance(pos, Point(0.0, 0.0))
        assert d.tolist() == [0.0, 5.0]


class TestUniformDisk:
    def test_all_inside(self):
        pos = uniform_disk(500, 10.0, seed=1)
        assert np.all(np.hypot(pos[:, 0], pos[:, 1]) <= 10.0 + 1e-9)

    def test_shape(self):
        assert uniform_disk(7, 1.0, seed=0).shape == (7, 2)

    def test_zero_tags(self):
        assert uniform_disk(0, 1.0, seed=0).shape == (0, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            uniform_disk(-1, 1.0)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            uniform_disk(5, 0.0)

    def test_seed_reproducible(self):
        a = uniform_disk(100, 5.0, seed=9)
        b = uniform_disk(100, 5.0, seed=9)
        assert np.array_equal(a, b)

    def test_uniform_in_area(self):
        """Half the points should fall inside radius R/sqrt(2)."""
        pos = uniform_disk(20_000, 10.0, seed=4)
        inner = np.hypot(pos[:, 0], pos[:, 1]) <= 10.0 / math.sqrt(2)
        assert abs(inner.mean() - 0.5) < 0.02

    def test_center_offset(self):
        pos = uniform_disk(200, 1.0, center=Point(100.0, -50.0), seed=2)
        d = pairwise_distance(pos, Point(100.0, -50.0))
        assert np.all(d <= 1.0 + 1e-9)


class TestAnnulus:
    def test_radial_bounds(self):
        pos = uniform_annulus(500, 5.0, 10.0, seed=3)
        d = np.hypot(pos[:, 0], pos[:, 1])
        assert np.all(d >= 5.0 - 1e-9)
        assert np.all(d <= 10.0 + 1e-9)

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            uniform_annulus(10, 5.0, 5.0)
        with pytest.raises(ValueError):
            uniform_annulus(10, -1.0, 5.0)


class TestClustered:
    def test_inside_disk(self):
        pos = clustered_disk(400, 20.0, n_clusters=5, cluster_sigma=3.0, seed=8)
        assert np.all(np.hypot(pos[:, 0], pos[:, 1]) <= 20.0 + 1e-6)

    def test_clusters_are_tight(self):
        pos = clustered_disk(400, 50.0, n_clusters=2, cluster_sigma=0.5, seed=8)
        # With 2 tight clusters the mean nearest-neighbour distance is tiny
        # compared to the field radius.
        from repro.net.geometry import GridIndex

        index = GridIndex(pos, cell_size=5.0)
        degrees = [index.query_index(i, 5.0).size for i in range(50)]
        assert np.mean(degrees) > 50

    def test_validation(self):
        with pytest.raises(ValueError):
            clustered_disk(10, 5.0, n_clusters=0, cluster_sigma=1.0)
        with pytest.raises(ValueError):
            clustered_disk(10, 5.0, n_clusters=2, cluster_sigma=-1.0)


class TestGrid:
    def test_count_and_spacing(self):
        pos = grid_deployment(3, 4, spacing=2.0)
        assert pos.shape == (12, 2)
        xs = sorted(set(pos[:, 0].tolist()))
        assert xs == pytest.approx([-3.0, -1.0, 1.0, 3.0])

    def test_jitter_bounded(self):
        base = grid_deployment(5, 5, spacing=1.0)
        jittered = grid_deployment(5, 5, spacing=1.0, jitter=0.1, seed=1)
        assert np.max(np.abs(base - jittered)) <= 0.1 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_deployment(0, 3, spacing=1.0)
        with pytest.raises(ValueError):
            grid_deployment(3, 3, spacing=0.0)


class TestGridIndex:
    def _brute_neighbors(self, pos, i, radius):
        d = np.hypot(pos[:, 0] - pos[i, 0], pos[:, 1] - pos[i, 1])
        out = np.flatnonzero(d <= radius)
        return set(out.tolist()) - {i}

    def test_matches_brute_force(self):
        pos = uniform_disk(300, 20.0, seed=5)
        radius = 3.0
        index = GridIndex(pos, cell_size=radius)
        for i in range(0, 300, 7):
            fast = set(index.query_index(i, radius).tolist())
            assert fast == self._brute_neighbors(pos, i, radius)

    def test_query_point(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        index = GridIndex(pos, cell_size=2.0)
        near = set(index.query_point(Point(0.5, 0.0), 2.0).tolist())
        assert near == {0, 1}

    def test_radius_larger_than_cell_rejected(self):
        index = GridIndex(np.zeros((1, 2)), cell_size=1.0)
        with pytest.raises(ValueError):
            index.query_point(Point(0, 0), 2.0)

    def test_neighbor_lists_symmetric(self):
        pos = uniform_disk(200, 15.0, seed=6)
        index = GridIndex(pos, cell_size=3.0)
        indptr, indices = index.neighbor_lists(3.0)
        neigh = [
            set(indices[indptr[i] : indptr[i + 1]].tolist()) for i in range(200)
        ]
        for i in range(200):
            for j in neigh[i]:
                assert i in neigh[j]

    def test_neighbor_lists_no_self(self):
        pos = uniform_disk(100, 10.0, seed=7)
        index = GridIndex(pos, cell_size=2.0)
        indptr, indices = index.neighbor_lists(2.0)
        for i in range(100):
            assert i not in indices[indptr[i] : indptr[i + 1]]

    def test_bad_positions_shape(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((3,)), cell_size=1.0)

    def test_bad_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((3, 2)), cell_size=0.0)

    def test_negative_coordinates_binned_correctly(self):
        pos = np.array([[-0.5, -0.5], [-0.6, -0.4], [10.0, 10.0]])
        index = GridIndex(pos, cell_size=1.0)
        assert set(index.query_index(0, 1.0).tolist()) == {1}


@st.composite
def deployments(draw):
    """``(positions, radius)``: random points in a box straddling the
    origin, Gaussian clusters, or an unjittered grid whose spacing is the
    radius (points on cell edges, axis neighbours at distance exactly r)."""
    kind = draw(st.sampled_from(["random", "clustered", "on-grid"]))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    if kind == "on-grid":
        rows = draw(st.integers(min_value=1, max_value=12))
        cols = draw(st.integers(min_value=1, max_value=12))
        return grid_deployment(rows, cols, spacing=radius), radius
    n = draw(st.integers(min_value=0, max_value=150))
    if kind == "random":
        rng = np.random.default_rng(seed)
        return rng.uniform(-8.0, 8.0, size=(n, 2)), radius
    return clustered_disk(n, 10.0, n_clusters=3, cluster_sigma=0.7, seed=seed), radius


class TestNeighborListsProperty:
    """The block-wise CSR build against the per-point reference path."""

    def _check(self, pos, radius):
        index = GridIndex(pos, cell_size=radius)
        indptr, indices = index.neighbor_lists(radius)
        n = pos.shape[0]
        assert indptr.dtype == np.int64 and indices.dtype == np.int32
        assert indptr.shape == (n + 1,) and indptr[0] == 0
        assert indptr[-1] == indices.size
        for i in range(n):
            np.testing.assert_array_equal(
                indices[indptr[i] : indptr[i + 1]], index.query_index(i, radius)
            )
        src = np.repeat(np.arange(n), np.diff(indptr))
        forward = sorted(zip(src.tolist(), indices.tolist()))
        assert forward == sorted(zip(indices.tolist(), src.tolist()))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(deployments())
    def test_rows_match_query_index(self, deployment):
        self._check(*deployment)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, n):
        self._check(np.full((n, 2), -3.5), 2.0)


class TestCsrHelpers:
    def test_positions_follow_row_order(self):
        indptr = np.array([0, 2, 2, 5, 6])
        np.testing.assert_array_equal(
            csr_positions(indptr, np.array([3, 0, 1, 2])), [5, 0, 1, 2, 3, 4]
        )
        assert csr_positions(indptr, np.array([], dtype=np.int64)).size == 0

    def test_row_runs_cover_rows_in_order(self):
        indptr = np.array([0, 3, 3, 10, 11, 14])
        rows = np.arange(5)
        runs = csr_row_runs(indptr, rows, max_entries=4)
        np.testing.assert_array_equal(np.concatenate(runs), rows)
        for run in runs:
            first = indptr[run[0] + 1] - indptr[run[0]]
            assert csr_positions(indptr, run).size < 4 + first
        assert csr_row_runs(indptr, rows[:0]) == []
