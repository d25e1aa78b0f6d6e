"""Voxelization and sparse convolution against a dense zero-padded oracle,
backbone shapes, BEV collapse and bilinear sampling."""

import dataclasses
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from pvlite import parallel
from pvlite import sparsegrid as sg

from helpers import (
    bev_from_dense, bev_to_dense, dense_bev, dense_conv3d,
    rulebook_lookup, sparse_conv_lookup, sparse_conv_serial, sparse_to_dense,
)

RANGE_MIN = (0.0, 0.0, 0.0)
RANGE_MAX = (1.6, 1.6, 1.6)
VOXEL = (0.1, 0.1, 0.1)


def random_sparse(rng, shape=(16, 16, 16), width=6, density=0.12, level=1):
    """A random SparseTensor over a small grid."""
    total = shape[0] * shape[1] * shape[2]
    n = max(1, int(total * density))
    flat = rng.choice(total, size=n, replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    feats = rng.normal(size=(n, width))
    return sg.SparseTensor(level, (0.1,) * 3, (0.0,) * 3, shape, coords, feats)


class TestSparseTensor:
    def test_sorted_and_immutable(self):
        coords = np.array([[2, 0, 0], [0, 1, 0], [0, 0, 3]])
        feats = np.arange(6).reshape(3, 2).astype(float)
        t = sg.SparseTensor(1, VOXEL, RANGE_MIN, (4, 4, 4), coords, feats)
        assert (t.coords[0] == [0, 0, 3]).all()
        with pytest.raises(ValueError):
            t.coords[0, 0] = 9

    def test_duplicate_coords_rejected(self):
        coords = np.array([[1, 1, 1], [1, 1, 1]])
        with pytest.raises(sg.GridConfigError):
            sg.SparseTensor(1, VOXEL, RANGE_MIN, (4, 4, 4), coords, np.zeros((2, 1)))

    def test_feature_row_mismatch_rejected(self):
        with pytest.raises(sg.GridConfigError):
            sg.SparseTensor(1, VOXEL, RANGE_MIN, (4, 4, 4),
                            np.array([[0, 0, 0]]), np.zeros((2, 1)))


class TestVoxelize:
    def test_single_point(self):
        pts = np.array([[0.12, 0.34, 0.56, 0.9]])
        t = sg.voxelize(pts, RANGE_MIN, RANGE_MAX, VOXEL)
        assert t.num_voxels == 1
        assert (t.coords[0] == [1, 3, 5]).all()
        np.testing.assert_array_equal(t.features[0], pts[0])

    def test_mean_of_two_points(self):
        pts = np.array([[0.11, 0.11, 0.11, 0.0], [0.19, 0.19, 0.19, 1.0]])
        t = sg.voxelize(pts, RANGE_MIN, RANGE_MAX, VOXEL)
        assert t.num_voxels == 1
        assert t.features[0, 3] == pytest.approx(0.5)

    def test_point_at_max_dropped(self):
        pts = np.array([[1.6, 0.5, 0.5, 0.1]])
        t = sg.voxelize(pts, RANGE_MIN, RANGE_MAX, VOXEL)
        assert t.num_voxels == 0

    def test_point_at_min_kept(self):
        pts = np.array([[0.0, 0.0, 0.0, 0.1]])
        t = sg.voxelize(pts, RANGE_MIN, RANGE_MAX, VOXEL)
        assert t.num_voxels == 1
        assert (t.coords[0] == [0, 0, 0]).all()

    def test_permutation_bit_identical(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate(
            [rng.uniform(0, 1.6, size=(500, 3)), rng.uniform(0, 1, size=(500, 1))],
            axis=1,
        )
        t0 = sg.voxelize(pts, RANGE_MIN, RANGE_MAX, VOXEL)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(500)
            t1 = sg.voxelize(pts[perm], RANGE_MIN, RANGE_MAX, VOXEL)
            np.testing.assert_array_equal(t0.coords, t1.coords)
            np.testing.assert_array_equal(t0.features, t1.features)

    def test_bad_range_rejected(self):
        with pytest.raises(sg.GridConfigError):
            sg.voxelize(np.zeros((0, 4)), (0, 0, 0), (1.05, 1.0, 1.0), VOXEL)


class TestSparseConv:
    def test_identity_kernel_submanifold(self):
        rng = np.random.default_rng(1)
        t = random_sparse(rng, width=5)
        w = np.zeros((3, 3, 3, 5, 5))
        w[1, 1, 1] = np.eye(5)
        out = sg.sparse_conv(t, w, stride=1, mode="submanifold")
        np.testing.assert_array_equal(out.coords, t.coords)
        np.testing.assert_allclose(out.features, t.features, atol=1e-12)

    def test_empty_input(self):
        t = sg.SparseTensor(1, VOXEL, RANGE_MIN, (8, 8, 8),
                            np.empty((0, 3), np.int64), np.empty((0, 4)))
        w = np.random.default_rng(2).normal(size=(3, 3, 3, 4, 6))
        out = sg.sparse_conv(t, w, stride=2, mode="strided")
        assert out.num_voxels == 0
        assert out.feature_width == 6
        assert out.grid_shape == (4, 4, 4)

    @pytest.mark.parametrize("mode,stride", [
        ("submanifold", 1), ("strided", 1), ("strided", 2),
    ])
    def test_matches_dense_oracle(self, mode, stride):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            t = random_sparse(rng, width=4)
            w = rng.normal(size=(3, 3, 3, 4, 3))
            out = sg.sparse_conv(t, w, stride=stride, mode=mode)
            dense = dense_conv3d(sparse_to_dense(t), w, stride=stride)
            got = sparse_to_dense(out)
            c = out.coords
            np.testing.assert_allclose(
                got[c[:, 0], c[:, 1], c[:, 2]],
                dense[c[:, 0], c[:, 1], c[:, 2]],
                atol=1e-6,
            )
            if mode == "strided":
                # Every active output site must receive >= 1 active input.
                assert out.num_voxels > 0

    def test_strided_active_set_is_receptive(self):
        # A single voxel at (5,5,5): stride-2 outputs at floor((i-1)/2)..
        t = sg.SparseTensor(1, VOXEL, RANGE_MIN, (16, 16, 16),
                            np.array([[5, 5, 5]]), np.ones((1, 1)))
        w = np.ones((3, 3, 3, 1, 1))
        out = sg.sparse_conv(t, w, stride=2, mode="strided")
        expect = {(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3),
                  (3, 2, 2), (3, 2, 3), (3, 3, 2), (3, 3, 3)}
        assert {tuple(c) for c in out.coords} == expect

    def test_linearity(self):
        rng = np.random.default_rng(3)
        t = random_sparse(rng, width=4)
        w = rng.normal(size=(3, 3, 3, 4, 4))
        out1 = sg.sparse_conv(t, w, stride=1, mode="submanifold")
        out2 = sg.sparse_conv(dataclasses.replace(t, features=2.5 * t.features), w,
                              stride=1, mode="submanifold")
        np.testing.assert_allclose(out2.features, 2.5 * out1.features, atol=1e-9)

    def test_width_mismatch_raises(self):
        rng = np.random.default_rng(4)
        t = random_sparse(rng, width=4)
        with pytest.raises(sg.GridConfigError):
            sg.sparse_conv(t, rng.normal(size=(3, 3, 3, 5, 4)))

    def test_submanifold_stride2_rejected(self):
        rng = np.random.default_rng(5)
        t = random_sparse(rng, width=4)
        w = rng.normal(size=(3, 3, 3, 4, 4))
        with pytest.raises(sg.GridConfigError):
            sg.sparse_conv(t, w, stride=2, mode="submanifold")


def faced_sparse(rng, shape, density, width=3):
    """Random voxels plus a few on each of the six faces of the grid."""
    total = int(np.prod(shape))
    flat = rng.choice(total, size=max(1, int(total * density)), replace=False)
    coords = [np.stack(np.unravel_index(flat, shape), axis=1)]
    for axis in range(3):
        for side in (0, shape[axis] - 1):
            face = rng.integers(0, shape, size=(3, 3))
            face[:, axis] = side
            coords.append(face)
    coords = np.unique(np.concatenate(coords), axis=0)
    return sg.SparseTensor(1, VOXEL, RANGE_MIN, shape, coords,
                           rng.normal(size=(len(coords), width)))


CONV_KINDS = [("submanifold", 1), ("strided", 1), ("strided", 2)]
ODD_SHAPES = [(5, 7, 9), (7, 3, 5), (1, 4, 3), (2, 2, 2), (9, 1, 6), (1, 1, 1), (11, 8, 13)]


class TestRulebook:
    @pytest.mark.parametrize("mode,stride", CONV_KINDS)
    def test_taps_equal_lookup_rulebook(self, mode, stride):
        for seed, shape in enumerate(ODD_SHAPES):
            rng = np.random.default_rng(seed)
            out_shape = tuple(-(-n // stride) for n in shape)
            for density in (0.02, 0.3, 1.0):
                t = faced_sparse(rng, shape, density)
                coords, pairs = sg._rulebook(t, stride, mode, out_shape)
                want_coords, want_pairs = rulebook_lookup(t, stride, mode)
                assert np.array_equal(coords, want_coords)
                assert len(pairs) == 27
                for (out_rows, in_rows), (want_out, want_in) in zip(pairs, want_pairs):
                    assert np.array_equal(out_rows, want_out)
                    assert np.array_equal(in_rows, want_in)
                w = rng.normal(size=(3, 3, 3, 3, 4))
                out = sg.sparse_conv(t, w, stride=stride, mode=mode)
                want_coords, want_feats = sparse_conv_lookup(t, w, stride, mode)
                assert np.array_equal(out.coords, want_coords)
                assert np.array_equal(out.features, want_feats)  # bitwise

    @pytest.mark.parametrize("mode,stride", CONV_KINDS)
    def test_empty_tensor_equals_lookup(self, mode, stride):
        t = sg.SparseTensor(1, VOXEL, RANGE_MIN, (5, 7, 9),
                            np.empty((0, 3), np.int64), np.empty((0, 3)))
        out = sg.sparse_conv(t, np.ones((3, 3, 3, 3, 2)), stride=stride, mode=mode)
        want_coords, want_feats = sparse_conv_lookup(t, np.ones((3, 3, 3, 3, 2)),
                                                     stride, mode)
        assert out.coords.shape == (0, 3) and out.features.shape == (0, 2)
        assert np.array_equal(out.coords, want_coords.reshape(0, 3))
        assert np.array_equal(out.features, want_feats)

    @pytest.mark.parametrize("mode,stride", CONV_KINDS)
    def test_outputs_sorted_unique_in_bounds(self, mode, stride):
        # sparse_conv and relu_features build their tensors without the
        # constructor's sort and checks; what they build must pass them.
        for seed, shape in enumerate(ODD_SHAPES):
            rng = np.random.default_rng(100 + seed)
            t = faced_sparse(rng, shape, 0.2)
            out = sg.relu_features(sg.sparse_conv(t, rng.normal(size=(3, 3, 3, 3, 2)),
                                                  stride=stride, mode=mode))
            keys = np.ravel_multi_index(out.coords.T, out.grid_shape)
            assert (np.diff(keys) > 0).all()
            assert out.coords.min() >= 0
            assert (out.coords < np.array(out.grid_shape)).all()
            assert out.features.shape == (out.num_voxels, 2)
            assert out.coords.dtype == np.int64 and out.features.dtype == float
            assert not (out.coords.flags.writeable or out.features.flags.writeable
                        or out.voxel_size.flags.writeable)
            checked = sg.SparseTensor(out.level_index, out.voxel_size, out.origin,
                                      out.grid_shape, out.coords, out.features)
            assert np.array_equal(checked.coords, out.coords)
            assert np.array_equal(checked.features, out.features)


class _FailingProduct(np.ndarray):
    """Feature rows whose sixth tap product raises."""

    products = itertools.count()

    def __matmul__(self, other):
        if next(self.products) == 5:
            raise RuntimeError("tap product failed")
        return np.asarray(self) @ other


class TestThreadedConv:
    """Tap products run on every thread and add in tap order."""

    @pytest.mark.parametrize("mode,stride", CONV_KINDS)
    def test_same_bits_as_serial_at_1_and_4_threads(self, mode, stride, monkeypatch):
        # Dense enough that outputs sum several taps, so an add out of tap
        # order changes bits; a thread switch every microsecond.
        rng = np.random.default_rng(61)
        t = faced_sparse(rng, (24, 20, 16), 0.3, width=16)
        w = rng.normal(size=(3, 3, 3, 16, 24))
        want_coords, want_feats = sparse_conv_serial(t, w, stride, mode)
        interval = sys.getswitchinterval()
        for threads in (1, 4):
            monkeypatch.setattr(parallel, "_threads", lambda: threads)
            sys.setswitchinterval(1e-6)
            try:
                out = sg.sparse_conv(t, w, stride=stride, mode=mode)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(out.coords, want_coords)
            assert np.array_equal(out.features, want_feats)  # bitwise

    def test_failing_tap_product_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(parallel, "_threads", lambda: 4)
        monkeypatch.setattr(_FailingProduct, "products", itertools.count())
        rng = np.random.default_rng(62)
        t = faced_sparse(rng, (12, 12, 12), 0.3, width=4)
        failing = sg.SparseTensor.trusted(
            t.level_index, t.voxel_size.copy(), t.origin.copy(), t.grid_shape,
            t.coords.copy(), t.features.copy().view(_FailingProduct))
        w = rng.normal(size=(3, 3, 3, 4, 5))
        raised = []

        def conv():
            try:
                sg.sparse_conv(failing, w)
            except RuntimeError as exc:
                raised.append(exc)

        worker = threading.Thread(target=conv, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "a unit still waits for the failed tap's turn"
        assert [str(e) for e in raised] == ["tap product failed"]
        out = sg.sparse_conv(t, w)  # the pool still runs the next conv
        assert np.array_equal(out.features, sparse_conv_serial(t, w, 1, "submanifold")[1])


class TestBackbone:
    def test_empty_scene(self):
        t = sg.SparseTensor(1, VOXEL, RANGE_MIN, (16, 16, 16),
                            np.empty((0, 3), np.int64), np.empty((0, 4)))
        params = sg.init_backbone(4, (16, 32, 64, 64), seed=0)
        outs = sg.run_backbone(t, params)
        assert [o.num_voxels for o in outs] == [0, 0, 0, 0]

    def test_output_widths(self):
        rng = np.random.default_rng(6)
        t = random_sparse(rng, width=4)
        params = sg.init_backbone(4, (16, 32, 64, 64), seed=0)
        outs = sg.run_backbone(t, params)
        assert [o.feature_width for o in outs] == [16, 32, 64, 64]
        assert [o.level_index for o in outs] == [1, 2, 3, 4]

    def test_single_voxel_reachability(self):
        # Hand enumeration for a lone voxel at (7,7,7): submanifold convs
        # keep {7}; a stride-2 window at output o covers inputs 2o-1..2o+1,
        # so input 7 reaches outputs {3,4} per axis at level 2 and then
        # inputs {3,4} reach outputs {1,2} per axis at level 3.
        t = sg.SparseTensor(1, VOXEL, RANGE_MIN, (16, 16, 16),
                            np.array([[7, 7, 7]]), np.ones((1, 4)))
        params = sg.init_backbone(4, (4, 4, 4, 4), seed=1)
        outs = sg.run_backbone(t, params)
        assert {tuple(c) for c in outs[0].coords} == {(7, 7, 7)}
        lvl2 = {tuple(int(v) for v in c) for c in outs[1].coords}
        assert lvl2 == {(i, j, k) for i in (3, 4) for j in (3, 4) for k in (3, 4)}
        lvl3 = {tuple(int(v) for v in c) for c in outs[2].coords}
        assert lvl3 == {(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)}

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        t = random_sparse(rng, width=4)
        params = sg.init_backbone(4, (8, 8, 8, 8), seed=3)
        a = sg.run_backbone(t, params)
        b = sg.run_backbone(t, params)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_downsampled_voxel_sizes(self):
        rng = np.random.default_rng(8)
        t = random_sparse(rng, width=4)
        params = sg.init_backbone(4, (8, 8, 8, 8), seed=3)
        outs = sg.run_backbone(t, params)
        np.testing.assert_allclose(outs[3].voxel_size, np.array(VOXEL) * 8)


class TestVoxelCenters:
    def test_formula(self):
        t = sg.SparseTensor(1, (0.05, 0.05, 0.1), (0.0, 0.0, 0.0), (4, 4, 4),
                            np.array([[0, 0, 0], [2, 1, 3]]), np.zeros((2, 1)))
        centers = sg.voxel_centers(t)
        np.testing.assert_allclose(centers[0], [0.025, 0.025, 0.05])
        np.testing.assert_allclose(centers[1], [0.125, 0.075, 0.35])

    def test_empty(self):
        t = sg.SparseTensor(1, VOXEL, RANGE_MIN, (4, 4, 4),
                            np.empty((0, 3), np.int64), np.empty((0, 2)))
        assert sg.voxel_centers(t).shape == (0, 3)

    def test_mirrored_symmetry(self):
        t = sg.SparseTensor(1, (1.0, 1.0, 1.0), (-2.0, -2.0, -2.0), (4, 4, 4),
                            np.array([[0, 0, 0], [3, 3, 3]]), np.zeros((2, 1)))
        c = sg.voxel_centers(t)
        np.testing.assert_allclose(c[0], -c[1])


class TestBevCollapse:
    def _tensor(self, coords, feats, width):
        return sg.SparseTensor(4, (0.4, 0.4, 0.8), (0.0, 0.0, 0.0), (4, 6, 5),
                               coords, feats.reshape(-1, width))

    def test_empty(self):
        t = self._tensor(np.empty((0, 3), np.int64), np.empty((0, 2)), 2)
        values = bev_to_dense(sg.bev_collapse(t))
        assert values.shape == (4, 6, 10)
        assert not values.any()

    def test_single_voxel_block(self):
        feats = np.array([[1.0, 2.0, 3.0]])
        t = self._tensor(np.array([[1, 2, 3]]), feats, 3)
        bev = sg.bev_collapse(t)
        assert bev.channels == 15
        values = bev_to_dense(bev)
        block = values[1, 2, 9:12]
        np.testing.assert_array_equal(block, feats[0])
        zeroed = values.copy()
        zeroed[1, 2, 9:12] = 0
        assert not zeroed.any()

    def test_channel_count(self):
        # 5 z-bins at width 64 -> 320 channels.
        t = sg.SparseTensor(4, (0.4, 0.4, 0.8), (0.0, 0.0, 0.0), (2, 2, 5),
                            np.array([[0, 0, 0]]), np.zeros((1, 64)))
        assert sg.bev_collapse(t).channels == 320

    def test_wrong_level_rejected(self):
        t = sg.SparseTensor(2, VOXEL, RANGE_MIN, (4, 4, 4),
                            np.empty((0, 3), np.int64), np.empty((0, 2)))
        with pytest.raises(sg.GridConfigError):
            sg.bev_collapse(t)

    def test_matches_dense_oracle(self):
        t = random_sparse(np.random.default_rng(21), shape=(9, 7, 4), width=3,
                          density=0.2, level=4)
        bev = sg.bev_collapse(t)
        np.testing.assert_array_equal(bev_to_dense(bev), dense_bev(t))
        assert bev.rows.shape == (np.unique(t.coords[:, :2], axis=0).shape[0] + 1, 12)

    def test_kitti_size_map_allocates_only_occupied_rows(self):
        coords = np.array([[0, 0, 0], [90, 100, 2], [175, 199, 4]])
        t = sg.SparseTensor(4, (0.4, 0.4, 0.8), (0.0, -40.0, -3.0), (176, 200, 5),
                            coords, np.ones((3, 64)))
        tracemalloc.start()
        try:
            bev = sg.bev_collapse(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (bev.nx, bev.ny, bev.channels) == (176, 200, 320)
        assert bev.rows.shape == (4, 320)
        assert peak < 1_000_000  # the dense map alone would be 90 MB


class TestBevMapValidation:
    ROWS = np.vstack([np.ones((2, 3)), np.zeros((1, 3))])
    INDEX = np.array([[0, 2], [1, 2]])

    def _map(self, rows=ROWS, index=INDEX):
        return sg.BevMap(rows, index, (0.0, 0.0), (1.0, 1.0))

    def test_valid_map(self):
        bev = self._map()
        assert (bev.nx, bev.ny, bev.channels) == (2, 2, 3)

    def test_rows_must_be_2d(self):
        with pytest.raises(sg.GridConfigError, match="^rows"):
            self._map(rows=self.ROWS.reshape(3, 3, 1))

    def test_rows_must_be_finite(self):
        rows = self.ROWS.copy()
        rows[0, 1] = np.nan
        with pytest.raises(ValueError, match="^rows"):
            self._map(rows=rows)

    @pytest.mark.parametrize("rows", [ROWS + 1.0, ROWS[:0]], ids=["nonzero", "none"])
    def test_rows_must_end_in_zero_row(self, rows):
        with pytest.raises(sg.GridConfigError, match="^rows"):
            self._map(rows=rows)

    def test_index_must_be_2d(self):
        with pytest.raises(sg.GridConfigError, match="^index"):
            self._map(index=self.INDEX.ravel())

    def test_index_must_be_integer(self):
        with pytest.raises(sg.GridConfigError, match="^index"):
            self._map(index=self.INDEX.astype(float))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_index_must_point_into_rows(self, bad):
        index = self.INDEX.copy()
        index[1, 0] = bad
        with pytest.raises(sg.GridConfigError, match="^index"):
            self._map(index=index)


class TestBilinearSample:
    def _map(self):
        vals = np.zeros((4, 4, 2))
        vals[1, 1] = [1.0, 10.0]
        vals[2, 1] = [3.0, 30.0]
        return bev_from_dense(vals, (0.0, 0.0), (1.0, 1.0))

    def test_cell_center_exact(self):
        bev = self._map()
        np.testing.assert_allclose(bev_sample := sg.bilinear_sample(bev, (1.5, 1.5)),
                                   [1.0, 10.0])
        assert bev_sample.shape == (2,)

    def test_midpoint_average(self):
        bev = self._map()
        np.testing.assert_allclose(sg.bilinear_sample(bev, (2.0, 1.5)), [2.0, 20.0])

    def test_outside_returns_zero(self):
        bev = self._map()
        np.testing.assert_array_equal(sg.bilinear_sample(bev, (40.0, -3.0)),
                                      np.zeros(2))

    def test_continuity_across_boundaries(self):
        rng = np.random.default_rng(9)
        bev = bev_from_dense(rng.normal(size=(5, 5, 3)), (0.0, 0.0), (0.5, 0.5))
        scale = np.abs(bev_to_dense(bev)).max()
        for b in np.arange(0.5, 2.5, 0.5):
            lo = sg.bilinear_sample(bev, (b - 1e-6, 1.1))
            hi = sg.bilinear_sample(bev, (b + 1e-6, 1.1))
            assert np.abs(hi - lo).max() < 1e-4 * scale

    def test_batched_queries(self):
        bev = self._map()
        out = sg.bilinear_sample(bev, np.array([[1.5, 1.5], [40.0, 0.0]]))
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out[0], [1.0, 10.0])
        np.testing.assert_array_equal(out[1], np.zeros(2))
