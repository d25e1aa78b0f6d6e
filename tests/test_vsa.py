"""Keypoint sampling and set abstraction: FPS and the radius query against
brute-force oracles, permutation/translation invariance, multi-level
feature widths and predicted keypoint weighting."""

import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest

from pvlite import nn, parallel, rpn, vsa
from pvlite.geom import Box3D
from pvlite.sparsegrid import SparseTensor

from helpers import (
    aggregate_branch_one_block, aggregate_branch_two_gathers, bev_from_dense,
    csr, fps_bruteforce, points_in_box_obj, radius_query_bruteforce,
)


class TestFps:
    def test_identical_points(self):
        pts = np.ones((5, 3))
        idx = vsa.fps(pts, 4)
        assert idx.shape == (4,)
        assert (idx >= 0).all() and (idx < 5).all()

    def test_unit_square_corners(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        idx = vsa.fps(pts, 2)
        assert idx[0] == 0
        assert idx[1] == 3  # farthest corner

    def test_matches_bruteforce_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(-5, 5, size=(64, 3))
            np.testing.assert_array_equal(vsa.fps(pts, 8), fps_bruteforce(pts, 8))

    def test_min_distance_monotone(self):
        rng = np.random.default_rng(40)
        pts = rng.uniform(-5, 5, size=(128, 3))
        idx = vsa.fps(pts, 32)
        sel = pts[idx]
        prev = math.inf
        for s in range(1, 32):
            d = ((sel[:s] - sel[s]) ** 2).sum(axis=1).min()
            assert d <= prev + 1e-12
            prev = d

    def test_distinct_when_enough_points(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(-5, 5, size=(100, 3))
        idx = vsa.fps(pts, 50)
        assert len(set(idx.tolist())) == 50

    def test_cycles_when_short(self):
        pts = np.array([[0, 0, 0], [4, 0, 0], [0, 3, 0]], dtype=float)
        idx = vsa.fps(pts, 7)
        base = vsa.fps(pts, 3)
        np.testing.assert_array_equal(idx, np.concatenate([base, base, base[:1]]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            vsa.fps(np.empty((0, 3)), 1)

    def test_zero_picks_nothing(self):
        for pts in (np.ones((5, 3)), np.empty((0, 3))):
            idx = vsa.fps(pts, 0)
            assert idx.shape == (0,) and idx.dtype == np.int64

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="n >= 0"):
            vsa.fps(np.ones((5, 3)), -1)

    @pytest.mark.parametrize("n", [1, 30, 97, 250])
    def test_matches_bruteforce_on_duplicates_and_ties(self, n):
        # Integer points, each listed twice: many equal distances, where the
        # lowest index wins; 250 is more than the 194 points.
        rng = np.random.default_rng(42)
        pts = rng.integers(-3, 4, size=(97, 3)).astype(float)
        pts = np.concatenate([pts, pts[::-1]])
        np.testing.assert_array_equal(vsa.fps(pts, n), fps_bruteforce(pts, n))


def assert_same_neighbours(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)


def _uniform_cases():  # many seeds, no query over the cap
    for seed in range(20):
        rng = np.random.default_rng(seed)
        yield (rng.uniform(-3, 3, size=(20, 3)), rng.uniform(-3, 3, size=(150, 3)),
               0.9, 10_000, 1)


def _capped_cases():
    rng = np.random.default_rng(51)
    yield (rng.uniform(-1, 1, size=(5, 3)), rng.uniform(-1.5, 1.5, size=(300, 3)),
           1.2, 16, 3)


def _negative_cases():
    rng = np.random.default_rng(53)
    centre = np.array([-37.3, -120.9, -5.2])
    yield (centre + rng.uniform(-3, 0, size=(60, 3)),
           centre + rng.uniform(-3, 0, size=(500, 3)), 0.7, 12, 4)


def _far_cases():  # coordinates of 1e6 m, where a cell holds few ulps
    rng = np.random.default_rng(54)
    centre = np.array([1.0e6, -2.4e6, 3.0e5])
    yield (centre + rng.uniform(-2, 2, size=(80, 3)),
           centre + rng.uniform(-2, 2, size=(400, 3)), 0.8, 16, 6)


def _shell_cases():  # pairs a hair inside, on and outside the radius
    rng = np.random.default_rng(57)
    q = rng.uniform(-2, 2, size=(50, 3))
    dirs = rng.normal(size=(50, 3, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    scale = 0.7 * np.array([1 - 1e-9, 1.0, 1 + 1e-9])[None, :, None]
    yield q, (q[:, None, :] + scale * dirs).reshape(-1, 3), 0.7, 10_000, 9
    # Every cell grid has an edge at 0: queries just across it from a point
    # almost a radius away along one axis.
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    q = -1e-7 * axes
    yield q, q + 0.7 * (1 - 1e-9) * axes, 0.7, 10_000, 9


def _large_cases():  # M * N above 2e6, candidates over many chunks
    rng = np.random.default_rng(55)
    yield (rng.uniform(-3, 3, size=(1100, 3)),
           rng.uniform(-3, 3, size=(2000, 3)), 1.2, 32, 7)


def _z_column_cases():
    # Cells are a hair over one radius wide: queries in cell (0, 0, 0) and
    # points in whole cells around it.
    rng = np.random.default_rng(59)
    q = rng.uniform(0.05, 0.95, size=(40, 3))

    def cloud(xs, ys, zs, per_cell=5):
        cells = np.array(list(itertools.product(xs, ys, zs)))
        return np.repeat(cells, per_cell, axis=0) + rng.uniform(
            0.05, 0.95, size=(len(cells) * per_cell, 3))

    near = (-1, 0, 1)
    yield q, cloud(near, near, (-2, -1, 1, 2)), 1.0, 10_000, 10  # no point in z cell c
    yield q, cloud(near, near, (-2, -1, 1, 2)), 1.0, 6, 10  # the same, capped
    yield q, cloud(near, near, (-2, 2)), 1.0, 10_000, 10  # none in reach of c
    yield q, cloud(near, near, (-1, 2)), 1.0, 10_000, 10  # c - 1 only in reach
    yield q, cloud(near, near, (-2, 1)), 1.0, 10_000, 10  # c + 1 only in reach
    yield q, cloud((-1, 0, 3), (0, 2), near), 1.0, 10_000, 10  # x + 1, y +- 1 missing
    yield q, cloud((-3, 1), (-1, 1), near), 1.0, 10_000, 10  # no x = 0 or y = 0 column
    flat = np.column_stack([rng.uniform(-3, 3, size=(300, 2)), np.full(300, 0.3)])
    high = np.column_stack([rng.uniform(-3, 3, size=(80, 2)), rng.uniform(-2.5, 2.5, size=80)])
    yield high, flat, 1.0, 10_000, 11  # one z value
    yield high, flat, 1.0, 8, 11


def _non_finite_cases():
    rng = np.random.default_rng(56)
    q = rng.uniform(-1, 1, size=(30, 3))
    p = rng.uniform(-1, 1, size=(100, 3))
    q[[3, 17], [0, 2]] = np.inf
    p[[0, 50], [1, 2]] = np.nan
    yield q, p, 0.9, 10_000, 8


ORACLE_CASES = {
    "uniform": _uniform_cases, "capped": _capped_cases,
    "negative": _negative_cases, "far_from_origin": _far_cases,
    "shell": _shell_cases, "large": _large_cases,
    "non_finite": _non_finite_cases, "z_columns": _z_column_cases,
}


class TestNeighborLists:
    FLAT = np.array([4, 9, 1, 1, 7, 3, 0, 2, 8, 5], dtype=np.int64)
    OFFSETS = np.array([0, 2, 2, 5, 9, 10])
    LISTS = [[4, 9], [], [1, 1, 7], [3, 0, 2, 8], [5]]

    def test_len_index_and_iteration(self):
        nl = vsa.NeighborLists(self.FLAT, self.OFFSETS)
        assert len(nl) == 5
        assert [a.tolist() for a in nl] == self.LISTS
        for j in range(-5, 5):
            assert nl[j].tolist() == self.LISTS[j]
            assert nl[j].dtype == np.int64 and nl[j].base is self.FLAT
        assert nl[np.int64(3)].tolist() == self.LISTS[3]
        for j in (5, -6):
            with pytest.raises(IndexError):
                nl[j]

    def test_slice_shares_flat(self):
        nl = vsa.NeighborLists(self.FLAT, self.OFFSETS)
        for key in (slice(1, 4), slice(None, 2), slice(3, None), slice(-2, None),
                    slice(2, 2), slice(4, 1), slice(0, 99)):
            part = nl[key]
            assert isinstance(part, vsa.NeighborLists) and part.flat is self.FLAT
            assert len(part) == len(self.LISTS[key])
            assert [a.tolist() for a in part] == self.LISTS[key]
        assert nl[1:4][1:][0].tolist() == [1, 1, 7]
        with pytest.raises(ValueError):
            nl[::2]

    def test_empty(self):
        nl = vsa.NeighborLists(np.empty(0, np.int64), np.zeros(1, np.int64))
        assert len(nl) == 0 and list(nl) == [] and len(nl[:]) == 0
        with pytest.raises(IndexError):
            nl[0]
        out = vsa.radius_query(np.empty((0, 3)), np.zeros((4, 3)), (0.5, 1.0), 4, seed=0)
        assert len(out) == 0 and out.offsets.tolist() == [0]

    def test_radius_query_holds_one_index_array(self):
        rng = np.random.default_rng(49)
        q, p = rng.normal(size=(30, 3)), rng.normal(size=(200, 3))
        out = vsa.radius_query(q, p, (0.5, 1.0), 8, seed=0)
        assert isinstance(out, vsa.NeighborLists)
        assert out.flat.dtype == np.int64 and out.offsets.shape == (61,)
        assert out.offsets[0] == 0 and out.offsets[-1] == out.flat.size
        assert all(nl.base is out.flat for nl in out)


class TestRadiusQuery:
    def test_isolated_query_empty(self):
        out = vsa.radius_query(np.array([[0.0, 0.0, 0.0]]),
                               np.array([[5.0, 0.0, 0.0]]), 1.0, 8, seed=0)
        assert out[0].size == 0

    def test_coincident_point_included(self):
        out = vsa.radius_query(np.array([[1.0, 2.0, 3.0]]),
                               np.array([[1.0, 2.0, 3.0]]), 1.0, 8, seed=0)
        np.testing.assert_array_equal(out[0], [0])

    def test_strict_inequality(self):
        # Distance exactly equal to the radius is excluded.
        out = vsa.radius_query(np.array([[0.0, 0.0, 0.0]]),
                               np.array([[1.0, 0.0, 0.0]]), 1.0, 8, seed=0)
        assert out[0].size == 0

    def test_cap_subsample_deterministic(self):
        rng = np.random.default_rng(50)
        q = np.zeros((1, 3))
        p = rng.normal(scale=0.2, size=(100, 3))
        a = vsa.radius_query(q, p, 1.0, 10, seed=7)
        b = vsa.radius_query(q, p, 1.0, 10, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[0].size == 10
        c = vsa.radius_query(q, p, 1.0, 10, seed=8)
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_bruteforce_oracle(self, case):
        for q, p, radius, cap, seed in ORACLE_CASES[case]():
            assert_same_neighbours(
                vsa.radius_query(q, p, radius, cap, seed=seed),
                radius_query_bruteforce(q, p, radius, cap, seed),
            )

    def test_lattice_at_exact_radius(self):
        # Binary-exact lattice of spacing radius / 2: points two steps apart
        # on one axis are exactly `radius` away (excluded), and points fall
        # on multiples of the radius, the natural cell edges.
        radius = 0.5
        ticks = np.arange(-4, 5) * 0.25
        lattice = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"),
                           axis=-1).reshape(-1, 3)
        out = vsa.radius_query(lattice, lattice, radius, 10_000, seed=0)
        assert_same_neighbours(
            out, radius_query_bruteforce(lattice, lattice, radius, 10_000, 0))
        origin = int(np.flatnonzero((lattice == 0).all(axis=1))[0])
        near = lattice[out[origin]]
        assert ((near ** 2).sum(axis=1) < 0.25).all()
        assert len(out[origin]) == 1 + 6 + 12 + 8  # |offset| in {0, 0.25}^3

    def test_per_query_keys_equal_scalar_seed_groups(self):
        rng = np.random.default_rng(52)
        p = rng.normal(scale=0.6, size=(400, 3))
        groups = [(5, rng.normal(scale=0.3, size=(40, 3))),
                  (9, rng.normal(scale=0.3, size=(25, 3))),
                  (14, rng.normal(scale=0.3, size=(30, 3)))]
        q = np.concatenate([g for _, g in groups])
        keys = np.concatenate([np.stack([np.full(len(g), s), np.arange(len(g))],
                                        axis=1) for s, g in groups])
        joint = vsa.radius_query(q, p, 0.8, 8, seed=keys)
        assert max(len(nl) for nl in joint) == 8
        split = [nl for s, g in groups for nl in vsa.radius_query(g, p, 0.8, 8, s)]
        assert_same_neighbours(joint, split)
        assert_same_neighbours(joint, radius_query_bruteforce(q, p, 0.8, 8, keys))

    def test_per_query_keys_shape_checked(self):
        with pytest.raises(ValueError):
            vsa.radius_query(np.zeros((3, 3)), np.zeros((4, 3)), 1.0, 4,
                             seed=np.zeros((2, 2), dtype=np.int64))

    def test_empty_points(self):
        out = vsa.radius_query(np.zeros((3, 3)), np.empty((0, 3)), 1.0, 4, seed=0)
        assert len(out) == 3
        assert all(o.size == 0 for o in out)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_radius_pair_equals_single_radii(self, case):
        # Entry r * M + i is query i at radii[r], drawing from [seed + r, i].
        for q, p, radius, cap, seed in ORACLE_CASES[case]():
            radii, m = (0.5 * radius, radius), len(q)
            pair = vsa.radius_query(q, p, radii, cap, seed=seed)
            assert len(pair) == 2 * m
            for r, rad in enumerate(radii):
                got = pair[r * m : (r + 1) * m]
                assert_same_neighbours(got, vsa.radius_query(q, p, rad, cap, seed + r))
                assert_same_neighbours(
                    got, radius_query_bruteforce(q, p, rad, cap, seed + r))

    def test_radius_pair_per_query_keys_capped(self):
        # Both radii hit the cap; row i keys query i's streams [k0 + r, k1].
        rng = np.random.default_rng(58)
        p = rng.normal(scale=0.5, size=(600, 3))
        q = rng.normal(scale=0.3, size=(40, 3))
        keys = np.stack([rng.integers(0, 1000, size=40), np.arange(40)], axis=1)
        radii = (1.0, 0.5)
        pair = vsa.radius_query(q, p, radii, 8, seed=keys)
        for r, rad in enumerate(radii):
            got = pair[r * 40 : (r + 1) * 40]
            assert sum(len(nl) == 8 for nl in got) > 20
            assert_same_neighbours(got, vsa.radius_query(q, p, rad, 8, keys + [r, 0]))
            assert_same_neighbours(
                got, radius_query_bruteforce(q, p, rad, 8, keys + [r, 0]))

    def test_radius_pair_non_finite_and_empty(self):
        q = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [50.0, 50.0, 50.0]])
        p = np.array([[0.7, 0.0, 0.0], [0.0, np.inf, 0.0]])
        out = vsa.radius_query(q, p, (0.5, 1.0), 4, seed=0)
        assert [nl.tolist() for nl in out] == [[], [], [], [0], [], []]
        for pts in (np.empty((0, 3)), np.full((2, 3), np.nan)):
            out = vsa.radius_query(q, pts, (0.5, 1.0), 4, seed=0)
            assert_same_neighbours(out, [np.empty(0, np.int64)] * 6)
        out = vsa.radius_query(np.full((2, 3), np.inf), p, (0.5, 1.0), 4, seed=0)
        assert_same_neighbours(out, [np.empty(0, np.int64)] * 4)

    def test_radius_pair_rejects_non_positive(self):
        with pytest.raises(ValueError):
            vsa.radius_query(np.zeros((1, 3)), np.zeros((1, 3)), (0.5, 0.0), 4, 0)

    def test_rejects_no_radius_and_negative_cap(self):
        with pytest.raises(ValueError, match="radii"):
            vsa.radius_query(np.zeros((1, 3)), np.zeros((1, 3)), (), 4, 0)
        with pytest.raises(ValueError, match="cap"):
            vsa.radius_query(np.zeros((1, 3)), np.zeros((1, 3)), 1.0, -1, 0)

    @pytest.mark.parametrize("seed", [-1, 0.5, 3.0, True, np.array([[0, 1], [-2, 0]]),
                                      np.array([[0, 1], [2, 0.5]])],
                             ids=["negative", "fraction", "whole float", "bool",
                                  "negative key", "float keys"])
    @pytest.mark.parametrize("cap", [1, 100], ids=["capped", "uncapped"])
    def test_rejects_bad_seed(self, seed, cap):
        # Whether or not a list is capped, and before any list is built.
        q, p = np.zeros((2, 3)), np.random.default_rng(64).normal(scale=0.1, size=(20, 3))
        with pytest.raises(ValueError, match="seed"):
            vsa.radius_query(q, p, 1.0, cap, seed=seed)

    def test_many_queries_in_small_chunks(self, monkeypatch):
        # 7,000 queries, some not finite, in chunks of a few queries each:
        # equal to the oracle bit for bit.
        monkeypatch.setattr(parallel, "_threads", lambda: 2)
        monkeypatch.setattr(vsa, "QUERY_CHUNK_PAIRS", 300)
        rng = np.random.default_rng(65)
        q = rng.uniform(-4, 4, size=(7000, 3))
        q[::997] = np.nan
        p = rng.uniform(-4, 4, size=(1500, 3))
        pair = vsa.radius_query(q, p, (0.35, 0.7), 6, seed=11)
        assert max(map(len, pair)) == 6 and min(map(len, pair)) == 0
        for r, rad in enumerate((0.35, 0.7)):
            assert_same_neighbours(pair[r * 7000 : (r + 1) * 7000],
                                   radius_query_bruteforce(q, p, rad, 6, 11 + r))


SPECIAL_KEYS = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1)


def _draw_cases(rng, cap, rows):
    """(keys, found) rows for cap_draws: special and random keys; populations
    of cap + 1, small, above 10000, near 2**31 (where about half of Lemire's
    draws are rejected), up to 2**32 and beyond it."""
    keys = (rng.integers(0, 2**64, size=(rows, 2), dtype=np.uint64)
            >> rng.integers(0, 64, size=(rows, 2)).astype(np.uint64))
    special = rng.random((rows, 2)) < 0.4
    keys[special] = np.array(SPECIAL_KEYS, dtype=np.uint64)[
        rng.integers(0, len(SPECIAL_KEYS), size=special.sum())]
    found = np.array([(cap + 1, int(rng.integers(cap + 1, cap + 40)),
                       int(rng.integers(cap + 1, 5000)), int(rng.integers(10001, 60000)),
                       int(rng.integers(2**31 - 5000, 2**31 + 5000)),
                       int(rng.integers(2**32 - 50, 2**32 + 1)),
                       int(rng.integers(2**32 + 1, 2**33)))[k]
                      for k in rng.choice(7, size=rows, p=(.2, .2, .2, .15, .1, .1, .05))])
    return keys, found


class TestCapDraws:
    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 8, 16, 31, 32, 33, 250])
    def test_sets_equal_numpy_choice(self, cap):
        # 10 caps x 1,100 rows; cap 250 sends rows of 10001..12500 points
        # down numpy's tail shuffle, which cap_draws leaves to numpy.
        rng = np.random.default_rng(cap)
        keys, found = _draw_cases(rng, cap, 1100)
        if cap == 250:
            found[:100] = rng.integers(10001, 50 * cap, size=100)
        got = vsa.cap_draws(keys, found, cap)
        assert got.shape == (1100, cap) and got.dtype == np.int64
        for key, n, row in zip(keys.tolist(), found.tolist(), got):
            want = np.random.default_rng(key).choice(n, size=cap, replace=False)
            assert np.array_equal(np.sort(row), np.sort(want)), (key, n)

    def test_signed_keys_and_lists(self):
        keys = [[5, 0], [0, 7], [2**63 - 1, 2**32]]
        got = vsa.cap_draws(keys, [40, 33, 1000], 32)
        for key, n, row in zip(keys, [40, 33, 1000], got):
            want = np.random.default_rng(key).choice(n, size=32, replace=False)
            assert np.array_equal(np.sort(row), np.sort(want))
        assert vsa.cap_draws(np.empty((0, 2), np.int64), [], 16).shape == (0, 16)

    def test_negative_key_raises(self):
        with pytest.raises(ValueError):
            vsa.cap_draws(np.array([[3, 0], [-1, 4]]), [10, 10], 4)
        p = np.random.default_rng(59).normal(scale=0.1, size=(50, 3))
        with pytest.raises(ValueError):
            vsa.radius_query(np.zeros((1, 3)), p, 1.0, 8, seed=-1)
        with pytest.raises(ValueError):
            vsa.radius_query(np.zeros((1, 3)), p, 1.0, 8, seed=np.array([[-2, 0]]))

    def test_seeds_near_the_top_draw_their_own_streams(self):
        rng = np.random.default_rng(60)
        p = rng.normal(scale=0.3, size=(300, 3))
        q = rng.normal(scale=0.2, size=(20, 3))
        for seed in (2**63 - 1, 2**64 - 2):
            pair = vsa.radius_query(q, p, (0.5, 1.0), 8, seed=seed)
            for r, rad in enumerate((0.5, 1.0)):
                keys = np.array([[seed + r, i] for i in range(20)], dtype=np.uint64)
                assert_same_neighbours(pair[r * 20 : (r + 1) * 20],
                                       radius_query_bruteforce(q, p, rad, 8, keys))
        # The last radius keys seed + 1: one seed higher it would wrap to 0.
        last = np.array([[2**64 - 1, i] for i in range(20)], dtype=np.uint64)
        assert_same_neighbours(vsa.radius_query(q, p, 1.0, 8, seed=2**64 - 1),
                               radius_query_bruteforce(q, p, 1.0, 8, last))
        for seed in (2**64 - 1, np.array([[0, i] for i in range(19)] + [[2**64 - 1, 0]],
                                         dtype=np.uint64)):
            with pytest.raises(ValueError, match="seed"):
                vsa.radius_query(q, p, (0.5, 1.0), 8, seed=seed)


class TestSetAbstraction:
    def _mlp(self, in_width, out_width=6, seed=0):
        return nn.init_params((in_width, 8, out_width), seed=seed)

    def test_empty_neighborhood_zero(self):
        mlp = self._mlp(5 + 3)
        out = vsa.set_abstraction(np.zeros(3), np.empty((0, 5)), np.empty((0, 3)), mlp)
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_singleton_equals_mlp(self):
        mlp = self._mlp(2 + 3, seed=1)
        feat = np.array([[0.3, -0.7]])
        pos = np.array([[1.0, 2.0, 3.0]])
        center = np.array([0.5, 2.0, 2.0])
        out = vsa.set_abstraction(center, feat, pos, mlp)
        expect = nn.mlp_forward(mlp, np.concatenate([feat[0], pos[0] - center])[None])
        np.testing.assert_array_equal(out, expect[0])

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(60)
        mlp = self._mlp(4 + 3, seed=2)
        feats = rng.normal(size=(20, 4))
        pos = rng.normal(size=(20, 3))
        center = rng.normal(size=3)
        base = vsa.set_abstraction(center, feats, pos, mlp)
        for seed in range(100):
            perm = np.random.default_rng(seed).permutation(20)
            out = vsa.set_abstraction(center, feats[perm], pos[perm], mlp)
            assert (out == base).all()

    def test_translation_invariant(self):
        rng = np.random.default_rng(61)
        mlp = self._mlp(4 + 3, seed=3)
        feats = rng.normal(size=(10, 4))
        pos = rng.normal(size=(10, 3))
        center = rng.normal(size=3)
        shift = np.array([10.0, -4.0, 2.5])
        a = vsa.set_abstraction(center, feats, pos, mlp)
        b = vsa.set_abstraction(center + shift, feats, pos + shift, mlp)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_width_mismatch_raises(self):
        mlp = self._mlp(4 + 3)
        with pytest.raises(nn.ShapeError):
            vsa.set_abstraction(np.zeros(3), np.ones((2, 7)), np.zeros((2, 3)), mlp)

    def test_xyz_only_mlp_takes_the_max_over_offsets(self):
        # Zero-width features: the MLP sees the offsets alone.
        rng = np.random.default_rng(64)
        mlp = self._mlp(0 + 3, seed=5)
        pos = rng.normal(size=(5, 3))
        center = rng.normal(size=3)
        out = vsa.set_abstraction(center, np.empty((5, 0)), pos, mlp)
        expect = nn.mlp_forward(mlp, pos - center).max(axis=0)
        assert expect.any()
        np.testing.assert_array_equal(out, expect)

    def test_feature_rows_must_match_positions(self):
        # 10 rows of 3 features for 5 positions must not pass as 5 rows of 6.
        mlp = self._mlp(6 + 3)
        with pytest.raises(nn.ShapeError, match=r"\(10, 3\) for 5 positions"):
            vsa.set_abstraction(np.zeros(3), np.ones((10, 3)), np.zeros((5, 3)), mlp)

    def test_batched_engine_matches_single(self):
        rng = np.random.default_rng(62)
        mlp = self._mlp(2 + 3, seed=4)
        pts = rng.normal(size=(50, 3))
        feats = rng.normal(size=(50, 2))
        queries = rng.normal(size=(8, 3)) * 0.5
        neigh = vsa.radius_query(queries, pts, 1.5, 16, seed=5)
        [batched] = vsa.aggregate([(queries, neigh, np.hstack([feats, pts]), mlp)])
        for i in range(8):
            single = vsa.set_abstraction(queries[i], feats[neigh[i]],
                                         pts[neigh[i]], mlp)
            np.testing.assert_array_equal(batched[i], single)

    @pytest.mark.parametrize("width", [1, 4, 611])
    def test_one_gather_matches_two_array_oracle(self, width):
        # One gather of [features | xyz] rows with the query subtracted in
        # place equals gathering features and offsets apart, bit for bit,
        # with empty neighbourhoods and a repeated neighbour included.
        rng = np.random.default_rng(63)
        mlp = self._mlp(width + 3, seed=4)
        pts = rng.normal(size=(50, 3)) * 1e3
        feats = rng.normal(size=(50, width))
        queries = rng.normal(size=(9, 3)) * 1e3
        lists = list(vsa.radius_query(queries, pts, 1500.0, 16, seed=5))
        lists[3] = np.empty(0, np.int64)
        lists[4] = np.array([7, 7, 2])
        assert sum(map(len, lists)) > 16
        neigh = vsa.NeighborLists(*csr(lists))
        np.testing.assert_array_equal(
            vsa.aggregate([(queries, neigh, np.hstack([feats, pts]), mlp)])[0],
            aggregate_branch_two_gathers(queries, lists, pts, feats, mlp))

    def test_no_neighbours_anywhere_zero(self):
        mlp = self._mlp(2 + 3)
        lists = vsa.NeighborLists(*csr([np.empty(0, np.int64)] * 4))
        [out] = vsa.aggregate([(np.zeros((4, 3)), lists, np.ones((6, 5)), mlp)])
        np.testing.assert_array_equal(out, np.zeros((4, 6)))


def _per_block(width):
    """Rows in one block of a branch over (n, width) points."""
    return max(vsa.MIN_BLOCK_ROWS, vsa.ROW_BLOCK_BYTES // (8 * width))


def _lists_of_total(rng, total, n_points, cap=32):
    """Neighbour lists of 0..cap indices each (empty ones and repeated
    indices included) whose lengths add up to exactly total."""
    lens = []
    while sum(lens) < total:
        lens.append(min(int(rng.integers(0, cap + 1)), total - sum(lens)))
    return [rng.integers(0, n_points, size=k) for k in lens]


def _branch_case(seed, width, lists):
    """Queries, (n, width) points [features | xyz] and a branch MLP."""
    rng = np.random.default_rng(seed)
    n = 1 + max((int(nl.max()) for nl in lists if len(nl)), default=0)
    points = np.hstack([rng.normal(size=(n, width - 3)), rng.normal(size=(n, 3)) * 1e3])
    queries = rng.normal(size=(len(lists), 3)) * 1e3
    mlp = nn.init_params((width, 16, 16), seed=seed)
    return queries, points, mlp


# Calls of 611-wide rows (RoI-grid branches) and 67-wide rows (levels 3 and
# 4 of keypoint VSA): each side of the 1-, 2- and 3-block sizes, one query
# longer than a block, and lists with no row at all.
def _block_cases():
    rng = np.random.default_rng(90)
    cases = []
    for width in (611, 67):
        b = _per_block(width)
        for blocks in (1, 2, 3):
            for total in (blocks * b - 1, blocks * b + 1):
                cases.append((f"{width}-wide {total} rows", width,
                              _lists_of_total(rng, total, 700)))
    b = _per_block(611)
    one = [rng.integers(0, 50, size=k) for k in (3, 3 * b + 5, 0, 2)]
    cases.append(("one query longer than a block", 611, one))
    cases.append(("only a query longer than a block", 611, one[1:2]))
    cases.append(("empty lists", 611, [np.empty(0, np.int64)] * 5))
    cases.append(("no queries", 611, []))
    return cases


BLOCK_CASES = _block_cases()


class TestRowBlocks:
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("name, width, lists", BLOCK_CASES,
                             ids=[c[0] for c in BLOCK_CASES])
    def test_blocked_equals_one_block_oracle(self, monkeypatch, threads, name,
                                             width, lists):
        monkeypatch.setattr(parallel, "_threads", lambda: threads)
        queries, points, mlp = _branch_case(91, width, lists)
        [got] = vsa.aggregate([(queries, vsa.NeighborLists(*csr(lists)), points, mlp)])
        assert got.shape == (len(lists), 16)
        np.testing.assert_array_equal(
            got, aggregate_branch_one_block(queries, lists, points, mlp))

    @pytest.mark.parametrize("name, width, lists", BLOCK_CASES,
                             ids=[c[0] for c in BLOCK_CASES])
    def test_block_count_and_sizes(self, name, width, lists):
        # Blocks of whole lists cover the call, no block for a call with no
        # row, and each block of several holds MIN_BLOCK_ROWS rows or more.
        # Lists of at most 32 give total // per_block blocks (one below two
        # blocks' rows), each cut less than 32 rows past its equal share.
        offsets = csr(lists)[1]
        total, per_block = int(offsets[-1]), _per_block(width)
        cuts = vsa._query_cuts(offsets, width)
        sizes = np.diff(offsets[cuts])
        assert cuts[0] == 0 and (np.diff(cuts) > 0).all()
        assert cuts[-1] == (len(lists) if total else 0)
        assert sum(sizes) == total
        if len(sizes) > 1:
            assert min(sizes) >= vsa.MIN_BLOCK_ROWS
        if max(map(len, lists), default=0) <= 32:
            assert len(sizes) == (max(1, total // per_block) if total else 0)
            if total:
                past = offsets[cuts] - np.arange(len(cuts)) * total // len(sizes)
                assert ((past >= 0) & (past < 32)).all()

    def test_kitti_size_keypoint_branch(self, monkeypatch):
        # 2048 keypoints, up to 32 rows each, 67 wide: several blocks.
        monkeypatch.setattr(parallel, "_threads", lambda: 2)
        rng = np.random.default_rng(92)
        lists = [rng.integers(0, 3000, size=k) for k in rng.integers(0, 33, size=2048)]
        queries, points, mlp = _branch_case(93, 67, lists)
        assert len(vsa._query_cuts(csr(lists)[1], 67)) - 1 >= 4
        np.testing.assert_array_equal(
            vsa.aggregate([(queries, vsa.NeighborLists(*csr(lists)), points, mlp)])[0],
            aggregate_branch_one_block(queries, lists, points, mlp))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_calls_together_equal_each_alone(self, monkeypatch, threads):
        # Calls 611, 67 and 5 wide, of one block, of several and of none,
        # in one aggregate: each output equals that call run alone and the
        # one-block oracle, bit for bit.
        monkeypatch.setattr(parallel, "_threads", lambda: threads)
        rng = np.random.default_rng(95)
        calls, oracles = [], []
        for width, total in ((611, 3 * _per_block(611) + 1), (67, 40), (5, 0),
                             (67, 2 * _per_block(67) - 1), (5, 700), (611, 300)):
            lists = _lists_of_total(rng, total, 700)
            queries, points, mlp = _branch_case(96 + len(calls), width, lists)
            calls.append((queries, vsa.NeighborLists(*csr(lists)), points, mlp))
            oracles.append(aggregate_branch_one_block(queries, lists, points, mlp))
        together = vsa.aggregate(calls)
        assert len(together) == len(calls)
        for call, got, want in zip(calls, together, oracles):
            np.testing.assert_array_equal(got, vsa.aggregate([call])[0])
            np.testing.assert_array_equal(got, want)
        assert vsa.aggregate([]) == []

    def test_shared_outputs_under_frequent_switches(self, monkeypatch):
        # The blocks of each call write their own rows of one output from
        # 8 threads that switch every microsecond: a lost or crossed write
        # shows against the one-block oracle.
        monkeypatch.setattr(parallel, "_threads", lambda: 8)
        monkeypatch.setattr(vsa, "ROW_BLOCK_BYTES", 0)
        rng = np.random.default_rng(97)
        calls, oracles = [], []
        for k in range(12):
            lists = _lists_of_total(rng, int(rng.integers(0, 3000)), 200, cap=8)
            queries, points, mlp = _branch_case(98 + k, 19, lists)
            calls.append((queries, vsa.NeighborLists(*csr(lists)), points, mlp))
            oracles.append(aggregate_branch_one_block(queries, lists, points, mlp))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            together = vsa.aggregate(calls)
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(together, oracles):
            np.testing.assert_array_equal(got, want)

    def test_multi_level_same_bits_at_any_thread_count(self, monkeypatch):
        # Small blocks force several per branch; one thread and four agree.
        rng = np.random.default_rng(94)
        tensors = _tiny_levels(rng, widths=(16, 32, 64, 64))
        mlps = _mlps_for(tensors, out_width=32)
        kp = rng.uniform(0, 3, size=(300, 3))
        monkeypatch.setattr(parallel, "_threads", lambda: 1)
        one = vsa.vsa_multi_level(kp, tensors, mlps, 5)
        monkeypatch.setattr(parallel, "_threads", lambda: 4)
        monkeypatch.setattr(vsa, "ROW_BLOCK_BYTES", 0)
        np.testing.assert_array_equal(vsa.vsa_multi_level(kp, tensors, mlps, 5), one)


class TestOrderedMap:
    def test_results_in_item_order(self, monkeypatch):
        monkeypatch.setattr(parallel, "_threads", lambda: 4)
        assert parallel.ordered_map(lambda x: x * x, range(50)) == [x * x for x in range(50)]
        assert parallel.ordered_map(lambda x: x, []) == []

    def test_items_run_at_once(self, monkeypatch):
        # Each item waits for the other: only two threads at once get past.
        monkeypatch.setattr(parallel, "_threads", lambda: 2)
        barrier = threading.Barrier(2, timeout=30)
        assert parallel.ordered_map(lambda x: (barrier.wait(), x)[1], [1, 2]) == [1, 2]

    def test_each_item_runs_once_under_frequent_switches(self, monkeypatch):
        # More threads than cores and a thread switch every microsecond: an
        # item handed out twice, or a result lost, shows in the counts.
        monkeypatch.setattr(parallel, "_threads", lambda: 8)
        runs = [0] * 3000

        def unit(i):
            runs[i] += 1
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = parallel.ordered_map(unit, range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert got == [-i for i in range(3000)]
        assert runs == [1] * 3000

    def test_error_reaches_caller_and_pool_stays_usable(self, monkeypatch):
        monkeypatch.setattr(parallel, "_threads", lambda: 3)

        def unit(i):
            if i in (3, 7):
                raise ValueError(f"unit {i}")
            return i

        for _ in range(3):
            with pytest.raises(ValueError, match="unit 3"):
                parallel.ordered_map(unit, range(10))
            assert parallel.ordered_map(lambda i: -i, range(10)) == [-i for i in range(10)]

    def test_repeated_maps_reuse_the_pool_threads(self, monkeypatch):
        # Three items that wait for each other run on three threads; twenty
        # maps later the same threads ran them and no thread was started.
        monkeypatch.setattr(parallel, "_threads", lambda: 3)
        monkeypatch.setattr(parallel, "_pool", None)

        def threads_of_a_map():
            barrier = threading.Barrier(3, timeout=30)
            return set(parallel.ordered_map(
                lambda _: (barrier.wait(), threading.current_thread())[1], range(3)))

        first = threads_of_a_map()
        before = set(threading.enumerate())
        try:
            for _ in range(20):
                assert threads_of_a_map() == first
            assert set(threading.enumerate()) == before
            assert len(first) == 3 and threading.current_thread() in first
        finally:
            parallel._pool[1].shutdown()


class TestOrderedFold:
    def test_folds_in_item_order_holding_one_result_per_thread(self, monkeypatch):
        # Items finish out of order; folds still come in item order, and no
        # thread takes an item while it holds a result not yet folded.
        monkeypatch.setattr(parallel, "_threads", lambda: 4)
        lock, held, most, folded = threading.Lock(), [0], [0], []

        def unit(i):
            time.sleep(0.002 * ((7 * i) % 5))
            with lock:
                held[0] += 1
                most[0] = max(most[0], held[0])
            return i

        def fold(i):
            with lock:
                held[0] -= 1
            folded.append(i)

        parallel.ordered_fold(unit, fold, range(40))
        assert folded == list(range(40))
        assert most[0] <= 4

    @pytest.mark.parametrize("where", ["fn", "fold"])
    def test_failed_item_passes_its_turn(self, monkeypatch, where):
        monkeypatch.setattr(parallel, "_threads", lambda: 3)
        folded = []

        def unit(i):
            if where == "fn" and i == 4:
                raise ValueError("unit 4")
            return i

        def fold(i):
            if where == "fold" and i == 4:
                raise ValueError("unit 4")
            folded.append(i)

        for _ in range(3):
            folded.clear()
            with pytest.raises(ValueError, match="unit 4"):
                parallel.ordered_fold(unit, fold, range(10))
            assert folded[:4] == [0, 1, 2, 3] and 4 not in folded
            assert folded == sorted(folded)
        folded.clear()
        parallel.ordered_fold(lambda i: -i, folded.append, range(10))
        assert folded == [-i for i in range(10)]


def _tiny_levels(rng, widths=(4, 4, 4, 4)):
    """Four small sparse tensors with voxel sizes doubling per level."""
    tensors = []
    for k, w in enumerate(widths):
        size = 0.2 * 2**k
        shape = (16 >> k, 16 >> k, 8 >> min(k, 2))
        n = 12
        total = shape[0] * shape[1] * shape[2]
        flat = rng.choice(total, size=min(n, total), replace=False)
        coords = np.stack(np.unravel_index(flat, shape), axis=1)
        feats = rng.normal(size=(coords.shape[0], w))
        tensors.append(SparseTensor(k + 1, (size,) * 3, (0.0, 0.0, 0.0),
                                    shape, coords, feats))
    return tensors


def _mlps_for(tensors, out_width=5, seed=0):
    return [
        [nn.init_params((t.feature_width + 3, 8, out_width), seed=seed + 10 * k + r)
         for r in range(2)]
        for k, t in enumerate(tensors)
    ]


class TestVsaMultiLevel:
    def test_empty_scene_zero_features(self):
        empty = [
            SparseTensor(k + 1, (0.2 * 2**k,) * 3, (0.0,) * 3, (8, 8, 8),
                         np.empty((0, 3), np.int64), np.empty((0, 4)))
            for k in range(4)
        ]
        mlps = _mlps_for(empty)
        kp = np.array([[1.0, 1.0, 1.0]])
        out = vsa.vsa_multi_level(kp, empty, mlps, 0)
        np.testing.assert_array_equal(out, np.zeros((1, 4 * 2 * 5)))

    def test_output_width(self):
        rng = np.random.default_rng(70)
        tensors = _tiny_levels(rng)
        mlps = [
            [nn.init_params((t.feature_width + 3, 32, 32), seed=k * 2 + r)
             for r in range(2)]
            for k, t in enumerate(tensors)
        ]
        kp = rng.uniform(0, 2, size=(6, 3))
        out = vsa.vsa_multi_level(kp, tensors, mlps, 0)
        assert out.shape == (6, 256)

    def test_feature_scaling_with_centered_keypoint(self):
        # One voxel with the keypoint at its center: relative offsets are
        # zero, so with bias-free rectifier MLPs doubling the voxel feature
        # doubles the keypoint feature.
        t = SparseTensor(1, (0.2,) * 3, (0.0,) * 3, (8, 8, 8),
                         np.array([[2, 2, 2]]), np.array([[1.0, -2.0, 0.5]]))
        dims = (3 + 3, 8, 4)
        raw = nn.init_params(dims, seed=9)
        mlp = nn.MlpParams(dims, raw.weights, [np.zeros(d) for d in dims[1:]])
        kp = np.array([[0.5, 0.5, 0.5]])
        center = np.array([[0.5, 0.5, 0.5]])
        neigh = vsa.radius_query(kp, center, 0.4, 4, 0)
        one, two = vsa.aggregate([(kp, neigh, np.hstack([t.features, center]), mlp),
                                  (kp, neigh, np.hstack([2.0 * t.features, center]), mlp)])
        np.testing.assert_allclose(two, 2.0 * one, atol=1e-9)

    def test_joint_scaling_homogeneity(self):
        # Scaling geometry, features and radii together scales the output
        # for bias-free rectifier branches.
        rng = np.random.default_rng(71)
        pts = rng.uniform(0.2, 1.4, size=(30, 3))
        feats = rng.normal(size=(30, 4))
        kp = rng.uniform(0.4, 1.2, size=(5, 3))
        dims = (4 + 3, 8, 6)
        raw = nn.init_params(dims, seed=11)
        mlp = nn.MlpParams(dims, raw.weights, [np.zeros(d) for d in dims[1:]])
        scale = 3.0
        n1 = vsa.radius_query(kp, pts, 0.7, 64, seed=1)
        n2 = vsa.radius_query(kp * scale, pts * scale, 0.7 * scale, 64, seed=1)
        for a, b in zip(n1, n2):
            np.testing.assert_array_equal(a, b)
        out1, out2 = vsa.aggregate([
            (kp, n1, np.hstack([feats, pts]), mlp),
            (kp * scale, n2, np.hstack([scale * feats, pts * scale]), mlp)])
        np.testing.assert_allclose(out2, scale * out1, rtol=1e-9)


class TestExtendedVsa:
    def test_blocks_and_width(self):
        rng = np.random.default_rng(72)
        tensors = _tiny_levels(rng)
        mlps = _mlps_for(tensors)
        raw_mlps = [nn.init_params((1 + 3, 8, 4), seed=30 + r) for r in range(2)]
        bev = bev_from_dense(rng.normal(size=(4, 4, 6)), (0.0, 0.0), (0.8, 0.8))
        kp = rng.uniform(0.2, 2.8, size=(7, 3))
        raw_pts = np.concatenate([rng.uniform(0, 3, size=(40, 3)),
                                  rng.uniform(0, 1, size=(40, 1))], axis=1)
        f_pv = vsa.vsa_multi_level(kp, tensors, mlps, 0)
        f_p = vsa.extended_vsa(kp, f_pv, raw_pts, bev, raw_mlps, 0)
        assert f_p.shape == (7, f_pv.shape[1] + 2 * 4 + 6)
        assert np.isfinite(f_p).all()
        np.testing.assert_array_equal(f_p[:, : f_pv.shape[1]], f_pv)

    def test_no_raw_neighbors_zero_block(self):
        rng = np.random.default_rng(73)
        tensors = _tiny_levels(rng)
        mlps = _mlps_for(tensors)
        raw_mlps = [nn.init_params((1 + 3, 8, 4), seed=40 + r) for r in range(2)]
        bev = bev_from_dense(np.zeros((4, 4, 6)), (0.0, 0.0), (0.8, 0.8))
        kp = np.array([[1.0, 1.0, 1.0]])
        far_raw = np.array([[50.0, 50.0, 50.0, 0.5]])
        f_pv = vsa.vsa_multi_level(kp, tensors, mlps, 0)
        f_p = vsa.extended_vsa(kp, f_pv, far_raw, bev, raw_mlps, 0)
        width = f_pv.shape[1]
        np.testing.assert_array_equal(f_p[0, width : width + 8], np.zeros(8))

    def test_keypoint_outside_bev_zero_block(self):
        rng = np.random.default_rng(74)
        tensors = _tiny_levels(rng)
        mlps = _mlps_for(tensors)
        raw_mlps = [nn.init_params((1 + 3, 8, 4), seed=50 + r) for r in range(2)]
        bev = bev_from_dense(rng.normal(size=(4, 4, 6)), (0.0, 0.0), (0.8, 0.8))
        kp = np.array([[100.0, 100.0, 0.0]])
        raw_pts = np.array([[100.0, 100.0, 0.0, 0.3]])
        f_pv = vsa.vsa_multi_level(kp, tensors, mlps, 0)
        f_p = vsa.extended_vsa(kp, f_pv, raw_pts, bev, raw_mlps, 0)
        np.testing.assert_array_equal(f_p[0, -6:], np.zeros(6))


class TestPkw:
    def _mlp(self, width, seed=0):
        return nn.init_params((width, 8, 6, 1), seed=seed, out_activation="sigmoid")

    def test_scores_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(80)
        f = rng.normal(size=(50, 10))
        pos = rng.uniform(-5, 5, size=(50, 3))
        _, scores, _ = vsa.pkw(pos, f, [], self._mlp(10))
        assert (scores > 0).all() and (scores < 1).all()

    def test_weighting_scales_rows(self):
        rng = np.random.default_rng(81)
        f = rng.normal(size=(10, 6))
        pos = rng.uniform(-5, 5, size=(10, 3))
        weighted, scores, _ = vsa.pkw(pos, f, [], self._mlp(6, seed=1))
        np.testing.assert_allclose(weighted, scores[:, None] * f, atol=1e-12)

    def test_labels_match_geometry(self):
        rng = np.random.default_rng(82)
        pos = rng.uniform(-4, 4, size=(200, 3))
        boxes = [Box3D(0.0, 0.0, 0.0, 3.0, 2.0, 2.0, 0.4),
                 Box3D(2.5, -1.0, 0.5, 2.0, 1.0, 3.0, -2.9)]
        f = rng.normal(size=(200, 5))
        _, _, labels = vsa.pkw(pos, f, [boxes[0].to_array()], self._mlp(5, seed=2))
        np.testing.assert_array_equal(labels, points_in_box_obj(pos, boxes[0]))
        _, _, labels = vsa.pkw(pos, f, np.array([b.to_array() for b in boxes]),
                               self._mlp(5, seed=2))
        expect = points_in_box_obj(pos, boxes[0]) | points_in_box_obj(pos, boxes[1])
        assert 0 < expect.sum() < len(pos)
        np.testing.assert_array_equal(labels, expect)

    def test_requires_sigmoid_head(self):
        bad = nn.init_params((4, 1), seed=0)
        with pytest.raises(nn.ShapeError):
            vsa.pkw(np.zeros((1, 3)), np.zeros((1, 4)), [], bad)


class TestSegLoss:
    def test_perfect_scores_near_zero(self):
        scores = np.array([1 - 1e-7, 1e-7, 1e-7])
        labels = np.array([1, 0, 0])
        assert vsa.seg_loss(scores, labels) < 1e-4

    def test_all_background_normalization(self):
        n = 32
        scores = np.full(n, 0.5)
        labels = np.zeros(n, dtype=int)
        per = 0.75 * 0.25 * math.log(2.0)
        assert vsa.seg_loss(scores, labels) == pytest.approx(n * per)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(83)
        scores = rng.uniform(0.15, 0.85, size=20)
        labels = (rng.random(20) < 0.4).astype(int)

        def f(s):
            return vsa.seg_loss(s, labels), rpn.focal_loss_grad(s, labels)

        assert nn.grad_check(f, scores) < 1e-4
