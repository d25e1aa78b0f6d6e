"""Voxelization, sparse 3x3x3 convolution, a four-level backbone, BEV
collapse and bilinear BEV sampling.

Sparse tensors store active (i, j, k) coordinates plus one feature row per
coordinate, iterated in sorted-coordinate order for determinism. Convolution
is numerically equal to a dense zero-padded convolution restricted to the
active output set; there are no bias terms or normalization layers.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .parallel import ordered_fold, ordered_map


class GridConfigError(ValueError):
    """Raised on inconsistent grid / weight configuration."""


@dataclass(frozen=True)
class SparseTensor:
    """Coordinates-plus-features voxel volume at one backbone level."""

    level_index: int
    voxel_size: np.ndarray  # (3,) meters per axis
    origin: np.ndarray  # (3,) meters, range minimum
    grid_shape: tuple[int, int, int]
    coords: np.ndarray  # (N, 3) int64, unique, sorted lexicographically
    features: np.ndarray  # (N, C) float64

    def __post_init__(self):
        vs = np.asarray(self.voxel_size, dtype=float).copy()
        org = np.asarray(self.origin, dtype=float).copy()
        coords = np.asarray(self.coords, dtype=np.int64).reshape(-1, 3).copy()
        feats = np.asarray(self.features, dtype=float).copy()
        if feats.ndim != 2 or feats.shape[0] != coords.shape[0]:
            raise GridConfigError(
                f"features rows {feats.shape} must match coords count {coords.shape[0]}"
            )
        shape = tuple(int(s) for s in self.grid_shape)
        if len(shape) != 3 or any(s <= 0 for s in shape):
            raise GridConfigError(f"bad grid shape {shape}")
        if coords.size:
            if coords.min() < 0 or (coords >= np.array(shape)).any():
                raise GridConfigError("coords out of grid bounds")
            order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
            coords = coords[order]
            feats = feats[order]
            if (np.diff(_pack(coords, shape)) == 0).any():
                raise GridConfigError("duplicate coordinates")
        for arr in (vs, org, coords, feats):
            arr.flags.writeable = False
        object.__setattr__(self, "voxel_size", vs)
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "grid_shape", shape)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "features", feats)

    @classmethod
    def trusted(cls, *fields) -> "SparseTensor":
        """A tensor of fields already in final form (float arrays, coords
        unique, sorted and in bounds, one feature row each), taken without a
        copy, sort or check. Only for results of this module's own kernels."""
        t = object.__new__(cls)
        t.__dict__.update(zip((f.name for f in dataclasses.fields(cls)), fields))
        for arr in (t.voxel_size, t.origin, t.coords, t.features):
            arr.flags.writeable = False
        return t

    @property
    def num_voxels(self) -> int:
        return self.coords.shape[0]

    @property
    def feature_width(self) -> int:
        return self.features.shape[1]


def _pack(coords: np.ndarray, shape) -> np.ndarray:
    """Flatten (i, j, k) into row-major scalar keys (ascending == lexicographic)."""
    if coords.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.ravel_multi_index((coords[:, 0], coords[:, 1], coords[:, 2]), shape)


def grid_shape_for(range_min, range_max, voxel_size) -> tuple[int, int, int]:
    """Number of voxels per axis; the extent must be an integer multiple of
    the voxel size (within 1e-6 of a cell)."""
    shape = []
    for lo, hi, vs in zip(range_min, range_max, voxel_size):
        if vs <= 0:
            raise GridConfigError(f"voxel size must be positive, got {vs}")
        n_exact = (hi - lo) / vs
        n = round(n_exact)
        if n <= 0 or abs(n_exact - n) > 1e-6:
            raise GridConfigError(
                f"range [{lo}, {hi}] is not an integer number of {vs} m voxels"
            )
        shape.append(int(n))
    return tuple(shape)


def in_range(xyz: np.ndarray, range_min, range_max) -> np.ndarray:
    """Mask of the rows of xyz inside [range_min, range_max); NaN is outside."""
    return ((xyz >= np.asarray(range_min)) & (xyz < np.asarray(range_max))).all(axis=1)


def voxelize(points, range_min, range_max, voxel_size) -> SparseTensor:
    """Average points into level-1 voxels.

    Points outside the half-open range [min, max) are dropped. Each
    non-empty voxel's feature is the mean of the (x, y, z, intensity)
    rows of its points. Accumulation runs in a canonical sorted order so
    the result is bit-identical under input permutation.

    Args:
        points: (N, 4) array of x, y, z, intensity.
        range_min / range_max: per-axis bounds, meters.
        voxel_size: per-axis voxel edge lengths, meters.

    Returns:
        A level-1 SparseTensor with 4-wide features (possibly empty).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    lo = np.asarray(range_min, dtype=float)
    hi = np.asarray(range_max, dtype=float)
    vs = np.asarray(voxel_size, dtype=float)
    shape = grid_shape_for(lo, hi, vs)
    pts = pts[in_range(pts[:, :3], lo, hi)]
    if pts.shape[0] == 0:
        return SparseTensor(1, vs, lo, shape, np.empty((0, 3), np.int64),
                            np.empty((0, 4)))
    idx = np.floor((pts[:, :3] - lo) / vs).astype(np.int64)
    np.clip(idx, 0, np.array(shape) - 1, out=idx)  # fp guard at cell edges
    flat = _pack(idx, shape)
    # Canonical order: voxel key, then point values, for bit-reproducibility.
    order = np.lexsort((pts[:, 3], pts[:, 2], pts[:, 1], pts[:, 0], flat))
    flat = flat[order]
    pts = pts[order]
    keys, starts, counts = np.unique(flat, return_index=True, return_counts=True)
    sums = np.add.reduceat(pts, starts, axis=0)
    feats = sums / counts[:, None]
    coords = np.stack(np.unravel_index(keys, shape), axis=1).astype(np.int64)
    return SparseTensor(1, vs, lo, shape, coords, feats)


# Tap n of a 3x3x3 kernel reads the input at out * stride + _DELTAS[n];
# taps n and 26 - n have opposite deltas.
_DELTAS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))


def _rulebook(inp: SparseTensor, stride: int, mode: str, out_shape):
    """Output coordinates and, per tap, the (out rows, in rows) it pairs,
    both ascending. Each tap's look-up is one ordered_map unit.

    Submanifold: each of the 13 taps before the centre shifts the input
    keys by its delta (inputs whose shifted coordinate leaves the grid
    drop out) and looks them up with one searchsorted; tap 26 - n is tap n
    with its pairs swapped. Strided: each tap lists the inputs it falls
    under and the outputs whose window holds them (at most 3 per axis
    hold an input); one unique over all taps gives the output set.
    """
    coords, n_in, shape = inp.coords, inp.num_voxels, inp.grid_shape
    if mode == "submanifold":
        keys, step = _pack(coords, shape), np.array([shape[1] * shape[2], shape[2], 1])

        def lower(delta):  # in-grid coordinates shift their row-major key by delta @ step
            near = coords + delta
            row = np.flatnonzero(((near >= 0) & (near < shape)).all(axis=1))
            want = keys[row] + delta @ step
            pos = np.minimum(np.searchsorted(keys, want), n_in - 1)
            hit = keys[pos] == want
            return row[hit], pos[hit]

        pairs = ordered_map(lower, _DELTAS[:13])
        centre = np.arange(n_in)
        return coords, pairs + [(centre, centre)] + [(i, o) for o, i in pairs[::-1]]
    # Output o takes input c under tap n when o * stride + delta = c.
    num = coords[:, :, None] - np.arange(-1, 2)  # (N, axis, delta + 1)
    fits = (num % stride == 0) & (num >= 0) & (num // stride < np.reshape(out_shape, (3, 1)))
    num //= stride

    def listed(delta):  # inputs ascending, so their outputs ascend with them
        i, j, k = delta + 1
        row = np.flatnonzero(fits[:, 0, i] & fits[:, 1, j] & fits[:, 2, k])
        return row, np.ravel_multi_index((num[row, 0, i], num[row, 1, j], num[row, 2, k]),
                                         out_shape)

    taps = ordered_map(listed, _DELTAS)
    keys = np.unique(np.concatenate([out_keys for _, out_keys in taps]))
    out_coords = np.stack(np.unravel_index(keys, out_shape), axis=1).astype(np.int64)
    return out_coords, ordered_map(lambda tap: (np.searchsorted(keys, tap[1]), tap[0]), taps)


def sparse_conv(
    inp: SparseTensor, weights: np.ndarray, stride: int = 1, mode: str = "submanifold"
) -> SparseTensor:
    """3x3x3 sparse convolution with zero padding of one voxel.

    Submanifold mode emits outputs only at input-active sites and requires
    stride 1. Strided mode emits outputs at every site whose 3x3x3 input
    window contains at least one active voxel. Either way the values equal
    a dense zero-padded convolution restricted to the active output set.

    The rulebook's per-tap look-ups and the taps' products
    (features[in rows] @ tap) run on every CPU. Each product is added into
    its output rows strictly in tap order (parallel.ordered_fold), so every
    output row sums its taps in the order one thread would: the result is
    the same bits at any thread count, and at most one product per thread
    is held at a time.

    Args:
        inp: input tensor.
        weights: (3, 3, 3, Cin, Cout) kernel.
        stride: 1, or 2 in strided mode.
        mode: 'submanifold' or 'strided'.

    Returns:
        Output SparseTensor (level_index bumped when stride is 2).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 5 or w.shape[:3] != (3, 3, 3):
        raise GridConfigError(f"weights must be (3,3,3,Cin,Cout), got {w.shape}")
    if w.shape[3] != inp.feature_width:
        raise GridConfigError(
            f"kernel Cin {w.shape[3]} != input feature width {inp.feature_width}"
        )
    if mode not in ("submanifold", "strided"):
        raise GridConfigError(f"unknown mode {mode!r}")
    if stride not in (1, 2):
        raise GridConfigError(f"stride must be 1 or 2, got {stride}")
    if mode == "submanifold" and stride != 1:
        raise GridConfigError("submanifold convolution requires stride 1")

    c_out = w.shape[4]
    out_shape = tuple(-(-s // stride) for s in inp.grid_shape)
    out_level = inp.level_index + (1 if stride == 2 else 0)
    out_vsize = inp.voxel_size * stride
    if inp.num_voxels == 0:
        return SparseTensor(out_level, out_vsize, inp.origin, out_shape,
                            np.empty((0, 3), np.int64), np.empty((0, c_out)))

    out_coords, pairs = _rulebook(inp, stride, mode, out_shape)
    out_feats = np.zeros((out_coords.shape[0], c_out))
    taps = w.reshape(27, w.shape[3], c_out)

    def product(t):
        out_rows, in_rows = pairs[t]
        return out_rows, inp.features[in_rows] @ taps[t]

    def add(rows_product):
        out_rows, prod = rows_product
        out_feats[out_rows] += prod

    ordered_fold(product, add, [t for t in range(27) if pairs[t][0].size])
    return SparseTensor.trusted(out_level, out_vsize, inp.origin, out_shape,
                                out_coords, out_feats)


def relu_features(t: SparseTensor) -> SparseTensor:
    """max(0, x) applied to every feature entry."""
    return SparseTensor.trusted(t.level_index, t.voxel_size, t.origin, t.grid_shape,
                                t.coords, np.maximum(t.features, 0.0))


@dataclass(frozen=True)
class BackboneParams:
    """Per-level kernel pairs (one downsampling conv, one submanifold conv)."""

    widths: tuple[int, int, int, int]
    level_weights: tuple  # 4 pairs of (3,3,3,Cin,Cout) arrays

    def __post_init__(self):
        if len(self.widths) != 4 or len(self.level_weights) != 4:
            raise GridConfigError("backbone needs exactly four levels")


# Effective active taps per 3x3x3 window on sparse surface-like scenes;
# using the dense 27 here makes activations vanish by the deep levels.
SPARSE_FAN_TAPS = 2


def init_backbone(
    in_width: int, widths, seed
) -> BackboneParams:
    """Deterministic uniform kernels scaled for sparse occupancy."""
    rng = np.random.default_rng(seed)
    widths = tuple(int(w) for w in widths)
    level_weights = []
    prev = in_width
    for wd in widths:
        pair = []
        for cin, cout in ((prev, wd), (wd, wd)):
            s = np.sqrt(6.0 / (SPARSE_FAN_TAPS * (cin + cout)))
            pair.append(rng.uniform(-s, s, size=(3, 3, 3, cin, cout)))
        level_weights.append(tuple(pair))
        prev = wd
    return BackboneParams(widths, tuple(level_weights))


def run_backbone(level1: SparseTensor, params: BackboneParams) -> list[SparseTensor]:
    """Four-level encoder producing 1x, 2x, 4x, 8x downsampled volumes.

    Each level applies one downsampling conv (stride 2, except level 1 which
    is a stride-1 submanifold conv) then one submanifold conv, each followed
    by the rectifier.
    """
    outs = []
    x = level1
    for k in range(4):
        w_down, w_sub = params.level_weights[k]
        if k == 0:
            x = relu_features(sparse_conv(x, w_down, stride=1, mode="submanifold"))
        else:
            x = relu_features(sparse_conv(x, w_down, stride=2, mode="strided"))
        x = relu_features(sparse_conv(x, w_sub, stride=1, mode="submanifold"))
        outs.append(x)
    return outs


def voxel_centers(t: SparseTensor) -> np.ndarray:
    """World-space centers of the active voxels, shape (N, 3)."""
    return t.origin + (t.coords + 0.5) * t.voxel_size


@dataclass(frozen=True)
class BevMap:
    """Bird's-eye-view feature grid collapsed from a voxel level, kept as
    occupied rows: rows[index[i, j]] holds the stacked per-z-bin features of
    cell (i, j), and every empty cell points at the all-zero last row. Cell
    (i, j) covers origin + [i, i+1) * cell_size in x and likewise in y.
    """

    rows: np.ndarray  # (occupied + 1, channels), last row zeros
    index: np.ndarray  # (nx, ny) integer row of each cell
    origin: np.ndarray  # (2,) meters
    cell_size: np.ndarray  # (2,) meters

    def __post_init__(self):
        rows, index = np.asarray(self.rows, dtype=float), np.asarray(self.index)
        if rows.ndim != 2 or not np.isfinite(rows).all():
            raise GridConfigError(f"rows must be 2-D and finite, got shape {rows.shape}")
        if not len(rows) or rows[-1].any():
            raise GridConfigError("rows must end in an all-zero row")
        if index.ndim != 2 or index.dtype.kind not in "iu" or (
                index.size and not 0 <= index.min() <= index.max() < len(rows)):
            raise GridConfigError(f"index must be a 2-D integer map into the {len(rows)} rows")
        for name, arr in (("rows", rows), ("index", index),
                          ("origin", np.array(self.origin, dtype=float)),
                          ("cell_size", np.array(self.cell_size, dtype=float))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def nx(self) -> int:
        return self.index.shape[0]

    @property
    def ny(self) -> int:
        return self.index.shape[1]

    @property
    def channels(self) -> int:
        return self.rows.shape[1]


def bev_collapse(t8: SparseTensor) -> BevMap:
    """Stack a voxel level along Z into a BEV map of its occupied cells.

    Channel block b (width = feature width) of cell (i, j) holds the feature
    of voxel (i, j, b), or zeros where that voxel is empty.
    """
    if t8.level_index != 4:
        raise GridConfigError(
            "bev_collapse expects the level-4 (8x) tensor, "
            f"got level {t8.level_index}"
        )
    nx, ny, nz = t8.grid_shape
    c = t8.coords
    cells, inv = np.unique(c[:, 0] * ny + c[:, 1], return_inverse=True)
    rows = np.zeros((len(cells) + 1, nz * t8.feature_width))
    rows.reshape(len(rows), nz, -1)[inv, c[:, 2]] = t8.features
    index = np.full(nx * ny, len(cells))
    index[cells] = np.arange(len(cells))
    return BevMap(rows, index.reshape(nx, ny), t8.origin[:2], t8.voxel_size[:2])


def bilinear_sample(bev: BevMap, xy: np.ndarray) -> np.ndarray:
    """Zero-padded bilinear interpolation at metric xy positions.

    The blend uses the four surrounding cell centers; cells outside the map
    contribute zeros, so queries far outside the extent return zero vectors
    and the field is continuous everywhere.

    Args:
        bev: the map.
        xy: (2,) or (M, 2) query positions in meters.

    Returns:
        (channels,) or (M, channels) feature rows.
    """
    q = np.asarray(xy, dtype=float)
    single = q.ndim == 1
    q = q.reshape(-1, 2)
    u = (q[:, 0] - bev.origin[0]) / bev.cell_size[0] - 0.5
    v = (q[:, 1] - bev.origin[1]) / bev.cell_size[1] - 0.5
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    tu = u - i0
    tv = v - j0
    out = np.zeros((q.shape[0], bev.channels))
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ii = i0 + di
        jj = j0 + dj
        wgt = (tu if di else 1.0 - tu) * (tv if dj else 1.0 - tv)
        ok = (ii >= 0) & (ii < bev.nx) & (jj >= 0) & (jj < bev.ny)
        if ok.any():
            out[ok] += wgt[ok, None] * bev.rows[bev.index[ii[ok], jj[ok]]]
    return out[0] if single else out
