"""Keypoint sampling and voxel set abstraction.

Farthest point sampling picks scene keypoints; set abstraction aggregates
neighboring voxel / point features through a small MLP followed by a
channel-wise max. Multi-level aggregation concatenates per-(level, radius)
branches, then raw-point and BEV features; predicted keypoint weighting
rescales each keypoint row by a learned foreground score.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geom, nn, rpn
from .config import RAW_CAP, RAW_RADII, VSA_CAPS, VSA_RADII
from .parallel import ordered_map
from .sparsegrid import BevMap, SparseTensor, bilinear_sample, voxel_centers


def fps(points: np.ndarray, n: int) -> np.ndarray:
    """Greedy farthest point sampling.

    Repeatedly selects the point maximizing distance to the selected set,
    starting at index 0, breaking ties by lowest index. When the cloud
    has fewer than n points the selected order repeats cyclically.

    Args:
        points: (N, 3) positions, N >= 1 unless n is 0.
        n: number of indices to return, >= 0.

    Returns:
        (n,) int64 array of indices into points.
    """
    if n < 0:
        raise ValueError(f"fps needs n >= 0, got {n}")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    num = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if num == 0:
        raise ValueError("fps requires at least one point")
    distinct = min(n, num)
    sel = np.empty(distinct, dtype=np.int64)
    sel[0] = 0
    # Contiguous x, y, z rows: (dx² + dy²) + dz² in place, bit for bit as before.
    cols = np.ascontiguousarray(pts.T)
    sq = (cols - cols[:, :1]) ** 2
    best, d2 = sq[0] + sq[1] + sq[2], np.empty(num)
    for s in range(1, distinct):
        nxt = int(np.argmax(best))  # argmax takes the lowest index on ties
        sel[s] = nxt
        np.subtract(cols, cols[:, nxt : nxt + 1], out=sq)
        sq *= sq
        np.add(sq[0], sq[1], out=d2)
        d2 += sq[2]
        np.minimum(best, d2, out=best)
    if n <= distinct:
        return sel[:n]
    reps = np.arange(n) % distinct
    return sel[reps]


# The set np.random.default_rng([k0, k1]).choice(found, cap, replace=False)
# returns, rebuilt for many rows at once from numpy's internals: SeedSequence
# pool mixing, PCG64 seeding and XSL-RR output, 32-bit Lemire draws and Floyd's
# sample (its final shuffle only reorders the set). `pvlite check` compares it
# with the installed numpy (vsa.cap_draws_vs_numpy).
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_U32 = np.uint64(32)


def _hash_steps(const: int, mult: int):
    """SeedSequence's hash of uint32 words: xor with a constant, multiply by
    the next one, fold the high half down; the constant advances per call."""
    def step(words: np.ndarray) -> np.ndarray:
        nonlocal const
        xor, const = const, const * mult & _M32
        words = (words ^ np.uint32(xor)) * np.uint32(const)
        return words ^ (words >> np.uint32(16))
    return step


def _mul128(ah, al, bh, bl):
    """(ah, al) * (bh, bl) mod 2**128 on uint64 halves."""
    a0, a1, b0, b1 = al & _M32, al >> _U32, bl & _M32, bl >> _U32
    mid = (a0 * b0 >> _U32) + (a0 * b1 & _M32) + (a1 * b0 & _M32)
    carry = a1 * b1 + (a0 * b1 >> _U32) + (a1 * b0 >> _U32) + (mid >> _U32)
    return carry + al * bh + ah * bl, al * bl


def _pcg_draws(keys: np.ndarray, n: int) -> np.ndarray:
    """The first 2n uint32 draws (as uint64) of default_rng(row) per (R, 2) row."""
    words = np.stack([keys[:, 0] & _M32, keys[:, 0] >> _U32,
                      keys[:, 1] & _M32, keys[:, 1] >> _U32]).astype(np.uint32)
    present = (words != 0) | [[True], [False], [True], [False]]  # 0 is one word
    entropy = np.zeros_like(words)  # the words of both keys, then zeros
    entropy[np.cumsum(present, axis=0)[present] - 1, np.nonzero(present)[1]] = words[present]
    mixin = _hash_steps(0x43B0D7E5, 0x931E8875)
    pool = [mixin(w) for w in entropy]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * mixin(pool[src])
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = _hash_steps(0x8B51F9DD, 0x58F38DED)
    w = [out(pool[i % 4]).astype(np.uint64) for i in range(8)]
    s_hi, s_lo, q_hi, q_lo = (w[2 * i] | w[2 * i + 1] << _U32 for i in range(4))
    inc_hi = (q_hi << np.uint64(1)) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << np.uint64(1)) | np.uint64(1)
    # Seeding steps twice, so draw k reads state M**(k+1) * s + (1 + ... + M**(k+1)) * inc.
    power = list(itertools.accumulate([_PCG_MULT] * (n + 1), lambda a, b: a * b & _M128))
    total = list(itertools.accumulate(power, lambda a, b: a + b & _M128, initial=1))
    jump = np.array([power[1:], total[2:]], dtype=object)
    (a_hi, c_hi), (a_lo, c_lo) = (jump >> 64).astype(np.uint64), (jump & _M64).astype(np.uint64)
    h1, l1 = _mul128(s_hi[:, None], s_lo[:, None], a_hi, a_lo)
    h2, l2 = _mul128(inc_hi[:, None], inc_lo[:, None], c_hi, c_lo)
    lo = l1 + l2
    hi = h1 + h2 + (lo < l1)
    x, rot = hi ^ lo, hi >> np.uint64(58)
    x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))  # XSL-RR
    return np.stack([x & _M32, x >> _U32], axis=2).reshape(keys.shape[0], 2 * n)


def cap_draws(keys, found, cap: int) -> np.ndarray:
    """(R, cap) int64 positions whose row i is, as a set, what
    np.random.default_rng(keys[i]).choice(found[i], cap, replace=False)
    returns, for keys an (R, 2) int array (uint64 above 2**63 - 1) in
    [0, 2**64) and each found[i] > cap. Every row is drawn at once; rows
    numpy draws by its tail shuffle (found > 10000 and cap > found // 50),
    with 64-bit draws (found > 2**32) or past a Lemire rejection among its
    first cap draws are then redrawn by default_rng. A negative key raises
    ValueError."""
    keys = np.asarray(keys).reshape(-1, 2)
    if keys.size and keys.min() < 0:
        raise ValueError("expected non-negative integer")
    keys, found = keys.astype(np.uint64), np.asarray(found, dtype=np.uint64)
    span = found[:, None] - np.uint64(cap) + np.arange(1, cap + 1, dtype=np.uint64)
    u = _pcg_draws(keys, (cap + 1) // 2)[:, :cap] * span  # Lemire: the high half
    vals = u >> _U32
    floyd = np.empty_like(vals)
    for t in range(cap):  # a value drawn before gives way to the step's bound
        hit = (floyd[:, :t] == vals[:, t, None]).any(axis=1)
        floyd[:, t] = np.where(hit, span[:, t] - np.uint64(1), vals[:, t])
    picked = floyd.astype(np.int64)
    rejected = ((u & _M32) < np.uint64(1 << 32) % span).any(axis=1)
    for i in np.flatnonzero(rejected | (found > 1 << 32) | (found > 10000) & (cap > found // 50)):
        rng = np.random.default_rng(keys[i].tolist())
        picked[i] = rng.choice(int(found[i]), size=cap, replace=False)
    return picked


class NeighborLists:
    """Neighbor lists in one int64 index array: list j is
    flat[offsets[j] : offsets[j + 1]]. An int index gives a view of one
    list, a slice (step 1) the NeighborLists of its lists sharing flat, and
    iteration the views in order."""

    def __init__(self, flat: np.ndarray, offsets: np.ndarray):
        self.flat, self.offsets = flat, offsets

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, key):
        picked = range(len(self))[key]
        if isinstance(picked, int):
            return self.flat[self.offsets[picked] : self.offsets[picked + 1]]
        if picked.step != 1:
            raise ValueError(f"NeighborLists slices take step 1, got {picked.step}")
        return NeighborLists(self.flat, self.offsets[picked.start : picked.start + len(picked) + 1])

    def __iter__(self):
        bounds = self.offsets.tolist()
        return (self.flat[a:b] for a, b in zip(bounds, bounds[1:]))


def padded_reach(radius: float, scale: float) -> float:
    """radius grown by 1e-9 of itself plus 1e-12 of scale, the largest
    coordinate magnitude in play, so that rounding in coordinates of that
    size cannot carry a pair within radius past the grown reach."""
    return radius * (1.0 + 1e-9) + 1e-12 * scale


# Most (query, point) candidate pairs one radius_query work unit holds.
QUERY_CHUNK_PAIRS = 60_000


def radius_query(
    queries: np.ndarray,
    points: np.ndarray,
    radii: float | tuple[float, ...],
    cap: int,
    seed: int | np.ndarray,
) -> NeighborLists:
    """Capped neighbor lists of each query strictly within each radius.

    A cell-list search: points are sorted into cubic cells at least the
    largest radius wide, and the points of each query's 27 surrounding cells
    are its candidates at every radius r, kept when their squared distance
    is < r**2. A point or query with a non-finite coordinate has no
    neighbors. A query with more than `cap` neighbors at a radius keeps a
    seeded uniform subsample of exactly `cap`.

    Cell keys are mixed radix with z innermost, so the occupied cells of
    one (x, y) column within a query's z reach are one run of sorted keys:
    a query finds its candidates with 9 key-range searches, all queries at
    once. Chunks of whole queries with at most QUERY_CHUNK_PAIRS candidates
    (gather, distance test, sort, cap draws) run as ordered_map units on
    every CPU. The lists do not depend on the thread count.

    Args:
        queries: (M, 3).
        points: (N, 3).
        radii: a radius or a non-empty tuple of radii, meters, each > 0.
        cap: max neighbors per query and radius, >= 0.
        seed: an int >= 0, where query i at radius index r subsamples from
            the stream [seed + r, i], or an (M, 2) array of ints >= 0 whose
            row i keys query i's streams as [row[0] + r, row[1]]. A key
            past 2**64 - 1 raises ValueError.

    Returns:
        NeighborLists of len(radii) * M lists of neighbor indices
        (ascending), radius major: list r * M + i holds query i's neighbors
        at radii[r].
    """
    radii = np.ravel(radii).astype(float)
    if radii.size == 0 or not (radii > 0).all():
        raise ValueError(f"radii must be one or more positive radii, got {radii}")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    q = np.asarray(queries, dtype=float).reshape(-1, 3)
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    m, n = q.shape[0], p.shape[0]
    seed = np.asarray(seed)
    if seed.dtype.kind not in "iu" or seed.size and seed.min() < 0:
        raise ValueError(f"seed must be ints >= 0, got {np.array2string(seed, threshold=6)}")
    if seed.ndim == 0:  # query i keys its streams [seed + r, i]
        seed = np.stack([np.full(m, seed), np.arange(m, dtype=seed.dtype)], axis=1)
    if seed.shape != (m, 2):
        raise ValueError(f"per-query seeds must have shape ({m}, 2), got {seed.shape}")
    if m and (top := int(seed[:, 0].max()) + radii.size - 1) >= 2**64:
        raise ValueError(f"seed keys reach {top} at the last radius, past 2**64 - 1")
    seed = seed.astype(np.uint64)  # keys seed + r exact up to 2**64 - 1
    ok_p, ok_q = (np.flatnonzero(np.isfinite(a).all(axis=1)) for a in (p, q))
    if ok_p.size == 0 or ok_q.size == 0:
        return NeighborLists(np.empty(0, dtype=np.int64),
                             np.zeros(radii.size * m + 1, dtype=np.int64))
    # Cells at least the largest radius wide, padded so that rounding in the
    # division and the floor never puts a pair that passes two cells apart.
    width = padded_reach(radii.max(), max(np.abs(p[ok_p]).max(), np.abs(q[ok_q]).max()))
    pcell = np.floor(p[ok_p] / width).astype(np.int64)
    # Cell keys: mixed radix of per-axis ranks among occupied coordinates,
    # below (N + 1)**3 however far apart the points are. An x or y no point
    # has ranks vals.size, a column no key falls in.
    vals = [np.unique(pcell[:, a]) for a in range(3)]
    pkey = np.zeros(ok_p.size, dtype=np.int64)
    for a in range(3):
        pkey = pkey * (vals[a].size + 1) + np.searchsorted(vals[a], pcell[:, a])
    order = np.argsort(pkey, kind="stable")
    point_of, pkey = ok_p[order], pkey[order]
    # Contiguous x, y, z rows: (dx² + dy²) + dz² in place, as in fps.
    pc, qc = np.ascontiguousarray(p.T), np.ascontiguousarray(q.T)
    # The 9 column key ranges of every finite query at once.
    qcell = np.floor(q[ok_q] / width).astype(np.int64)
    column = np.zeros((ok_q.size, 1), dtype=np.int64)
    for a in range(2):
        near = qcell[:, a, None] + np.arange(-1, 2)
        rank = np.searchsorted(vals[a], near)
        rank[vals[a][np.minimum(rank, vals[a].size - 1)] != near] = vals[a].size
        column = (column[:, :, None] * (vals[a].size + 1)
                  + rank[:, None]).reshape(ok_q.size, -1)
    column *= vals[2].size + 1
    # The occupied z in [c - 1, c + 1] rank z_lo to z_hi - 1.
    z_lo = np.searchsorted(vals[2], qcell[:, 2] - 1)
    z_hi = np.searchsorted(vals[2], qcell[:, 2] + 1, side="right")
    lo = np.searchsorted(pkey, column + z_lo[:, None])
    run = np.searchsorted(pkey, column + z_hi[:, None]) - lo
    cand = run.sum(axis=1)
    bound = np.concatenate([[0], np.cumsum(cand)])
    cuts = [0]
    while cuts[-1] < ok_q.size:  # chunks of at most QUERY_CHUNK_PAIRS candidates
        e = np.searchsorted(bound, bound[cuts[-1]] + QUERY_CHUNK_PAIRS, side="right")
        cuts.append(max(int(e) - 1, cuts[-1] + 1))

    def chunk(at):
        """The capped lists of the finite queries ok_q[at] at every radius:
        (list sizes (radii, queries), one flat index array per radius)."""
        qb, counts = ok_q[at], run[at].ravel()
        pos = np.repeat(lo[at].ravel() - np.cumsum(counts) + counts, counts)
        pidx = point_of[pos + np.arange(pos.size)]
        qidx = np.repeat(qb, cand[at])
        d = pc.take(pidx, axis=1)
        d -= qc.take(qidx, axis=1)
        d *= d
        d2 = d[0] + d[1]
        d2 += d[2]
        keep = [np.flatnonzero(d2 < radius * radius) for radius in radii]
        part = np.concatenate(  # (radius * m + query) * n + point, ascending
            [np.sort((r * m + qidx[k]) * n + pidx[k]) for r, k in enumerate(keep)])
        lists = (np.arange(radii.size)[:, None] * m + qb).ravel()
        first = np.searchsorted(part, lists * n)
        found = np.diff(np.append(first, part.size))
        over = np.flatnonzero(found > cap)  # every capped list of the chunk: one draw
        rad, qi = np.divmod(lists[over], m)
        keys = seed[qi]
        keys[:, 0] += rad.astype(seed.dtype)
        kept = np.repeat(found <= cap, found)  # False where a cap drops a pair
        kept[(first[over, None] + cap_draws(keys, found[over], cap)).ravel()] = True
        sizes = np.minimum(found, cap).reshape(radii.size, -1)
        return sizes, np.split(part[kept] % n, np.cumsum(sizes.sum(axis=1))[:-1])

    done = ordered_map(chunk, map(slice, cuts[:-1], cuts[1:]))
    lens = np.zeros((radii.size, m), dtype=np.int64)
    lens[:, ok_q] = np.concatenate([sizes for sizes, _ in done], axis=1)
    flat = np.concatenate([per_radius[r] for r in range(radii.size) for _, per_radius in done])
    return NeighborLists(flat, np.concatenate([[0], np.cumsum(lens)]))


def set_abstraction(
    center: np.ndarray,
    neighbor_feats: np.ndarray,
    neighbor_positions: np.ndarray,
    mlp: nn.MlpParams,
) -> np.ndarray:
    """Channel-wise max of the MLP applied to [feature; position - center]
    per neighbor, for (k, d) feature rows and (k, 3) positions: aggregate
    over one query. An empty neighborhood yields the zero vector."""
    feats = np.asarray(neighbor_feats, dtype=float)
    pos = np.asarray(neighbor_positions, dtype=float).reshape(-1, 3)
    if feats.shape != (pos.shape[0], mlp.in_width - 3):
        raise nn.ShapeError(f"features of shape {feats.shape} for {pos.shape[0]} positions: "
                            f"expected one row of {mlp.in_width - 3} per position")
    lists = NeighborLists(np.arange(pos.shape[0]), np.array([0, pos.shape[0]]))
    query = np.asarray(center, dtype=float).reshape(1, 3)
    return aggregate([(query, lists, np.hstack([feats, pos]), mlp)])[0][0]


# Bytes of gathered rows a set-abstraction block aims at (a call splits into
# whole blocks, so one holds up to about 1.5 times as many, plus one list),
# and the fewest rows it holds: OpenBLAS 0.3.31 rounds a row of a product of
# 64 rows or fewer unlike the same row in a long product, and alike from
# about 127 on.
ROW_BLOCK_BYTES = 4 << 20
MIN_BLOCK_ROWS = 512
# pkw runs its MLP on rows zero-padded to a multiple of PKW_ROW_GROUP:
# OpenBLAS 0.3.31 computes a width-1 output in groups of 4 rows and rounds
# the last len mod 4 rows unlike the same rows inside a group. With the pad,
# a subset of the keypoints (those RoI-grid pooling can reach) gets the rows
# it gets among all of them, bit for bit, once it is large enough. Measured
# with 350 single small RoIs on the first desk and kitti benchmark scenes:
# every subset of 21 keypoints or more matched; of 16 or fewer almost none
# did, its products being small enough for OpenBLAS's small-product path, in
# pkw and in the set-abstraction branches alike.
PKW_ROW_GROUP = 4


def block_rows(width: int) -> int:
    """Rows a set-abstraction block aims at for rows of width floats:
    ROW_BLOCK_BYTES of them, at least MIN_BLOCK_ROWS."""
    return max(MIN_BLOCK_ROWS, ROW_BLOCK_BYTES // (8 * width))


def _query_cuts(offsets: np.ndarray, width: int) -> np.ndarray:
    """Block boundaries, as query indices, of a call with these list
    offsets and rows of width floats: the whole number of blocks nearest
    total / block_rows(width), at least one and at most
    total // MIN_BLOCK_ROWS, each cut at the first query starting at or
    past its equal share of the rows; no block for no rows. A block a long
    list leaves under MIN_BLOCK_ROWS joins the one before, so no list is
    split and each block of several holds MIN_BLOCK_ROWS rows or more."""
    rows, total = offsets - offsets[0], int(offsets[-1] - offsets[0])
    per_block = block_rows(width)
    n_blocks = max(1, min((2 * total + per_block) // (2 * per_block), total // MIN_BLOCK_ROWS))
    cuts = np.unique(np.searchsorted(rows, np.arange(1, n_blocks) * total // n_blocks))
    long = np.diff(rows[np.append(cuts, rows.size - 1)]) >= MIN_BLOCK_ROWS
    return np.concatenate([[0], cuts[long], [rows.size - 1]]) if total else np.zeros(1, np.int64)


def _block(out, queries, lists, a, b, points, mlp):
    """Queries a to b of a call: gather the points their lists name,
    subtract each query from its rows, run the MLP and write the max over
    each non-empty list's rows to out."""
    bounds = lists.offsets[a : b + 1]
    lens = np.diff(bounds)
    rows = points.take(lists.flat[bounds[0] : bounds[-1]], axis=0)
    rows[:, -3:] -= np.repeat(queries[a:b], lens, axis=0)
    vals = nn.mlp_layers(mlp, rows)[-1]
    full = np.flatnonzero(lens)
    out[a + full] = np.maximum.reduceat(vals, bounds[full] - bounds[0], axis=0)


def aggregate(calls) -> list[np.ndarray]:
    """Set abstraction for each (queries, lists, points, mlp) call: the
    neighbours lists[i] of query i are gathered as rows of points, the
    (n, d + 3) matrix [features | xyz], with the query subtracted from
    their xyz, run through the MLP and reduced by a channel-wise max (the
    zero vector for no neighbour). Returns one (M, out_width) array per call.

    The blocks of all calls (_query_cuts) go to one ordered_map, and each
    writes the rows of its own queries only: no list is split between
    blocks. Every product sees MIN_BLOCK_ROWS rows or all of its call's,
    so each output equals one product over its call's rows, bit for bit,
    at any thread count and in any company.
    """
    outs, blocks = [], []
    for queries, lists, points, mlp in calls:
        outs.append(np.zeros((len(lists), mlp.out_width)))
        cuts = _query_cuts(lists.offsets, points.shape[1])
        blocks += [partial(_block, outs[-1], queries, lists, a, b, points, mlp)
                   for a, b in zip(cuts[:-1], cuts[1:])]
    ordered_map(lambda block: block(), blocks)
    return outs


def _stream_keys(base: int, ids: np.ndarray | None, m: int) -> np.ndarray:
    """radius_query's (m, 2) keys [base, ids[i]]; ids None keys query i by i,
    as an int seed does."""
    return np.column_stack([np.full(m, base), np.arange(m) if ids is None else ids])


def vsa_multi_level(
    keypoints: np.ndarray,
    level_tensors: list[SparseTensor],
    mlps: list[list[nn.MlpParams]],
    seed: int,
    ids: np.ndarray | None = None,
) -> np.ndarray:
    """Multi-scale keypoint features from the backbone levels.

    For each level k: query the voxel centers at both radii VSA_RADII[k] in
    one pass (at most VSA_CAPS[k] neighbors each), aggregate each radius
    with its branch MLP, and concatenate everything.

    The four queries run first, then the eight branches as one aggregate.

    Args:
        keypoints: (n, 3) positions.
        level_tensors: the four backbone outputs.
        mlps: mlps[k][r] for level k, radius index r.
        seed: base seed for neighbor-cap subsampling.
        ids: (n,) ints >= 0, or None for 0 to n - 1: keypoint i draws its
            caps at level k from the streams [seed + 1000 * k + r, ids[i]],
            so a keypoint's row does not depend on which others are passed.

    Returns:
        (n, sum of branch widths) feature matrix.
    """
    kp = np.asarray(keypoints, dtype=float).reshape(-1, 3)
    m, calls = kp.shape[0], []
    for k, tensor in enumerate(level_tensors):
        centers = voxel_centers(tensor)
        neigh = radius_query(kp, centers, VSA_RADII[k], VSA_CAPS[k],
                             seed=_stream_keys(seed + 1000 * k, ids, m))
        points = np.hstack([tensor.features, centers])
        calls += [(kp, neigh[r * m : (r + 1) * m], points, mlp)
                  for r, mlp in enumerate(mlps[k])]
    return np.concatenate(aggregate(calls), axis=1)


def extended_vsa(
    keypoints: np.ndarray,
    f_pv: np.ndarray,
    raw_points: np.ndarray,
    bev: BevMap,
    raw_mlps: list[nn.MlpParams],
    seed: int,
    ids: np.ndarray | None = None,
) -> np.ndarray:
    """Concatenate [f_pv, f_raw, f_bev] per keypoint.

    f_raw aggregates raw points (intensity as the single feature channel)
    at each of the RAW_RADII (at most RAW_CAP neighbors each), keypoint i
    drawing its caps from the streams [seed + 7000 + r, ids[i]] (ids as in
    vsa_multi_level); f_bev bilinearly samples the BEV map at the
    keypoint's ground-plane position.
    """
    kp = np.asarray(keypoints, dtype=float).reshape(-1, 3)
    raw = np.asarray(raw_points, dtype=float).reshape(-1, 4)
    m, points = kp.shape[0], raw[:, [3, 0, 1, 2]]  # [intensity | xyz]
    neigh = radius_query(kp, raw[:, :3], RAW_RADII, RAW_CAP,
                         seed=_stream_keys(seed + 7000, ids, m))
    f_raw = aggregate([(kp, neigh[r * m : (r + 1) * m], points, mlp)
                       for r, mlp in enumerate(raw_mlps)])
    return np.concatenate([np.asarray(f_pv, dtype=float), *f_raw,
                           bilinear_sample(bev, kp[:, :2])], axis=1)


def pkw(
    positions: np.ndarray,
    f_p: np.ndarray,
    gt_boxes: np.ndarray,
    mlp: nn.MlpParams,
):
    """Predicted keypoint weighting.

    Scores each keypoint's foreground confidence with a sigmoid MLP and
    multiplies its feature row by the score. Labels are 1 where a keypoint
    lies inside any of the (G, 7) ground-truth rows, else 0 (used for the
    segmentation loss).

    Returns:
        (weighted_features, scores, labels).
    """
    if mlp.out_width != 1 or mlp.out_activation != "sigmoid":
        raise nn.ShapeError("weighting MLP must have sigmoid output of width 1")
    feats = np.asarray(f_p, dtype=float)
    pad = -len(feats) % PKW_ROW_GROUP  # zero rows, dropped after the MLP
    rows = np.pad(feats, ((0, pad), (0, 0))) if pad else feats
    scores = nn.mlp_forward(mlp, rows)[: len(feats), 0]
    weighted = scores[:, None] * feats
    inside = geom.points_in_box(np.reshape(positions, (-1, 3)), np.reshape(gt_boxes, (-1, 7)))
    return weighted, scores, inside.any(axis=1).astype(np.int64)


def seg_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Focal segmentation loss over keypoints, normalized by positive count."""
    return rpn.focal_loss(scores, labels)


@dataclass
class KeypointSet:
    """Sampled keypoints with their combined features and weighting."""

    positions: np.ndarray  # (n, 3)
    indices: np.ndarray  # (n,) into the raw cloud
    f_p: np.ndarray  # [f_pv, f_raw, f_bev]
    weighted_xyz: np.ndarray  # [scores[:, None] * f_p | positions]
    scores: np.ndarray  # (n,) in (0, 1)
    labels: np.ndarray  # (n,) in {0, 1}

    @property
    def weighted(self) -> np.ndarray:
        return self.weighted_xyz[:, :-3]

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def feature_width(self) -> int:
        return self.f_p.shape[1]
