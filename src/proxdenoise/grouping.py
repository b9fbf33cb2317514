"""Block matching and collaborative group filtering.

Sites live on the valid patch grid of an image: for patches of size
(ph, pw) on an (H, W, C) image the grid is (H-ph+1) x (W-pw+1), indexed in
row-major order.  block_match builds, for every site, the indices of the
group_size most similar patches (squared l2 distance over raw pixels, all
channels) inside a window centered on the site.  The table is computed
once per noisy input and shared by every layer of the cascade.

Matching visits window offsets, not sites (the per-offset distance trick
of fast BM3D): for each window row it computes the distances of every site
to all column offsets at once with separable shifted-slice box sums, then
merges them into a running best list per site by a stable sort on
distance.  Sites are processed in row chunks under a fixed byte budget, so
its temporaries stay bounded at any image size.  The table also stores
its transpose (group entries sorted by target site), built once and used
by every adjoint call of every stage.

group_filter mixes each site's feature vector from its group using convex
weights g = u / sum(u); the raw weights u are the trainable quantity and
the gradient through the normalization is the exact Jacobian

    grad_u = (grad_g - <g, grad_g>) / sum(u).

The filter and its exact adjoint are both linear in the features, so the
pair satisfies the dot-product identity to round-off.
"""

import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conv import FilterBank, conv_adjoint, conv_forward
from .errors import BadArgument, DegenerateWeights, ShapeMismatch

__all__ = [
    "GroupIndexTable",
    "GroupWeights",
    "block_match",
    "group_filter",
    "group_filter_adjoint",
    "group_bilinear",
    "raw_weight_backward",
    "group_weight_backward",
    "nonlocal_forward",
    "nonlocal_adjoint",
]

# Byte budget of one float64 distance block in block_match, and of one
# gathered block in group_filter_adjoint; the matcher's peak temporaries
# are about ten times this.
_CHUNK_BYTES = 1 << 20


@dataclass
class GroupIndexTable:
    """Per-site neighbor indices on the valid patch grid.

    indices  (K, P) int64; row k lists the group for site k, row-major grid
             order, with indices[k, 0] == k (the site itself)
    grid_h, grid_w  valid patch grid shape, K = grid_h * grid_w

    Construction also stores the transpose that group_filter_adjoint
    scatters with: the flat entries k * P + p sorted by their target site
    indices[k, p] (stable, so by source site within a target), the start of
    each target's segment, and the targets themselves.  indices must not be
    modified afterwards.
    """

    indices: np.ndarray
    grid_h: int
    grid_w: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices)
        if self.indices.ndim != 2:
            raise ShapeMismatch("indices must be (K, P)")
        if self.indices.shape[0] != self.grid_h * self.grid_w:
            raise ShapeMismatch("index row count does not match grid")
        if self.indices.size and not 0 <= self.indices.min() <= self.indices.max() < self.sites:
            raise BadArgument("group indices must be sites of the grid")
        flat = self.indices.ravel()
        # int32 halves the footprint of a table that lives through the whole cascade
        compact = np.int32 if flat.size <= np.iinfo(np.int32).max else np.int64
        uses = np.bincount(flat, minlength=self.sites)
        self._targets = np.flatnonzero(uses).astype(compact)
        self._starts = np.r_[0, np.cumsum(uses[self._targets])].astype(compact)
        self._entries = np.argsort(flat, kind="stable").astype(compact)

    @property
    def sites(self) -> int:
        return self.indices.shape[0]

    @property
    def group_size(self) -> int:
        return self.indices.shape[1]


@dataclass
class GroupWeights:
    """Trainable raw group mixing weights u; effective weights are u/sum(u)."""

    raw: np.ndarray

    def __post_init__(self):
        self.raw = np.asarray(self.raw)
        if self.raw.ndim != 1:
            raise ShapeMismatch("group weights must be a vector")

    @classmethod
    def default_init(cls, group_size, dtype=np.float32):
        # 1, 1/2, ..., 1/P: the reference patch dominates, far matches fade
        return cls((1.0 / np.arange(1, group_size + 1)).astype(dtype))

    def normalizer(self) -> float:
        nu = float(self.raw.sum())
        if nu == 0.0:
            raise DegenerateWeights("group weights sum to zero")
        return nu

    def effective(self) -> np.ndarray:
        return self.raw / self.normalizer()


def _positive_int(value, what):
    try:
        value = operator.index(value)
    except TypeError:
        raise BadArgument(f"{what} must be an integer") from None
    if value < 1:
        raise BadArgument(f"{what} must be at least 1")
    return value


def block_match(y, patch_hw, window_hw, group_size) -> GroupIndexTable:
    """Exhaustive windowed nearest-patch search on raw pixels.

    Distances are squared l2 over (ph, pw, C) patches in float64.  Each
    group starts with the site itself, followed by the group_size - 1
    closest other sites in the window; distance ties break toward the
    smaller row-major site index.

    The search loops over window rows di.  For one di it forms the
    per-pixel squared differences to all ww column offsets, summed over
    channels, then box-sums them over the patch columns and rows with
    shifted slices (no global cumulative sum, which would lose precision on
    non-integer input).  A site's candidates from successive di arrive in
    increasing site-index order, so a stable sort of [best so far, new] on
    distance keeps the tie-break exact; only sites with a new candidate
    strictly closer than their current worst are merged.  Off-grid
    candidates read NaN padding, and NaN sorts after every distance.  Sites
    are processed in chunks of grid rows whose distance blocks fit in
    _CHUNK_BYTES.  Rejects non-finite images.
    """
    y = np.asarray(y)
    if y.ndim != 3:
        raise ShapeMismatch("image must be (H, W, C)")
    if not np.isfinite(y).all():
        raise BadArgument("image must be finite")
    ph, pw = (_positive_int(v, "patch side") for v in patch_hw)
    wh, ww = (_positive_int(v, "window side") for v in window_hw)
    group_size = _positive_int(group_size, "group size")
    if wh % 2 == 0 or ww % 2 == 0:
        raise BadArgument("window sides must be odd")
    h, w, c = y.shape
    if ph > h or pw > w:
        raise BadArgument("patch does not fit in image")
    gh, gw = h - ph + 1, w - pw + 1
    rh, rw = wh // 2, ww // 2
    if group_size > min(gh, rh + 1) * min(gw, rw + 1):
        raise BadArgument("group size exceeds the worst-case window population")

    keep = group_size - 1
    indices = np.empty((gh * gw, group_size), dtype=np.int64)
    indices[:, 0] = np.arange(gh * gw)
    if keep == 0:
        return GroupIndexTable(indices, gh, gw)
    padded = np.full((h + 2 * rh, w + 2 * rw, c), np.nan)
    padded[rh : rh + h, rw : rw + w] = y
    shifted = sliding_window_view(padded, ww, axis=1)  # (h + 2rh, w, c, ww): all column offsets
    ref = padded[rh : rh + h, rw : rw + w]
    chunk = max(1, _CHUNK_BYTES // (8 * w * ww))
    for i0 in range(0, gh, chunk):
        n = min(chunk, gh - i0)
        npx = n + ph - 1
        sq = np.empty((npx, w, ww))
        diff = np.empty_like(sq) if c > 1 else None
        colsum = np.empty((npx, gw, ww))
        dist = np.empty((n, gw, ww))
        best_d = np.full((n * gw, keep), np.nan)
        # window offset codes (di + rh) * ww + (dj + rw) increase with the candidate's site index
        best_k = np.zeros((n * gw, keep), dtype=np.int64)
        for di in range(-rh, rh + 1):
            cand = shifted[i0 + rh + di : i0 + rh + di + npx]
            np.subtract(ref[i0 : i0 + npx, :, 0, None], cand[:, :, 0], out=sq)
            np.multiply(sq, sq, out=sq)
            for ch in range(1, c):
                np.subtract(ref[i0 : i0 + npx, :, ch, None], cand[:, :, ch], out=diff)
                np.multiply(diff, diff, out=diff)
                sq += diff
            np.copyto(colsum, sq[:, :gw])
            for b in range(1, pw):
                colsum += sq[:, b : b + gw]
            np.copyto(dist, colsum[:n])
            for a in range(1, ph):
                dist += colsum[a : a + n]
            if di == 0:
                dist[:, :, rw] = np.nan  # the site itself
            new_d = dist.reshape(-1, ww)
            merge = np.flatnonzero((new_d < best_d[:, -1:]).any(axis=1) | np.isnan(best_d[:, -1]))
            cat_d = np.concatenate([best_d[merge], new_d[merge]], axis=1)
            codes = np.broadcast_to(np.arange((di + rh) * ww, (di + rh + 1) * ww), (merge.size, ww))
            cat_k = np.concatenate([best_k[merge], codes], axis=1)
            order = np.argsort(cat_d, axis=1, kind="stable")[:, :keep]
            best_d[merge] = np.take_along_axis(cat_d, order, axis=1)
            best_k[merge] = np.take_along_axis(cat_k, order, axis=1)
        rows = indices[i0 * gw : (i0 + n) * gw]
        rows[:, 1:] = rows[:, :1] + (best_k // ww - rh) * gw + best_k % ww - rw
    return GroupIndexTable(indices, gh, gw)


def _check_feature_sites(features, table):
    features = np.asarray(features)
    if features.ndim != 3:
        raise ShapeMismatch("features must be (grid_h, grid_w, F)")
    if features.shape[:2] != (table.grid_h, table.grid_w):
        raise ShapeMismatch("feature grid does not match group table")
    return features


def group_filter(features, table: GroupIndexTable, weights: GroupWeights):
    """out[k] = sum_p g_p * features[indices[k, p]]."""
    features = _check_feature_sites(features, table)
    g = weights.effective().astype(features.dtype, copy=False)
    if g.size != table.group_size:
        raise ShapeMismatch("weight count does not match group size")
    flat = features.reshape(table.sites, -1)
    out = np.zeros_like(flat)
    for p in range(table.group_size):
        out += g[p] * flat[table.indices[:, p]]
    return out.reshape(features.shape)


def group_filter_adjoint(z, table: GroupIndexTable, weights: GroupWeights):
    """Exact transpose: out[t] = sum of g_p * z[k] over entries indices[k, p] == t.

    Reads the table's stored transpose: for a chunk of whole target
    segments it gathers the source rows, scales them by their slot weights
    and sums each segment with np.add.reduceat.  Each target has exactly
    one segment, so the sums are assigned, not accumulated.
    """
    z = _check_feature_sites(z, table)
    g = weights.effective().astype(z.dtype, copy=False)
    if g.size != table.group_size:
        raise ShapeMismatch("weight count does not match group size")
    flat = z.reshape(table.sites, -1)
    out = np.zeros_like(flat)
    p = table.group_size
    starts, targets = table._starts, table._targets
    step = max(1, _CHUNK_BYTES // (p * flat.shape[1] * flat.itemsize))
    for s0 in range(0, targets.size, step):
        s1 = min(s0 + step, targets.size)
        entries = table._entries[starts[s0] : starts[s1]]
        part = flat[entries // p]
        part *= g[entries % p, None]
        out[targets[s0:s1]] = np.add.reduceat(part, starts[s0:s1] - starts[s0], axis=0)
    return out.reshape(z.shape)


def group_bilinear(a, b, table: GroupIndexTable):
    """bil[p] = sum_k <a[indices[k, p]], b[k]>; the effective-weight gradient
    of <group_filter(a; g), b> and, with arguments swapped, of the adjoint."""
    a = _check_feature_sites(a, table)
    b = _check_feature_sites(b, table)
    aflat = a.reshape(table.sites, -1)
    bflat = b.reshape(table.sites, -1)
    out = np.empty(table.group_size, dtype=np.result_type(a, b))
    for p in range(table.group_size):
        out[p] = np.vdot(aflat[table.indices[:, p]], bflat)
    return out


def raw_weight_backward(grad_effective, weights: GroupWeights):
    """Pull a gradient in the effective weights g = u/sum(u) back to u."""
    nu = weights.normalizer()
    g = weights.effective()
    grad_effective = np.asarray(grad_effective, dtype=g.dtype)
    return (grad_effective - float(np.vdot(g, grad_effective))) / nu


def group_weight_backward(features, table, weights, grad_out):
    """Gradient of <group_filter(features), grad_out> w.r.t. the raw weights."""
    return raw_weight_backward(group_bilinear(features, grad_out, table), weights)


def nonlocal_forward(x, bank: FilterBank, table, weights):
    """Patch transform (valid convolution) followed by group filtering."""
    return group_filter(conv_forward(x, bank, mode="valid"), table, weights)


def nonlocal_adjoint(z, bank: FilterBank, table, weights):
    """Exact transpose of nonlocal_forward."""
    return conv_adjoint(group_filter_adjoint(z, table, weights), bank, mode="valid")
