"""Shared helpers: synthetic test images and brute-force oracles.

The oracles are deliberately naive (nested loops, direct summation) and
independent of the library's vectorized implementations; tests compare
the two.
"""

import math

import numpy as np
import pytest


# ------------------------------------------------------------ synthetic data


def synthetic_image(seed, h, w, channels=1):
    """Piecewise-smooth seeded image in [0, 255]: a few low-frequency waves
    plus soft-edged elliptical patches, loosely like photographic content."""
    rng = np.random.default_rng([97, seed])
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    yy /= max(h - 1, 1)
    xx /= max(w - 1, 1)
    img = np.zeros((h, w, channels))
    for c in range(channels):
        base = rng.uniform(60.0, 190.0)
        field = np.full((h, w), base)
        for _ in range(4):
            fy, fx = rng.uniform(0.5, 3.0, 2)
            phase = rng.uniform(0.0, 2 * math.pi, 2)
            amp = rng.uniform(10.0, 35.0)
            field += amp * np.sin(2 * math.pi * fy * yy + phase[0]) * np.sin(
                2 * math.pi * fx * xx + phase[1]
            )
        for _ in range(rng.integers(2, 5)):
            cy, cx = rng.uniform(0.1, 0.9, 2)
            ry, rx = rng.uniform(0.08, 0.35, 2)
            level = rng.uniform(-60.0, 60.0)
            d = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2
            edge = np.clip(12.0 * (d - 1.0), -60.0, 60.0)  # soft edge
            field += level / (1.0 + np.exp(edge))
        img[:, :, c] = field
    return np.clip(img, 0.0, 255.0).astype(np.float32)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ----------------------------------------------------------------- oracles


def reflect_index(i, size):
    """Symmetric (edge-repeating) boundary index."""
    if i < 0:
        return -1 - i
    if i >= size:
        return 2 * size - 1 - i
    return i


def conv_oracle(x, kernels, mode="same"):
    """Nested-loop correlation; kernels is (F, kh, kw, C)."""
    h, w, c = x.shape
    f, kh, kw, _ = kernels.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    if mode == "same":
        ho, wo = h, w
    else:
        ho, wo = h - kh + 1, w - kw + 1
    out = np.zeros((ho, wo, f), dtype=np.float64)
    for i in range(ho):
        for j in range(wo):
            for q in range(f):
                acc = 0.0
                for di in range(kh):
                    for dj in range(kw):
                        if mode == "same":
                            si = reflect_index(i + di - pt, h)
                            sj = reflect_index(j + dj - pl, w)
                        else:
                            si, sj = i + di, j + dj
                        for ch in range(c):
                            acc += float(x[si, sj, ch]) * float(kernels[q, di, dj, ch])
                out[i, j, q] = acc
    return out


def block_match_oracle(y, patch_hw, window_hw, group_size):
    """Exhaustive nested-loop patch search with the documented tie-break:
    the site itself first, then ascending distance, ties toward the smaller
    row-major site index."""
    ph, pw = patch_hw
    rh, rw = window_hw[0] // 2, window_hw[1] // 2
    gh = y.shape[0] - ph + 1
    gw = y.shape[1] - pw + 1
    y = np.asarray(y, dtype=np.float64)
    table = np.empty((gh * gw, group_size), dtype=np.int64)
    for i in range(gh):
        for j in range(gw):
            ref = y[i : i + ph, j : j + pw].ravel()
            scored = []
            for i2 in range(max(0, i - rh), min(gh, i + rh + 1)):
                for j2 in range(max(0, j - rw), min(gw, j + rw + 1)):
                    if (i2, j2) == (i, j):
                        continue
                    cand = y[i2 : i2 + ph, j2 : j2 + pw].ravel()
                    d = float(np.sum((cand - ref) ** 2))
                    scored.append((d, i2 * gw + j2))
            scored.sort()
            row = i * gw + j
            table[row, 0] = row
            table[row, 1:] = [s for _, s in scored[: group_size - 1]]
    return table


def rbf_oracle(z, centers, precision, coeffs):
    """Direct per-sample, per-kernel summation."""
    h, w, d = z.shape
    out = np.zeros((h, w, d), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            for c in range(d):
                acc = 0.0
                for m in range(centers.size):
                    diff = float(z[i, j, c]) - float(centers[m])
                    acc += float(coeffs[c, m]) * math.exp(-precision * diff * diff)
                out[i, j, c] = acc
    return out


def group_filter_oracle(features, indices, g):
    """Direct gather-and-mix."""
    gh, gw, f = features.shape
    flat = features.reshape(-1, f).astype(np.float64)
    out = np.zeros_like(flat)
    for k in range(flat.shape[0]):
        for p in range(indices.shape[1]):
            out[k] += float(g[p]) * flat[indices[k, p]]
    return out.reshape(gh, gw, f)


def group_adjoint_oracle(z, indices, g):
    """Per-slot scatter-add with np.add.at, in the dtype of z."""
    flat = z.reshape(-1, z.shape[-1])
    out = np.zeros_like(flat)
    for p in range(indices.shape[1]):
        np.add.at(out, indices[:, p], g[p] * flat)
    return out.reshape(z.shape)
