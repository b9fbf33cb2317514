"""Seeded benchmark inputs, written as 8-bit netpbm files.

The program under test only ever receives the files written here.  Clean
images come from `synthetic_image`, a copy of the generator in the test
suite, so the benchmark does not import from the tests.  Each input slot
has a fixed clean image; the workload seed picks the noise realization.
Fixing the content keeps the PSNR metric a measure of the program rather
than of which image a seed happened to draw, while the noise still changes
every distance tie in block matching and every projection radius check.
"""

import math
from pathlib import Path

import numpy as np


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


def quantize(img):
    """Round half up to 8-bit levels, as a camera or a netpbm file would."""
    return np.floor(np.clip(img, 0.0, 255.0) + 0.5).astype(np.float32)


def clean_image(content, h, w, channels):
    return quantize(synthetic_image(content, h, w, channels))


def add_noise(clean, sigma, seed, slot):
    """Quantized noisy copy of a clean image; (seed, slot) fixes the noise."""
    rng = np.random.default_rng([seed, slot])
    return quantize(clean + sigma * rng.standard_normal(clean.shape))


def write_netpbm(path, img):
    """Write an integer-valued (H, W, 1|3) array as binary PGM or PPM."""
    h, w, c = img.shape
    magic = b"P5" if c == 1 else b"P6"
    Path(path).write_bytes(magic + f"\n{w} {h}\n255\n".encode("ascii") + img.astype(np.uint8).tobytes())
