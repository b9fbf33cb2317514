"""The env block: what the numbers were measured on."""

import os
import subprocess
from pathlib import Path

import numpy as np


def _cache_sizes():
    """L2 and L3 sizes of cpu0 as the kernel reports them, e.g. {"L2": "2048K"}."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_sha(root):
    if not (root / ".git").exists():
        return None  # an exported checkout carries no history
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def describe(root, blas_threads):
    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "git_sha": _git_sha(root),
    }
