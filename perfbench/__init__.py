"""Benchmark for proxdenoise; run it with `python3 perfbench/run.py --help`."""

# kept here, free of numpy, so run.py can parse its arguments before it
# pins the BLAS threads and loads numpy
WORKLOADS = ("denoise-local", "denoise-nonlocal", "train-local")
