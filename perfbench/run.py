"""Benchmark for proxdenoise.

    python3 perfbench/run.py --workload denoise-local --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` next to this directory.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run
(and writes every span to .perfbench_out/).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--smoke runs the same workload at toy sizes.  See perfbench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS  # noqa: E402

BLAS_THREADS = 1


def pin_blas_threads():
    """Pin BLAS to one thread (at most nproc) before numpy loads.

    One thread keeps runs steady on a shared machine and makes every
    floating-point reduction order, and so every output, reproducible.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "proxdenoise" / "__init__.py").is_file():
        print(f"error: no proxdenoise sources under {src}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(1, str(src))
    import proxdenoise

    if Path(proxdenoise.__file__).resolve().parent != src / "proxdenoise":
        print(f"error: imported proxdenoise from {proxdenoise.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import env, workloads

    result, notes = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace),
                                      args.smoke, ROOT)
    print("env " + json.dumps(env.describe(ROOT, BLAS_THREADS)))
    print("notes " + json.dumps(notes))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
