"""gmlab benchmark.

    python3 perfbench/run.py --workload acceptance|roundtrip|lift-scan \
        --seed N --seconds S --trace 0|1

Run from the root of a gmlab checkout: the program is imported from its
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones, and a traced
run also writes its spans to `perfbench/out/trace-<workload>-<seed>.json`.
See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("acceptance", "roundtrip", "lift-scan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gmlab" / "__init__.py").is_file():
        print(f"perfbench: no gmlab sources under {src}", file=sys.stderr)
        return 2
    # single process, single thread: the runs measure the jobs=1 paths
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import workloads

    workloads.setup()
    setup_s = time.perf_counter() - T_START
    result = workloads.execute(
        args.workload, args.seed, args.seconds, bool(args.trace), setup_s, HERE / "out"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
