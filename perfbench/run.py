"""Run one workload of the reachopt benchmark and print its metrics.

    python3 perfbench/run.py --workload operator-scan --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--smoke`` shrinks
every input for the benchmark's own tests.
"""

import os

# BLAS threads are pinned before numpy is first imported: an unpinned eigh at
# n = 30 took 12 ms against 0.095 ms pinned on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("operator-scan", "cone-threshold", "ascent-trajectory", "cli-files")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "reachopt" / "__init__.py").is_file():
        print(f"error: the reachopt sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
