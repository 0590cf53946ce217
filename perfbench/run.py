"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload phased-dense-matching --seed 1 \
        --seconds 32 --trace 0

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run.  Earlier lines hold the run record, sample counts and fingerprints.
The exit code is 0 only when every update succeeded and every check held.
"""

import os
import sys

# numpy reads this when it is imported: hold OpenBLAS to one thread in
# every run, whatever the calling environment says, so that runs compare
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    # measure the checkout's sources, never an installed copy
    src = ROOT / "src"
    if not (src / "dyncolor" / "__init__.py").is_file():
        print(f"perfbench: no dyncolor sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    res = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for line in res.lines:
        print(line)
    for name, value in res.metrics.items():
        print(f"{name} = {value:.6g} {res.units[name]}")
    for problem in res.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not res.problems and res.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": res.units[k]} for k, v in res.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
