"""Peak RSS and wall time of one `simulate` on the Robertson network, in fresh children.

    python3 tools/simulate_rss.py --src path/to/checkout/src --t-end 30 [--repeats 3]

Each repeat runs one child interpreter with the package imported from
--src. The child parses the robertson-stiff network of
perfbench/workloads.py, reads its ru_maxrss, runs `simulate(net,
[1, 1e-6, 1e-6], t_end)` with the default tolerances and reads
ru_maxrss and the wall time again. One JSON line per repeat: accepted
steps, ledger rows, RSS before and at the peak, their difference
(growth_mb) and wall_s. Standard library only; numpy is the child's.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

CHILD = """
import json, resource, sys, time
from crnflow import parse_network, simulate

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

net = parse_network(sys.argv[1])
before = rss_mb()
start = time.perf_counter()
traj = simulate(net, [1.0, 1e-6, 1e-6], float(sys.argv[2]))
wall = time.perf_counter() - start
peak = rss_mb()
print(json.dumps({"steps": traj.stats["steps"], "rows": int(traj.times.size), "rss_before_mb": round(before, 2),
                  "peak_rss_mb": round(peak, 2), "growth_mb": round(peak - before, 2), "wall_s": round(wall, 3)}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory of the checkout to measure")
    parser.add_argument("--t-end", type=float, default=3.0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(args.src).resolve())}
    for _ in range(args.repeats):
        run = subprocess.run(
            [sys.executable, "-c", CHILD, workloads.ROBERTSON, repr(args.t_end)],
            env=env, capture_output=True, text=True, check=True,
        )
        print(run.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
