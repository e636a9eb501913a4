"""One setup sample: import trisym from this checkout's src/, run a workload's
warm-up and exit.

    python3 bench/probe.py <workload>

bench/run.py times fresh processes of this script for ``setup_s``. It loads
only the package and the workload definitions, not the benchmark's output
checks or its timing code.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].warmup()
