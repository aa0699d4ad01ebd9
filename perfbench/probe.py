"""Set-up probe for ``setup_s``.

Run in a fresh interpreter by ``run.py``: it imports clta, does what a
user's process does before the first training step of the workload, and
prints the monotonic clock, which the parent compares with the moment it
started this process.

    python3 perfbench/probe.py <workload> <job as JSON> <work dir>
"""

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402  (needs the paths above)

name, job, work_dir = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
workloads.set_up(name, tuple(job) if isinstance(job, list) else job, work_dir)
print(repr(time.perf_counter()))
