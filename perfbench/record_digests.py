"""Rewrite digests.json: the output digest of every seed that runs with
``--seed`` 0 to 9 train, for every workload.  ``run.py`` compares each run's
digests with this table and reports a mismatch by workload and seed.

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter results, and say so with it.
"""

import json
import sys
import tempfile

import run

SEEDS = 10  # the --seed values 0 to 9


def main() -> int:
    _spans, workloads = run.import_benchmark()
    table = {}
    run.OUT.mkdir(parents=True, exist_ok=True)
    for name in run.WORKLOADS:
        digests = {}
        with tempfile.TemporaryDirectory(dir=run.OUT) as work_dir:
            for seed in range(SEEDS):
                for job in workloads.job_list(name, seed):
                    for r in workloads.run_job(name, job, work_dir):
                        if r["status"] != "ok":
                            sys.exit(f"{name} seed {r['seed']}: {r['status']}")
                        digests[str(r["seed"])] = r["digest"]
        table[name] = dict(sorted(digests.items(), key=lambda kv: int(kv[0])))
        print(f"{name}: {len(digests)} seeds")
    path = run.BENCH_DIR / "digests.json"
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
