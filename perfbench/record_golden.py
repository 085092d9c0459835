"""Record the seed-independent reference values into golden.json.

    python3 perfbench/record_golden.py

Runs one round of each workload at each size with the current sources and
stores what ``Workload.observed()`` reports.  Only re-record when a change is
meant to move these values.
"""

import json

from reference import GOLDEN_PATH
from run import WORKLOADS, Bench
from workloads import SIZES


def main():
    golden = {}
    for workload in WORKLOADS:
        golden[workload] = {}
        for size in SIZES[workload]:
            bench = Bench(workload, 0, size)
            try:
                golden[workload][size] = bench.round(record=True)["observed"]
            finally:
                bench.close()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
