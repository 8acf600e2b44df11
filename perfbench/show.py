"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 perfbench/show.py

Runs ``run.py`` at seed 1 for ``run_seconds`` from BENCHMARK.json, once
untraced and once traced per workload, one run at a time, and prints one
line per metric: workload, metric name, value, unit.  Exits non-zero if
any run is not correct.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import SPEC  # noqa: E402
from worker import WORKLOADS  # noqa: E402


def main() -> int:
    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", str(SPEC["run_seconds"]),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: run failed\n{proc.stderr}")
                all_correct = False
                continue
            res = json.loads(lines[-1])
            all_correct &= res["correct"]
            print(f"{workload} trace={trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {workload:<14} {name:<42} {m['value']:>16.6g} {m['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
