"""spde-lab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark repeats rounds of the
workload until ``--seconds`` have passed (at least MIN_ROUNDS of each kind);
each round is a fresh interpreter (``worker.py``) that imports spde_lab from
the checkout's ``src/``, builds the inputs from the seed, runs the workload's
ops with default threading and reports.  Rounds run one at a time.

``--trace 0`` prints the end-to-end metrics: medians over rounds of set-up
time (spawn to first op), ops wall time and peak RSS.  ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics:
medians of the traced rounds' counters, the work counts computed from the
inputs, and the tracing overhead (traced / untraced wall time - 1).

The result is correct when every op passed its gate, every op's digest is
the same in every round (traced or not), and each traced round made exactly
the unit-field draws the inputs call for.  The last stdout line is the JSON
result; the full record (machine, rounds, spans, digests) goes to
``.perfbench_runs/<workload>-seed<N>-trace<T>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_runs"
MIN_ROUNDS = 3          # per kind (untraced, traced)
RUN_BUDGET_S = 120      # start no round after this
RUN_LIMIT_S = 170       # kill a round still running at this; a run must end < 180 s
# Every traced round must show exactly work.unit_draws calls of this method,
# which proves the wrappers see every draw of the sampler.
UNIT_PAIR = "simulate.NoiseModel.unit_pair"

# Metric names and units come from BENCHMARK.json.  A per-layer name is
# "<layer>.<function>.<calls|busy_s|self_s>" (the traced rounds' counters),
# "work.<count>" (computed from the inputs), or derived in _metrics.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cpu_model() -> str:
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _round(workload, seed, traced, index, scratch, timeout) -> dict:
    """Run one worker process to completion; a crash yields ``error``."""
    workdir = scratch / f"round{index}"
    result_path = scratch / f"round{index}.json"
    env = {k: v for k, v in os.environ.items() if k != "SPDE_LAB_THREADS"}
    load_before = os.getloadavg()[0]
    spawn = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--spawn", repr(spawn), "--workdir", str(workdir),
           "--result", str(result_path)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
        error = None if proc.returncode == 0 else (
            f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    except subprocess.TimeoutExpired:
        error = f"worker killed after {timeout:.0f} s"
    res = {"traced": traced, "error": error}
    if error is None:
        res = json.loads(result_path.read_text())
        res["error"] = None
    res["load_1min"] = [load_before, os.getloadavg()[0]]
    shutil.rmtree(workdir, ignore_errors=True)
    return res


def _check(rounds) -> tuple:
    """Count attempted/failed ops and list every correctness problem."""
    problems = []
    attempted = failed = 0
    expected_ops = next((len(r["ops"]) for r in rounds if not r["error"]), 0)
    first_digest = {}
    for i, r in enumerate(rounds):
        if r["error"]:
            attempted += expected_ops or 1
            failed += expected_ops or 1
            problems.append(f"round {i}: {r['error']}")
            continue
        for op in r["ops"]:
            attempted += 1
            ok = op["ok"]
            if not ok:
                problems.append(f"round {i} {op['id']}: gate missed: {op['detail']}")
            ref = first_digest.setdefault(op["id"], op["digest"])
            if op["digest"] != ref:
                ok = False
                problems.append(f"round {i} {op['id']}: digest {op['digest']} != {ref}")
            failed += not ok
        if r["traced"]:
            pair = r["layers"].get(UNIT_PAIR)
            if pair is None:
                problems.append(f"round {i}: {UNIT_PAIR} is gone; the expected-"
                                "draw rule (work.unit_draws) must be updated")
            elif pair["calls"] != r["work"]["unit_draws"]:
                problems.append(f"round {i}: unit_pair calls {pair['calls']} != "
                                f"{r['work']['unit_draws']} expected draws")
    return attempted, failed, problems


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _metrics(rounds, trace: bool, attempted: int, failed: int) -> dict:
    ok = [r for r in rounds if not r["error"]]
    plain = [r for r in ok if not r["traced"]]
    if not trace:
        return {m["name"]: {"value": _median([r[m["name"]] for r in plain]),
                            "unit": m["unit"]} for m in SPEC["end_to_end"]}
    traced = [r for r in ok if r["traced"]]
    work = ok[0]["work"] if ok else {}
    plain_wall = _median([r["wall_s"] for r in plain])
    traced_wall = _median([r["wall_s"] for r in traced])
    mc_wall = _median([sum(o["wall_s"] for o in r["ops"] if o["path_steps"])
                       for r in plain])
    derived = {
        "trace.overhead_frac": traced_wall / plain_wall - 1.0 if plain_wall else 0.0,
        "simulate.path_steps_per_s":
            work.get("path_steps", 0) / mc_wall if mc_wall else 0.0,
        "ops.failed_frac": failed / attempted if attempted else 1.0,
    }
    out = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif name.startswith("work."):
            value = work.get(name[len("work."):], 0)
        else:
            func, stat = name.rsplit(".", 1)
            value = _median([r["layers"].get(func, {}).get(stat, 0) for r in traced])
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description="spde-lab benchmark, one workload")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (ROOT / "src" / "spde_lab" / "__init__.py").is_file():
        print(f"perfbench: no spde_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    machine = {"nproc": os.cpu_count(),
               "affinity": len(os.sched_getaffinity(0)),
               "cpu_model": _cpu_model(), "platform": platform.platform(),
               "load_1min_before": os.getloadavg()[0]}
    start = time.monotonic()
    rounds = []
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            timeout = RUN_LIMIT_S - (time.monotonic() - start)
            rounds.append(_round(args.workload, args.seed, traced, len(rounds),
                                 scratch, timeout))
            elapsed = time.monotonic() - start
            kinds = [sum(1 for r in rounds if r["traced"] == t)
                     for t in ((False, True) if args.trace else (False,))]
            if elapsed >= args.seconds and min(kinds) >= MIN_ROUNDS:
                break
            if elapsed >= RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    machine["load_1min_after"] = os.getloadavg()[0]
    machine.update(next((r["versions"] for r in rounds if not r["error"]), {}))

    attempted, failed, problems = _check(rounds)
    metrics = _metrics(rounds, bool(args.trace), attempted, failed)
    correct = not problems
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine, "correct": correct,
              "problems": problems, "metrics": metrics,
              "digests": {op["id"]: op["digest"] for r in rounds
                          if not r["error"] for op in r["ops"]},
              "rounds": rounds}
    side = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps(record, indent=1))
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
