"""Steadiness check: run the workloads alternately and compare two sets.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Runs ``run.py --trace 0`` with a new seed each time, cycling through the
workloads of BENCHMARK.json, for ``--runs`` rounds in each of two sets.
For each end-to-end metric of each workload it prints both sets'
median, quartiles and spread (the quartile distance as a share of the
median), and the second set's median against the first's, next to the
metric's bound from BENCHMARK.json.  It also prints each set's share of failed operations,
which must be identical.  Raw values go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=240)
    if proc.returncode != 0:
        raise SystemExit(f"steady: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seed = args.first_seed
    sets: list[dict] = []
    for s in range(SETS):
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for r in range(args.runs):
            for w in workloads:
                t0 = time.monotonic()
                runs[w].append(run_once(w, seed, bench["run_seconds"]))
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: "
                      f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
                seed += 1
        sets.append(runs)

    out = HERE / "results" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workloads": workloads, "sets": sets}))
    for w in workloads:
        print(f"\n{w}")
        for s, runs in enumerate(sets):
            shares = {(r["failed"], r["attempted"]) for r in runs[w]}
            ok = all(r["correct"] for r in runs[w])
            print(f"  set {s + 1}: failed/attempted {sorted(shares)}, "
                  f"correct {ok}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"  {name:12s}"
            meds = []
            for runs in sets:
                med, q1, q3, sp = spread(
                    [r["metrics"][name]["value"] for r in runs[w]])
                meds.append(med)
                line += (f"  med {med:9.4f} [{q1:9.4f}, {q3:9.4f}] "
                         f"spread {100 * sp:5.1f}%")
            line += f"  set2/set1 {100 * (meds[1] / meds[0] - 1):+5.1f}%"
            print(f"{line}  bound {100 * bound:.0f}%")


if __name__ == "__main__":
    main()
