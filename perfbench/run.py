"""zxel benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; zxel is taken from ``src/`` of the checkout that holds
this file.  Each pass runs in a fresh worker process on the same inputs,
one worker at a time, so no pass starts warm.  The number of passes is
fixed by ``--seconds`` and the workload, never by a clock, so every run
attempts whole rounds of the same operations.  After the passes one more
worker runs the workload's untimed probes.  Times are wall times scaled
to a reference host speed by a calibration loop timed around every
operation (see ``hostspeed``).

With ``--trace 0`` no pass is traced and the metrics
are the end-to-end ones; with ``--trace 1`` the last pass is traced and
the metrics are the per-layer ones.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; details
(per-op latencies, per-worker figures) go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("equiv-pairs", "nf-scale", "rules-sweep")
# nominal seconds of one worker (set-up plus pass); passes = seconds / this
NOMINAL_WORKER_S = {"equiv-pairs": 4.6, "nf-scale": 8.5, "rules-sweep": 5.8}
MIN_PASSES = 3
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s",
              "op_p50_ms": "ms", "op_p90_ms": "ms"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in metric_names():
        units[name] = "s" if name.endswith("_s") else (
            "ratio" if name.endswith("ratio") else "count")
    units.update({"cli.startup_ms": "ms", "cli.check_eq_ms": "ms",
                  "host.calib_ms": "ms", "trace.overhead_s": "s"})
    return units


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_WORKER_S[workload]))


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, mode, deadline, trace_out=None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(RESULTS)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    # a session of its own, so that a timeout also stops the worker's
    # own subprocesses
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} worker passed the {DEADLINE_S:.0f} s "
                          f"deadline") from None
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(timed: list[dict]) -> dict[str, float]:
    op_ids = timed[0]["op_s"].keys()
    latency = [statistics.median(w["op_s"][k] for w in timed) for k in op_ids]
    return {
        "setup_s": statistics.median(w["setup_s"] for w in timed),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in timed),
        "pass_s": statistics.median(w["pass_s"] for w in timed),
        "op_p50_ms": 1e3 * statistics.median(latency),
        "op_p90_ms": 1e3 * p90(latency),
    }


def per_layer(timed: list[dict], traced: dict, probe: dict) -> dict:
    layers = {"cli.startup_ms": 0.0, "cli.check_eq_ms": 0.0}
    layers.update(traced["layers"])
    layers["host.calib_ms"] = statistics.median(
        w["calib_ms"] for w in timed + [traced, probe])
    layers["trace.overhead_s"] = traced["pass_s"] - statistics.median(
        w["pass_s"] for w in timed)
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "zxel" / "__init__.py").is_file():
        print(f"perfbench: no zxel sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    passes = passes_for(args.workload, args.seconds)

    timed, traced = [], None
    try:
        for i in range(passes):
            if args.trace and i == passes - 1:
                traced = run_worker(args.workload, args.seed, "traced",
                                    deadline, RESULTS / f"{tag}.trace.json.gz")
            else:
                timed.append(run_worker(args.workload, args.seed, "timed",
                                        deadline))
        probe = run_worker(args.workload, args.seed, "probe", deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    workers = timed + [probe] + ([traced] if traced else [])
    corpus_failed = sum(w["failed"] for w in workers if w is not probe)
    if args.trace:
        values, units = per_layer(timed, traced, probe), per_layer_units()
    else:
        values, units = end_to_end(timed), END_TO_END
    result = {
        "correct": corpus_failed == 0 and not any(w["wrong"] for w in workers),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "passes": passes, "timed": timed,
              "traced": traced, "probe": probe, "result": result}
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
