"""One benchmark worker: a fresh process that builds a workload's corpus
from its seed and runs one pass over it, or runs the workload's
untimed probes.  It prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload W --seed N --mode timed|traced|probe
        --workdir DIR [--trace-out PATH]

Scratch files go under ``--workdir``.  ``PYTHONPATH`` must name the
``src`` directory whose zxel is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed  # imports numpy, before set-up time starts

# Set-up time runs from here to the first timed operation: importing
# zxel and building the corpus, scaled to reference host speed by the
# calibration loop timed here and just before the first operation.  The
# interpreter's start and the numpy import come before it: they take
# most of a worker's start, drift by up to a third for minutes at a time
# while the calibration loop does not, and no change to zxel moves them.
SETUP_START = (time.perf_counter(), hostspeed.calib_s())

import zxel  # noqa: E402
from zxel import io as zio  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI_REPS = 3


def report_failures(seed, bad) -> None:
    for op_id, (kind, msg) in bad.items():
        print(f"perfbench: failed ({kind}): seed={seed} op={op_id}: {msg}",
              file=sys.stderr)


def io_roundtrip(ops, workdir: Path) -> list[str]:
    """Serialize and reload every corpus diagram through files; returns
    the ids of ops whose diagrams did not survive the round trip."""
    bad = []
    for op in ops:
        for k, d in enumerate(op.inputs()):
            text = zio.dumps_diagram(d)
            path = workdir / "d.zx"
            path.write_text(text, encoding="utf-8")
            if zio.dumps_diagram(zio.load_diagram(str(path))) != text:
                bad.append(f"{op.op_id}#{k}")
    return bad


def cli_ms(args: list[str], workdir: Path, expect_code: int) -> float:
    """Median wall time of the zxel command run as a subprocess."""
    cmd = [sys.executable, "-c", "from zxel.cli import main; main()", *args]
    times = []
    for _ in range(CLI_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != expect_code:
            raise RuntimeError(f"zxel {' '.join(args)} exited "
                               f"{proc.returncode}, expected {expect_code}: "
                               f"{proc.stderr.decode()[-300:]}")
    return 1e3 * statistics.median(times)


def cli_metrics(ops, workdir: Path) -> dict[str, float]:
    pair = next(op for op in ops if op.op_id.startswith("nf3.")
                and op.op_id.endswith(":equal"))
    for name, d in zip(("a.zx", "b.zx"), pair.inputs()):
        zio.save_diagram(d, str(workdir / name))
    return {"cli.startup_ms": cli_ms(["--help"], workdir, 0),
            "cli.check_eq_ms": cli_ms(["check-eq", "a.zx", "b.zx"],
                                      workdir, 0)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("timed", "traced", "probe"))
    ap.add_argument("--trace-out")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if Path(zxel.__file__).resolve().parent != src / "zxel":
        sys.exit(f"perfbench: imported zxel from {zxel.__file__}, "
                 f"expected {src / 'zxel'}")

    out: dict = {}
    io_bad: list[str] = []
    if args.mode == "probe":
        ops = workloads.PROBES[args.workload]()
        results, _, calibs = workloads.run_pass(ops)
    else:
        ops = workloads.CORPUS[args.workload](args.seed)
        setup_wall = time.perf_counter() - SETUP_START[0]
        tracer = Tracer() if args.mode == "traced" else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            results, out["op_s"], calibs = workloads.run_pass(ops)
            if tracer and args.workload == "equiv-pairs":
                with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
                    io_bad = io_roundtrip(ops, Path(tmp))
        out["setup_s"] = hostspeed.scaled(setup_wall, SETUP_START[1],
                                          calibs[0])
        out["pass_s"] = sum(out["op_s"].values())
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            out["layers"] = tracer.summary()
            if args.workload == "equiv-pairs":
                with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
                    out["layers"].update(cli_metrics(ops, Path(tmp)))
            if args.trace_out:
                tracer.dump(args.trace_out)
    bad = workloads.check_outputs(ops, results)
    report_failures(args.seed, bad)
    for op_id in io_bad:
        print(f"perfbench: io round trip changed a diagram: "
              f"seed={args.seed} op={op_id}", file=sys.stderr)
    out["calib_ms"] = 1e3 * statistics.median(calibs)
    out["attempted"] = len(ops)
    out["failed"] = len(bad)
    out["wrong"] = (sum(kind == "wrong" for kind, _ in bad.values())
                    + len(io_bad))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
