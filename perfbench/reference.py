"""Reference figures for the README: the normal-form family table and
each workload's share of repeated topologies.

    python3 perfbench/reference.py [--seed 1]

Prints markdown.  Takes about two minutes: simplify runs to its
fixpoint at m = 5, and the minimum wire cap of normalize at m = 6 is
found by trying caps upward.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import zxel  # noqa: E402

import workloads  # noqa: E402


def timed(fn, reps: int):
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def min_cap(fn, start: int) -> int:
    """Smallest open-wire cap under which ``fn(cap)`` succeeds."""
    cap = start
    while True:
        try:
            fn(cap)
            return cap
        except (zxel.ResourceError, zxel.WireCapError):
            cap += 1


def nf_family(seed: int) -> None:
    print("| m | nodes | build | interpret | normalize | simplify "
          "| min cap interpret / normalize |")
    print("|---|---|---|---|---|---|---|")
    rng = np.random.default_rng([seed, 9])
    for m in range(2, 7):
        reps = 3 if m <= 4 else 1
        v = workloads.random_vector(rng, m)
        nf = zxel.nf_from_vector(v)
        d, t_build = timed(lambda: zxel.nf_to_diagram(nf), reps)
        _, t_interp = timed(lambda: zxel.contract_state(d), reps)
        try:
            _, t_norm = timed(lambda: zxel.normalize(d), reps)
            norm = f"{t_norm:.3f} s"
        except zxel.WireCapError:
            norm = "WireCapError at cap 14"
        if m <= 5:
            res, t_simp = timed(lambda: zxel.simplify(d), 1)
            simp = (f"{t_simp:.3f} s ({res.steps} steps, "
                    f"{len(d.nodes)} -> {len(res.diagram.nodes)} nodes)")
        else:
            simp = "not run"
        cap_i = min_cap(lambda c: zxel.contract_state(d, cap=c), m)
        cap_n = min_cap(lambda c: zxel.normalize(d, cap=c), cap_i)
        print(f"| {m} | {len(d.nodes)} | {t_build:.3f} s | {t_interp:.3f} s "
              f"| {norm} | {simp} | {cap_i} / {cap_n} |")


def topology(d) -> tuple:
    """The structural key without phases."""
    nodes, edges, n_in, n_out, loops = d.structural_key()
    return (tuple((k, kind) for k, kind, _ in nodes), edges, n_in, n_out,
            loops)


def repeat_shares(seed: int) -> None:
    """Per workload: the share of operations, and of interpret calls,
    whose topology already occurred earlier in the pass."""
    print("| workload | ops with a repeated topology | "
          "interpret calls with a repeated topology |")
    print("|---|---|---|")
    orig = zxel.semantics.interpret
    holders = (zxel.semantics, zxel.equivalence, zxel.rules)
    for name, build in workloads.CORPUS.items():
        ops = build(seed)
        calls = []

        def spy(d, *args, **kwargs):
            calls.append(topology(d))
            return orig(d, *args, **kwargs)

        for mod in holders:
            mod.interpret = spy
        try:
            results, _, _ = workloads.run_pass(ops)
        finally:
            for mod in holders:
                mod.interpret = orig
        keys = []
        for op in ops:
            if name == "nf-scale":
                tag, kind = op.op_id.split(":")
                keys.append((kind, topology(results[f"{tag}:nf_to_diagram"])))
            else:
                keys.append(tuple(topology(d) for d in op.inputs()))
        cells = []
        for seq in (keys, calls):
            seen, repeats = set(), 0
            for key in seq:
                repeats += key in seen
                seen.add(key)
            cells.append(f"{repeats}/{len(seq)} = {repeats / len(seq):.0%}")
        print(f"| {name} | {cells[0]} | {cells[1]} |")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print(f"## Normal-form family (seed {args.seed})\n")
    nf_family(args.seed)
    print(f"\n## Repeated topologies (seed {args.seed})\n")
    repeat_shares(args.seed)


if __name__ == "__main__":
    main()
