"""Corpora, timed operations, answer checks and known-fault probes.

Every input is made from the workload seed, and every output is checked
against an answer fixed when the input was made: a rule instance is
equal to its other side, a normal-form diagram contracts to the vector
it was built from, a catalog rule is sound.  zxel is reached only
through module attributes looked up at call time, so the tracer's
wrappers see every call the operations make.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import zxel
from zxel import io as zio

import hostspeed

WORKLOADS = ("equiv-pairs", "nf-scale", "rules-sweep")

# Sound 4->4 catalog rules whose check_equivalent stops at the wire cap:
# the normal-form frontier reaches 15 wires while contraction stays under 14.
F1_RULES = ("addpipair2sidecommutprop", "addpipair2sidecommutprop28",
            "addpipair2sidecommutprop29", "addpipair2sidecommutprop29b",
            "addpipairmulcommutprop30a", "addpipairmulcommutprop30b",
            "addpipairmulcommutprop30bcro", "addpipairmulcommutprop30c",
            "addpipairmulcommutprop30ccro")
# Sound rules whose instances near |a| = 3e3 get a False normal-form
# verdict from the absolute 1e-9 tolerance while the matrices agree.
F2_RULES = ("pimultiaddcombinepro", "pitopaddpipaircommutprop")
F2_PARAMS = (complex(-2991.7280928663654, -222.62753278554692),
             complex(2855.8583893321174, -918.7343795033281))

# equiv-pairs: normal-form pairs per width m, half equal, half unequal
EQUIV_NF_VECTORS = {2: 4, 3: 12}
# nf-scale: random vectors per width m
NF_VECTORS = {2: 7, 3: 20, 4: 1, 5: 1, 6: 1}
NF_SIMPLIFY_BUDGET = {5: 2}   # m <= 4 runs to fixpoint
NF_SKIP = {6: ("normalize", "simplify")}  # normalize at m = 6 is probe F1
# rules-sweep: random draws per rule on top of the forced draws
SWEEP_SAMPLES = 6

TOL = 1e-9


@dataclass
class Op:
    """One timed operation: ``run(results)`` returns the output, which
    ``check(output)`` turns into an error message or None.  ``results``
    maps earlier op ids of the same pass to their outputs.  A probe
    names the exception its known fault raises in ``expected_exc``; any
    other exception is a wrong result."""

    op_id: str             # "<size class>:<name>", e.g. "nf3.0:normalize"
    run: Callable
    check: Callable
    inputs: Callable = tuple   # returns the diagrams that make up the input
    expected_exc: type | None = None


def random_param(rng: np.random.Generator) -> complex:
    """Uniform on the disc |a| <= 2."""
    r = 2.0 * math.sqrt(rng.uniform())
    th = rng.uniform(0.0, 2.0 * math.pi)
    return r * complex(math.cos(th), math.sin(th))


def admissible_params(rule, rng: np.random.Generator) -> list[complex]:
    for _ in range(1000):
        ps = [random_param(rng) for _ in range(rule.arity)]
        if rule.admissible(ps):
            return ps
    raise RuntimeError(f"no admissible parameters for {rule.name}")


def interleave(ops: list[Op], rng: np.random.Generator,
               chain=lambda op_id: op_id) -> list[Op]:
    """A seeded shuffle that spreads every size class over the whole pass,
    so that a latency quantile samples the host over the pass and not
    over one stretch of it.  Ops with the same ``chain(op_id)`` keep
    their order."""
    slots: dict[str, list[int]] = {}
    for pos, i in enumerate(rng.permutation(len(ops))):
        slots.setdefault(chain(ops[i].op_id), []).append(pos)
    out: list = [None] * len(ops)
    for op in ops:
        out[slots[chain(op.op_id)].pop(0)] = op
    return out


def random_vector(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)


def vector_error(got, want) -> str | None:
    """None when ``got`` matches ``want`` within a tolerance scaled to the
    magnitude of ``want``."""
    got = np.asarray(got, dtype=complex).reshape(-1)
    want = np.asarray(want, dtype=complex).reshape(-1)
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    dev = float(np.max(np.abs(got - want), initial=0.0))
    if not dev <= TOL * max(1.0, float(np.max(np.abs(want)))):
        return f"deviation {dev:.3e} from the generating vector"
    return None


# -- equiv-pairs ----------------------------------------------------------

def _verdict_check(expected: bool):
    def check(verdict):
        if verdict.equal != expected:
            return f"verdict {verdict.equal}, expected {expected}"
        return None
    return check


def _equiv_op(op_id, d1, d2, expected, expected_exc=None):
    return Op(op_id, lambda res: zxel.check_equivalent(d1, d2),
              _verdict_check(expected), lambda: (d1, d2), expected_exc)


def _nf_diagram(v: np.ndarray):
    return zxel.nf_to_diagram(zxel.nf_from_vector(v))


def equiv_corpus(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for rule in zxel.full_catalog():
        if rule.name in F1_RULES:
            continue
        lhs, rhs = zxel.instantiate(rule, admissible_params(rule, rng))
        ops.append(_equiv_op(f"rule:{rule.name}", lhs, rhs, True))
    for m, count in EQUIV_NF_VECTORS.items():
        for k in range(count):
            v = random_vector(rng, m)
            w = v.copy()
            j = int(rng.integers(2 ** m))
            # |change| in [0.5, 1.5], far above every tolerance
            w[j] += (0.5 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            dv = _nf_diagram(v)
            # a diagram of its own, as check-eq compares two loaded files
            ops.append(_equiv_op(f"nf{m}.{k}:equal", dv, _nf_diagram(v),
                                 True))
            ops.append(_equiv_op(f"nf{m}.{k}:unequal", dv, _nf_diagram(w),
                                 False))
    return interleave(ops, rng)


def equiv_probes() -> list[Op]:
    """F1 and F2: sound instances on which check_equivalent raises.
    Their inputs do not depend on the workload seed."""
    cat = zxel.rules.catalog_by_name()
    ops = []
    for name in F1_RULES:
        params = admissible_params(cat[name], np.random.default_rng(0))
        lhs, rhs = zxel.instantiate(cat[name], params)
        ops.append(_equiv_op(f"F1:{name}", lhs, rhs, True,
                             zxel.WireCapError))
    for name in F2_RULES:
        lhs, rhs = zxel.instantiate(cat[name], list(F2_PARAMS))
        ops.append(_equiv_op(f"F2:{name}", lhs, rhs, True,
                             zxel.VerdictDisagreement))
    return ops


# -- nf-scale ----------------------------------------------------------------

def _nf_ops(tag: str, v: np.ndarray, m: int, skip=()) -> list[Op]:
    built = f"{tag}:nf_to_diagram"

    def check_built(d):
        if d.type != (0, m):
            return f"type {d.type}, expected (0, {m})"
        return None

    def check_simplified(res):
        removed = len(res.diagram_in.nodes) - len(res.diagram.nodes)
        if removed < res.steps:
            return f"removed {removed} nodes in {res.steps} steps"
        return vector_error(zxel.contract_state(res.diagram), v)

    budget = NF_SIMPLIFY_BUDGET.get(m)

    def build(res=None):
        return _nf_diagram(v)

    ops = [
        Op(built, build, check_built, lambda: (build(),)),
        Op(f"{tag}:contract_state",
           lambda res: zxel.contract_state(res[built]),
           lambda out: vector_error(out, v)),
        Op(f"{tag}:normalize",
           lambda res: zxel.normalize(res[built]),
           lambda nf: vector_error(nf.vector(), v)),
        Op(f"{tag}:simplify",
           lambda res: _Simplified(res[built],
                                   zxel.simplify(res[built], budget=budget)),
           check_simplified),
    ]
    return [op for op in ops if op.op_id.split(":")[1] not in skip]


class _Simplified:
    """A simplify result together with the diagram it started from."""

    def __init__(self, diagram_in, result):
        self.diagram_in = diagram_in
        self.diagram = result.diagram
        self.steps = result.steps


def nf_corpus(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for m, count in NF_VECTORS.items():
        for k in range(count):
            ops += _nf_ops(f"nf{m}.{k}", random_vector(rng, m), m,
                           NF_SKIP.get(m, ()))
    # the ops of one vector run in order: the later ones take the diagram
    return interleave(ops, rng, chain=lambda op_id: op_id.split(":")[0])


def nf_probes() -> list[Op]:
    """F1: normalize of an m = 6 normal-form diagram passes the wire cap."""
    v = random_vector(np.random.default_rng(0), 6)
    d = _nf_diagram(v)
    return [Op("F1:normalize-m6", lambda res: zxel.normalize(d),
               lambda nf: vector_error(nf.vector(), v), lambda: (d,),
               zxel.WireCapError)]


# -- rules-sweep -------------------------------------------------------------

def _sound_check(expected_ok: bool):
    def check(report):
        if report.ok != expected_ok:
            return (f"check_soundness ok={report.ok}, expected {expected_ok}"
                    f" (max deviation {report.max_deviation:.3e})")
        return None
    return check


def _sweep_op(op_id, rule, entropy, corrupt=False, samples=SWEEP_SAMPLES):
    return Op(op_id,
              lambda res: zxel.check_soundness(
                  rule, samples=samples, rng=np.random.default_rng(entropy),
                  corrupt=corrupt),
              _sound_check(not corrupt),
              lambda: zxel.instantiate(rule, admissible_params(
                  rule, np.random.default_rng(entropy))))


def sweep_corpus(seed: int) -> list[Op]:
    ops = [_sweep_op(f"rule:{rule.name}", rule, [seed, 3, i])
           for i, rule in enumerate(zxel.full_catalog())]
    return interleave(ops, np.random.default_rng([seed, 3]))


def sweep_probes() -> list[Op]:
    """The corrupted-rule control: the harness must report it unsound."""
    rule = zxel.full_catalog()[0]
    return [_sweep_op(f"control:corrupt-{rule.name}", rule, [0, 3],
                      corrupt=True, samples=2)]


CORPUS = {"equiv-pairs": equiv_corpus, "nf-scale": nf_corpus,
          "rules-sweep": sweep_corpus}
PROBES = {"equiv-pairs": equiv_probes, "nf-scale": nf_probes,
          "rules-sweep": sweep_probes}


def corpus_text(ops: list[Op]) -> str:
    """A byte-comparable rendering of a corpus's inputs."""
    parts = []
    for op in ops:
        parts.append(op.op_id)
        parts.extend(zio.dumps_diagram(d) for d in op.inputs())
    return "\n".join(parts)


def run_pass(ops: list[Op]) -> tuple[dict, dict, list[float]]:
    """Run every op once, timing each call; returns (outputs or
    exceptions by op id, seconds by op id at reference host speed, the
    calibration loop's times: one before the first op, one after each)."""
    clock = time.perf_counter
    results: dict = {}
    times: dict = {}
    calibs = [hostspeed.calib_s()]
    for op in ops:
        t0 = clock()
        try:
            results[op.op_id] = op.run(results)
        except Exception as exc:  # a failed operation, counted and reported
            results[op.op_id] = exc
        wall = clock() - t0
        calibs.append(hostspeed.calib_s())
        times[op.op_id] = hostspeed.scaled(wall, calibs[-2], calibs[-1])
    return results, times, calibs


def check_outputs(ops: list[Op], results: dict) -> dict[str, tuple[str, str]]:
    """Map op id to (kind, message) for every op that did not give the
    answer fixed by construction; kind is "raised" for the exception
    of a probe's known fault and "wrong" for anything else."""
    bad = {}
    for op in ops:
        out = results[op.op_id]
        if isinstance(out, Exception):
            known = op.expected_exc and isinstance(out, op.expected_exc)
            bad[op.op_id] = ("raised" if known else "wrong",
                             f"{type(out).__name__}: {out}")
            continue
        msg = op.check(out)
        if msg is not None:
            bad[op.op_id] = ("wrong", msg)
    return bad
