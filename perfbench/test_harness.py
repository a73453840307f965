"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import zxel  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    bench = _bench()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS


def test_same_seed_gives_byte_identical_corpus():
    for name, build in workloads.CORPUS.items():
        first = workloads.corpus_text(build(7))
        assert first == workloads.corpus_text(build(7)), name
        assert first != workloads.corpus_text(build(8)), name


def test_equal_nf_pairs_compare_two_separate_diagrams():
    pairs = [op.inputs() for op in workloads.equiv_corpus(7)
             if op.op_id.endswith(":equal")]
    assert len(pairs) == sum(workloads.EQUIV_NF_VECTORS.values())
    assert all(d1 is not d2 for d1, d2 in pairs)


def test_interleaved_nf_corpus_builds_each_diagram_first():
    seen = set()
    kinds = set()
    for op in workloads.nf_corpus(5):
        tag, kind = op.op_id.split(":")
        assert (kind == "nf_to_diagram") == (tag not in seen), op.op_id
        seen.add(tag)
        kinds.add(kind)
    assert len(kinds) == 4


def test_corpus_sizes_leave_ten_ops_beyond_p90():
    for name, build in workloads.CORPUS.items():
        assert len(build(1)) >= 100, name


def test_op_times_are_scaled_to_reference_host_speed(monkeypatch):
    # the host runs the loop at a half, then a quarter of reference speed
    samples = iter([2 * hostspeed.REF_S, 4 * hostspeed.REF_S])
    monkeypatch.setattr(hostspeed, "calib_s", lambda: next(samples))
    op = workloads.Op("sleep", lambda res: time.sleep(0.06),
                      lambda out: None)
    _, times, calibs = workloads.run_pass([op])
    assert calibs == [2 * hostspeed.REF_S, 4 * hostspeed.REF_S]
    assert 0.06 / 3 <= times["sleep"] < 0.1 / 3


def _wrong(ops):
    results, _, _ = workloads.run_pass(ops)
    return workloads.check_outputs(ops, results)


def test_corrupted_rule_trips_the_soundness_check():
    rule = zxel.full_catalog()[0]
    op = workloads._sweep_op("corrupt", rule, [0, 3], corrupt=True,
                             samples=2)
    op.check = workloads._sound_check(True)   # as if the rule were intact
    bad = _wrong([op])
    assert bad["corrupt"][0] == "wrong"
    assert not _wrong(workloads.sweep_probes())  # the control itself passes


def test_perturbed_expected_vector_trips_the_vector_checks():
    rng = np.random.default_rng(3)
    v = workloads.random_vector(rng, 2)
    w = v.copy()
    w[1] += 1e-6
    ops = workloads._nf_ops("t", w, 2)
    ops[0].run = lambda res: zxel.nf_to_diagram(zxel.nf_from_vector(v))
    bad = _wrong(ops)
    assert sorted(bad) == ["t:contract_state", "t:normalize", "t:simplify"]
    assert all(kind == "wrong" for kind, _ in bad.values())
    assert not _wrong(workloads._nf_ops("t", v, 2))


def test_flipped_expected_verdict_trips_the_verdict_check():
    rule = zxel.rules.catalog_by_name()["S1"]
    lhs, rhs = zxel.instantiate(rule, [0.5, 1.5j])
    assert not _wrong([workloads._equiv_op("s1", lhs, rhs, True)])
    bad = _wrong([workloads._equiv_op("s1", lhs, rhs, False)])
    assert bad["s1"][0] == "wrong"


def test_known_fault_probes_raise_their_known_exception():
    bad = _wrong(workloads.equiv_probes())
    assert len(bad) == len(workloads.F1_RULES) + len(workloads.F2_RULES)
    assert all(kind == "raised" for kind, _ in bad.values()), bad


def _raise(exc):
    def run(res):
        raise exc
    return run


def test_probe_raising_another_exception_is_wrong():
    probe = workloads.equiv_probes()[0]
    assert probe.expected_exc is zxel.WireCapError
    probe.run = _raise(zxel.WireCapError("frontier reached 15 wires"))
    assert _wrong([probe])[probe.op_id][0] == "raised"
    probe.run = _raise(TypeError("unexpected"))
    assert _wrong([probe])[probe.op_id][0] == "wrong"
    control = workloads.sweep_probes()[0]
    control.run = _raise(zxel.rules.RuleError("corrupted"))
    assert _wrong([control])[control.op_id][0] == "wrong"


def test_tracer_counts_self_time_and_restores_functions():
    rule = zxel.rules.catalog_by_name()["S1"]
    lhs, rhs = zxel.instantiate(rule, [0.5, 1.5j])
    originals = (zxel.check_equivalent, zxel.equivalence.normalize,
                 zxel.diagram.Diagram.check_validity, zxel.semantics.np)
    tracer = Tracer()
    with tracer.installed():
        assert zxel.check_equivalent(lhs, rhs).equal
    assert originals == (zxel.check_equivalent, zxel.equivalence.normalize,
                         zxel.diagram.Diagram.check_validity,
                         zxel.semantics.np)
    s = tracer.summary()
    assert s["equivalence.check_equivalent.calls"] == 1
    assert s["normalform.normalize.calls"] == 2
    assert s["semantics.interpret.calls"] == 2
    assert s["semantics.einsum.calls"] > 0
    top = [sp for sp in tracer.spans if sp[3] == -1]
    assert len(top) == 1
    wall = top[0][2] - top[0][1]
    total_self = sum(v for k, v in s.items() if k.endswith(".self_s"))
    assert abs(total_self - wall) < 1e-6


def test_run_exits_nonzero_without_the_sources():
    (HERE / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "results") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "nf-scale",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
