"""The benchmark's traced pass patches zxel functions by name; every name
it lists must still resolve, or the traced pass breaks."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for _name, module, path in tracer.LAYERS:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module, path)


def test_a_traced_rules_sweep_pass_validates_60_diagrams(tmp_path):
    # combinators derive their result's shape from their pieces, and flip
    # and bend_to_state rename their piece's boundary ends, so none of
    # them validates: a cold rules-sweep pass at seed 3 validates only
    # the diagrams built by Diagram(...), the generator builders', 60 of
    # them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "worker.py", "--workload", "rules-sweep",
         "--seed", "3", "--mode", "traced", "--workdir", str(tmp_path)],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    assert layers["diagram.check_validity.calls"] == 60


def test_a_cold_rules_sweep_pass_misses_the_shape_memo_402_times(
        monkeypatch):
    # the pass of the benchmark's worker, in process and from cold: with
    # no builder cached and an empty shape memo, one pass over the
    # rules-sweep corpus at seed 3 builds 402 result shapes through the
    # memo, 266 of compose_all and 136 of tensor_all (flip, which keeps
    # its piece's port_edges, stores none, and a gadget spec builds
    # through it only once, for its template), and this is what the
    # memo's strong keys keep low (ten times as many misses with weak
    # keys)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    from zxel import diagram as D
    from zxel import normalform as NF
    from zxel import rules as R
    for module in (D, NF, R):
        for f in list(vars(module).values()):
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    misses = []  # holds no key, which would keep the key's shapes alive

    class Counted(weakref.WeakValueDictionary):
        def __setitem__(self, key, shape):
            misses.append(1)
            super().__setitem__(key, shape)

    monkeypatch.setattr(D, "_SHAPES", Counted())
    results = {}
    for op in workloads.sweep_corpus(3):
        results[op.op_id] = op.run(results)
        assert op.check(results[op.op_id]) is None, op.op_id
    assert len(misses) == 402
