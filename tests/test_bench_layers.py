"""The benchmark's traced pass patches zxel functions by name; every name
it lists must still resolve, or the traced pass breaks."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_a_traced_rules_sweep_pass_validates_974_diagrams(tmp_path):
    # the shape memo's hits validate nothing: a cold rules-sweep pass at
    # seed 3 validates the same 974 diagrams however cheap a hit gets
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "worker.py", "--workload", "rules-sweep",
         "--seed", "3", "--mode", "traced", "--workdir", str(tmp_path)],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    assert layers["diagram.check_validity.calls"] == 974
