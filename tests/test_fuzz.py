"""Fuzz the CLI's exit-code contract on mutated input files.

Each diagram example takes a valid diagram file, applies a few random
edits to its JSON (replace a value, delete it, duplicate a list item, or
cut the text short) and runs ``interpret --json``, ``normalize``,
``check-eq``, ``simplify`` and ``export`` on it in process; each matrix
example edits the tokens and rows of a valid matrix file and runs
``elementary`` on it.  Whatever the file holds, the CLI exits 0, 1 or 2,
prints at most one line on stderr and no traceback, reports a bad file
as the user's error (never as ``zxel: internal``), and any JSON it writes to stdout has no NaN or
Infinity.  No command may emit a Python warning either: each run records
its warnings itself, because pytest's warning capture would otherwise take
a warning such as numpy's overflow ``RuntimeWarning`` before
``CliRunner``'s stderr shows it.  Examples are derandomized, so a run is
repeatable.
"""

import json
import os
import tempfile
import warnings

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from zxel import diagram as D
from zxel.cli import main
from zxel.io import diagram_to_jsonable

_X_NODE = {"version": "zxel/1", "inputs": 1, "outputs": 2, "loops": 1,
           "nodes": [{"id": 0, "kind": "x", "tau": "pi"},
                     {"id": 1, "kind": "t_inv"}],
           "edges": [[["in", 0], ["node", 0, 0]],
                     [["node", 0, 1], ["node", 1, 0]],
                     [["node", 1, 1], ["out", 0]],
                     [["node", 0, 2], ["out", 1]]]}

SEEDS = [diagram_to_jsonable(d) for d in (
    D.compose(D.z_spider(1, 2, 0.5 - 2j), D.tensor(D.h_box(), D.triangle())),
    D.tensor(D.cap(), D.z_spider(1, 0, 3.0)),
    D.compose(D.swap(), D.tensor(D.identity(1), D.triangle_inv())),
)] + [_X_NODE]

_WORDS = ["version", "zxel/1", "inputs", "outputs", "loops", "nodes",
          "edges", "id", "kind", "phase", "tau", "z", "x", "h", "t",
          "t_inv", "in", "out", "node", "pi", "0"]
_INTS = st.one_of(st.integers(-1, 6), st.integers(-2 ** 70, 2 ** 70),
                  st.sampled_from([10 ** 400, -10 ** 400]))
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1e-320]))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS,
                    st.sampled_from(_WORDS), st.text(max_size=3))
# a tweak keeps a value's JSON type, so the file often stays well-formed
_TWEAKS = {bool: st.booleans(), int: _INTS, float: _FLOATS,
           str: st.sampled_from(_WORDS)}
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=3),
    max_leaves=6)


def _mutate(doc, data):
    for _ in range(data.draw(st.integers(1, 3))):
        # walk down from the top, stopping below it by a coin flip at each
        # level, so about half the edits hit a top-level field
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (
                parent is None or data.draw(st.booleans())):
            parent = node
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if parent is None:
            break
        op = data.draw(st.sampled_from(["tweak", "replace", "delete",
                                        "duplicate"]))
        if op == "tweak":
            parent[key] = data.draw(_TWEAKS.get(type(parent[key]), _VALUES))
        elif op == "replace":
            parent[key] = data.draw(_VALUES)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
    return doc


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_survives_mutated_diagram_files(data):
    seed = SEEDS[data.draw(st.integers(0, len(SEEDS) - 1))]
    text = json.dumps(_mutate(json.loads(json.dumps(seed)), data))
    if data.draw(st.integers(0, 7)) == 0:
        text = text[:data.draw(st.integers(0, len(text)))]
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = os.path.join(tmp, "fuzz.zx"), os.path.join(tmp, "ref.zx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(seed, fh)
        for args in (["interpret", path, "--json"], ["normalize", path],
                     ["check-eq", path, ref], ["simplify", path]):
            _check_contract(args, text)
        _check_contract(["export", path], text, stdout_is_json=False)


def _check_contract(args, text, stdout_is_json=True):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = CliRunner().invoke(main, args)
    assert not caught, (args, text, [str(w.message) for w in caught])
    assert res.exit_code in (0, 1, 2), (args, text, res.output)
    assert res.exception is None or isinstance(
        res.exception, SystemExit), (args, text, res.exception)
    assert "Traceback" not in res.output, (args, text)
    assert "zxel: internal" not in res.stderr, (args, text, res.stderr)
    assert len(res.stderr.splitlines()) <= 1, (args, text, res.stderr)
    if stdout_is_json and res.stdout.strip():
        json.loads(res.stdout, parse_constant=_reject_constant)


MATRICES = ["1 0\n0 2+3i\n", "1 -0.5i\n0 1\n", "0 1\n1 0\n",
            "1 0 0 1.5\n0 1 0 0\n0 0 1 0\n0 0 0 -2\n",
            "1 1e400\n0 1\n", "1e308 1e308\n1e308 -1e308\n"]
_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2+3i", "-0.5i", "i", "+", "e", ".",
                     "1e308", "-1e308", "1e400", "-1e400", "1e-320",
                     "1e308+1e308i", "1.7976931348623157e308", "nan", "#"]),
    st.text(alphabet="+-0123456789.eEij ", max_size=6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_survives_mutated_matrix_files(data):
    rows = [line.split() for line in
            MATRICES[data.draw(st.integers(0, len(MATRICES) - 1))].splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["token", "drop", "row", "blank"]))
        r = data.draw(st.integers(0, len(rows) - 1)) if rows else None
        if op == "token" and rows and rows[r]:
            rows[r][data.draw(st.integers(0, len(rows[r]) - 1))] = \
                data.draw(_TOKENS)
        elif op == "drop" and rows and rows[r]:
            del rows[r][data.draw(st.integers(0, len(rows[r]) - 1))]
        elif op == "row" and rows:
            rows.insert(r, list(rows[r]))
        elif op == "blank":
            rows.insert(r or 0, [])
    text = "\n".join(" ".join(row) for row in rows)
    if data.draw(st.integers(0, 7)) == 0:
        text = text[:data.draw(st.integers(0, len(text)))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        args = ["elementary", path]
        _check_contract(args, text)
