import json

import numpy as np
import pytest
from click.testing import CliRunner

from zxel import diagram as D
from zxel.cli import main
from zxel.equivalence import VerdictDisagreement, check_equivalent
from zxel.normalform import decompose_elementary, normalize
from zxel.io import (diagram_from_jsonable, diagram_to_jsonable,
                     export_text, load_diagram, parse_complex_token,
                     save_diagram, DiagramFileError)
from zxel.rules import catalog_by_name, instantiate
from zxel.semantics import interpret, matrices_equal

from helpers import random_diagram


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, d):
    path = tmp_path / name
    save_diagram(d, str(path))
    return str(path)


# -- file format -------------------------------------------------------------

def test_file_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(4)
    for k in range(15):
        d = random_diagram(rng)
        p = _write(tmp_path, f"d{k}.zx", d)
        d2 = load_diagram(p)
        p2 = _write(tmp_path, f"d{k}b.zx", d2)
        d3 = load_diagram(p2)
        assert d2.structural_key() == d3.structural_key()
        assert matrices_equal(interpret(d), interpret(d2))


def test_malformed_file_rejected(tmp_path):
    bad = tmp_path / "bad.zx"
    bad.write_text('{"version": "zxel/1", "inputs": 1, "outputs": 0, '
                   '"nodes": [], "edges": []}')
    with pytest.raises(DiagramFileError) as err:
        load_diagram(str(bad))
    assert "dangling" in str(err.value) or "ill-formed" in str(err.value)


def test_parse_error_positions(tmp_path):
    bad = tmp_path / "bad.zx"
    bad.write_text('{"version": "zxel/1", "inputs": 0, "outputs": 0, '
                   '"nodes": [{"id": 0, "kind": "q"}], "edges": []}')
    with pytest.raises(DiagramFileError) as err:
        load_diagram(str(bad))
    assert "nodes[0]" in str(err.value)


def test_x_macro_node_parses():
    rec = {"version": "zxel/1", "inputs": 1, "outputs": 1, "nodes":
           [{"id": 0, "kind": "x", "tau": "pi"}],
           "edges": [[["in", 0], ["node", 0, 0]],
                     [["node", 0, 1], ["out", 0]]]}
    d = diagram_from_jsonable(rec)
    assert matrices_equal(interpret(d), np.array([[0, 1], [1, 0]]))
    # serialization never emits the macro kind
    assert all(nd["kind"] != "x" for nd in diagram_to_jsonable(d)["nodes"])


@pytest.mark.parametrize("ports", [(-1,), (0, 2), (10 ** 9,), (0, 0)])
def test_x_macro_ports_must_be_contiguous(tmp_path, runner, monkeypatch,
                                          ports):
    # each x port becomes an H box, so a port number is checked before
    # the macro is expanded (port 10**9 would ask for 10**9 H boxes)
    def never(*args):
        raise AssertionError("x node expanded before its ports were checked")
    monkeypatch.setattr("zxel.io._expand_x_nodes", never)
    rec = {"version": "zxel/1", "inputs": 0, "outputs": len(ports),
           "nodes": [{"id": 0, "kind": "x", "tau": "0"}],
           "edges": [[["node", 0, p], ["out", k]]
                     for k, p in enumerate(ports)]}
    path = tmp_path / "x.zx"
    path.write_text(json.dumps(rec))
    with pytest.raises(DiagramFileError, match="x node 0: ports"):
        load_diagram(str(path))
    for args in (["interpret", str(path)], ["check-eq", str(path), str(path)]):
        res = runner.invoke(main, args)
        _assert_one_line_error(res)
        assert "x node 0: ports" in res.stderr


def test_phase_serialized_as_pair():
    rec = diagram_to_jsonable(D.z_spider(1, 1, 0.25 - 0.5j))
    assert rec["nodes"][0]["phase"] == [0.25, -0.5]


def test_complex_token_parser():
    assert parse_complex_token("2+3i") == 2 + 3j
    assert parse_complex_token("-1.5i") == -1.5j
    assert parse_complex_token("i") == 1j
    assert parse_complex_token("4") == 4
    assert parse_complex_token("1e-3") == 1e-3
    with pytest.raises(DiagramFileError):
        parse_complex_token("banana")


# -- commands ----------------------------------------------------------------

def test_interpret_triangle(tmp_path, runner):
    p = _write(tmp_path, "t.zx", D.triangle())
    res = runner.invoke(main, ["interpret", p])
    assert res.exit_code == 0
    assert res.output.split("\n")[0].split() == ["1", "1"]
    res = runner.invoke(main, ["interpret", p, "--json"])
    rec = json.loads(res.output)
    assert rec["rows"] == 2 and rec["entries"][1] == [[0.0, 0.0], [1.0, 0.0]]


def test_interpret_empty(tmp_path, runner):
    p = _write(tmp_path, "e.zx", D.empty())
    res = runner.invoke(main, ["interpret", p])
    assert res.exit_code == 0 and res.output.strip() == "1"


def test_interpret_malformed(tmp_path, runner):
    bad = tmp_path / "bad.zx"
    bad.write_text("{not json")
    res = runner.invoke(main, ["interpret", str(bad)])
    assert res.exit_code == 2


def test_check_eq_exit_codes(tmp_path, runner):
    a, b = 0.5, 2.0 + 1j
    chain = _write(tmp_path, "c.zx",
                   D.compose(D.z_spider(1, 1, a), D.z_spider(1, 1, b)))
    fused = _write(tmp_path, "f.zx", D.z_spider(1, 1, a * b))
    s1 = _write(tmp_path, "s1.zx", D.z_spider(0, 1, 0.5))
    s2 = _write(tmp_path, "s2.zx", D.z_spider(0, 1, 0.7))
    capf = _write(tmp_path, "cap.zx", D.cap())

    assert runner.invoke(main, ["check-eq", chain, fused]).exit_code == 0
    assert runner.invoke(main, ["check-eq", s1, s2]).exit_code == 1
    assert runner.invoke(main, ["check-eq", s1, capf]).exit_code == 2


def test_normalize_command(tmp_path, runner):
    capf = _write(tmp_path, "cap.zx", D.cap())
    res = runner.invoke(main, ["normalize", capf])
    rec = json.loads(res.output)
    assert rec["m"] == 2
    assert rec["coeffs"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    loopf = _write(tmp_path, "loop.zx", D.compose(D.cap(), D.cup()))
    rec = json.loads(runner.invoke(main, ["normalize", loopf]).output)
    assert rec["m"] == 0 and rec["coeffs"] == [[2.0, 0.0]]


def test_normalize_out_roundtrip(tmp_path, runner):
    rng = np.random.default_rng(2)
    d = random_diagram(rng)
    p = _write(tmp_path, "d.zx", d)
    out = str(tmp_path / "nf.zx")
    res = runner.invoke(main, ["normalize", p, "--out", out])
    assert res.exit_code == 0
    rec = json.loads(res.output)
    emitted = load_diagram(out)
    v = interpret(emitted).reshape(-1)
    coeffs = [complex(re, im) for re, im in rec["coeffs"]]
    assert np.allclose(v, coeffs, atol=1e-9)


def test_normalize_consistent_with_interpret(tmp_path, runner):
    rng = np.random.default_rng(6)
    d = D.bend_to_state(random_diagram(rng, max_wires=3))
    p = _write(tmp_path, "s.zx", d)
    nf = json.loads(runner.invoke(main, ["normalize", p]).output)
    mat = json.loads(runner.invoke(main, ["interpret", p, "--json"]).output)
    col = np.array([complex(re, im) for row in mat["entries"]
                    for re, im in row])
    coeffs = np.array([complex(re, im) for re, im in nf["coeffs"]])
    assert np.allclose(coeffs, col, atol=1e-9)


def test_simplify_command(tmp_path, runner):
    chain = _write(tmp_path, "ch.zx",
                   D.compose(D.z_spider(1, 1, 2.0), D.z_spider(1, 1, 3.0)))
    res = runner.invoke(main, ["simplify", chain])
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert len(rec["nodes"]) == 1
    # the trace goes to stderr (mixed into output by the test runner)
    res_t = runner.invoke(main, ["simplify", chain, "--trace"])
    assert res_t.exit_code == 0
    assert "S1" in res_t.output and "steps" in res_t.output
    res0 = runner.invoke(main, ["simplify", chain, "--budget", "0"])
    rec0 = json.loads(res0.output)
    assert len(rec0["nodes"]) == 2


def test_rules_command_ok(runner):
    res = runner.invoke(main, ["rules", "--samples", "2", "--json"])
    assert res.exit_code == 0, res.output
    rec = json.loads(res.output)
    assert rec["ok"] is True
    assert len(rec["rules"]) >= 47
    assert all(r["max_deviation"] <= 1e-9 for r in rec["rules"])


def test_rules_command_corrupted_fails(runner):
    res = runner.invoke(main, ["rules", "--samples", "2", "--corrupt", "B2"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_elementary_command(tmp_path, runner):
    mat = tmp_path / "m.txt"
    mat.write_text("1 0\n0 2+3i\n")
    res = runner.invoke(main, ["elementary", str(mat)])
    assert res.exit_code == 0
    ops = json.loads(res.output)["operations"]
    assert ops == [{"kind": "mult", "m": 1, "coeff": [2.0, 3.0]}]

    mat2 = tmp_path / "m2.txt"
    mat2.write_text("1 -0.5i\n0 1\n")
    ops = json.loads(runner.invoke(main, ["elementary", str(mat2)]).output)
    assert ops["operations"][0] == {"kind": "add", "m": 1,
                                    "coeff": [0.0, -0.5], "subset": [0]}

    # a genuine row switch decomposes too
    xmat = tmp_path / "x.txt"
    xmat.write_text("0 1\n1 0\n")
    res = runner.invoke(main, ["elementary", str(xmat)])
    assert res.exit_code == 0

    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 0\n0 1 0\n0 0 1\n")
    assert runner.invoke(main, ["elementary", str(bad)]).exit_code == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    ("1 1e400\n0 1\n", "not finite"),
    ("1 1e308\n0 -1e308\n", "non-finite entries"),
    ("1e308 1e308\n1e308 -1e308\n", "non-finite coefficient"),
    ("1.7976931348623157e308+1.7976931348623157e308i 0\n0 1\n",
     "beyond the float range"),
])
def test_elementary_extreme_matrix_is_a_file_error(tmp_path, runner, text,
                                                  message):
    # an entry beyond the float range is a bad file, and a huge finite
    # matrix whose decomposition or check overflows is an ordinary error,
    # not an internal one; numpy's overflow warnings stay silent
    mat = tmp_path / "m.txt"
    mat.write_text(text)
    res = runner.invoke(main, ["elementary", str(mat)])
    _assert_one_line_error(res)
    assert message in res.stderr and "internal" not in res.stderr


def test_elementary_composed_diagram(tmp_path, runner):
    mat = tmp_path / "m.txt"
    mat.write_text("1 0 0 1.5\n0 1 0 0\n0 0 1 0\n0 0 0 -2\n")
    out = str(tmp_path / "d.zx")
    res = runner.invoke(main, ["elementary", str(mat), "--out", out])
    assert res.exit_code == 0, res.output
    d = load_diagram(out)
    expect = np.eye(4, dtype=complex)
    expect[0, 3] = 1.5
    expect[3, 3] = -2
    assert matrices_equal(interpret(d), expect, 1e-7)


def _write_matrix(path, mat):
    path.write_text("\n".join(" ".join(f"{z.real!r}{z.imag:+.17g}i"
                                      for z in map(complex, row))
                               for row in mat))
    return str(path)


def test_elementary_check_is_relative(tmp_path, runner):
    # the third matrix reproduces to about 1e-15 relative, which is
    # beyond 1e-7 absolute
    rng = np.random.default_rng(8)
    dense = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for k, mat in enumerate([np.array([[32000, 1], [1, 0]]),
                             dense * 1e6, dense * 1e12]):
        res = runner.invoke(main, ["elementary",
                                   _write_matrix(tmp_path / f"{k}.txt", mat)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["operations"]


def test_elementary_dense_16x16_keeps_the_contract(tmp_path, runner):
    # its gadget chain is too long for the float interpretation
    rng = np.random.default_rng(16)
    mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    res = runner.invoke(main, ["elementary",
                               _write_matrix(tmp_path / "m.txt", mat)])
    assert res.exit_code in (0, 2), res.output
    assert len(res.stderr.splitlines()) <= 1, res.stderr
    assert "internal" not in res.stderr and "Traceback" not in res.output


def test_decompose_wire_permutation():
    swap_mat = interpret(D.swap())
    ops, d = decompose_elementary(swap_mat)
    assert {op["kind"] for op in ops} <= {"add", "mult"}
    assert matrices_equal(interpret(d), swap_mat, 1e-9)


def test_export_deterministic(tmp_path, runner):
    capf = _write(tmp_path, "cap.zx", D.cap())
    r1 = runner.invoke(main, ["export", capf])
    r2 = runner.invoke(main, ["export", capf])
    assert r1.output == r2.output
    assert "out0 -- out1" in r1.output

    trif = _write(tmp_path, "t.zx",
                  D.tensor(D.triangle(), D.compose(D.h_box(), D.h_box())))
    out = runner.invoke(main, ["export", trif, "--format", "tikz-text"]).output
    assert "T" in out and "H" in out


_EXPORTS = {
    "cap": (lambda: D.cap(), {
        "dot": 'graph zx {\n  out0 [shape=none, label="out 0"];\n'
               '  out1 [shape=none, label="out 1"];\n  out0 -- out1;\n}\n',
        "tikz-text": "% zxel diagram 0->2, loops=0\nwire out0 -- out1\n"}),
    "tri": (lambda: D.tensor(D.triangle(), D.compose(D.h_box(), D.h_box())), {
        "dot": 'graph zx {\n  in0 [shape=none, label="in 0"];\n'
               '  in1 [shape=none, label="in 1"];\n'
               '  out0 [shape=none, label="out 0"];\n'
               '  out1 [shape=none, label="out 1"];\n'
               '  n0 [label="T"];\n  n1 [label="H"];\n  n2 [label="H"];\n'
               '  n0 -- in0;\n  n0 -- out0;\n  n1 -- in1;\n  n1 -- n2;\n'
               '  n2 -- out1;\n}\n',
        "tikz-text": "% zxel diagram 2->2, loops=0\nnode n0: T\nnode n1: H\n"
                     "node n2: H\nwire n0 -- in0\nwire n0 -- out0\n"
                     "wire n1 -- in1\nwire n1 -- n2\nwire n2 -- out1\n"}),
    "mixed": (lambda: D.compose(
        D.tensor(D.z_spider(1, 2, 0.5 - 2j), D.triangle_inv_flipped()),
        D.tensor(D.swap(), D.wire())), {
        "dot": 'graph zx {\n  in0 [shape=none, label="in 0"];\n'
               '  in1 [shape=none, label="in 1"];\n'
               '  out0 [shape=none, label="out 0"];\n'
               '  out1 [shape=none, label="out 1"];\n'
               '  out2 [shape=none, label="out 2"];\n'
               '  n0 [label="Z(0.5-2i)"];\n  n1 [label="T-inv"];\n'
               '  n0 -- in0;\n  n0 -- out0;\n  n0 -- out1;\n  n1 -- in1;\n'
               '  n1 -- out2;\n}\n',
        "tikz-text": "% zxel diagram 2->3, loops=0\nnode n0: Z(0.5-2i)\n"
                     "node n1: T-inv\nwire n0 -- in0\nwire n0 -- out0\n"
                     "wire n0 -- out1\nwire n1 -- in1\nwire n1 -- out2\n"}),
    "loop": (lambda: D.tensor(D.compose(D.cap(), D.cup()),
                              D.x_spider(1, 1, D.TAU_PI)), {
        "dot": 'graph zx {\n  in0 [shape=none, label="in 0"];\n'
               '  out0 [shape=none, label="out 0"];\n'
               '  n0 [label="H"];\n  n1 [label="Z(-1+0i)"];\n'
               '  n2 [label="H"];\n  n3 [label="Z(-0.5+0i)"];\n'
               '  n0 -- in0;\n  n0 -- n1;\n  n1 -- n2;\n  n2 -- out0;\n'
               '  // bare loop 0 (scalar 2)\n}\n',
        "tikz-text": "% zxel diagram 1->1, loops=1\nnode n0: H\n"
                     "node n1: Z(-1+0i)\nnode n2: H\nnode n3: Z(-0.5+0i)\n"
                     "wire n0 -- in0\nwire n0 -- n1\nwire n1 -- n2\n"
                     "wire n2 -- out0\n"}),
}


@pytest.mark.parametrize("name", sorted(_EXPORTS))
def test_export_text_is_byte_stable(tmp_path, runner, name):
    build, expected = _EXPORTS[name]
    path = _write(tmp_path, f"{name}.zx", build())
    for fmt, text in expected.items():
        res = runner.invoke(main, ["export", path, "--format", fmt])
        assert res.exit_code == 0
        assert res.output == text
        assert export_text(load_diagram(path), fmt) + "\n" == text


def test_interpret_wire_cap(tmp_path, runner, monkeypatch):
    p = _write(tmp_path, "wide.zx", D.identity(3))
    monkeypatch.setenv("ZXEL_WIRE_CAP", "4")
    res = runner.invoke(main, ["interpret", p])
    assert res.exit_code == 2


def _assert_one_line_error(res):
    """Exit 2 through the CLI's own error path: one line, no traceback."""
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("zxel: "), res.stderr
    assert "Traceback" not in res.output


def _commands(path):
    return [["interpret", path], ["normalize", path],
            ["check-eq", path, path]]


_WIRE_FILE = ('{"version": "zxel/1", "inputs": 1, "outputs": 1, '
              '"loops": %s, "nodes": [{"id": 0, "kind": "z", "phase": %s}], '
              '"edges": [[["in", 0], ["node", 0, 0]], '
              '[["out", 0], ["node", 0, 1]]]}')


@pytest.mark.parametrize("loops, phase, message", [
    ("0", "[NaN, 0]", "not finite"),
    ("0", "[1, Infinity]", "not finite"),
    ("0", "[1, %d]" % 10 ** 400, "not finite"),
    ('"x"', "[1, 0]", "loops"),
    ("-1", "[1, 0]", "loops"),
    ("1.5", "[1, 0]", "loops"),
    ("true", "[1, 0]", "loops"),
    ("5000", "[1, 0]", "beyond the float range"),
])
def test_bad_phase_or_loops_rejected(tmp_path, runner, loops, phase, message):
    rec = json.loads(_WIRE_FILE % (loops, phase))
    with pytest.raises(DiagramFileError, match=message):
        diagram_from_jsonable(rec)
    path = tmp_path / "bad.zx"
    path.write_text(_WIRE_FILE % (loops, phase))
    for args in _commands(str(path)):
        res = runner.invoke(main, args)
        _assert_one_line_error(res)
        assert message in res.stderr


@pytest.mark.parametrize("key, value", [
    ("nodes", "true"), ("nodes", "null"), ("edges", "5"),
    ("inputs", "Infinity"), ("outputs", "-Infinity"),
    ("inputs", "1.9"), ("outputs", "true"), ("inputs", '" 1 "'),
    ("inputs", "-1"),
])
def test_wrongly_typed_field_is_a_file_error(tmp_path, runner, key, value):
    # a malformed file is the user's error, never an internal one
    rec = json.loads(_WIRE_FILE % ("0", "[1, 0]"))
    rec[key] = json.loads(value)
    path = tmp_path / "bad.zx"
    path.write_text(json.dumps(rec))
    for args in _commands(str(path)):
        res = runner.invoke(main, args)
        _assert_one_line_error(res)
        assert key in res.stderr and "internal" not in res.stderr


def test_check_eq_overflowing_deviation_is_null(tmp_path, runner):
    # two finite phases whose difference is beyond the float range: not
    # equal, and the deviation has no JSON number, so it is null
    p1 = _write(tmp_path, "a.zx", D.z_spider(1, 1, 1e308))
    p2 = _write(tmp_path, "b.zx", D.z_spider(1, 1, -1e308))
    res = runner.invoke(main, ["check-eq", p1, p2])
    assert res.exit_code == 1, res.output

    def reject(name):
        raise ValueError(name)
    rec = json.loads(res.stdout, parse_constant=reject)
    assert rec["equal"] is False and rec["max_deviation"] is None


def test_simplify_overflowing_phase_is_an_error(tmp_path, runner):
    # fusing two spiders of phase 1e308 gives an infinite phase, which
    # simplify used to print as Infinity, a file zxel then rejects
    rec = json.loads(_WIRE_FILE % ("0", "[1e308, 0]"))
    rec["nodes"].append({"id": 1, "kind": "z", "phase": [1e308, 0]})
    rec["edges"][1] = [["node", 0, 1], ["node", 1, 0]]
    rec["edges"].append([["out", 0], ["node", 1, 1]])
    path = tmp_path / "big.zx"
    path.write_text(json.dumps(rec))
    res = runner.invoke(main, ["simplify", str(path)])
    _assert_one_line_error(res)
    assert "not finite" in res.stderr


@pytest.mark.parametrize("args, option", [
    (["simplify", "--budget", "-1"], "--budget"),
    (["rules", "--samples", "0"], "--samples"),
    (["simplify", "--budget", "abc"], "--budget"),
    (["frobnicate"], "frobnicate"),
    (["interpret", "--bogus"], "--bogus"),
    (["--bogus"], "--bogus"),
    (["check-eq", "no-such-file.zx"], "no-such-file.zx"),
])
def test_out_of_range_option_is_a_usage_error(tmp_path, runner, args, option):
    """click's own usage errors are one line too, not Usage/Try/Error."""
    if args[0] in ("simplify", "interpret", "check-eq"):
        args = args + [_write(tmp_path, "w.zx", D.identity(1))]
    res = runner.invoke(main, args)
    _assert_one_line_error(res)
    assert option in res.stderr


@pytest.mark.parametrize("args, option", [
    (["check-eq", "--tol", "nan"], "--tol"),
    (["check-eq", "--tol", "-1"], "--tol"),
    (["check-eq", "--tol", "inf"], "--tol"),
    (["rules", "--tol", "nan", "--json"], "--tol"),
    (["rules", "--tol", "-1"], "--tol"),
    (["rules", "--tol", "inf"], "--tol"),
    (["rules", "--seed", "-1"], "--seed"),
    (["interpret", "--precision", "-1"], "--precision"),
])
def test_bad_tolerance_seed_precision_are_usage_errors(tmp_path, runner,
                                                       args, option):
    """A tolerance is finite and >= 0 (under NaN or a negative bound two
    identical files compared unequal), a seed and a precision are >= 0;
    anything else is the user's error, not an internal one."""
    p = _write(tmp_path, "w.zx", D.identity(1))
    files = {"check-eq": [p, p], "interpret": [p]}.get(args[0], [])
    res = runner.invoke(main, args + files)
    _assert_one_line_error(res)
    assert option in res.stderr and "internal" not in res.stderr


@pytest.mark.parametrize("raw", ["abc", "-3", "0"])
def test_malformed_wire_cap_rejected(tmp_path, runner, monkeypatch, raw):
    p = _write(tmp_path, "w.zx", D.identity(1))
    monkeypatch.setenv("ZXEL_WIRE_CAP", raw)
    for args in _commands(p):
        res = runner.invoke(main, args)
        _assert_one_line_error(res)
        assert repr(raw) in res.stderr


def test_check_eq_reports_verdict_disagreement_as_error(tmp_path, runner,
                                                       monkeypatch):
    def disagree(d1, d2, tol):
        raise VerdictDisagreement("routes disagree")
    monkeypatch.setattr("zxel.cli.check_equivalent", disagree)
    p = _write(tmp_path, "w.zx", D.identity(1))
    res = runner.invoke(main, ["check-eq", p, p])
    _assert_one_line_error(res)
    assert res.stderr == "zxel: internal: routes disagree\n"


def test_rules_over_the_wire_cap_is_one_line(runner, monkeypatch):
    # the sweep's first side has 4 boundary wires: a ResourceError, which
    # is an error (exit 2), not a failing rule (exit 1)
    monkeypatch.setenv("ZXEL_WIRE_CAP", "3")
    res = runner.invoke(main, ["rules", "--samples", "1"])
    _assert_one_line_error(res)
    assert res.stderr == "zxel: diagram has 4 boundary wires, cap is 3\n"


@pytest.mark.parametrize("target, args", [
    ("zxel.cli.full_catalog", ["rules"]),
    ("zxel.cli.interpret", ["interpret"]),
    ("zxel.cli.normalize", ["normalize"]),
    ("zxel.cli.export_text", ["export"]),
])
def test_uncaught_exception_is_one_internal_line(tmp_path, runner,
                                                 monkeypatch, target, args):
    def broken(*a, **k):
        raise KeyError("boom")
    monkeypatch.setattr(target, broken)
    if args[0] != "rules":
        args = args + [_write(tmp_path, "w.zx", D.identity(1))]
    res = runner.invoke(main, args)
    _assert_one_line_error(res)
    assert res.stderr == "zxel: internal: KeyError: 'boom'\n"


def test_known_fault_f2_check_eq_is_an_error_not_a_verdict(tmp_path, runner):
    # Known fault F2: at parameters near 3e3 the absolute tolerance gives
    # this sound rule a False normal-form verdict while its matrices agree.
    # Once the tolerance is relative this instance no longer disagrees and
    # the test should go; the CLI path is covered by the test above.
    rule = catalog_by_name()["pimultiaddcombinepro"]
    lhs, rhs = instantiate(rule, [complex(-2991.7280928663654,
                                          -222.62753278554692),
                                  complex(2855.8583893321174,
                                          -918.7343795033281)])
    with pytest.raises(VerdictDisagreement):
        check_equivalent(lhs, rhs)
    res = runner.invoke(main, ["check-eq", _write(tmp_path, "l.zx", lhs),
                               _write(tmp_path, "r.zx", rhs)])
    _assert_one_line_error(res)
    assert res.stderr.startswith("zxel: internal: ")


@pytest.mark.parametrize("extra_node", [False, True])
def test_overflowing_scalar_is_an_error(tmp_path, runner, extra_node):
    # 2^1023 parses, but one more scalar 2 takes the result past the
    # float range; with a wire the product is inf * 0 = NaN as well
    rec = json.loads(_WIRE_FILE % ("1023", "[1, 0]"))
    if extra_node:
        rec["nodes"].append({"id": 1, "kind": "z", "phase": [1, 0]})
    else:
        rec.update(inputs=0, outputs=0, edges=[])
    d = diagram_from_jsonable(rec)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="non-finite"):
            interpret(d)
        with pytest.raises(ArithmeticError, match="non-finite"):
            normalize(d)
    path = tmp_path / "big.zx"
    path.write_text(json.dumps(rec))
    for args in _commands(str(path)):
        res = runner.invoke(main, args)
        _assert_one_line_error(res)
        assert "non-finite" in res.stderr
