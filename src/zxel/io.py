"""Diagram file serialization and the plain-text matrix format.

The canonical diagram format is version-tagged JSON:

    {
      "version": "zxel/1",
      "inputs": 1, "outputs": 1, "loops": 0,
      "nodes": [{"id": 0, "kind": "z", "phase": [re, im]},
                {"id": 1, "kind": "h"},
                {"id": 2, "kind": "x", "tau": "pi"}],
      "edges": [[["in", 0], ["node", 0, 0]], ...]
    }

Node kinds are "z" (complex phase as an [re, im] pair), "h", "t",
"t_inv", and the macro kind "x" (tau "0" or "pi"), which is expanded
into its H-conjugated form while parsing: each file edge end at an x
port is renamed to that port's H box; serialization never emits it.
Phases are [re, im] pairs, never formatted complex strings, so round
trips are bit-stable.

Matrix files are rows of whitespace-separated complex tokens in the
form ``re+imi`` (e.g. ``1  2+3i  -0.5i``).
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys

import numpy as np

from .diagram import Diagram, DiagramError, Node, H, T, T_INV, Z

FORMAT_VERSION = "zxel/1"


class DiagramFileError(ValueError):
    """Malformed diagram file; message carries the offending location."""


def _is_int(x) -> bool:
    """An integer, and not a JSON boolean (which Python reads as 0 or 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_endpoint(raw, where: str):
    if not isinstance(raw, list) or not raw:
        raise DiagramFileError(f"{where}: endpoint must be a list")
    tag = raw[0]
    if tag == "in" or tag == "out":
        if len(raw) != 2 or not _is_int(raw[1]):
            raise DiagramFileError(f"{where}: boundary endpoint needs a slot")
        return (tag, raw[1])
    if tag == "node":
        if len(raw) != 3 or not all(_is_int(x) for x in raw[1:]):
            raise DiagramFileError(f"{where}: node endpoint needs id and port")
        return ("n", raw[1], raw[2])
    raise DiagramFileError(f"{where}: unknown endpoint tag {tag!r}")


def _expand_x_nodes(nodes, x_nodes, edges):
    """Replace macro "x" nodes by H-conjugated Z spiders with the
    compensating half scalar: the end of ``edges`` at port p of an x node
    is renamed to port 0 of the port's H box, and an edge from the H box's
    port 1 to port p of the core is appended.  An x node's ports must
    already be checked to be 0..degree-1."""
    next_id = max(list(nodes) + list(x_nodes) + [-1]) + 1
    ends, wires = {}, []
    for xid, (sign, ports) in x_nodes.items():
        core, next_id = next_id, next_id + len(ports) + 2
        nodes[core] = Node(Z, sign)
        for p, h in enumerate(range(core + 1, next_id - 1)):
            nodes[h] = Node(H)
            ends["n", xid, p] = ("n", h, 0)
            wires.append((("n", h, 1), ("n", core, p)))
        nodes[next_id - 1] = Node(Z, -0.5)
    edges = [(ends.get(a, a), ends.get(b, b)) for a, b in edges]
    return nodes, edges + wires


def diagram_from_jsonable(rec) -> Diagram:
    if not isinstance(rec, dict):
        raise DiagramFileError("top level: expected an object")
    if rec.get("version") != FORMAT_VERSION:
        raise DiagramFileError(
            f"version: expected {FORMAT_VERSION!r}, got {rec.get('version')!r}")
    counts = {}
    for key, default in (("inputs", None), ("outputs", None), ("loops", 0)):
        value = counts[key] = rec.get(key, default)
        if not _is_int(value) or value < 0:
            raise DiagramFileError(
                f"{key}: expected a non-negative integer, got {value!r}")
    n_in, n_out, loops = counts.values()
    if loops >= sys.float_info.max_exp:  # the scalar 2.0 ** loops overflows
        raise DiagramFileError(
            f"loops: 2^{loops} is beyond the float range")

    if not all(isinstance(rec.get(k, []), list) for k in ("nodes", "edges")):
        raise DiagramFileError("nodes, edges: expected lists")
    nodes: dict[int, Node] = {}
    x_nodes: dict[int, tuple[complex, list[int]]] = {}  # sign, ports
    for i, nd in enumerate(rec.get("nodes", [])):
        where = f"nodes[{i}]"
        if not isinstance(nd, dict) or "id" not in nd or "kind" not in nd:
            raise DiagramFileError(f"{where}: needs id and kind")
        vid = nd["id"]
        if not _is_int(vid) or vid in nodes or vid in x_nodes:
            raise DiagramFileError(f"{where}: bad or duplicate id {vid!r}")
        kind = nd["kind"]
        if kind == "z":
            phase = nd.get("phase", [1.0, 0.0])
            if (not isinstance(phase, list) or len(phase) != 2
                    or not all(_is_int(x) or isinstance(x, float)
                               for x in phase)):
                raise DiagramFileError(
                    f"{where}: phase must be an [re, im] pair")
            try:
                value = complex(phase[0], phase[1])
            except OverflowError:  # an integer beyond the float range
                value = complex(math.inf)
            if not cmath.isfinite(value):
                raise DiagramFileError(f"{where}: phase {phase} is not finite")
            nodes[vid] = Node(Z, value)
        elif kind in ("h", "t", "t_inv"):
            nodes[vid] = Node({"h": H, "t": T, "t_inv": T_INV}[kind])
        elif kind == "x":
            tau = nd.get("tau", "0")
            if tau not in ("0", "pi"):  # strings only: the number 0 fails
                raise DiagramFileError(f"{where}: tau must be '0' or 'pi'")
            x_nodes[vid] = (-1.0 if tau == "pi" else 1.0, [])
        else:
            raise DiagramFileError(f"{where}: unknown kind {kind!r}")

    edges = []
    for i, e in enumerate(rec.get("edges", [])):
        where = f"edges[{i}]"
        if not isinstance(e, list) or len(e) != 2:
            raise DiagramFileError(f"{where}: expected an endpoint pair")
        ends = tuple(_parse_endpoint(raw, where) for raw in e)
        for ep in ends:
            if ep[0] == "n" and ep[1] in x_nodes:
                x_nodes[ep[1]][1].append(ep[2])
        edges.append(ends)
    # an x node's ports become one H box each, so they are checked first
    for vid, (_, ports) in x_nodes.items():
        if sorted(ports) != list(range(len(ports))):
            raise DiagramFileError(f"x node {vid}: ports {sorted(ports)} "
                                   f"are not 0..{len(ports) - 1}")

    nodes, edges = _expand_x_nodes(nodes, x_nodes, edges)
    try:
        return Diagram(nodes, edges, n_in, n_out, loops=loops)
    except DiagramError as exc:
        raise DiagramFileError(f"ill-formed diagram: {exc}") from None


def diagram_to_jsonable(d: Diagram) -> dict:
    order = {v: k for k, v in enumerate(d.node_ids())}
    nodes = []
    for v in d.node_ids():
        nd = d.nodes[v]
        rec: dict = {"id": order[v], "kind": nd.kind}
        if nd.kind == Z:
            rec["phase"] = [nd.phase.real, nd.phase.imag]
        nodes.append(rec)

    def ep_out(ep):
        if ep[0] == "n":
            return ["node", order[ep[1]], ep[2]]
        return [ep[0], ep[1]]

    edges = sorted([sorted((ep_out(a), ep_out(b)))
                    for a, b in d.edges])
    return {"version": FORMAT_VERSION, "inputs": d.n_in, "outputs": d.n_out,
            "loops": d.loops, "nodes": nodes, "edges": edges}


def load_diagram(path: str) -> Diagram:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DiagramFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise DiagramFileError(f"{path}: {exc}") from None
    return diagram_from_jsonable(rec)


def save_diagram(d: Diagram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(diagram_to_jsonable(d), fh, indent=1)
        fh.write("\n")


def dumps_diagram(d: Diagram) -> str:
    return json.dumps(diagram_to_jsonable(d), indent=1)


def export_text(d: Diagram, fmt: str) -> str:
    """A deterministic text description of the diagram graph: Graphviz
    ``"dot"`` or the line-per-item ``"tikz-text"`` listing."""
    order = {v: k for k, v in enumerate(d.node_ids())}

    def label(v):
        nd = d.nodes[v]
        if nd.kind == Z:
            return f"Z({nd.phase.real:g}{nd.phase.imag:+g}i)"
        return {"h": "H", "t": "T", "t_inv": "T-inv"}[nd.kind]

    def ep_name(ep):
        if ep[0] == "n":
            return f"n{order[ep[1]]}"
        return f"{ep[0]}{ep[1]}"

    wires = sorted(d.edges, key=lambda e: (ep_name(e[0]), ep_name(e[1])))
    if fmt == "dot":
        lines = ["graph zx {"]
        for i in range(d.n_in):
            lines.append(f'  in{i} [shape=none, label="in {i}"];')
        for j in range(d.n_out):
            lines.append(f'  out{j} [shape=none, label="out {j}"];')
        for v in d.node_ids():
            lines.append(f'  n{order[v]} [label="{label(v)}"];')
        for a, b in wires:
            lines.append(f"  {ep_name(a)} -- {ep_name(b)};")
        for k in range(d.loops):
            lines.append(f"  // bare loop {k} (scalar 2)")
        lines.append("}")
    elif fmt == "tikz-text":
        lines = [f"% zxel diagram {d.n_in}->{d.n_out}, loops={d.loops}"]
        for v in d.node_ids():
            lines.append(f"node n{order[v]}: {label(v)}")
        for a, b in wires:
            lines.append(f"wire {ep_name(a)} -- {ep_name(b)}")
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return "\n".join(lines)


# -- matrix files ----------------------------------------------------------

_TOKEN = re.compile(r"^[+\-0-9.eEij]+$")


def parse_complex_token(tok: str, where: str = "") -> complex:
    if not _TOKEN.match(tok):
        raise DiagramFileError(f"{where}: bad complex token {tok!r}")
    text = tok.replace("i", "j")
    # a bare j needs a coefficient for Python's parser: 1 at the start or
    # after a sign, but not after an exponent's sign, whose digits are
    # missing (1e+i is no number)
    text = re.sub(r"(^|(?<![eE])[+-])j", r"\g<1>1j", text)
    try:
        value = complex(text)
    except ValueError:
        raise DiagramFileError(f"{where}: bad complex token {tok!r}") from None
    if not cmath.isfinite(value):  # e.g. 1e400, beyond the float range
        raise DiagramFileError(f"{where}: complex token {tok!r} is not finite")
    return value


def load_matrix(path: str) -> np.ndarray:
    """Parse a whitespace-separated matrix of re+imi tokens."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DiagramFileError(f"{path}: {exc}") from None
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = [parse_complex_token(tok, f"{path}:{ln}")
               for tok in line.split()]
        if rows and len(row) != len(rows[0]):
            raise DiagramFileError(f"{path}:{ln}: row has {len(row)} "
                                   f"entries, expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise DiagramFileError(f"{path}: empty matrix")
    return np.array(rows, dtype=complex)


def format_complex(z: complex, precision: int = 6) -> str:
    re_s = f"{z.real:.{precision}g}"
    im = z.imag
    if im == 0:
        return re_s
    sign = "+" if im >= 0 else "-"
    return f"{re_s}{sign}{abs(im):.{precision}g}i"


def format_matrix(mat: np.ndarray, precision: int = 6) -> str:
    lines = []
    for row in np.atleast_2d(mat):
        lines.append("  ".join(format_complex(z, precision) for z in row))
    return "\n".join(lines)
