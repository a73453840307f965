"""Shared test utilities: paper matrices written out independently, and
random diagram generators for the property corpora."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from zxel import diagram as D
from zxel import normalform as NF
from zxel.normalform import nf_from_vector, nf_to_diagram
from zxel.semantics import wire_cap

# the generator matrices, transcribed directly (the tests' ground truth,
# independent of zxel.semantics internals)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex)
T_MAT = np.array([[1, 1], [0, 1]], dtype=complex)
T_INV_MAT = np.array([[1, -1], [0, 1]], dtype=complex)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP_MAT = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                     [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CAP_VEC = np.array([[1], [0], [0], [1]], dtype=complex)
CUP_VEC = np.array([[1, 0, 0, 1]], dtype=complex)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """This interpreter in a fresh process, importing the zxel under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(D.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def z_mat(n: int, m: int, a: complex) -> np.ndarray:
    """|0..0><0..0| + a |1..1><1..1| of shape 2^m x 2^n."""
    out = np.zeros((2 ** m, 2 ** n), dtype=complex)
    out[0, 0] = 1.0
    out[-1, -1] += a
    return out


def parity_mat(n: int, m: int, tau_is_pi: bool) -> np.ndarray:
    """The parity-sum tensor: entry 1 iff output bits + input bits have
    the stated parity."""
    want = 1 if tau_is_pi else 0
    out = np.zeros((2 ** m, 2 ** n), dtype=complex)
    for r in range(2 ** m):
        for c in range(2 ** n):
            if (bin(r).count("1") + bin(c).count("1")) % 2 == want:
                out[r, c] = 1.0
    return out


def row_addition_matrix(m: int, a: complex, subset) -> np.ndarray:
    """The row-addition elementary matrix, straight from its definition."""
    n = 2 ** m
    j = n - 1 - sum(2 ** i for i in subset)
    out = np.eye(n, dtype=complex)
    out[j, n - 1] += a
    return out


def row_multiplication_matrix(m: int, a: complex) -> np.ndarray:
    out = np.eye(2 ** m, dtype=complex)
    out[-1, -1] = a
    return out


def perm_matrix(perm) -> np.ndarray:
    """Matrix of ``permutation(perm)`` by index arithmetic: output slot j
    carries input slot perm[j], and slot s of m weighs 2^(m-1-s)."""
    m = len(perm)
    mat = np.zeros((2 ** m, 2 ** m), dtype=complex)
    for col in range(2 ** m):
        row = sum((col >> (m - 1 - perm[j]) & 1) << (m - 1 - j)
                  for j in range(m))
        mat[row, col] = 1.0
    return mat


def elementary_op_matrix(op: dict) -> np.ndarray:
    """The matrix an ``elementary`` op record names, read from the record
    alone: wires P (``pi``) conjugate the undecorated gadget, whose
    column is 2^m - 1; an addition's row differs from it in the wires S
    (``subset``), and a scaling acts on its column's diagonal entry."""
    n = 2 ** op["m"]
    col = n - 1 - sum(2 ** w for w in op.get("pi", []))
    coeff = complex(*op["coeff"])
    out = np.eye(n, dtype=complex)
    if op["kind"] == "add":
        out[col ^ sum(2 ** w for w in op["subset"]), col] += coeff
    else:
        out[col, col] = coeff
    return out


def random_complex(rng, radius: float = 2.0) -> complex:
    r = radius * np.sqrt(rng.uniform())
    th = rng.uniform(0, 2 * np.pi)
    return complex(r * np.cos(th), r * np.sin(th))


def random_diagram(rng, max_wires: int = 3, max_gens: int = 8) -> D.Diagram:
    """A random small diagram built from at most max_gens generator
    applications on at most max_wires parallel wires."""
    w = int(rng.integers(1, max_wires + 1))
    d = D.identity(w)
    for _ in range(int(rng.integers(1, max_gens + 1))):
        w = d.n_out
        pick = int(rng.integers(0, 10))
        if pick == 0 and w >= 2:
            layer = D.tensor(D.identity(w - 2),
                             D.z_spider(2, 1, random_complex(rng)))
        elif pick == 1 and w < max_wires:
            layer = D.tensor(D.identity(w - 1),
                             D.z_spider(1, 2, random_complex(rng)))
        elif pick == 2 and w >= 2:
            layer = D.tensor(D.identity(w - 2), D.x_spider(2, 1, D.TAU_ZERO))
        elif pick == 3:
            layer = D.tensor(D.identity(w - 1), D.h_box())
        elif pick == 4:
            layer = D.tensor(D.identity(w - 1), D.triangle())
        elif pick == 5:
            layer = D.tensor(D.identity(w - 1), D.triangle_inv())
        elif pick == 6:
            layer = D.tensor(D.identity(w - 1), D.x_spider(1, 1, D.TAU_PI))
        elif pick == 7 and w >= 2:
            layer = D.tensor(D.identity(w - 2), D.swap())
        elif pick == 8 and w >= 2:
            layer = D.tensor(D.identity(w - 2), D.cup())
        else:
            layer = D.tensor(D.identity(w - 1),
                             D.z_spider(1, 1, random_complex(rng)))
        if layer.n_in != d.n_out or layer.n_out == 0:
            continue
        d = D.compose(d, layer)
    return d


def pi_macro_diagram(rng, max_wires: int = 3, layers: int = 12) -> D.Diagram:
    """A random layered diagram rich in pi macros: each layer puts a pi
    macro (half the time), an H box or a Z spider on one wire, or joins,
    splits or swaps two wires, and the last layer may cap each wire with
    a Z state."""
    w = int(rng.integers(1, max_wires + 1))
    d = D.identity(w)
    for _ in range(layers):
        w = d.n_out
        pick = int(rng.integers(0, 8))
        k = int(rng.integers(0, w))  # the wire the layer acts on
        if pick < 4:
            g = D.x_spider(1, 1, D.TAU_PI)
        elif pick == 4:
            g = D.h_box()
        elif pick == 5 and w >= 2 and k < w - 1:
            g = D.z_spider(2, 1, random_complex(rng))
        elif pick == 6 and w < max_wires:
            g = D.z_spider(1, 2, random_complex(rng))
        elif pick == 7 and w >= 2 and k < w - 1:
            g = D.swap()
        else:
            g = D.z_spider(1, 1, random_complex(rng))
        d = D.compose(d, D.tensor_all([D.identity(k), g,
                                       D.identity(w - k - g.n_in)]))
    if rng.uniform() < 0.5:  # end every wire in a Z effect
        d = D.compose(d, D.tensor_all([D.z_spider(1, 0, random_complex(rng))
                                       for _ in range(d.n_out)]))
    return d


def nf_family(top: int = 6) -> list[D.Diagram]:
    """The normal-form diagrams at m = 2..top of random vectors whose
    entries are uniform in [1, 9), drawn for m = 2, 3, ... in turn from
    one rng (seed 1)."""
    rng = np.random.default_rng(1)
    return [nf_to_diagram(nf_from_vector(rng.uniform(1, 9, 2 ** m)))
            for m in range(2, top + 1)]


def golden_corpus():
    """Both sides of one instance of every catalog rule (rng seed 9), then
    the normal-form diagrams of random vectors at m = 0..5 (rng seed 7)."""
    from zxel import rules as R
    rng = np.random.default_rng(9)
    for rule in R.full_catalog():
        params = R._random_params(rule, rng) if rule.arity else []
        yield from R.instantiate(rule, params)
    rng = np.random.default_rng(7)
    for m in range(6):
        v = [random_complex(rng) for _ in range(2 ** m)]
        yield nf_to_diagram(nf_from_vector(v))


def splice_by_union_find(edges) -> tuple[list, int]:
    """Reference for ``diagram._splice`` by a different algorithm: union
    the two ends of every edge, so that each wire is one class of
    endpoints.  A class with free (non-"glue") ends becomes the edge
    between them, placed at the class's lowest edge index, oriented by
    ``_norm_edge``; a class with none is a loop."""
    parent: dict = {}

    def find(ep):
        while parent.setdefault(ep, ep) != ep:
            parent[ep] = parent[parent[ep]]
            ep = parent[ep]
        return ep

    for a, b in edges:
        parent[find(a)] = find(b)
    first: dict = {}
    free: dict = {}
    for i, edge in enumerate(edges):
        for ep in edge:
            root = find(ep)
            first.setdefault(root, i)
            if ep[0] != "glue":
                free.setdefault(root, []).append(ep)
    wires = sorted((i, D._norm_edge(*free[r])) for r, i in first.items()
                   if r in free)
    return [e for _, e in wires], sum(r not in free for r in first)


def _compose_pair(d1: D.Diagram, d2: D.Diagram) -> D.Diagram:
    """Two-piece composition as a fold step: shift d2's ids past d1's,
    glue d1's outputs to d2's inputs, splice by union-find and validate."""
    if d1.n_out != d2.n_in:
        raise D.DiagramError("compose arity mismatch")
    shift = max(d1.nodes, default=-1) + 1
    nodes = dict(d1.nodes)
    nodes.update({v + shift: nd for v, nd in d2.nodes.items()})

    def ren1(ep):
        return ("glue", ep[1]) if ep[0] == "out" else ep

    def ren2(ep):
        if ep[0] == "in":
            return ("glue", ep[1])
        return ("n", ep[1] + shift, ep[2]) if ep[0] == "n" else ep

    edges = [(ren1(a), ren1(b)) for a, b in d1.edges]
    edges += [(ren2(a), ren2(b)) for a, b in d2.edges]
    spliced, new_loops = splice_by_union_find(edges)
    return D.Diagram(nodes, spliced, d1.n_in, d2.n_out,
                     loops=d1.loops + d2.loops + new_loops)


def _tensor_pair(d1: D.Diagram, d2: D.Diagram) -> D.Diagram:
    shift = max(d1.nodes, default=-1) + 1
    nodes = dict(d1.nodes)
    nodes.update({v + shift: nd for v, nd in d2.nodes.items()})

    def ren2(ep):
        if ep[0] == "n":
            return ("n", ep[1] + shift, ep[2])
        return (ep[0], ep[1] + (d1.n_in if ep[0] == "in" else d1.n_out))

    edges = list(d1.edges) + [(ren2(a), ren2(b)) for a, b in d2.edges]
    return D.Diagram(nodes, edges, d1.n_in + d2.n_in, d1.n_out + d2.n_out,
                     loops=d1.loops + d2.loops)


def compose_by_pairs(ds) -> D.Diagram:
    """Reference for ``compose_all``: fold two-piece compositions from the
    left, building and validating every intermediate diagram."""
    out = ds[0]
    for d in ds[1:]:
        out = _compose_pair(out, d)
    return out


def tensor_by_pairs(ds) -> D.Diagram:
    """Reference for ``tensor_all``: fold two-piece tensors from the
    empty diagram."""
    out = D.empty()
    for d in ds:
        out = _tensor_pair(out, d)
    return out


def port_edges_by_scan(d: D.Diagram) -> dict[int, tuple[int, ...]]:
    """Reference for ``Diagram.port_edges``: for each node, scan all edges
    once per port, counting ports up until one has no edge."""
    out = {}
    for v in d.nodes:
        edges = []
        while True:
            port = ("n", v, len(edges))
            hits = [i for i, e in enumerate(d.edges) if port in e]
            if not hits:
                break
            assert len(hits) == 1, f"port {port} on edges {hits}"
            edges.append(hits[0])
        out[v] = tuple(edges)
    return out


def interpret_by_einsum(d: D.Diagram) -> np.ndarray:
    """Reference for ``interpret`` with no walk and no plan: one
    ``np.einsum`` over every node tensor, read off ``d.edges`` alone.
    Edge i is label i; a bare wire's second end gets a label of its own,
    joined to label i by a delta.  The output labels are the edges at out
    slots 0.., then at in slots 0.., so the tensor reshapes to the
    (2^n_out, 2^n_in) matrix; each bare loop scales it by 2."""
    labels: dict = {}  # each edge end -> its label
    operands: list = []
    for i, (a, b) in enumerate(d.edges):
        labels[a] = i
        if b[0] == "n" or a[0] == "n":
            labels[b] = i
        else:
            labels[b] = len(d.edges) + i
            operands += [np.eye(2, dtype=complex), [i, len(d.edges) + i]]
    degree = Counter(ep[1] for ep in labels if ep[0] == "n")
    for v, node in d.nodes.items():
        ports = [labels[("n", v, p)] for p in range(degree[v])]
        if node.kind == D.Z:
            t = np.zeros((2,) * len(ports), dtype=complex)
            t[(0,) * len(ports)] += 1.0
            t[(1,) * len(ports)] += node.phase
        else:  # port 0 is the column (input) side, port 1 the row
            t = {D.H: H_MAT, D.T: T_MAT, D.T_INV: T_INV_MAT}[node.kind].T
        operands += [t, ports]
    out = [labels[("out", j)] for j in range(d.n_out)]
    out += [labels[("in", i)] for i in range(d.n_in)]
    t = np.einsum(*operands, out, optimize=False) if operands else 1.0 + 0j
    return (2.0 ** d.loops * np.asarray(t)).reshape(2 ** d.n_out,
                                                    2 ** d.n_in)


def contraction_order_by_scan(d: D.Diagram) -> list[list[int]]:
    """Reference for ``contraction_order``: grow an accumulator of open
    wire labels and, at every step, rescan all remaining nodes for the
    neighbour with the least |open| + |wires_j| - 2 * shared, ties to
    the smallest id.  A self-loop gives a node no wire."""
    wires = {}
    for v in d.nodes:
        at = [i for i, e in enumerate(d.edges) for ep in e
              if ep[0] == "n" and ep[1] == v]
        wires[v] = {i for i in at if at.count(i) == 1}
    remaining = set(d.nodes)
    order = []
    while remaining:
        v = min(remaining)
        remaining.discard(v)
        component, open_ = [v], set(wires[v])
        while True:
            cands = [u for u in remaining if open_ & wires[u]]
            if not cands:
                break
            u = min(cands, key=lambda u: (
                len(open_) + len(wires[u]) - 2 * len(open_ & wires[u]), u))
            remaining.discard(u)
            component.append(u)
            open_ ^= wires[u]
        order.append(component)
    return order


def walk_along(port_edges, order) -> list:
    """Reference for the bookkeeping of ``contraction_order``: the walk
    along ``order`` (node ids per component), each step recomputed from
    scratch.  A node's open edges are those at one of its ports only; it
    shares with the part those that an earlier node of its component
    has open."""
    def opened(v):
        edges = port_edges[v]
        return tuple(i for i in edges if edges.count(i) == 1)

    walk = []
    for component in order:
        steps = []
        for k, v in enumerate(component):
            earlier = {i for u in component[:k] for i in opened(u)}
            steps.append((v, opened(v),
                          tuple(i for i in opened(v) if i in earlier)))
        walk.append(steps)
    return walk


def check_soundness_by_draw(rule, samples: int, tol: float, rng,
                            corrupt: bool = False):
    """Reference for ``rules.check_soundness``: the same draws, but each
    side of each draw (and each flip) contracted on its own by
    ``interpret``, and the draw checked before the next is built."""
    from zxel import rules as R
    from zxel.semantics import interpret, max_deviation

    report = R.RuleReport(rule.name, 0, 0.0)
    draws = []
    for v in R.FORCED_DRAWS:
        ps = [v] * rule.arity
        if rule.admissible(ps):
            draws.append(ps)
        elif rule.arity:
            report.skipped.append(ps)
    if rule.arity == 0:
        draws = [[]]
    else:
        draws += [R._random_params(rule, rng) for _ in range(samples)]
    for params in draws:
        lhs, rhs = rule.build([complex(p) for p in params])
        if corrupt:
            rhs = D.tensor(rhs, D.scalar_z(-2.0))
        ml, mr = interpret(lhs), interpret(rhs)
        fl, fr = interpret(D.flip(lhs)), interpret(D.flip(rhs))
        dev = max(max_deviation(ml, mr), max_deviation(fl, fr),
                  max_deviation(fl, ml.T))
        report.checked += 1
        report.max_deviation = max(report.max_deviation, dev)
        if not (dev <= tol):
            report.failures.append((list(params), float(dev)))
    return report


def topology(d: D.Diagram) -> tuple:
    """The structural key without phases."""
    nodes, edges, n_in, n_out, loops = d.structural_key()
    return (tuple((k, kind) for k, kind, _ in nodes), edges, n_in, n_out,
            loops)


def normalize_by_absorb(d: D.Diagram, cap: int | None = None) -> NF.NormalForm:
    """Reference for ``normalize``: the same walk and the same wire-cap
    checks, but every step a ``NormalForm`` of its own, absorbed with
    ``np.tensordot`` (a trace by ``nf_self_plug``, components and bare
    caps joined by ``nf_tensor``), and the walk redone on every call."""
    if cap is None:
        cap = wire_cap()
    state = D.bend_to_state(d)
    if state.n_out > cap:
        raise NF.WireCapError(
            f"state has {state.n_out} wires, cap is {cap}")

    acc = NF.NormalForm(0, [2.0 ** state.loops])  # a bare loop is 2
    slots: list[int] = []  # output slot of each acc wire, in order
    for steps in D.contraction_order(state.port_edges):
        part, held = NF.NormalForm(0, [1.0]), []  # held: each wire's edge
        for v, *_ in steps:  # the node ids only: the rest is redone here
            node, edges = state.nodes[v], state.port_edges[v]
            edges = [i for i in edges if edges.count(i) == 1]
            if len(edges) > cap:
                raise NF.WireCapError(
                    f"a node has {len(edges)} open wires, cap is {cap}")
            # a Z spider's self-loop leaves a Z spider of degree d - 2; a
            # 2-port generator (its state has 2 wires) on a loop is a trace
            nf = NF._node_state(node.kind, node.phase, len(edges))
            if nf.m > len(edges):
                nf = NF.nf_self_plug(nf, (0, 1))
            shared = [i for i in edges if i in held]
            width = len(held) + len(edges) - 2 * len(shared)
            if width > cap:
                raise NF.WireCapError(
                    f"normalisation frontier reached {width} wires, "
                    f"cap is {cap}")
            # axis k of a part or node state holds its k-th edge
            part = NF.NormalForm(width, np.tensordot(
                part.vector().reshape((2,) * part.m),
                nf.vector().reshape((2,) * nf.m),
                ([held.index(i) for i in shared],
                 [edges.index(i) for i in shared])))
            held = [i for i in held + edges if i not in shared]
        acc = NF.nf_tensor(acc, part)
        # the far end of a held edge is an output slot
        slots += [state.edges[i][1][1] for i in held]
    # bare wires between two outputs behave like caps
    for a, b in state.edges:
        if a[0] == "out" and b[0] == "out":
            acc = NF.nf_tensor(acc, nf_from_vector(CAP_VEC))
            slots += [a[1], b[1]]

    assert len(slots) == state.n_out
    if not np.all(np.isfinite(acc.vector())):
        raise ArithmeticError("non-finite coefficients in normal form")
    # axis k of the reshaped acc holds output slot slots[k]; slot j goes
    # to axis j, the output order
    return NF.NormalForm(acc.m, np.transpose(
        acc.vector().reshape((2,) * acc.m), np.argsort(slots)))


def simplify_by_scan(d: D.Diagram, budget: int | None = None):
    """Reference for ``rewrite.simplify``: the same working graph and
    appliers, but each step's site found by one ``find_matches`` call per
    pass over the whole graph, in ``_SIMPLIFY_PASSES`` order, taking the
    first site of the first pass that has one."""
    from zxel import rewrite as RW

    if budget is None:
        budget = 10 * len(d.nodes) + 20
    g = RW._Graph(d)

    def first_site():
        for name in RW._SIMPLIFY_PASSES:
            sites = RW.find_matches(g, name)
            if sites:
                return sites[0]
        return None

    log = []
    site = first_site()
    while site is not None and len(log) < budget:
        RW._apply(g, site.rule, site.nodes)
        # new nodes count on from the largest id, reused top ids included
        assert g.next_id == max(g.nodes, default=-1) + 1
        log.append({"rule": site.rule, "nodes": list(site.nodes)})
        site = first_site()
    return RW.SimplifyResult(g.diagram(), len(log), site is not None, log)
