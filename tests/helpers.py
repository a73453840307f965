"""Shared test utilities: paper matrices written out independently, and
random diagram generators for the property corpora."""

from __future__ import annotations

import numpy as np

from zxel import diagram as D

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


def _compose_pair(d1: D.Diagram, d2: D.Diagram) -> D.Diagram:
    """Two-piece composition as a fold step: shift d2's ids past d1's,
    glue d1's outputs to d2's inputs, splice and validate."""
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
    spliced, new_loops = D._splice(edges, lambda ep: ep[0] == "glue")
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
        dev = max_deviation(ml, mr)
        if rule.flipped:
            fl, fr = interpret(D.flip(lhs)), interpret(D.flip(rhs))
            dev = max(dev, max_deviation(fl, fr), max_deviation(fl, ml.T))
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
