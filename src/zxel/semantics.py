"""The standard interpretation: diagrams to dense complex matrices.

A diagram of type n -> m evaluates to a 2^m x 2^n complex matrix by
contracting the generator tensors along the wiring.  Index convention:
wire 0 is the right-most wire of a boundary, and a bit on wire i weighs
2^i, so boundary slot j of an m-wire boundary carries bit weight
2^(m-1-j).

This module is the ground-truth oracle for everything else.  It has its
own contraction engine and never goes through the normal-form pipeline;
it shares only the elimination order, ``diagram.contraction_order``.
"""

from __future__ import annotations

import os

import numpy as np

from .diagram import Diagram, H, T, T_INV, Z, contraction_order

# the one default tolerance of every equality check in zxel
DEFAULT_TOL = 1e-9
_DEFAULT_WIRE_CAP = 14


class ResourceError(RuntimeError):
    """Contraction would exceed the configured open-wire cap."""


def wire_cap() -> int:
    """Open-wire cap for a single contraction (env ZXEL_WIRE_CAP); raises
    ValueError unless the variable is unset or a positive integer."""
    raw = os.environ.get("ZXEL_WIRE_CAP")
    if raw is None:
        return _DEFAULT_WIRE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"ZXEL_WIRE_CAP must be a positive integer, got {raw!r}")
    return cap


_H_TENSOR = np.array([[1, 1], [1, -1]], dtype=complex)
# arr[p0, p1] = <p1| M |p0> for the 1->1 matrix M of the generator
_T_TENSOR = np.array([[1, 0], [1, 1]], dtype=complex)       # M = [[1,1],[0,1]]
_T_INV_TENSOR = np.array([[1, 0], [-1, 1]], dtype=complex)  # M = [[1,-1],[0,1]]


def node_tensor(kind: str, phase: complex, degree: int) -> np.ndarray:
    """Tensor of one generator node, one axis of dimension 2 per port."""
    if kind == Z:
        if degree == 0:
            return np.array(1.0 + phase, dtype=complex)
        t = np.zeros((2,) * degree, dtype=complex)
        t[(0,) * degree] = 1.0
        t[(1,) * degree] = phase
        return t
    if kind == H:
        return _H_TENSOR
    if kind == T:
        return _T_TENSOR
    if kind == T_INV:
        return _T_INV_TENSOR
    raise ValueError(f"unknown node kind {kind!r}")


def _node_pair(node, edges: tuple[int, ...], cap: int):
    """A node's (tensor, labels) with its self-loops plugged: in closed
    form for a Z spider (each loop leaves degree d - 2, same phase), by a
    trace for a 2-port generator; the degree left is checked against the
    cap before the 2^degree tensor is allocated."""
    labels = [i for i in edges if edges.count(i) == 1]
    if len(labels) > cap:
        raise ResourceError(
            f"a node has {len(labels)} open wires, cap is {cap}")
    t = node_tensor(node.kind, node.phase, len(labels))
    return (np.trace(t) if t.ndim > len(labels) else t), labels


def _prepare(d: Diagram, cap: int):
    """The (tensor, labels) pairs to contract, one list per connected
    component in ``contraction_order``, with each bare boundary wire as a
    component of its own at the end; and the label of each boundary
    slot.  Labels are integer wire ids: a node's labels are the edges at
    its ports, in port order."""
    components = [[_node_pair(d.nodes[v], d.port_edges[v], cap)
                   for v in component]
                  for component in contraction_order(d.port_edges)]
    next_label = len(d.edges)
    boundary_label: dict[tuple, int] = {}
    for i, (a, b) in enumerate(d.edges):
        if a[0] != "n" and b[0] != "n":
            # bare wire between two boundary slots: explicit identity with
            # one label per end
            boundary_label[a] = i
            boundary_label[b] = next_label
            components.append([(np.eye(2, dtype=complex), [i, next_label])])
            next_label += 1
        elif a[0] != "n":
            boundary_label[a] = i
        elif b[0] != "n":
            boundary_label[b] = i
    return components, boundary_label


def _pair_contract(ti, li, tj, lj, cap):
    shared = set(li) & set(lj)
    out_labels = [l for l in li if l not in shared] + \
                 [l for l in lj if l not in shared]
    if len(out_labels) > cap:
        raise ResourceError(
            f"contraction needs {len(out_labels)} open wires, cap is {cap}")
    local: dict[int, int] = {}

    def loc(labels):
        return [local.setdefault(l, len(local)) for l in labels]

    t = np.einsum(ti, loc(li), tj, loc(lj), loc(out_labels))
    return t, out_labels


def _fold(pairs, cap: int):
    """Contract (tensor, labels) pairs into an accumulator, in order."""
    t, labels = pairs[0]
    for t2, l2 in pairs[1:]:
        t, labels = _pair_contract(t, labels, t2, l2, cap)
    return t, labels


def interpret(d: Diagram, cap: int | None = None) -> np.ndarray:
    """Evaluate a diagram of type n -> m to its 2^m x 2^n matrix."""
    if cap is None:
        cap = wire_cap()
    if d.n_in + d.n_out > cap:
        raise ResourceError(
            f"diagram has {d.n_in + d.n_out} boundary wires, cap is {cap}")
    components, boundary_label = _prepare(d, cap)
    if not components:
        t = np.array(1.0, dtype=complex)
        labels: list[int] = []
    else:
        # fold each component in its order, then outer-product them
        t, labels = _fold([_fold(pairs, cap) for pairs in components], cap)
    # order axes as out slot 0..m-1 then in slot 0..n-1 (most significant
    # bit first within each boundary, matching |a_{m-1}...a_0>)
    wanted = [boundary_label[("out", j)] for j in range(d.n_out)] + \
             [boundary_label[("in", i)] for i in range(d.n_in)]
    perm = [labels.index(l) for l in wanted]
    t = np.transpose(t, perm) if perm else t
    mat = np.asarray(t, dtype=complex).reshape(2 ** d.n_out, 2 ** d.n_in)
    mat = mat * (2.0 ** d.loops)
    if not np.all(np.isfinite(mat)):
        raise ArithmeticError("non-finite entries in interpretation")
    return mat


def contract_state(d: Diagram, cap: int | None = None) -> np.ndarray:
    """Coefficient vector of a state diagram (no inputs): entry k is the
    amplitude of e_k under the |a_{m-1}...a_0> indexing."""
    if d.n_in != 0:
        raise ValueError(f"contract_state needs a state, got {d.n_in} inputs")
    return interpret(d, cap=cap).reshape(-1)


def matrices_equal(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Same shape and max-abs entrywise difference at most tol."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b), initial=0.0) <= tol)


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b), initial=0.0))
