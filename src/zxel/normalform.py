"""Elementary-transformation diagrams and the normal form of states.

A state on m wires is canonically represented by its coefficient vector
(length 2^m, indexed so that wire i weighs 2^i with wire 0 right-most).
The associated diagram applies 2^m - 1 row additions and one row
multiplication to the base state e_{2^m-1}:

  * a row addition with coefficient a and wire subset S interprets to the
    identity matrix plus a at (row j, column 2^m - 1), j = 2^m - 1 -
    sum_{i in S} 2^i;
  * a row multiplication with coefficient a interprets to
    diag(1, ..., 1, a).

This module never calls the interpreter; the normal-form pipeline is an
independent route that the semantics module cross-checks.  The two routes
share one elimination order, ``diagram.contraction_order``, and nothing
else: ``normalize`` absorbs generator normal forms (``nf_absorb``: tensor,
then plug the shared wires) along the order in which ``interpret``
contracts tensors, so both hold the same open wires at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import diagram as dg
from .diagram import (Diagram, compose, compose_all, tensor, tensor_all,
                      bend_to_state, contraction_order, identity,
                      permutation, triangle, triangle_inv, x_spider,
                      z_spider)
from .semantics import DEFAULT_TOL, matrices_equal, wire_cap


@dataclass(frozen=True, eq=False)
class NormalForm:
    """Canonical representative of an m-wire state: its 2^m coefficients
    as one read-only complex vector, copied once when built.  Equality is
    exact, entry by entry; a normal form is not hashable."""

    m: int
    coeffs: np.ndarray

    def __post_init__(self):
        v = np.array(self.coeffs, dtype=complex, order="C").reshape(-1)
        if self.m < 0 or v.size != 2 ** self.m:
            raise ValueError(
                f"normal form needs 2^{self.m} coefficients, got {v.size}")
        v.flags.writeable = False
        object.__setattr__(self, "coeffs", v)

    def __eq__(self, other):
        return (isinstance(other, NormalForm) and self.m == other.m
                and np.array_equal(self.coeffs, other.coeffs))

    def vector(self) -> np.ndarray:
        return self.coeffs


@dataclass(frozen=True)
class ElementarySpec:
    """One elementary transformation: kind "add" (coefficient + nonempty
    wire subset) or "mult" (coefficient only)."""

    kind: str
    m: int
    coeff: complex
    subset: frozenset[int] | None = None

    def __post_init__(self):
        if self.kind not in ("add", "mult"):
            raise ValueError(f"bad elementary kind {self.kind!r}")
        if self.kind == "add":
            if not self.subset:
                raise ValueError("row addition needs a nonempty wire subset")
            if not all(0 <= i < self.m for i in self.subset):
                raise ValueError("row addition subset out of range")
        elif self.subset is not None:
            raise ValueError("row multiplication takes no subset")

    @property
    def target_row(self) -> int:
        if self.kind == "mult":
            return 2 ** self.m - 1
        return 2 ** self.m - 1 - sum(2 ** i for i in self.subset)

    def matrix(self) -> np.ndarray:
        """The elementary matrix itself (the A_j / M formulas)."""
        n = 2 ** self.m
        mat = np.eye(n, dtype=complex)
        if self.kind == "add":
            mat[self.target_row, n - 1] = self.coeff
        else:
            mat[n - 1, n - 1] = self.coeff
        return mat


# -- diagrammatic gadgets -------------------------------------------------

@cache
def and_gate() -> Diagram:
    """2 -> 1 logical AND on the computational basis,
    built as triangle-inverse after a green merge of two triangles."""
    return compose_all([
        tensor(triangle(), triangle()),
        z_spider(2, 1, 1.0),
        triangle_inv(),
    ])


@cache
def and_tree(k: int) -> Diagram:
    """k -> 1 AND of k bits (k >= 1), a right-leaning cascade."""
    if k < 1:
        raise ValueError("and_tree needs at least one wire")
    out = identity(1)
    for _ in range(k - 1):
        out = compose(tensor(out, identity(1)), and_gate())
    return out


@cache
def _copies_then_sides(m: int) -> Diagram:
    """m -> 2m: a degree-3 green dot on each wire; outputs ordered as the
    m through-wires followed by the m side branches."""
    copies = tensor_all([z_spider(1, 2, 1.0)] * m)
    perm = [2 * i for i in range(m)] + [2 * i + 1 for i in range(m)]
    return compose(copies, permutation(perm))


@cache
def _apply_flip_layer(m: int, subset: frozenset[int]) -> Diagram:
    """(m + s) -> m: XOR the s control branches into the wires of the
    subset via pink dots; controls arrive ordered by decreasing wire."""
    wires_desc = sorted(subset, reverse=True)
    # route each control next to its wire: slot of wire i is m-1-i
    n = m + len(wires_desc)
    src: list[int] = []
    layer: list[Diagram] = []
    taken = 0
    for slot in range(m):
        wire = m - 1 - slot
        src.append(slot)
        if wire in subset:
            src.append(m + taken)
            taken += 1
            layer.append(x_spider(2, 1, dg.TAU_ZERO))
        else:
            layer.append(identity(1))
    return compose(permutation(src), tensor_all(layer))


def row_addition_diagram(m: int, a: complex, subset) -> Diagram:
    """Diagram of the row-addition elementary matrix on m wires.

    Green dots on every wire feed an AND that detects the all-ones input;
    on detection a flip command weighted by the coefficient fans out to
    pink dots on the wires of the subset.
    """
    subset = frozenset(subset)
    spec = ElementarySpec("add", m, complex(a), subset)  # validates args
    s = len(subset)
    stages = [
        _copies_then_sides(m),
        tensor(identity(m), and_tree(m)),
        tensor(identity(m), compose(triangle(), z_spider(1, 1, complex(a)))),
        tensor(identity(m), z_spider(1, s, 1.0)),
        _apply_flip_layer(m, subset),
    ]
    d = compose_all(stages)
    assert d.type == (m, m), spec
    return d


def row_multiplication_diagram(m: int, a: complex) -> Diagram:
    """Diagram of diag(1, ..., 1, a) on m wires: green dots on every wire
    into an AND, capped off by a 1 -> 0 green dot carrying a."""
    if m < 1:
        raise ValueError("row multiplication needs at least one wire")
    return compose_all([
        _copies_then_sides(m),
        tensor(identity(m), and_tree(m)),
        tensor(identity(m), z_spider(1, 0, complex(a))),
    ])


def pi_layer(m: int, wires) -> Diagram:
    """m -> m layer with a pink pi dot on each listed wire."""
    return _pi_layer(m, frozenset(wires))


@cache
def _pi_layer(m: int, wires: frozenset[int]) -> Diagram:
    layer = [x_spider(1, 1, dg.TAU_PI) if (m - 1 - slot) in wires
             else identity(1) for slot in range(m)]
    return tensor_all(layer) if m else dg.empty()


def decorated_row_addition(m: int, a: complex, subset, pi_wires) -> Diagram:
    """Row addition whose detector reads flipped bits on ``pi_wires``:
    pairs of pink pi nodes around the gadget on those wires."""
    core = row_addition_diagram(m, a, subset)
    layer = pi_layer(m, pi_wires)
    return compose_all([layer, core, layer])


def decorated_row_multiplication(m: int, a: complex, pi_wires) -> Diagram:
    """Row multiplication conjugated by pink pi pairs on ``pi_wires``."""
    core = row_multiplication_diagram(m, a)
    layer = pi_layer(m, pi_wires)
    return compose_all([layer, core, layer])


def elementary_diagram(spec: ElementarySpec) -> Diagram:
    if spec.kind == "add":
        return row_addition_diagram(spec.m, spec.coeff, spec.subset)
    return row_multiplication_diagram(spec.m, spec.coeff)


# -- normal forms ---------------------------------------------------------

def nf_from_vector(v) -> NormalForm:
    """Wrap a coefficient vector of power-of-two length."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    m = int(v.size).bit_length() - 1
    if 2 ** m != v.size:
        raise ValueError(f"vector length {v.size} is not a power of two")
    return NormalForm(m, v)


def elementary_specs(nf: NormalForm) -> list[ElementarySpec]:
    """The 2^m - 1 row additions (ordered by increasing target row) and
    the final row multiplication realising the coefficient vector."""
    if nf.m == 0:
        return []
    last = 2 ** nf.m - 1
    specs = []
    for j in range(last):
        zero_bits = frozenset(i for i in range(nf.m) if not j >> i & 1)
        specs.append(ElementarySpec("add", nf.m, nf.coeffs[j], zero_bits))
    specs.append(ElementarySpec("mult", nf.m, nf.coeffs[last]))
    return specs


@cache
def base_state(m: int) -> Diagram:
    """The all-ones base state e_{2^m-1}: a pink pi state on every wire."""
    return tensor_all([x_spider(0, 1, dg.TAU_PI)] * m)


def nf_to_diagram(nf: NormalForm) -> Diagram:
    """Emit the normal-form diagram: base state, then each elementary
    transformation in the canonical order."""
    if nf.m == 0:
        return scalar_nf_diagram(nf.coeffs[0])
    return compose_all([base_state(nf.m)]
                       + [elementary_diagram(s) for s in elementary_specs(nf)])


def scalar_nf(a: complex) -> NormalForm:
    return NormalForm(0, [a])


def scalar_nf_diagram(a: complex) -> Diagram:
    """0 -> 0 scalar normal form: a green a-state plugged into a pink pi
    costate; interprets to exactly a."""
    return compose(z_spider(0, 1, complex(a)), x_spider(1, 0, dg.TAU_PI))


def nf_equal(nf1: NormalForm, nf2: NormalForm,
             tol: float = DEFAULT_TOL) -> bool:
    return matrices_equal(nf1.vector(), nf2.vector(), tol)


def nf_tensor(nf_a: NormalForm, nf_b: NormalForm) -> NormalForm:
    """Tensor of normal forms: products a_i b_j, a-side on the
    more-significant wires."""
    return NormalForm(nf_a.m + nf_b.m, np.kron(nf_a.vector(), nf_b.vector()))


def nf_permute(nf: NormalForm, perm) -> NormalForm:
    """Reorder wires: new wire i is old wire perm[i] (significance
    indexing, wire 0 right-most)."""
    m = nf.m
    if sorted(perm) != list(range(m)):
        raise ValueError(f"bad wire permutation {perm}")
    # axis a holds wire m-1-a; new axis a' must hold old wire perm[m-1-a']
    axes = [m - 1 - perm[m - 1 - a] for a in range(m)]
    return NormalForm(m, np.transpose(nf.vector().reshape((2,) * m), axes))


def nf_self_plug(nf: NormalForm, wire_pair) -> NormalForm:
    """Plug two output wires with a cup.

    Reduces to the right-most pair by a wire permutation, then applies
    b_k = a_{4k} + a_{4k+3}.
    """
    p, q = wire_pair
    if nf.m < 2:
        raise ValueError("self-plugging needs at least two wires")
    if p == q:
        raise ValueError("cannot plug a wire into itself")
    p, q = min(p, q), max(p, q)
    if not 0 <= p < q < nf.m:
        raise ValueError(f"wire pair {wire_pair} out of range")
    rest = [w for w in range(nf.m) if w not in (p, q)]
    moved = nf_permute(nf, [p, q] + rest)
    c = moved.vector()
    return NormalForm(nf.m - 2, c[0::4] + c[3::4])


def nf_absorb(acc: NormalForm, nf: NormalForm, pairs=()) -> NormalForm:
    """``nf_tensor(acc, nf)`` followed by ``nf_self_plug`` of each
    (acc wire, nf wire) pair, computed as one contraction over the paired
    wires without forming the tensor.  The unpaired wires keep their
    order, acc's on the more significant side."""
    if not all(0 <= p < acc.m and 0 <= q < nf.m for p, q in pairs):
        raise ValueError(f"wire pairs {pairs} out of range")
    # axis a of a reshaped vector holds wire m-1-a
    t = np.tensordot(acc.vector().reshape((2,) * acc.m),
                     nf.vector().reshape((2,) * nf.m),
                     axes=([acc.m - 1 - p for p, _ in pairs],
                           [nf.m - 1 - q for _, q in pairs]))
    return NormalForm(acc.m + nf.m - 2 * len(pairs), t)


# node state tables, written from the generator definitions (independent
# of the contraction engine); port 0 is the most significant wire
_FIXED_STATES = {dg.H: (1, 1, 1, -1), dg.T: (1, 0, 1, 1),
                 dg.T_INV: (1, 0, -1, 1)}


def _node_state(kind: str, phase: complex, degree: int) -> NormalForm:
    if kind != dg.Z:
        return NormalForm(2, _FIXED_STATES[kind])
    if degree == 0:
        return scalar_nf(1.0 + phase)
    v = np.zeros(2 ** degree, dtype=complex)
    v[0] = 1.0
    v[-1] = phase
    return NormalForm(degree, v)


# every generator but the swap, bent into a state, is one node's state:
# identity, cap and cup are Z of degree 2, copy and codot Z of degree 3
_GENERATOR_TABLE = {
    "copy": lambda a: _node_state(dg.Z, 1.0, 3),
    "codot": lambda a: _node_state(dg.Z, 1.0, 3),
    "z_state": lambda a: _node_state(dg.Z, a, 1),
    "identity": lambda a: _node_state(dg.Z, 1.0, 2),
    "cap": lambda a: _node_state(dg.Z, 1.0, 2),
    "cup": lambda a: _node_state(dg.Z, 1.0, 2),
    "h": lambda a: _node_state(dg.H, a, 2),
    "triangle": lambda a: _node_state(dg.T, a, 2),
    "triangle_inv": lambda a: _node_state(dg.T_INV, a, 2),
    "swap": lambda a: NormalForm(4, [
        1.0 if (k >> 3 & 1) == (k >> 1 & 1) and (k >> 2 & 1) == (k & 1)
        else 0.0 for k in range(16)]),
}


def generator_nf(kind: str, phase: complex = 1.0) -> NormalForm:
    """Normal form of a generator bent into a state (wire order follows
    the recorded bending convention)."""
    try:
        build = _GENERATOR_TABLE[kind]
    except KeyError:
        raise ValueError(f"unknown generator kind {kind!r}") from None
    return build(phase)


# -- normalisation of arbitrary diagrams ----------------------------------

class WireCapError(RuntimeError):
    """Normalisation would exceed the configured open-wire cap."""


def normalize(d: Diagram, cap: int | None = None) -> NormalForm:
    """Rewrite any diagram into its normal form.

    Bends the diagram into a state by map-state duality, then folds each
    connected component along ``contraction_order``: every generator's
    normal form, its own self-loops plugged (a Z spider's in closed form,
    before its state is allocated), is absorbed into the component's
    accumulator with ``nf_absorb``, which plugs the wires the two share
    as it tensors them.  The component results are tensored
    together, as ``interpret`` outer-products its components.  Raises
    WireCapError if a node or an accumulator would exceed ``cap`` open
    wires, and ArithmeticError if a coefficient is not finite.
    """
    if cap is None:
        cap = wire_cap()
    state = bend_to_state(d)
    if state.n_out > cap:
        raise WireCapError(
            f"state has {state.n_out} wires, cap is {cap}")

    acc = scalar_nf(2.0 ** state.loops)  # each bare loop is a scalar 2
    slots: list[int] = []  # output slot of each acc wire, in order
    for component in contraction_order(state.port_edges):
        part, held = scalar_nf(1.0), []  # held: the edge at each wire of part
        for v in component:
            node, edges = state.nodes[v], state.port_edges[v]
            edges = [i for i in edges if edges.count(i) == 1]
            if len(edges) > cap:
                raise WireCapError(
                    f"a node has {len(edges)} open wires, cap is {cap}")
            # a Z spider's self-loop leaves a Z spider of degree d - 2; a
            # 2-port generator (its state has 2 wires) on a loop is a trace
            nf = _node_state(node.kind, node.phase, len(edges))
            if nf.m > len(edges):
                nf = nf_self_plug(nf, (0, 1))
            shared = [i for i in edges if i in held]
            width = len(held) + len(edges) - 2 * len(shared)
            if width > cap:
                raise WireCapError(
                    f"normalisation frontier reached {width} wires, "
                    f"cap is {cap}")
            part = nf_absorb(part, nf, [(len(held) - 1 - held.index(i),
                                         len(edges) - 1 - edges.index(i))
                                        for i in shared])
            held = [i for i in held + edges if i not in shared]
        acc = nf_tensor(acc, part)
        # the far end of a held edge is an output slot
        slots += [state.edges[i][1][1] for i in held]
    # bare wires between two outputs behave like caps
    for a, b in state.edges:
        if a[0] == "out" and b[0] == "out":
            acc = nf_tensor(acc, generator_nf("cap"))
            slots += [a[1], b[1]]

    assert len(slots) == state.n_out
    if not np.all(np.isfinite(acc.vector())):
        raise ArithmeticError("non-finite coefficients in normal form")
    # axis k of the reshaped acc holds output slot slots[k]; slot j goes
    # to axis j, the output order
    return NormalForm(acc.m, np.transpose(acc.vector().reshape((2,) * acc.m),
                                          np.argsort(slots)))


# -- elementary decomposition of matrices ---------------------------------

# a pivot column must hold this share of the largest entry left: the float
# interpretation's rounding grows with the square of a smaller pivot's ratios
_PIVOT_RATIO = 1e-3


def _bits(x: int, m: int) -> list[int]:
    return [w for w in range(m) if x >> w & 1]


def decompose_elementary(mat: np.ndarray):
    """Factor a 2^m x 2^m matrix into the paper's elementary gadgets.

    I + c E_ij is ``decorated_row_addition`` with S the bits of i ^ j and
    P those of j ^ (2^m - 1); scaling row i by c is
    ``decorated_row_multiplication`` with P the bits of i ^ (2^m - 1), or
    ``scalar_nf_diagram`` at m = 0.  Gauss-Jordan elimination takes as many
    pivots as ``np.linalg.matrix_rank`` counts, so that no elimination
    residue becomes one.  A pivot is the largest entry of its column,
    brought up by a row switch (three additions and a scaling by -1); a
    column below ``_PIVOT_RATIO`` of the largest entry left first gets
    that entry's column added, the same gadget on the right.  The pivot
    rows are scaled last, by the pivots themselves.  So M = L^-1 D R^-1,
    with L and R the row and column operations and D the zero-scalings of
    the rows past the rank.

    Returns (operations, diagram), the operations in the order the diagram
    applies them: ``{"kind": "add" | "mult", "m", "coeff", "subset", "pi"}``
    without an empty subset or pi.  Raises ValueError unless the matrix is
    square with 2^m rows, and ArithmeticError when an entry's magnitude or
    a coefficient is not finite.
    """
    n = mat.shape[0]
    if mat.shape != (n, n) or n & (n - 1) or n == 0:
        raise ValueError("matrix must be square with 2^m rows")
    a = np.array(mat, dtype=complex)
    top = np.abs(a).max()
    if not np.isfinite(top):
        raise ArithmeticError("matrix entries beyond the float range")
    left, right = [], []  # inverses of the row and column operations
    # scaled, so that the singular values stay within the float range
    rank = int(np.linalg.matrix_rank(a / top)) if top else 0
    for r in range(rank):
        block = np.abs(a[r:, r:])
        if block[:, 0].max() >= _PIVOT_RATIO * block.max():
            block = block[:, :1]
        p, q = (r + k for k in divmod(int(block.argmax()), block.shape[1]))
        if q != r:  # signed, so that the two columns do not cancel
            c = 1.0 if (a[p, r].conjugate() * a[p, q]).real >= 0 else -1.0
            a[:, r] += c * a[:, q]
            right.append(("add", -c, q, r))
            p = r + int(np.abs(a[r:, r]).argmax())
        if p != r:  # swapped in a exactly, not by the additions
            left += [("add", -1.0, r, p), ("add", 1.0, p, r),
                     ("add", -1.0, r, p), ("mult", -1.0, p, p)]
            a[[r, p]] = a[[p, r]]
        for i in range(n):
            if i != r and a[i, r] != 0:
                ratio = a[i, r] / a[r, r]
                a[i] -= ratio * a[r]
                a[i, r] = 0
                left.append(("add", ratio, i, r))
    # a = [[P, X], [0, ~0]] = diag(P, 1) D (I + P^-1 X), P the pivots
    steps = (right + [("add", a[i, k] / a[i, i], i, k) for i in range(rank)
                      for k in range(rank, n) if a[i, k] != 0]
             + [("mult", 0, i, i) for i in range(rank, n)]
             + [("mult", a[i, i], i, i) for i in range(rank) if a[i, i] != 1]
             + left[::-1])
    m = n.bit_length() - 1
    ops, pieces = [], [identity(m)]
    for kind, c, i, j in steps:
        c, subset, pi = complex(c), _bits(i ^ j, m), _bits(j ^ (n - 1), m)
        if not np.isfinite(c):
            raise ArithmeticError(
                "non-finite coefficient in elementary decomposition")
        rec = {"kind": kind, "m": m, "coeff": [c.real, c.imag],
               "subset": subset, "pi": pi}
        ops.append({key: v for key, v in rec.items() if v != []})
        pieces.append(decorated_row_addition(m, c, subset, pi) if subset
                      else decorated_row_multiplication(m, c, pi) if m
                      else scalar_nf_diagram(c))
    return ops, compose_all(pieces)


# -- serialization --------------------------------------------------------

def nf_to_jsonable(nf: NormalForm) -> dict:
    return {"m": nf.m, "coeffs": [[c.real, c.imag] for c in nf.coeffs]}
