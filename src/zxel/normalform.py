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

One spec names every gadget: ``("add", m, S, P)`` is the row addition
on the wire subset S of m wires and ``("mult", m, P)`` the row
multiplication, each between pink pi pairs on the wires P.  ``gadget``
builds a spec with its coefficient, and ``op_record`` writes it as
``zxel elementary`` prints it.  Each gadget is a short chain of stages
(``_stages``).  ``gadget`` chains a spec's stages once, into a template
that the process keeps while it is among the ``_TEMPLATES`` latest
used (``_template``), and places each call's coefficient on it.
``nf_to_diagram`` still composes the base state and every gadget's
stages in one ``compose_all``: composing normal forms from the
templates made ``nf-scale`` slower and larger.

This module never calls the interpreter; the normal-form pipeline is an
independent route that the semantics module cross-checks.  The two routes
share one walk, ``diagram.contraction_order``, and nothing else: the
elimination order with each node's open edges and the edges each step
shares, and no arithmetic; each route keeps its own axis order.
``normalize`` folds generator states along it, so that both routes hold
the same open wires at every step.  A shape's walk is made once for
both routes' next plannings (``diagram._walk``), and no plan keeps it.

The fold is planned once per shape (``Diagram.shape``: all of a diagram
but its Z phases), translating the walk in one pass with every wire-cap
check, and run on raw coefficient arrays: each step tensors a state and
plugs the shared wires in one ``np.dot``, laid out as ``np.tensordot``
lays out its operands, and each component joins by ``nf_tensor``'s
outer product, wrapping one ``NormalForm`` at the end.  A Z spider's
state, a copy tensor, is the same under every axis permutation, so it
is built in its step's 2-D layout, where ``np.tensordot`` would
transpose a copy of it.
``normalize_all`` groups a list by shape, so that diagrams of one shape
share a plan, and folds each group over its phase matrix, a row per
diagram and a column per Z step: the steps before the first column
whose phases differ fold once, and each row folds on from there by its
own ``np.dot`` calls, so that its bytes are those of its own fold; a
group of equal rows folds once.  From its second planning on, a shape
keeps its plan across calls (``diagram._plan_memo``): the normal-form
diagrams of all m-wire states share one shape, so they are planned
twice in all.  A one-row fold never tests its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from types import MappingProxyType
from typing import Sequence

import numpy as np

from . import diagram as dg
from .diagram import (Diagram, compose, compose_all, tensor, tensor_all,
                      _walk, identity, permutation, triangle,
                      triangle_inv, x_spider, z_spider)
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


def _stages(m: int, a: complex, subset) -> list[Diagram]:
    """The stages of the gadget on m wires with coefficient a, in the
    order ``compose_all`` chains them: green dots on every wire feed an
    AND that detects the all-ones input; a row addition's detector then
    carries a flip command weighted by a out to pink dots on the wires of
    its ``subset`` (5 stages), a row multiplication's (``subset`` None)
    is capped off by a 1 -> 0 green dot carrying a (3 stages)."""
    detect = [_copies_then_sides(m), tensor(identity(m), and_tree(m))]
    if subset is None:
        return detect + [tensor(identity(m), z_spider(1, 0, a))]
    return detect + [
        tensor(identity(m), compose(triangle(), z_spider(1, 1, a))),
        tensor(identity(m), z_spider(1, len(subset), 1.0)),
        _apply_flip_layer(m, frozenset(subset)),
    ]


def row_addition_diagram(m: int, a: complex, subset) -> Diagram:
    """Diagram of the row-addition elementary matrix on m wires, with the
    nonempty wire ``subset`` S: its ``_stages`` composed."""
    subset = frozenset(subset)
    if not subset:
        raise ValueError("row addition needs a nonempty wire subset")
    if not all(0 <= i < m for i in subset):
        raise ValueError("row addition subset out of range")
    d = compose_all(_stages(m, a, subset))
    assert d.type == (m, m), (m, subset)
    return d


def row_multiplication_diagram(m: int, a: complex) -> Diagram:
    """Diagram of diag(1, ..., 1, a) on m wires: its ``_stages``
    composed."""
    if m < 1:
        raise ValueError("row multiplication needs at least one wire")
    return compose_all(_stages(m, a, None))


def pi_layer(m: int, wires) -> Diagram:
    """m -> m layer with a pink pi dot on each listed wire."""
    return _pi_layer(m, frozenset(wires))


@cache
def _pi_layer(m: int, wires: frozenset[int]) -> Diagram:
    if not all(0 <= i < m for i in wires):
        raise ValueError(f"pi wires {sorted(wires)} out of range for {m} wires")
    layer = [x_spider(1, 1, dg.TAU_PI) if (m - 1 - slot) in wires
             else identity(1) for slot in range(m)]
    return tensor_all(layer) if m else dg.empty()


def _checked(spec) -> tuple:
    """``(kind, m, *wires)`` of a spec, or ValueError naming it unless it
    is ``("add", m, S, P)`` or ``("mult", m, P)`` with m an int."""
    spec = tuple(spec)
    if not (spec[:1] == ("add",) and len(spec) == 4
            or spec[:1] == ("mult",) and len(spec) == 3) or (
            type(spec[1]) is not int):
        raise ValueError(f"not a gadget spec: {spec!r}")
    return spec


# the most gadget templates kept: every spec at m <= 4 (256 of them), and
# five times the 51 specs that a rules-sweep pass asks for.  A template
# keeps its shape alive, and with it any plan or walk kept for it, so an
# unbounded cache grew by up to 4^m templates per m that
# decompose_elementary reached
_TEMPLATES = 256


@lru_cache(maxsize=_TEMPLATES)
def _template(kind: str, m: int, *wires: frozenset) -> tuple:
    """The gadget of a spec built once, its coefficient the traced slot
    ``_Traced(None, 0)``: ``(shape, nodes, v)``, its node values by id
    and the id v of the one node that holds the slot.  Only the
    ``_TEMPLATES`` latest used are kept."""
    slot = dg._Traced(None, 0)
    if kind == "add":
        core = row_addition_diagram(m, slot, wires[0])
    elif m:
        core = row_multiplication_diagram(m, slot)
    else:
        core = scalar_nf_diagram(slot)
    layer = pi_layer(m, wires[-1])
    d = compose_all([layer, core, layer]) if layer.nodes else core
    held = [v for v, nd in d.nodes.items() if nd.phase is slot]
    assert len(held) == 1, (kind, m, wires)
    return d.shape, dict(d.nodes), held[0]


def gadget(spec, a: complex) -> Diagram:
    """The gadget of a spec with coefficient a: ``("add", m, S, P)`` is
    ``row_addition_diagram`` on the wire subset S, ``("mult", m, P)``
    ``row_multiplication_diagram``, or ``scalar_nf_diagram`` at m = 0,
    each between pink pi pairs on the wires P, or bare if P is empty.
    Each spec is built once (``_template``) and kept while it is among
    the ``_TEMPLATES`` latest used, and so are its shape and any plan or
    walk kept for that shape; a call copies the template's nodes and
    puts a Z node of phase a, or the traced phase a itself, on the
    coefficient's node.
    Raises ValueError for any other spec."""
    kind, m, *wires = _checked(spec)
    shape, nodes, v = _template(kind, m, *map(frozenset, wires))
    nodes = dict(nodes)
    nodes[v] = dg.Node(dg.Z, a if type(a) is dg._Traced else complex(a))
    return Diagram._of(shape, MappingProxyType(nodes))


def op_record(spec, a: complex) -> dict:
    """A spec with coefficient a as ``zxel elementary`` writes it:
    ``{"kind", "m", "coeff": [re, im], "subset", "pi"}``, the wire lists
    sorted and left out when empty.  Raises ValueError for a malformed
    spec, as ``gadget`` does."""
    kind, m, *wires = _checked(spec)
    a = complex(a)
    rec = {"kind": kind, "m": m, "coeff": [a.real, a.imag]}
    names = ("subset", "pi") if kind == "add" else ("pi",)
    rec.update((key, sorted(w)) for key, w in zip(names, wires) if w)
    return rec


# -- normal forms ---------------------------------------------------------

def nf_from_vector(v) -> NormalForm:
    """Wrap a coefficient vector of power-of-two length."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    m = int(v.size).bit_length() - 1
    if 2 ** m != v.size:
        raise ValueError(f"vector length {v.size} is not a power of two")
    return NormalForm(m, v)


def elementary_specs(nf: NormalForm) -> list[tuple]:
    """The gadgets realising the coefficient vector, as ``(spec, coeff)``
    pairs: the 2^m - 1 row additions, ordered by increasing target row,
    then the row multiplication."""
    m, last = nf.m, 2 ** nf.m - 1
    if m == 0:
        return []
    return [(("add", m, [i for i in range(m) if not j >> i & 1], []),
             nf.coeffs[j]) for j in range(last)] + [
        (("mult", m, []), nf.coeffs[last])]


@cache
def base_state(m: int) -> Diagram:
    """The all-ones base state e_{2^m-1}: a pink pi state on every wire."""
    return tensor_all([x_spider(0, 1, dg.TAU_PI)] * m)


def nf_to_diagram(nf: NormalForm) -> Diagram:
    """Emit the normal-form diagram: base state, then each elementary
    transformation in the canonical order.  One ``compose_all`` chains
    the base state and every gadget's ``_stages``, which gives the node
    ids, edges and loops of composing gadget by gadget; the memo entry
    of the result then holds only stage shapes, which the gadgets
    share, and no shape of a whole gadget."""
    if nf.m == 0:
        return scalar_nf_diagram(nf.coeffs[0])
    return compose_all([base_state(nf.m)] + [
        stage for (kind, m, *wires), a in elementary_specs(nf)
        for stage in _stages(m, a, wires[0] if kind == "add" else None)])


def scalar_nf_diagram(a: complex) -> Diagram:
    """0 -> 0 scalar normal form: a green a-state plugged into a pink pi
    costate; interprets to exactly a."""
    return compose(z_spider(0, 1, a), x_spider(1, 0, dg.TAU_PI))


def nf_equal(nf1: NormalForm, nf2: NormalForm,
             tol: float = DEFAULT_TOL) -> bool:
    return matrices_equal(nf1.vector(), nf2.vector(), tol)


def nf_tensor(nf_a: NormalForm, nf_b: NormalForm) -> NormalForm:
    """Tensor of normal forms: products a_i b_j, a-side on the
    more-significant wires."""
    return NormalForm(nf_a.m + nf_b.m, np.kron(nf_a.vector(), nf_b.vector()))


def nf_self_plug(nf: NormalForm, wire_pair) -> NormalForm:
    """Plug two output wires with a cup.

    Moves the pair to the right-most two wires, the others keeping their
    order, then applies b_k = a_{4k} + a_{4k+3}.
    """
    p, q = wire_pair
    if nf.m < 2:
        raise ValueError("self-plugging needs at least two wires")
    if p == q:
        raise ValueError("cannot plug a wire into itself")
    p, q = min(p, q), max(p, q)
    if not 0 <= p < q < nf.m:
        raise ValueError(f"wire pair {wire_pair} out of range")
    # axis a holds wire m - 1 - a; wire p goes to the last axis
    c = np.moveaxis(nf.vector().reshape((2,) * nf.m),
                    [nf.m - 1 - q, nf.m - 1 - p], [-2, -1]).reshape(-1)
    return NormalForm(nf.m - 2, c[0::4] + c[3::4])


def _layout(part: list, edges: Sequence[int], shared: Sequence[int]) -> tuple:
    """How ``np.tensordot`` lays out a part, whose axes hold the edges
    ``part``, and a node state, whose axes hold ``edges``, to contract
    the ``shared`` edges: ``(perm_a, shape_a, perm_b, shape_b, joined)``.
    An operand goes to ``np.dot`` transposed by its permutation (None if
    that is the identity) and reshaped to its 2-D shape: the part's kept
    axes then its shared ones, the node's shared axes then its kept ones.
    ``joined`` holds the edges at the result's axes, the part's kept ones
    then the node's."""
    kept, new = list(part), list(edges)
    for i in shared:
        kept.remove(i)
        new.remove(i)
    s, shared = len(shared), [*shared]  # a list never equals a tuple
    perm_a = (None if part[len(kept):] == shared else
              tuple(map(part.index, kept + shared)))
    perm_b = (None if [*edges[:s]] == shared else
              tuple(map(edges.index, shared + new)))
    return (perm_a, (1 << len(kept), 1 << s), perm_b,
            (1 << s, 1 << len(new)), kept + new)


def _operand(v: np.ndarray, n: int, perm, shape) -> np.ndarray:
    """The coefficients ``v`` of ``n`` wires as one ``np.dot`` operand of
    a ``_layout``, bitwise what ``np.tensordot`` passes."""
    if perm is None:
        return v.reshape(shape)
    return v.reshape((2,) * n).transpose(perm).reshape(shape)


# node state tables, written from the generator definitions (independent
# of the contraction engine); port 0 is the most significant wire
_FIXED_STATES = {dg.H: (1, 1, 1, -1), dg.T: (1, 0, 1, 1),
                 dg.T_INV: (1, 0, -1, 1)}


def _z_state(phase: complex, degree: int) -> np.ndarray:
    """Coefficients of a Z spider of ``degree`` ports bent into a state:
    1 on the all-zero entry and the phase on the all-one one, or the
    scalar 1 + phase at degree 0."""
    if degree == 0:
        return np.array([1.0 + phase], dtype=complex)
    v = np.zeros(2 ** degree, dtype=complex)
    v[0] = 1.0
    v[-1] = phase
    return v


def _node_state(kind: str, phase: complex, degree: int) -> NormalForm:
    if kind != dg.Z:
        return NormalForm(2, _FIXED_STATES[kind])
    return NormalForm(degree, _z_state(phase, degree))


# -- normalisation of arbitrary diagrams ----------------------------------

class WireCapError(RuntimeError):
    """Normalisation would exceed the configured open-wire cap."""


@cache
def _fixed_operand(kind: str, looped: bool, perm, shape) -> np.ndarray:
    """The read-only ``np.dot`` operand of a generator other than Z, laid
    out by ``perm`` and ``shape``: one array shared by every plan step
    that lays it out alike, so that kept plans stay small."""
    nf = _node_state(kind, 1.0, 2)
    if looped:  # a 2-port generator on a loop is a trace
        nf = nf_self_plug(nf, (0, 1))
    return _operand(nf.vector(), nf.m, perm, shape)


@dg._plan_memo
def _plan(d: Diagram, cap: int) -> tuple:
    """How to normalise every diagram of ``d``'s shape, as
    ``(components, caps, perm, zids, loops)``.

    The fold translates the walk of ``d``'s shape (``diagram._walk``)
    in one pass: bending ``d`` into a state only renumbers its boundary,
    input i to output slot n - 1 - i and output j to slot n + j.
    ``components`` holds one list of steps per connected component, each
    step ``(j, b, na, perm_a, shape_a)`` absorbing one node into the
    component's part of ``na`` wires, laid out for ``np.dot`` as
    ``_layout`` says; the part's axis order is this route's own, its
    edges but the shared ones, then the rest of the node's.  ``b`` is the
    node's operand: for a Z spider, whose state a run builds from the
    phase in column ``j`` of its phase matrix, its 2-D shape (1 x 1 at
    degree 0), since a copy tensor is the same under every axis
    permutation and so needs none; for any other generator (``j``
    None), its laid-out state itself, plugged if it sits on a loop.
    ``caps`` counts the bare wires, which bend into caps, and ``perm``
    takes the folded wires to the output order.  ``zids`` holds the node
    id of each Z step in plan order, the columns of a phase matrix, and
    ``loops`` the shape's bare loops.
    Every wire-cap check happens here, before anything is allocated: the
    state's wires, then each node's open wires, then the part's wires
    after each step."""
    n, at = d.n_in, dg._slot_ends(d.shape)
    if n + d.n_out > cap:
        raise WireCapError(f"state has {n + d.n_out} wires, cap is {cap}")

    def slot(k):  # the output slot of boundary slot k, once bent
        return n - 1 - k if k < n else k

    components, zids = [], []
    slots: list[int] = []  # output slot of each folded wire, in order
    for component in _walk(d):
        steps, part = [], []  # part: the edge at each of the part's axes
        for v, edges, shared in component:
            if len(edges) > cap:
                raise WireCapError(
                    f"a node has {len(edges)} open wires, cap is {cap}")
            # axis k of a part or node state holds its k-th edge
            perm_a, shape_a, perm_b, shape_b, joined = _layout(
                part, edges, shared)
            if len(joined) > cap:
                raise WireCapError(
                    f"normalisation frontier reached {len(joined)} wires, "
                    f"cap is {cap}")
            kind = d.nodes[v].kind
            if kind == dg.Z:  # a self-loop leaves a Z of degree d - 2
                steps.append((len(zids), shape_b, len(part), perm_a,
                              shape_a))
                zids.append(v)
            else:
                steps.append((None, _fixed_operand(kind, not edges, perm_b,
                                                   shape_b),
                              len(part), perm_a, shape_a))
            part = joined
        components.append(steps)
        # an end edge has one end on the boundary
        slots += [slot(at[i][0]) for i in part]
    # each bare wire, in edge order, bends into a cap between two slots
    caps = [sorted(map(slot, at[i]))
            for i in sorted(i for i, ks in at.items() if len(ks) == 2)]
    slots += [s for pair in caps for s in pair]
    # axis k of the folded state holds output slot slots[k]; slot j goes
    # to axis j, the output order
    return components, len(caps), np.argsort(slots), tuple(zids), d.loops


_ONE = np.ones(1, dtype=complex)
_CAP = _z_state(1.0, 2)  # a cap bent into a state


def _fold(plan: tuple, row: Sequence, state: tuple,
          stop: int | None = None) -> tuple:
    """Fold from ``state`` on, each Z step's phase read from ``row`` by
    its column, up to the Z step of column ``stop`` (not run) or to the
    end: each step is one ``np.dot``, bitwise ``np.tensordot``'s (a Z
    state is built in its 2-D layout, holding the values
    ``np.tensordot`` would transpose it into), and each component joins
    the result by one outer product, bitwise ``nf_tensor``'s.  A state
    is ``(acc, part, c, s)``: the coefficients joined from components
    0..c-1, the part folded of component c and the index s of its next
    step; the fold gives the state where it stops, ``c`` past the last
    component at the end.  No step changes an array it is given, so a
    state serves every row that shares its phases."""
    components = plan[0]
    acc, part, c, s = state
    outer = np.multiply.outer  # np.kron of two vectors, without its checks
    for c in range(c, len(components)):
        for s, (j, b, na, perm_a, shape_a) in enumerate(components[c][s:],
                                                        s):
            if j is not None:
                if j == stop:
                    return acc, part, c, s
                if b == (1, 1):  # a degree-0 Z: 1 + phase
                    b = np.array([[1.0 + row[j]]], dtype=complex)
                else:  # a copy tensor needs no transpose
                    b = np.zeros(b, dtype=complex)
                    b[0, 0], b[-1, -1] = 1.0, row[j]
            if perm_a is not None:
                part = part.reshape((2,) * na).transpose(perm_a)
            part = np.dot(part.reshape(shape_a), b)
        acc = outer(acc, part).reshape(-1)
        part, s = _ONE, 0
    return acc, part, len(components), 0


def _finish(plan: tuple, acc: np.ndarray) -> NormalForm:
    """The normal form of the folded coefficients ``acc``: each bare cap
    joins them by one outer product, bitwise ``nf_tensor``'s, and the
    wires go to the output order."""
    caps, perm = plan[1:3]
    for _ in range(caps):
        acc = np.multiply.outer(acc, _CAP).reshape(-1)
    if not np.all(np.isfinite(acc)):
        raise ArithmeticError("non-finite coefficients in normal form")
    return NormalForm(len(perm),
                      np.transpose(acc.reshape((2,) * len(perm)), perm))


def _first_varying(phases: Sequence[Sequence]) -> int | None:
    """The first column of a phase matrix of two or more rows whose
    phases are not all equal to the bit (0.0 and -0.0 differ), or None
    if every column is constant."""
    bits = np.array(phases, dtype=complex).view(np.int64)
    varying = (bits != bits[0]).any(axis=0)
    return int(varying.argmax()) >> 1 if varying.any() else None


def _run(plan: tuple, phases: Sequence[Sequence]) -> list[NormalForm]:
    """The normal forms of a phase matrix: one row per diagram of the
    plan's shape, one phase per Z step of the plan, in plan order
    (``zids``).  The steps before the first varying column fold once
    (``_fold``), with the first row's phases, and each row folds on from
    there by its own ``np.dot`` calls, so every row's bytes are those of
    its own fold.  A single row, whose columns are not tested, or rows
    of one value in every column fold once to the end, and each row
    gets its own ``NormalForm`` of those coefficients."""
    start = (np.array([2.0 ** plan[4]], dtype=complex),  # a bare loop is 2
             _ONE, 0, 0)
    first = _first_varying(phases) if len(phases) > 1 else None
    shared = _fold(plan, phases[0], start, first)
    return [_finish(plan, _fold(plan, row, shared)[0]) for row in phases]


def normalize_all(ds: Sequence[Diagram],
                  cap: int | None = None) -> list[NormalForm]:
    """Rewrite each diagram into its normal form, in input order.

    Diagrams of one shape share one plan (``_plan``), built once from the
    first of them, and fold together over their phase matrix (``_run``):
    a row per diagram, the steps before their phases first differ run
    once.  Every result has the bytes of the diagram's own ``normalize``.
    Raises what ``normalize`` raises for the first failing diagram of
    the first failing group, groups taken in order of their first
    diagram."""
    if cap is None:
        cap = wire_cap()
    groups: dict = {}
    for k, d in enumerate(ds):
        groups.setdefault(d.shape, []).append(k)
    out: list = [None] * len(ds)
    for members in groups.values():
        plan = _plan(ds[members[0]], cap)
        rows = [[ds[k].nodes[v].phase for v in plan[3]] for k in members]
        for k, nf in zip(members, _run(plan, rows)):
            out[k] = nf
    return out


def normalize(d: Diagram, cap: int | None = None) -> NormalForm:
    """Rewrite any diagram into its normal form.

    Bends the diagram into a state by map-state duality, then folds each
    connected component along ``contraction_order``: every generator's
    state, its own self-loops plugged (a Z spider's in closed form,
    before its state is allocated), is absorbed into the component's
    part by one contraction, plugging the wires the two share as it
    tensors them.  The component results are tensored together, as
    ``interpret`` outer-products its components.  Raises WireCapError if
    a node or a part would exceed ``cap`` open wires, and ArithmeticError
    if a coefficient is not finite.  This is ``normalize_all`` of one
    diagram.
    """
    return normalize_all([d], cap)[0]


# -- elementary decomposition of matrices ---------------------------------

# a pivot column must hold this share of the largest entry left: the float
# interpretation's rounding grows with the square of a smaller pivot's ratios
_PIVOT_RATIO = 1e-3


def _bits(x: int, m: int) -> list[int]:
    return [w for w in range(m) if x >> w & 1]


def decompose_elementary(mat: np.ndarray):
    """Factor a 2^m x 2^m matrix into the paper's elementary gadgets.

    I + c E_ij is the ``gadget`` ``("add", m, S, P)`` with S the bits of
    i ^ j and P those of j ^ (2^m - 1); scaling row i by c is
    ``("mult", m, P)`` with P the bits of i ^ (2^m - 1).  Gauss-Jordan
    elimination takes as many pivots as ``np.linalg.matrix_rank`` counts,
    so that no elimination residue becomes one.  A pivot is the largest
    entry of its column, brought up by a row switch (three additions and
    a scaling by -1); a column below ``_PIVOT_RATIO`` of the largest
    entry left first gets that entry's column added, the same gadget on
    the right.  The pivot rows are scaled last, by the pivots themselves.
    So M = L^-1 D R^-1, with L and R the row and column operations and D
    the zero-scalings of the rows past the rank.

    Returns (operations, diagram), the operations in the order the diagram
    applies them, each its ``op_record``.  Raises ValueError unless the
    matrix is square with 2^m rows, and ArithmeticError when an entry's
    magnitude or a coefficient is not finite.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0] if a.ndim == 2 else 0
    if a.shape != (n, n) or n & (n - 1) or n == 0:
        raise ValueError("matrix must be square with 2^m rows")
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
        c, pi = complex(c), _bits(j ^ (n - 1), m)
        if not np.isfinite(c):
            raise ArithmeticError(
                "non-finite coefficient in elementary decomposition")
        spec = ((kind, m, _bits(i ^ j, m), pi) if kind == "add"
                else (kind, m, pi))
        ops.append(op_record(spec, c))
        pieces.append(gadget(spec, c))
    return ops, compose_all(pieces)


# -- serialization --------------------------------------------------------

def nf_to_jsonable(nf: NormalForm) -> dict:
    return {"m": nf.m, "coeffs": [[c.real, c.imag] for c in nf.coeffs]}
