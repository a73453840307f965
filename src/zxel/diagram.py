"""Open port-graph diagrams and their categorical combinators.

A diagram is an immutable multigraph of generator nodes (Z spiders, H
boxes, triangles) whose free edge-ends are attached to ordered input and
output boundaries.  Identity wires, swaps, caps and cups are pure wiring:
they are edges between boundary slots, never nodes.  Closed loops with no
nodes on them cannot be represented as edges, so the diagram carries a
loop counter (each bare loop contributes a scalar factor 2 under the
standard interpretation).

Endpoints of an edge are tuples:

    ("in", i)        input boundary slot i
    ("out", j)       output boundary slot j
    ("n", v, p)      port p of node v

Ports of Z spiders and H boxes are interchangeable; ports of triangles
are not (port 0 is the input side, port 1 the tip), which is how flipped
triangles are expressed by wiring alone.

A ``Diagram`` is its ``nodes`` and a read-only ``shape``, all the rest:
node ids and kinds, edges, boundary sizes, loops and the incidence index
``port_edges`` (per node, the indices into ``edges`` of the edges at its
ports, in port order).  ``Diagram(...)``, the trust boundary of the file
loader, the generator builders and the rewriter's result, validates its
shape and builds ``port_edges`` in one pass.  ``compose_all`` and
``tensor_all`` are functions of their valid pieces' shapes, and the
result's shape is not validated.  ``_memoised`` looks it up by those
shapes in ``_SHAPES``, a ``weakref.WeakValueDictionary`` whose keys hold
the pieces' shapes strongly, so diagrams that differ only in Z phases
share a shape; on a hit and a miss alike it then places the pieces'
nodes on the shape, the one place a combinator's nodes are placed.
``flip`` and ``bend_to_state`` rename boundary ends and nothing else
(``_renamed``): a result keeps every node id and edge index, so it
shares its piece's nodes mapping and ``port_edges``, and is valid
because its piece is.  Both routes plan per shape, and ``_plan_memo``
keeps a plan, weakly keyed by the shape, from its second planning on.
Both routes plan from one walk of the shape (``_walk``), which
``_WALKS``, weakly keyed by the shape, holds from the planning that
walked it to the next planning.

Composition is one splice: ``_splice`` joins edges at junctions given
as a pairing of edge ends, end 2i + s being side s of edge i, and
``compose_all`` pairs the end at output slot j of each piece with the
end at input slot j of the next.
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
import weakref
from dataclasses import dataclass
from functools import cache, wraps
from itertools import chain
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

Z = "z"
H = "h"
T = "t"
T_INV = "t_inv"

_KINDS = (Z, H, T, T_INV)

Endpoint = tuple
Edge = tuple


class DiagramError(ValueError):
    """Raised for ill-formed diagrams or ill-typed combinator calls."""


@dataclass(frozen=True)
class Node:
    """A generator node: kind plus the complex parameter of a Z spider.

    The ``phase`` field is the complex number carried by a Z spider (the
    spider interprets to |0..0><0..0| + phase |1..1><1..1|); it must be
    finite, unless it is a ``_Traced`` phase.  It is ignored for the
    other kinds, which carry no parameter.
    """

    kind: str
    phase: complex = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DiagramError(f"unknown node kind {self.kind!r}")
        if type(self.phase) is not _Traced and not cmath.isfinite(self.phase):
            raise DiagramError(f"phase {self.phase} is not finite")


class _Traced:
    """A Z phase over parameter slots, recorded while ``rules`` builds a
    rule once for all its draws: ``_Traced(None, k)`` is slot k, and +,
    -, * and / of traced phases and numbers record the operation, which
    ``value`` replays on one draw's parameters.  Any other use raises: a
    comparison, truth value, hash, ``abs``, ``complex()`` or ``.real``."""

    __slots__ = ("op", "args")

    def __init__(self, op, *args):
        self.op, self.args = op, args

    def value(self, params: Sequence[complex]):
        if self.op is None:
            return params[self.args[0]]
        return self.op(*[a.value(params) if type(a) is _Traced else a
                         for a in self.args])

    def _refuse(self, *_):
        raise TypeError("a traced phase has no value")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = _refuse
    __hash__ = None
    __add__ = lambda x, y: _Traced(operator.add, x, y)
    __radd__ = lambda x, y: _Traced(operator.add, y, x)
    __sub__ = lambda x, y: _Traced(operator.sub, x, y)
    __rsub__ = lambda x, y: _Traced(operator.sub, y, x)
    __mul__ = lambda x, y: _Traced(operator.mul, x, y)
    __rmul__ = lambda x, y: _Traced(operator.mul, y, x)
    __truediv__ = lambda x, y: _Traced(operator.truediv, x, y)
    __rtruediv__ = lambda x, y: _Traced(operator.truediv, y, x)
    __neg__ = lambda x: _Traced(operator.neg, x)


_TAG_ORDER = {"n": 0, "in": 1, "out": 2}


def _norm_edge(a: Endpoint, b: Endpoint) -> Edge:
    """Orient an edge: endpoints by tag rank, then by the rest of the
    tuple; unknown tags rank last, so that check_validity reports them."""
    ra = _TAG_ORDER.get(a[0], 3)
    rb = _TAG_ORDER.get(b[0], 3)
    return (a, b) if ra < rb or (ra == rb and a[1:] <= b[1:]) else (b, a)


class _Shape:
    """The phase-free part of a diagram: node kinds, edges, boundary
    sizes, loops and the incidence index ``port_edges``, whose keys are
    the node ids in node order.  Shapes are equal by value, and the hash
    is computed once.  ``Diagram.__init__`` validates each shape it makes
    before any diagram holds it; the combinators make theirs from valid
    pieces' shapes."""

    __slots__ = ("kinds", "edges", "n_in", "n_out", "loops", "port_edges",
                 "_hash", "__weakref__")

    def __init__(self, kinds: tuple[str, ...], edges: tuple[Edge, ...],
                 n_in: int, n_out: int, loops: int,
                 port_edges: Mapping[int, tuple[int, ...]] | None = None):
        values = (kinds, edges, n_in, n_out, loops, port_edges, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a shape is read-only; cannot set {name}")

    def _fields(self) -> tuple:
        return (tuple(self.port_edges), self.kinds, self.edges, self.n_in,
                self.n_out, self.loops)

    def __eq__(self, other):
        return self is other or (isinstance(other, _Shape)
                                 and self._fields() == other._fields())

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._fields()))
        return self._hash


class Diagram:
    """An immutable open diagram of type n_in -> n_out: its ``nodes`` and
    its ``shape``.  ``flip`` of a diagram shares its ``nodes`` mapping
    and ``port_edges``, so the two differ only in which boundary ends
    are inputs."""

    __slots__ = ("nodes", "shape")

    edges, n_in, n_out, loops, port_edges = (
        property(attrgetter(f"shape.{name}"))
        for name in ("edges", "n_in", "n_out", "loops", "port_edges"))

    def __init__(self, nodes: dict[int, Node], edges: Iterable[Edge],
                 n_in: int, n_out: int, loops: int = 0):
        object.__setattr__(self, "nodes", MappingProxyType(dict(nodes)))
        object.__setattr__(self, "shape", _Shape(
            tuple(map(attrgetter("kind"), self.nodes.values())),
            tuple(_norm_edge(a, b) for a, b in edges), n_in, n_out, loops))
        object.__setattr__(self.shape, "port_edges", self.check_validity())

    @classmethod
    def _of(cls, shape: _Shape, nodes: Mapping[int, Node]) -> Diagram:
        """The diagram of a shape that ``__init__`` has validated, its
        nodes a read-only mapping keyed by the shape's node ids in
        order."""
        d = object.__new__(cls)
        object.__setattr__(d, "nodes", nodes)
        object.__setattr__(d, "shape", shape)
        return d

    def __setattr__(self, name, value):
        raise AttributeError(f"a Diagram is read-only; cannot set {name}")

    # -- well-formedness ------------------------------------------------

    def check_validity(self) -> Mapping[int, tuple[int, ...]]:
        """Raise DiagramError unless every port and boundary slot is used
        exactly once and degree constraints hold.

        The same pass over the edges places each edge index at its port,
        and the result is the incidence index that ``__init__`` stores as
        ``port_edges``: for each node, the index into ``edges`` of the
        edge at each of its ports, in port order; a self-loop appears at
        both of its ports."""
        if self.n_in < 0 or self.n_out < 0 or self.loops < 0:
            raise DiagramError("negative boundary or loop count")
        at: dict[int, dict[int, int]] = {v: {} for v in self.nodes}
        size = {"in": self.n_in, "out": self.n_out}
        boundary: set[Endpoint] = set()
        for i, edge in enumerate(self.edges):
            for ep in edge:
                tag = ep[0]
                if tag == "n":
                    ports = at.get(ep[1])
                    if ports is None:
                        raise DiagramError(
                            f"edge references missing node {ep[1]}")
                    if ep[2] in ports:
                        raise DiagramError(f"endpoint {ep} used 2 times")
                    ports[ep[2]] = i
                elif tag in size:
                    if not 0 <= ep[1] < size[tag]:
                        side = "input" if tag == "in" else "output"
                        raise DiagramError(f"{side} slot {ep[1]} out of range")
                    if ep in boundary:
                        raise DiagramError(f"endpoint {ep} used 2 times")
                    boundary.add(ep)
                else:
                    raise DiagramError(f"bad endpoint tag {tag!r}")
        # the placed slots are in range and distinct, so one is missing iff
        # there are fewer of them than slots; the scan stops at the first
        if len(boundary) < self.n_in + self.n_out:
            for tag, side in (("in", "input"), ("out", "output")):
                for k in range(size[tag]):
                    if (tag, k) not in boundary:
                        raise DiagramError(f"dangling {side} slot {k}")
        index = {}
        for v, ports in at.items():
            try:
                index[v] = tuple([ports[p] for p in range(len(ports))])
            except KeyError:
                raise DiagramError(
                    f"node {v} ports {sorted(ports)} not contiguous") from None
            kind = self.nodes[v].kind
            if kind in (H, T, T_INV) and len(ports) != 2:
                raise DiagramError(
                    f"node {v} of kind {kind} must have degree 2, "
                    f"got {len(ports)}")
        return MappingProxyType(index)

    # -- basic queries ---------------------------------------------------

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    @property
    def type(self) -> tuple[int, int]:
        return (self.n_in, self.n_out)

    def structural_key(self):
        """Canonical id-normalised form; equal keys mean identical diagrams
        up to node renumbering in sorted-id order."""
        order = {v: k for k, v in enumerate(self.node_ids())}

        def ren(ep):
            return ("n", order[ep[1]], ep[2]) if ep[0] == "n" else ep

        nodes = tuple((order[v], self.nodes[v].kind, complex(self.nodes[v].phase))
                      for v in self.node_ids())
        edges = tuple(sorted(_norm_edge(ren(a), ren(b)) for a, b in self.edges))
        return (nodes, edges, self.n_in, self.n_out, self.loops)

    def __repr__(self):
        return (f"Diagram({self.n_in}->{self.n_out}, {len(self.nodes)} nodes, "
                f"{len(self.edges)} edges, loops={self.loops})")


def contraction_order(
        port_edges: Mapping[int, Sequence[int]]) -> Iterator[list]:
    """The elimination order both evaluation routes walk, from the graph
    alone (``port_edges`` as stored on a ``Diagram``); it evaluates
    nothing, checks no cap and keeps no axis order.

    Yields one list of steps per connected component, components ordered
    by their smallest id.  Step ``(v, open_, shared)`` absorbs node ``v``
    into the component's part: ``open_`` is the node's edges in port
    order, a self-loop's two left out, and ``shared`` those of them the
    part holds, in ``open_``'s order; the first step shares none.  The
    part then holds its edges but ``shared``, and the rest of ``open_``;
    at the end, the component's boundary edges.  Each component starts
    at its smallest id; each step absorbs the neighbour that leaves the
    fewest open wires, |open| + |wires_j| - 2 * shared_j, ties to the
    smallest id.
    """
    nbrs: dict[int, list[int]] = {v: [] for v in port_edges}
    opened = dict(port_edges)
    first: dict[int, int] = {}  # edge index -> the node seen at one end
    for v, edges in port_edges.items():
        for i in edges:
            u = first.pop(i, None)
            if u is None:
                first[i] = v
            elif u == v:
                opened[v] = tuple(j for j in opened[v] if j != i)
            else:
                nbrs[u].append(v)
                nbrs[v].append(u)

    # |open| is the same for every candidate, so a candidate's rank is
    # wires_j - 2 * shared_j; it only falls as shared_j grows, so the
    # first heap entry popped for a node is its current one
    done: set[int] = set()
    for root in sorted(port_edges):
        if root in done:
            continue
        steps = []
        held: set[int] = set()  # the part's edges
        links: dict[int, int] = {}  # a candidate's edges into the part
        heap = [(len(opened[root]), root)]
        while heap:
            _, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            edges, shared = opened[v], []
            for i in edges:
                if i in held:
                    shared.append(i)
                    held.remove(i)
                else:
                    held.add(i)
            steps.append((v, edges, shared))
            for u in nbrs[v]:
                if u not in done:
                    links[u] = links.get(u, 0) + 1
                    heapq.heappush(heap, (len(opened[u]) - 2 * links[u], u))
        yield steps


# each shape's walk, from the planning that walked it until the next
# planning of that shape, by either route, takes it
_WALKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _walk(d: Diagram) -> list[list]:
    """``contraction_order`` of ``d``'s shape, as a list of components.
    A walk reads ``port_edges`` alone, so it serves every planning of the
    shape, by either route: a planning takes the walk ``_WALKS`` holds,
    or walks and leaves its walk there for the next one.  A planner reads
    the walk and keeps nothing of it in its plan."""
    walk = _WALKS.pop(d.shape, None)
    if walk is None:
        walk = _WALKS[d.shape] = list(contraction_order(d.port_edges))
    return walk


# -- wire splicing -------------------------------------------------------

def _splice(edges: Sequence[Edge],
            mate: Mapping[int, int]) -> tuple[list[Edge], int, list[int]]:
    """Join the edges at the junctions ``mate`` names.  End 2i + s is side
    s of ``edges[i]``, and ``mate`` maps each junction end to the end it
    is joined to, both ways round; a junction end's own endpoint is never
    read.  Returns (edges, loops, where): each wire becomes one edge
    between its two free ends, placed where its first edge was and
    oriented by ``_norm_edge`` if it joins edges, and each wire with no
    free end counts as a loop; ``where[i]`` is the index of the edge that
    edge i became (-1 on a loop)."""
    where: list = [None] * len(edges)
    out: list[Edge] = []
    loops = 0
    for start, edge in enumerate(edges):
        if where[start] is not None:
            continue
        end = 2 * start
        back, on = mate.get(end), mate.get(end + 1)
        if back is None and on is None:
            where[start] = len(out)
            out.append(edge)
            continue
        # walk back from side 0 to a free end, then on from side 1 to the
        # other; arriving back at side 1 of start means a closed loop
        path = [start]
        while back is not None and back != 2 * start + 1:
            path.append(back >> 1)
            end = back ^ 1
            back = mate.get(end)
        if back is None:
            free = edges[end >> 1][end & 1]
            end = 2 * start + 1
            while on is not None:
                path.append(on >> 1)
                end = on ^ 1
                on = mate.get(end)
            out.append(_norm_edge(free, edges[end >> 1][end & 1]))
            at = len(out) - 1
        else:
            loops += 1
            at = -1
        for i in path:
            where[i] = at
    return out, loops, where


# -- combinators --------------------------------------------------------

def _placed(shapes: Sequence[_Shape], slide: bool) -> tuple:
    """The pieces' shapes side by side: their edges, and each shape with
    the shift of its node ids and the index of its first edge.  Piece
    k's node ids, the keys of its ``port_edges``, shift so that its
    smallest, or 0 if that is larger, lands past the largest id placed
    before it (the ids of a pairwise fold from the left), its edges'
    node ends with them; if ``slide``, a boundary end (tag, j) moves
    past the slots of that tag placed before it."""
    edges: list[Edge] = []
    places = []
    top = None
    slots = {"in": 0, "out": 0}
    for s in shapes:
        ids = s.port_edges
        shift = 0 if top is None else top + 1 - min(0, min(ids, default=0))
        places.append((s, shift, len(edges)))
        if ids:
            last = max(ids) + shift
            top = last if top is None else max(top, last)
        edges += [(("n", a[1] + shift, a[2]) if a[0] == "n"
                   else (a[0], a[1] + slots[a[0]]),
                   ("n", b[1] + shift, b[2]) if b[0] == "n"
                   else (b[0], b[1] + slots[b[0]]))
                  for a, b in s.edges]
        if slide:
            slots["in"] += s.n_in
            slots["out"] += s.n_out
    return edges, places


def _assembled(shapes: Sequence[_Shape], edges, n_in: int, n_out: int,
               loops: int, port_edges) -> _Shape:
    """The shape the pieces' ``shapes`` were placed into: valid pieces
    make it valid, its edges oriented, so nothing is checked again."""
    kinds = tuple(chain.from_iterable(s.kinds for s in shapes))
    return _Shape(kinds, tuple(edges), n_in, n_out, loops,
                  MappingProxyType(port_edges))


# each combinator result's shape by the combinator and its pieces' shapes:
# the result's shape is held weakly, so an entry dies with the last
# diagram of that shape, and until then its key holds the pieces' shapes
# strongly (weak keys cost rules-sweep ten times the misses)
_SHAPES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _memoised(combinator):
    """``combinator`` of a list of pieces, a function of their shapes
    alone, through ``_SHAPES``: a miss stores the shape it builds of the
    pieces' shapes under the combinator and those shapes.  A hit and a
    miss alike give the shape the pieces' nodes, in the order whose ids
    ``_placed`` shifts: one list of the pieces' node values, zipped with
    the shape's node ids, on the shape by ``Diagram._of``.  A list of one
    piece gives that piece."""

    @wraps(combinator)
    def memoised(ds):
        if len(ds) == 1:
            return ds[0]
        key = (combinator, *[d.shape for d in ds])
        shape = _SHAPES.get(key)
        if shape is None:
            shape = _SHAPES[key] = combinator(key[1:])
        values = []
        for d in ds:
            values += d.nodes.values()
        return Diagram._of(
            shape, MappingProxyType(dict(zip(shape.port_edges, values))))
    return memoised


def _plan_memo(planner):
    """``planner(d, cap)`` through a memo keyed weakly by ``d.shape``: a
    shape's first planning records only the shape, its second keeps
    ``(cap, plan)``, and later calls at that cap reuse the plan.  Another
    cap plans again, so every cap error is raised as a cold call raises
    it.  Most shapes are planned once (one-off rule sides), so they keep
    no plan.  An entry dies with its shape, so a plan must hold neither
    its diagram nor its shape, and a run must not change it.
    ``cache_clear()`` empties the memo."""
    plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @wraps(planner)
    def planned(d, cap):
        shape = d.shape
        kept = plans.get(shape)
        if kept and kept[0] == cap:
            return kept[1]
        plan = planner(d, cap)
        plans[shape] = () if kept is None else (cap, plan)
        return plan
    planned.cache_clear = plans.clear
    return planned


@_memoised
def compose_all(shapes: Sequence[_Shape]) -> _Shape:
    """Sequential composition of a chain, piece k's outputs glued to piece
    k+1's inputs positionally.  One splice for the whole chain gives the
    node ids, edge order and loops of folding ``compose`` from the left:
    the end at output slot j of piece k is joined to the end at input
    slot j of piece k + 1, found by slot in each piece's own edges."""
    if not shapes:
        raise DiagramError("compose_all of nothing")
    for s1, s2 in zip(shapes, shapes[1:]):
        if s1.n_out != s2.n_in:
            raise DiagramError(f"compose arity mismatch: {s1.n_out} outputs "
                               f"vs {s2.n_in} inputs")
    edges, places = _placed(shapes, False)
    mate: dict[int, int] = {}
    outs: list[int] = []  # the end at each output slot of the piece before
    for s, _, base in places:
        # the end at each boundary slot: input j at j, output j at n + j
        n = s.n_in
        slots = [0] * (n + s.n_out)
        for e, (a, b) in enumerate(s.edges, base):
            if b[0] != "n":  # a node end comes first in an oriented edge
                slots[b[1] if b[0] == "in" else n + b[1]] = 2 * e + 1
                if a[0] != "n":
                    slots[a[1] if a[0] == "in" else n + a[1]] = 2 * e
        for out, end in zip(outs, slots):
            mate[out], mate[end] = end, out
        outs = slots[n:]
    spliced, new_loops, where = _splice(edges, mate)
    port_edges = {v + shift: tuple([where[base + i] for i in pe])
                  for s, shift, base in places
                  for v, pe in s.port_edges.items()}
    return _assembled(shapes, spliced, shapes[0].n_in, shapes[-1].n_out,
                      sum(s.loops for s in shapes) + new_loops, port_edges)


@_memoised
def tensor_all(shapes: Sequence[_Shape]) -> _Shape:
    """Parallel composition, boundaries left to right in piece order."""
    edges, places = _placed(shapes, True)
    port_edges = {v + shift: tuple([i + base for i in pe])
                  for s, shift, base in places
                  for v, pe in s.port_edges.items()}
    return _assembled(shapes, edges, sum(s.n_in for s in shapes),
                      sum(s.n_out for s in shapes),
                      sum(s.loops for s in shapes), port_edges)


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """d2 after d1: the two-piece case of ``compose_all``."""
    return compose_all([d1, d2])


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """d1 beside d2: the two-piece case of ``tensor_all``."""
    return tensor_all([d1, d2])


def _renamed(d: Diagram, n_in: int, n_out: int, ren) -> Diagram:
    """``d`` as a diagram of type n_in -> n_out, each boundary end (tag,
    j) of its edges renamed to ``ren(tag, j)``.  Every node id and edge
    index is kept, so the result shares ``d``'s nodes mapping and
    ``port_edges``, and a renaming that maps ``d``'s slots one to one
    onto the new ones keeps it valid."""
    edges = tuple([_norm_edge(*[ep if ep[0] == "n" else ren(*ep)
                                for ep in edge]) for edge in d.edges])
    return Diagram._of(_Shape(d.shape.kinds, edges, n_in, n_out, d.loops,
                              d.port_edges), d.nodes)


def flip(d: Diagram) -> Diagram:
    """Upside-down flip: inputs become outputs and vice versa (the
    interpretation transposes).  It shares ``d``'s nodes mapping and
    ``port_edges``."""
    return _renamed(d, d.n_out, d.n_in,
                    lambda tag, j: ("out" if tag == "in" else "in", j))


def bend_to_state(d: Diagram) -> Diagram:
    """Map-state duality: bend every input up with a cap, producing a
    0 -> (n_in + n_out) state.

    Convention (fixed once, used by every oracle): the n bent former
    inputs occupy the left-most n output slots in reversed order, then
    d's original outputs follow.  Bending input i of an n-input diagram
    sends it to output slot n - 1 - i.
    """
    n = d.n_in
    return _renamed(d, 0, n + d.n_out, lambda tag, j: (
        "out", n - 1 - j if tag == "in" else n + j))


# -- builders ------------------------------------------------------------

@cache
def empty() -> Diagram:
    return Diagram({}, [], 0, 0)


@cache
def identity(n: int = 1) -> Diagram:
    return Diagram({}, [(("in", i), ("out", i)) for i in range(n)], n, n)


@cache
def swap() -> Diagram:
    return permutation([1, 0])


def permutation(perm: Sequence[int]) -> Diagram:
    """Wire permutation; output slot j is connected to input slot perm[j]."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise DiagramError(f"bad permutation {perm}")
    return Diagram({}, [(("in", perm[j]), ("out", j)) for j in range(n)], n, n)


@cache
def cap() -> Diagram:
    """0 -> 2 bent wire; interprets to (1,0,0,1)^T."""
    return Diagram({}, [(("out", 0), ("out", 1))], 0, 2)


@cache
def cup() -> Diagram:
    """2 -> 0 bent wire; interprets to (1,0,0,1)."""
    return Diagram({}, [(("in", 0), ("in", 1))], 2, 0)


def z_spider(n_in: int, n_out: int, phase: complex = 1.0) -> Diagram:
    """Z spider of type n_in -> n_out carrying a complex parameter."""
    if type(phase) is not _Traced:
        phase = complex(phase)
    return Diagram._of(_z_shape(n_in, n_out),
                       MappingProxyType({0: Node(Z, phase)}))


@cache
def _z_shape(n_in: int, n_out: int) -> _Shape:
    if n_in < 0 or n_out < 0:
        raise DiagramError("negative spider arity")
    edges = []
    for i in range(n_in):
        edges.append((("in", i), ("n", 0, i)))
    for j in range(n_out):
        edges.append((("out", j), ("n", 0, n_in + j)))
    return Diagram({0: Node(Z)}, edges, n_in, n_out).shape


def scalar_z(phase: complex) -> Diagram:
    """Degree-0 Z spider: a floating scalar node worth 1 + phase."""
    return z_spider(0, 0, phase)


@cache
def h_box() -> Diagram:
    return Diagram({0: Node(H)},
                   [(("in", 0), ("n", 0, 0)), (("out", 0), ("n", 0, 1))], 1, 1)


@cache
def triangle() -> Diagram:
    """1 -> 1 triangle; interprets to [[1,1],[0,1]] (port 0 in, port 1 out)."""
    return Diagram({0: Node(T)},
                   [(("in", 0), ("n", 0, 0)), (("out", 0), ("n", 0, 1))], 1, 1)


@cache
def triangle_inv() -> Diagram:
    """1 -> 1 inverse triangle; interprets to [[1,-1],[0,1]]."""
    return Diagram({0: Node(T_INV)},
                   [(("in", 0), ("n", 0, 0)), (("out", 0), ("n", 0, 1))], 1, 1)


@cache
def triangle_flipped() -> Diagram:
    """Triangle used upside down: interprets to [[1,0],[1,1]]."""
    return flip(triangle())


@cache
def triangle_inv_flipped() -> Diagram:
    """Inverse triangle used upside down: interprets to [[1,0],[-1,1]]."""
    return flip(triangle_inv())


TAU_ZERO = 0.0
TAU_PI = math.pi


def _tau_sign(tau: float) -> complex:
    if abs(tau) < 1e-12:
        return 1.0
    if abs(tau - math.pi) < 1e-12:
        return -1.0
    raise DiagramError(f"X phase must be 0 or pi, got {tau}")


@cache
def x_spider(n_in: int, n_out: int, tau: float = TAU_ZERO) -> Diagram:
    """X (pink) spider macro: an H-conjugated Z spider.

    Pink nodes are not primitive.  The bare H-conjugation of a Z spider
    with parameter e^{i tau} interprets to exactly twice the parity-sum
    tensor (the factor is pinned by contraction in the test suite), so the
    expansion includes a compensating scalar worth 1/2, making the macro
    interpret to the parity-sum tensor itself:

        entry[i1..im; j1..jn] = 1  iff  i1+..+im = j1+..+jn + tau/pi (mod 2)
    """
    return tensor(compose_all([tensor_all([h_box()] * n_in),
                               z_spider(n_in, n_out, _tau_sign(tau)),
                               tensor_all([h_box()] * n_out)]), scalar_z(-0.5))
