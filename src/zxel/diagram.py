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
node kinds, boundary sizes, loops and two tables of edge indices,
``port_edges`` (per node, the edge at each port, in port order) and
``slot_edges`` (the edge at each input slot, then at each output slot).
They name every edge end, so ``edges`` is a view of them, derived on
first read and cached.  ``Diagram(...)``, the trust boundary, validates
the edges it is given and builds both tables from them.
``compose_all`` and ``tensor_all`` build a shape from their valid
pieces' shapes by arithmetic on the tables, and do not validate it;
``_memoised`` looks it up by those shapes in ``_SHAPES``, whose keys
hold the pieces' shapes strongly, so diagrams that differ only in Z
phases share a shape, and places the pieces' nodes on it.  ``flip`` and
``bend_to_state`` permute ``slot_edges`` alone (``_renamed``), so a
result shares its piece's nodes and ``port_edges``.  Both evaluation
routes plan per shape from one walk (``_walk``, which ``_WALKS`` holds
until the next planning), and ``_plan_memo`` keeps a plan from a
shape's second planning on.

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
    tuple.  On a boundary that is the order of ``slot_edges``."""
    ra, rb = _TAG_ORDER[a[0]], _TAG_ORDER[b[0]]
    return (a, b) if ra < rb or (ra == rb and a[1:] <= b[1:]) else (b, a)


class _Shape:
    """The phase-free part of a diagram: node kinds, boundary sizes, loops
    and the edge-index tables ``port_edges``, keyed by the node ids in
    node order, and ``slot_edges``.  Shapes are equal by value, and the
    hash is computed once; ``edges``, derived from the tables, is cached
    outside that value.  ``Diagram.__init__`` validates each shape it
    makes; the combinators make theirs from valid pieces' shapes."""

    __slots__ = ("kinds", "port_edges", "slot_edges", "n_in", "n_out",
                 "loops", "_edges", "_hash", "__weakref__")

    def __init__(self, kinds, port_edges, slot_edges, n_in, n_out, loops,
                 edges=None):
        values = kinds, port_edges, slot_edges, n_in, n_out, loops, edges
        for name, value in zip(self.__slots__, (*values, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a shape is read-only; cannot set {name}")

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            object.__setattr__(self, "_edges", _edges_of(self))
        return self._edges

    def _fields(self) -> tuple:
        pe = self.port_edges
        return (tuple(pe), tuple(pe.values()), self.kinds, self.slot_edges,
                self.n_in, self.n_out, self.loops)

    def __eq__(self, other):
        return self is other or (isinstance(other, _Shape)
                                 and self._fields() == other._fields())

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._fields()))
        return self._hash


def _n_edges(s: _Shape) -> int:
    return (sum(map(len, s.port_edges.values())) + len(s.slot_edges)) // 2


def _edges_of(s: _Shape) -> tuple[Edge, ...]:
    """The shape's edges in index order, each oriented as ``_norm_edge``
    does: node ends first, in tuple order, then boundary ends in order."""
    edges: list = [None] * _n_edges(s)
    for v, pe in s.port_edges.items():
        for p, i in enumerate(pe):
            a, b = edges[i], ("n", v, p)
            edges[i] = b if a is None else (a, b) if a < b else (b, a)
    for k, i in enumerate(s.slot_edges):
        b = ("in", k) if k < s.n_in else ("out", k - s.n_in)
        edges[i] = b if edges[i] is None else (edges[i], b)
    return tuple(edges)


def _slot_ends(s: _Shape) -> dict[int, list[int]]:
    """Each edge with a boundary end -> the ascending positions of its
    ends in ``slot_edges``: two for a bare wire, the first its first."""
    at: dict[int, list[int]] = {}
    for k, i in enumerate(s.slot_edges):
        at.setdefault(i, []).append(k)
    return at


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
        shape = _Shape(tuple(map(attrgetter("kind"), self.nodes.values())),
                       None, None, n_in, n_out, loops, tuple(edges))
        object.__setattr__(self, "shape", shape)
        tables = (*self.check_validity(), None)  # the view is derived
        for name, value in zip(("port_edges", "slot_edges", "_edges"), tables):
            object.__setattr__(shape, name, value)

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

    def check_validity(self) -> tuple[Mapping, tuple[int, ...]]:
        """Raise DiagramError unless every edge is a pair of well-formed
        endpoints, every port and boundary slot is used exactly once and
        degree constraints hold.  The same pass places each edge index at
        its port or slot, and the result is the tables ``__init__``
        stores: ``port_edges``, a self-loop at both of its ports, and
        ``slot_edges``."""
        n_in, n_out = self.n_in, self.n_out
        if n_in < 0 or n_out < 0 or self.loops < 0:
            raise DiagramError("negative boundary or loop count")
        at: dict[int, dict[int, int]] = {v: {} for v in self.nodes}
        slots: dict[int, int] = {}  # boundary slot position -> edge
        for i, edge in enumerate(self.edges):
            if type(edge) not in (tuple, list) or len(edge) != 2:
                raise DiagramError(f"edge {i} {edge!r}: not two endpoints")
            for ep in edge:
                # a tag, then one int (slot) or two (node id, port), each
                # of type int, so that a bool or a float is refused
                tag = ep[0] if type(ep) is tuple and ep else None
                if type(tag) is str and tag not in _TAG_ORDER:
                    raise DiagramError(f"edge {i} {edge!r}: bad endpoint "
                                       f"tag {tag!r}")
                if (type(tag) is not str or len(ep) != 2 + (tag == "n")
                        or type(ep[1]) is not int or type(ep[-1]) is not int):
                    raise DiagramError(f"edge {i} {edge!r}: malformed "
                                       f"endpoint {ep!r}")
                if tag == "n":
                    ports, key = at.get(ep[1]), ep[2]
                    if ports is None:
                        raise DiagramError(
                            f"edge references missing node {ep[1]}")
                elif not 0 <= ep[1] < (n_in if tag == "in" else n_out):
                    side = "input" if tag == "in" else "output"
                    raise DiagramError(f"{side} slot {ep[1]} out of range")
                else:
                    ports, key = slots, ep[1] + (tag == "out") * n_in
                if key in ports:
                    raise DiagramError(f"endpoint {ep} used 2 times")
                ports[key] = i
        # the placed slots are in range and distinct, so one is missing iff
        # there are fewer of them than slots; the scan stops at the first
        if len(slots) < n_in + n_out:
            k = next(k for k in range(n_in + n_out) if k not in slots)
            raise DiagramError(f"dangling input slot {k}" if k < n_in
                               else f"dangling output slot {k - n_in}")
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
        return MappingProxyType(index), tuple(
            [slots[k] for k in range(n_in + n_out)])

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
                f"{_n_edges(self.shape)} edges, loops={self.loops})")


def contraction_order(
        port_edges: Mapping[int, Sequence[int]]) -> Iterator[list[tuple]]:
    """The elimination order both evaluation routes walk, from the graph
    alone (``port_edges`` as stored on a ``Diagram``); it evaluates
    nothing, checks no cap and keeps no axis order.

    Yields one list of steps per connected component, components ordered
    by their smallest id.  Step ``(v, open_, shared)`` absorbs node ``v``
    into the component's part: ``open_`` is the node's edges in port
    order, a self-loop's two left out, and ``shared`` those of them the
    part holds, in ``open_``'s order; the first step shares none.  Both
    are tuples of ints, which the cyclic collector stops tracking.  The
    part then holds its edges but ``shared``, and the rest of ``open_``;
    at the end, the component's boundary edges.  Each component starts
    at its smallest id; each step absorbs the neighbour that leaves the
    fewest open wires, |open| + |wires_j| - 2 * shared_j, ties to the
    smallest id.
    """
    opened = dict(port_edges)
    first: dict[int, int] = {}  # edge index -> the node seen at one end
    # an edge joining two nodes -> their ids' sum; across i from v: link[i] - v
    link: dict[int, int] = {}
    for v, edges in port_edges.items():
        for i in edges:
            u = first.pop(i, None)
            if u is None:
                first[i] = v
            elif u == v:
                opened[v] = tuple(j for j in opened[v] if j != i)
            else:
                link[i] = u + v

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
                if i in held:  # its other end is in the part
                    shared.append(i)
                    held.remove(i)
                    continue
                held.add(i)
                if i in link:  # its other end is a node not yet absorbed
                    u = link[i] - v
                    links[u] = links.get(u, 0) + 1
                    heapq.heappush(heap, (len(opened[u]) - 2 * links[u], u))
            steps.append((v, edges, tuple(shared)))
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

def _splice(count: int, mate: Mapping[int, int]) -> tuple[int, list[int]]:
    """Join the edges 0..count-1 at the junctions ``mate`` names.  End
    2i + s is side s of edge i, and ``mate`` maps each junction end to
    the end it is joined to, both ways round.  Returns (loops, where):
    each wire becomes one edge, placed where its first edge was, and each
    wire with no free end counts as a loop; ``where[i]`` is the index of
    the edge that edge i became (-1 on a loop)."""
    first, loops = {}, 0  # first: each joined edge -> its wire's first edge
    for start in sorted({end >> 1 for end in mate}):
        if start in first:
            continue
        # walk on from each side of start to a free end; arriving back at
        # side 1 of start means a closed loop, whose first edge is -1
        path, at = [start], start
        for end in map(mate.get, (2 * start, 2 * start + 1)):
            while end is not None and end != 2 * start + 1:
                path.append(end >> 1)
                end = mate.get(end ^ 1)
            if end is not None:
                loops, at = loops + 1, -1
                break
        first.update(dict.fromkeys(path, at))
    where, kept = [], 0
    for i in range(count):
        at = first.get(i, i)
        where.append(kept if at == i else where[at] if at >= 0 else -1)
        kept += at == i
    return loops, where


# -- combinators --------------------------------------------------------

def _placed(shapes: Sequence[_Shape]) -> tuple[list[tuple], int]:
    """The pieces' shapes side by side: each shape with the shift of its
    node ids and the index of its first edge, and the count of edges.
    Piece k's node ids, the keys of its ``port_edges``, shift so that its
    smallest, or 0 if that is larger, lands past the largest id placed
    before it (the ids of a pairwise fold from the left), and its edge
    indices past the edges placed before it."""
    places, top, count = [], None, 0
    for s in shapes:
        ids = s.port_edges
        shift = 0 if top is None else top + 1 - min(0, min(ids, default=0))
        places.append((s, shift, count))
        if ids:
            last = max(ids) + shift
            top = last if top is None else max(top, last)
        count += _n_edges(s)
    return places, count


def _assembled(shapes: Sequence[_Shape], port_edges, slot_edges, n_in: int,
               loops: int) -> _Shape:
    """The shape the pieces' ``shapes`` were placed into, its first
    ``n_in`` slots inputs: valid pieces make it valid, so nothing is
    checked again."""
    kinds = tuple(chain.from_iterable(s.kinds for s in shapes))
    return _Shape(kinds, MappingProxyType(port_edges), tuple(slot_edges),
                  n_in, len(slot_edges) - n_in, loops)


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
    slot j of piece k + 1, each read off its piece's ``slot_edges``."""
    if not shapes:
        raise DiagramError("compose_all of nothing")
    for s1, s2 in zip(shapes, shapes[1:]):
        if s1.n_out != s2.n_in:
            raise DiagramError(f"compose arity mismatch: {s1.n_out} outputs "
                               f"vs {s2.n_in} inputs")
    places, count = _placed(shapes)
    mate: dict[int, int] = {}
    outs: list[int] = []  # the end at each output slot of the piece before
    for s, _, base in places:
        # the end at each boundary slot: side 1 of a bare wire's edge at
        # its second slot, side 0 at any other
        ends, seen = [], set()
        for i in s.slot_edges:
            ends.append(2 * (base + i) + (i in seen))
            seen.add(i)
        for out, end in zip(outs, ends):
            mate[out], mate[end] = end, out
        outs = ends[s.n_in:]
    new_loops, where = _splice(count, mate)
    (first, _, start), (last, _, end) = places[0], places[-1]
    slot_edges = [where[start + i] for i in first.slot_edges[:first.n_in]]
    slot_edges += [where[end + i] for i in last.slot_edges[last.n_in:]]
    port_edges = {v + shift: tuple([where[base + i] for i in pe])
                  for s, shift, base in places
                  for v, pe in s.port_edges.items()}
    return _assembled(shapes, port_edges, slot_edges, first.n_in,
                      sum(s.loops for s in shapes) + new_loops)


@_memoised
def tensor_all(shapes: Sequence[_Shape]) -> _Shape:
    """Parallel composition, boundaries left to right in piece order."""
    places, _ = _placed(shapes)
    ins = [base + i for s, _, base in places for i in s.slot_edges[:s.n_in]]
    outs = [base + i for s, _, base in places for i in s.slot_edges[s.n_in:]]
    port_edges = {v + shift: tuple([i + base for i in pe])
                  for s, shift, base in places
                  for v, pe in s.port_edges.items()}
    return _assembled(shapes, port_edges, ins + outs, len(ins),
                      sum(s.loops for s in shapes))


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """d2 after d1: the two-piece case of ``compose_all``."""
    return compose_all([d1, d2])


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """d1 beside d2: the two-piece case of ``tensor_all``."""
    return tensor_all([d1, d2])


def _renamed(d: Diagram, n_in: int, slot_edges: tuple[int, ...]) -> Diagram:
    """``d`` with the boundary table ``slot_edges``, its first ``n_in``
    slots inputs.  Every node id and edge index is kept, so the result
    shares ``d``'s nodes mapping and ``port_edges``, and a permutation of
    ``d``'s table keeps it valid."""
    s = d.shape
    return Diagram._of(_Shape(s.kinds, s.port_edges, slot_edges, n_in,
                              len(slot_edges) - n_in, s.loops), d.nodes)


def flip(d: Diagram) -> Diagram:
    """Upside-down flip: inputs become outputs and vice versa (the
    interpretation transposes).  It shares ``d``'s nodes mapping and
    ``port_edges``."""
    n, table = d.n_in, d.shape.slot_edges
    return _renamed(d, d.n_out, table[n:] + table[:n])


def bend_to_state(d: Diagram) -> Diagram:
    """Map-state duality: bend every input up with a cap, producing a
    0 -> (n_in + n_out) state.

    Convention (fixed once, used by every oracle): the n bent former
    inputs occupy the left-most n output slots in reversed order, then
    d's original outputs follow.  Bending input i of an n-input diagram
    sends it to output slot n - 1 - i.
    """
    n, table = d.n_in, d.shape.slot_edges
    return _renamed(d, 0, table[:n][::-1] + table[n:])


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
