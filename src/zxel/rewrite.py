"""Pattern matching and rule application on diagrams, plus a terminating
simplifier.

Matching is implemented for the terminating simplification subset, whose
patterns are constant-size:

  S1    fuse two Z spiders joined by at least one wire (self-loops formed
        by parallel wires drop; pink-spider fusion arises as H2 + S1)
  S2    delete a parameter-1 Z spider of degree 2
  H2    cancel two adjacent H boxes (leaves a scalar-2 dot)
  Hopf  disconnect a Z spider from an H-conjugated Z spider joined by two
        parallel H-paths
  B3    pi moves: cancel two adjacent pi macros, absorb a pi into a green
        state, or copy a pi through a green spider
  B1    absorb a pink 0-state macro into a green spider (parameter to 0)

The full catalog is certified semantically by the rules module; rules
outside this subset have no graph matcher (``UnsupportedRuleError``).
Every applier preserves the standard interpretation exactly, up to
float rounding, when the phases it matches are its pattern's constants.
S2, B1 and the pi macro's core match a phase within ``_is_phase``'s
absolute 1e-12 of 1 or -1 and rewrite as if it were that constant: a
phase eps away changes the pattern's value by at most eps * (1 + |a|),
a the green phase the move reads (none for S2), so
``simplify(z_spider(1, 1, 1 + 1e-13))`` deletes the spider and moves the
interpretation by 1e-13.  The whole diagram moves by that times the
magnitude of the rest of it: ``simplify`` of ``compose(z_spider(0, 1,
1e12), z_spider(1, 1, 1 + 1e-13))`` takes S2 and moves the
interpretation by 0.0999, so ``check_equivalent`` calls the result
unequal to its input.  B3's nonzero test only declines a match.
Scalar bookkeeping uses floating degree-0 Z dots, never dropped.
``find_matches``, ``apply`` and ``simplify`` share one private working
graph (``_Graph``), which the appliers edit in place; ``apply`` builds
and validates one Diagram, from the final graph, and ``simplify`` one
per planning.

Each rule has one matcher, which returns the sites anchored at one node.
``find_matches`` runs it at every node and sorts the sites.  ``simplify``
runs it at every node only the first time it consults a pass; after each
step it runs it again only at the anchors within the pattern's reach of
the nodes the step touched, and keeps each pass's candidates in a heap
in ``find_matches`` order, so that it takes the same moves as a full
scan before every step would.

``simplify`` plans per shape and budget (``_plan``): it keeps the moves,
the working graph's log of each phase test a matcher makes and each
node an applier makes of phases, and the result's validated shape.  No
other decision reads a phase, so the plan rewrites any diagram of the
shape whose tests come out alike by replaying those events on its
phases, with no matching, surgery or validation.  ``diagram._plan_memo``
keeps a plan from the shape's second planning on; a kept plan is
read-only, and a replay writes to nothing shared.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from itertools import count
from types import MappingProxyType

from .diagram import Diagram, H, Node, Z, _plan_memo

# moves the simplifier is allowed to take, B3 restricted to absorbing a
# pi into a green state.  B3-cancel is left out: each of its sites holds
# the two facing H boxes of its macros, an H2 site, and H2 comes first
_SIMPLIFY_PASSES = ("S2", "H2", "S1", "Hopf", "B1", "B3-state")


class UnsupportedRuleError(ValueError):
    """The rule has no graph matcher (certified semantically only)."""


class StaleSiteError(RuntimeError):
    """The site was computed on a different diagram."""


@dataclass(frozen=True)
class MatchSite:
    """An embedding of a rule pattern into a host diagram, valid for that
    diagram object only."""

    rule: str
    nodes: tuple[int, ...]
    params: tuple[complex, ...]
    host: Diagram


def _site(rule, nodes, params=()):
    """A match as (rule, nodes, params); ``find_matches`` stamps it."""
    return (rule, tuple(nodes), tuple(params))


def _other_end(edge, v):
    a, b = edge
    if a[0] == "n" and a[1] == v:
        return b
    return a


_PHASE_TOL = 1e-12


def _is_phase(x: complex, value: complex) -> bool:
    return abs(complex(x) - value) <= _PHASE_TOL


def _outer_endpoint(d, inc, h, core):
    """The endpoint beyond an H box from its neighbour ``core``; None
    unless exactly one of the H's two wires goes to ``core``."""
    ends = [_other_end(d.edges[e], h) for e in inc[h]]
    at_core = [ep[:2] == ("n", core) for ep in ends]
    return ends[at_core.index(False)] if sum(at_core) == 1 else None


def _macro(d, inc, c):
    """The pi macro whose core is c, a chain H - Z(-1) of degree 2 - H, as
    (h1, c, h2, outer1, outer2) with the outer endpoints beyond the Hs;
    None if c is no such core."""
    if d.nodes[c].kind != Z or len(inc[c]) != 2 or not d.phase_is(c, -1.0):
        return None
    ends = [_other_end(d.edges[e], c) for e in inc[c]]
    if any(ep[0] != "n" or d.nodes[ep[1]].kind != H for ep in ends):
        return None
    h1, h2 = ends[0][1], ends[1][1]
    outer = [_outer_endpoint(d, inc, h, c) for h in (h1, h2)]
    return None if None in outer else (h1, c, h2, *outer)


def _partner(d, inc, h):
    """The pi macro that has the H box h as one of its two; None if none."""
    for e in inc[h]:
        ep = _other_end(d.edges[e], h)
        if ep[0] == "n":
            g = _macro(d, inc, ep[1])
            if g is not None and h in (g[0], g[2]):
                return g
    return None


# -- matchers --------------------------------------------------------------
# A matcher takes one anchor node, of the kind ``_MATCHERS`` names for it,
# and returns the sites anchored there.  It reads only ``d.nodes``,
# ``d.edges[e]`` and the incidence ``inc``, and tests a phase only by
# ``d.phase_is``, so it runs on a working graph, which logs each test;
# only ``_plan`` reads the log.

def _joined_at(d, inc, v, kind):
    """Sorted ids w > v of ``kind`` nodes joined to v by at least one
    wire."""
    joined = set()
    for e in inc[v]:
        w = _other_end(d.edges[e], v)
        if w[0] == "n" and w[1] > v and d.nodes[w[1]].kind == kind:
            joined.add(w[1])
    return sorted(joined)


def _match_s1(d, inc, v):
    return [_site("S1", (v, w), (d.nodes[v].phase, d.nodes[w].phase))
            for w in _joined_at(d, inc, v, Z)]


def _match_s2(d, inc, v):
    if len(inc[v]) != 2 or inc[v][0] == inc[v][1] \
            or not d.phase_is(v, 1.0):
        return []
    return [_site("S2", (v,))]


def _match_h2(d, inc, v):
    return [_site("H2", (v, w)) for w in _joined_at(d, inc, v, H)]


def _match_hopf(d, inc, z1):
    """The Z spider z1 and a Z spider z2 > z1 joined by two disjoint
    single-H paths, the two smallest H boxes if there are more."""
    paths: dict[int, list[int]] = {}
    for e in inc[z1]:
        h = _other_end(d.edges[e], z1)
        if h[0] != "n" or d.nodes[h[1]].kind != H:
            continue
        h = h[1]
        a, z2 = [_other_end(d.edges[f], h) for f in inc[h]]
        if z2[:2] == ("n", z1):  # one end is z1: take the other
            z2 = a
        if z2[0] == "n" and z2[1] > z1 and d.nodes[z2[1]].kind == Z:
            paths.setdefault(z2[1], []).append(h)
    return [_site("Hopf", (z1, z2, *sorted(hs)[:2]),
                  (d.nodes[z1].phase, d.nodes[z2].phase))
            for z2, hs in sorted(paths.items()) if len(hs) >= 2]


def _match_b3(d, inc, c):
    """Pi-macro moves at the macro whose core is c, tagged by sub-kind in
    the site's rule name suffix: cancel it against a macro wired in
    series (the smaller core anchors the pair); absorb it into a green
    state (a degree-1 Z spider); copy it through a green spider of
    higher degree with no self-loop, unless the macro's both ends land
    on it.  The green parameter must be nonzero."""
    g = _macro(d, inc, c)
    if g is None:
        return []
    sites = []
    for outer, opposite in ((g[3], g[4]), (g[4], g[3])):
        if outer[0] != "n":
            continue
        v, nd = outer[1], d.nodes[outer[1]]
        if nd.kind == H:
            g2 = _partner(d, inc, v)
            if g2 is not None and g2[1] > c:
                site = _site("B3-cancel", g[:3] + g2[:3])
                if site not in sites:
                    sites.append(site)
        elif nd.kind == Z and not d.phase_is(v, 0.0):
            if len(inc[v]) == 1:
                sites.append(_site("B3-state", g[:3] + (v,), (nd.phase,)))
            elif opposite[:2] != ("n", v) \
                    and len(set(inc[v])) == len(inc[v]):
                sites.append(_site("B3-copy", g[:3] + (v,), (nd.phase,)))
    return sites


def _match_b1(d, inc, s):
    """Pink 0-state macro (Z(1) state behind an H) feeding a Z spider."""
    if len(inc[s]) != 1 or not d.phase_is(s, 1.0):
        return []
    h = _other_end(d.edges[inc[s][0]], s)
    if h[0] != "n" or d.nodes[h[1]].kind != H:
        return []
    outer = _outer_endpoint(d, inc, h[1], s)
    if outer[0] != "n" or d.nodes[outer[1]].kind != Z:
        return []
    return [_site("B1", (s, h[1], outer[1]), (d.nodes[outer[1]].phase,))]


# by rule: the anchor's kind, the matcher's radius and the matcher.  The
# radius is how many wires from its anchor the matcher reads a node's
# kind, phase or wires, along paths whose inner nodes are H boxes, so a
# site appears only where a step touched a node that close.  B3 reads
# out to the partner macro's core, whose group it rebuilds.
_MATCHERS = {
    "S1": (Z, 1, _match_s1),
    "S2": (Z, 0, _match_s2),
    "H2": (H, 1, _match_h2),
    "Hopf": (Z, 2, _match_hopf),
    "B3": (Z, 3, _match_b3),
    "B1": (Z, 2, _match_b1),
}
MATCHABLE_RULES = tuple(_MATCHERS)
# B3's moves, each of which ``find_matches`` also takes by name
_B3_MOVES = ("B3-cancel", "B3-state", "B3-copy")


def find_matches(d: Diagram, rule) -> list[MatchSite]:
    """All sites where the rule applies; deterministic order.

    ``rule`` is a rule name or a catalog RewriteRule.  Only the
    simplification subset is matchable, and each of B3's moves on its
    own; any other name, a misspelt move too, raises
    UnsupportedRuleError.
    """
    name = rule if isinstance(rule, str) else rule.name
    if name not in _MATCHERS and name not in _B3_MOVES:
        raise UnsupportedRuleError(
            f"rule {name!r} has no graph matcher; matching is implemented "
            f"for {MATCHABLE_RULES} and B3's moves {_B3_MOVES}")
    sites = _scan(_Graph(d), name.split("-")[0])
    if "-" in name:
        sites = [s for s in sites if s[0] == name]
    return [MatchSite(*s, d) for s in sites]


def _scan(d, base):
    """The sites of the matcher ``base`` at every node, sorted by rule
    and nodes."""
    kind, _, match = _MATCHERS[base]
    inc, sites = d.port_edges, []
    for v, node in d.nodes.items():
        if node.kind == kind:
            sites += match(d, inc, v)
    return sorted(sites, key=lambda s: s[:2])


# -- the working graph ------------------------------------------------------

class _Graph:
    """A diagram under surgery, edited in place by ``splice``.

    Until the first splice it reads through to the source diagram's
    ``nodes``, ``edges`` and ``port_edges``, so the matchers see the
    source's own port order.  The first splice copies them: ``edges``
    becomes a table keyed by an index that grows and is never reused,
    and ``port_edges`` a list per node, in edge order for a Z spider (its
    port order once ``diagram`` renumbers its ports) and in port order
    for the other kinds, whose ports surgery must not disturb.  The
    source's Z self-loops are dropped then, as every later one is.
    ``next_id`` is the largest node id plus one.

    The graph logs in ``events``, for ``simplify``'s plan, each phase
    test a matcher makes and each node an applier makes of phases, on
    the slots of a replay: slot k < len(source.nodes) holds the source's
    k-th node, and each node event fills the next slot.  A test is
    ``(slot, value, outcome)``, once per slot and value; a node is
    ``(node_of, slots)``, or ``(node, None)`` for a node made of no
    phase.  ``slot`` maps each node id to the slot of its node, and
    ``splice`` keeps it current: a node ``make`` logged takes that slot,
    and any other node it places logs ``(node, None)`` and takes the
    next.
    """

    def __init__(self, d: Diagram):
        self.source = d
        self.nodes, self.edges, self.port_edges = d.nodes, d.edges, d.port_edges
        self.loops = d.loops
        self.next_id = max(d.nodes, default=-1) + 1
        self.events: list[tuple] = []
        self.slot = {v: k for k, v in enumerate(d.nodes)}
        self._slots = count(len(self.slot))
        self.made: dict[int, int] = {}  # id(node) -> slot, until placed
        self.tested: set[tuple] = set()

    def _log(self, event: tuple) -> int:
        self.events.append(event)
        return next(self._slots)

    def phase_is(self, v: int, value: complex) -> bool:
        """Whether node v's phase is ``value`` within ``_is_phase``'s
        bound; logs the test."""
        hit = _is_phase(self.nodes[v].phase, value)
        test = (self.slot[v], value, hit)
        if test not in self.tested:
            self.tested.add(test)
            self.events.append(test)
        return hit

    def make(self, node_of, *vs: int) -> Node:
        """The node ``node_of`` makes of the phases of the nodes ``vs``;
        logs it."""
        slots = tuple(map(self.slot.__getitem__, vs))
        node = node_of(*[self.nodes[v].phase for v in vs])
        self.made[id(node)] = self._log((node_of, slots))
        return node

    def _place(self, v: int, node: Node) -> None:
        self.nodes[v] = node
        k = self.made.pop(id(node), None)
        self.slot[v] = self._log((node, None)) if k is None else k

    def _add(self, edge) -> None:
        a, b = edge
        if a[0] == b[0] == "n" and a[1] == b[1] and self.nodes[a[1]].kind == Z:
            return  # a Z self-loop removes two legs, scalar-free
        e = next(self._edge_ids)
        self.edges[e] = edge
        for ep in edge:
            if ep[0] == "n":
                inc = self.port_edges[ep[1]]
                if self.nodes[ep[1]].kind == Z:
                    inc.append(e)
                else:
                    inc.insert(ep[2], e)

    def splice(self, drop_nodes=(), detach=(), new_edges=(), new_nodes=(),
               rephase=None, add_loops=0) -> set[int]:
        """Drop the nodes ``drop_nodes`` and every edge at them or at the
        nodes ``detach``; put the nodes ``rephase`` maps them to in place
        of the Z spiders it names; add ``new_nodes`` under ids counting
        on from the largest id before the drop, then ``new_edges``, whose
        Z ports need not be numbered.

        Returns the ids of the nodes the step touched: the dropped,
        detached, rephased and new nodes and both ends of every edge it
        removed or added.  On the first splice they include the Z spiders
        whose wires the copy reorders or drops, those whose ports are not
        in edge order or that carry a self-loop.
        """
        touched = {*drop_nodes, *detach, *(rephase or ())}
        if self.nodes is self.source.nodes:
            source = self.source
            for v, edges in source.port_edges.items():
                if source.nodes[v].kind == Z and any(
                        a >= b for a, b in zip(edges, edges[1:])):
                    touched.add(v)
            self.nodes = dict(source.nodes)
            self.edges, self.port_edges = {}, {v: [] for v in self.nodes}
            self._edge_ids = count()
            for edge in source.edges:
                self._add(edge)
        nodes, inc = self.nodes, self.port_edges
        for v in (*drop_nodes, *detach):
            for e in inc[v]:
                for ep in self.edges.pop(e, ()):
                    if ep[0] == "n" and ep[1] != v:
                        inc[ep[1]].remove(e)
                        touched.add(ep[1])
            inc[v] = []
        for v in drop_nodes:
            del nodes[v], inc[v], self.slot[v]
        for v, node in (rephase or {}).items():
            self._place(v, node)
        next_id = self.next_id
        for node in new_nodes:
            self._place(next_id, node)
            inc[next_id] = []
            touched.add(next_id)
            next_id += 1
        for edge in new_edges:
            self._add(edge)
            touched.update(ep[1] for ep in edge if ep[0] == "n")
        if next_id - 1 not in nodes:  # the top node was dropped
            next_id = max(nodes, default=-1) + 1
        self.next_id = next_id
        self.loops += add_loops
        return touched

    def diagram(self) -> Diagram:
        """The graph as a validated Diagram, Z ports numbered in edge
        order; the source itself if nothing was spliced."""
        if self.nodes is self.source.nodes:
            return self.source
        nodes, ports = self.nodes, {}

        def number(ep):
            if ep[0] == "n" and nodes[ep[1]].kind == Z:
                ports[ep[1]] = p = ports.get(ep[1], -1) + 1
                return ("n", ep[1], p)
            return ep

        edges = [(number(a), number(b)) for a, b in self.edges.values()]
        return Diagram(nodes, edges, self.source.n_in, self.source.n_out,
                       self.loops)


def _beyond(g: _Graph, group, keep=()):
    """The far endpoints of the group's edges, outside the group and
    ``keep``, in edge order."""
    inside = set(group) | set(keep)
    edges = sorted({e for v in group for e in g.port_edges[v]})
    return [ep for e in edges for ep in g.edges[e]
            if ep[0] != "n" or ep[1] not in inside]


# The nodes the appliers make of phases, each a function of the phases it
# reads (``_Graph.make``), so that a replay makes them of another
# diagram's phases by the same float operations.

def _fused(a, b):
    return Node(Z, complex(a * b))


def _inverse(a):
    return Node(Z, complex(1.0 / a))


def _absorbed(a):
    return Node(Z, 2.0 * a - 1.0)


def _copied(scale, a):
    return Node(Z, a * scale - 1.0)


def _apply(g: _Graph, rule: str, nodes) -> set[int]:
    """Rewrite the graph at a site of ``rule`` on ``nodes``, in place;
    returns the nodes the splice touched."""
    inc = g.port_edges
    one = Node(Z, 1.0)  # a scalar-2 dot

    if rule == "S1":
        v1, v2 = nodes
        fused = g.make(_fused, v1, v2)
        moved = []
        for e in sorted(set(inc[v2])):
            x, y = g.edges[e]
            x = ("n", v1, 0) if x[0] == "n" and x[1] == v2 else x
            y = ("n", v1, 0) if y[0] == "n" and y[1] == v2 else y
            moved.append((x, y))
        return g.splice([v2], new_edges=moved, rephase={v1: fused})

    if rule == "S2":
        v, = nodes
        e1, e2 = inc[v]
        x = _other_end(g.edges[e1], v)
        y = _other_end(g.edges[e2], v)
        return g.splice([v], new_edges=[(x, y)])

    if rule == "H2":
        v1, v2 = nodes
        shared = [e for e in inc[v1] if e in set(inc[v2])]
        if len(shared) == 2:
            # both H legs joined: the pair closes into a loop worth 4
            return g.splice(nodes, new_nodes=[one], add_loops=1)
        far1 = [e for e in inc[v1] if e != shared[0]][0]
        far2 = [e for e in inc[v2] if e != shared[0]][0]
        x = _other_end(g.edges[far1], v1)
        y = _other_end(g.edges[far2], v2)
        return g.splice(nodes, new_edges=[(x, y)], new_nodes=[one])

    if rule == "Hopf":
        return g.splice(nodes[2:])

    if rule == "B3-cancel":
        outer = _beyond(g, nodes)
        if not outer:
            return g.splice(nodes, new_nodes=[one, one], add_loops=1)
        return g.splice(nodes, new_edges=[tuple(outer)],
                        new_nodes=[one, one])

    if rule == "B3-state":
        *group, v = nodes
        scalar, inverse = g.make(_absorbed, v), g.make(_inverse, v)
        return g.splice(group, detach=[v],
                        new_edges=[(*_beyond(g, group, [v]), ("n", v, 0))],
                        new_nodes=[scalar], rephase={v: inverse})

    if rule == "B3-copy":
        *group, v = nodes
        deg = len(inc[v])
        group_edges = {e for w in group for e in inc[w]}
        new_nodes = []
        new_edges = [(*_beyond(g, group, [v]), ("n", v, 0))]
        next_id = g.next_id
        for e in sorted(set(inc[v]) - group_edges):
            far = _other_end(g.edges[e], v)
            ha, cc, hb = next_id, next_id + 1, next_id + 2
            next_id += 3
            new_nodes += [Node(H), Node(Z, -1.0), Node(H)]
            new_edges += [(("n", v, 0), ("n", ha, 0)),
                          (("n", ha, 1), ("n", cc, 0)),
                          (("n", cc, 1), ("n", hb, 0)),
                          (("n", hb, 1), far)]
        new_nodes.append(g.make(partial(_copied, 2.0 ** (2 - deg)), v))
        return g.splice(group, detach=[v], new_edges=new_edges,
                        new_nodes=new_nodes,
                        rephase={v: g.make(_inverse, v)})

    if rule == "B1":
        s, h, v = nodes
        return g.splice([s, h], new_nodes=[one], rephase={v: Node(Z, 0j)})

    raise UnsupportedRuleError(f"no applier for {rule!r}")


def apply(d: Diagram, site: MatchSite) -> Diagram:
    """Apply a match site; the result interprets identically."""
    if site.host is not d:
        raise StaleSiteError("site was computed on a different diagram")
    g = _Graph(d)
    _apply(g, site.rule, site.nodes)
    return g.diagram()


# -- simplifier --------------------------------------------------------------

@dataclass
class SimplifyResult:
    diagram: Diagram
    steps: int
    budget_exhausted: bool
    trace: list


class _Worklist:
    """The simplifier's candidate sites on a working graph: per pass, a
    heap of site node tuples, ordered as ``find_matches`` orders the pass,
    and the set of tuples it holds.  A pass is scanned in full the first
    time it is consulted; from then on every site of it that matches is
    held, and a held site that no longer matches is dropped when it
    reaches the top.  So the top of the first pass with a matching site
    is the move a full scan would take."""

    def __init__(self, g: _Graph):
        self.g = g
        self.heaps: dict[str, list] = {}  # by pass, once scanned
        self.held: dict[str, set] = {}

    def rematch(self, touched) -> None:
        """Match again, for every scanned pass, each anchor within its
        matcher's radius of a touched node that is still in the graph."""
        g, inc = self.g, self.g.port_edges
        bases = {rule.split("-")[0] for rule in self.heaps}
        ring = {v for v in touched if v in g.nodes}
        within = [ring]  # within[k]: the nodes at most k wires away
        for k in range(max((_MATCHERS[b][1] for b in bases), default=0)):
            # past the first wire, paths run through H boxes only
            ring = {w[1] for v in ring if k == 0 or g.nodes[v].kind == H
                    for e in inc[v] for w in [_other_end(g.edges[e], v)]
                    if w[0] == "n" and w[1] not in within[-1]}
            within.append(within[-1] | ring)
        for base in bases:
            kind, radius, match = _MATCHERS[base]
            for v in within[radius]:
                if g.nodes[v].kind != kind:
                    continue
                for rule, nodes, _ in match(g, inc, v):
                    held = self.held.get(rule)
                    if held is not None and nodes not in held:
                        held.add(nodes)
                        heapq.heappush(self.heaps[rule], nodes)

    def first(self):
        """The first site of the first pass that has one, as (rule,
        nodes); None at a fixpoint."""
        g = self.g
        for rule in _SIMPLIFY_PASSES:
            base = rule.split("-")[0]
            if rule not in self.heaps:  # sorted sites are already a heap
                heap = [s[1] for s in _scan(g, base) if s[0] == rule]
                self.heaps[rule], self.held[rule] = heap, set(heap)
            kind, _, match = _MATCHERS[base]
            heap = self.heaps[rule]
            while heap:
                nodes = heap[0]
                v = nodes[1] if base == "B3" else nodes[0]  # the anchor
                node = g.nodes.get(v)
                if node is not None and node.kind == kind and any(
                        site[:2] == (rule, nodes)
                        for site in match(g, g.port_edges, v)):
                    return rule, nodes
                self.held[rule].discard(heapq.heappop(heap))
        return None


@_plan_memo
def _plan(d: Diagram, budget: int) -> tuple:
    """How ``simplify`` rewrites every diagram of ``d``'s shape whose
    phases pass the same tests, as ``(moves, exhausted, events, shape,
    picks)``: the moves as (rule, nodes) pairs, whether the budget ran
    out, the events the working graph logged running them on ``d``, the
    result's shape, and the slot of each of its nodes in node order
    (``shape`` and ``picks`` None when no move applies).  No decision
    but the logged tests reads a phase, so a diagram that passes them
    takes the same moves and gets its nodes by the same operations."""
    g = _Graph(d)
    work = _Worklist(g)
    moves: list[tuple] = []
    site = work.first()
    while site is not None and len(moves) < budget:
        rule, nodes = site
        work.rematch(_apply(g, rule, nodes))
        moves.append(site)
        site = work.first()
    out = g.diagram()
    shape = picks = None
    if out is not d:
        shape, picks = out.shape, tuple(map(g.slot.__getitem__, out.nodes))
    return tuple(moves), site is not None, tuple(g.events), shape, picks


def _replay(plan: tuple, d: Diagram) -> SimplifyResult | None:
    """The plan's result on ``d``; None if a phase test of ``d`` comes
    out otherwise than it did for the plan."""
    moves, exhausted, events, shape, picks = plan
    slots = list(d.nodes.values())
    for event in events:
        if len(event) == 3:
            k, value, hit = event
            if _is_phase(slots[k].phase, value) is not hit:
                return None
        else:
            node_of, args = event
            slots.append(node_of if args is None
                         else node_of(*[slots[k].phase for k in args]))
    if shape is not None:
        d = Diagram._of(shape, MappingProxyType(
            dict(zip(shape.port_edges, map(slots.__getitem__, picks)))))
    return SimplifyResult(d, len(moves), exhausted,
                          [{"rule": rule, "nodes": list(nodes)}
                           for rule, nodes in moves])


def simplify(d: Diagram, budget: int | None = None) -> SimplifyResult:
    """Apply the terminating move set to fixpoint or budget.

    Moves are taken in a fixed pass order with deterministic site order,
    so identical inputs give identical outputs.  The result's ``trace``
    logs each applied move's rule and matched nodes.  The result is
    ``d`` itself when no move applies.  A planning runs the moves on one
    working graph and builds, and so validates, only the result; a
    replay of the plan takes its recorded shape.  A shape keeps its plan
    (``_plan``) from its second planning on, and a diagram whose phase
    tests come out otherwise is planned from itself, and that plan is
    not kept.
    """
    if budget is None:
        budget = 10 * len(d.nodes) + 20
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    res = _replay(_plan(d, budget), d)
    if res is None:
        res = _replay(_plan.__wrapped__(d, budget), d)
    return res
