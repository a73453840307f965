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
Every applier preserves the standard interpretation exactly; scalar
bookkeeping uses floating degree-0 Z dots, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from .diagram import Diagram, H, Node, Z

MATCHABLE_RULES = ("S1", "S2", "H2", "Hopf", "B3", "B1")

# moves the simplifier is allowed to take (B3 restricted to its
# non-expanding forms: cancellation and state absorption)
_SIMPLIFY_PASSES = ("S2", "H2", "S1", "Hopf", "B1", "B3-cancel", "B3-state")


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


def _is_phase(x: complex, value: complex, tol: float = 1e-12) -> bool:
    return abs(complex(x) - value) <= tol


def _x_macro_groups(d: Diagram, inc):
    """Pi macros: chains H - Z(-1) deg 2 - H.  Returns a list of
    (h1, core, h2, outer1, outer2) with outer endpoints beyond the Hs."""
    groups = []
    for c, node in sorted(d.nodes.items()):
        if node.kind != Z or not _is_phase(node.phase, -1.0):
            continue
        if len(inc[c]) != 2:
            continue
        e1, e2 = inc[c]
        if e1 == e2:
            continue
        ends = []
        for e in (e1, e2):
            ep = _other_end(d.edges[e], c)
            if ep[0] != "n" or d.nodes[ep[1]].kind != H:
                break
            ends.append(ep[1])
        if len(ends) != 2 or ends[0] == ends[1]:
            continue
        h1, h2 = ends
        out1 = _outer_endpoint(d, inc, h1, c)
        out2 = _outer_endpoint(d, inc, h2, c)
        if out1 is None or out2 is None:
            continue
        groups.append((h1, c, h2, out1, out2))
    return groups


def _outer_endpoint(d, inc, h, core):
    """The endpoint on the far side of an H box away from the macro core;
    None if the H does not have exactly one edge to the core."""
    edges = inc[h]
    if len(edges) != 2:
        return None
    to_core = [e for e in edges
               if (lambda ep: ep[0] == "n" and ep[1] == core)(
                   _other_end(d.edges[e], h))]
    if len(to_core) != 1:
        return None
    far = [e for e in edges if e != to_core[0]][0]
    return (far, _other_end(d.edges[far], h))


# -- matchers --------------------------------------------------------------

def _match_s1(d: Diagram, inc):
    sites = []
    seen = set()
    for a, b in d.edges:
        if a[0] != "n" or b[0] != "n":
            continue
        v1, v2 = a[1], b[1]
        if v1 == v2:
            continue
        if d.nodes[v1].kind != Z or d.nodes[v2].kind != Z:
            continue
        pair = (min(v1, v2), max(v1, v2))
        if pair in seen:
            continue
        seen.add(pair)
        sites.append(_site("S1", pair,
                           (d.nodes[pair[0]].phase, d.nodes[pair[1]].phase)))
    return sorted(sites, key=lambda s: s[1])


def _match_s2(d: Diagram, inc):
    sites = []
    for v, node in sorted(d.nodes.items()):
        if node.kind != Z or not _is_phase(node.phase, 1.0):
            continue
        if len(inc[v]) != 2 or inc[v][0] == inc[v][1]:
            continue
        sites.append(_site("S2", (v,)))
    return sites


def _match_h2(d: Diagram, inc):
    sites = []
    seen = set()
    for a, b in d.edges:
        if a[0] != "n" or b[0] != "n":
            continue
        v1, v2 = a[1], b[1]
        if v1 == v2:
            continue
        if d.nodes[v1].kind != H or d.nodes[v2].kind != H:
            continue
        pair = (min(v1, v2), max(v1, v2))
        if pair not in seen:
            seen.add(pair)
            sites.append(_site("H2", pair))
    return sorted(sites, key=lambda s: s[1])


def _match_hopf(d: Diagram, inc):
    # two Z spiders joined by two disjoint single-H paths
    paths: dict[tuple[int, int], list[int]] = {}
    for h, node in sorted(d.nodes.items()):
        if node.kind != H or len(inc[h]) != 2:
            continue
        ends = [_other_end(d.edges[e], h) for e in inc[h]]
        if any(ep[0] != "n" for ep in ends):
            continue
        z1, z2 = ends[0][1], ends[1][1]
        if z1 == z2:
            continue
        if d.nodes[z1].kind != Z or d.nodes[z2].kind != Z:
            continue
        paths.setdefault((min(z1, z2), max(z1, z2)), []).append(h)
    sites = []
    for (z1, z2), hs in sorted(paths.items()):
        if len(hs) >= 2:
            sites.append(_site("Hopf", (z1, z2, hs[0], hs[1]),
                               (d.nodes[z1].phase, d.nodes[z2].phase)))
    return sites


def _match_b3(d: Diagram, inc):
    """Pi-macro moves, tagged by sub-kind in the site's rule name suffix."""
    groups = _x_macro_groups(d, inc)
    by_h = {}
    for g in groups:
        by_h[g[0]] = g
        by_h[g[2]] = g
    sites = []
    # cancellation: two groups wired in series
    seen = set()
    for g in groups:
        h1, c, h2, (e1, out1), (e2, out2) = g
        for (eo, outer) in ((e1, out1), (e2, out2)):
            if outer[0] == "n" and outer[1] in by_h:
                g2 = by_h[outer[1]]
                if g2[1] == c:
                    continue
                key = tuple(sorted((c, g2[1])))
                if key in seen:
                    continue
                seen.add(key)
                sites.append(_site("B3-cancel",
                                   (g[0], g[1], g[2], g2[0], g2[1], g2[2])))
    # absorption into a green state (degree-1 Z spider, nonzero parameter)
    for g in groups:
        h1, c, h2, (e1, out1), (e2, out2) = g
        for (eo, outer) in ((e1, out1), (e2, out2)):
            if outer[0] == "n":
                v = outer[1]
                nd = d.nodes[v]
                if nd.kind == Z and len(inc[v]) == 1 \
                        and not _is_phase(nd.phase, 0.0):
                    sites.append(_site("B3-state", (h1, c, h2, v),
                                       (nd.phase,)))
    # copy through a green spider (any degree, nonzero parameter); skip
    # groups whose both ends land on the same spider
    for g in groups:
        h1, c, h2, (e1, out1), (e2, out2) = g
        for (outer, opposite) in ((out1, out2), (out2, out1)):
            if outer[0] == "n":
                v = outer[1]
                if opposite[0] == "n" and opposite[1] == v:
                    continue
                nd = d.nodes[v]
                has_loop = any(a[0] == "n" and b[0] == "n"
                               and a[1] == v and b[1] == v
                               for a, b in (d.edges[e] for e in inc[v]))
                if nd.kind == Z and len(inc[v]) >= 2 and not has_loop \
                        and not _is_phase(nd.phase, 0.0):
                    sites.append(_site("B3-copy", (h1, c, h2, v),
                                       (nd.phase,)))
    return sorted(sites, key=lambda s: s[:2])


def _match_b1(d: Diagram, inc):
    """Pink 0-state macro (Z(1) state behind an H) feeding a Z spider."""
    sites = []
    for s, node in sorted(d.nodes.items()):
        if node.kind != Z or not _is_phase(node.phase, 1.0) or len(inc[s]) != 1:
            continue
        ep = _other_end(d.edges[inc[s][0]], s)
        if ep[0] != "n" or d.nodes[ep[1]].kind != H:
            continue
        h = ep[1]
        if len(inc[h]) != 2:
            continue
        far = [e for e in inc[h] if e != inc[s][0]]
        if len(far) != 1:
            continue
        outer = _other_end(d.edges[far[0]], h)
        if outer[0] == "n" and d.nodes[outer[1]].kind == Z \
                and outer[1] not in (s, h):
            sites.append(_site("B1", (s, h, outer[1]),
                               (d.nodes[outer[1]].phase,)))
    return sorted(sites, key=lambda s: s[1])


_MATCHERS = {
    "S1": _match_s1,
    "S2": _match_s2,
    "H2": _match_h2,
    "Hopf": _match_hopf,
    "B3": _match_b3,
    "B1": _match_b1,
}


def find_matches(d: Diagram, rule) -> list[MatchSite]:
    """All sites where the rule applies; deterministic order.

    ``rule`` is a rule name or a catalog RewriteRule.  Only the
    simplification subset is matchable; other catalog rules raise
    UnsupportedRuleError.
    """
    name = rule if isinstance(rule, str) else rule.name
    base = name.split("-")[0]
    if base not in _MATCHERS:
        raise UnsupportedRuleError(
            f"rule {name!r} has no graph matcher; matching is implemented "
            f"for {MATCHABLE_RULES}")
    sites = _MATCHERS[base](d, d.port_edges)
    if "-" in name:
        sites = [s for s in sites if s[0] == name]
    return [MatchSite(*s, d) for s in sites]


# -- rebuilding -------------------------------------------------------------

def _rebuild(d: Diagram, *, drop_nodes=(), drop_edges=(), new_edges=(),
             new_nodes=(), rephase=None, add_loops=0) -> Diagram:
    """Surgery helper: returns a new well-formed diagram.

    Ports of Z spiders are renumbered to stay contiguous; ports of H and
    triangle nodes must not be disturbed by the surgery.
    """
    drop_nodes = set(drop_nodes)
    drop_edges = set(drop_edges)
    nodes = {v: nd for v, nd in d.nodes.items() if v not in drop_nodes}
    if rephase:
        for v, phase in rephase.items():
            nodes[v] = Node(Z, complex(phase))
    next_id = max(list(d.nodes) + [-1]) + 1
    for nd in new_nodes:
        nodes[next_id] = nd
        next_id += 1
    edges = [e for i, e in enumerate(d.edges) if i not in drop_edges]
    edges += list(new_edges)
    # drop self-loops on Z spiders (each removes two legs, scalar-free)
    edges = [e for e in edges
             if not (e[0][0] == "n" and e[1][0] == "n"
                     and e[0][1] == e[1][1] and e[0][1] in nodes
                     and nodes[e[0][1]].kind == Z)]
    # renumber Z-spider ports contiguously
    counter: dict[int, int] = {}

    def fix(ep):
        if ep[0] == "n" and nodes[ep[1]].kind == Z:
            p = counter.get(ep[1], 0)
            counter[ep[1]] = p + 1
            return ("n", ep[1], p)
        return ep

    edges = [(fix(a), fix(b)) for a, b in edges]
    return Diagram(nodes, edges, d.n_in, d.n_out, loops=d.loops + add_loops)


def _scalar_node(value_minus_one: complex) -> Node:
    return Node(Z, complex(value_minus_one))


def apply(d: Diagram, site: MatchSite) -> Diagram:
    """Apply a match site; the result interprets identically."""
    if site.host is not d:
        raise StaleSiteError("site was computed on a different diagram")
    inc = d.port_edges

    if site.rule == "S1":
        v1, v2 = site.nodes
        a = d.nodes[v1].phase * d.nodes[v2].phase
        moved = []
        for e in sorted(set(inc[v2])):
            x, y = d.edges[e]
            x = ("n", v1, 0) if x[0] == "n" and x[1] == v2 else x
            y = ("n", v1, 0) if y[0] == "n" and y[1] == v2 else y
            moved.append((x, y))
        return _rebuild(d, drop_nodes=[v2], drop_edges=inc[v2],
                        new_edges=moved, rephase={v1: a})

    if site.rule == "S2":
        v, = site.nodes
        e1, e2 = inc[v]
        x = _other_end(d.edges[e1], v)
        y = _other_end(d.edges[e2], v)
        return _rebuild(d, drop_nodes=[v], drop_edges=[e1, e2],
                        new_edges=[(x, y)])

    if site.rule == "H2":
        v1, v2 = site.nodes
        shared = [e for e in inc[v1] if e in set(inc[v2])]
        if len(shared) == 2:
            # both H legs joined: the pair closes into a loop worth 4
            return _rebuild(d, drop_nodes=[v1, v2], drop_edges=shared,
                            new_nodes=[_scalar_node(1.0)], add_loops=1)
        e_mid = shared[0]
        far1 = [e for e in inc[v1] if e != e_mid][0]
        far2 = [e for e in inc[v2] if e != e_mid][0]
        x = _other_end(d.edges[far1], v1)
        y = _other_end(d.edges[far2], v2)
        return _rebuild(d, drop_nodes=[v1, v2],
                        drop_edges=[e_mid, far1, far2],
                        new_edges=[(x, y)], new_nodes=[_scalar_node(1.0)])

    if site.rule == "Hopf":
        z1, z2, h1, h2 = site.nodes
        drop_edges = [e for h in (h1, h2) for e in inc[h]]
        return _rebuild(d, drop_nodes=[h1, h2], drop_edges=drop_edges)

    if site.rule == "B3-cancel":
        h1, c1, h2, h3, c2, h4 = site.nodes
        group = {h1, c1, h2, h3, c2, h4}
        drop_edges = sorted({e for v in group for e in inc[v]})
        outer = []
        for e in drop_edges:
            for ep in d.edges[e]:
                if not (ep[0] == "n" and ep[1] in group):
                    outer.append(ep)
        scalars = [_scalar_node(1.0), _scalar_node(1.0)]
        if not outer:
            return _rebuild(d, drop_nodes=group, drop_edges=drop_edges,
                            new_nodes=scalars, add_loops=1)
        assert len(outer) == 2
        return _rebuild(d, drop_nodes=group, drop_edges=drop_edges,
                        new_edges=[(outer[0], outer[1])], new_nodes=scalars)

    if site.rule == "B3-state":
        h1, c, h2, v = site.nodes
        a = d.nodes[v].phase
        group = {h1, c, h2}
        drop_edges = sorted({e for w in group for e in inc[w]} | set(inc[v]))
        outer = []
        for e in drop_edges:
            for ep in d.edges[e]:
                if not (ep[0] == "n" and (ep[1] in group or ep[1] == v)):
                    outer.append(ep)
        assert len(outer) == 1
        return _rebuild(d, drop_nodes=group, drop_edges=drop_edges,
                        new_edges=[(outer[0], ("n", v, 0))],
                        rephase={v: 1.0 / a},
                        new_nodes=[_scalar_node(2.0 * a - 1.0)])

    if site.rule == "B3-copy":
        h1, c, h2, v = site.nodes
        a = d.nodes[v].phase
        deg = len(inc[v])
        group = {h1, c, h2}
        group_edges = sorted({e for w in group for e in inc[w]})
        touch = [e for e in group_edges
                 if any(ep[0] == "n" and ep[1] == v for ep in d.edges[e])]
        assert len(touch) == 1
        other_edges = sorted(set(inc[v]) - {touch[0]})
        far_outer = [ep for e in group_edges for ep in d.edges[e]
                     if not (ep[0] == "n" and (ep[1] in group or ep[1] == v))]
        assert len(far_outer) == 1
        new_nodes = []
        new_edges = [(far_outer[0], ("n", v, 0))]
        next_id = max(list(d.nodes) + [-1]) + 1
        drop = set(group_edges) | set(other_edges)
        for e in other_edges:
            far = _other_end(d.edges[e], v)
            ha, cc, hb = next_id, next_id + 1, next_id + 2
            next_id += 3
            new_nodes += [Node(H), Node(Z, -1.0), Node(H)]
            new_edges += [(("n", v, 0), ("n", ha, 0)),
                          (("n", ha, 1), ("n", cc, 0)),
                          (("n", cc, 1), ("n", hb, 0)),
                          (("n", hb, 1), far)]
        scale = a * 2.0 ** (2 - deg)
        new_nodes.append(_scalar_node(scale - 1.0))
        return _rebuild(d, drop_nodes=group, drop_edges=drop,
                        new_edges=new_edges, rephase={v: 1.0 / a},
                        new_nodes=new_nodes)

    if site.rule == "B1":
        s, h, v = site.nodes
        drop_edges = sorted(set(inc[s]) | set(inc[h]))
        return _rebuild(d, drop_nodes=[s, h], drop_edges=drop_edges,
                        rephase={v: 0.0}, new_nodes=[_scalar_node(1.0)])

    raise UnsupportedRuleError(f"no applier for {site.rule!r}")


# -- simplifier --------------------------------------------------------------

@dataclass
class SimplifyResult:
    diagram: Diagram
    steps: int
    budget_exhausted: bool
    trace: list


def simplify(d: Diagram, budget: int | None = None) -> SimplifyResult:
    """Apply the terminating move set to fixpoint or budget.

    Moves are taken in a fixed pass order with deterministic site order,
    so identical inputs give identical outputs.  The result's ``trace``
    logs each applied move's rule and matched nodes.
    """
    if budget is None:
        budget = 10 * len(d.nodes) + 20
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    log: list[dict] = []  # one entry per step
    while len(log) < budget:
        site = None
        for pass_name in _SIMPLIFY_PASSES:
            sites = find_matches(d, pass_name)
            if sites:
                site = sites[0]
                break
        if site is None:
            return SimplifyResult(d, len(log), False, log)
        d = apply(d, site)
        log.append({"rule": site.rule, "nodes": list(site.nodes)})
    exhausted = any(find_matches(d, p) for p in _SIMPLIFY_PASSES)
    return SimplifyResult(d, len(log), exhausted, log)
