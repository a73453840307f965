import gc
import json
import weakref

import numpy as np
import pytest

from zxel import diagram as D
from zxel import rules as R
from zxel.diagram import DiagramError
from zxel.semantics import (ResourceError, contract_state, interpret,
                            matrices_equal)

from zxel import normalform as NF
from zxel.io import dumps_diagram, load_diagram
from zxel.normalform import nf_from_vector, nf_to_diagram
from zxel.rewrite import simplify

from helpers import (H_MAT, compose_by_pairs, contraction_order_by_scan,
                     nf_family, port_edges_by_scan, random_complex,
                     random_diagram, run_python, splice_by_union_find,
                     tensor_by_pairs, walk_along)


def test_compose_identity_is_identity():
    d = D.compose(D.identity(1), D.identity(1))
    assert d.type == (1, 1)
    assert not d.nodes
    assert matrices_equal(interpret(d), np.eye(2))


def test_compose_two_spiders_gives_diagonal_product():
    a, b = 0.7 + 0.3j, -1.2 + 0.1j
    d = D.compose(D.z_spider(1, 1, a), D.z_spider(1, 1, b))
    # oracle: multiply the two interpretation matrices directly
    expect = np.diag([1, b]) @ np.diag([1, a])
    assert matrices_equal(interpret(d), expect)
    assert len(d.nodes) == 2


def test_compose_cap_cup_closed_loop():
    d = D.compose(D.cap(), D.cup())
    assert d.type == (0, 0)
    assert d.loops == 1
    # oracle: (1,0,0,1) . (1,0,0,1)^T = 2
    assert matrices_equal(interpret(d), np.array([[2.0]]))


def test_compose_arity_mismatch():
    with pytest.raises(DiagramError):
        D.compose(D.cap(), D.identity(1))


def test_tensor_with_empty():
    d = D.tensor(D.empty(), D.triangle())
    assert d.structural_key() == D.triangle().structural_key()


def test_tensor_h_h_kronecker():
    d = D.tensor(D.h_box(), D.h_box())
    assert matrices_equal(interpret(d), np.kron(H_MAT, H_MAT))


def test_tensor_cap_cap_boundaries():
    d = D.tensor(D.cap(), D.cap())
    assert d.type == (0, 4)


# 1 -> 1 chains of (id, kind, phase) nodes, in order from input to output;
# node ids are any integers, negative ones included
_NEGATIVE_ID_CHAINS = (
    [(-3, "z", 2.0), (-1, "h", None)],
    [(-1, "z", 3.0), (0, "t", None)],
    [(-2, "h", None), (5, "z", 0.5j)],
)


def _chain_piece(chain, path=None) -> D.Diagram:
    """The chain as a Diagram, or, given a path, loaded from a file
    written there."""
    ends = [["in", 0]]
    for v, _, _ in chain:
        ends += [["node", v, 0], ["node", v, 1]]
    ends.append(["out", 0])
    edges = list(zip(ends[::2], ends[1::2]))
    if path is None:
        return D.Diagram({v: D.Node(kind, 1.0 if phase is None else phase)
                          for v, kind, phase in chain},
                         [[("n", *ep[1:]) if ep[0] == "node" else tuple(ep)
                           for ep in edge] for edge in edges], 1, 1)
    nodes = [{"id": v, "kind": kind} if phase is None else
             {"id": v, "kind": kind, "phase": [phase.real, phase.imag]}
             for v, kind, phase in chain]
    path.write_text(json.dumps({"version": "zxel/1", "inputs": 1,
                                "outputs": 1, "nodes": nodes,
                                "edges": edges}))
    return load_diagram(str(path))


@pytest.mark.parametrize("loaded", [False, True])
def test_negative_node_ids_survive_compose_and_tensor(loaded, tmp_path):
    pieces = [_chain_piece(chain, tmp_path / f"{k}.zx" if loaded else None)
              for k, chain in enumerate(_NEGATIVE_ID_CHAINS)]
    a, b, c = pieces
    ma, mb, mc = map(interpret, pieces)
    for d, n, want in ((D.compose(a, a), 4, ma @ ma),
                       (D.tensor(a, a), 4, np.kron(ma, ma)),
                       (D.compose(b, c), 4, mc @ mb),
                       (D.tensor(b, c), 4, np.kron(mb, mc)),
                       (D.compose_all(pieces), 6, mc @ mb @ ma)):
        assert len(d.nodes) == n
        assert matrices_equal(interpret(d), want)


def test_bend_identity_is_cap():
    v = contract_state(D.bend_to_state(D.identity(1)))
    assert np.allclose(v, [1, 0, 0, 1])


def test_bend_state_unchanged():
    s = D.z_spider(0, 1, 2.5j)
    assert np.allclose(contract_state(D.bend_to_state(s)),
                       contract_state(s))


def test_bend_h():
    # oracle: sum_i |i> (x) H|i> under the recorded ordering convention
    v = contract_state(D.bend_to_state(D.h_box()))
    expect = np.zeros(4, dtype=complex)
    for i in range(2):
        for o in range(2):
            expect[2 * i + o] = H_MAT[o, i]
    assert np.allclose(v, expect)
    assert np.allclose(v, [1, 1, 1, -1])


def test_bend_matches_explicit_cap_composition():
    d = D.compose(D.z_spider(1, 1, 1.3 - 0.4j), D.h_box())
    bent = D.bend_to_state(d)
    explicit = D.compose(D.cap(), D.tensor(D.identity(1), d))
    assert np.allclose(contract_state(bent), contract_state(explicit))


def _unbend(bent: D.Diagram, n: int, m: int) -> D.Diagram:
    """Inverse of bend_to_state: plug each bent former input against a
    fresh input wire with a cup, per the recorded ordering convention."""
    t0 = D.tensor(D.identity(n), bent)
    order = []
    for s in range(n):
        order += [s, n + (n - 1 - s)]
    order += list(range(2 * n, 2 * n + m))
    plugs = D.tensor_all([D.cup()] * n + [D.identity(m)])
    return D.compose(t0, D.compose(D.permutation(order), plugs))


def test_bend_roundtrip_semantics():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = random_diagram(rng)
        bent = D.bend_to_state(d)
        assert bent.type == (0, d.n_in + d.n_out)
        # inverse bending reconstructs a diagram with the same semantics
        unbent = _unbend(bent, d.n_in, d.n_out)
        assert matrices_equal(interpret(unbent), interpret(d), 1e-9)
        # coefficientwise, the bent block carries the reversed input slots
        mat = interpret(d)
        v = contract_state(bent).reshape(2 ** d.n_in, 2 ** d.n_out)
        for c in range(2 ** d.n_in):
            rev = int(format(c, f"0{d.n_in}b")[::-1], 2) if d.n_in else 0
            assert np.allclose(v[rev, :], mat[:, c])


def test_x_spider_pi_is_not_macro_scaled():
    assert matrices_equal(interpret(D.x_spider(1, 1, D.TAU_PI)),
                          np.array([[0, 1], [1, 0]]))


def test_x_spider_bad_tau():
    with pytest.raises(DiagramError):
        D.x_spider(1, 1, 0.5)


def test_flip_transposes():
    rng = np.random.default_rng(5)
    for _ in range(15):
        d = random_diagram(rng)
        assert matrices_equal(interpret(D.flip(d)), interpret(d).T)


def test_wellformedness_rejects_dangling():
    with pytest.raises(DiagramError):
        D.Diagram({}, [(("in", 0), ("out", 0))], 2, 1)
    with pytest.raises(DiagramError):
        D.Diagram({}, [(("in", 0), ("in", 1)), (("in", 1), ("in", 2))], 3, 0)


def test_wellformedness_rejects_degree_mismatch():
    with pytest.raises(DiagramError):
        D.Diagram({0: D.Node(D.H)}, [(("in", 0), ("n", 0, 0))], 1, 0)


@pytest.mark.parametrize("phase", [complex(float("inf"), 0), float("nan"),
                                   complex(1, float("-inf"))])
def test_node_rejects_non_finite_phase(phase):
    with pytest.raises(DiagramError, match="not finite"):
        D.Node(D.Z, phase)
    with pytest.raises(DiagramError, match="not finite"):
        D.z_spider(1, 1, phase)


@pytest.mark.parametrize("nodes, edges, n_in, n_out, loops, message", [
    ({}, [(("in", 0), ("out", 0)), (("in", 0), ("out", 1))], 1, 2, 0,
     "used 2 times"),
    ({}, [(("in", 1), ("out", 0))], 1, 1, 0, "input slot 1 out of range"),
    ({}, [(("in", 0), ("out", 3))], 1, 1, 0, "output slot 3 out of range"),
    ({}, [(("in", 0), ("n", 7, 0))], 1, 0, 0, "missing node 7"),
    ({0: D.Node(D.Z)}, [(("in", 0), ("n", 0, 0)), (("out", 0), ("n", 0, 2))],
     1, 1, 0, "not contiguous"),
    ({}, [(("in", 0), ("glue", 0))], 1, 0, 0, "bad endpoint tag 'glue'"),
    ({}, [], 0, 0, -1, "negative boundary or loop count"),
])
def test_wellformedness_rejects(nodes, edges, n_in, n_out, loops, message):
    with pytest.raises(DiagramError, match=message):
        D.Diagram(nodes, edges, n_in, n_out, loops=loops)


@pytest.mark.parametrize("edge", [
    [["in", 0], ["n", 0, 0]],              # list endpoints
    (("in", 0), ("n", 0, 0), ("n", 0, 1)),  # three endpoints
    (("in", 0),),                           # one endpoint
    (("in", 0), ("n", 0)),                  # a node end without a port
    (("in", 0.0), ("n", 0, 0)),             # a float slot
    (("in", 0), ("n", 0.0, 0)),             # a float node id
    (("in", False), ("n", 0, 0)),           # a bool slot
    (("in", 0), ("n", 0, False)),           # a bool port
    (("in", 0, 0), ("n", 0, 0)),            # a slot with a port
    ((), ("n", 0, 0)),                      # an empty endpoint
])
def test_malformed_endpoints_raise_diagram_error_naming_the_edge(edge):
    # the constructor is the trust boundary: each of these used to be
    # accepted, or to fail with TypeError, ValueError or IndexError
    with pytest.raises(DiagramError, match=r"^edge 0 "):
        D.Diagram({0: D.Node(D.Z)}, [edge], 1, 0)


def test_wellformedness_after_combinators():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        D.tensor(d1, d2).check_validity()
        if d1.n_out == d2.n_in:
            D.compose(d1, d2).check_validity()
        D.flip(d1).check_validity()
        D.bend_to_state(d1).check_validity()


def test_permutation_wiring():
    p = D.permutation([2, 0, 1])
    mat = interpret(p)
    for bits in range(8):
        src = [(bits >> 2) & 1, (bits >> 1) & 1, bits & 1]  # slots 0,1,2
        out = [src[2], src[0], src[1]]  # output slot j <- input slot perm[j]
        col = mat[:, bits]
        k = (out[0] << 2) | (out[1] << 1) | out[2]
        assert col[k] == 1 and col.sum() == 1


def test_self_loop_permitted():
    # a spider with a self-loop arises from plugging; loop drops two legs
    d = D.Diagram({0: D.Node(D.Z, 2.0)},
                  [(("n", 0, 0), ("n", 0, 1)), (("in", 0), ("n", 0, 2)),
                   (("out", 0), ("n", 0, 3))], 1, 1)
    assert matrices_equal(interpret(d), np.diag([1, 2.0]))
    assert d.port_edges == port_edges_by_scan(d) == {0: (0, 0, 1, 2)}


def _simplify_steps(d):
    """Every intermediate diagram of ``simplify`` on d, d itself first."""
    steps = simplify(d).steps
    return [simplify(d, budget=k).diagram for k in range(steps + 1)]


def test_port_edges_matches_scan():
    rng = np.random.default_rng(11)
    corpus = [random_diagram(rng) for _ in range(60)]
    corpus += [D.bend_to_state(d) for d in corpus[:20]]
    for m in (2, 3, 4):
        v = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
        corpus.append(nf_to_diagram(nf_from_vector(v)))
    # the rewriter is the index's main reader: check what it builds
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    corpus += _simplify_steps(nf_to_diagram(nf_from_vector(v)))
    for _ in range(20):
        corpus += _simplify_steps(random_diagram(rng))
    for d in corpus:
        assert d.port_edges == port_edges_by_scan(d)


def _order_corpus():
    rng = np.random.default_rng(12)
    corpus = [random_diagram(rng) for _ in range(60)]
    corpus += [D.bend_to_state(d) for d in corpus[:20]]
    corpus.append(D.tensor_all([D.z_spider(1, 1, 2.0), D.scalar_z(0.5),
                                D.identity(2), D.h_box()]))
    for m in (2, 3):
        v = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
        corpus.append(nf_to_diagram(nf_from_vector(v)))
    return corpus


def _node_ids(walk):
    """The node ids of a walk, per component."""
    return [[v for v, *_ in steps] for steps in walk]


def test_contraction_order_partitions_into_components():
    for d in _order_corpus():
        pe = d.port_edges
        order = _node_ids(D.contraction_order(pe))
        flat = [v for component in order for v in component]
        assert sorted(flat) == d.node_ids()
        assert [c[0] for c in order] == sorted(min(c) for c in order)
        edge_ends = {}
        for v, edges in pe.items():
            for i in edges:
                edge_ends.setdefault(i, set()).add(v)
        for component in order:
            # every node after the first touches an earlier one
            for k, v in enumerate(component[1:], start=1):
                assert any(v in ends and ends & set(component[:k])
                           for ends in edge_ends.values()), (component, v)
            # and no edge leaves the component
            for ends in edge_ends.values():
                assert not ends & set(component) or ends <= set(component)


def test_contraction_order_matches_greedy_reference():
    for d in _order_corpus():
        walk = list(D.contraction_order(d.port_edges))
        order = contraction_order_by_scan(d)
        assert _node_ids(walk) == order
        # each step's open and shared edges, recomputed from the edges
        # alone along the same order
        assert walk == walk_along(port_edges_by_scan(d), order)
        # a component's part ends holding its boundary edges
        for component, steps in zip(order, walk):
            held = set()
            for _, open_, shared in steps:
                assert set(shared) <= held
                held ^= set(open_)
            assert sorted(held) == [
                i for i, (a, b) in enumerate(d.edges)
                if a[0] == "n" and a[1] in component and b[0] != "n"]
        # deterministic: the order of the node dict does not matter
        shuffled = D.Diagram(dict(reversed(d.nodes.items())), d.edges,
                             d.n_in, d.n_out, loops=d.loops)
        assert list(D.contraction_order(shuffled.port_edges)) == walk


def test_contraction_order_edge_cases():
    assert list(D.contraction_order(D.empty().port_edges)) == []
    loop = D.Diagram({0: D.Node(D.Z, 2.0)},
                     [(("n", 0, 0), ("n", 0, 1)), (("in", 0), ("n", 0, 2)),
                      (("out", 0), ("n", 0, 3))], 1, 1)
    assert list(D.contraction_order(loop.port_edges)) == [[(0, (1, 2), ())]]
    # a self-loop adds no wire: after node 0, node 2 (two wires and a
    # self-loop) leaves fewer open wires than node 1 (three wires)
    d = D.Diagram({0: D.Node(D.Z), 1: D.Node(D.Z), 2: D.Node(D.Z)},
                  [(("n", 0, 0), ("n", 1, 0)), (("n", 0, 1), ("n", 2, 0)),
                   (("n", 2, 1), ("n", 2, 2)), (("n", 1, 1), ("out", 0)),
                   (("n", 1, 2), ("out", 2)), (("n", 2, 3), ("out", 1))],
                  0, 3)
    assert list(D.contraction_order(d.port_edges)) == [
        [(0, (0, 1), ()), (2, (1, 5), (1,)), (1, (0, 3, 4), (0,))]]


def _z_grid(n):
    """An n x n grid of Z spiders, each joined to its right and lower
    neighbours, with no boundary: its greedy walk's part grows to about
    n wires."""
    ports = [0] * (n * n)

    def port(v):
        ports[v] += 1
        return ("n", v, ports[v] - 1)

    edges = []
    for v in range(n * n):
        if (v + 1) % n:  # a right neighbour
            edges.append((port(v), port(v + 1)))
        if v + n < n * n:  # a lower neighbour
            edges.append((port(v), port(v + n)))
    return D.Diagram({v: D.Node(D.Z, 2.0) for v in range(n * n)}, edges,
                     0, 0)


def test_contraction_order_is_linear_in_the_diagram():
    # each step carries its node, its open edges and the shared ones, no
    # copy of the part: every edge is open at both ends and shared at the
    # second, so the walk holds 3 * |edges| + |nodes| items in all
    d = _z_grid(60)

    def size(x):  # an id counts one, a list or tuple its items
        return 1 if isinstance(x, int) else sum(map(size, x))

    assert size(D.contraction_order(d.port_edges)) <= (
        3 * len(d.edges) + len(d.nodes))


def test_grid_over_the_cap_is_refused_at_its_first_wide_step():
    d = _z_grid(60)
    with pytest.raises(ResourceError,
                       match="^contraction needs 15 open wires, cap is 14$"):
        interpret(d, cap=14)
    with pytest.raises(NF.WireCapError, match="^normalisation frontier "
                       "reached 15 wires, cap is 14$"):
        NF.normalize(d, cap=14)


# -- n-ary combinators -------------------------------------------------------

def _assert_same(d, ref):
    """Byte-equal serializations, and the same node ids, edge order and
    loop count."""
    assert dumps_diagram(d) == dumps_diagram(ref)
    assert list(d.nodes.items()) == list(ref.nodes.items())
    assert d.edges == ref.edges and d.loops == ref.loops


def _random_piece(rng, w):
    """A piece with w inputs: wiring (caps, cups, permutations, identity)
    or a generator beside identity wires."""
    pick = int(rng.integers(0, 8))
    if pick == 0 and w >= 2:
        return D.tensor(D.identity(w - 2), D.cup())
    if pick == 1 and w <= 4:
        return D.tensor(D.cap(), D.identity(w))
    if pick == 2:
        return D.permutation([int(i) for i in rng.permutation(w)])
    if pick == 3 and w >= 2:
        return D.tensor(D.identity(w - 2), D.z_spider(
            2, int(rng.integers(0, 3)), random_complex(rng)))
    if pick == 4 and w >= 1:
        return D.tensor(D.x_spider(1, 1, D.TAU_PI), D.identity(w - 1))
    if pick == 5 and w >= 1:
        return D.tensor(D.identity(w - 1), D.triangle())
    if pick == 6 and w <= 4:
        return D.tensor(D.identity(w), D.z_spider(0, 1, random_complex(rng)))
    return D.identity(w)


def test_compose_all_matches_pairwise_fold_on_random_chains():
    rng = np.random.default_rng(11)
    loops = 0
    for _ in range(150):
        chain = [_random_piece(rng, int(rng.integers(0, 3)))]
        for _ in range(int(rng.integers(1, 8))):
            chain.append(_random_piece(rng, chain[-1].n_out))
        d = D.compose_all(chain)
        _assert_same(d, compose_by_pairs(chain))
        loops += d.loops
    assert loops > 0  # some chains closed a bare loop


def _glued(chain):
    """The nodes and edges of a chain side by side, node ids shifted as a
    fold from the left shifts them, and output j of piece k and input j
    of piece k + 1 both renamed to the junction ("glue", k, j)."""
    nodes, edges = {}, []
    last = len(chain) - 1
    for k, d in enumerate(chain):
        shift = max(nodes, default=-1) + 1

        def ren(ep):
            if ep[0] == "n":
                return ("n", ep[1] + shift, ep[2])
            if ep[0] == "in":
                return ep if k == 0 else ("glue", k - 1, ep[1])
            return ep if k == last else ("glue", k, ep[1])

        nodes.update((v + shift, nd) for v, nd in d.nodes.items())
        edges += [(ren(a), ren(b)) for a, b in d.edges]
    return nodes, edges


def _assert_compose_matches_reference(chain):
    """``compose_all`` of the chain, through its memo and past it, has
    the edges, loops and ``port_edges`` of splicing the glued chain by
    union-find and validating the result; gives the reference's edges
    and the loops the splice closed."""
    nodes, glued = _glued(chain)
    want, loops = splice_by_union_find(glued)
    ref = D.Diagram(nodes, want, chain[0].n_in, chain[-1].n_out,
                    loops=sum(d.loops for d in chain) + loops)
    d = D.compose_all(chain)
    assert dict(d.nodes) == nodes
    for s in (d.shape, D.compose_all.__wrapped__([c.shape for c in chain])):
        assert list(s.edges) == want and s.loops == ref.loops
        assert list(s.port_edges.items()) == list(ref.port_edges.items())
    return want, loops


def _wiring_piece(rng, w):
    """A piece with w inputs, mostly bare wiring: a cap, cup or swap among
    identity wires, now and then an H box there instead, or identity
    wires alone."""
    gadget = [D.cap(), D.cup(), D.swap(), D.h_box(), None][rng.integers(5)]
    if gadget is None or gadget.n_in > w or (gadget.n_in == 0 and w > 4):
        return D.identity(w)
    at = int(rng.integers(0, w - gadget.n_in + 1))
    return D.tensor_all([D.identity(at), gadget,
                         D.identity(w - gadget.n_in - at)])


def test_splice_matches_union_find_reference_on_wiring_chains():
    rng = np.random.default_rng(14)
    loops = 0
    for _ in range(400):
        chain = [_wiring_piece(rng, int(rng.integers(0, 4)))]
        for _ in range(int(rng.integers(1, 10))):
            chain.append(_wiring_piece(rng, chain[-1].n_out))
        loops += _assert_compose_matches_reference(chain)[1]
    assert loops > 50  # many chains closed bare loops


@pytest.mark.parametrize("m", range(1, 7))
def test_splice_matches_union_find_reference_on_normal_form_chains(m):
    # the chain nf_to_diagram composes: the base state, then every
    # gadget's stages
    rng = np.random.default_rng(m)
    nf = nf_from_vector(rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m))
    chain = [NF.base_state(m)] + [
        stage for (kind, _, *wires), a in NF.elementary_specs(nf)
        for stage in NF._stages(m, a, wires[0] if kind == "add" else None)]
    _assert_compose_matches_reference(chain)


@pytest.mark.parametrize("chain, edges, loops", [
    ([D.cap(), D.identity(2), D.cup()], [], 1),
    ([D.cap(), D.swap(), D.cup()], [], 1),
    ([D.tensor(D.cap(), D.cap()), D.tensor_all(
        [D.identity(1), D.swap(), D.identity(1)]), D.tensor(D.cup(), D.cup())],
     [], 1),
    ([D.tensor(D.cap(), D.cap()), D.tensor(D.cup(), D.cup())], [], 2),
    ([D.tensor(D.identity(1), D.cap()), D.tensor(D.cup(), D.identity(1))],
     [(("in", 0), ("out", 0))], 0),
    ([D.tensor(D.cap(), D.identity(1)), D.tensor(D.identity(1), D.cup())],
     [(("in", 0), ("out", 0))], 0),
])
def test_splice_closes_loops_and_straightens_snakes(chain, edges, loops):
    assert _assert_compose_matches_reference(chain) == (edges, loops)
    d = D.compose_all(chain)
    assert list(d.edges) == edges and d.loops == loops


def test_tensor_all_matches_pairwise_fold():
    rng = np.random.default_rng(12)
    for _ in range(60):
        pieces = [random_diagram(rng) if rng.uniform() < 0.6
                  else _random_piece(rng, int(rng.integers(0, 3)))
                  for _ in range(int(rng.integers(0, 6)))]
        _assert_same(D.tensor_all(pieces), tensor_by_pairs(pieces))


def test_compose_all_loop_across_pieces():
    bare = [D.cap(), D.identity(2), D.swap(), D.identity(2), D.cup()]
    d = D.compose_all(bare)
    assert d.loops == 1 and not d.nodes and d.type == (0, 0)
    _assert_same(d, compose_by_pairs(bare))
    # the same wire through a node is not a bare loop
    dotted = bare[:2] + [D.tensor(D.h_box(), D.identity(1))] + bare[2:]
    d = D.compose_all(dotted)
    assert d.loops == 0
    _assert_same(d, compose_by_pairs(dotted))
    assert matrices_equal(interpret(d), np.array([[np.trace(H_MAT)]]))


def test_combinators_on_pieces_without_nodes():
    wiring = [D.identity(3), D.permutation([2, 0, 1]), D.empty(),
              D.tensor(D.swap(), D.identity(1))]
    chain = [wiring[0], wiring[1], wiring[3], D.identity(3)]
    _assert_same(D.compose_all(chain), compose_by_pairs(chain))
    _assert_same(D.tensor_all(wiring), tensor_by_pairs(wiring))
    mixed = [D.empty(), D.h_box(), D.empty(), D.cap(), D.triangle()]
    _assert_same(D.tensor_all(mixed), tensor_by_pairs(mixed))
    _assert_same(D.tensor_all([]), D.empty())


def test_combinators_single_piece():
    d = D.compose(D.x_spider(1, 3, D.TAU_ZERO), D.tensor(D.h_box(), D.cup()))
    assert D.compose_all([d]) is d
    _assert_same(D.tensor_all([d]), tensor_by_pairs([d]))
    with pytest.raises(DiagramError):
        D.compose_all([])


@pytest.mark.parametrize("where", range(4))
def test_compose_all_arity_mismatch_anywhere(where):
    chain = [D.identity(2), D.swap(), D.h_box(), D.triangle(), D.cup()]
    chain[3] = D.identity(2)  # 2 -> 2 pieces throughout, then 2 -> 0
    chain[2] = D.tensor(D.h_box(), D.identity(1))
    assert D.compose_all(chain).type == (2, 0)
    chain[where] = D.identity(3)
    with pytest.raises(DiagramError, match="arity mismatch"):
        D.compose_all(chain)


def test_nf_to_diagram_matches_pairwise_fold():
    rng = np.random.default_rng(7)
    for m in range(7):
        nf = nf_from_vector([random_complex(rng) for _ in range(2 ** m)])
        if m == 0:
            ref = compose_by_pairs([D.z_spider(0, 1, nf.coeffs[0]),
                                    D.x_spider(1, 0, D.TAU_PI)])
        else:
            ref = compose_by_pairs(
                [NF.base_state(m)]
                + [NF.gadget(*pair) for pair in NF.elementary_specs(nf)])
        _assert_same(nf_to_diagram(nf), ref)


def test_nf_to_diagram_keeps_no_gadget_shape_alive():
    # one splice of all stages: the result's memo entry holds the stage
    # shapes, which every gadget shares, and no shape of a whole gadget
    def live_5_to_5():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, D._Shape)
                and (o.n_in, o.n_out) == (5, 5) and o.kinds]

    before = live_5_to_5()  # such as _pi_layer's, cached by other tests
    rng = np.random.default_rng(11)
    d = nf_to_diagram(nf_from_vector(
        [random_complex(rng) for _ in range(2 ** 5)]))
    built = [o for o in live_5_to_5() if not any(o is b for b in before)]
    assert d.type == (0, 5) and not built



def test_nodes_are_read_only():
    d = D.z_spider(1, 1, 2.0)
    with pytest.raises(TypeError):
        d.nodes[0] = D.Node(D.H)
    with pytest.raises(TypeError):
        del d.nodes[0]
    with pytest.raises(AttributeError):
        d.loops = 3
    assert d.nodes[0] == D.Node(D.Z, 2.0)
    # the incidence index is stored once and cannot change either
    with pytest.raises(AttributeError):
        d.port_edges = {0: (1, 0)}
    with pytest.raises(TypeError):
        d.port_edges[0] = (1, 0)
    with pytest.raises(TypeError):
        del d.port_edges[0]
    with pytest.raises(TypeError):
        d.port_edges[0][0] = 1
    assert d.port_edges == {0: (0, 1)}


def test_parameter_free_gadgets_are_shared():
    assert D.x_spider(2, 1) is D.x_spider(2, 1)
    assert D.identity(3) is D.identity(3)
    assert NF.base_state(3) is NF.base_state(3)
    assert NF.pi_layer(3, [0, 2]) is NF.pi_layer(3, (2, 0))
    # a phase-carrying builder is not memoised
    assert D.z_spider(1, 1, 2.0) is not D.z_spider(1, 1, 2.0)


# -- shapes and the shape memo ---------------------------------------------

def _builds_on_miss_and_hit(build):
    """``build()`` with the shape memo cleared, then again with the first
    result alive, so that every combinator in it can hit."""
    D._SHAPES.clear()
    miss = build()
    return miss, build()


def test_memo_hit_builds_what_a_miss_builds():
    rng = np.random.default_rng(11)
    hits = 0
    for rule in R.full_catalog():
        for _ in range(3):
            params = R._random_params(rule, rng) if rule.arity else []
            miss, hit = _builds_on_miss_and_hit(
                lambda: R.instantiate(rule, params))
            for a, b in zip(miss, hit):
                assert dumps_diagram(a) == dumps_diagram(b), rule.name
                assert a.structural_key() == b.structural_key(), rule.name
                assert tuple(a.nodes) == tuple(b.nodes), rule.name
                hits += a.shape is b.shape
    assert hits > len(R.full_catalog())
    rng = np.random.default_rng(1)
    for m in range(2, 7):
        nf = nf_from_vector(rng.uniform(1, 9, 2 ** m))
        miss, hit = _builds_on_miss_and_hit(lambda: nf_to_diagram(nf))
        assert hit.shape is miss.shape
        assert dumps_diagram(miss) == dumps_diagram(hit)
        assert miss.structural_key() == hit.structural_key()


def test_draws_of_a_rule_share_a_shape():
    rule = R.catalog_by_name()["S1"]
    (l1, r1), (l2, r2) = (R.instantiate(rule, ps)
                          for ps in ([0.5, 2j], [-1.5, 3.0]))
    assert l1.shape is l2.shape and r1.shape is r2.shape
    assert l1.port_edges is l2.port_edges
    assert D.flip(l1).shape == D.flip(l2).shape
    assert l1.nodes != l2.nodes


def test_shapes_differing_in_loops_or_kinds_stay_apart():
    bare = D.identity(1)
    looped = D.Diagram({}, [(("in", 0), ("out", 0))], 1, 1, loops=1)
    assert bare.shape != looped.shape
    assert [D.compose(d, D.h_box()).loops for d in (bare, looped)] == [0, 1]
    assert [D.tensor(d, D.identity(1)).loops for d in (bare, looped)] == [0, 1]
    h, t = (D.tensor(g, D.identity(1)) for g in (D.h_box(), D.triangle()))
    assert h.shape != t.shape
    assert [d.nodes[0].kind for d in (h, t)] == [D.H, D.T]
    assert [D.flip(d).nodes[0].kind for d in (h, t)] == [D.H, D.T]


def test_memo_entries_die_with_their_diagrams(monkeypatch):
    # the memo holds the shapes of S1's sides while check_soundness runs,
    # and none of them once its diagrams are gone
    def record(*ds, columns):
        memo = {id(shape) for shape in D._SHAPES.values()}
        held.extend(weakref.ref(d.shape) for d in ds if id(d.shape) in memo)
        return drawn(*ds, columns)

    held = []
    drawn = R._interpret_drawn
    monkeypatch.setattr(R, "_interpret_drawn",
                        lambda d, f, columns: record(d, f, columns=columns))
    R.check_soundness(R.catalog_by_name()["S1"], samples=3)
    gc.collect()
    assert held and not any(ref() for ref in held)


_WRAPPED_FLIP = """
import zxel.diagram as D
import zxel.rules as R

def main():
    def built(a):
        return D.compose(D.z_spider(1, 2, a), D.tensor(D.h_box(), D.triangle()))

    before = D.flip(built(0.5))
    results = []
    flip = D.flip
    D.flip = R.flip = lambda d: results.append(flip(d)) or results[-1]
    assert R.check_soundness(R.catalog_by_name()["S1"], samples=3).ok
    for a in (2j, -1.0, 3.0):
        results.append(D.compose(D.flip(D.flip(built(a))),
                                 D.tensor(D.triangle(), D.identity(1))))
    after = D.flip(built(-0.25))
    D.flip = R.flip = flip
    print(after.shape == before.shape)

main()
"""


def test_a_wrapped_flip_shares_the_memo_and_exits_quietly():
    # a wrapper patched over flip, holding its results until exit, as a
    # tracer or a test does: wrapped and unwrapped flips of one shape
    # have equal shapes, and the memo entries of their pieces' shapes,
    # which die while the module is torn down at exit, go without a word
    proc = run_python("-c", _WRAPPED_FLIP)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-2000:]
    assert proc.stdout == "True\n"


def test_a_memo_hit_gives_a_cold_builds_nodes_and_shape():
    a, b = D.z_spider(1, 2, 0.5), D.tensor(D.h_box(), D.triangle())
    c = D.z_spider(2, 1, 2j)
    for build in (lambda: D.compose_all([a, b, c]),
                  lambda: D.tensor_all([c, a, D.identity(1), c])):
        miss, hit = _builds_on_miss_and_hit(build)
        assert hit is not miss and hit.shape is miss.shape
        assert hit.nodes == miss.nodes
        assert tuple(hit.nodes) == tuple(miss.nodes)
        with pytest.raises(TypeError):
            hit.nodes[0] = D.Node(D.Z)


def _fresh_shape() -> D._Shape:
    """A shape no other diagram holds."""
    return D.Diagram({0: D.Node(D.H)}, [(("in", 0), ("n", 0, 0)),
                                        (("out", 0), ("n", 0, 1))],
                     1, 1).shape


def test_a_memo_entry_dies_with_its_last_diagram():
    d = D.compose(D.z_spider(1, 3, 0.5), D.tensor_all([D.h_box()] * 3))
    shape = weakref.ref(d.shape)
    keys = [k for k, s in D._SHAPES.items() if s is d.shape]
    assert keys
    e = D.compose(D.z_spider(1, 3, 2j), D.tensor_all([D.h_box()] * 3))
    assert e.shape is d.shape
    del d
    gc.collect()
    assert all(D._SHAPES.get(k) is e.shape for k in keys)
    del e
    gc.collect()
    assert shape() is None and not any(k in D._SHAPES for k in keys)
    # a dead shape takes its entry only while the entry still holds it:
    # a shape stored over an older one under the same key keeps the key
    # when the older one dies
    key = ("a key of no combinator",)
    first, second = _fresh_shape(), _fresh_shape()
    D._SHAPES[key] = first
    D._SHAPES[key] = second
    del first
    gc.collect()
    assert D._SHAPES.get(key) is second
    del second
    gc.collect()
    assert key not in D._SHAPES


def test_shapes_are_read_only():
    d = D.z_spider(1, 1, 2.0)
    with pytest.raises(AttributeError):
        d.shape.loops = 1
    with pytest.raises(AttributeError):
        d.shape.edges = ()


def _adapter(n, m):
    """n -> m: the first min(n, m) wires pass, the rest are capped off
    in pairs by cups (n > m) or opened in pairs by caps (n < m), a wire
    left over ending in a Z state or costate."""
    k = min(n, m)
    rest, gadget, end = ((n - k, D.cup(), D.z_spider(1, 0, 0.5)) if n > m
                         else (m - k, D.cap(), D.z_spider(0, 1, 0.5)))
    return D.tensor_all([D.identity(k)] + [gadget] * (rest // 2)
                        + [end] * (rest % 2))


def _random_tree(rng, depth, flips):
    """A diagram of random type: a generator or bare wiring at depth 0,
    else the compose_all (through adapters), tensor_all or flip of
    smaller trees; each flip made is appended to ``flips``."""
    if depth == 0:
        n, m = (int(k) for k in rng.integers(0, 3, 2))
        return [D.z_spider(n, m, random_complex(rng)), D.h_box(), D.cap(),
                D.triangle(), D.triangle_inv(), D.identity(n), D.swap(),
                D.cup(), D.x_spider(1, 1, D.TAU_PI),
                D.empty()][rng.integers(10)]
    pick = rng.integers(3)
    if pick == 0:
        flips.append(D.flip(_random_tree(rng, depth - 1, flips)))
        return flips[-1]
    pieces = [_random_tree(rng, depth - 1, flips)
              for _ in range(int(rng.integers(2, 4)))]
    if pick == 1:
        return D.tensor_all(pieces)
    chain = [pieces[0]]
    for piece in pieces[1:]:
        chain += [_adapter(chain[-1].n_out, piece.n_in), piece]
    return D.compose_all(chain)


def _assert_derived_shape_is_validated(d):
    """``d``'s shape, which a combinator built from its pieces, equals the
    shape ``Diagram(...)`` validates from its nodes and edges: node
    kinds, edges in the same orientation, loops and the incidence index
    in node order."""
    got = d.shape
    want = D.Diagram(dict(d.nodes), d.edges, d.n_in, d.n_out, d.loops).shape
    assert (got.kinds, got.edges, got.n_in, got.n_out, got.loops) == (
        want.kinds, want.edges, want.n_in, want.n_out, want.loops)
    assert list(got.port_edges.items()) == list(want.port_edges.items())


def test_derived_shapes_equal_validated_ones(monkeypatch):
    # every result of compose_all, tensor_all, flip and bend_to_state
    # made below: each module's own name is wrapped, but diagram's flip,
    # which the trees call and record themselves
    calls = []  # (name, piece or pieces, result)
    for module, names in ((D, ("compose_all", "tensor_all",
                               "bend_to_state")),
                          (NF, ("compose_all", "tensor_all")),
                          (R, ("compose_all", "tensor_all", "flip"))):
        for name in names:
            f = getattr(module, name)
            monkeypatch.setattr(module, name, lambda x, f=f, name=name: (
                calls.append((name, x, f(x))) or calls[-1][2]))
    sides = []
    drawn = R._interpret_drawn
    monkeypatch.setattr(R, "_interpret_drawn", lambda d, f, columns: (
        sides.extend((d, f)) or drawn(d, f, columns)))
    rng = np.random.default_rng(31)
    for rule in R.full_catalog():  # both sides and both flips
        R.check_soundness(rule, samples=1, rng=rng)
    # check_soundness builds a rule with parameters once as a template
    # and once on its first draw: build both sides and their flips on
    # four more draws, as a sweep that builds every draw does
    draws = np.random.default_rng(37)
    for rule in R.full_catalog():
        for _ in range(4 if rule.arity else 0):
            ps = R._random_params(rule, draws)
            for side in rule.build([complex(p) for p in ps]):
                R.flip(side)
    assert len(nf_family(5)) == 4
    loops = 0
    flips = []
    for _ in range(300):
        d = _random_tree(rng, int(rng.integers(1, 4)), flips)
        # closed by cups, and opened by caps, so that loops form
        d = D.compose_all([_adapter(0, d.n_in), d, _adapter(d.n_out, 0)])
        loops += d.loops > 0
    assert loops > 30
    # a flip or a bent state shares its piece's nodes and port_edges
    renamed = [(x, d) for name, x, d in calls
               if name in ("flip", "bend_to_state")]
    assert {name for name, _, _ in calls} >= {"flip", "bend_to_state"}
    for x, d in renamed:
        assert d.nodes is x.nodes and d.port_edges is x.port_edges
    results = [d for _, _, d in calls] + flips
    # one template per rule with parameters, one draw per rule without
    assert len(sides) == 4 * len(R.full_catalog()) and len(results) > 5000
    for d in sides + results:
        _assert_derived_shape_is_validated(d)
