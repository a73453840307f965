"""A shape keeps its wiring as two tables of edge indices, ``port_edges``
and ``slot_edges``; ``edges`` is a view derived from them on first read.
These tests hold the view to the tuples ``Diagram(...)`` validates, keep
the evaluation routes off it, and pin how few objects a cold build
leaves for the cyclic collector."""

import textwrap
from pathlib import Path

import numpy as np

from zxel import diagram as D
from zxel import io as zio
from zxel.semantics import interpret

from helpers import golden_corpus, nf_family, random_diagram, run_python

TESTS = str(Path(__file__).resolve().parent)


def _corpus():
    rng = np.random.default_rng(5)
    ds = [*golden_corpus(), *nf_family(5),
          *(random_diagram(rng) for _ in range(300))]
    return ds + [D.flip(d) for d in ds] + [D.bend_to_state(d) for d in ds]


def test_edges_view_round_trips_through_the_constructor():
    for d in _corpus():
        edges = d.edges
        # the tables alone give the view, however the shape was made
        assert D._edges_of(d.shape) == edges
        again = D.Diagram(d.nodes, edges, d.n_in, d.n_out, d.loops)
        assert again.shape == d.shape
        assert again.edges == edges
        assert again.shape.slot_edges == d.shape.slot_edges


def test_a_combinator_shape_holds_no_endpoint_tuple():
    d = nf_family(3)[-1]
    for s in (d.shape, D.flip(d).shape, D.bend_to_state(d).shape):
        assert s._edges is None
        assert all(type(i) is int for i in s.slot_edges)


def _chain(ids) -> D.Diagram:
    """A 1 -> 1 chain of a Z(2) and an H box at the node ids ``ids``."""
    a, b = ids
    return D.Diagram({a: D.Node(D.Z, 2.0), b: D.Node(D.H)},
                     [(("in", 0), ("n", a, 0)), (("n", a, 1), ("n", b, 0)),
                      (("n", b, 1), ("out", 0))], 1, 1)


def test_extreme_node_ids_survive_compose_tensor_flip_save_and_load(
        tmp_path):
    d, e = _chain((-3, 10 ** 18)), _chain((10 ** 18, -3))
    m, n = interpret(d), interpret(e)
    cases = [(D.compose(d, e), n @ m), (D.tensor(d, e), np.kron(m, n)),
             (D.flip(d), m.T), (D.compose_all([e, d, e]), n @ m @ n)]
    for k, (x, want) in enumerate(cases):
        assert np.allclose(interpret(x), want)
        path = str(tmp_path / f"{k}.zx")
        zio.save_diagram(x, path)
        y = zio.load_diagram(path)
        assert y.structural_key() == x.structural_key()
        assert len(y.nodes) == len(x.nodes)
        assert np.allclose(interpret(y), want)


# every cold run below must leave the view unbuilt: the planners read the
# tables, and the combinators build the tables by index arithmetic
_GUARD = textwrap.dedent("""
    import sys
    sys.path.insert(0, {tests!r})
    import numpy as np
    from zxel import diagram as D, io as zio, normalform as NF, rules as R
    from zxel.equivalence import check_equivalent
    from zxel.semantics import interpret
    from helpers import nf_family

    rng = np.random.default_rng(3)
    pair = [NF.nf_to_diagram(NF.nf_from_vector(rng.uniform(1, 9, 8)))
            for _ in range(2)]
    paths = [{tmp!r} + f"/{{k}}.zx" for k in range(2)]
    for d, path in zip(pair, paths):
        zio.save_diagram(d, path)
    built = []
    view = D._edges_of
    D._edges_of = lambda s: built.append(s) or view(s)
    check_equivalent(*map(zio.load_diagram, paths))
    for d in nf_family(4):
        NF.normalize(d)
        interpret(d)
        interpret(D.flip(d))
        NF.normalize(D.bend_to_state(d))
    for rule in R.full_catalog()[:5]:
        assert R.check_soundness(rule).ok
    cold = len(built)
    nf_family(4)[-1].edges  # the counter sees a read of the view
    print(cold, len(built))
""")


def test_cold_runs_never_build_the_edges_view(tmp_path):
    proc = run_python("-c", _GUARD.format(tests=TESTS, tmp=str(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


_TRACKED = textwrap.dedent("""
    import gc
    import numpy as np
    import zxel
    from zxel.normalform import nf_from_vector, nf_to_diagram
    nf = nf_from_vector(np.random.default_rng(1).uniform(1, 9, 2 ** 5))
    gc.disable()
    before = len(gc.get_objects())
    nf_to_diagram(nf)
    print(len(gc.get_objects()) - before)
""")


def test_a_cold_normal_form_build_leaves_few_tracked_objects():
    # CPython 3.11 reads 2 953 here; when every shape held an endpoint
    # tuple per edge end, and each edge as a tuple of two, it read 11 779
    proc = run_python("-c", _TRACKED)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4000
