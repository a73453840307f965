"""Both evaluation routes against a walk-free oracle, bit for bit.

With every Z phase a small Gaussian integer, every entry and every
intermediate of either route, and of one ``np.einsum`` over all node
tensors (``helpers.interpret_by_einsum``), is a small dyadic Gaussian
rational, which float64 holds exactly in any order of summation.  So
the routes, which share one walk per shape, must equal an oracle that
shares none of it, with no tolerance."""

import numpy as np

from zxel import diagram as D
from zxel.normalform import normalize
from zxel.semantics import contract_state, interpret

from helpers import interpret_by_einsum, random_diagram


def _gaussian_corpus(count=400, seed=11):
    """``count`` random diagrams, every Z phase redrawn from
    {-2..2} + i{-2..2}."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = random_diagram(rng)
        nodes = {v: D.Node(D.Z, complex(*rng.integers(-2, 3, 2)))
                 if node.kind == D.Z else node for v, node in d.nodes.items()}
        out.append(D.Diagram(nodes, d.edges, d.n_in, d.n_out, d.loops))
    return out


def test_both_routes_equal_a_walk_free_einsum_bit_for_bit():
    corpus = _gaussian_corpus()
    assert max(len(d.edges) for d in corpus) < 24
    for d in corpus:
        assert np.array_equal(interpret(d), interpret_by_einsum(d)), d
        assert np.array_equal(normalize(d).vector(),
                              contract_state(D.bend_to_state(d))), d
