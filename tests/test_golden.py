"""Golden bytes: a digest over the serialized diagrams that the builders,
the combinators and the simplifier produce on a fixed corpus, and a
digest over the match sites the rewriter finds on it.

A change to how diagrams are built (node ids, edge order, loop counts)
that is meant to leave them identical must leave the first digest
unchanged; a change to how the matchers read a diagram's incidence that
is meant to find the same sites in the same order must leave the second
unchanged.  The corpus is both sides of one instance of every catalog
rule (rng seed 9) and the normal-form diagrams at m = 0..5 (rng seed 7).
The first digest also covers the ``simplify`` result of each of those
diagrams at budget 50; the second covers the sites of all six matchers
on the corpus plus 200 ``random_diagram``s (rng seed 5).  The third pins
what ``decompose_elementary`` returns, its op records as JSON and its
serialized diagram, on a dense, a rank-deficient and a permutation
matrix at each m = 0..3 (rng seed 11).  The fourth pins the path the
simplifier takes, not only where it ends: each ``simplify`` trace as
JSON, its serialized result, its step count and whether the budget ran
out, at the default budget and at budget 3, on the corpus, the
normal-form family at m = 2..6 (``helpers.nf_family``) and 300
``random_diagram``s (rng seed 13).  The fifth pins the gadget and pink
spider builders on their own: every ``gadget`` spec at m = 1..4, each
row addition on every nonempty wire subset, with no, one and all wires
between pi pairs, and every ``x_spider`` with up to two inputs and
outputs at both phases, each as saved and as its edge tuples and
``port_edges`` in order.
"""

import hashlib
import json

import numpy as np

from zxel import rules as R
from zxel.diagram import TAU_PI, TAU_ZERO, x_spider
from zxel.io import dumps_diagram
from zxel.normalform import decompose_elementary, gadget
from zxel.rewrite import MATCHABLE_RULES, find_matches, simplify

from helpers import golden_corpus, nf_family, random_diagram

GOLDEN_SHA256 = ("e6f660c5474edfe862f69d0c21a6e0ca"
                 "2c32ad56ace695aed68d4898f43e452f")
MATCHES_SHA256 = ("378c24e4242e216d5f1883700a03eba8"
                  "fd35a4dcaf5292f32bec0088f81da457")
ELEMENTARY_SHA256 = ("b2067b18ab174fd0f1cc126235228c97"
                     "0641054cb44e6878eca038cb438c237e")
TRACES_SHA256 = ("33ea71060977b9da0d6d8a5d35e83f8e"
                 "9a8337300bd50c9419bbfc7d4d172ead")
GADGETS_SHA256 = ("fe06a8f07c9d7315056ce2cfc8a8262d"
                  "4a33671c019cb5c691a4da1d4f7cfe18")


def test_builders_and_simplifier_are_byte_stable():
    digest = hashlib.sha256()
    count = 0
    for d in golden_corpus():
        for out in (d, simplify(d, budget=50).diagram):
            digest.update(dumps_diagram(out).encode())
            count += 1
    assert count == 2 * (2 * len(R.full_catalog()) + 6)
    assert digest.hexdigest() == GOLDEN_SHA256


def test_match_sites_are_stable():
    rng = np.random.default_rng(5)
    corpus = list(golden_corpus()) + [random_diagram(rng) for _ in range(200)]
    digest = hashlib.sha256()
    for d in corpus:
        for rule in MATCHABLE_RULES:
            sites = [(s.rule, s.nodes, s.params) for s in find_matches(d, rule)]
            digest.update(repr(sites).encode())
    assert digest.hexdigest() == MATCHES_SHA256


def test_simplify_traces_are_stable():
    rng = np.random.default_rng(13)
    corpus = (list(golden_corpus()) + nf_family()
              + [random_diagram(rng) for _ in range(300)])
    digest = hashlib.sha256()
    for d in corpus:
        for budget in (None, 3):
            res = simplify(d, budget=budget)
            digest.update(json.dumps(res.trace).encode())
            digest.update(dumps_diagram(res.diagram).encode())
            digest.update(repr((res.steps, res.budget_exhausted)).encode())
    assert digest.hexdigest() == TRACES_SHA256


def test_elementary_decompositions_are_byte_stable():
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()
    for m in range(4):
        n = 2 ** m
        dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        low = dense[:, :max(n // 2, 1)] @ dense[:max(n // 2, 1), :]
        for mat in (dense, low, np.eye(n)[rng.permutation(n)] + 0j):
            ops, d = decompose_elementary(mat)
            digest.update(json.dumps(ops).encode())
            digest.update(dumps_diagram(d).encode())
    assert digest.hexdigest() == ELEMENTARY_SHA256


def test_gadgets_and_x_spiders_are_byte_stable():
    pieces = []
    for m in range(1, 5):
        subsets = [[i for i in range(m) if j >> i & 1]
                   for j in range(1, 2 ** m)]
        for pi in ([], [0], list(range(m))):
            pieces += [gadget(("add", m, s, pi), 0.5 - 0.25j) for s in subsets]
            pieces.append(gadget(("mult", m, pi), -1.5j))
    pieces += [x_spider(n, m, tau) for n in range(3) for m in range(3)
               for tau in (TAU_ZERO, TAU_PI)]
    digest = hashlib.sha256()
    for d in pieces:
        digest.update(dumps_diagram(d).encode())
        digest.update(repr((d.edges, list(d.port_edges.items()))).encode())
    assert digest.hexdigest() == GADGETS_SHA256
