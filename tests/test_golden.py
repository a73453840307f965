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
matrix at each m = 0..3 (rng seed 11).
"""

import hashlib
import json

import numpy as np

from zxel import rules as R
from zxel.io import dumps_diagram
from zxel.normalform import (decompose_elementary, nf_from_vector,
                             nf_to_diagram)
from zxel.rewrite import MATCHABLE_RULES, find_matches, simplify

from helpers import random_complex, random_diagram

GOLDEN_SHA256 = ("e6f660c5474edfe862f69d0c21a6e0ca"
                 "2c32ad56ace695aed68d4898f43e452f")
MATCHES_SHA256 = ("378c24e4242e216d5f1883700a03eba8"
                  "fd35a4dcaf5292f32bec0088f81da457")
ELEMENTARY_SHA256 = ("b2067b18ab174fd0f1cc126235228c97"
                     "0641054cb44e6878eca038cb438c237e")


def _corpus():
    rng = np.random.default_rng(9)
    for rule in R.full_catalog():
        params = R._random_params(rule, rng) if rule.arity else []
        yield from R.instantiate(rule, params)
    rng = np.random.default_rng(7)
    for m in range(6):
        v = [random_complex(rng) for _ in range(2 ** m)]
        yield nf_to_diagram(nf_from_vector(v))


def test_builders_and_simplifier_are_byte_stable():
    digest = hashlib.sha256()
    count = 0
    for d in _corpus():
        for out in (d, simplify(d, budget=50).diagram):
            digest.update(dumps_diagram(out).encode())
            count += 1
    assert count == 2 * (2 * len(R.full_catalog()) + 6)
    assert digest.hexdigest() == GOLDEN_SHA256


def test_match_sites_are_stable():
    rng = np.random.default_rng(5)
    corpus = list(_corpus()) + [random_diagram(rng) for _ in range(200)]
    digest = hashlib.sha256()
    for d in corpus:
        for rule in MATCHABLE_RULES:
            sites = [(s.rule, s.nodes, s.params) for s in find_matches(d, rule)]
            digest.update(repr(sites).encode())
    assert digest.hexdigest() == MATCHES_SHA256


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
