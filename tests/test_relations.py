"""Verdict relations: transformations of a pair of diagrams that must keep
``check_equivalent``'s verdict.  The base pairs are one draw of every
catalog rule, equal, and its corrupted instance, the right side tensored
with ``scalar_z(-2.0)`` (worth -1), not equal."""

import json

import numpy as np
import pytest

from zxel import diagram as D
from zxel.equivalence import check_equivalent
from zxel.io import diagram_from_jsonable, dumps_diagram
from zxel.rewrite import simplify
from zxel.rules import _random_params, full_catalog

SEEDS = (5, 17)


@pytest.fixture(scope="module")
def base() -> dict:
    """The base pairs of each seed, each with its verdict; dropped with
    the module, so that no later test finds their shapes planned."""
    pairs = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        pairs[seed] = []
        for rule in full_catalog():
            ps = _random_params(rule, rng) if rule.arity else []
            lhs, rhs = rule.build([complex(p) for p in ps])
            for d2 in (rhs, D.tensor(rhs, D.scalar_z(-2.0))):
                pairs[seed].append((lhs, d2, check_equivalent(lhs, d2).equal))
    return pairs


def _round_trip(d: D.Diagram) -> D.Diagram:
    return diagram_from_jsonable(json.loads(dumps_diagram(d)))


def _reversed_ids(d: D.Diagram) -> D.Diagram:
    """``d`` with its node ids renumbered in reversed order: the largest
    id becomes 0."""
    ids = sorted(d.nodes)
    new = {v: len(ids) - 1 - k for k, v in enumerate(ids)}

    def ren(ep):
        return ("n", new[ep[1]], ep[2]) if ep[0] == "n" else ep

    return D.Diagram({new[v]: d.nodes[v] for v in reversed(ids)},
                     [(ren(a), ren(b)) for a, b in d.edges],
                     d.n_in, d.n_out, d.loops)


RELATIONS = {
    "flip": lambda d1, d2: (D.flip(d1), D.flip(d2)),
    "file round trip": lambda d1, d2: (_round_trip(d1), _round_trip(d2)),
    "reversed ids": lambda d1, d2: (_reversed_ids(d1), _reversed_ids(d2)),
    "simplified left side": lambda d1, d2: (simplify(d1).diagram, d2),
}


def test_the_base_pairs_hold_both_verdicts(base):
    for seed in SEEDS:
        verdicts = [equal for _, _, equal in base[seed]]
        assert verdicts[0::2] == [True] * len(full_catalog())
        assert verdicts[1::2] == [False] * len(full_catalog())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("relation", list(RELATIONS))
def test_a_relation_keeps_every_verdict(base, relation, seed):
    # the verdict, not its bytes: reversed ids root the walk elsewhere,
    # which moves the last bits of many deviations
    moved, changed = RELATIONS[relation], 0
    for d1, d2, equal in base[seed]:
        e1, e2 = moved(d1, d2)
        changed += e1 is not d1  # simplify gives d1 when no move applies
        assert check_equivalent(e1, e2).equal is equal, (relation, d1)
    assert changed
