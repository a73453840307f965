import json

import numpy as np
import pytest

from zxel import diagram as D
from zxel.equivalence import TypeMismatchError, check_equivalent
from zxel.rules import catalog_by_name, instantiate
from zxel.semantics import interpret, matrices_equal

from helpers import random_complex, random_diagram


def test_reflexive():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = random_diagram(rng)
        v = check_equivalent(d, d)
        assert v.equal and v.method == "both"
        assert v.max_deviation <= 1e-12


def test_s1_pair_equal():
    a, b = 1.2 - 0.4j, 0.5j
    chain = D.compose(D.z_spider(1, 1, a), D.z_spider(1, 1, b))
    fused = D.z_spider(1, 1, a * b)
    v = check_equivalent(chain, fused)
    assert v.equal
    assert v.nf_pair is not None and v.nf_pair[0].m == 2


def test_distinct_scalars_not_equal():
    v = check_equivalent(D.z_spider(0, 1, 0.1), D.z_spider(0, 1, 0.9))
    assert not v.equal
    assert v.max_deviation > 1e-9


def test_type_mismatch():
    with pytest.raises(TypeMismatchError):
        check_equivalent(D.cap(), D.identity(1))


def test_symmetry_of_verdict():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        if d1.type != d2.type:
            continue
        assert check_equivalent(d1, d2).equal == check_equivalent(d2, d1).equal


def test_congruence_under_tensor():
    rng = np.random.default_rng(15)
    for _ in range(10):
        a = random_complex(rng)
        d1 = D.compose(D.z_spider(1, 1, a), D.z_spider(1, 1, 2.0))
        d2 = D.z_spider(1, 1, 2.0 * a)
        g = D.triangle() if rng.uniform() < 0.5 else D.h_box()
        v = check_equivalent(D.tensor(d1, g), D.tensor(d2, g))
        assert v.equal


def test_verdict_serializes():
    v = check_equivalent(D.cap(), D.cap())
    rec = json.loads(json.dumps(v.to_jsonable()))
    assert rec["equal"] is True
    assert rec["method"] == "both"
    assert "normal_forms" in rec


def test_agreement_on_corpus():
    rng = np.random.default_rng(99)
    pairs = 0
    while pairs < 60:
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        if d1.type != d2.type:
            continue
        pairs += 1
        v = check_equivalent(d1, d2)  # raises VerdictDisagreement on a bug
        sem = matrices_equal(interpret(d1), interpret(d2), 1e-9)
        assert v.equal == sem


def test_scalar_diagrams_compared():
    loop = D.compose(D.cap(), D.cup())
    two_dot = D.scalar_z(1.0)
    assert check_equivalent(loop, two_dot).equal
    assert not check_equivalent(loop, D.scalar_z(0.5)).equal


# sound 4 -> 4 rules whose normal-form frontier once reached 15 wires,
# past the default cap of 14, while contraction stayed under it
_WIDE_FRONTIER_RULES = (
    "addpipair2sidecommutprop", "addpipair2sidecommutprop28",
    "addpipair2sidecommutprop29", "addpipair2sidecommutprop29b",
    "addpipairmulcommutprop30a", "addpipairmulcommutprop30b",
    "addpipairmulcommutprop30bcro", "addpipairmulcommutprop30c",
    "addpipairmulcommutprop30ccro")


@pytest.mark.parametrize("name", _WIDE_FRONTIER_RULES)
def test_wide_rules_decided_at_default_cap(name):
    rule = catalog_by_name()[name]
    rng = np.random.default_rng(3)
    params = [random_complex(rng) for _ in range(rule.arity)]
    while not rule.admissible(params):
        params = [random_complex(rng) for _ in range(rule.arity)]
    lhs, rhs = instantiate(rule, params)
    assert check_equivalent(lhs, rhs).equal
