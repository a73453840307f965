import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

from zxel import diagram as D
from zxel import normalform as NF
from zxel import semantics as S
from zxel.equivalence import TypeMismatchError, check_equivalent
from zxel.rules import catalog_by_name, full_catalog, instantiate
from zxel.semantics import interpret, matrices_equal

from helpers import random_complex, random_diagram
from test_semantics import CAP_ERRORS_SHA256, _cap_error_digest


def test_reflexive():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = random_diagram(rng)
        v = check_equivalent(d, d)
        assert v.equal and v.to_jsonable()["method"] == "both"
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


def test_each_route_plans_once_per_shape(monkeypatch):
    # a cold call plans a normal-form pair of one shape once per route,
    # a rule instance's two sides once each per route, and the two routes
    # share each shape's walk: the normal-form route walks, and the
    # contraction route takes its walk.  A shape's second planning keeps
    # its plan, so a third call walks no more
    calls = []
    order = D.contraction_order
    monkeypatch.setattr(D, "contraction_order",
                        lambda pe: calls.append(1) or order(pe))
    rng = np.random.default_rng(5)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    d1, d2 = (NF.nf_to_diagram(NF.nf_from_vector(w)) for w in (v, 2 * v))
    lhs, rhs = instantiate(catalog_by_name()["S1"], [0.5 + 1j, -2.0])
    assert lhs.shape != rhs.shape
    for walks in (1, 1, 0):
        calls.clear()
        assert not check_equivalent(d1, d2).equal
        assert len(calls) == walks
    for walks in (2, 2, 0):
        calls.clear()
        assert check_equivalent(lhs, rhs).equal
        assert len(calls) == walks


# sha256 over each verdict's JSON and repr(max_deviation) on the corpus of
# _verdict_digest, as the fold of one NormalForm per step and one
# interpret per diagram gave them
VERDICTS_SHA256 = ("a693b3279ecf68b9426bb546a8d571cc"
                   "c75533c0beeb61564a8539dc3a633a9f")


def _verdict_digest() -> str:
    """One instance of every catalog rule (rng seed 53), normal-form pairs
    at m = 2 and 3, equal ones built twice and unequal ones one entry
    apart, and 60 pairs of random diagrams of one type."""
    rng = np.random.default_rng(53)
    pairs = []
    for rule in full_catalog():
        params = [random_complex(rng) for _ in range(rule.arity)]
        while not rule.admissible(params):
            params = [random_complex(rng) for _ in range(rule.arity)]
        pairs.append(instantiate(rule, params))
    for m in (2, 3):
        for _ in range(4):
            v = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
            w = v.copy()
            w[int(rng.integers(2 ** m))] += 1.0
            d = NF.nf_to_diagram(NF.nf_from_vector(v))
            pairs += [(d, NF.nf_to_diagram(NF.nf_from_vector(v))),
                      (d, NF.nf_to_diagram(NF.nf_from_vector(w)))]
    while len(pairs) < len(full_catalog()) + 76:
        d1, d2 = random_diagram(rng), random_diagram(rng)
        if d1.type == d2.type:
            pairs.append((d1, d2))
    digest = hashlib.sha256()
    for d1, d2 in pairs:
        v = check_equivalent(d1, d2)
        digest.update(json.dumps(v.to_jsonable()).encode())
        digest.update(repr(v.max_deviation).encode())
    return digest.hexdigest()


def test_verdicts_are_byte_stable():
    assert _verdict_digest() == VERDICTS_SHA256


# -- the plan memo: a shape keeps its plans from its second planning on ----

def _memo_diagram() -> D.Diagram:
    """A diagram of a shape no memo but the plan memos keeps alive: a Z
    state into an H box, a triangle and a wire, beside a bare wire."""
    return D.tensor(D.compose(D.z_spider(0, 3, 0.5 - 2j),
                              D.tensor_all([D.h_box(), D.triangle(),
                                            D.identity(1)])),
                    D.identity(1))


def _own_array(route, plan) -> np.ndarray:
    """An array the plan made for itself, so it lives only as long as the
    plan: the contraction's bare-wire identity, the fold's output
    permutation."""
    return plan[0][-1] if route is S else plan[2]


@pytest.mark.parametrize("route", [S, NF])
def test_a_shape_planned_once_keeps_no_plan(route):
    d = _memo_diagram()
    once = weakref.ref(_own_array(route, route._plan(d, 14)))
    gc.collect()
    assert once() is None
    twice = weakref.ref(_own_array(route, route._plan(d, 14)))
    gc.collect()
    assert twice() is not None
    assert _own_array(route, route._plan(d, 14)) is twice()


@pytest.mark.parametrize("route", [S, NF])
def test_a_kept_plan_dies_with_its_shape(route):
    d = _memo_diagram()
    route._plan(d, 14)
    kept = weakref.ref(_own_array(route, route._plan(d, 14)))
    shape = weakref.ref(d.shape)
    del d
    gc.collect()
    assert shape() is None and kept() is None
    # the entry went with its shape: a new diagram of it plans afresh
    again = weakref.ref(_own_array(route, route._plan(_memo_diagram(), 14)))
    gc.collect()
    assert again() is None


class _Component(list):
    """A walk's component that a weak reference can watch."""


def test_a_walk_dies_with_its_shape_and_no_kept_plan_holds_it(monkeypatch):
    order = D.contraction_order
    monkeypatch.setattr(D, "contraction_order",
                        lambda pe: map(_Component, order(pe)))
    # a shape planned once leaves its walk, which dies with the shape
    d = _memo_diagram()
    NF._plan(d, 14)
    left = weakref.ref(D._WALKS[d.shape][0])
    shape = weakref.ref(d.shape)
    del d
    gc.collect()
    assert shape() is None and left() is None
    # the contraction route takes the walk the normal-form route left,
    # and neither route's kept plan holds either walk
    d = _memo_diagram()
    walks = []
    for _ in range(2):
        NF._plan(d, 14)
        walks.append(weakref.ref(D._WALKS[d.shape][0]))
        S._plan(d, 14)
        assert d.shape not in D._WALKS
    gc.collect()
    assert [w() for w in walks] == [None, None]
    for route in (S, NF):  # both plans are kept
        assert _own_array(route, route._plan(d, 14)) is _own_array(
            route, route._plan(d, 14))
    assert d.shape not in D._WALKS


def _result(run, d, cap):
    """The result's bytes, or the error's type and message."""
    try:
        out = run(d, cap=cap)
    except (S.ResourceError, NF.WireCapError) as exc:
        return type(exc), str(exc)
    return out.tobytes() if isinstance(out, np.ndarray) else \
        out.coeffs.tobytes()


@pytest.mark.parametrize("run", [S.interpret, NF.normalize])
def test_a_kept_plan_does_not_mask_a_smaller_caps_error(run):
    d = NF.nf_to_diagram(NF.nf_from_vector(np.arange(1.0, 9.0)))
    cold = _result(run, d, 3)
    assert cold[0] in (S.ResourceError, NF.WireCapError)
    want = [_result(run, d, 14) for _ in range(2)]  # the second one keeps
    assert _result(run, d, 3) == cold
    assert _result(run, d, 14) == want[0] == want[1]


def test_digests_hold_on_kept_plans():
    # the second computation of each digest runs on the plans the first
    # one kept, and gives the same bytes and the same errors
    for _ in range(2):
        assert _verdict_digest() == VERDICTS_SHA256
        assert _cap_error_digest() == CAP_ERRORS_SHA256
