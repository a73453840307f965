import copy
import functools
import gc
import weakref

import numpy as np
import pytest

from zxel import diagram as D
from zxel import rewrite as RW
from zxel import rules as R
from zxel.io import dumps_diagram
from zxel.normalform import nf_from_vector, nf_to_diagram
from zxel.semantics import interpret, matrices_equal, max_deviation

from helpers import (golden_corpus, nf_family, pi_macro_diagram,
                     random_complex, random_diagram, simplify_by_scan)


def test_s1_match_on_chain():
    a, b = 0.5 + 0.25j, -1.5
    chain = D.compose(D.z_spider(1, 1, a), D.z_spider(1, 1, b))
    sites = RW.find_matches(chain, "S1")
    assert len(sites) == 1
    out = RW.apply(chain, sites[0])
    assert len(out.nodes) == 1
    assert matrices_equal(interpret(out), np.diag([1, a * b]))


def test_s1_no_match_on_single_h():
    assert RW.find_matches(D.h_box(), "S1") == []


def test_hopf_match_on_double_h_path():
    host = D.compose(D.z_spider(1, 2, 1.0),
                     D.compose(D.tensor(D.h_box(), D.h_box()),
                               D.z_spider(2, 1, 1.0)))
    sites = RW.find_matches(host, "Hopf")
    assert len(sites) == 1
    out = RW.apply(host, sites[0])
    assert matrices_equal(interpret(out), interpret(host))
    assert len(out.nodes) == 2  # the two spiders, disconnected


def test_stale_site_rejected():
    chain = D.compose(D.z_spider(1, 1, 2.0), D.z_spider(1, 1, 3.0))
    site = RW.find_matches(chain, "S1")[0]
    with pytest.raises(RW.StaleSiteError):
        RW.apply(D.triangle(), site)


def test_stale_site_on_id_shifted_copy():
    # an id-shifted copy has the same structural key as the host; applying
    # the host's S1 site on nodes (2, 3) to it would fuse two unconnected
    # spiders, and an unrelated shift would name missing nodes
    def chain():
        return D.compose(D.z_spider(1, 1, 2.0), D.z_spider(1, 1, 3.0))

    d = D.tensor(chain(), chain())
    site, = [s for s in RW.find_matches(d, "S1") if s.nodes == (2, 3)]
    for k in (1, 10):
        def ren(ep):
            return ("n", ep[1] + k, ep[2]) if ep[0] == "n" else ep
        copy = D.Diagram({v + k: nd for v, nd in d.nodes.items()},
                         [(ren(a), ren(b)) for a, b in d.edges],
                         d.n_in, d.n_out, d.loops)
        assert copy.structural_key() == d.structural_key()
        with pytest.raises(RW.StaleSiteError):
            RW.apply(copy, site)
    assert len(RW.apply(d, site).nodes) == 3


def test_simplify_rejects_an_overflowing_phase():
    chain = D.compose(D.z_spider(1, 1, 1e308), D.z_spider(1, 1, 1e308))
    with pytest.raises(D.DiagramError, match="not finite"):
        RW.simplify(chain)


def test_unsupported_rule_matching():
    with pytest.raises(RW.UnsupportedRuleError):
        RW.find_matches(D.h_box(), "EU")


def test_a_misspelt_b3_move_is_unsupported():
    # a misspelt move, or a move of a matcher without moves, names no
    # sites to filter: it is refused like any other unknown rule
    for name in ("B3-cancle", "S1-x", "B3-", "Brk-var"):
        with pytest.raises(RW.UnsupportedRuleError):
            RW.find_matches(D.h_box(), name)
    pi = D.x_spider(1, 1, D.TAU_PI)
    host = D.compose_all([D.z_spider(0, 1, 2.0), pi, pi,
                          D.z_spider(1, 2, 1.0)])
    sites = RW.find_matches(host, "B3")
    assert [s.rule for s in sites] == ["B3-cancel", "B3-copy", "B3-state"]
    for move in ("B3-cancel", "B3-state", "B3-copy"):
        assert RW.find_matches(host, move) == [
            s for s in sites if s.rule == move]


def test_apply_preserves_semantics_everywhere():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(80):
        d = random_diagram(rng)
        for name in RW.MATCHABLE_RULES:
            for site in RW.find_matches(d, name)[:2]:
                out = RW.apply(d, site)
                out.check_validity()
                assert matrices_equal(interpret(out), interpret(d), 1e-9), \
                    (name, site)
                checked += 1
    assert checked > 50


def test_all_b3_variants_sound():
    a = random_complex(np.random.default_rng(2))
    hosts = [
        D.compose(D.x_spider(1, 1, D.TAU_PI), D.x_spider(1, 1, D.TAU_PI)),
        D.compose(D.z_spider(0, 1, a or 1.0), D.x_spider(1, 1, D.TAU_PI)),
        D.compose(D.x_spider(1, 1, D.TAU_PI), D.z_spider(1, 2, 1.0)),
        D.compose(D.x_spider(1, 1, D.TAU_PI), D.z_spider(1, 3, 2.0 + 1j)),
    ]
    for host in hosts:
        sites = RW.find_matches(host, "B3")
        assert sites, host
        for site in sites:
            out = RW.apply(host, site)
            assert matrices_equal(interpret(out), interpret(host), 1e-9), \
                site.rule


def test_simplify_reads_the_input_port_order_until_its_first_step():
    # the first step drops the input's Z self-loops and renumbers its Z
    # ports in edge order; before it, the matchers see the input as is
    looped = D.Diagram({0: D.Node(D.Z, 1.0)},
                       [(("in", 0), ("n", 0, 0)), (("n", 0, 1), ("n", 0, 2)),
                        (("n", 0, 3), ("out", 0))], 1, 1)
    res = RW.simplify(looped)
    assert res.diagram is looped and res.trace == [] and res.steps == 0
    # a pi macro whose core's port-0 wire comes last in the edge list
    macro = D.Diagram({0: D.Node(D.H), 1: D.Node(D.Z, -1.0),
                       2: D.Node(D.H), 3: D.Node(D.Z, 2.0)},
                      [(("in", 0), ("n", 0, 0)), (("n", 0, 1), ("n", 1, 1)),
                       (("n", 1, 0), ("n", 2, 0)), (("n", 2, 1), ("n", 3, 0))],
                      1, 0)
    res = RW.simplify(macro)
    assert res.trace == [{"rule": "B3-state", "nodes": [2, 1, 0, 3]}]
    assert matrices_equal(interpret(res.diagram), interpret(macro))
    # a step elsewhere drops the self-loop, and the spider becomes an S2
    # site although no step came near it
    beside = D.tensor(looped, D.compose(D.z_spider(1, 1, 2.0),
                                        D.z_spider(1, 1, 3.0)))
    res = RW.simplify(beside)
    assert [s["rule"] for s in res.trace] == ["S1", "S2"]
    assert matrices_equal(interpret(res.diagram), interpret(beside))


def test_simplify_rematches_a_macro_two_wires_from_a_step():
    # in -> pi -> Z(2) -> pi -> Z(3) effect: absorbing the second pi into
    # the effect wires the effect to Z(2), and fusing the two leaves Z(2/3)
    # a state of the first pi, whose core is two wires from the fusion
    pi = D.x_spider(1, 1, D.TAU_PI)
    d = D.compose_all([pi, D.z_spider(1, 1, 2.0), pi,
                       D.z_spider(1, 0, 3.0)])
    res = RW.simplify(d)
    assert [s["rule"] for s in res.trace] == ["B3-state", "S1", "B3-state"]
    assert res.trace == simplify_by_scan(d).trace
    assert matrices_equal(interpret(res.diagram), interpret(d))


def test_every_b3_cancel_site_holds_an_h2_site(monkeypatch):
    # two pi macros in series face each other with two H boxes, an H2
    # site, and H2 comes earlier in the pass order: so simplify has no
    # B3-cancel pass, and a scan that has one takes the same moves
    rng = np.random.default_rng(23)
    corpus = [pi_macro_diagram(rng) for _ in range(300)]
    cancels = 0
    for d in corpus:
        pairs = [set(site.nodes) for site in RW.find_matches(d, "H2")]
        for site in RW.find_matches(d, "B3-cancel"):
            cancels += 1
            assert any(pair <= set(site.nodes) for pair in pairs), site
    assert cancels > 100
    assert "B3-cancel" not in RW._SIMPLIFY_PASSES
    got = [RW.simplify(d).trace for d in corpus]
    passes = RW._SIMPLIFY_PASSES
    monkeypatch.setattr(RW, "_SIMPLIFY_PASSES",
                        passes[:-1] + ("B3-cancel",) + passes[-1:])
    assert got == [simplify_by_scan(d).trace for d in corpus]


def test_simplify_validates_one_diagram(monkeypatch):
    d = nf_family(4)[-1]
    calls = []
    check = D.Diagram.check_validity

    def counted(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(D.Diagram, "check_validity", counted)
    # a kept plan would replay, and a replay validates nothing
    RW._plan.cache_clear()
    res = RW.simplify(d)
    assert res.steps == 43 and len(calls) == 1
    calls.clear()
    assert RW.simplify(res.diagram).steps == 0 and calls == []
    # the shape's second planning keeps its plan, which a third call on
    # another diagram of the shape replays
    RW.simplify(d)
    calls.clear()
    other = nf_to_diagram(nf_from_vector(
        np.random.default_rng(2).uniform(1, 9, 16)))
    assert other.shape == d.shape
    assert RW.simplify(other).steps == 43 and calls == []


def test_simplify_takes_the_moves_of_a_full_scan():
    # the worklist re-matches only near each step; the reference scans
    # every pass over the whole graph before every step
    rng = np.random.default_rng(17)
    corpus = (list(golden_corpus()) + nf_family()
              + [random_diagram(rng) for _ in range(300)])
    for d in corpus:
        for budget in (None, 1, 2, 3):
            res, ref = RW.simplify(d, budget), simplify_by_scan(d, budget)
            assert res.trace == ref.trace
            assert (res.steps, res.budget_exhausted) == \
                (ref.steps, ref.budget_exhausted)
            assert dumps_diagram(res.diagram) == dumps_diagram(ref.diagram)


def test_simplify_matching_work_is_linear(monkeypatch):
    # matching work, counted as calls of its primitive _other_end, stays
    # within 10 per node and step; a full scan before every step made
    # 18.5 per node and step at m = 3 and 316 at m = 6
    calls = []
    other_end = RW._other_end

    def counted(edge, v):
        calls.append(None)
        return other_end(edge, v)

    monkeypatch.setattr(RW, "_other_end", counted)
    for m, d in zip(range(3, 7), nf_family()[1:]):
        calls.clear()
        res = RW.simplify(d)
        assert len(calls) <= 10 * (len(d.nodes) + res.steps), (m, len(calls))


def test_simplify_fuses_spider_chain():
    k = 6
    chain = functools.reduce(
        D.compose, [D.z_spider(1, 1, 1.0 + 0.1j * i) for i in range(k)])
    res = RW.simplify(chain)
    assert len(res.diagram.nodes) == 1
    assert not res.budget_exhausted
    assert matrices_equal(interpret(res.diagram), interpret(chain))


def test_simplify_budget_zero_unchanged():
    d = D.compose(D.z_spider(1, 1, 2.0), D.z_spider(1, 1, 3.0))
    res = RW.simplify(d, budget=0)
    assert res.diagram is d and res.steps == 0 and res.budget_exhausted


def test_simplify_fixpoint_unchanged():
    d = D.triangle()
    res = RW.simplify(d)
    assert res.steps == 0
    assert res.diagram.structural_key() == d.structural_key()


def test_simplify_negative_budget():
    with pytest.raises(ValueError):
        RW.simplify(D.triangle(), budget=-1)


def test_simplify_deterministic():
    rng = np.random.default_rng(77)
    for _ in range(10):
        d = random_diagram(rng)
        r1 = RW.simplify(d)
        r2 = RW.simplify(d)
        assert r1.trace == r2.trace
        assert r1.diagram.structural_key() == r2.diagram.structural_key()


def test_simplify_corpus_semantics_and_termination():
    rng = np.random.default_rng(123)
    for _ in range(200):
        d = random_diagram(rng)
        res = RW.simplify(d, budget=10 * len(d.nodes) + 20)
        assert not res.budget_exhausted
        assert matrices_equal(interpret(res.diagram), interpret(d), 1e-9)


def test_simplify_never_grows_node_count():
    rng = np.random.default_rng(321)
    for _ in range(60):
        d = random_diagram(rng)
        res = RW.simplify(d)
        cur = d
        for step in res.trace:
            sites = [s for s in RW.find_matches(cur, step["rule"])
                     if list(s.nodes) == step["nodes"]]
            assert sites
            nxt = RW.apply(cur, sites[0])
            assert len(nxt.nodes) <= len(cur.nodes)
            cur = nxt


def test_scalar_components_kept():
    # H2 leaves an explicit scalar-2 dot instead of silently dropping it
    d = D.compose(D.h_box(), D.h_box())
    res = RW.simplify(d)
    scalars = [n for n in res.diagram.nodes.values()
               if n.kind == "z" and abs(n.phase - 1.0) < 1e-12]
    assert scalars
    assert matrices_equal(interpret(res.diagram), 2 * np.eye(2))


# -- the tolerance of the phase tests ---------------------------------------

def _one_move_host(rule, x, a):
    """A host of one ``rule`` site whose tested phase is x, the green
    phase the move reads a (S2 reads none)."""
    N = D.Node
    if rule == "S2":
        return D.z_spider(1, 1, x)
    if rule == "B1":  # Z(x) state behind an H, into Z(a)
        return D.Diagram({0: N(D.Z, x), 1: N(D.H), 2: N(D.Z, a)},
                         [(("n", 0, 0), ("n", 1, 0)),
                          (("n", 1, 1), ("n", 2, 0)),
                          (("n", 2, 1), ("out", 0))], 0, 1)
    # a pi macro of core Z(x) into a Z(a) effect, or through Z(a) 1 -> 2
    outs = 2 if rule == "B3-copy" else 0
    return D.Diagram({0: N(D.H), 1: N(D.Z, x), 2: N(D.H), 3: N(D.Z, a)},
                     [(("in", 0), ("n", 0, 0)), (("n", 0, 1), ("n", 1, 0)),
                      (("n", 1, 1), ("n", 2, 0)), (("n", 2, 1), ("n", 3, 0))]
                     + [(("n", 3, 1 + j), ("out", j)) for j in range(outs)],
                     1, outs)


@pytest.mark.parametrize("rule, constant", [
    ("S2", 1.0), ("B1", 1.0), ("B3-state", -1.0), ("B3-copy", -1.0)])
def test_a_phase_within_1e_12_of_its_constant_matches(rule, constant):
    # the move rewrites as if the phase were the constant, so it moves the
    # interpretation by at most eps * (1 + |a|), up to float rounding
    for a in (2.0, 0.5j, -3 + 4j):
        read = 0.0 if rule == "S2" else abs(a)
        for eps in (0.9e-12, -0.9e-12j, 1.1e-12, 1.1e-12j):
            d = _one_move_host(rule, constant + eps, a)
            sites = RW.find_matches(d, rule)
            if abs(eps) > 1e-12:
                assert sites == []
                continue
            out = RW.apply(d, sites[0])
            dev = max_deviation(interpret(out), interpret(d))
            assert 0 < dev <= abs(eps) * (1 + read) + 1e-15, (a, eps)


def test_simplify_deletes_a_spider_1e_13_from_phase_1():
    d = D.z_spider(1, 1, 1 + 1e-13)
    res = RW.simplify(d)
    assert res.trace == [{"rule": "S2", "nodes": [0]}]
    dev = max_deviation(interpret(res.diagram), interpret(d))
    assert 0.99e-13 < dev < 1.01e-13


# -- the simplify plan: kept from a shape's second planning, replayed -------

def _fresh(d, budget=None):
    """``simplify(d, budget)`` planned from d itself, no plan kept."""
    RW._plan.cache_clear()
    return RW.simplify(d, budget)


def _assert_same(res, ref):
    assert dumps_diagram(res.diagram) == dumps_diagram(ref.diagram)
    assert res.trace == ref.trace
    assert (res.steps, res.budget_exhausted) == \
        (ref.steps, ref.budget_exhausted)


def _replayed(ds, budget=None) -> int:
    """Check ``simplify`` of each of ``ds``, diagrams of one shape, with
    the plan ds[0] left kept, against a fresh run of it; returns how many
    of them the kept plan replays."""
    fresh = [_fresh(d, budget) for d in ds]
    RW._plan.cache_clear()
    cap = 10 * len(ds[0].nodes) + 20 if budget is None else budget
    RW._plan(ds[0], cap)  # a shape's first planning keeps nothing
    kept = RW._plan(ds[0], cap)
    replays = 0
    for d, ref in zip(ds, fresh):
        assert d.shape == ds[0].shape
        replays += RW._replay(kept, d) is not None
        _assert_same(RW.simplify(d, budget), ref)
    assert RW._plan(ds[0], cap) is kept  # a miss keeps no plan
    return replays


def _nf(rng, m):
    return nf_to_diagram(nf_from_vector(
        rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)))


@pytest.mark.parametrize("m, count", [(2, 8), (3, 8), (4, 4), (5, 3)])
def test_a_replay_of_a_normal_form_is_a_fresh_run(m, count):
    rng = np.random.default_rng(34 + m)
    ds = [_nf(rng, m) for _ in range(count)]
    for budget in (None, 0, 1, 2, 3):
        assert _replayed(ds, budget) == count
    # every diagram of the shape takes one trace to one result shape
    results = [RW.simplify(d) for d in ds]
    assert len({id(r.diagram.shape) for r in results}) == 1
    assert all(r.trace == results[0].trace for r in results)


def test_a_replay_of_a_catalog_side_is_a_fresh_run():
    rng = np.random.default_rng(34)
    groups = replays = 0
    for rule in R.full_catalog():
        if not rule.arity:
            continue
        draws = [R.instantiate(rule, R._random_params(rule, rng))
                 for _ in range(3)]
        for ds in zip(*draws):  # one side over the draws
            if any(d.shape != ds[0].shape for d in ds):
                continue
            groups += 1
            for budget in (None, 0, 1, 2, 3):
                replays += _replayed(list(ds), budget)
    assert groups > 100 and replays > 1000


def _perturbed(d, rng, scale):
    """``d`` with half its Z phases moved by up to ``scale``, relative."""
    nodes = {v: D.Node(D.Z, n.phase * (1 + random_complex(rng, scale)))
             if n.kind == D.Z and rng.uniform() < 0.5 else n
             for v, n in d.nodes.items()}
    return D.Diagram(nodes, d.edges, d.n_in, d.n_out, d.loops)


def test_a_replay_of_a_perturbed_random_diagram_is_a_fresh_run():
    rng = np.random.default_rng(36)
    runs = replays = 0
    for make in (random_diagram, pi_macro_diagram):
        for _ in range(40):
            d = make(rng)
            ds = [d] + [_perturbed(d, rng, scale)
                        for scale in (1e-14, 1e-14, 1e-3, 1e-3)]
            for budget in (None, 0, 1, 2, 3):
                replays += _replayed(ds, budget)
                runs += len(ds)
    # most tests come out alike, and some tests of a pi core move
    assert runs // 2 < replays < runs


def test_a_phase_test_that_comes_out_otherwise_plans_afresh():
    rng = np.random.default_rng(37)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    ds = [nf_to_diagram(nf_from_vector(v))]
    for j, c in ((6, 1.0), (5, -1.0), (3, 0.0)):
        w = v.copy()
        w[j] = c
        ds.append(nf_to_diagram(nf_from_vector(w)))
    # coefficients 1 and -1 meet an S2 and a pi-core test; no move on a
    # normal form tests a phase against 0, so the zero one replays
    plan = RW._plan.__wrapped__(ds[0], 10 * len(ds[0].nodes) + 20)
    assert [RW._replay(plan, d) is None for d in ds] == \
        [False, True, True, False]
    assert _replayed(ds) == 2
    # a pi core near -1 matches within the tolerance and not beyond it,
    # and a green phase within it of 0 fails B3's nonzero test
    ds = [_one_move_host("B3-state", -1.0 + eps, a)
          for eps, a in ((0.0, 2.0), (1e-13, 2.0), (-1e-13j, 2.0),
                         (1e-3, 2.0), (2e-12, 2.0), (0.0, 0.0), (0.0, 1e-13))]
    assert _replayed(ds) == 3


def test_a_replay_raises_a_fresh_runs_overflow():
    def chain(a, b):
        return D.compose(D.z_spider(1, 1, a), D.z_spider(1, 1, b))

    with pytest.raises(D.DiagramError, match="not finite") as fresh:
        _fresh(chain(1e308, 1e308))
    d = chain(2.0, 3.0)
    RW._plan.cache_clear()
    RW.simplify(d)
    RW.simplify(d)
    kept = RW._plan(d, 10 * len(d.nodes) + 20)
    with pytest.raises(D.DiagramError) as replayed:
        RW._replay(kept, chain(1e308, 1e308))
    assert str(replayed.value) == str(fresh.value)
    with pytest.raises(D.DiagramError) as replayed:
        RW.simplify(chain(1e308, 1e308))
    assert str(replayed.value) == str(fresh.value)


def test_a_returned_trace_is_the_callers_own():
    rng = np.random.default_rng(38)
    ds = [_nf(rng, 2) for _ in range(4)]
    RW.simplify(ds[0])
    RW.simplify(ds[0])
    first = RW.simplify(ds[1])
    want = copy.deepcopy(first.trace)
    first.trace[0]["nodes"].append(-1)
    first.trace.append({"rule": "S1", "nodes": [0, 1]})
    assert RW.simplify(ds[2]).trace == want
    first.trace.clear()
    assert RW.simplify(ds[3]).trace == want


def _lone_host() -> D.Diagram:
    """A diagram of a shape no memo keeps alive but the plan memos: two
    spiders joined by two wires, beside a bare wire."""
    return D.tensor(D.compose(D.z_spider(1, 2, 0.5 - 2j),
                              D.z_spider(2, 1, 3.0)), D.identity(1))


def test_a_kept_simplify_plan_dies_with_its_shape():
    d = _lone_host()
    RW._plan.cache_clear()
    assert RW.simplify(d).steps == 1
    RW.simplify(d)
    cap = 10 * len(d.nodes) + 20
    kept = weakref.ref(RW._plan(d, cap)[3])  # the result's shape
    shape = weakref.ref(d.shape)
    del d
    gc.collect()
    assert shape() is None and kept() is None
    # the entry went with its shape: a new diagram of it plans afresh,
    # and its first planning keeps nothing
    once = weakref.ref(RW.simplify(_lone_host()).diagram.shape)
    gc.collect()
    assert once() is None
