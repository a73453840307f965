import functools

import numpy as np
import pytest

from zxel import diagram as D
from zxel import rewrite as RW
from zxel.io import dumps_diagram
from zxel.semantics import interpret, matrices_equal

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
    res = RW.simplify(d)
    assert res.steps == 43 and len(calls) == 1
    calls.clear()
    assert RW.simplify(res.diagram).steps == 0 and calls == []


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
