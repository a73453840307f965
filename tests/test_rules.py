import hashlib
import json
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from zxel import diagram as D
from zxel import rules as R
from zxel import semantics as S
from zxel.normalform import gadget, row_addition_diagram
from zxel.semantics import interpret, matrices_equal

from helpers import check_soundness_by_draw, run_python, topology, z_mat

CATALOG = R.catalog_by_name()


def test_catalog_unique_names_and_size():
    figure = R.figure_catalog()
    derived = R.derived_catalog()
    assert len(figure) == 17
    assert len(derived) >= 30
    assert all(r.provenance is None for r in figure)
    assert all(r.provenance for r in derived)


# full_catalog() as (name, arity, provenance), in order: the order fixes
# which draws of check_catalog's one rng each rule gets
CATALOG_ENTRIES = [
    ('S1', 2, None),
    ('S2', 0, None),
    ('S3', 0, None),
    ('Ept', 0, None),
    ('B1', 0, None),
    ('B2', 0, None),
    ('B3', 0, None),
    ('Brk', 0, None),
    ('Bas0', 0, None),
    ('Bas1', 0, None),
    ('Suc', 1, None),
    ('Inv', 0, None),
    ('Zero', 0, None),
    ('EU', 0, None),
    ('Sym', 0, None),
    ('Aso', 0, None),
    ('Pcy', 1, None),
    ('Sca', 2, 'scalartimes'),
    ('Zos', 0, 'zeroiscalarempty'),
    ('Sml', 2, 'scalartimesgeneral'),
    ('Siv', 0, 'halfinverse'),
    ('H2', 0, 'nhsquare'),
    ('H', 0, 'colorchanges'),
    ('S1x', 0, 'redspider0pifusion'),
    ('Hopf', 0, 'hopfnslm'),
    ('hopfvar2', 0, 'hopfvar2'),
    ("Bas1'", 0, 'redpitogreen2'),
    ('zx2e', 0, '2eprf'),
    ("AD'", 2, 'equivalentaddrulens'),
    ('additiongbx', 2, 'additiongbxlm'),
    ('Ivt', 0, 'definitionTriangleInverse2'),
    ('Pic', 1, 'pimultiplecplm'),
    ("Pic'", 0, 'pimultiplecp'),
    ('picommutation', 1, '1iprf'),
    ("Brk1'", 0, '2triangledeloopnopiflipns'),
    ('2m', 0, '2mprf'),
    ("Zero'", 0, 'zerodecom2'),
    ('tr5prime', 0, 'tr5primelm'),
    ('trianglehopf', 0, 'trianglehopflm'),
    ('Hopfgtr', 0, 'Hopfgtr'),
    ('gpiinhada', 0, 'gpiinhadalm'),
    ('gpiintriangles', 0, 'gpiintriangleslm'),
    ('pitinvcomut', 0, 'pitinvcomut'),
    ('trianglerpidot', 0, 'trianglerpidotlm'),
    ('triangleonreddot', 0, 'triangleonreddotlm'),
    ('2trianglebw2gn', 0, '2trianglebw2gnlm'),
    ('1triangle1pibw2gn', 0, '1triangle1pibw2gnlm'),
    ('TR4g', 1, 'TR4g'),
    ('Brk-var', 0, 'brkvariant'),
    ('Brkp', 1, 'anddflipwitha2'),
    ('BiA', 0, 'andbial'),
    ('generalBiA', 0, 'generalbialgebra'),
    ('andcopy', 0, 'andcopy'),
    ('andgate2v', 0, 'andgate2v'),
    ('andadditionco', 2, 'andadditionco'),
    ('andpicomt', 0, 'andpicomt'),
    ('Dis', 0, 'distribute'),
    ('Dis2', 1, 'distribute2'),
    ('picntcommut', 1, 'picntcommut'),
    ('picntcommutcro', 1, 'picntcommutcro'),
    ('picntcommutesam', 1, 'picntcommutesam'),
    ('picntcommutesamgrn', 1, 'picntcommutesamgrn'),
    ('picntcommutcro2', 1, 'picntcommutcro2'),
    ('picntcommuteand', 1, 'picntcommuteand'),
    ('picntcommuteandcr1', 1, 'picntcommuteandcr1'),
    ('piredonpairpidm', 1, 'piredonpairpidm'),
    ('prop1', 1, 'prop1'),
    ('prop1cro2', 1, 'propo1cro2'),
    ('itensorand', 1, 'itensorand'),
    ('nlinestensornormalform', 1, 'nlinestensornormalform'),
    ('normalformtensornlines', 1, 'normalformtensornlines'),
    ('nlinestensornormalformadd', 1, 'nlinestensornormalformadd'),
    ('nlinestensormmultiply', 1, 'nlinestensormmultiply'),
    ('propadprime', 2, 'propadprime'),
    ('propadprimecro', 2, 'propadprimecro'),
    ('addcommutat', 2, 'addcommutat'),
    ('addcommutatgen', 2, 'addcommutatgen'),
    ('addcommutatgencont', 2, 'addcommutatgencont'),
    ('raddcomplex', 2, 'raddcomplex'),
    ('raddcomplexsym', 2, 'raddcomplexsym'),
    ('ruletensorad', 2, 'ruletensorad'),
    ('ruletensorLsim', 1, 'ruletensorLsimpler'),
    ('ruletensorL', 1, 'ruletensor'),
    ('multiplypimulticommutesim', 2, 'multiplypimulticommutesim'),
    ('multiplypimulticommutg', 2, 'multiplypimulticommutg'),
    ('multiplypimulticommute', 2, 'multiplypimulticommute'),
    ('multiplypimulticommutgcro2', 2, 'multiplypimulticommutgcro2'),
    ('addpidoublecom', 2, 'addpidoublecom'),
    ('multipidoublecom', 2, 'multipidoublecom'),
    ('addpimultiplycommut', 2, 'addpimultiplycommut'),
    ('addpimultiplycommutg', 2, 'addpimultiplycommutg'),
    ('addpipairmultiplycommutgp', 2, 'addpipairmultiplycommutgp'),
    ('TR15', 2, 'pimultiplyabsorbtion'),
    ('pimultiaddcombinepro', 2, 'pimultiaddcombinepro'),
    ('pitopaddpipaircommutprop', 2, 'pitopaddpipaircommutprop'),
    ('cnotscomutelm', 0, 'cnotscomutelm'),
    ('addpipair2sidecommutprop', 2, 'addpipair2sidecommutprop'),
    ('addpipair2sidecommutprop28', 2, 'addpipair2sidecommutprop28'),
    ('addpipair2sidecommutprop29', 2, 'addpipair2sidecommutprop29'),
    ('addpipair2sidecommutprop29b', 2, 'addpipair2sidecommutprop29b'),
    ('addpipairmulcommutprop30a', 2, 'addpipairmulcommutprop30a'),
    ('addpipairmulcommutprop30b', 2, 'addpipairmulcommutprop30b'),
    ('addpipairmulcommutprop30bcro', 2, 'addpipairmulcommutprop30bcro'),
    ('addpipairmulcommutprop30c', 2, 'addpipairmulcommutprop30c'),
    ('addpipairmulcommutprop30ccro', 2, 'addpipairmulcommutprop30ccro'),
    ('rule10', 2, 'rule10'),
    ('rule10exten', 2, 'rule10exten'),
    ('rule12th', 1, 'rule12th'),
    ('rule12thexten', 1, 'rule12thexten'),
    ('rule12extengen', 1, 'rule12extengen'),
    ('3and3gdotcirc', 1, '3and3gdotcirc'),
    ('3and3gdotcircsimp', 1, '3and3gdotcircsimp'),
]


def test_catalog_is_pinned():
    got = [(r.name, r.arity, r.provenance) for r in R.full_catalog()]
    assert got == CATALOG_ENTRIES
    with_domain = [r.name for r in R.full_catalog() if r.domain is not None]
    assert with_domain == ["Pic", "picommutation", "TR4g"]


def test_catalog_contains_required_names():
    figure_names = {r.name for r in R.figure_catalog()}
    assert figure_names == {"S1", "S2", "S3", "Ept", "B1", "B2", "B3", "Brk",
                            "Bas0", "Bas1", "Suc", "Inv", "Zero", "EU",
                            "Sym", "Aso", "Pcy"}
    derived_names = {r.name for r in R.derived_catalog()}
    required = {
        "Sca", "Zos", "Sml", "Siv", "H2", "H", "Hopf", "Bas1'", "Pic",
        "Brk1'", "Zero'", "AD'", "Ivt", "Dis", "BiA", "Brkp",
        "additiongbx", "addcommutat", "addcommutatgen", "addcommutatgencont",
        "TR15", "picntcommut", "picntcommutesam", "picntcommutesamgrn",
        "picntcommuteand", "prop1", "propadprime", "itensorand",
        "addpidoublecom", "multipidoublecom", "addpimultiplycommut",
        "addpimultiplycommutg", "addpipairmultiplycommutgp",
        "pimultiaddcombinepro", "pitopaddpipaircommutprop",
        "multiplypimulticommute", "addpipair2sidecommutprop",
        "addpipair2sidecommutprop28", "addpipair2sidecommutprop29",
        "addpipair2sidecommutprop29b", "addpipairmulcommutprop30a",
        "addpipairmulcommutprop30b", "addpipairmulcommutprop30c",
        "rule10", "rule12th", "rule12extengen", "cnotscomutelm",
        "piredonpairpidm",
        "nlinestensornormalform", "normalformtensornlines",
        "nlinestensornormalformadd", "nlinestensormmultiply",
    }
    missing = required - derived_names
    assert not missing, f"missing derived rules: {missing}"


# in a fresh process, where zxel.rules loads on first use: is each name
# the object of that module, and where is it defined
_RESOLVED = """
import inspect, sys, zxel
rules = sys.modules["zxel.rules"]
for name, obj in (("full_catalog", zxel.full_catalog),
                  ("check_soundness", zxel.check_soundness),
                  ("catalog_by_name", zxel.rules.catalog_by_name)):
    print(obj is vars(rules)[name], inspect.getsourcefile(obj))
"""


def test_catalog_names_resolve_to_the_rules_module():
    proc = run_python("-c", _RESOLVED)
    assert proc.returncode == 0, proc.stderr[-2000:]
    source = Path(R.__file__).resolve()
    for line in proc.stdout.splitlines():
        same, path = line.split(" ", 1)
        assert same == "True" and Path(path).resolve() == source
    assert len(proc.stdout.splitlines()) == 3
    # and in this process, whichever way the package was first read
    import zxel
    for name in zxel._RULES_EXPORTS:
        assert getattr(zxel, name) is getattr(R, name)
    assert zxel.rules is R


# in a fresh process, four threads make the catalog's first read at once
_FIRST_READS = """
import threading, zxel
start, errors = threading.Barrier(4), []
def read():
    start.wait()
    try:
        zxel.rules.catalog_by_name()
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=read) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(errors, sum(t.is_alive() for t in threads))
"""


def test_threads_that_first_read_the_catalog_at_once_all_get_it():
    # a reader must wait for the module to finish running, not see it half
    # run (importlib.util.LazyLoader of Python 3.11 fails this every time)
    proc = run_python("-c", _FIRST_READS)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "[] 0\n"


def test_instantiate_s1_product_parameter():
    a, b = 1.5 - 0.5j, 0.25j
    lhs, rhs = R.instantiate(CATALOG["S1"], [a, b])
    assert lhs.type == rhs.type
    assert matrices_equal(interpret(lhs), z_mat(2, 2, a * b))
    assert matrices_equal(interpret(rhs), z_mat(2, 2, a * b))


def test_instantiate_hopf():
    lhs, rhs = R.instantiate(CATALOG["Hopf"], [])
    assert matrices_equal(interpret(lhs), interpret(rhs))
    # both sides disconnect into |0>(<0| + <1|)
    expect = np.array([[1, 1], [0, 0]], dtype=complex)
    assert matrices_equal(interpret(lhs), expect)


def test_instantiate_b2():
    lhs, rhs = R.instantiate(CATALOG["B2"], [])
    assert matrices_equal(interpret(lhs), interpret(rhs))


def test_instantiate_bad_arity():
    with pytest.raises(R.RuleError):
        R.instantiate(CATALOG["S1"], [1.0])


def test_instantiate_domain_restriction():
    with pytest.raises(R.RuleError):
        R.instantiate(CATALOG["Pic"], [0.0])


def test_check_soundness_s1():
    rep = R.check_soundness(CATALOG["S1"], samples=20, tol=1e-9)
    assert rep.ok and rep.checked >= 24
    assert rep.max_deviation <= 1e-9


def test_check_soundness_eu():
    rep = R.check_soundness(CATALOG["EU"], samples=20, tol=1e-9)
    assert rep.ok


def test_check_soundness_requires_samples():
    with pytest.raises(R.RuleError):
        R.check_soundness(CATALOG["S1"], samples=0)


def test_corrupted_rule_is_caught():
    rep = R.check_soundness(CATALOG["S1"], samples=5, corrupt=True)
    assert not rep.ok
    assert rep.failures


def test_corrupting_an_unknown_rule_is_an_error():
    with pytest.raises(R.RuleError, match="no rule named 'nosuchrule'"):
        R.check_catalog(R.full_catalog(), samples=1, corrupt="nosuchrule")


def test_check_soundness_matches_per_draw_reference():
    # the batched sweep against the old loop: every draw's sides and
    # flips interpreted one by one, on the same draws
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for rule in R.full_catalog():
        got = R.check_soundness(rule, samples=3, rng=rng)
        want = check_soundness_by_draw(rule, 3, R.DEFAULT_TOL, ref_rng)
        assert got == want, rule.name
    for name in ("S1", "Bas1", "addcommutat", "3and3gdotcirc"):
        got = R.check_soundness(CATALOG[name], samples=3, corrupt=True,
                                rng=np.random.default_rng(5))
        want = check_soundness_by_draw(CATALOG[name], 3, R.DEFAULT_TOL,
                                       np.random.default_rng(5),
                                       corrupt=True)
        assert not got.ok and got == want, name


def test_sides_of_two_types_fail_every_draw_at_infinity():
    # the deviations of all draws are taken at once; sides of different
    # types still give inf, draw by draw, as the per-draw loop did
    rule = R.RewriteRule("two types", 1, lambda ps: (
        D.z_spider(1, 1, ps[0]), D.z_spider(1, 2, ps[0])))
    got = R.check_soundness(rule, samples=3, rng=np.random.default_rng(6))
    want = check_soundness_by_draw(rule, 3, R.DEFAULT_TOL,
                                   np.random.default_rng(6))
    assert got == want
    assert got.checked == len(got.failures) == 4 + 3
    assert all(dev == float("inf") for _, dev in got.failures)
    # strict JSON has no Infinity: the report writes null there
    record = json.loads(json.dumps(got.to_jsonable(), allow_nan=False))
    assert record["max_deviation"] is None
    assert [f["deviation"] for f in record["failures"]] == [None] * 7
    # a rule whose sides change type from draw to draw, sound on the
    # real draws only, is checked draw by draw
    rule = R.RewriteRule("type per draw", 1, lambda ps: (
        D.z_spider(1, 1 + (ps[0].real > 0), ps[0]),
        D.z_spider(1, 1 + (ps[0].real > 0), ps[0].conjugate())))
    got = R.check_soundness(rule, samples=3, rng=np.random.default_rng(6))
    want = check_soundness_by_draw(rule, 3, R.DEFAULT_TOL,
                                   np.random.default_rng(6))
    assert got == want and 0 < len(got.failures) < got.checked


def _drawn(monkeypatch) -> list:
    """The calls of the phase-matrix path from now on: each side, its
    flip, their phase columns and the chunks read out of them."""
    calls = []
    drawn = R._interpret_drawn
    monkeypatch.setattr(R, "_interpret_drawn", lambda d, f, columns: (
        calls.append((d, f, columns, drawn(d, f, columns))) or calls[-1][3]))
    return calls


def _stacked(chunks: list, draws: int) -> np.ndarray:
    """A side's chunks of matrices as one stack of ``draws``: a side
    with no phase column is read out once and stands for every draw."""
    mats = np.concatenate(chunks)
    return np.broadcast_to(mats, (draws,) + mats.shape[1:])


@pytest.mark.parametrize("seed", [0, 5])
def test_templated_sides_equal_the_builders(monkeypatch, seed):
    # the sweep as check_catalog runs it: each templated side and its
    # flip, run over the phase matrix of all draws, and each side of an
    # arity-0 rule's one build with its flip, over one row, against the
    # rule's builder on each draw, every side and flip through
    # interpret_all, by the bytes of every matrix, sign of zero
    # included; each flip shares its side's nodes
    templated = {}
    template = R._templated
    monkeypatch.setattr(R, "_templated", lambda rule, draws: (
        templated.setdefault(rule.name, (draws, template(rule, draws)))[1]))
    calls = _drawn(monkeypatch)
    reports = R.check_catalog(R.full_catalog(), samples=20, seed=seed)
    assert all(r.ok for r in reports)
    sides = iter(calls)
    for rule in R.full_catalog():
        if rule.arity:
            draws, pairs = templated[rule.name]
            assert pairs is not None, rule.name
        else:
            draws = [[]]
            assert rule.name not in templated  # one draw: one build
        built = [d for ps in draws
                 for lhs, rhs in [rule.build([complex(p) for p in ps])]
                 for d in (lhs, rhs, D.flip(lhs), D.flip(rhs))]
        want = [m.tobytes() for m in S.interpret_all(built)]
        got = [[], [], [], []]
        for k in (0, 1):
            d, f, columns, (md, mf) = next(sides)
            assert f.nodes is d.nodes and f.port_edges is d.port_edges
            assert rule.arity or not columns
            got[k] = [m.tobytes() for m in _stacked(md, len(draws))]
            got[k + 2] = [m.tobytes() for m in _stacked(mf, len(draws))]
        assert [m for row in zip(*got) for m in row] == want, rule.name
    assert next(sides, None) is None


@pytest.mark.parametrize("build", [
    lambda ps: (D.z_spider(1, 1 + (ps[0].real > 0), ps[0]),
                D.z_spider(1, 1 + (ps[0].real > 0), ps[0])),
    lambda ps: (D.z_spider(1, 1, abs(ps[0])), D.z_spider(1, 1, ps[0])),
    lambda ps: (D.z_spider(1, 1, 2.0 if ps[0] == 0 else ps[0]),
                D.z_spider(1, 1, ps[0])),
    lambda ps: (D.z_spider(1, 1, ps[0] if isinstance(ps[0], complex)
                           else 1.0), D.z_spider(1, 1, ps[0])),
], ids=["real", "abs", "eq", "isinstance"])
def test_a_builder_that_reads_a_value_is_built_per_draw(monkeypatch, build):
    # no template: a placeholder read as a value raises, and one that
    # takes another branch differs from the first draw's real build
    rule = R.RewriteRule("reads a value", 1, build)
    templated = []
    template = R._templated
    monkeypatch.setattr(R, "_templated", lambda rule, draws: (
        templated.append(template(rule, draws)) or templated[-1]))
    got = R.check_soundness(rule, samples=5, rng=np.random.default_rng(8))
    want = check_soundness_by_draw(rule, 5, R.DEFAULT_TOL,
                                   np.random.default_rng(8))
    assert templated == [None] and got == want


def test_a_traced_phase_has_no_value():
    a = D._Traced(None, 0)
    b = 1.0 / (a + 1.0) - a * 2.0
    assert b.value([1.0j]) == 1.0 / (1.0j + 1.0) - 1.0j * 2.0
    assert (-a).value([2.0]) == -2.0
    for read in (bool, abs, complex, hash, lambda x: x == 0,
                 lambda x: x < 1, lambda x: x.real):
        with pytest.raises((TypeError, AttributeError)):
            read(b)


def test_check_soundness_compares_flips_with_the_transpose(monkeypatch):
    # with flip replaced by the identity map, flip(lhs) contracts to ml,
    # not to ml.T, for a rule with triangles: the sweep must notice
    lhs, _ = R.instantiate(CATALOG["Bas1"], [])
    assert not matrices_equal(interpret(lhs), interpret(lhs).T)
    monkeypatch.setattr(R, "flip", lambda d: d)
    assert not R.check_soundness(CATALOG["Bas1"], samples=1).ok


def _phase_free(d: D.Diagram) -> D.Diagram:
    """``d`` with every Z phase 1: a template side's topology."""
    return D.Diagram._of(d.shape, MappingProxyType(
        {v: D.Node(n.kind) for v, n in d.nodes.items()}))


def test_check_soundness_plans_once_per_topology(monkeypatch):
    plans = []
    order = D.contraction_order
    monkeypatch.setattr(D, "contraction_order",
                        lambda pe: plans.append(1) or order(pe))
    calls = _drawn(monkeypatch)
    rng = np.random.default_rng(6)
    for rule in R.full_catalog():
        plans.clear()
        calls.clear()
        R.check_soundness(rule, samples=3, rng=rng)
        sides = [g for d, f, _, _ in calls for g in (d, f)]
        assert len(plans) <= len({topology(_phase_free(d))
                                  for d in sides}), rule.name
    # S1 is flipped and its draws differ only in phases: lhs, rhs and
    # their flips, over 7 draws, are at most 4 plans
    plans.clear()
    R.check_soundness(CATALOG["S1"], samples=3, rng=rng)
    assert 1 <= len(plans) <= 4


def test_check_soundness_shares_a_side_with_its_flip(monkeypatch):
    # S1's draws differ only in phases, and each side shares its nodes
    # and edge indices with its flip: k draws read out 4k matrices, but
    # plan 2 shapes and run 2k rows of phase matrices, where a plan per
    # side and flip took 4 plans and 4k entries
    plans, rows = [], []
    order = D.contraction_order
    monkeypatch.setattr(D, "contraction_order",
                        lambda pe: plans.append(1) or order(pe))
    run = S._run
    monkeypatch.setattr(S, "_run", lambda plan, phases: rows.extend(
        phases) or run(plan, phases))
    calls = _drawn(monkeypatch)
    for samples in (1, 6):
        S._plan.cache_clear()
        D._WALKS.clear()  # a side's shape may outlive the first check
        plans.clear()
        rows.clear()
        calls.clear()
        rep = R.check_soundness(CATALOG["S1"], samples=samples,
                                rng=np.random.default_rng(7))
        k = rep.checked
        assert k > samples and rep.ok
        assert len(calls) == 2
        for d, f, _, chunks in calls:
            assert f.nodes is d.nodes
            assert sum(len(m) for ms in chunks for m in ms) == 2 * k
        assert len(plans) == 2 and len(rows) == 2 * k


def test_eu_is_euler_shaped():
    lhs, rhs = R.instantiate(CATALOG["EU"], [])
    # the three-phase decomposition equals (1+i) H
    assert matrices_equal(interpret(lhs),
                          (1 + 1j) * np.array([[1, 1], [1, -1]]))


def test_addcommutat_forced_zero_branch():
    # equality must hold when either parameter vanishes
    for params in ([0.0, 1.3], [0.7, 0.0], [0.0, 0.0]):
        lhs, rhs = R.instantiate(CATALOG["addcommutat"], params)
        assert matrices_equal(interpret(lhs), interpret(rhs))


def test_pimultiaddcombine_passes():
    rep = R.check_soundness(CATALOG["pimultiaddcombinepro"], samples=8)
    assert rep.ok


def test_piredonpairpidm_passes():
    rep = R.check_soundness(CATALOG["piredonpairpidm"], samples=8)
    assert rep.ok


def test_flipped_variants_checked():
    # a rule whose flip differs structurally still passes: triangles flip
    rep = R.check_soundness(CATALOG["Bas1"], samples=1)
    assert rep.ok
    lhs, _ = R.instantiate(CATALOG["Bas1"], [])
    assert matrices_equal(interpret(D.flip(lhs)), interpret(lhs).T)


def test_dropped_side_condition_breaks_commutation():
    # addpipairmulcommutprop30c requires the two wire sets to differ
    def bad(ps):
        a, b = ps
        g1 = row_addition_diagram(4, a, [2, 3])
        g2 = gadget(("mult", 4, [2, 3]), b)
        return D.compose(g1, g2), D.compose(g2, g1)

    rep = R.check_soundness(R.RewriteRule("bad30c", 2, bad), samples=6)
    assert not rep.ok


def test_report_jsonable():
    rep = R.check_soundness(CATALOG["Sca"], samples=3)
    rec = rep.to_jsonable()
    assert rec["rule"] == "Sca" and rec["ok"]


def test_boundary_types_match_for_all_rules():
    rng = np.random.default_rng(0)
    for rule in R.full_catalog():
        for _ in range(2):
            params = R._random_params(rule, rng) if rule.arity else []
            lhs, rhs = R.instantiate(rule, params)
            assert lhs.type == rhs.type, rule.name


# sha256 over every report of check_catalog(full_catalog()) at seeds 3
# and 11 with 1 and 6 samples, then with "Pic" corrupted at seed 2 and 6
# samples: each report's to_jsonable() as JSON with sorted keys, one a
# line.  Pinned when every draw of every rule was built on its own
CATALOG_SHA256 = ("75a2b5a0e64d76735c1bd72a9af0cb92"
                  "7f7f18aba71633414bceb31d415c489e")


def test_catalog_reports_are_stable():
    # the sweep's bytes: draws, deviations to the last bit, failures and
    # skipped draws, also of a corrupted rule
    digest = hashlib.sha256()
    runs = [dict(seed=k, samples=s) for k in (3, 11) for s in (1, 6)]
    for kwargs in runs + [dict(seed=2, samples=6, corrupt="Pic")]:
        for report in R.check_catalog(R.full_catalog(), **kwargs):
            assert report.ok != (report.name == kwargs.get("corrupt"))
            digest.update(json.dumps(report.to_jsonable(),
                                     sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == CATALOG_SHA256


# sha256 over both sides of every full_catalog() rule, built through
# instantiate on two draws each (one rng seeded 5; a rule without
# parameters is built twice): each side's shape fields, then each node's
# id, kind and phase as complex128 bytes.  Pinned before the catalog's
# gadget propositions were written as gadget words (``rules._chain``)
SIDES_SHA256 = ("888baee11b916f4cbc58d97dc2b24d51"
                "cec48e51e86421aa8dd68182d101908a")


def test_every_rules_sides_are_byte_stable():
    # the deviations that CATALOG_SHA256 pins would let a rewritten rule
    # build another diagram of equal matrices; these bytes would not
    digest = hashlib.sha256()
    rng = np.random.default_rng(5)
    for rule in R.full_catalog():
        for _ in range(2):
            params = R._random_params(rule, rng) if rule.arity else []
            for side in R.instantiate(rule, params):
                digest.update(repr(side.shape._fields()).encode())
                for v, nd in side.nodes.items():
                    digest.update(repr((v, nd.kind)).encode()
                                  + np.complex128(nd.phase).tobytes())
    assert digest.hexdigest() == SIDES_SHA256
