"""Groups of diagrams of one shape, which both routes run together: every
member must get the bytes of its own run, whichever of its phases the
group shares, and a group costs one run of the steps before its phases
first differ."""

from types import MappingProxyType

import numpy as np
import pytest

from zxel import diagram as D
from zxel import normalform as NF
from zxel import rules as R
from zxel import semantics as S

from helpers import nf_family, random_complex, random_diagram


def _nf(v) -> D.Diagram:
    return NF.nf_to_diagram(NF.nf_from_vector(v))


def _rephased(d: D.Diagram, phases: dict) -> D.Diagram:
    """``d`` with the Z nodes named in ``phases`` given those phases."""
    return D.Diagram._of(d.shape, MappingProxyType(
        {v: D.Node(n.kind, phases.get(v, n.phase))
         for v, n in d.nodes.items()}))


def _outcomes(run, ds) -> list:
    """Each result's bytes, or the error's type and message for all."""
    try:
        got = run(ds)
    except (S.ResourceError, NF.WireCapError, ArithmeticError) as exc:
        return [(type(exc), str(exc))]
    return [x.coeffs.tobytes() if isinstance(x, NF.NormalForm)
            else x.tobytes() for x in got]


def _assert_members_bytes(group, monkeypatch):
    """``normalize_all`` and ``interpret_all`` of the group give each
    member's own ``normalize`` and ``interpret``, to the byte, with the
    gather and the fixed-leaf step at their thresholds and at 0."""
    assert len({d.shape for d in group}) == 1
    for route, one in ((NF.normalize_all, NF.normalize),
                       (S.interpret_all, S.interpret)):
        want = [b for d in group for b in _outcomes(
            lambda ds: [one(ds[0])], [d])]
        if isinstance(want[0], tuple):  # a failing member fails the group
            assert _outcomes(route, group) == [next(
                w for w in want if isinstance(w, tuple))]
            continue
        assert _outcomes(route, group) == want
    for least in (0, 1 << 62):
        with monkeypatch.context() as patch:
            patch.setattr(S, "_GATHER_MIN", least)
            patch.setattr(S, "_FIXED_MIN", least)
            assert _outcomes(S.interpret_all, group) == [
                S.interpret(d).tobytes() for d in group]


def _nf_groups() -> list[list[D.Diagram]]:
    """Normal forms at m = 1..5 (``nf_family``'s at m >= 2): each with
    copies of itself, with one coefficient changed and with every
    coefficient changed."""
    rng = np.random.default_rng(61)
    groups = []
    for d in [_nf(rng.uniform(1, 9, 2))] + nf_family(5):
        v = NF.normalize(d).coeffs
        one = v.copy()
        one[rng.integers(v.size)] += 0.5
        groups.append([d, _nf(v), _nf(v)])
        groups.append([d, _nf(one)])
        groups.append([d] + [_nf(v * random_complex(rng) + 1)
                             for _ in range(3)])
    return groups


def test_a_normal_form_group_gives_its_members_bytes(monkeypatch):
    groups = _nf_groups()
    assert len(groups) == 15
    for group in groups:
        _assert_members_bytes(group, monkeypatch)


def test_a_catalog_side_group_gives_its_members_bytes(monkeypatch):
    # one side of every rule, built for real on three fresh draws
    rng = np.random.default_rng(62)
    groups = 0
    for rule in R.full_catalog():
        draws = [rule.build([complex(p) for p in R._random_params(
            rule, rng)] if rule.arity else []) for _ in range(3)]
        for side in zip(*draws):
            if all(d.shape == side[0].shape for d in side):
                _assert_members_bytes(list(side), monkeypatch)
                groups += 1
    assert groups > 150


def test_a_redrawn_random_diagram_group_gives_its_members_bytes(
        monkeypatch):
    # about half of the Z phases redrawn per member, so that some
    # columns vary and some do not
    rng = np.random.default_rng(63)
    for _ in range(40):
        d = random_diagram(rng)
        zs = [v for v, n in d.nodes.items() if n.kind == D.Z]
        group = [d] + [_rephased(d, {v: random_complex(rng) for v in zs
                                     if rng.uniform() < 0.5})
                       for _ in range(int(rng.integers(1, 4)))]
        _assert_members_bytes(group, monkeypatch)


@pytest.mark.parametrize("zero, shows", [
    (complex(-0.0, 0.0), True), (complex(0.0, -0.0), False),
    (complex(-0.0, -0.0), False)])
def test_a_signed_zero_column_varies(zero, shows, monkeypatch):
    # 0.0 and -0.0 compare equal but differ in their bits, so a column
    # that holds both varies: the contraction's root takes the batch
    # axis, and the fold runs on per member from that column.  Where a
    # sign shows in the result, each member keeps its own
    d = D.compose(D.z_spider(1, 1, 0.5), D.z_spider(1, 1, 0j))
    v = next(v for v, n in d.nodes.items() if n.phase == 0)
    group = [d, _rephased(d, {v: zero}), d]
    _assert_members_bytes(group, monkeypatch)
    # the fold keeps only a real part's sign here
    assert len({NF.normalize(x).coeffs.tobytes() for x in group}) == 1 + shows
    roots = []
    matrices = S._matrices
    monkeypatch.setattr(S, "_matrices", lambda t, axes, x, rows: roots.append(
        t.ndim > len(axes)) or matrices(t, axes, x, rows))
    S.interpret_all(group)
    assert roots == [True]
    NF.normalize_all(group)  # plan the shape twice, so that it keeps it
    one = _calls(monkeypatch, NF, "dot", lambda: NF.normalize_all([d]))
    assert _calls(monkeypatch, NF, "dot",
                  lambda: NF.normalize_all(group)) > one


def _fixed_shaped_z(d: D.Diagram) -> list:
    """The steps of ``d``'s contraction plan that absorb a degree-2 Z leaf
    sharing one wire and bringing one, as a fixed leaf is absorbed by
    slices: ``(src, Z node id)`` each."""
    leaves, steps = S._plan(d, S.wire_cap())[:2]
    return [(src, leaves[src][0]) for _, src, sub_dst, sub_src, _ in steps
            if isinstance(leaves[src], tuple) and len(sub_src) == 2
            and min(sub_src) < len(sub_dst) <= max(sub_src)]


def test_a_constant_degree_2_z_is_never_absorbed_by_slices(monkeypatch):
    # _absorb_fixed reads only the 0 and +-1 entries of its leaf, so a
    # constant Z leaf of phase 0.3 + 0.1j taken for a fixed one would
    # lose its phase: every row must still be the member's own matrix
    def build(a):
        return D.compose_all([D.z_spider(1, 2, a), D.tensor(
            D.z_spider(1, 1, 0.3 + 0.1j), D.h_box()),
            D.tensor(D.h_box(), D.triangle())])

    group = [build(a) for a in (0.5, 2j, -1.0, 3 + 1j)]
    held = {v for v, n in group[0].nodes.items() if n.phase == 0.3 + 0.1j}
    assert held & {v for _, v in _fixed_shaped_z(group[0])}
    fixed = []
    absorb = S._absorb_fixed
    monkeypatch.setattr(S, "_absorb_fixed",
                        lambda *a: fixed.append(1) or absorb(*a))
    monkeypatch.setattr(S, "_FIXED_MIN", 0)  # its size condition holds
    want = [S.interpret(d).tobytes() for d in group]
    fixed.clear()
    assert [m.tobytes() for m in S.interpret_all(group)] == want
    assert fixed  # the H leaves are still absorbed by slices


class _Counted:
    """numpy as a module sees it, with the calls of ``name`` counted."""

    def __init__(self, name):
        self.name, self.calls = name, 0

    def __getattr__(self, attr):
        fn = getattr(np, attr)
        if attr != self.name:
            return fn

        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counted


def _calls(monkeypatch, module, name, run) -> int:
    view = _Counted(name)
    with monkeypatch.context() as patch:
        patch.setattr(module, "np", view)
        run()
    return view.calls


@pytest.mark.parametrize("module, name, run_all", [
    (S, "einsum", S.interpret_all), (NF, "dot", NF.normalize_all)],
    ids=["einsum", "dot"])
def test_a_group_runs_once_until_its_phases_differ(monkeypatch, module,
                                                   name, run_all):
    # k members of equal phases cost one member's kernel calls; k members
    # one coefficient apart cost fewer than k times as many, whichever
    # coefficient differs
    rng = np.random.default_rng(64)
    v = rng.uniform(1, 9, 8) + 1j
    d, k = _nf(v), 3
    run_all([d, d])  # plan the shape twice, so that it keeps its plan
    one = _calls(monkeypatch, module, name, lambda: run_all([d]))
    assert one > 0
    same = [_nf(v) for _ in range(k)]
    assert _calls(monkeypatch, module, name, lambda: run_all(same)) == one
    for j in range(v.size):
        group = []
        for i in range(k):
            w = v.copy()
            w[j] += i
            group.append(_nf(w))
        assert _calls(monkeypatch, module, name,
                      lambda: run_all(group)) < k * one, j
