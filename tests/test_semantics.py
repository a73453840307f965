import hashlib
import re
import sys
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxel import diagram as D
from zxel import rules as R
from zxel import semantics as S
from zxel.io import load_diagram, save_diagram

from helpers import (CAP_VEC, CUP_VEC, H_MAT, SWAP_MAT, T_INV_MAT, T_MAT,
                     X_MAT, golden_corpus, nf_family, parity_mat,
                     random_diagram, topology, z_mat)

complexes = st.builds(complex,
                      st.floats(-2, 2, allow_nan=False),
                      st.floats(-2, 2, allow_nan=False))


def test_generator_matrices():
    a = 0.8 - 1.1j
    assert S.matrices_equal(S.interpret(D.z_spider(1, 1, a)), np.diag([1, a]))
    assert S.matrices_equal(S.interpret(D.h_box()), H_MAT)
    assert S.matrices_equal(S.interpret(D.triangle()), T_MAT)
    assert S.matrices_equal(S.interpret(D.triangle_inv()), T_INV_MAT)
    assert S.matrices_equal(S.interpret(D.swap()), SWAP_MAT)
    assert S.matrices_equal(S.interpret(D.cap()), CAP_VEC)
    assert S.matrices_equal(S.interpret(D.cup()), CUP_VEC)
    assert S.matrices_equal(S.interpret(D.empty()), np.array([[1.0]]))
    assert S.matrices_equal(S.interpret(D.x_spider(1, 1, D.TAU_PI)), X_MAT)


@given(complexes, st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_spider_formula(a, n, m):
    assert S.matrices_equal(S.interpret(D.z_spider(n, m, a)), z_mat(n, m, a))


def test_x_spider_parity_formula():
    for (n, m) in [(0, 1), (1, 1), (2, 1), (1, 2), (0, 2), (2, 2)]:
        for tau, is_pi in [(D.TAU_ZERO, False), (D.TAU_PI, True)]:
            got = S.interpret(D.x_spider(n, m, tau))
            assert S.matrices_equal(got, parity_mat(n, m, is_pi)), (n, m, tau)


def test_x_spider_macro_global_scalar_pinned_by_contraction():
    # the bare H-conjugation differs from the parity tensor by exactly 2,
    # for every arity; the macro builder compensates by a half scalar
    for (n, m) in [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        for tau, is_pi in [(D.TAU_ZERO, False), (D.TAU_PI, True)]:
            bare = S.interpret(D.compose_all([
                D.tensor_all([D.h_box()] * n),
                D.z_spider(n, m, -1.0 if is_pi else 1.0),
                D.tensor_all([D.h_box()] * m)]))
            assert S.matrices_equal(bare, 2 * parity_mat(n, m, is_pi)), (n, m)


def test_functoriality_compose_and_tensor():
    rng = np.random.default_rng(23)
    for _ in range(40):
        d1 = random_diagram(rng, max_wires=3, max_gens=6)
        d2 = random_diagram(rng, max_wires=3, max_gens=6)
        t = D.tensor(d1, d2)
        assert S.matrices_equal(
            S.interpret(t), np.kron(S.interpret(d1), S.interpret(d2)))
        if d1.n_out == d2.n_in:
            c = D.compose(d1, d2)
            assert S.matrices_equal(
                S.interpret(c), S.interpret(d2) @ S.interpret(d1))


def test_contraction_order_independence():
    # two different greedy tie-breaks: relabel the nodes so the
    # deterministic order differs, semantics must not
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = random_diagram(rng)
        ids = d.node_ids()
        remap = {v: 1000 - k for k, v in enumerate(ids)}

        def ren(ep):
            return ("n", remap[ep[1]], ep[2]) if ep[0] == "n" else ep

        d2 = D.Diagram({remap[v]: nd for v, nd in d.nodes.items()},
                       [(ren(a), ren(b)) for a, b in d.edges],
                       d.n_in, d.n_out, loops=d.loops)
        assert S.matrices_equal(S.interpret(d), S.interpret(d2))


def test_bare_loop_scalar_two():
    loop = D.compose(D.cap(), D.cup())
    assert S.matrices_equal(S.interpret(loop), np.array([[2.0]]))
    # cup . cap = (1,0,0,1)(1,0,0,1)^T = 2
    assert S.matrices_equal(CUP_VEC @ CAP_VEC, np.array([[2.0]]))


def test_contract_state():
    assert np.allclose(S.contract_state(D.cap()), [1, 0, 0, 1])
    a = 1.7 + 0.2j
    assert np.allclose(S.contract_state(D.z_spider(0, 1, a)), [1, a])
    v1 = S.contract_state(D.z_spider(0, 1, 2.0))
    v2 = S.contract_state(D.compose(D.z_spider(0, 1, 0.5j), D.h_box()))
    both = S.contract_state(
        D.tensor(D.z_spider(0, 1, 2.0),
                 D.compose(D.z_spider(0, 1, 0.5j), D.h_box())))
    assert np.allclose(both, np.kron(v1, v2))
    with pytest.raises(ValueError):
        S.contract_state(D.identity(1))


@given(st.integers(1, 3), st.integers(1, 3), complexes)
@settings(max_examples=30, deadline=None)
def test_matrices_equal_basics(r, c, z):
    a = np.full((r, c), z)
    assert S.matrices_equal(a, a, 1e-9)
    assert S.matrices_equal(a, a + 1e-12, 1e-9)
    assert not S.matrices_equal(a, a + 1e-6, 1e-9)


def test_matrices_equal_shape_mismatch():
    assert not S.matrices_equal(np.eye(2), np.ones((2, 1)))


def test_wire_cap_enforced(monkeypatch):
    monkeypatch.setenv("ZXEL_WIRE_CAP", "3")
    with pytest.raises(S.ResourceError):
        S.interpret(D.identity(2))
    monkeypatch.delenv("ZXEL_WIRE_CAP")
    assert S.wire_cap() == 14
    with pytest.raises(S.ResourceError):
        S.interpret(D.identity(3), cap=4)


@pytest.mark.parametrize("raw", ["abc", "-3", "0", "2.5", ""])
def test_wire_cap_rejects_malformed(monkeypatch, raw):
    monkeypatch.setenv("ZXEL_WIRE_CAP", raw)
    with pytest.raises(ValueError, match=f"got {raw!r}"):
        S.wire_cap()
    with pytest.raises(ValueError, match="ZXEL_WIRE_CAP"):
        S.interpret(D.identity(1))


def _batch_corpus():
    """A shuffled mix of topologies that repeat with other phases and
    loop counts, plus the edge cases of the contraction."""
    rng = np.random.default_rng(17)
    catalog = R.full_catalog()
    ds = []
    for rule in catalog[::7] + [R.catalog_by_name()["S1"]]:
        for _ in range(3):
            ps = R._random_params(rule, rng) if rule.arity else []
            lhs, rhs = rule.build([complex(p) for p in ps])
            ds += [lhs, rhs, D.flip(lhs), D.flip(rhs)]
    ds += [random_diagram(rng) for _ in range(40)]
    loop = D.compose(D.cap(), D.cup())              # a bare loop, no nodes
    ds += [D.empty(), D.identity(2), D.swap(), D.cap(), D.cup(), loop,
           D.tensor(loop, D.identity(1)), D.tensor(loop, loop)]
    for a in (0.5, -2j, 1 + 1j):
        z_loop = D.compose(D.z_spider(1, 3, a),
                           D.tensor(D.identity(1), D.cup()))
        ds += [D.scalar_z(a),                          # a degree-0 Z
               D.compose(D.z_spider(0, 2, a), D.cup()),  # Z, self-loop
               z_loop,                                 # degree 3, one loop
               D.tensor(z_loop, loop),                 # with loops > 0
               D.Diagram(z_loop.nodes, z_loop.edges, 1, 1, loops=3)]
    for gen in (D.h_box(), D.triangle(), D.triangle_inv()):
        # a 2-port generator on a self-loop is a trace
        ds.append(D.compose(D.cap(), D.compose(
            D.tensor(gen, D.identity(1)), D.cup())))
    order = rng.permutation(len(ds))
    return [ds[k] for k in order]


def test_interpret_all_equals_interpret_one_by_one():
    ds = _batch_corpus()
    got = S.interpret_all(ds)
    assert len(got) == len(ds)
    for d, mat in zip(ds, got):
        want = S.interpret(d)
        assert mat.shape == want.shape and np.array_equal(mat, want), d
    assert S.interpret_all([]) == []


def test_interpret_all_plans_each_topology_once(monkeypatch):
    ds = _batch_corpus()
    plans = []
    order = D.contraction_order
    monkeypatch.setattr(D, "contraction_order",
                        lambda pe: plans.append(1) or order(pe))
    S.interpret_all(ds)
    assert len(plans) <= len({topology(d) for d in ds}) < len(ds)


def test_interpret_all_chunks_a_group_under_the_cap(monkeypatch):
    # the Z node has 3 open wires, so at cap 4 a batch holds at most
    # 2^(4 - 3) = 2 diagrams: 5 diagrams run as 2, 2 and 1
    ds = [D.compose(D.z_spider(1, 2, a), D.tensor(D.h_box(), D.triangle()))
          for a in (0.5, 2j, -1.0, 3 + 1j, 0.25)]
    sizes = []
    run = S._run
    monkeypatch.setattr(S, "_run",
                        lambda plan, chunk: sizes.append(len(chunk)) or
                        run(plan, chunk))
    got = S.interpret_all(ds, cap=4)
    assert sizes == [2, 2, 1]
    for d, mat in zip(ds, got):
        assert np.array_equal(mat, S.interpret(d, cap=4))
    sizes.clear()
    S.interpret_all(ds, cap=10 ** 9)  # one batch, and no 2^(10^9)
    assert sizes == [5]


def _flip_corpus() -> list[D.Diagram]:
    """Both sides of one draw of every catalog rule, and the boundary
    cases of a flip: bare in -> out wires, swaps, a cap, a cup, loops, a
    0 -> 0 scalar and a node beside a bare wire."""
    rng = np.random.default_rng(41)
    ds = []
    for rule in R.full_catalog():
        ps = R._random_params(rule, rng) if rule.arity else []
        ds += rule.build([complex(p) for p in ps])
    loop = D.compose(D.cap(), D.cup())
    return ds + [D.identity(2), D.swap(), D.permutation([2, 0, 1]),
                 D.cap(), D.cup(), D.tensor(D.z_spider(1, 2, 0.5j), loop),
                 D.tensor(loop, D.identity(1)), D.scalar_z(-0.25 + 1j),
                 D.tensor(D.triangle(), D.identity(1))]


def test_a_diagram_and_its_flips_run_as_one_entry():
    # a flip shares its piece's nodes and edge indices (the port_edges of
    # a memoised flip may be an equal shape's), and read out together,
    # a diagram and its flips give interpret's bytes
    for d in _flip_corpus():
        f = D.flip(d)
        ff = D.flip(f)
        for g in (f, ff):
            assert g.port_edges == d.port_edges and g.nodes is d.nodes
        for ds in ([d, f], [d, f, ff], [f, d]):
            got = S.interpret_all(ds)
            for g, mat in zip(ds, got):
                want = S.interpret(g)
                assert mat.shape == want.shape, d
                assert mat.tobytes() == want.tobytes(), d
        assert np.array_equal(S.interpret(f), S.interpret(d).T)


def test_a_flip_loaded_from_a_file_gives_the_same_bytes(tmp_path):
    # a file's shape, equal to the flip's by value or not, may run apart
    # from the flip; its matrix is the flip's
    path = str(tmp_path / "f.zx")
    equal = 0
    for d in _flip_corpus():
        f = D.flip(d)
        save_diagram(f, path)
        g = load_diagram(path)
        equal += g.shape == f.shape
        got = S.interpret_all([d, f, g])
        want = S.interpret(f).tobytes()
        assert got[1].tobytes() == want and got[2].tobytes() == want, d
    assert equal >= 20  # most files renumber ports or edges; 45 do not


_CAP_MESSAGE = (r"(diagram has \d+ boundary wires|a node has \d+ open wires"
                r"|contraction needs \d+ open wires), cap is {}")


def test_interpret_all_raises_what_interpret_raises():
    # every over-cap diagram fails in interpret_all with interpret's
    # message, also behind a diagram that fits; a list fails with the
    # message of its first failing diagram
    rng = np.random.default_rng(3)
    ds = [random_diagram(rng, max_wires=4, max_gens=10) for _ in range(120)]
    kinds = set()
    for cap in (2, 3, 4):
        first = None
        for d in ds:
            try:
                S.interpret(d, cap=cap)
                continue
            except S.ResourceError as exc:
                message = str(exc)
            assert re.fullmatch(_CAP_MESSAGE.format(cap), message), message
            kinds.add(message.split(" ")[0])
            first = first or message
            with pytest.raises(S.ResourceError) as info:
                S.interpret_all([D.identity(1), d, d], cap=cap)
            assert str(info.value) == message
        with pytest.raises(S.ResourceError) as info:
            S.interpret_all(ds, cap=cap)
        assert str(info.value) == first
    assert kinds == {"diagram", "a", "contraction"}


def _random_entries(rng, shape):
    """Random complex entries with signed zeros mixed in, so that a
    difference in the sign of a zero shows in the bytes."""
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
             complex(-0.0, -0.0)]
    flat = a.reshape(-1)
    for k in rng.choice(flat.size, size=flat.size // 4, replace=False):
        flat[k] = zeros[k % 4]
    return a


@pytest.mark.parametrize("acc_wires, z_wires", [
    ([0, 1, 2], [2, 0, 1, 3]),   # every accumulator wire shared, one new
    ([0, 1, 2], [1, 2, 0]),      # every accumulator wire shared, none new
    ([0, 1, 2, 3], [3, 1]),      # no new wire
    ([0, 1], [2, 3, 4]),         # no shared wire: a Z alone in its component
    ([], [0, 1]),                # ... absorbed into a scalar
    ([0, 1, 2], [1, 2, 3]),      # two shared wires from parallel edges
    ([0, 1, 2, 3], [2, 4, 0, 5]),
])
@pytest.mark.parametrize("batched", [True, False])
def test_absorb_z_is_bitwise_the_einsum_step(acc_wires, z_wires, batched):
    # a gather step against the einsum step it replaces, on random
    # accumulators behind a batch axis or broadcast along it (an
    # accumulator of fixed tensors only, in a batched run)
    rng = np.random.default_rng(len(acc_wires) * 10 + len(z_wires))
    for b in (1, 3, 16):
        shared = [l for l in z_wires if l in acc_wires]
        (_, _, sub_acc, sub_z, sub_out), _ = S._pair_step(
            0, 1, list(acc_wires), list(z_wires), shared)
        acc = _random_entries(rng, ((b,) if batched else ()) +
                              (2,) * len(acc_wires))
        phases = _random_entries(rng, (b,))
        want = np.einsum(acc, [..., *sub_acc],
                         S._z_tensor(phases, len(z_wires), (b,)),
                         [..., *sub_z], [..., *sub_out])
        got = S._absorb_z(acc, sub_acc, sub_z, sub_out, phases)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [D.H, D.T, D.T_INV])
def test_absorb_fixed_is_bitwise_the_einsum_step(kind):
    # a fixed leaf sharing one wire, at either port, with every axis of
    # accumulators of 1-4 wires, against the einsum step it replaces;
    # entries include +0, -0 and (-0, -0), whose signs show in the bytes
    leaf = S._FIXED[kind]
    rng = np.random.default_rng(len(kind))
    signed_zeros = [complex(0.0, 0.0), complex(-0.0, 0.0),
                    complex(0.0, -0.0), complex(-0.0, -0.0)]
    cases = 0
    for k in range(1, 5):
        for at in range(k):
            for leaf_wires in ([at, k], [k, at]):
                (_, _, sub_acc, sub_leaf, sub_out), _ = S._pair_step(
                    0, 1, list(range(k)), leaf_wires, [at])
                for b in (2, 10):
                    acc = _random_entries(rng, (b,) + (2,) * k)
                    acc.reshape(-1)[:4] = signed_zeros
                    want = np.einsum(acc, [..., *sub_acc], leaf,
                                     [..., *sub_leaf], [..., *sub_out])
                    got = S._absorb_fixed(acc, sub_acc, sub_leaf, leaf)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    # an infinite entry leaves each batch row that einsum
                    # makes non-finite non-finite
                    acc.reshape(b, -1)[::3, rng.integers(2 ** k)] = np.inf
                    with np.errstate(invalid="ignore"):
                        want = np.einsum(acc, [..., *sub_acc], leaf,
                                         [..., *sub_leaf], [..., *sub_out])
                        got = S._absorb_fixed(acc, sub_acc, sub_leaf, leaf)
                    bad = [~np.isfinite(x).reshape(b, -1).all(axis=1)
                           for x in (got, want)]
                    assert bad[1].any()
                    assert np.array_equal(*bad)
                    cases += 1
    assert cases == 2 * 2 * (1 + 2 + 3 + 4)


def test_a_non_finite_fixed_leaf_step_fails_as_interpret_fails(
        monkeypatch):
    # an overflow before an H or triangle absorbed by slices fails the
    # batch with interpret's message
    monkeypatch.setattr(S, "_FIXED_MIN", 0)
    fixed = []
    absorb = S._absorb_fixed
    monkeypatch.setattr(S, "_absorb_fixed",
                        lambda *a: fixed.append(1) or absorb(*a))
    for gadget in (D.h_box(), D.triangle(), D.triangle_inv(),
                   D.triangle_flipped(), D.triangle_inv_flipped()):
        ds = [D.compose_all([D.z_spider(1, 1, a), D.z_spider(1, 1, b),
                             gadget, D.z_spider(1, 1, 0.5)])
              for a, b in ((0.5, 2.0), (1e200, 1e200), (1j, 3.0))]
        with pytest.raises(ArithmeticError) as want, \
                np.errstate(all="ignore"):
            S.interpret(ds[1])
        fixed.clear()
        with pytest.raises(ArithmeticError) as got, \
                np.errstate(all="ignore"):
            S.interpret_all(ds)
        assert fixed and str(got.value) == str(want.value)


def test_results_do_not_depend_on_the_gather(monkeypatch):
    # every eligible Z step gathers (0), or none does (2^62): the sweep's
    # reports are the same, and every matrix of the batch corpus has the
    # bytes of interpret's, one diagram at a time
    ds = _batch_corpus()
    want = [S.interpret(d).tobytes() for d in ds]
    reports = []
    for gather_min in (0, 1 << 62):
        monkeypatch.setattr(S, "_GATHER_MIN", gather_min)
        reports.append(R.check_catalog(R.full_catalog()))
        assert [m.tobytes() for m in S.interpret_all(ds)] == want
    assert reports[0] == reports[1]


def test_results_do_not_depend_on_the_fixed_leaf_step(monkeypatch):
    # every eligible H or triangle step goes by slices (0), or none does
    # (2^62): the sweep's reports are the same, and every matrix of the
    # batch corpus, and of the normal-form family batched with its
    # conjugate, has the bytes of interpret's, one diagram at a time
    ds = _batch_corpus() + nf_family(5)
    ds += [_conjugated(d) for d in nf_family(5)]
    want = [S.interpret(d).tobytes() for d in ds]
    fixed = []
    absorb = S._absorb_fixed
    monkeypatch.setattr(S, "_absorb_fixed",
                        lambda *a: fixed.append(1) or absorb(*a))
    reports = []
    for fixed_min in (0, 1 << 62):
        monkeypatch.setattr(S, "_FIXED_MIN", fixed_min)
        fixed.clear()
        reports.append(R.check_catalog(R.full_catalog(), samples=6))
        assert [m.tobytes() for m in S.interpret_all(ds)] == want
        assert bool(fixed) == (fixed_min == 0)
    assert reports[0] == reports[1]


def test_a_z_with_no_new_wire_is_never_gathered(monkeypatch):
    # a leaf whose every wire is shared shrinks the result, and no
    # workload runs such a step large enough for a gather to pay
    ds = _batch_corpus()
    seen = []
    absorb = S._absorb_z

    def spy(acc, sub_acc, sub_z, sub_out, phases):
        seen.append((set(sub_z) <= set(sub_acc), len(phases) << len(sub_out)))
        return absorb(acc, sub_acc, sub_z, sub_out, phases)

    monkeypatch.setattr(S, "_absorb_z", spy)
    for gather_min in (0, 4, 16, 64):
        monkeypatch.setattr(S, "_GATHER_MIN", gather_min)
        seen.clear()
        S.interpret_all(ds)
        assert seen
        for shrinks, entries in seen:
            assert not shrinks and entries >= gather_min


def test_a_degree_0_z_in_a_batch_is_not_gathered(monkeypatch):
    # the scalar 1 + phase: a gather would compute acc + acc*phase,
    # which differs from einsum's acc*(1 + phase) in the last bit
    monkeypatch.setattr(S, "_GATHER_MIN", 0)
    rng = np.random.default_rng(29)
    ds = []
    for _ in range(24):
        a, c = _random_entries(rng, (2,)) * 3
        ds.append(D.tensor(D.scalar_z(a), D.compose(
            D.z_spider(1, 2, c), D.tensor(D.h_box(), D.triangle()))))
    for d, mat in zip(ds, S.interpret_all(ds)):
        assert mat.tobytes() == S.interpret(d).tobytes(), d


class _SizeView:
    """numpy as seen by zxel.semantics, recording the size of every array
    its functions return or write through ``out``."""

    def __init__(self):
        self.peak = 0

    def __getattr__(self, name):
        fn = getattr(np, name)
        if not callable(fn):
            return fn

        def recorded(*args, **kwargs):
            res = fn(*args, **kwargs)
            for a in (res, kwargs.get("out")):
                if isinstance(a, np.ndarray):
                    self.peak = max(self.peak, a.size)
            return res
        return recorded


@pytest.mark.parametrize("gather_min", [0, S._GATHER_MIN])
def test_interpret_all_chunks_hold_no_array_over_the_cap(monkeypatch,
                                                         gather_min):
    # interpret_all's promise: a batch holds no larger array than one
    # diagram at the cap could, gathers included
    rng = np.random.default_rng(31)
    ds = [D.compose(D.z_spider(1, 2, a), D.tensor(D.h_box(), D.triangle()))
          for a in (0.5, 2j, -1.0, 3 + 1j, 0.25)]
    for rule in R.full_catalog():
        for _ in range(4):
            ps = R._random_params(rule, rng) if rule.arity else []
            lhs, rhs = rule.build([complex(p) for p in ps])
            ds += [lhs, rhs, D.flip(lhs)]
    # members listed twice in an entry: a diagram listed twice, and the
    # cached sides of arity-0 rules built once more
    ds += ds[::3]
    for rule in R.full_catalog():
        if not rule.arity:
            ds += rule.build([])
    monkeypatch.setattr(S, "_GATHER_MIN", gather_min)
    monkeypatch.setattr(S, "_FIXED_MIN", gather_min)
    gathers, fixed = [], []
    absorb, absorb_fixed = S._absorb_z, S._absorb_fixed
    monkeypatch.setattr(S, "_absorb_z",
                        lambda *a: gathers.append(1) or absorb(*a))
    monkeypatch.setattr(S, "_absorb_fixed",
                        lambda *a: fixed.append(1) or absorb_fixed(*a))
    view = _SizeView()
    monkeypatch.setattr(S, "np", view)
    for cap in (4, 5, 6):
        fits = []
        for d in ds:
            try:
                S._plan(d, cap)
            except S.ResourceError:
                continue
            fits.append(d)
        view.peak = 0
        S.interpret_all(fits, cap=cap)
        assert 0 < view.peak <= 2 ** cap, cap
    assert bool(gathers) == bool(fixed) == (gather_min == 0)

    # and so does check_soundness, whose templates run every draw over
    # one phase matrix, at each cap (rules that do not fit fail)
    drawn = []
    run_drawn = R._interpret_drawn
    monkeypatch.setattr(R, "_interpret_drawn", lambda *a: drawn.append(
        1) or run_drawn(*a))
    for cap in (4, 5, 6):
        monkeypatch.setenv("ZXEL_WIRE_CAP", str(cap))
        view.peak, drawn[:], checked = 0, [], 0
        for rule in R.full_catalog():
            try:
                checked += R.check_soundness(rule, samples=6, rng=rng).ok
            except S.ResourceError:
                continue
        assert checked and drawn and 0 < view.peak <= 2 ** cap, cap


def _readout_corpus() -> list[D.Diagram]:
    """Two draws of every catalog rule, both sides and their flips, and
    what a batched readout must keep apart: every fifth diagram listed
    twice, the cached sides of arity-0 rules in three draws, Z-free
    groups, bare wires, loops and 0 -> 0 scalars."""
    rng = np.random.default_rng(43)
    ds = []
    for rule in R.full_catalog():
        for _ in range(2 if rule.arity else 3):
            ps = R._random_params(rule, rng) if rule.arity else []
            sides = rule.build([complex(p) for p in ps])
            ds += [*sides, *map(D.flip, sides)]
    loop = D.compose(D.cap(), D.cup())
    ds += [D.compose(D.h_box(), D.triangle()) for _ in range(3)]
    ds += [D.tensor(D.z_spider(1, 1, a), loop) for a in (0.5, 3j, -2.0)]
    ds += [D.scalar_z(a) for a in (0.5, -1.0, 2j)]
    ds += [D.identity(2), D.swap(), D.cap(), D.cup(), loop, D.empty(),
           D.tensor(D.triangle(), D.identity(1))]
    return ds + ds[::5]


def test_interpret_all_reads_out_what_interpret_reads_out(monkeypatch):
    # a batched chunk is read out at once; every matrix is interpret's,
    # to the byte
    ds = _readout_corpus()
    want = [S.interpret(d) for d in ds]
    readouts = []  # (rows read, rows of a batched root or 0)
    matrices = S._matrices
    monkeypatch.setattr(S, "_matrices", lambda t, ends, d, rows:
                        readouts.append((rows, t.shape[0]
                                         if t.ndim > len(ends) else 0))
                        or matrices(t, ends, d, rows))
    got = S.interpret_all(ds)
    for d, mat, w in zip(ds, got, want):
        assert mat.shape == w.shape and mat.dtype == w.dtype, d
        assert mat.tobytes() == w.tobytes(), d
    # whole batches and roots with no Z phase
    assert any(1 < read == rows for read, rows in readouts)
    assert any(1 < read and not rows for read, rows in readouts)


def test_check_soundness_reads_each_side_out_once(monkeypatch):
    # S1's four sides each have one shape over all draws: four readouts
    calls = []
    matrices = S._matrices
    monkeypatch.setattr(S, "_matrices",
                        lambda *a: calls.append(a[3]) or matrices(*a))
    report = R.check_soundness(R.catalog_by_name()["S1"], samples=20)
    assert report.ok and report.checked == 24
    assert calls == [24] * 4


def test_a_readout_builds_a_slot_table_only_for_another_shape(
        monkeypatch):
    # a plan records its own shape's readout axes: reading out of kept
    # plans builds no slot table, and a flip read out of the same root
    # builds its own once per run, however many chunks the run takes
    ds = _readout_corpus()
    want = [m.tobytes() for m in S.interpret_all(ds)]
    S.interpret_all(ds)  # the second planning of each shape keeps it
    d = D.compose(D.z_spider(1, 2, 0.5j), D.tensor(D.triangle(), D.h_box()))
    f = D.flip(d)
    cap = S._plan(d, 14)[5] + 1  # chunks of two rows
    S._plan(d, cap)
    built = []
    slot_ends = S._slot_ends
    monkeypatch.setattr(S, "_slot_ends",
                        lambda s: built.append(s) or slot_ends(s))
    assert [m.tobytes() for m in S.interpret_all(ds)] == want
    assert built == []
    v = next(v for v, n in d.nodes.items() if n.kind == D.Z)
    monkeypatch.setenv("ZXEL_WIRE_CAP", str(cap))
    chunks = S._interpret_drawn(d, f, {v: [0.5j, 2.0, -1.0, 3j, 1.0]})
    assert [len(c) for c in chunks] == [3, 3]
    assert built == [f.shape]
    for side, x in ((chunks[0], d), (chunks[1], f)):
        for k, a in enumerate([0.5j, 2.0, -1.0, 3j, 1.0]):
            want = S.interpret(D.Diagram._of(x.shape, MappingProxyType(
                {**x.nodes, v: D.Node(D.Z, a)})), cap=14)
            got = np.concatenate(side)[k]
            assert got.tobytes() == want.tobytes()


def test_interpret_all_reads_a_repeated_diagram_out_once(monkeypatch):
    # d listed three times and its flip once: each shape read out once,
    # where a readout per listing read d out three times
    d = D.compose(D.z_spider(1, 2, 0.5j), D.tensor(D.triangle(), D.h_box()))
    ds = [d, d, D.flip(d), d]
    want = [S.interpret(x) for x in ds]
    calls = []
    matrices = S._matrices
    monkeypatch.setattr(S, "_matrices",
                        lambda *a: calls.append(a[2]) or matrices(*a))
    got = S.interpret_all(ds)
    assert calls == [d, ds[2]]
    assert [m.tobytes() for m in got] == [w.tobytes() for w in want]


def test_a_non_finite_member_fails_its_batch_as_interpret_fails():
    ds = [D.compose(D.z_spider(1, 1, a), D.z_spider(1, 1, b))
          for a, b in ((0.5, 2.0), (1e200, 1e200), (1j, 3.0))]
    with pytest.raises(ArithmeticError) as want, np.errstate(all="ignore"):
        S.interpret(ds[1])
    for batch in (ds, ds + [D.flip(d) for d in ds], ds[1:] + ds[1:]):
        with pytest.raises(ArithmeticError) as got, \
                np.errstate(all="ignore"):
            S.interpret_all(batch)
        assert str(got.value) == str(want.value)


class _EinsumView:
    """numpy as seen by zxel.semantics, its einsum passed through to
    numpy's and counted: a call with ``out=`` is a gather's, any other a
    plan step's."""

    def __init__(self):
        self.steps = self.gathers = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, *args, **kwargs):
        if "out" in kwargs:
            self.gathers += 1
        else:
            self.steps += 1
        return np.einsum(*args, **kwargs)


def _conjugated(d: D.Diagram) -> D.Diagram:
    """``d`` with every Z phase conjugated: its wiring, other nodes."""
    return D.Diagram._of(d.shape, MappingProxyType(
        {v: D.Node(n.kind, n.phase.conjugate()) for v, n in d.nodes.items()}))


def test_the_c_einsum_entry_keeps_its_observers_and_its_bytes(monkeypatch):
    # the C entry serves a run only while np.einsum is numpy's own: an
    # observer swapped in as S.np sees every plan step, of interpret and
    # of a batched interpret_all, and all three entries give one result
    ds = list(golden_corpus()) + nf_family(5)
    batch = ds + [_conjugated(d) for d in ds]

    def results():
        return ([S.interpret(d).tobytes() for d in ds],
                [m.tobytes() for m in S.interpret_all(batch)])

    assert S._C_EINSUM is not np.einsum
    fast = results()

    runs, gathers, fixed, c_calls = [], [], [], []
    run, absorb, c_einsum = S._run, S._absorb_z, S._C_EINSUM
    absorb_fixed = S._absorb_fixed
    monkeypatch.setattr(S, "_run", lambda plan, chunk: runs.append(
        (len(plan[1]), len(chunk))) or run(plan, chunk))
    monkeypatch.setattr(S, "_absorb_z",
                        lambda *a: gathers.append(1) or absorb(*a))
    monkeypatch.setattr(S, "_absorb_fixed",
                        lambda *a: fixed.append(1) or absorb_fixed(*a))
    monkeypatch.setattr(S, "_C_EINSUM",
                        lambda *a: c_calls.append(1) or c_einsum(*a))

    def einsum_steps():  # the plans' steps of every run, minus gathers
        # and fixed leaves absorbed by slices
        return sum(steps for steps, _ in runs) - len(gathers) - len(fixed)

    assert results() == fast
    assert max(size for _, size in runs) > 1 and gathers and fixed
    assert len(c_calls) == einsum_steps()

    for seen in (runs, gathers, fixed, c_calls):
        seen.clear()
    view = _EinsumView()
    monkeypatch.setattr(S, "np", view)
    assert results() == fast
    assert view.steps == einsum_steps() and view.gathers == len(gathers)
    assert gathers and fixed and not c_calls
    monkeypatch.setattr(S, "np", np)

    # without numpy's C entry, the kernel is np.einsum itself
    with monkeypatch.context() as blocked:
        for path in ("numpy._core.multiarray", "numpy.core.multiarray"):
            blocked.setitem(sys.modules, path, None)
        fallback = S._c_einsum()
    assert fallback is np.einsum
    monkeypatch.setattr(S, "_C_EINSUM", fallback)
    assert results() == fast


# sha256 over the outcome of interpret at every cap 1-15 on the corpus of
# _cap_error_digest, as the semantics planner checked its caps when the
# two routes each redid the walk's bookkeeping
CAP_ERRORS_SHA256 = ("479ee04e16f1f38e67bd637f55ccdf6f"
                     "f3353efe70fad4a972be239e829f294d")


def _cap_error_digest() -> str:
    """Every ninth diagram of the golden corpus, ``nf_family(5)`` and 300
    ``random_diagram``s (rng seed 41): each outcome is "ok" or the
    exception's type and message."""
    rng = np.random.default_rng(41)
    corpus = (list(golden_corpus()) + nf_family(5)
              + [random_diagram(rng) for _ in range(300)])
    digest = hashlib.sha256()
    for d in corpus[::9]:
        for cap in range(1, 16):
            try:
                S.interpret(d, cap=cap)
                outcome = "ok"
            except (S.ResourceError, ArithmeticError) as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            digest.update(outcome.encode() + b"\n")
    return digest.hexdigest()


def test_cap_errors_are_stable():
    # the type and message of interpret's error at every cap, so also
    # the order of its checks: boundary, each node, then each step
    assert _cap_error_digest() == CAP_ERRORS_SHA256
