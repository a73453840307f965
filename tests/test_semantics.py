import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxel import diagram as D
from zxel import semantics as S

from helpers import (CAP_VEC, CUP_VEC, H_MAT, SWAP_MAT, T_INV_MAT, T_MAT,
                     X_MAT, parity_mat, random_diagram, z_mat)

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
            bare = S.interpret(D.x_spider_bare(n, m, tau))
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
