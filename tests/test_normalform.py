import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxel import diagram as D
from zxel import normalform as NF
from zxel.semantics import (ResourceError, contract_state, interpret,
                            matrices_equal, max_deviation)

from helpers import (elementary_op_matrix, perm_matrix, random_complex,
                     random_diagram, row_addition_matrix,
                     row_multiplication_matrix, z_mat)

complexes = st.builds(complex,
                      st.floats(-2, 2, allow_nan=False),
                      st.floats(-2, 2, allow_nan=False))


def coeff_vectors(m):
    return st.lists(complexes, min_size=2 ** m, max_size=2 ** m)


# -- elementary diagrams ---------------------------------------------------

def test_row_addition_m1():
    a = 0.4 - 2.2j
    got = interpret(NF.row_addition_diagram(1, a, [0]))
    assert matrices_equal(got, np.array([[1, a], [0, 1]]), 1e-12)


def test_row_addition_m2_single_wire():
    a = -1.9 + 0.3j
    got = interpret(NF.row_addition_diagram(2, a, [0]))
    expect = np.eye(4, dtype=complex)
    expect[2, 3] = a
    assert matrices_equal(got, expect, 1e-12)


def test_row_addition_zero_coefficient_identity():
    got = interpret(NF.row_addition_diagram(3, 0.0, [1, 2]))
    assert matrices_equal(got, np.eye(8), 1e-12)


def test_row_addition_all_subsets_exact():
    a = 1.3 + 0.7j
    for m in (1, 2, 3):
        for r in range(1, m + 1):
            for subset in itertools.combinations(range(m), r):
                got = interpret(NF.row_addition_diagram(m, a, subset))
                assert matrices_equal(
                    got, row_addition_matrix(m, a, subset), 1e-12), (m, subset)


def test_row_addition_rejects_bad_subset():
    with pytest.raises(ValueError):
        NF.row_addition_diagram(2, 1.0, [])
    with pytest.raises(ValueError):
        NF.row_addition_diagram(2, 1.0, [5])


def test_row_multiplication():
    a = 0.9 + 0.9j
    assert matrices_equal(interpret(NF.row_multiplication_diagram(1, a)),
                          np.diag([1, a]), 1e-12)
    assert matrices_equal(interpret(NF.row_multiplication_diagram(2, 1.0)),
                          np.eye(4), 1e-12)
    assert matrices_equal(interpret(NF.row_multiplication_diagram(2, 0.0)),
                          np.diag([1, 1, 1, 0]), 1e-12)


def test_elementary_spec_matrix_matches_independent_formula():
    a = -0.2 + 1.4j
    spec = NF.ElementarySpec("add", 3, a, frozenset({0, 2}))
    assert np.allclose(spec.matrix(), row_addition_matrix(3, a, [0, 2]))
    assert spec.target_row == 8 - 1 - (1 + 4)
    spec = NF.ElementarySpec("mult", 2, a)
    assert np.allclose(spec.matrix(), row_multiplication_matrix(2, a))


def test_row_additions_commute_semantically():
    a, b = 0.3 + 0.1j, -1.1 - 0.6j
    for m in (2, 3):
        subsets = [s for r in range(1, m + 1)
                   for s in itertools.combinations(range(m), r)]
        for s1 in subsets:
            for s2 in subsets:
                m1 = row_addition_matrix(m, a, s1)
                m2 = row_addition_matrix(m, b, s2)
                assert np.allclose(m1 @ m2, m2 @ m1), (s1, s2)


def test_decorated_gadgets_are_pi_conjugations():
    a = 0.5 - 0.5j
    dec = interpret(NF.decorated_row_addition(2, a, [0], [1]))
    x1 = interpret(NF.pi_layer(2, [1]))
    core = interpret(NF.row_addition_diagram(2, a, [0]))
    assert matrices_equal(dec, x1 @ core @ x1, 1e-9)


def test_perm_matrix_matches_contraction():
    # index arithmetic against the contraction of the wiring diagram
    for m in range(4):
        for p in itertools.permutations(range(m)):
            assert np.array_equal(perm_matrix(list(p)),
                                  interpret(D.permutation(list(p))))


def _elementary_corpus(rng):
    """Matrices of every kind for m = 0..3, at magnitudes 1e-3 to 1e6,
    and the m = 4 kinds whose gadget chains stay within the float range
    of the interpretation: permutations and unit triangular matrices."""
    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for m in range(4):
        n = 2 ** m
        for _ in range(2):
            scale = 10 ** rng.uniform(-3, 6)
            yield cplx(n, n) * scale  # invertible
            for rank in range(n + 1):
                yield cplx(n, rank) @ cplx(rank, n) * scale
            if n > 2:  # dependent columns in the middle
                mat = cplx(n, n)
                mat[:, 1] = mat[:, 0] * cplx(1)[0]
                mat[:, 2] = mat[:, 0] - 2 * mat[:, 1]
                yield mat * scale
            yield perm_matrix(list(rng.permutation(m))) if m else \
                np.ones((1, 1), dtype=complex)
            yield np.eye(n)[rng.permutation(n)] + 0j
            yield np.diag(cplx(n) * rng.integers(0, 2, size=n)) * scale
            yield np.triu(cplx(n, n)) * scale
            yield np.tril(cplx(n, n)) * scale
    for _ in range(2):
        yield np.eye(16)[rng.permutation(16)] + 0j
        off = rng.uniform(-0.5, 0.5, (16, 16, 2)) @ [1, 1j]  # |off| < 1
        yield np.eye(16) + np.triu(off, 1)
        yield np.eye(16) + np.tril(off, -1)


def test_decompose_elementary_reproduces_every_matrix():
    rng = np.random.default_rng(17)
    kinds, count = set(), 0
    for mat in _elementary_corpus(rng):
        n = mat.shape[0]
        m = n.bit_length() - 1
        ops, d = NF.decompose_elementary(mat)
        assert len(ops) <= 3 * 4 ** m, (m, len(ops))
        assert d.type == (m, m)
        scale = max(1.0, np.abs(mat).max())
        assert max_deviation(interpret(d), mat) <= 1e-7 * scale, mat
        # the records alone name the same factorization
        product = np.eye(n, dtype=complex)
        for op in ops:
            assert set(op) <= {"kind", "m", "coeff", "subset", "pi"}
            assert op["m"] == m and op.get("pi") != []
            product = elementary_op_matrix(op) @ product
        assert max_deviation(product, mat) <= 1e-12 * scale
        kinds.update(op["kind"] for op in ops)
        count += 1
    assert kinds == {"add", "mult"} and count > 70


@pytest.mark.parametrize("seed", [15, 83, 168, 249])
def test_decompose_elementary_drops_elimination_residues(seed):
    # rank-deficient 8x8 matrices whose elimination residues exceed
    # n * eps * max|M|: a residue taken as a pivot would give coefficients
    # near 1e15 and an interpretation off by several percent
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 8))
    mat = ((rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank)))
           @ (rng.normal(size=(rank, 8)) + 1j * rng.normal(size=(rank, 8))))
    ops, d = NF.decompose_elementary(mat)
    zeros = [op for op in ops if op["kind"] == "mult" and op["coeff"] == [0, 0]]
    assert len(zeros) == 8 - rank
    assert max_deviation(interpret(d), mat) <= 1e-7 * np.abs(mat).max()


def test_decompose_elementary_keeps_small_pivots():
    # the pivot -1/32000 is far above n * eps * max|M|: no zero-scaling,
    # and every scaling records a pivot itself
    mat = np.array([[32000, 1], [1, 0]], dtype=complex)
    ops, d = NF.decompose_elementary(mat)
    mults = [complex(*op["coeff"]) for op in ops if op["kind"] == "mult"]
    assert 0 not in mults and 32000 in mults and -1 / 32000 in mults
    assert max_deviation(interpret(d), mat) <= 1e-7 * 32000


def test_decompose_elementary_edge_cases():
    ops, d = NF.decompose_elementary(np.array([[2 - 1j]]))
    assert ops == [{"kind": "mult", "m": 0, "coeff": [2.0, -1.0]}]
    assert d.type == (0, 0) and interpret(d)[0, 0] == 2 - 1j
    ops, d = NF.decompose_elementary(np.eye(4, dtype=complex))
    assert ops == [] and d.type == (2, 2)
    ops, _ = NF.decompose_elementary(np.zeros((2, 2), dtype=complex))
    assert [op["kind"] for op in ops] == ["mult", "mult"]
    for bad in (np.zeros((2, 4)), np.eye(3), np.zeros((0, 0))):
        with pytest.raises(ValueError):
            NF.decompose_elementary(bad)
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in ([[1e308, 1e308], [1e308, -1e308]],
                    [[1.7e308 + 1.7e308j, 0], [0, 1]], [[np.nan, 0], [0, 1]]):
            with pytest.raises(ArithmeticError):
                NF.decompose_elementary(np.array(bad, dtype=complex))


# -- normal forms ----------------------------------------------------------

def test_nf_from_vector_specs():
    # spec'd mapping for m = 2
    a0, a1, a2, a3 = 1.0, 2.0, 3.0, 4.0
    specs = NF.elementary_specs(NF.nf_from_vector([a0, a1, a2, a3]))
    assert specs[0].kind == "add" and specs[0].subset == frozenset({0, 1})
    assert specs[0].coeff == a0
    assert specs[1].subset == frozenset({1}) and specs[1].coeff == a1
    assert specs[2].subset == frozenset({0}) and specs[2].coeff == a2
    assert specs[3].kind == "mult" and specs[3].coeff == a3
    # target rows increase
    rows = [s.target_row for s in specs]
    assert rows == sorted(rows)


def test_nf_from_vector_basis_case():
    m = 2
    v = np.zeros(4)
    v[-1] = 1.0
    specs = NF.elementary_specs(NF.nf_from_vector(v))
    assert all(s.coeff == 0 for s in specs if s.kind == "add")
    assert specs[-1].coeff == 1.0


def test_nf_from_vector_all_zero():
    specs = NF.elementary_specs(NF.nf_from_vector(np.zeros(4)))
    assert all(s.coeff == 0 for s in specs)


def test_nf_from_vector_rejects_bad_length():
    with pytest.raises(ValueError):
        NF.nf_from_vector([1.0, 2.0, 3.0])


def test_nf_to_diagram_examples():
    assert np.allclose(
        contract_state(NF.nf_to_diagram(NF.nf_from_vector([1, 0]))), [1, 0])
    assert np.allclose(
        contract_state(NF.nf_to_diagram(NF.nf_from_vector([1, 0, 0, 1]))),
        contract_state(D.cap()))
    a = 0.25 + 1.5j
    assert np.allclose(
        contract_state(NF.nf_to_diagram(NF.nf_from_vector([1, a]))), [1, a])


def test_nf_diagram_structure():
    nf = NF.nf_from_vector(np.arange(1, 9, dtype=complex))
    specs = NF.elementary_specs(nf)
    assert len([s for s in specs if s.kind == "add"]) == 2 ** 3 - 1
    assert len([s for s in specs if s.kind == "mult"]) == 1


def test_scalar_nf():
    for a in (1.0, 0.0, 2 + 3j):
        assert matrices_equal(interpret(NF.scalar_nf_diagram(a)),
                              np.array([[a]]))
        assert NF.scalar_nf(a).m == 0 and NF.scalar_nf(a).coeffs == (a,)


@given(coeff_vectors(2), coeff_vectors(1))
@settings(max_examples=25, deadline=None)
def test_nf_tensor_matches_kronecker(va, vb):
    got = NF.nf_tensor(NF.nf_from_vector(va), NF.nf_from_vector(vb))
    assert np.allclose(got.vector(), np.kron(va, vb), atol=1e-12)


def test_nf_tensor_examples():
    a, b = 0.3 + 1j, -2.0
    t = NF.nf_tensor(NF.nf_from_vector([1, a]), NF.nf_from_vector([1, b]))
    assert np.allclose(t.vector(), [1, b, a, a * b])
    s = NF.nf_tensor(NF.scalar_nf(2.5), NF.nf_from_vector([1, a]))
    assert np.allclose(s.vector(), [2.5, 2.5 * a])
    u = NF.nf_tensor(NF.nf_from_vector([1, a]), NF.scalar_nf(1.0))
    assert np.allclose(u.vector(), [1, a])


def test_self_plug_paper_formulas():
    nf = NF.nf_from_vector([3.0, 5.0, 7.0, 11.0])
    assert NF.nf_self_plug(nf, (0, 1)).coeffs == (3.0 + 11.0,)
    nf3 = NF.nf_from_vector(np.arange(8.0))
    got = NF.nf_self_plug(nf3, (0, 1))
    assert np.allclose(got.vector(), [0 + 3, 4 + 7])
    capnf = NF.nf_from_vector([1, 0, 0, 1])
    assert NF.nf_self_plug(capnf, (0, 1)).coeffs == (2.0,)


def test_self_plug_matches_cup_contraction_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        v = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
        p = int(rng.integers(0, m))
        q = int(rng.integers(0, m))
        if p == q:
            continue
        got = NF.nf_self_plug(NF.nf_from_vector(v), (p, q)).vector()
        arr = v.reshape((2,) * m)
        oracle = np.trace(arr, axis1=m - 1 - max(p, q),
                          axis2=m - 1 - min(p, q)).reshape(-1)
        assert np.allclose(got, oracle, atol=1e-12)


def test_self_plug_errors():
    nf = NF.nf_from_vector([1, 2])
    with pytest.raises(ValueError):
        NF.nf_self_plug(nf, (0, 1))
    with pytest.raises(ValueError):
        NF.nf_self_plug(NF.nf_from_vector([1, 2, 3, 4]), (1, 1))


def test_generator_nf_values():
    assert NF.generator_nf("identity").coeffs.tolist() == [1, 0, 0, 1]
    assert NF.generator_nf("h").coeffs.tolist() == [1, 1, 1, -1]
    assert NF.generator_nf("triangle").coeffs.tolist() == [1, 0, 1, 1]
    a = 0.6 - 0.8j
    assert NF.generator_nf("z_state", a).coeffs.tolist() == [1, a]
    with pytest.raises(ValueError):
        NF.generator_nf("mystery")


def test_normal_form_is_one_read_only_array():
    src = np.array([1, 2 + 1j, 0, 3])
    nf = NF.nf_from_vector(src)
    src[0] = 9  # the normal form holds its own copy
    assert nf.coeffs.tolist() == [1, 2 + 1j, 0, 3]
    assert nf.vector() is nf.coeffs and nf.coeffs.dtype == complex
    with pytest.raises(ValueError):
        nf.vector()[0] = 5
    assert nf == NF.NormalForm(2, [1, 2 + 1j, 0, 3])
    assert nf != NF.NormalForm(2, [1, 2 + 1j, 0, 3 + 1e-15])
    assert nf != NF.NormalForm(1, [1, 2]) and nf != nf.coeffs.tolist()
    with pytest.raises(TypeError):
        hash(nf)
    with pytest.raises(ValueError):
        NF.NormalForm(2, [1, 2, 3])
    # a 0-wire permutation reshapes to a 0-d array and back
    assert NF.nf_permute(NF.scalar_nf(2.5), []) == NF.scalar_nf(2.5)


def test_generator_nf_matches_bend_contract_oracle():
    cases = {
        "copy": D.z_spider(1, 2, 1.0),
        "codot": D.z_spider(2, 1, 1.0),
        "identity": D.identity(1),
        "cap": D.cap(),
        "cup": D.cup(),
        "h": D.h_box(),
        "triangle": D.triangle(),
        "triangle_inv": D.triangle_inv(),
        "swap": D.swap(),
    }
    for kind, diag in cases.items():
        oracle = contract_state(D.bend_to_state(diag))
        assert np.allclose(NF.generator_nf(kind).vector(), oracle), kind
    a = 1.1 + 0.4j
    oracle = contract_state(D.bend_to_state(D.z_spider(0, 1, a)))
    assert np.allclose(NF.generator_nf("z_state", a).vector(), oracle)


def test_normalize_examples():
    assert np.allclose(NF.normalize(D.cap()).vector(), [1, 0, 0, 1])
    a = 0.77 - 0.1j
    nf = NF.normalize(D.compose(D.z_spider(0, 1, a), D.h_box()))
    assert np.allclose(nf.vector(), [1 + a, 1 - a])
    loop = NF.normalize(D.compose(D.cap(), D.cup()))
    assert loop.m == 0 and abs(loop.coeffs[0] - 2) < 1e-12


def test_normalize_matches_contraction_oracle():
    rng = np.random.default_rng(31)
    for _ in range(60):
        d = random_diagram(rng)
        nf = NF.normalize(d)
        oracle = contract_state(D.bend_to_state(d))
        assert nf.m == d.n_in + d.n_out
        assert np.allclose(nf.vector(), oracle, atol=1e-9)


def test_normalize_wire_cap():
    with pytest.raises(NF.WireCapError):
        NF.normalize(D.identity(3), cap=5)


def test_nf_equal():
    a = NF.nf_from_vector([1, 2 + 1j])
    assert NF.nf_equal(a, NF.nf_from_vector([1, 2 + 1j]))
    assert not NF.nf_equal(a, NF.nf_from_vector([1, 2.1 + 1j]))
    assert not NF.nf_equal(a, NF.nf_from_vector([1, 2 + 1j, 0, 0]))
    assert NF.nf_equal(a, NF.nf_from_vector([1, 2 + 1j + 1e-13]))


def test_nf_equal_for_rewrite_related_diagrams():
    a, b = 0.9j, 1.25
    chain = D.compose(D.z_spider(1, 1, a), D.z_spider(1, 1, b))
    fused = D.z_spider(1, 1, a * b)
    assert NF.nf_equal(NF.normalize(chain), NF.normalize(fused))


def test_roundtrip_random_vectors():
    rng = np.random.default_rng(41)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        v = np.array([random_complex(rng) for _ in range(2 ** m)])
        nf = NF.nf_from_vector(v)
        d = NF.nf_to_diagram(nf)
        assert np.allclose(contract_state(d), v, atol=1e-9)


def test_normalize_empty_and_scalars():
    assert NF.normalize(D.empty()).coeffs == (1.0,)
    a = 2.5 - 1.0j
    nf = NF.normalize(NF.scalar_nf_diagram(a))
    assert nf.m == 0 and abs(nf.coeffs[0] - a) < 1e-12
    nf2 = NF.normalize(D.scalar_z(a))
    assert abs(nf2.coeffs[0] - (1 + a)) < 1e-12


def test_normalize_independent_of_elimination_order(monkeypatch):
    rng = np.random.default_rng(17)
    corpus = [random_diagram(rng) for _ in range(40)]
    for m in (1, 2, 3):
        v = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
        corpus.append(NF.nf_to_diagram(NF.nf_from_vector(v)))
    greedy = [NF.normalize(d, cap=30) for d in corpus]
    # plain node-id order, one component
    monkeypatch.setattr(NF, "contraction_order", lambda pe: [sorted(pe)])
    for d, nf in zip(corpus, greedy):
        assert NF.nf_equal(NF.normalize(d, cap=30), nf)


def _tensor_then_plug(acc, nf, pairs):
    """The reference for nf_absorb: nf_tensor, then nf_self_plug of each
    pair, renumbering the wires after every plug."""
    out = NF.nf_tensor(acc, nf)
    # wires of out by origin, least significant first
    wires = [("b", q) for q in range(nf.m)] + [("a", p) for p in range(acc.m)]
    for p, q in pairs:
        i, j = wires.index(("a", p)), wires.index(("b", q))
        out = NF.nf_self_plug(out, (i, j))
        wires = [w for w in wires if w not in (("a", p), ("b", q))]
    return out


def test_nf_absorb_equals_tensor_then_self_plug():
    rng = np.random.default_rng(23)
    for _ in range(60):
        ma, mb = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        acc = NF.nf_from_vector(rng.normal(size=2 ** ma)
                                + 1j * rng.normal(size=2 ** ma))
        nf = NF.nf_from_vector(rng.normal(size=2 ** mb)
                               + 1j * rng.normal(size=2 ** mb))
        k = min(ma, mb)
        a_wires = [int(w) for w in rng.permutation(ma)]
        b_wires = [int(w) for w in rng.permutation(mb)]
        # no pairs, some pairs, every wire of the smaller side paired
        for n_pairs in {0, int(rng.integers(0, k + 1)), k}:
            pairs = list(zip(a_wires[:n_pairs], b_wires[:n_pairs]))
            got = NF.nf_absorb(acc, nf, pairs)
            ref = _tensor_then_plug(acc, nf, pairs)
            assert got.m == ref.m == ma + mb - 2 * n_pairs
            assert np.allclose(got.vector(), ref.vector(), atol=1e-12)
    # every wire on both sides paired: a full contraction to a scalar
    v, w = rng.normal(size=8), rng.normal(size=8)
    full = NF.nf_absorb(NF.nf_from_vector(v), NF.nf_from_vector(w),
                        [(0, 0), (1, 1), (2, 2)])
    assert full.m == 0 and np.isclose(full.coeffs[0], v @ w)


def test_nf_absorb_errors():
    a = NF.nf_from_vector([1, 2, 3, 4])
    with pytest.raises(ValueError):
        NF.nf_absorb(a, a, [(2, 0)])
    with pytest.raises(ValueError):
        NF.nf_absorb(a, a, [(0, -1)])
    with pytest.raises(ValueError):
        NF.nf_absorb(a, a, [(0, 0), (0, 1)])


def _loop_diagram(kind, degree, loops, n_in, n_out, phase=1.0):
    """One node whose first 2 * loops ports are joined in pairs, then
    n_in inputs, then n_out outputs."""
    edges = [(("n", 0, 2 * k), ("n", 0, 2 * k + 1)) for k in range(loops)]
    free = list(range(2 * loops, degree))
    edges += [(("in", i), ("n", 0, free[i])) for i in range(n_in)]
    edges += [(("out", j), ("n", 0, free[n_in + j])) for j in range(n_out)]
    return D.Diagram({0: D.Node(kind, phase)}, edges, n_in, n_out)


def test_normalize_self_loops_parallel_edges_and_components():
    a, b = 0.3 - 1.2j, -0.7 + 0.4j
    parallel = D.Diagram(
        {0: D.Node(D.Z, a), 1: D.Node(D.Z, b)},
        [(("n", 0, k), ("n", 1, k)) for k in range(3)]
        + [(("in", 0), ("n", 0, 3)), (("out", 0), ("n", 1, 3)),
           (("out", 1), ("n", 0, 4))], 1, 2)
    cases = [
        _loop_diagram(D.H, 2, 1, 0, 0),
        _loop_diagram(D.T, 2, 1, 0, 0),
        _loop_diagram(D.T_INV, 2, 1, 0, 0),
        _loop_diagram(D.Z, 4, 2, 0, 0, a),
        _loop_diagram(D.Z, 6, 2, 1, 1, a),
        parallel,
        D.tensor_all([parallel, D.cap(), _loop_diagram(D.Z, 5, 2, 0, 1, b),
                      D.scalar_z(a), D.swap(), D.h_box()]),
    ]
    for d in cases:
        oracle = contract_state(D.bend_to_state(d))
        assert np.allclose(NF.normalize(d).vector(), oracle, atol=1e-12), d


def _min_cap(fn, d):
    for cap in range(1, 30):
        try:
            fn(d, cap=cap)
            return cap
        except (NF.WireCapError, ResourceError):
            pass
    raise AssertionError("no cap below 30 suffices")


def test_normalize_nf_family_needs_interprets_cap(monkeypatch):
    # normalize plugs a node's shared wires as it absorbs it, so along the
    # shared elimination order its frontier is the contraction's
    monkeypatch.delenv("ZXEL_WIRE_CAP", raising=False)
    for m in range(2, 7):
        rng = np.random.default_rng([1, 9])
        v = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
        d = NF.nf_to_diagram(NF.nf_from_vector(v))
        cap = _min_cap(contract_state, d)
        with pytest.raises(NF.WireCapError):
            NF.normalize(d, cap=cap - 1)
        assert NF.nf_equal(NF.normalize(d, cap=cap), NF.nf_from_vector(v))
    # m = 6 within the default cap
    assert NF.nf_equal(NF.normalize(d), NF.nf_from_vector(v))


def test_z_self_loops_are_plugged_before_allocating():
    # 35 self-loops give a degree of at least 70, and numpy refuses to
    # shape an array with more than 64 axes: both routes must plug the
    # loops in closed form, leaving the legs, before building anything
    a = 2.0 - 0.5j
    scalar = _loop_diagram(D.Z, 70, 35, 0, 0, a)
    assert matrices_equal(interpret(scalar, cap=4), np.array([[1 + a]]), 0)
    assert NF.normalize(scalar, cap=4).coeffs == (1 + a,)
    legs = _loop_diagram(D.Z, 73, 35, 1, 2, a)
    assert matrices_equal(interpret(legs, cap=4), z_mat(1, 2, a), 0)
    want = np.zeros(8, dtype=complex)
    want[0], want[-1] = 1, a
    assert matrices_equal(NF.normalize(legs, cap=4).vector(), want, 0)


def test_node_wider_than_the_cap_is_refused():
    # two spiders joined by six wires: the contraction never holds an open
    # wire, but each node's own tensor has six, so cap 4 refuses it
    a = 0.5 + 1j
    pair = D.Diagram({0: D.Node(D.Z, a), 1: D.Node(D.Z, a)},
                     [(("n", 0, k), ("n", 1, k)) for k in range(6)], 0, 0)
    with pytest.raises(ResourceError, match="6 open wires"):
        interpret(pair, cap=4)
    with pytest.raises(NF.WireCapError, match="6 open wires"):
        NF.normalize(pair, cap=4)
    assert matrices_equal(interpret(pair, cap=6), np.array([[1 + a * a]]),
                          1e-12)
    assert NF.nf_equal(NF.normalize(pair, cap=6), NF.scalar_nf(1 + a * a))
