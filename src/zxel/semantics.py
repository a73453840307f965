"""The standard interpretation: diagrams to dense complex matrices.

A diagram of type n -> m evaluates to a 2^m x 2^n complex matrix by
contracting the generator tensors along the wiring.  Index convention:
wire 0 is the right-most wire of a boundary, and a bit on wire i weighs
2^i, so boundary slot j of an m-wire boundary carries bit weight
2^(m-1-j).

This module is the ground-truth oracle for everything else.  It has its
own contraction engine and never goes through the normal-form pipeline;
it shares only the walk ``diagram.contraction_order``: the elimination
order with each node's open edges and the edges each step shares, which
``diagram._walk`` hands to the next planning of a shape by either
route.  The axis order of each step's result is this module's own.

The engine plans once per shape (``Diagram.shape``: all of a diagram
but its Z phases) and contracts in batches.  A plan,
translated in one pass from the walk of one diagram, holds each node's
degree after its self-loops, the einsum sublists of each pair step, the
root's end wires and the most open wires of any operand, which sizes a
batch's chunks; every wire-cap check happens while planning.  Each
diagram reads its matrix out of the contracted root through its own
edges: the boundary slot of each end wire gives its output permutation.

A run contracts a plan over a phase matrix: one row per batch entry,
one column per Z leaf of the plan.  Diagrams of one shape share a plan,
and one run of it contracts them all at once: the Z tensors of the
columns that vary are stacked along a leading batch axis, and a column
of one value in every row, to the bit, is one tensor with no batch
axis.  So the batch axis starts at the first step that absorbs a
varying column, and a batch of equal rows runs as one row, whose root
serves them all.  The plan records its shape's readout order, so only
another shape read out of the same root, such as a flip, works out its
own.  From its second planning on, a shape keeps its plan across calls
(``diagram._plan_memo``); a shape planned once, such as a one-off rule
side, keeps none.  One loop, ``_chunked``, runs every phase matrix, in
chunks under the wire cap, and reads each chunk out at once through
each diagram it is given, so the matrices returned are views of one
stacked array per chunk.  ``interpret_all`` groups a
list by shape, a row per diagram, and ``interpret`` is
``interpret_all`` of one diagram.  The rule-soundness sweep builds no
diagram per draw: ``_interpret_drawn`` runs one template side over the
rows of all draws, its traced Z phases evaluated per draw, and reads
the side and its flip, which keeps every edge index, out of one root.

A Z spider is a copy tensor: of its 2^degree entries only the all-zero
one (1) and the all-one one (the phase) are nonzero.  So in a batched
run, a step that absorbs a Z leaf no earlier step has touched and that
brings a new wire, into a large enough batched result, reads two
corners of the accumulator instead of multiplying the Z tensor through
einsum (``_absorb_z``), bitwise to the same result; a constant Z leaf
does so only into an accumulator that already has the batch axis.
Likewise a step that absorbs an untouched H, T or T^-1 leaf sharing one
wire and bringing one adds and subtracts two slices of the accumulator
into a zeroed result (``_absorb_fixed``), since every entry of those
tensors is 0 or +-1; a Z leaf, constant or not, never does.  An
unbatched run is plain einsum throughout.

Every step but a gather or a fixed-leaf step calls numpy's C einsum
(``_C_EINSUM``) directly, the function ``np.einsum(..., optimize=False)``
forwards its arguments to unchanged: the same bytes, without the Python
dispatch that costs a third of a small unbatched run.  It does so only
while ``np.einsum``, as this module sees it, is numpy's own: an observer
that swaps this module's ``np`` for a view with another ``einsum`` (a
tracer counting the kernel's calls, a test bounding its arrays) gets
every step.  ``_absorb_z`` always calls ``np.einsum``, and
``_absorb_fixed`` calls none.
"""

from __future__ import annotations

import importlib
import os
from functools import cache
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .diagram import Diagram, H, T, T_INV, Z, _plan_memo, _slot_ends, _walk

# the one default tolerance of every equality check in zxel
DEFAULT_TOL = 1e-9
_DEFAULT_WIRE_CAP = 14


class ResourceError(RuntimeError):
    """Contraction would exceed the configured open-wire cap."""


def wire_cap() -> int:
    """Open-wire cap for a single contraction (env ZXEL_WIRE_CAP); raises
    ValueError unless the variable is unset or a positive integer."""
    raw = os.environ.get("ZXEL_WIRE_CAP")
    if raw is None:
        return _DEFAULT_WIRE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"ZXEL_WIRE_CAP must be a positive integer, got {raw!r}")
    return cap


def _c_einsum():
    """numpy's C einsum: ``numpy._core.multiarray.c_einsum`` (numpy 2),
    ``numpy.core.multiarray.c_einsum`` (numpy 1), or ``np.einsum``
    itself where neither resolves."""
    for path in ("numpy._core.multiarray", "numpy.core.multiarray"):
        try:
            return importlib.import_module(path).c_einsum
        except (ImportError, AttributeError):
            pass
    return np.einsum


_C_EINSUM = _c_einsum()
_NP_EINSUM = np.einsum

_H_TENSOR = np.array([[1, 1], [1, -1]], dtype=complex)
# arr[p0, p1] = <p1| M |p0> for the 1->1 matrix M of the generator
_T_TENSOR = np.array([[1, 0], [1, 1]], dtype=complex)       # M = [[1,1],[0,1]]
_T_INV_TENSOR = np.array([[1, 0], [-1, 1]], dtype=complex)  # M = [[1,-1],[0,1]]
_FIXED = {H: _H_TENSOR, T: _T_TENSOR, T_INV: _T_INV_TENSOR}


def _z_tensor(phase, degree: int, batch: tuple[int, ...]) -> np.ndarray:
    """Tensor of a Z spider, |0..0><0..0| + phase |1..1><1..1|, with one
    axis of dimension 2 per port (for degree 0, the scalar 1 + phase).
    ``phase`` is one number, or for ``batch == (b,)`` an array of b
    phases, whose tensors are stacked along a leading batch axis."""
    if degree == 0:
        return np.array(1.0 + phase, dtype=complex)
    t = np.zeros(batch + (2,) * degree, dtype=complex)
    corners = t.T  # the batch axis, if any, last
    corners[(0,) * degree] = 1.0
    corners[(1,) * degree] = phase
    return t


# a batched step gathers a Z leaf that brings a new wire (``_absorb_z``)
# when its result holds at least this many entries over the batch; below
# that, einsum's smaller per-call cost wins
_GATHER_MIN = 512


def _absorb_z(acc: np.ndarray, sub_acc: list[int], sub_z: list[int],
              sub_out: list[int], phases: np.ndarray) -> np.ndarray:
    """The step contracting a batch of Z tensors, one per phase of
    ``phases`` and each with the wires ``sub_z``, into ``acc`` (wires
    ``sub_acc``, behind the batch axis or broadcast along it), without
    building them.  A Z tensor has two nonzero entries, so the result is
    ``lo``, the accumulator with every shared wire at 0, on the all-zero
    corner of the new wires, and ``phase * hi``, every shared wire at 1,
    on their all-one corner; with no new wire both land on the one
    corner.  The result is bitwise einsum's."""
    shared = set(sub_z).intersection(sub_acc)
    lo = acc[(...,) + tuple(0 if l in shared else slice(None)
                            for l in sub_acc)]
    hi = acc[(...,) + tuple(1 if l in shared else slice(None)
                            for l in sub_acc)]
    new = len(sub_z) - len(shared)
    kept = list(range(len(sub_out) - new))
    out = np.zeros((len(phases),) + (2,) * len(sub_out), dtype=complex)
    # einsum computes the product, and the zeroed result takes lo by +=:
    # that is einsum's own 0 + lo*1 + hi*phase, to the last bit and the
    # sign of a zero, where numpy's complex * rounds differently
    np.einsum(hi, [...] + kept, phases, [...], [...] + kept,
              out=out[(...,) + (1,) * new])
    out[(...,) + (0,) * new] += lo
    return out


# a batched step absorbs a fixed leaf by slices (``_absorb_fixed``) when
# its result holds at least this many entries.  Timed one step at a time
# over H, T and T^-1 at every accumulator axis and both orientations,
# einsum wins below about 600-1 300 result entries at batches of 2 and 10
_FIXED_MIN = 1024


def _absorb_fixed(acc: np.ndarray, sub_acc: list[int], sub_leaf: list[int],
                  leaf: np.ndarray) -> np.ndarray:
    """The step contracting a fixed 2 x 2 leaf (H, T or T^-1), of wires
    ``sub_leaf``, one shared with ``acc`` (wires ``sub_acc``, behind the
    batch axis if any) and one new, into ``acc`` without einsum.  With
    ``m[s, n]`` the leaf's entry at shared wire s and new wire n, result
    ``[..., n]`` is the sum over s of ``acc`` at s times ``m[s, n]``; every
    entry is 0 or +-1, so a zeroed result takes each slice by += or -=.
    That is einsum's sum of two exact products onto +0, bitwise on finite
    input; a non-finite entry of ``acc`` still reaches the result, since
    every row of the leaf has a nonzero entry."""
    shared = sub_leaf[0] if sub_leaf[0] in sub_acc else sub_leaf[1]
    m = (leaf if shared == sub_leaf[0] else leaf.T).real.tolist()
    tail = (slice(None),) * (len(sub_acc) - 1 - sub_acc.index(shared))
    parts = acc[(..., 0) + tail], acc[(..., 1) + tail]
    out = np.zeros(parts[0].shape + (2,), dtype=complex)
    outs = [out[..., 0], out[..., 1]]
    for s in (0, 1):
        for n in (0, 1):
            if m[s][n] == 1:
                outs[n] += parts[s]
            elif m[s][n] == -1:
                outs[n] -= parts[s]
    return out


@cache
def _span(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _pair_step(dst: int, src: int, li: list, lj: list, shared):
    """The step contracting operand ``src``, of wires ``lj``, into operand
    ``dst``, of wires ``li``, the two sharing the wires ``shared``: its
    einsum sublists (the wires numbered from 0 in order of first
    appearance, ``li``'s first), and the result's wires, which replace
    ``dst``'s.  The sublists are tuples of ints, which the cyclic
    collector stops tracking, and ``dst``'s is one tuple per length."""
    n = len(li)
    sub_src, new = [], []
    for l in lj:
        if l in shared:
            sub_src.append(li.index(l))
        else:
            sub_src.append(n + len(new))
            new.append(l)
    out = li + new
    sub_out = list(range(len(out)))
    for l in shared:
        k = out.index(l)
        del out[k], sub_out[k]
    return (dst, src, _span(n), tuple(sub_src), tuple(sub_out)), out


@_plan_memo
def _plan(d: Diagram, cap: int) -> tuple:
    """How to contract every diagram of ``d``'s shape, as
    ``(leaves, steps, root, ends, zids, width)``.

    ``leaves`` holds one entry per operand: a Z node's (id, degree),
    whose tensors a batch stacks, or the fixed tensor of any other
    generator or bare wire, which a batch shares.  Each step
    ``(dst, src, sub_dst, sub_src, sub_out)`` contracts operand ``src``
    into operand ``dst`` by einsum with those sublists (tuples, given
    without the batch axis).  ``root`` is the operand left at the end
    (None for a diagram with nothing to contract), and ``ends`` names the
    boundary end of each of its axes: edge index i for the far end of
    edge i (a bare wire's second end), ~i for a bare wire's first end.
    ``zids`` holds the node id of each Z leaf in leaf order: the columns
    of a phase matrix.  ``width`` is the most open wires any operand has.
    ``axes``, a tuple of ints, permutes the root's axes into the matrix
    order of ``d``'s shape (``_axes``).  Nothing else in the plan
    depends on which ends are inputs, so the root serves a flip too,
    whose own axes ``_chunked`` works out from its ``slot_edges``.

    The plan translates the walk (``diagram._walk``) in one pass: each
    component folds its nodes into its first one, its wires threaded
    from step to step in this route's own axis order, the bare boundary
    wires follow as components of their own, and the components, which
    share no wire, fold together in order.  Every operand's open wires
    are checked against the cap here, before anything is allocated: the
    boundary first, then each node (self-loops plugged: in closed form
    for a Z spider, by a trace otherwise), then each step."""
    if d.n_in + d.n_out > cap:
        raise ResourceError(
            f"diagram has {d.n_in + d.n_out} boundary wires, cap is {cap}")
    leaves, steps = [], []
    parts, width = [], 0  # parts: each component's operand and end wires
    for component in _walk(d):
        dst, wires = len(leaves), None
        for v, open_, shared in component:
            degree = len(open_)
            if degree > cap:
                raise ResourceError(
                    f"a node has {degree} open wires, cap is {cap}")
            kind = d.nodes[v].kind
            if kind == Z:
                leaves.append((v, degree))
            else:
                t = _FIXED[kind]
                leaves.append(t if open_ else np.trace(t))
            if wires is None:
                wires = list(open_)
            else:
                step, wires = _pair_step(dst, len(leaves) - 1, wires,
                                         open_, shared)
                steps.append(step)
            width = max(width, degree, len(wires))
        parts.append((dst, wires))

    # each bare wire is an explicit identity, its end wires ~i and i
    at = _slot_ends(d.shape)
    for i in sorted(i for i, ks in at.items() if len(ks) == 2):
        parts.append((len(leaves), [~i, i]))
        leaves.append(np.eye(2, dtype=complex))
        width = max(width, 2)
    root, wires = parts[0] if parts else (None, [])
    for src, part in parts[1:]:
        step, wires = _pair_step(root, src, wires, part, ())
        steps.append(step)
        width = max(width, len(wires))
    # a step past the cap is refused once every node has been checked
    if width > cap:
        over = next(len(s[4]) for s in steps if len(s[4]) > cap)
        raise ResourceError(
            f"contraction needs {over} open wires, cap is {cap}")
    # the root's axes hold the parts' end wires in order
    zids = tuple(t[0] for t in leaves if isinstance(t, tuple))
    return leaves, steps, root, wires, zids, width, _axes(wires, d, at)


def _axes(ends: list[int], d: Diagram, at: dict) -> tuple[int, ...]:
    """The axes of a root whose axes hold the end wires ``ends``, in the
    order of ``d``'s matrix: each axis goes to the boundary slot of its
    end in ``d``'s own ``slot_edges``, whose table ``at`` is
    ``_slot_ends(d.shape)``, out slot 0..m-1 then in slot 0..n-1 (most
    significant bit first within each boundary, matching
    |a_{m-1}...a_0>): end i is edge i's last slot, a bare wire's ~i its
    first."""
    n = d.n_in
    # out slot j is axis j, in slot i axis n_out + i
    slots = [((at[i][-1] if i >= 0 else at[~i][0]) - n) % (n + d.n_out)
             for i in ends]
    return tuple(sorted(range(len(slots)), key=slots.__getitem__))


def _matrices(t: np.ndarray, axes: Sequence[int], d: Diagram,
              rows: int) -> np.ndarray:
    """The matrices of the ``rows`` diagrams of ``d``'s shape whose
    contracted root is ``t``, stacked in one array.  The root's batch
    axis leads (an unbatched root, of one diagram or with no varying Z
    phase, has none and serves every row), and ``axes`` (``_axes``)
    permutes its other axes into ``d``'s matrix order; each matrix is
    then scaled by ``d``'s loops."""
    wires = (2,) * len(axes)
    if t.ndim > len(axes):
        axes = [0] + [a + 1 for a in axes]
    mats = np.empty((rows, 2 ** d.n_out, 2 ** d.n_in), dtype=complex)
    np.multiply(np.transpose(t, axes), 2.0 ** d.loops,
                out=mats.reshape((rows,) + wires))
    if not np.isfinite(mats).all():
        raise ArithmeticError("non-finite entries in interpretation")
    return mats


def _run(plan: tuple, phases: Sequence[Sequence]) -> np.ndarray:
    """Contract the plan over a phase matrix in one pass, and give the
    contracted root, its axes in the plan's end-wire order behind a
    leading batch axis, one row per batch entry; each consumed operand is
    freed as it goes.  ``phases`` holds one row per batch entry and, in
    each row, one phase per Z leaf of the plan, in leaf order.

    A Z leaf whose column holds one value in every row, to the bit (so
    0.0 and -0.0 differ), is constant: its tensor is built once, with no
    batch axis, as a single row builds it.  The batch axis starts at the
    first step that absorbs a varying leaf, and a batch with no varying
    leaf (a single row, a batch of equal rows or of no Z leaf) runs as
    its first row, whose root, with no batch axis, serves every row.  A
    constant leaf absorbed into a batched accumulator may still be
    gathered (``_absorb_z``), its phase broadcast over the rows; it is
    never absorbed by slices, since ``_absorb_fixed`` reads only 0 and
    +-1 entries."""
    leaves, steps, root = plan[:3]
    gathered: dict = {}  # each gathered Z operand -> its batch of phases
    fixed: set = set()  # each fixed leaf absorbed by slices
    b, varying = len(phases), ()
    if b > 1:
        columns = zip(*phases)
        zs = {k: np.array(next(columns), dtype=complex)
              for k, t in enumerate(leaves) if isinstance(t, tuple)}
        varying = {k for k, c in zs.items()
                   if c.tobytes() != c[:1].tobytes() * b}
    if not varying:  # every row is the first row
        # this branch is kept on purpose: run as a batch of one, a lone
        # diagram gave bit-identical matrices, but contract_state on the
        # normal-form family got 5-16 % slower at every m = 2..6
        row = iter(phases[0])
        ops = [_z_tensor(next(row), t[1], ()) if isinstance(t, tuple)
               else t for t in leaves]
    else:
        # a step absorbing a Z leaf that brings a new wire, into a batched
        # result (the leaf's own batch, or the accumulator's for a
        # constant leaf), or a fixed 2 x 2 leaf sharing one wire and
        # bringing one, that no earlier step has touched skips einsum if
        # the step's result is large enough; a gathered leaf's tensor is
        # never built.  A step numbers the accumulator's wires first, so
        # a leaf wire numbered past them is a new wire
        touched, batched = set(), set(varying)  # batched: has a batch axis
        for dst, src, sub_dst, sub_src, sub_out in steps:
            if src in zs:
                if (src not in touched and (src in batched or dst in batched)
                        and sub_src and max(sub_src) >= len(sub_dst)
                        and b << len(sub_out) >= _GATHER_MIN):
                    gathered[src] = zs[src]
            elif ((b if dst in batched else 1) << len(sub_out) >= _FIXED_MIN
                  and len(sub_src) == 2 and src not in touched
                  and min(sub_src) < len(sub_dst) <= max(sub_src)):
                fixed.add(src)
            touched.add(dst)
            if src in batched:
                batched.add(dst)
        ops = [t if k not in zs else None if k in gathered else
               _z_tensor(zs[k], t[1], (b,)) if k in varying else
               _z_tensor(zs[k][0], t[1], ())
               for k, t in enumerate(leaves)]
        # the batch axis, leading on the varying Z tensors and on every
        # result that has one, is einsum's broadcast ellipsis: it takes no
        # label
        steps = [(dst, src, sub_dst, sub_src, sub_out)
                 if src in gathered or src in fixed
                 else (dst, src, [..., *sub_dst], [..., *sub_src],
                       [..., *sub_out])
                 for dst, src, sub_dst, sub_src, sub_out in steps]
    einsum = np.einsum
    if einsum is _NP_EINSUM:  # no observer has swapped it
        einsum = _C_EINSUM
    for dst, src, sub_dst, sub_src, sub_out in steps:
        if src in gathered:
            ops[dst] = _absorb_z(ops[dst], sub_dst, sub_src, sub_out,
                                 gathered[src])
        elif src in fixed:
            ops[dst] = _absorb_fixed(ops[dst], sub_dst, sub_src, ops[src])
        else:
            ops[dst] = einsum(ops[dst], sub_dst, ops[src], sub_src, sub_out)
        ops[src] = None
    return np.array(1.0, dtype=complex) if root is None else ops[root]


def _chunked(plan: tuple, cap: int, phases: Sequence[Sequence],
             ds: Sequence[Diagram]) -> list[list[np.ndarray]]:
    """Run ``plan`` over the phase matrix ``phases`` in chunks of at most
    2^(cap - w) rows, for a plan that peaks at w open wires, so a batch
    never holds a larger array than one diagram at the cap could (and no
    more rows than ``phases`` has: a huge cap must not cost a huge
    integer).  Each chunk is read out at once through each diagram of
    ``ds``, all of the plan's shape but for which ends are inputs: per
    diagram, its list of chunks, each one stacked array of that chunk's
    matrices, in row order.  ``ds[0]`` has the shape the plan was made
    from and reads out through the plan's axes; any other diagram works
    out its own once per call."""
    size = 1 << min(cap - plan[5], len(phases).bit_length())
    out: list[list] = [[] for _ in ds]
    axes = [plan[6]] + [_axes(plan[3], d, _slot_ends(d.shape))
                        for d in ds[1:]]
    for s in range(0, len(phases), size):
        chunk = phases[s:s + size]
        t = _run(plan, chunk)
        for d, ax, chunks in zip(ds, axes, out):
            chunks.append(_matrices(t, ax, d, len(chunk)))
    return out


def interpret_all(ds: Sequence[Diagram],
                  cap: int | None = None) -> list[np.ndarray]:
    """Evaluate each diagram to its matrix, in input order.

    Diagrams of one shape (``d.shape``) share one plan, built once from
    the first of them, and are contracted together: the Z tensors whose
    phases differ between them are stacked along a leading batch axis,
    and every other tensor is broadcast along it (``_run``); a group of
    equal phases is contracted once.  Each group runs through
    ``_chunked``, one row per diagram, so the matrices are views of one
    stacked array per chunk.  Raises what the first failing diagram of
    the first failing group raises alone, groups taken in order of their
    first diagram."""
    if cap is None:
        cap = wire_cap()
    groups: dict = {}
    for k, d in enumerate(ds):
        groups.setdefault(d.shape, []).append(k)
    out: list = [None] * len(ds)
    for ks in groups.values():
        first = ds[ks[0]]
        plan = _plan(first, cap)
        rows = [[ds[k].nodes[v].phase for v in plan[4]] for k in ks]
        chunks, = _chunked(plan, cap, rows, [first])
        for k, mat in zip(ks, chain.from_iterable(chunks)):
            out[k] = mat
    return out


def interpret(d: Diagram, cap: int | None = None) -> np.ndarray:
    """Evaluate a diagram of type n -> m to its 2^m x 2^n matrix:
    ``interpret_all`` of the one diagram."""
    return interpret_all([d], cap)[0]


def _interpret_drawn(d: Diagram, f: Diagram,
                     columns: Mapping[int, Sequence]) -> list[list]:
    """The matrices of ``d`` and of its flip ``f`` on every draw of a rule
    check, as chunks of stacked matrices in draw order: ``columns`` gives
    some Z nodes of ``d`` one phase per draw, and every other node of
    ``d`` is the same in all draws (its phase is not read if it has a
    column).  The phase matrix holds a row per draw, or one row if
    ``columns`` is empty, and ``_chunked`` runs it at the wire cap
    ``wire_cap()``, reading ``d`` and ``f`` out of each chunk's one root.
    Raises what ``interpret_all`` of the draws' own diagrams raises."""
    cap = wire_cap()
    plan = _plan(d, cap)
    rows = len(next(iter(columns.values()))) if columns else 1
    nodes = d.nodes
    matrix = list(zip(*[columns[v] if v in columns
                        else (nodes[v].phase,) * rows
                        for v in plan[4]])) or [()] * rows
    return _chunked(plan, cap, matrix, [d, f])


def contract_state(d: Diagram, cap: int | None = None) -> np.ndarray:
    """Coefficient vector of a state diagram (no inputs): entry k is the
    amplitude of e_k under the |a_{m-1}...a_0> indexing."""
    if d.n_in != 0:
        raise ValueError(f"contract_state needs a state, got {d.n_in} inputs")
    return interpret(d, cap=cap).reshape(-1)


def matrices_equal(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Same shape and max-abs entrywise difference at most tol."""
    return np.shape(a) == np.shape(b) and bool(max_deviation(a, b) <= tol)


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-abs entrywise difference, infinite if the shapes differ."""
    if np.shape(a) != np.shape(b):
        return float("inf")
    return float(np.max(np.abs(np.subtract(a, b)), initial=0.0))
