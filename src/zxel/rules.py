"""The algebraic rule set and derived-rule library, with a soundness harness.

Every rule is a pair of diagram builders over complex parameter slots.
Nothing here is trusted on sight: a rule enters the catalog only if
``check_soundness`` finds the two sides (and their upside-down flips)
semantically equal on randomised and forced parameter draws.  The harness
is the transcription oracle for the figure material.  It builds each rule
with parameters once, through a template traced over its parameters,
evaluates the Z phases per draw into a phase matrix, and contracts each
side once over all its rows.  A rule without parameters, or whose
builder reads a parameter's value, is built per draw, and each build
takes the same path over a phase matrix of one row.

Derived rules carry a provenance label naming the lemma or proposition
they encode.  Most propositions are stated over the
elementary-transformation gadgets: ``row addition`` / ``row
multiplication`` diagrams, optionally conjugated by pairs of pink pi
nodes on a wire subset, as the tensor-of-normal-forms protocol uses
them.  A gadget spec of ``normalform`` names one: ``("add", m, S, P)``
is the row addition on the wire subset S of m wires and ``("mult", m,
P)`` the row multiplication, each between pi pairs on the wires P.
Four families cover most of these propositions, one catalog row each:
two gadgets commute (``_commutes``), a gadget followed by itself merges
its coefficients by + or x (``_merges``), a pi layer passes through a
gadget (``_pi_moves``), and a gadget beside new wires is a product of
its extensions to them (``_extends``).  Every family builds its gadgets,
coefficient included, through ``normalform.gadget``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, Sequence

import numpy as np

from . import diagram as dg
from .diagram import (Diagram, compose, compose_all, flip, tensor,
                      tensor_all, identity, permutation, swap, cap, cup,
                      h_box, scalar_z, triangle, triangle_inv,
                      triangle_flipped, triangle_inv_flipped, x_spider,
                      z_spider, empty)
from .normalform import (and_gate, gadget, pi_layer, row_addition_diagram,
                         row_multiplication_diagram)
from .semantics import DEFAULT_TOL, _interpret_drawn

RuleBuilder = Callable[[Sequence[complex]], tuple[Diagram, Diagram]]


@dataclass(frozen=True)
class RewriteRule:
    """A named LHS/RHS diagram-pattern pair with complex parameter slots.

    Every rule's upside-down version holds as well, and the harness
    checks it.  ``provenance`` is None for the base rule set and names
    the source lemma/proposition for derived rules.
    """

    name: str
    arity: int
    build: RuleBuilder
    domain: Callable[[Sequence[complex]], bool] | None = None
    provenance: str | None = None

    def admissible(self, params: Sequence[complex]) -> bool:
        if len(params) != self.arity:
            return False
        return self.domain(params) if self.domain else True


class RuleError(ValueError):
    pass


def instantiate(rule: RewriteRule, params: Sequence[complex]) -> tuple[Diagram, Diagram]:
    """Concrete LHS/RHS pair for a parameter assignment."""
    if len(params) != rule.arity:
        raise RuleError(
            f"rule {rule.name} takes {rule.arity} parameters, got {len(params)}")
    if not rule.admissible(params):
        raise RuleError(f"parameters {params} outside domain of {rule.name}")
    lhs, rhs = rule.build([complex(p) for p in params])
    if lhs.type != rhs.type:
        raise RuleError(
            f"rule {rule.name}: boundary mismatch {lhs.type} vs {rhs.type}")
    return lhs, rhs


# -- soundness harness ----------------------------------------------------

FORCED_DRAWS = (0.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, 1.0j)


@dataclass
class RuleReport:
    name: str
    checked: int
    max_deviation: float
    failures: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> dict:
        def number(x):  # null if not finite, which JSON cannot hold
            return x if math.isfinite(x) else None

        return {
            "rule": self.name,
            "checked": self.checked,
            "max_deviation": number(self.max_deviation),
            "ok": self.ok,
            "failures": [{"params": [[p.real, p.imag] for p in ps],
                          "deviation": number(dev)}
                         for ps, dev in self.failures],
            "skipped": [[[p.real, p.imag] for p in ps] for ps in self.skipped],
        }


# draws of a rule's parameters before its admissibility is given up
_TRIES = 100


def _random_params(rule: RewriteRule, rng: np.random.Generator):
    for _ in range(_TRIES):
        params = []
        for _ in range(rule.arity):
            r = 2.0 * math.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2.0 * math.pi)
            params.append(r * complex(math.cos(th), math.sin(th)))
        if rule.admissible(params):
            return params
    raise RuleError(f"could not sample admissible parameters for {rule.name}")


def check_soundness(rule: RewriteRule, samples: int = 20,
                    tol: float = DEFAULT_TOL,
                    rng: np.random.Generator | None = None,
                    corrupt: bool = False) -> RuleReport:
    """Interpret both sides and their flipped versions on forced and
    random draws; failures are reported, never raised.  Every rule runs
    as units of two sides, each with its phase columns, over some rows
    of draws: each side and its flip go through ``_interpret_drawn``
    once, read out of one root, and each draw's three deviations are
    taken for the unit's rows at once over their stacked matrices.  A
    rule with parameters whose builder allows a template
    (``_templated``) is one unit over all its draws; any other rule, of
    arity 0 included, is a unit per draw: that draw's real build, with
    no phase column and one row."""
    if samples < 1:
        raise RuleError("samples must be at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    report = RuleReport(rule.name, 0, 0.0)

    draws: list[list[complex]] = []
    for v in FORCED_DRAWS:
        ps = [v] * rule.arity
        if rule.admissible(ps):
            draws.append(ps)
        elif rule.arity:
            report.skipped.append(ps)
    if rule.arity == 0:
        draws = [[]]
    else:
        draws += [_random_params(rule, rng) for _ in range(samples)]

    template = rule.arity and _templated(rule, draws)
    units = [(template, len(draws))] if template else (
        ([(side, {}) for side in rule.build([complex(p) for p in ps])], 1)
        for ps in draws)
    devs: list[float] = []
    for ((lhs, lcols), (rhs, rcols)), rows in units:
        if corrupt:
            rhs = tensor(rhs, scalar_z(-2.0))  # flips the sign
        stacks = []  # a side with no phase column is one row for all
        for side, columns in ((lhs, lcols), (rhs, rcols)):
            for chunks in _interpret_drawn(side, flip(side), columns):
                mats = np.concatenate(chunks)
                stacks.append(np.broadcast_to(
                    mats, (rows,) + mats.shape[1:]))
        ml, fl, mr, fr = stacks
        devs += _draw_deviations(ml, mr, fl, fr)
    for params, dev in zip(draws, devs):
        report.checked += 1
        report.max_deviation = max(report.max_deviation, dev)
        if not (dev <= tol):
            report.failures.append((list(params), float(dev)))
    return report


def _templated(rule: RewriteRule, draws) -> list | None:
    """The rule's two sides built once over traced parameters
    (``diagram._Traced``), each with its phase columns: every traced Z
    phase evaluated on each draw in Python ``complex``, by node id.  None,
    for per-draw builds, if the builder reads a parameter's value, if a
    draw fails to evaluate or gives a phase ``Node`` would refuse (one
    not finite), or if the template's shapes or phase bits differ from a
    real build of the first draw."""
    params = [[complex(p) for p in ps] for ps in draws]
    try:
        sides = rule.build([dg._Traced(None, k) for k in range(rule.arity)])
        traced = [{v: nd.phase for v, nd in side.nodes.items()
                   if type(nd.phase) is dg._Traced} for side in sides]
        rows = [[[complex(phase.value(ps)) for phase in t.values()]
                 for ps in params] for t in traced]
    except (TypeError, AttributeError, ArithmeticError, ValueError):
        # a value read, or a draw that fails: the builds raise what it is
        return None
    if not all(np.isfinite(r).all() for r in rows):
        return None
    for side, t, r, built in zip(sides, traced, rows, rule.build(params[0])):
        first = dict(zip(t, r[0]))
        phases = [first.get(v, nd.phase) for v, nd in side.nodes.items()]
        if side.shape != built.shape or (np.array(phases, complex).tobytes()
                                         != _phase_bytes(built)):
            return None
    return [(side, dict(zip(t, zip(*r)))) for side, t, r in
            zip(sides, traced, rows)]


def _phase_bytes(d: Diagram) -> bytes:
    return np.array([nd.phase for nd in d.nodes.values()], complex).tobytes()


def _draw_deviations(ml, mr, fl, fr) -> list[float]:
    """The deviation of each draw from its stacked matrices: its sides,
    its flips, and its flipped left side from the left side's
    transpose."""
    return np.maximum(np.maximum(_deviations(ml, mr), _deviations(fl, fr)),
                      _deviations(fl, ml.transpose(0, 2, 1))).tolist()


def _deviations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``max_deviation`` of each pair ``a[k]``, ``b[k]``, bitwise."""
    if a.shape != b.shape:
        return np.full(len(a), np.inf)
    return np.max(np.abs(np.subtract(a, b)), axis=(1, 2), initial=0.0)


def check_catalog(rules: Sequence[RewriteRule], samples: int = 20,
                  tol: float = DEFAULT_TOL, seed: int = 0,
                  corrupt: str | None = None) -> list[RuleReport]:
    """``check_soundness`` of each rule in turn, all drawing from one rng
    seeded by ``seed``; the rule named ``corrupt`` is checked corrupted,
    and a name no rule has is a ``RuleError``, not a clean sweep."""
    if corrupt is not None and corrupt not in {r.name for r in rules}:
        raise RuleError(f"no rule named {corrupt!r} to corrupt")
    rng = np.random.default_rng(seed)
    return [check_soundness(r, samples=samples, tol=tol, rng=rng,
                            corrupt=(r.name == corrupt))
            for r in rules]


# -- shared gadgets -------------------------------------------------------

@cache
def adder() -> Diagram:
    """2 -> 1 bit adder without overflow: |00>-><0|, |01>,|10>->|1>,
    |11> -> 0.  On green states it adds the labels."""
    return compose(row_multiplication_diagram(2, 0.0), x_spider(2, 1, dg.TAU_ZERO))


@cache
def w_map() -> Diagram:
    """The 1 -> 2 W map: |0> -> |00>, |1> -> |01> + |10>."""
    return compose(x_spider(1, 2, dg.TAU_ZERO), row_multiplication_diagram(2, 0.0))


def cnot(m: int, control: int, target: int) -> Diagram:
    """CNOT on m wires: green dot on the control, pink dot on the target."""
    if control == target:
        raise RuleError("cnot needs distinct wires")
    core = compose(tensor(z_spider(1, 2, 1.0), identity(1)),
                   tensor(identity(1), x_spider(2, 1, dg.TAU_ZERO)))
    # route (control, target) to the top two slots and back
    slots = [m - 1 - control, m - 1 - target]
    rest = [s for s in range(m) if s not in slots]
    to_top = permutation(slots + rest)
    back = [0] * m
    for new, old in enumerate(slots + rest):
        back[old] = new
    return compose_all([to_top, tensor(core, identity(m - 2)), permutation(back)])


def _partial_cup(m: int) -> Diagram:
    """m -> m-2 cup plugging wires 0 and 1 (the right-most pair)."""
    return tensor(identity(m - 2), cup())


# -- Figure rule set ------------------------------------------------------

_r = RewriteRule


def _s1(ps):
    a, b = ps
    lhs = compose(tensor(z_spider(1, 2, a), identity(1)),
                  tensor(identity(1), z_spider(2, 1, b)))
    rhs = z_spider(2, 2, a * b)
    return lhs, rhs


def _s2(ps):
    return z_spider(1, 1, 1.0), identity(1)


def _s3(ps):
    return z_spider(0, 2, 1.0), cap()


def _ept(ps):
    return x_spider(0, 0, dg.TAU_ZERO), empty()


def _b1(ps):
    lhs = compose(x_spider(0, 1, dg.TAU_ZERO), z_spider(1, 2, 1.0))
    rhs = tensor(x_spider(0, 1, dg.TAU_ZERO), x_spider(0, 1, dg.TAU_ZERO))
    return lhs, rhs


def _b2(ps):
    lhs = compose(z_spider(2, 1, 1.0), x_spider(1, 2, dg.TAU_ZERO))
    rhs = compose_all([
        tensor(x_spider(1, 2, dg.TAU_ZERO), x_spider(1, 2, dg.TAU_ZERO)),
        tensor_all([identity(1), swap(), identity(1)]),
        tensor(z_spider(2, 1, 1.0), z_spider(2, 1, 1.0)),
    ])
    return lhs, rhs


def _b3(ps):
    lhs = compose(x_spider(1, 1, dg.TAU_PI), z_spider(1, 2, 1.0))
    rhs = compose(z_spider(1, 2, 1.0),
                  tensor(x_spider(1, 1, dg.TAU_PI), x_spider(1, 1, dg.TAU_PI)))
    return lhs, rhs


def _brk(ps):
    lhs = compose(z_spider(1, 2, 1.0), and_gate())
    return lhs, identity(1)


def _bas0(ps):
    lhs = compose(x_spider(0, 1, dg.TAU_ZERO), triangle())
    return lhs, x_spider(0, 1, dg.TAU_ZERO)


def _bas1(ps):
    lhs = compose(x_spider(0, 1, dg.TAU_PI), triangle())
    return lhs, z_spider(0, 1, 1.0)


def _suc(ps):
    a, = ps
    lhs = compose(z_spider(0, 1, a), triangle_flipped())
    return lhs, z_spider(0, 1, a + 1.0)


def _inv(ps):
    return compose(triangle(), triangle_inv()), identity(1)


def _zero(ps):
    lhs = z_spider(1, 1, 0.0)
    rhs = compose(x_spider(1, 0, dg.TAU_ZERO), x_spider(0, 1, dg.TAU_ZERO))
    return lhs, rhs


def _eu(ps):
    zi = z_spider(1, 1, 1.0j)
    lhs = compose_all([zi, h_box(), zi, h_box(), zi])
    rhs = tensor(h_box(), scalar_z(1.0j))
    return lhs, rhs


def _sym(ps):
    w = w_map()
    return w, compose(w, swap())


def _aso(ps):
    w = w_map()
    lhs = compose(w, tensor(w, identity(1)))
    rhs = compose(w, tensor(identity(1), w))
    return lhs, rhs


def _pcy(ps):
    a, = ps
    w = w_map()
    lhs = compose(z_spider(1, 1, a), w)
    rhs = compose(w, tensor(z_spider(1, 1, a), z_spider(1, 1, a)))
    return lhs, rhs


def figure_catalog() -> list[RewriteRule]:
    """The base rule set (the figure rules; flipped variants are checked
    by the harness for every entry)."""
    return [
        _r("S1", 2, _s1),
        _r("S2", 0, _s2),
        _r("S3", 0, _s3),
        _r("Ept", 0, _ept),
        _r("B1", 0, _b1),
        _r("B2", 0, _b2),
        _r("B3", 0, _b3),
        _r("Brk", 0, _brk),
        _r("Bas0", 0, _bas0),
        _r("Bas1", 0, _bas1),
        _r("Suc", 1, _suc),
        _r("Inv", 0, _inv),
        _r("Zero", 0, _zero),
        _r("EU", 0, _eu),
        _r("Sym", 0, _sym),
        _r("Aso", 0, _aso),
        _r("Pcy", 1, _pcy),
    ]


# -- derived rules: scalar and colour layer -------------------------------

def _sca(ps):
    a, b = ps
    lhs = compose(z_spider(0, 1, a), z_spider(1, 0, b))
    return lhs, scalar_z(a * b)


def _zos(ps):
    return scalar_z(0.0), empty()


def _sml(ps):
    a, b = ps
    lhs = compose(z_spider(0, 1, a), z_spider(1, 2, b))
    return lhs, z_spider(0, 2, a * b)


def _siv(ps):
    return tensor(scalar_z(1.0), scalar_z(-0.5)), empty()


def _h2(ps):
    lhs = compose(h_box(), h_box())
    return lhs, tensor(identity(1), scalar_z(1.0))


def _colour(ps):
    lhs = compose_all([tensor_all([h_box()] * 2), z_spider(2, 1, -1.0), h_box()])
    rhs = tensor(x_spider(2, 1, dg.TAU_PI), scalar_z(1.0))
    return lhs, rhs


def _s1x(ps):
    lhs = compose(tensor(x_spider(1, 2, dg.TAU_PI), identity(1)),
                  tensor(identity(1), x_spider(2, 1, dg.TAU_PI)))
    rhs = x_spider(2, 2, dg.TAU_ZERO)
    return lhs, rhs


def _hopf(ps):
    lhs = compose(z_spider(1, 2, 1.0), x_spider(2, 1, dg.TAU_ZERO))
    rhs = compose(z_spider(1, 0, 1.0), x_spider(0, 1, dg.TAU_ZERO))
    return lhs, rhs


def _hopfvar2(ps):
    lhs = compose(z_spider(1, 2, 1.0), x_spider(2, 1, dg.TAU_PI))
    rhs = compose(z_spider(1, 0, 1.0), x_spider(0, 1, dg.TAU_PI))
    return lhs, rhs


def _bas1p(ps):
    return x_spider(0, 1, dg.TAU_PI), compose(z_spider(0, 1, 1.0), triangle_inv())


def _zx2e(ps):
    return compose(cap(), cup()), scalar_z(1.0)


def _adprime(ps):
    a, b = ps
    lhs = compose(tensor(z_spider(0, 1, a), z_spider(0, 1, b)), adder())
    return lhs, z_spider(0, 1, a + b)


def _ivt(ps):
    rhs = compose_all([z_spider(1, 1, -1.0), triangle(), z_spider(1, 1, -1.0)])
    return triangle_inv(), rhs


def _pic(ps):
    a, = ps
    lhs = compose(x_spider(1, 1, dg.TAU_PI), z_spider(1, 2, a))
    rhs = tensor(
        compose(z_spider(1, 2, 1.0 / a),
                tensor(x_spider(1, 1, dg.TAU_PI), x_spider(1, 1, dg.TAU_PI))),
        scalar_z(a - 1.0))
    return lhs, rhs


def _pic_colour(ps):
    lhs = compose(z_spider(1, 1, -1.0), x_spider(1, 2, dg.TAU_ZERO))
    rhs = compose(x_spider(1, 2, dg.TAU_ZERO),
                  tensor(z_spider(1, 1, -1.0), z_spider(1, 1, -1.0)))
    return lhs, rhs


def _picommutation(ps):
    a, = ps
    lhs = compose(x_spider(1, 1, dg.TAU_PI), z_spider(1, 1, a))
    rhs = tensor(compose(z_spider(1, 1, 1.0 / a), x_spider(1, 1, dg.TAU_PI)),
                 scalar_z(a - 1.0))
    return lhs, rhs


def _brk1p(ps):
    lhs = compose_all([cap(), tensor(triangle(), triangle_inv_flipped()), cup()])
    return lhs, scalar_z(1.0)


def _deloop(ps):
    lhs = compose_all([cap(), tensor(triangle(), triangle_inv()), cup()])
    return lhs, empty()


def _zerop(ps):
    lhs = z_spider(2, 1, 0.0)
    rhs = compose(tensor(x_spider(1, 0, dg.TAU_ZERO), x_spider(1, 0, dg.TAU_ZERO)),
                  x_spider(0, 1, dg.TAU_ZERO))
    return lhs, rhs


def _tr5prime(ps):
    lhs = compose(z_spider(0, 1, -1.0), triangle())
    return lhs, tensor(x_spider(0, 1, dg.TAU_PI), scalar_z(-2.0))


def _trianglehopf(ps):
    lhs = compose_all([z_spider(1, 2, 1.0), tensor(triangle(), identity(1)),
                       x_spider(2, 1, dg.TAU_ZERO)])
    return lhs, triangle()


def _hopfgtr(ps):
    lhs = compose_all([z_spider(1, 2, 1.0), tensor(triangle(), identity(1)),
                       z_spider(2, 1, 1.0)])
    return lhs, identity(1)


def _gpiinhada(ps):
    lhs = compose_all([h_box(), z_spider(1, 1, -1.0), h_box()])
    return lhs, tensor(x_spider(1, 1, dg.TAU_PI), scalar_z(1.0))


def _gpiintriangles(ps):
    lhs = compose_all([x_spider(1, 1, dg.TAU_PI), triangle(),
                       x_spider(1, 1, dg.TAU_PI)])
    return lhs, triangle_flipped()


def _pitinvcomut(ps):
    lhs = compose(x_spider(1, 1, dg.TAU_PI), triangle_inv())
    rhs = compose(triangle_inv_flipped(), x_spider(1, 1, dg.TAU_PI))
    return lhs, rhs


def _trianglerpidot(ps):
    lhs = compose(triangle(), x_spider(1, 1, dg.TAU_PI))
    rhs = compose(x_spider(1, 1, dg.TAU_PI), triangle_flipped())
    return lhs, rhs


def _triangleonreddot(ps):
    lhs = compose(x_spider(0, 1, dg.TAU_PI), triangle_flipped())
    return lhs, x_spider(0, 1, dg.TAU_PI)


def _two_tri_between_greens(ps):
    lhs = compose_all([z_spider(1, 2, 1.0), tensor(triangle(), triangle()),
                       z_spider(2, 1, 1.0)])
    return lhs, triangle()


def _one_tri_one_pi(ps):
    lhs = compose_all([z_spider(1, 2, 1.0),
                       tensor(triangle(), x_spider(1, 1, dg.TAU_PI)),
                       z_spider(2, 1, 1.0)])
    rhs = compose(x_spider(1, 0, dg.TAU_PI), x_spider(0, 1, dg.TAU_ZERO))
    return lhs, rhs


def _tr4g(ps):
    a, = ps
    lhs = compose(z_spider(0, 1, a), triangle())
    rhs = tensor(z_spider(0, 1, a / (1.0 + a)), scalar_z(a))
    return lhs, rhs


def _brkvariant(ps):
    lhs = compose(z_spider(1, 2, 1.0), adder())
    return lhs, z_spider(1, 1, 0.0)


def _brkp(ps):
    a, = ps
    lhs = compose(z_spider(0, 1, a), flip(and_gate()))
    rhs = dg.bend_to_state(
        compose_all([triangle(), z_spider(1, 1, a - 1.0), triangle_flipped()]))
    return lhs, rhs


def _bia(ps):
    lhs = compose(and_gate(), z_spider(1, 2, 1.0))
    rhs = compose_all([
        tensor(z_spider(1, 2, 1.0), z_spider(1, 2, 1.0)),
        permutation([0, 2, 1, 3]),
        tensor(and_gate(), and_gate()),
    ])
    return lhs, rhs


def _general_bia(ps):
    lhs = compose(z_spider(2, 1, 1.0), x_spider(1, 3, dg.TAU_ZERO))
    rhs = compose_all([
        tensor(x_spider(1, 3, dg.TAU_ZERO), x_spider(1, 3, dg.TAU_ZERO)),
        permutation([0, 3, 1, 4, 2, 5]),
        tensor_all([z_spider(2, 1, 1.0)] * 3),
    ])
    return lhs, rhs


def _andcopy(ps):
    lhs = compose(and_gate(), z_spider(1, 0, 1.0))
    return lhs, tensor(z_spider(1, 0, 1.0), z_spider(1, 0, 1.0))


def _andgate2v(ps):
    return compose(swap(), and_gate()), and_gate()


def _andpicomt(ps):
    lhs = compose_all([
        z_spider(1, 2, 1.0),
        tensor(x_spider(1, 1, dg.TAU_PI), x_spider(1, 1, dg.TAU_PI)),
        and_gate(),
        x_spider(1, 1, dg.TAU_PI),
    ])
    return lhs, identity(1)


def _dis(ps):
    lhs = compose(tensor(identity(1), x_spider(2, 1, dg.TAU_ZERO)), and_gate())
    rhs = compose_all([
        tensor(z_spider(1, 2, 1.0), identity(2)),
        permutation([0, 2, 1, 3]),
        tensor(and_gate(), and_gate()),
        x_spider(2, 1, dg.TAU_ZERO),
    ])
    return lhs, rhs


def _dis2(ps):
    a, = ps
    lhs = compose(tensor(z_spider(0, 1, a), identity(2)), _dis([])[0])
    rhs = compose(tensor(z_spider(0, 1, a), identity(2)), _dis([])[1])
    return lhs, rhs


# -- derived rules: propositions over elementary gadgets -----------------

def _commutes(name: str, g1, g2, **kw) -> RewriteRule:
    """g1 (coefficient a) then g2 (coefficient b) equals g2 then g1."""
    def build(ps):
        d1, d2 = gadget(g1, ps[0]), gadget(g2, ps[1])
        return compose(d1, d2), compose(d2, d1)
    return _r(name, 2, build, **kw)


def _merges(name: str, g, combine, **kw) -> RewriteRule:
    """g with a then g with b is g with ``combine(a, b)``."""
    def build(ps):
        a, b = ps
        return (compose(gadget(g, a), gadget(g, b)),
                gadget(g, combine(a, b)))
    return _r(name, 2, build, **kw)


def _pi_moves(name: str, g, Q, **kw) -> RewriteRule:
    """A pi layer on the wires Q passes through g, whose pi wires P
    become P ^ Q (symmetric difference)."""
    moved = (*g[:-1], set(g[-1]) ^ set(Q))

    def build(ps):
        layer = pi_layer(g[1], Q)
        return (compose(layer, gadget(g, ps[0])),
                compose(gadget(moved, ps[0]), layer))
    return _r(name, 1, build, **kw)


def _extends(name: str, g, n: int, low: bool, **kw) -> RewriteRule:
    """g beside n new wires, the low ones (right of g) if ``low``, is the
    product over the subsets P of the new wires, in binary order, of g
    extended to them with P added to its pi wires."""
    kind, m, *wires = g
    shift, new = (n, range(n)) if low else (0, range(m, m + n))
    *rest, pi = [[i + shift for i in w] for w in wires]
    members = [(kind, m + n, *rest,
                pi + [w for k, w in enumerate(new) if j >> k & 1])
               for j in range(2 ** n)]

    def build(ps):
        a, = ps
        d, side = gadget(g, a), identity(n)
        lhs = tensor(d, side) if low else tensor(side, d)
        return lhs, compose_all([gadget(h, a) for h in members])
    return _r(name, 1, build, **kw)


def _piredonpair(ps):
    a, = ps
    layer = tensor(x_spider(0, 1, dg.TAU_PI), identity(1))  # on wire 1
    return compose(layer, gadget(("add", 2, [0], [1]), a)), layer


def _ruletensorad(ps):
    a, b = ps
    lhs1 = tensor(row_addition_diagram(1, a, [0]), identity(1))
    lhs2 = tensor(identity(1), row_addition_diagram(1, b, [0]))
    return compose(lhs1, lhs2), compose(lhs2, lhs1)


def _pimultiaddcombine(ps):
    a, b = ps
    mult = gadget(("mult", 2, [0]), b)
    lhs = compose(row_addition_diagram(2, a, [0]), mult)
    rhs = compose(mult, row_addition_diagram(2, a * b, [0]))
    return lhs, rhs


def _pitopaddpipair(ps):
    a, b = ps
    # wires: block N = {0}, block M = {1}; a on J={1}, b on I={0} with
    # pi pairs on J
    J, I = [1], [0]
    piadd = gadget(("add", 2, I, J), b)
    lhs = compose(row_addition_diagram(2, a, J), piadd)
    rhs = compose_all([
        piadd,
        row_addition_diagram(2, a * b, I + J),
        row_addition_diagram(2, a, J),
    ])
    return lhs, rhs


def _cnotscommute(ps):
    lhs = compose(cnot(3, 0, 1), cnot(3, 0, 2))
    rhs = compose(cnot(3, 0, 2), cnot(3, 0, 1))
    return lhs, rhs


# -- derived rules: self-plugging layer ------------------------------------

def _rule10(ps):
    b, c = ps
    m = 2
    lhs = compose_all([row_addition_diagram(m, c, [0, 1]),
                       row_multiplication_diagram(m, b), cup()])
    rhs = compose(row_multiplication_diagram(m, b + c), cup())
    return lhs, rhs


def _rule10exten(ps):
    b, c = ps
    m = 3
    lhs = compose_all([row_addition_diagram(m, c, [0, 1]),
                       row_multiplication_diagram(m, b), _partial_cup(m)])
    rhs = compose(row_multiplication_diagram(m, b + c), _partial_cup(m))
    return lhs, rhs


def _rule12th(ps):
    a, = ps
    lhs = compose(row_addition_diagram(2, a, [1]), cup())
    return lhs, cup()


def _rule12thexten(ps):
    a, = ps
    m = 3
    lhs = compose(row_addition_diagram(m, a, [1, 2]), _partial_cup(m))
    return lhs, _partial_cup(m)


def _rule12extengen(ps):
    a, = ps
    m = 3
    lhs = compose(row_addition_diagram(m, a, [2]), _partial_cup(m))
    rhs = compose(row_addition_diagram(m, a, [0, 1, 2]), _partial_cup(m))
    return lhs, rhs


def _3and3gdotcirc(ps):
    a, = ps
    lhs = compose(row_addition_diagram(2, a, [0, 1]), cup())
    rhs = compose(row_multiplication_diagram(2, 1.0 + a), cup())
    return lhs, rhs


def _3and3gdotcircsimp(ps):
    a, = ps
    lhs = compose(row_multiplication_diagram(2, a), cup())
    rhs = compose(tensor(identity(1), z_spider(1, 1, a)), cup())
    return lhs, rhs


def derived_catalog() -> list[RewriteRule]:
    """The derived-rule library; every entry is certified by the
    soundness harness, never assumed.  A rule's provenance is its own
    name unless it names another lemma."""
    nonzero = lambda ps: all(abs(p) > 1e-6 for p in ps)

    rules = [
        _r("Sca", 2, _sca, provenance="scalartimes"),
        _r("Zos", 0, _zos, provenance="zeroiscalarempty"),
        _r("Sml", 2, _sml, provenance="scalartimesgeneral"),
        _r("Siv", 0, _siv, provenance="halfinverse"),
        _r("H2", 0, _h2, provenance="nhsquare"),
        _r("H", 0, _colour, provenance="colorchanges"),
        _r("S1x", 0, _s1x, provenance="redspider0pifusion"),
        _r("Hopf", 0, _hopf, provenance="hopfnslm"),
        _r("hopfvar2", 0, _hopfvar2),
        _r("Bas1'", 0, _bas1p, provenance="redpitogreen2"),
        _r("zx2e", 0, _zx2e, provenance="2eprf"),
        _r("AD'", 2, _adprime, provenance="equivalentaddrulens"),
        _merges("additiongbx", ("add", 1, [0], []), operator.add,
                provenance="additiongbxlm"),
        _r("Ivt", 0, _ivt, provenance="definitionTriangleInverse2"),
        _r("Pic", 1, _pic, domain=nonzero, provenance="pimultiplecplm"),
        _r("Pic'", 0, _pic_colour, provenance="pimultiplecp"),
        _r("picommutation", 1, _picommutation, domain=nonzero,
           provenance="1iprf"),
        _r("Brk1'", 0, _brk1p, provenance="2triangledeloopnopiflipns"),
        _r("2m", 0, _deloop, provenance="2mprf"),
        _r("Zero'", 0, _zerop, provenance="zerodecom2"),
        _r("tr5prime", 0, _tr5prime, provenance="tr5primelm"),
        _r("trianglehopf", 0, _trianglehopf, provenance="trianglehopflm"),
        _r("Hopfgtr", 0, _hopfgtr),
        _r("gpiinhada", 0, _gpiinhada, provenance="gpiinhadalm"),
        _r("gpiintriangles", 0, _gpiintriangles, provenance="gpiintriangleslm"),
        _r("pitinvcomut", 0, _pitinvcomut),
        _r("trianglerpidot", 0, _trianglerpidot, provenance="trianglerpidotlm"),
        _r("triangleonreddot", 0, _triangleonreddot,
           provenance="triangleonreddotlm"),
        _r("2trianglebw2gn", 0, _two_tri_between_greens,
           provenance="2trianglebw2gnlm"),
        _r("1triangle1pibw2gn", 0, _one_tri_one_pi,
           provenance="1triangle1pibw2gnlm"),
        _r("TR4g", 1, _tr4g, domain=lambda ps: abs(ps[0] + 1.0) > 1e-6),
        _r("Brk-var", 0, _brkvariant, provenance="brkvariant"),
        _r("Brkp", 1, _brkp, provenance="anddflipwitha2"),
        _r("BiA", 0, _bia, provenance="andbial"),
        _r("generalBiA", 0, _general_bia, provenance="generalbialgebra"),
        _r("andcopy", 0, _andcopy),
        _r("andgate2v", 0, _andgate2v),
        _merges("andadditionco", ("mult", 2, []), operator.mul),
        _r("andpicomt", 0, _andpicomt),
        _r("Dis", 0, _dis, provenance="distribute"),
        _r("Dis2", 1, _dis2, provenance="distribute2"),
        # propositions over elementary gadgets
        _pi_moves("picntcommut", ("add", 2, [0], []), [1]),
        _pi_moves("picntcommutcro", ("add", 3, [0], []), [1, 2]),
        _pi_moves("picntcommutesam", ("add", 2, [0], [1]), [1]),
        _pi_moves("picntcommutesamgrn", ("add", 3, [0], [1]), [2]),
        _pi_moves("picntcommutcro2", ("add", 3, [0, 1], [2]), [2]),
        _pi_moves("picntcommuteand", ("mult", 2, []), [1]),
        _pi_moves("picntcommuteandcr1", ("mult", 3, []), [0, 2]),
        _r("piredonpairpidm", 1, _piredonpair),
        _extends("prop1", ("add", 2, [0], []), 1, low=True),
        _extends("prop1cro2", ("add", 2, [0, 1], []), 1, low=False,
                 provenance="propo1cro2"),
        _extends("itensorand", ("mult", 2, []), 1, low=True),
        _extends("nlinestensornormalform", ("add", 1, [0], []), 2, low=True),
        _extends("normalformtensornlines", ("add", 1, [0], []), 2, low=False),
        _extends("nlinestensornormalformadd", ("mult", 1, []), 2, low=False),
        _extends("nlinestensormmultiply", ("mult", 1, []), 2, low=True),
        _merges("propadprime", ("add", 2, [0, 1], []), operator.add),
        _merges("propadprimecro", ("add", 2, [0], [1]), operator.add),
        _commutes("addcommutat", ("add", 1, [0], []), ("add", 1, [0], [])),
        _commutes("addcommutatgen", ("add", 3, [0, 1, 2], []),
                  ("add", 3, [0, 1, 2], [])),
        _commutes("addcommutatgencont", ("add", 3, [0, 2], []),
                  ("add", 3, [1, 2], [])),
        _commutes("raddcomplex", ("add", 2, [0], [1]), ("add", 2, [0, 1], [])),
        _commutes("raddcomplexsym", ("add", 2, [1], [0]), ("add", 2, [0], [1])),
        _r("ruletensorad", 2, _ruletensorad),
        _extends("ruletensorLsim", ("add", 1, [0], []), 1, low=True,
                 provenance="ruletensorLsimpler"),
        _extends("ruletensorL", ("mult", 1, []), 1, low=True,
                 provenance="ruletensor"),
        _commutes("multiplypimulticommutesim", ("mult", 2, [0]),
                  ("mult", 2, [])),
        _commutes("multiplypimulticommutg", ("mult", 2, []),
                  ("mult", 2, [0, 1])),
        _commutes("multiplypimulticommute", ("mult", 2, [1]), ("mult", 2, [0])),
        # the pi wire 1 is in S, |S| >= 2
        _commutes("multiplypimulticommutgcro2", ("add", 2, [0, 1], [1]),
                  ("add", 2, [0, 1], [1])),
        _commutes("addpidoublecom", ("add", 3, [0], [1]), ("add", 3, [0], [2])),
        _commutes("multipidoublecom", ("mult", 2, [0]), ("mult", 2, [1])),
        # the pi wire 0 is in S, |S| >= 2
        _commutes("addpimultiplycommut", ("add", 2, [0, 1], []),
                  ("mult", 2, [0])),
        # the pi wire 2 is not in S
        _commutes("addpimultiplycommutg", ("add", 3, [0, 1], []),
                  ("mult", 3, [2])),
        # P != Q, Q disjoint from S
        _commutes("addpipairmultiplycommutgp", ("add", 3, [0], [1]),
                  ("mult", 3, [2])),
        _merges("TR15", ("mult", 2, [1]), operator.mul,
                provenance="pimultiplyabsorbtion"),
        _r("pimultiaddcombinepro", 2, _pimultiaddcombine),
        _r("pitopaddpipaircommutprop", 2, _pitopaddpipair),
        _r("cnotscomutelm", 0, _cnotscommute),
        # props 27-30 on blocks N = {2, 3}, M = {0, 1}
        _commutes("addpipair2sidecommutprop", ("add", 4, [3], [0]),
                  ("add", 4, [2], [0, 1])),
        _commutes("addpipair2sidecommutprop28", ("add", 4, [0], [2]),
                  ("add", 4, [3], [1])),
        _commutes("addpipair2sidecommutprop29", ("add", 4, [0, 2], []),
                  ("add", 4, [1], [2, 3])),
        _commutes("addpipair2sidecommutprop29b", ("add", 4, [1, 3], []),
                  ("add", 4, [2], [0])),
        _commutes("addpipairmulcommutprop30a", ("add", 4, [2], [0]),
                  ("mult", 4, [3])),
        _commutes("addpipairmulcommutprop30b", ("add", 4, [1, 2], []),
                  ("mult", 4, [2, 3])),
        _commutes("addpipairmulcommutprop30bcro", ("add", 4, [0, 3], []),
                  ("mult", 4, [1])),
        _commutes("addpipairmulcommutprop30c", ("add", 4, [2, 3], []),
                  ("mult", 4, [2])),
        _commutes("addpipairmulcommutprop30ccro", ("add", 4, [0, 1], []),
                  ("mult", 4, [0])),
        # self-plugging layer
        _r("rule10", 2, _rule10),
        _r("rule10exten", 2, _rule10exten),
        _r("rule12th", 1, _rule12th),
        _r("rule12thexten", 1, _rule12thexten),
        _r("rule12extengen", 1, _rule12extengen),
        _r("3and3gdotcirc", 1, _3and3gdotcirc),
        _r("3and3gdotcircsimp", 1, _3and3gdotcircsimp),
    ]
    return [replace(r, provenance=r.provenance or r.name) for r in rules]


def full_catalog() -> list[RewriteRule]:
    return figure_catalog() + derived_catalog()


def catalog_by_name() -> dict[str, RewriteRule]:
    cat = {}
    for rule in full_catalog():
        if rule.name in cat:
            raise RuleError(f"duplicate rule name {rule.name}")
        cat[rule.name] = rule
    return cat
