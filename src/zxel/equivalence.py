"""Diagram equivalence by normal-form comparison, cross-checked against
the matrix semantics.

Both routes always run at desk scale: the normal-form pipeline is the
completeness machinery under test, and the interpreter is the ground
truth guarding it.  The two verdicts must agree; disagreement is an
implementation defect, never a valid outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import Diagram
from .normalform import NormalForm, nf_equal, nf_to_jsonable, normalize_all
from .semantics import DEFAULT_TOL, interpret_all, max_deviation


class TypeMismatchError(ValueError):
    """The two diagrams have different boundary types."""


class VerdictDisagreement(RuntimeError):
    """Normal-form and semantic verdicts disagree: an internal bug."""


@dataclass(frozen=True)
class EquivalenceVerdict:
    equal: bool
    max_deviation: float
    nf_pair: tuple[NormalForm, NormalForm]

    def to_jsonable(self) -> dict:
        dev = self.max_deviation  # null if beyond the float range
        # both routes decide every verdict
        return {"equal": self.equal, "method": "both",
                "max_deviation": dev if math.isfinite(dev) else None,
                "normal_forms": [nf_to_jsonable(nf) for nf in self.nf_pair]}


def check_equivalent(d1: Diagram, d2: Diagram,
                     tol: float = DEFAULT_TOL) -> EquivalenceVerdict:
    """Decide whether two diagrams are equal in the calculus.

    Each route takes the two diagrams together (``normalize_all``, then
    ``interpret_all``), so a pair of one shape is planned once per route,
    and a shape whose plans were kept by earlier calls is not planned
    again.
    """
    if d1.type != d2.type:
        raise TypeMismatchError(
            f"diagram types differ: {d1.type} vs {d2.type}")
    nf1, nf2 = normalize_all([d1, d2])
    by_nf = nf_equal(nf1, nf2, tol)

    dev = max_deviation(*interpret_all([d1, d2]))
    by_sem = bool(dev <= tol)

    if by_nf != by_sem:
        raise VerdictDisagreement(
            f"normal-form verdict {by_nf} vs semantic verdict {by_sem} "
            f"(deviation {dev:.3e})")
    return EquivalenceVerdict(by_sem, float(dev), (nf1, nf2))
