"""Algebraic ZX-calculus: diagrams, matrix semantics, a certified
rule catalog, elementary-transformation normal forms and an equivalence
checker.

The rule catalog, ``zxel.rules``, loads on first use: its module is in
``sys.modules`` from ``import zxel`` on, but its source is compiled and
run only when one of its attributes is first read, so a process that
never reads the catalog never pays for it."""

import importlib.util as _importlib_util
import sys as _sys
import threading as _threading
import types as _types

from .diagram import (Diagram, Node, DiagramError, compose, tensor, flip,
                      bend_to_state, identity, swap, permutation,
                      cap, cup, empty, z_spider, scalar_z, h_box, triangle,
                      triangle_inv, x_spider, TAU_ZERO, TAU_PI)
from .semantics import (interpret, contract_state, matrices_equal,
                        ResourceError, wire_cap)
from .normalform import (NormalForm, nf_from_vector, nf_to_diagram,
                         nf_tensor, nf_self_plug, nf_equal, normalize,
                         scalar_nf_diagram, row_addition_diagram,
                         row_multiplication_diagram, WireCapError)
from .rewrite import (MatchSite, find_matches, apply, simplify,
                      StaleSiteError, UnsupportedRuleError)
from .equivalence import (EquivalenceVerdict, check_equivalent,
                          TypeMismatchError, VerdictDisagreement)

__version__ = "0.1.0"


_LAZY_LOCK = _threading.RLock()


class _LazyModule(_types.ModuleType):
    """A module whose source runs on the first read of any attribute.
    Other threads wait for the run to end; the running thread's own reads
    pass (the lock is reentrant).  ``importlib.util.LazyLoader`` takes no
    lock before Python 3.12, so a second thread could read the module
    half run."""

    def __getattribute__(self, attr):
        get = _types.ModuleType.__getattribute__
        with _LAZY_LOCK:
            spec = get(self, "__spec__")
            if type(self) is _LazyModule and spec.loader_state is None:
                spec.loader_state = "running"
                spec.loader.exec_module(self)
                self.__class__ = _types.ModuleType
        return get(self, attr)


# in sys.modules unrun, where the benchmark's tracer looks modules up
_spec = _importlib_util.find_spec(__name__ + ".rules")
rules = _importlib_util.module_from_spec(_spec)
rules.__class__ = _LazyModule
_sys.modules[_spec.name] = rules

# the catalog's exports, read from ``rules`` on first use
_RULES_EXPORTS = ("RewriteRule", "instantiate", "check_soundness",
                  "figure_catalog", "derived_catalog", "full_catalog")


def __getattr__(name: str):
    if name not in _RULES_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bind all six at once, as an eager import did, so that code which
    # swaps one of them wherever a zxel module binds it finds them all
    globals().update({n: getattr(rules, n) for n in _RULES_EXPORTS})
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_RULES_EXPORTS))
