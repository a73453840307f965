"""Algebraic ZX-calculus: diagrams, matrix semantics, a certified
rule catalog, elementary-transformation normal forms and an equivalence
checker."""

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
from .rules import (RewriteRule, instantiate, check_soundness,
                    figure_catalog, derived_catalog, full_catalog)
from .rewrite import (MatchSite, find_matches, apply, simplify,
                      StaleSiteError, UnsupportedRuleError)
from .equivalence import (EquivalenceVerdict, check_equivalent,
                          TypeMismatchError, VerdictDisagreement)

__version__ = "0.1.0"
