"""Lifting separation-logic implications to relational interpretations.

The package decides when an implication between assertions with assertion
variables, valid in the standard unary reading, remains valid in binary and
higher-arity relational readings.  It provides the exact finitely generated
relation algebra behind that question, a bounded counterexample search, and a
loop-free program logic whose consequence rule is gated by the decision
procedure, yielding representation-independence checks for clients of
two-implementation modules.

Names are imported from the module that defines them, e.g.
``from seplift.lifting import chk``.
"""

from . import heap, hoare, layout, lifting, normalize, relations, scenarios, semantics, syntax

__all__ = [
    "heap",
    "hoare",
    "layout",
    "lifting",
    "normalize",
    "relations",
    "scenarios",
    "semantics",
    "syntax",
]
