"""Lifting separation-logic implications to relational interpretations.

The package decides when an implication between assertions with assertion
variables, valid in the standard unary reading, remains valid in binary and
higher-arity relational readings.  It provides the exact finitely generated
relation algebra behind that question, a bounded counterexample search, and a
loop-free program logic whose consequence rule is gated by the decision
procedure, yielding representation-independence checks for clients of
two-implementation modules.
"""

from .heap import EMPTY_HEAP, Heap, cells, compose, extends, merge, segregating_sets
from .relations import GenRel, delta, empty, included, meet, member, star, top, union
from .syntax import AssertEnv, parse, pretty
from .normalize import ImplicationForm, reduce_implication, to_simple
from .layout import compute_layout, to_dot
from .semantics import (
    DEFAULT_BUDGET,
    SearchBudget,
    ValueDomain,
    env_valid,
    find_counter_env,
    interpret,
    pc_check,
)
from .lifting import chk, lift_check, verify_package, witness_search
from .hoare import check_proof, exec_command, two_validity_test
from .scenarios import demo

__all__ = [
    "Heap",
    "EMPTY_HEAP",
    "cells",
    "compose",
    "merge",
    "extends",
    "segregating_sets",
    "GenRel",
    "top",
    "empty",
    "member",
    "included",
    "union",
    "meet",
    "star",
    "delta",
    "parse",
    "pretty",
    "AssertEnv",
    "to_simple",
    "reduce_implication",
    "ImplicationForm",
    "compute_layout",
    "to_dot",
    "ValueDomain",
    "SearchBudget",
    "DEFAULT_BUDGET",
    "interpret",
    "env_valid",
    "find_counter_env",
    "pc_check",
    "lift_check",
    "chk",
    "witness_search",
    "verify_package",
    "exec_command",
    "check_proof",
    "two_validity_test",
    "demo",
]

__version__ = "0.1.0"
