"""Effective nonabelian descent toolkit.

A pipeline of exact-integer and capped-precision p-adic computations:
graded Lie-algebra dimension tables, Selmer/de-Rham bound tables with their
halting level, iterated-integral observables, zero isolation by Strassmann
counts with a separation modulus, local annihilators with prime-set
enlargement, and a two-sided search driver that runs until its two
enumerations agree.

The root namespace holds what the demos use and the error families the
command line maps onto exit codes; everything else is imported from its
submodule.
"""

from .descent_arith import JacobianLocalData, enlarged_prime_set, jacobian_order_mod
from .errors import (
    DomainError,
    FactorizationTimeoutError,
    InvariantError,
    IsolationError,
    PrecisionError,
)
from .iterated_words import (
    FormSystem,
    Observable,
    evaluate_observable,
    iterated_integral,
    observable_product,
    shuffle,
)
from .lie_dims import cumulative_dim, graded_dims
from .padic_series import (
    PadicNumber,
    PadicSeries,
    isolate_zeros,
    root_count_positive_valuation,
    separation_modulus,
)
from .selmer_bounds import CurveParams, ParityMode, halting_level
from .two_sided_search import TableEnumerator, run_descent

__version__ = "0.1.0"

__all__ = [
    "CurveParams",
    "DomainError",
    "FactorizationTimeoutError",
    "FormSystem",
    "InvariantError",
    "IsolationError",
    "JacobianLocalData",
    "Observable",
    "PadicNumber",
    "PadicSeries",
    "ParityMode",
    "PrecisionError",
    "TableEnumerator",
    "cumulative_dim",
    "enlarged_prime_set",
    "evaluate_observable",
    "graded_dims",
    "halting_level",
    "isolate_zeros",
    "iterated_integral",
    "jacobian_order_mod",
    "observable_product",
    "root_count_positive_valuation",
    "run_descent",
    "separation_modulus",
    "shuffle",
]
