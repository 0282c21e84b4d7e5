"""Blackbox numerical irreducible decomposition of polynomial systems.

Pipelined polyhedral homotopies solve the embedded top-dimensional
system, a cascade of homotopies walks candidate generic points down one
dimension at a time, and homotopy membership filters separate witness
sets from junk and isolated solutions.  A work-crew scheduler runs the
path-tracking stages on many workers, with analytic speedup models for
each stage.
"""

from .polynomials import (
    PolySystem,
    SparsePolynomial,
    eval_poly,
    eval_system,
    jacobian,
    make_poly,
    residual,
)
from .linalg import condition_and_rank
from .systems import EmbeddedSystem, SquaringRecord, cyclic, demo_system, embed, slice_to_zero, square_up

__version__ = "0.1.0"

__all__ = [
    "PolySystem",
    "SparsePolynomial",
    "EmbeddedSystem",
    "SquaringRecord",
    "condition_and_rank",
    "cyclic",
    "demo_system",
    "embed",
    "eval_poly",
    "eval_system",
    "jacobian",
    "make_poly",
    "residual",
    "slice_to_zero",
    "square_up",
    "__version__",
]
