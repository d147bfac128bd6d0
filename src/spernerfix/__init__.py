"""Certified one-dimensional fixed-point search over exact rationals.

Sperner-labeled grid search, sign-change bracketing with exact residual
evidence, piecewise-linear extension of discrete vertex maps, and a running
demonstration that the labeling combinatorics survive over the rationals
while fixed-point existence does not.
"""

from .counterexample import (
    RESIDUAL_FLOOR,
    CounterexampleReport,
    assert_no_fixed_point,
    counterexample_expr,
    run_demo,
)
from .expr import (
    Add,
    Const,
    Div,
    Expr,
    IfNeg,
    Mul,
    Sub,
    Var,
    as_function,
    evaluate,
    parse,
    to_text,
)
from .plmap import (
    FixedPointWitness,
    PLMap,
    pl_evaluate,
    pl_fixed_points,
    pl_from_labeling,
    pl_trace,
    theorem_roundtrip,
)
from .rationals import (
    CertificateError,
    ParseError,
    decimal_string,
    is_below_sqrt2,
    parse_rational,
)
from .solver import (
    CertifiedBracket,
    FixPointResult,
    SolverConfig,
    archimedean_n,
    refine_rounds,
    residual,
    residual_bound,
    solve,
)
from .sperner import (
    BoundaryConditionError,
    ExactVertex,
    Grid,
    Labeling,
    NonSelfMapError,
    find_transition_bisect,
    find_transition_bisect_counted,
    find_transition_scan,
    label_by_sign,
    make_uniform_grid,
    parse_labels,
    parse_vertices,
)

__version__ = "0.1.0"

__all__ = [
    "RESIDUAL_FLOOR",
    "CounterexampleReport",
    "assert_no_fixed_point",
    "counterexample_expr",
    "run_demo",
    "Add",
    "Const",
    "Div",
    "Expr",
    "IfNeg",
    "Mul",
    "Sub",
    "Var",
    "as_function",
    "evaluate",
    "parse",
    "to_text",
    "FixedPointWitness",
    "PLMap",
    "pl_evaluate",
    "pl_fixed_points",
    "pl_from_labeling",
    "pl_trace",
    "theorem_roundtrip",
    "CertificateError",
    "ParseError",
    "decimal_string",
    "is_below_sqrt2",
    "parse_rational",
    "CertifiedBracket",
    "FixPointResult",
    "SolverConfig",
    "archimedean_n",
    "refine_rounds",
    "residual",
    "residual_bound",
    "solve",
    "BoundaryConditionError",
    "ExactVertex",
    "Grid",
    "Labeling",
    "NonSelfMapError",
    "find_transition_bisect",
    "find_transition_bisect_counted",
    "find_transition_scan",
    "label_by_sign",
    "make_uniform_grid",
    "parse_labels",
    "parse_vertices",
]
