"""The five essential interface mutation operators of Table 1."""

from .base import (
    MAXINT,
    MININT,
    REQUIRED_CONSTANTS,
    MethodContext,
    MutationOperator,
    MutationPoint,
    OperatorRegistry,
    UseSite,
    infer_attribute_universe,
    method_context,
    render_expr,
)
from .ind_var_bit_neg import IndVarBitNeg
from .ind_var_rep_ext import IndVarRepExt
from .ind_var_rep_glob import IndVarRepGlob
from .ind_var_rep_loc import IndVarRepLoc
from .ind_var_rep_req import IndVarRepReq

#: The operator battery of Table 1, in the paper's column order.
ALL_OPERATORS = (
    IndVarBitNeg(),
    IndVarRepGlob(),
    IndVarRepLoc(),
    IndVarRepExt(),
    IndVarRepReq(),
)

OPERATOR_NAMES = tuple(operator.name for operator in ALL_OPERATORS)

#: name → operator instance, for declarative configs that select by name.
OPERATORS_BY_NAME = {operator.name: operator for operator in ALL_OPERATORS}


def select_operators(names):
    """Resolve operator names to instances, preserving Table-1 order.

    Declarative scenario configs name their operator subset; resolution is
    order-insensitive (the battery always applies operators in the
    paper's column order) and strict — an unknown name raises
    :class:`~repro.core.errors.MutationError` listing the valid set.
    """
    from ...core.errors import MutationError

    unknown = sorted(set(names) - set(OPERATOR_NAMES))
    if unknown:
        raise MutationError(
            f"unknown mutation operator(s) {', '.join(unknown)}; "
            f"valid: {', '.join(OPERATOR_NAMES)}"
        )
    wanted = set(names)
    return tuple(op for op in ALL_OPERATORS if op.name in wanted)


__all__ = [
    "ALL_OPERATORS",
    "IndVarBitNeg",
    "IndVarRepExt",
    "IndVarRepGlob",
    "IndVarRepLoc",
    "IndVarRepReq",
    "MAXINT",
    "MININT",
    "MethodContext",
    "MutationOperator",
    "MutationPoint",
    "OPERATOR_NAMES",
    "OPERATORS_BY_NAME",
    "OperatorRegistry",
    "select_operators",
    "REQUIRED_CONSTANTS",
    "UseSite",
    "infer_attribute_universe",
    "method_context",
    "render_expr",
]
