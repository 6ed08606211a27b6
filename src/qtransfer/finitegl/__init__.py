"""Class-function computations in GL_d(F_q) for small d and prime q."""

from .classfun import (
    ClassFunction,
    comb_prop_check,
    dl_character,
    ind_conjugate_identity_exhaustive,
    linear_combination,
    parabolic_trivial_ind,
)
from .group import (
    CLASS_LIMIT,
    SCAN_LIMIT,
    BudgetError,
    GLClass,
    GLGroup,
    ParabolicSubgroup,
    cached_group,
    class_count,
)

__all__ = [
    "GLGroup", "GLClass", "ParabolicSubgroup", "BudgetError",
    "CLASS_LIMIT", "SCAN_LIMIT", "cached_group", "class_count",
    "ClassFunction", "linear_combination",
    "parabolic_trivial_ind", "dl_character", "comb_prop_check",
    "ind_conjugate_identity_exhaustive",
]
