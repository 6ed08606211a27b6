"""Exact coefficient arithmetic, q-combinatorics, and symmetric polynomials."""

from .partitions import (
    as_composition,
    as_composition_of,
    as_partition,
    as_partition_of,
    composition_count,
    compositions,
    conjugate,
    dominant,
    is_weakly_decreasing,
    kostka,
    orbit,
    parse_partition,
    partitions,
    render_partition,
    sn_class_size,
    subsets,
    z_order,
)
from .qcount import (
    gl_order,
    is_prime,
    parabolic_order,
    parahoric_index,
    qbinom,
    qint_balanced,
)
from .scalars import ONE, Q, V, ZERO, PoleError, QScalar
from .sympoly import (
    SymPoly,
    elementary,
    monomial_sym,
    powersum,
    schur,
)

__all__ = [
    "QScalar", "PoleError", "ZERO", "ONE", "V", "Q",
    "partitions", "compositions", "composition_count", "conjugate",
    "as_partition", "as_composition", "as_partition_of", "as_composition_of",
    "is_weakly_decreasing", "dominant",
    "orbit", "z_order", "sn_class_size", "kostka",
    "render_partition", "parse_partition", "subsets",
    "qint_balanced", "qbinom", "gl_order", "parabolic_order",
    "parahoric_index", "is_prime",
    "SymPoly", "monomial_sym", "elementary", "powersum", "schur",
]
