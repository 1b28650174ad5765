"""Finite quandles and their maximal connected decompositions.

Construct Alexander quandles over finite Laurent quotient rings, dihedral
and conjugation quandles, and multiple conjugation quandles; decompose them
into connected components and maximal connected pieces; and verify the
closed-form component counts against brute-force iteration.
"""

from .laurent import (
    ONE_MINUS_T,
    LaurentPoly,
    ParseError,
    eval_one,
    format_poly,
    gcd_vec,
    parse_poly,
    split_one_minus_t,
    syzygy_basis,
)
from .tmodule import (
    FiniteTModule,
    IdealPresentation,
    UnsupportedPresentation,
    build,
    ideals_equal,
    parse_ideal,
    presentation_from_generators,
)
from .quandle import (
    AxiomViolation,
    FiniteQuandle,
    InvalidTable,
    NotASubquandle,
    Partition,
    check_axioms,
    check_columns,
    column_cycle_type,
    connected_components,
    find_isomorphism,
    generated_subquandle,
    is_connected,
    op_pow,
    subquandle,
    trivial_quandle,
    type_of,
)
from .group import (
    FiniteGroup,
    check_group,
    is_associative,
    conj_components,
    conj_decomposition,
    conj_quandle,
    conjugacy_classes,
    cyclic_group,
    symmetric_group,
)
from .alexander import (
    AlexanderQuandle,
    ComponentIdeal,
    GcdChain,
    alexander_components,
    alexander_decomposition,
    alexander_quandle,
    component_ideal,
    dihedral,
    dihedral_presentation,
    gcd_chain,
    orbit_count,
)
from .decomposition import (
    Decomposition,
    iterate_refinement,
    maximal_decomposition,
)
from .mcq import (
    MCQ,
    McqDecomposition,
    associated_decomposition,
    associated_mcq,
    check_associated_axioms,
    check_mcq_axioms,
    conjugation_mcq,
    generated_sub_mcq,
    is_sub_mcq,
    lambda_orbits,
    maximal_mcq_decomposition,
)

__version__ = "0.1.0"
