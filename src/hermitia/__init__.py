"""Exact spectral toolkit for mixed graphs and fourth-root gain graphs.

Core objects: :class:`QuartGainGraph` (edge gains in {1, i, -1, -i}),
:class:`HermitianMatrix` over the Gaussian integers Z[i] (the one exact
number type), exact inertia via fraction-free Hermitian congruence over
Z[i], an independent float oracle on LAPACK ``eigvalsh``, switching-class
canonical forms, twin reduction, the named graph families, and classifiers
for the small positive-inertia characterizations.
"""

import os

# numpy reads these when first imported; a count the caller set wins (README, "BLAS threads").
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .classify import (
    ClassificationResult,
    FormulaReport,
    HypothesisViolation,
    complete_multipartite_parts,
    cor39_condition,
    formula_report_310,
    formula_report_38,
    lem310_condition,
    lem311_check,
    lem38_condition,
    p1_characterize,
    thm11_classify,
    thm12_classify,
)
from .enumeration import (
    EnumSpec,
    classes_up_to,
    connected_underlying,
    enumerate_switching_classes,
    mixed_representative,
)
from .families import (
    FamilySpec,
    FamilySpecError,
    format_family_spec,
    gen_c3t,
    gen_complete_multipartite,
    gen_cycle,
    gen_K_gain,
    gen_K_plain,
    gen_star,
    parse_family_spec,
    realize,
)
from .graph_core import (
    GraphFormatError,
    QuartGainGraph,
    coalesce,
    compact_str,
    components,
    components_avoiding,
    cut_vertices,
    delete_vertex,
    disjoint_union,
    induced_subgraph,
    is_connected,
    parse_graph,
    pendant_vertices,
    relabel,
    serialize_graph,
    underlying,
)
from .numeric import (
    UNIT_I,
    UNIT_MINUS_I,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    UNITS,
    Unit,
    unit_conj,
    unit_from_token,
    unit_mul,
    unit_token,
)
from .spectra import (
    HermitianMatrix,
    InertiaTriple,
    congruence,
    eig_float,
    hermitian_matrix,
    inertia,
    inertia_exact,
    inertia_float,
)
from .suites import SUITE_NAMES, SuiteReport, verify_all, verify_suite
from .switching_twins import (
    IsoWitness,
    SwitchAssignment,
    TwinPartition,
    apply_switch,
    are_twins,
    converse,
    cycle_signature,
    cycle_value,
    is_even_triangle,
    is_odd_triangle,
    is_positive,
    switching_equivalent,
    switching_equivalent_up_to_iso,
    switching_witness,
    tree_normalize,
    twin_partition,
    twin_reduction,
    two_way_directed,
    two_way_mixed,
)

__version__ = "0.1.0"
