import dataclasses
import types

import pytest

import hermitia

# The public API, grouped by defining module.  A change here is an API
# change and is recorded in CHANGES.md.
PUBLIC_NAMES = {
    # classify
    "ClassificationResult", "FormulaReport", "HypothesisViolation",
    "complete_multipartite_parts", "cor39_condition", "formula_report_310",
    "formula_report_38", "lem310_condition", "lem311_check", "lem38_condition",
    "p1_characterize", "thm11_classify", "thm12_classify",
    # enumeration
    "EnumSpec", "classes_up_to", "connected_underlying",
    "enumerate_switching_classes", "mixed_representative",
    # families
    "FamilySpec", "FamilySpecError", "format_family_spec", "gen_c3t",
    "gen_complete_multipartite", "gen_cycle", "gen_K_gain", "gen_K_plain",
    "gen_star", "parse_family_spec", "realize",
    # graph_core
    "GraphFormatError", "QuartGainGraph", "coalesce", "compact_str", "components",
    "components_avoiding", "cut_vertices", "delete_vertex", "disjoint_union",
    "induced_subgraph", "is_connected", "parse_graph", "pendant_vertices",
    "relabel", "serialize_graph", "underlying",
    # numeric
    "UNIT_I", "UNIT_MINUS_I", "UNIT_MINUS_ONE", "UNIT_ONE", "UNITS", "Unit",
    "unit_conj", "unit_from_token", "unit_mul", "unit_token",
    # spectra
    "HermitianMatrix", "InertiaTriple", "congruence", "eig_float",
    "hermitian_matrix", "inertia", "inertia_exact", "inertia_float",
    # suites
    "SUITE_NAMES", "SuiteReport", "verify_all", "verify_suite",
    # switching_twins
    "IsoWitness", "SwitchAssignment", "TwinPartition", "apply_switch", "are_twins",
    "converse", "cycle_signature", "cycle_value", "is_even_triangle",
    "is_odd_triangle", "is_positive", "switching_equivalent",
    "switching_equivalent_up_to_iso", "switching_witness", "tree_normalize",
    "twin_partition", "twin_reduction", "two_way_directed", "two_way_mixed",
}


def test_public_api_is_pinned():
    exported = {
        name
        for name, value in vars(hermitia).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_enum_spec_has_no_connected_option():
    # Enumeration is of connected graphs only; the option that could only be
    # True is gone.
    assert "connected" not in {f.name for f in dataclasses.fields(hermitia.EnumSpec)}
    with pytest.raises(TypeError):
        hermitia.EnumSpec(n=3, connected=True)
