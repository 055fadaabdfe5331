"""Exact character theory and strong-Gelfand classification for the
cyclic, dihedral, and dicyclic group families.

Everything is computed in exact cyclotomic arithmetic; no floating point
ever feeds back into a result.  See the README for the CLI surface.
"""

from .cyclo import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    rational,
    zeta,
)
from .groups import (
    ConjugacyClasses,
    FiniteGroup,
    Subgroup,
    all_subgroups,
    are_conjugate_subgroups,
    build_group,
    conjugacy_classes,
    cyclic_group,
    describe_subgroup,
    dicyclic_group,
    dihedral_group,
    full_subgroup,
    generated_subgroup,
    trivial_subgroup,
)
from .chars import (
    CharacterTable,
    ClassFunction,
    constructive_family_table,
    decompose,
    family_table,
    induce,
    inner_product,
    linear_characters_bruteforce,
    regular_character,
    restrict,
    subgroup_table,
    trivial_character,
    validate_table,
)
from .gelfand import (
    AuditReport,
    ClassificationReport,
    GroupAudit,
    MultiplicityMatrix,
    ClassificationRule,
    Witness,
    audit,
    classify_subgroups,
    is_gelfand,
    is_strong_gelfand,
    multiplicity_by_induction,
    multiplicity_by_restriction,
    multiplicity_matrix,
    predict,
)

__version__ = "0.1.0"

__all__ = [
    "Cyclotomic", "cyclotomic_polynomial", "euler_phi", "rational", "zeta",
    "ConjugacyClasses", "FiniteGroup", "Subgroup", "all_subgroups",
    "are_conjugate_subgroups", "build_group", "conjugacy_classes",
    "cyclic_group", "describe_subgroup", "dicyclic_group", "dihedral_group",
    "full_subgroup", "generated_subgroup", "trivial_subgroup",
    "CharacterTable", "ClassFunction", "constructive_family_table",
    "decompose", "family_table", "induce", "inner_product",
    "linear_characters_bruteforce", "regular_character", "restrict",
    "subgroup_table", "trivial_character", "validate_table",
    "AuditReport", "ClassificationReport", "ClassificationRule", "GroupAudit",
    "MultiplicityMatrix", "Witness", "audit", "classify_subgroups",
    "is_gelfand", "is_strong_gelfand", "multiplicity_by_induction",
    "multiplicity_by_restriction", "multiplicity_matrix", "predict",
    "__version__",
]
