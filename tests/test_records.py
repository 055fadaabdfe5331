"""The record types are named tuples and the four classes with memoized
values are immutable: fields, reprs, equality, hashing and assignment; and
`memoized` keeps one value per object and arguments, freed with the object."""

import gc
import weakref

import pytest

from sgp.chars import CharacterTable, ClassFunction, TableValidation, family_table, validate_table
from sgp.gelfand import (
    AuditEntry,
    AuditReport,
    ClassificationReport,
    ClassificationRule,
    GroupAudit,
    MultiplicityMatrix,
    SubgroupRecord,
    Witness,
    audit,
    classify_subgroups,
    multiplicity_matrix,
    predict,
)
from sgp.groups import (
    ConjugacyClasses,
    Subgroup,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    memoized,
)

FIELDS = {
    Witness: ("psi", "chi", "mult"),
    MultiplicityMatrix: ("row_names", "col_names", "entries"),
    SubgroupRecord: ("descriptor", "order", "index", "members", "gelfand", "strong_gelfand",
                     "witness"),
    ClassificationReport: ("group", "records", "subgroups"),
    ClassificationRule: ("family", "n"),
    AuditEntry: ("record", "predicted"),
    GroupAudit: ("family", "n", "group_name", "entries"),
    AuditReport: ("family", "audits"),
    TableValidation: ("passed", "failures"),
    ConjugacyClasses: ("class_of", "reps", "sizes", "classes"),
}


def records(g):
    """One record of each type, computed from g; each call computes them afresh."""
    report = classify_subgroups(g)
    group_audits = audit("dihedral", [g.n])
    return {
        Witness: report.records[0].witness,
        MultiplicityMatrix: multiplicity_matrix(report.subgroups[0]),
        SubgroupRecord: report.records[0],
        ClassificationReport: report,
        ClassificationRule: predict(g.family, g.n),
        AuditEntry: group_audits.audits[0].entries[0],
        GroupAudit: group_audits.audits[0],
        AuditReport: group_audits,
        TableValidation: validate_table(family_table(g)),
        ConjugacyClasses: conjugacy_classes(g),
    }


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_record_fields_keep_their_order(cls):
    assert cls._fields == FIELDS[cls]
    assert tuple(cls.__annotations__) == FIELDS[cls]  # the types document every field


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_records_are_immutable(cls):
    record = records(dihedral_group(6))[cls]
    for name in (*FIELDS[cls], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_reprs_name_every_field():
    g = dihedral_group(6)
    got = records(g)
    assert repr(got[Witness]) == "Witness(psi='μ_0', chi='ψ_1', mult=2)"
    assert repr(got[SubgroupRecord]) == (
        "SubgroupRecord(descriptor='trivial', order=1, index=12, members=(0,), gelfand=False, "
        "strong_gelfand=False, witness=Witness(psi='μ_0', chi='ψ_1', mult=2))")
    assert repr(got[AuditEntry]) == f"AuditEntry(record={got[SubgroupRecord]!r}, predicted=False)"
    assert repr(got[ClassificationRule]) == "ClassificationRule(family='dihedral', n=6)"
    assert repr(got[TableValidation]) == "TableValidation(passed=True, failures=())"
    assert repr(got[ClassificationReport]).startswith(
        "ClassificationReport(group=<FiniteGroup D12 order=12>, records=(SubgroupRecord(")
    assert repr(CharacterTable(g, (), "constructive")) == (
        "CharacterTable(group=<FiniteGroup D12 order=12>, irreducibles=(), "
        "provenance='constructive')")


def test_equal_records_hash_equal():
    g = dihedral_group(6)
    first, again = records(g), records(g)
    for cls in FIELDS:
        assert first[cls] == again[cls], cls.__name__
        assert hash(first[cls]) == hash(again[cls]), cls.__name__
    assert first[AuditReport] != records(dihedral_group(5))[AuditReport]


def test_subgroups_compare_by_parent_and_members():
    g = dihedral_group(6)
    members = (0, 3, 6, 9)
    h = Subgroup(g, members)
    assert h == Subgroup(g, members[::-1])
    assert hash(h) == hash(Subgroup(g, members[::-1]))
    assert h != Subgroup(g, (0, 2, 4, 6, 8, 10))
    assert h != Subgroup(dihedral_group(6), members)  # another group with an equal table


def test_class_functions_and_tables_compare_by_their_fields():
    g = dihedral_group(6)
    t = family_table(g)
    row = t.irreducibles[1]
    assert ClassFunction(g, list(row.values), row.name) == row
    assert ClassFunction(g, row.values, "other") != row
    assert ClassFunction(g, t.irreducibles[2].values, row.name) != row
    assert CharacterTable(g, list(t.irreducibles), t.provenance) == t
    assert CharacterTable(g, t.irreducibles, "constructive") != t
    assert CharacterTable(g, t.irreducibles[::-1], t.provenance) != t
    # a hash is that of the fields: a Cyclotomic has none, an int has one
    with pytest.raises(TypeError):
        hash(row)
    ones = ClassFunction(g, [1] * 6, "1")
    assert hash(ones) == hash(ClassFunction(g, (1,) * 6, "1"))
    assert hash(CharacterTable(g, [ones])) == hash(CharacterTable(g, (ones,)))


def test_subgroups_class_functions_and_tables_are_immutable():
    g = dihedral_group(6)
    t = family_table(g)
    h = Subgroup(g, (0, 3))
    row = t.irreducibles[1]
    for obj, names in ((h, ("parent", "members")), (row, ("group", "values", "name")),
                       (t, ("group", "irreducibles", "provenance"))):
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    # the values memoized on each object are kept all the same
    assert h.group.order == 2 and h.group is h.group
    assert row.conj_values is row.conj_values


def test_groups_are_immutable_and_equal_only_to_themselves():
    g = dihedral_group(6)
    t = family_table(g)
    for obj in (g, Subgroup(g, (0, 3)), t.irreducibles[1], t):
        for name in ("order", "members", "values", "extra"):
            with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
                setattr(obj, name, None)
    assert g == g and hash(g) == hash(g)
    assert g != dihedral_group(6)  # an equal table, built again
    h = Subgroup(g, (0, 3))
    assert h != (h.parent, h.members)  # only a subgroup equals a subgroup


def test_memoized_keeps_one_value_per_object_and_arguments():
    calls = []

    @memoized
    def scaled(g, k):
        calls.append((g.name, k))
        return [g.order * k]

    @memoized
    def nothing(g, k):
        calls.append((g.name, "nothing", k))
        return None

    g, h = cyclic_group(3), cyclic_group(4)
    assert scaled(g, 2) is scaled(g, 2)
    assert (scaled(g, 2), scaled(g, 5), scaled(h, 2)) == ([6], [15], [8])
    assert scaled(h, 2) is not scaled(g, 2)
    assert nothing(g, 1) is None and nothing(g, 1) is None  # a None is kept too
    assert calls == [("C3", 2), ("C3", 5), ("C4", 2), ("C3", "nothing", 1)]
    assert scaled(g, 5) == [15] and len(calls) == 4


def test_memoized_values_are_freed_with_their_group():
    g = dihedral_group(6)
    classify_subgroups(g)  # fills memos on g, its subgroups and its tables
    assert validate_table(family_table(g)).passed
    owner = weakref.ref(g)
    del g
    gc.collect()
    assert owner() is None
