"""Group construction, conjugacy classes, subgroup enumeration, descriptors."""

import pytest

from sgp.chars import family_table, restrict, subgroup_table, trivial_character
from sgp.errors import InvalidParameterError, SizeLimitError, UnsupportedFamilyError
from sgp.groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    are_conjugate_subgroups,
    conjugacy_classes,
    cyclic_group,
    describe_subgroup,
    dicyclic_group,
    dihedral_group,
    generated_subgroup,
    product_group,
    subgroup_structure,
    trivial_subgroup,
)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# -- constructors ------------------------------------------------------------


def test_dihedral_reflections_are_involutions():
    g = dihedral_group(3)
    assert g.order == 6
    ba = g.element("ba")
    assert g.mul[ba][ba] == g.identity
    for i in range(3):
        r = g.element(f"ba^{i}" if i > 1 else ("ba" if i else "b"))
        assert g.element_order(r) == 2


def test_dicyclic_b_has_order_four():
    g = dicyclic_group(3)
    assert g.order == 12
    b = g.element("b")
    assert g.element_order(b) == 4
    # b^2 = a^n
    assert g.mul[b][b] == g.element("a^3")


def test_dicyclic_degenerate_is_cyclic_of_order_four():
    g = dicyclic_group(1)
    assert g.order == 4
    assert g.family == "dicyclic"
    b = g.element("b")
    assert g.element_order(b) == 4


def test_product_of_two_cyclic_groups_is_klein_four():
    v4 = product_group(cyclic_group(2), cyclic_group(2))
    assert v4.order == 4
    assert set(v4.labels) == {"1", "a", "b", "ab"}
    assert v4.is_abelian()
    for e in range(4):
        assert v4.mul[e][e] == v4.identity


def test_invalid_parameters_are_rejected():
    for ctor in (cyclic_group, dihedral_group, dicyclic_group):
        with pytest.raises(InvalidParameterError):
            ctor(0)


def test_broken_multiplication_table_is_rejected():
    # not a Latin square
    with pytest.raises(InvalidParameterError):
        FiniteGroup([[0, 0], [1, 1]], ["1", "x"], "cyclic")
    # Latin square and identity laws hold, but not associative
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidParameterError):
        FiniteGroup(bad, list("1wxyz"), "cyclic")


def test_labels_round_trip_through_parser():
    for g in (cyclic_group(7), dihedral_group(6), dicyclic_group(4),
              product_group(cyclic_group(3), cyclic_group(2))):
        for idx, label in enumerate(g.labels):
            assert g.element(label) == idx
    g = dicyclic_group(3)
    assert g.element("b^2") == g.element("a^3")
    assert g.element("bab") == g.mul[g.mul[g.element("b")][g.element("a")]][g.element("b")]


# -- conjugacy classes ----------------------------------------------------------


def _brute_classes(g):
    # independent orbit computation used as an oracle
    remaining = set(range(g.order))
    classes = []
    while remaining:
        e = min(remaining)
        orbit = {g.mul[g.mul[x][e]][g.inv[x]] for x in range(g.order)}
        classes.append(tuple(sorted(orbit)))
        remaining -= orbit
    return tuple(classes)


def test_d6_classes():
    g = dihedral_group(3)
    cls = conjugacy_classes(g)
    assert cls.classes == ((0,), (1, 2), (3, 4, 5))
    assert [g.labels[r] for r in cls.reps] == ["1", "a", "b"]


def test_d12_classes_match_oracle_and_structure():
    g = dihedral_group(6)
    cls = conjugacy_classes(g)
    assert cls.classes == _brute_classes(g)
    assert len(cls.classes) == 6
    reps = [g.labels[r] for r in cls.reps]
    assert reps == ["1", "a", "a^2", "a^3", "b", "ba"]
    assert cls.sizes == (1, 2, 2, 1, 3, 3)


def test_dic8_has_five_classes():
    g = dicyclic_group(2)
    cls = conjugacy_classes(g)
    assert cls.classes == _brute_classes(g)
    assert len(cls.classes) == 5
    assert sorted(cls.sizes) == [1, 1, 2, 2, 2]


def test_dihedral_odd_class_count_formula():
    for n in (3, 5, 7, 9, 11, 13, 15):
        assert len(conjugacy_classes(dihedral_group(n)).classes) == (n + 3) // 2


def test_class_equation_all_families():
    for ctor in (cyclic_group, dihedral_group, dicyclic_group):
        for n in range(1, 31):
            g = ctor(n)
            cls = conjugacy_classes(g)
            assert sum(cls.sizes) == g.order
            for s in cls.sizes:
                assert g.order % s == 0
            assert cls.sizes[0] == 1 and cls.reps[0] == g.identity


# -- generated subgroups ---------------------------------------------------------


def test_generated_subgroup_examples():
    d10 = dihedral_group(5)
    h = generated_subgroup(d10, ["b"])
    assert h.members == (0, 5)

    dic12 = dicyclic_group(3)
    hb = generated_subgroup(dic12, ["b"])
    assert hb.order == 4
    assert set(hb.members) == {dic12.element(w) for w in ("1", "b", "b^2", "b^3")}

    assert generated_subgroup(d10, [0]).members == (0,)


def test_subgroup_validation_rejects_non_closed_sets():
    g = dihedral_group(3)
    with pytest.raises(InvalidParameterError):
        Subgroup(g, (0, 1))  # a has order 3
    with pytest.raises(InvalidParameterError):
        Subgroup(g, (1, 2))  # missing identity


# -- subgroup enumeration ---------------------------------------------------------


def _subgroups_by_subset_scan(g):
    # independent oracle: test every subset bitmask for closure (small groups)
    found = []
    for mask in range(1, 1 << g.order):
        members = [i for i in range(g.order) if mask >> i & 1]
        ms = set(members)
        if g.identity not in ms:
            continue
        if all(g.mul[x][y] in ms for x in members for y in members):
            found.append(tuple(members))
    return sorted(found, key=lambda s: (len(s), s))


def test_all_subgroups_d12_matches_subset_scan_and_formula():
    g = dihedral_group(6)
    subs = all_subgroups(g)
    assert len(subs) == 16
    assert [h.members for h in subs] == _subgroups_by_subset_scan(g)
    assert len(subs) == _tau(6) + _sigma(6)


def test_all_subgroups_c6():
    subs = all_subgroups(cyclic_group(6))
    assert sorted(h.order for h in subs) == [1, 2, 3, 6]


def test_all_subgroups_dic12_census():
    g = dicyclic_group(3)
    subs = all_subgroups(g)
    assert [h.members for h in subs] == _subgroups_by_subset_scan(g)
    descriptors = sorted(describe_subgroup(h) for h in subs)
    assert descriptors == sorted(
        ["trivial", "C2", "C3", "<ba^i>", "<ba^i>", "<ba^i>", "C6", "Dic12"])


def test_dihedral_subgroup_count_formula_up_to_16():
    for n in range(1, 17):
        subs = all_subgroups(dihedral_group(n))
        assert len(subs) == _tau(n) + _sigma(n), n
        seen = {h.members for h in subs}
        assert len(seen) == len(subs)
        for h in subs:
            assert h.parent.order % h.order == 0


def test_all_subgroups_respects_size_bound():
    g = dihedral_group(10)
    with pytest.raises(SizeLimitError):
        all_subgroups(g, max_order=16)


def test_all_subgroups_deterministic_order():
    g = dicyclic_group(3)
    a = [h.members for h in all_subgroups(g)]
    b = [h.members for h in all_subgroups(g)]
    assert a == b
    assert a == sorted(a, key=lambda m: (len(m), m))


# -- descriptors -------------------------------------------------------------------


def test_describe_subgroup_examples():
    d10 = dihedral_group(5)
    assert describe_subgroup(generated_subgroup(d10, ["b"])) == "<ba^i>"
    assert describe_subgroup(generated_subgroup(d10, ["ba^3"])) == "<ba^i>"
    assert describe_subgroup(generated_subgroup(d10, ["a"])) == "C5"
    assert describe_subgroup(generated_subgroup(d10, ["a", "b"])) == "D10"
    assert describe_subgroup(trivial_subgroup(d10)) == "trivial"

    dic12 = dicyclic_group(3)
    assert describe_subgroup(generated_subgroup(dic12, ["b"])) == "<ba^i>"
    assert describe_subgroup(generated_subgroup(dic12, ["a"])) == "C6"
    assert describe_subgroup(generated_subgroup(dic12, ["b^2"])) == "C2"

    d8 = dihedral_group(4)
    assert describe_subgroup(generated_subgroup(d8, ["a^2"])) == "C2"
    assert describe_subgroup(generated_subgroup(d8, ["a^2", "b"])) == "D4"


def test_subgroup_structure_vocabulary_empirically():
    # every dihedral subgroup is cyclic or dihedral; every dicyclic subgroup
    # is cyclic or dicyclic (the order-4 <ba^i> subgroups are cyclic)
    for n in range(1, 17):
        for h in all_subgroups(dihedral_group(n)):
            d = describe_subgroup(h)
            assert d == "trivial" or d.startswith(("C", "<", "D")), d
            assert not d.startswith("Dic")
    for n in range(1, 9):
        for h in all_subgroups(dicyclic_group(n)):
            d = describe_subgroup(h)
            assert d == "trivial" or d.startswith(("C", "<", "Dic")), d


# -- subgroup conjugacy --------------------------------------------------------------


def test_conjugate_subgroup_examples():
    d10 = dihedral_group(5)
    h1 = generated_subgroup(d10, ["b"])
    h2 = generated_subgroup(d10, ["ba^2"])
    assert are_conjugate_subgroups(d10, h1, h2)
    assert are_conjugate_subgroups(d10, h1, h1)

    d12 = dihedral_group(6)
    hb = generated_subgroup(d12, ["b"])
    hab = generated_subgroup(d12, ["ab"])
    assert hab.order == 2
    assert not are_conjugate_subgroups(d12, hb, hab)


def test_conjugate_subgroups_share_descriptors():
    for g in (dihedral_group(6), dicyclic_group(3)):
        subs = all_subgroups(g)
        for h1 in subs:
            for h2 in subs:
                if are_conjugate_subgroups(g, h1, h2):
                    assert describe_subgroup(h1) == describe_subgroup(h2)


# -- subgroup-as-group -----------------------------------------------------------------


def test_subgroup_group_reindexes_consistently():
    # every subgroup's group is its family group (the parent when full), and
    # its embedding is a bijection onto the members and a homomorphism
    for g in (dihedral_group(6), dihedral_group(8), dicyclic_group(3), dicyclic_group(4)):
        for h in all_subgroups(g):
            hg, emb = h.group, h.embedding()
            if h.is_full():
                assert hg is g
            else:
                kind, _ = subgroup_structure(h)
                d = h.order
                expected = {"trivial": ("cyclic", 1, "C1"), "cyclic": ("cyclic", d, f"C{d}"),
                            "dihedral": ("dihedral", d // 2, f"D{d}"),
                            "dicyclic": ("dicyclic", d // 4, f"Dic{d}")}[kind]
                assert (hg.family, hg.n, hg.name) == expected
            assert sorted(emb) == list(h.members)
            for x in range(hg.order):
                for y in range(hg.order):
                    assert emb[hg.mul[x][y]] == g.mul[emb[x]][emb[y]]
            assert h.local_index() == {p: x for x, p in enumerate(emb)}
            assert subgroup_table(h) is family_table(hg)


def test_unclassified_product_subgroup_has_no_family_group():
    g = product_group(cyclic_group(2), cyclic_group(4))
    h = generated_subgroup(g, ["a", "b^2"])
    assert h.order == 4 and subgroup_structure(h) == ("unclassified", None)
    with pytest.raises(UnsupportedFamilyError):
        h.group
    with pytest.raises(UnsupportedFamilyError):
        restrict(trivial_character(g), h)


def test_full_subgroup_group_is_parent():
    g = dihedral_group(5)
    h = generated_subgroup(g, ["a", "b"])
    assert h.group is g
