"""Group construction, conjugacy classes, subgroup enumeration, descriptors."""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgp.groups
from sgp.chars import family_table, subgroup_table
from sgp.errors import (
    InternalConsistencyError,
    InvalidParameterError,
    SizeLimitError,
    UnsupportedFamilyError,
)
from sgp.groups import (
    _verify_table,
    DEFAULT_MAX_ORDER,
    FAMILIES,
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
    family_order,
    generated_subgroup,
    map_family,
    subgroup_structure,
    trivial_subgroup,
)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


_FAMILIES = ("cyclic", "dihedral", "dicyclic")


# -- reference enumerator ----------------------------------------------------------
# The pairwise-join enumeration that cyclic extension replaced, kept as the
# reference it is compared against.


def closure_two_sided(g, seed):
    """The subgroup generated by `seed`: every new element times every member, both sides."""
    members = {g.identity}
    work = []

    def add(x):
        if x not in members:
            members.add(x)
            work.append(x)

    for s in seed:
        add(s)
    while work:
        x = work.pop()
        for y in tuple(members):
            add(g.mul[x][y])
            add(g.mul[y][x])
    return members


def all_subgroups_by_pairwise_joins(g):
    """Every cyclic subgroup, closed under pairwise joins <H u K> to a fixed point."""
    subs = {frozenset(closure_two_sided(g, (x,))) for x in range(g.order)}
    work = list(subs)
    while work:
        h = work.pop()
        for k in tuple(subs):
            if h <= k or k <= h:
                continue
            j = frozenset(closure_two_sided(g, h | k))
            if j not in subs:
                subs.add(j)
                work.append(j)
    ordered = sorted(subs, key=lambda s: (len(s), tuple(sorted(s))))
    return [tuple(sorted(s)) for s in ordered]


# -- closed-form census and member sets -------------------------------------------


def closed_form_subgroups(family, n):
    """Every subgroup's member set from the classification, not from any closure.

    Cn: <a^d> for d | n.  D2n: <a^d> and <a^d, ba^i> for d | n, 0 <= i < d.
    Dic4n: <a^d> for d | 2n, and <a^d, ba^i> for d | n, 0 <= i < d.
    Rotation a^k is element k and ba^k is element rot + k, rot being a's order.
    """
    rot = 2 * n if family == "dicyclic" else n
    subs = [tuple(range(0, rot, d)) for d in range(1, rot + 1) if rot % d == 0]
    if family != "cyclic":
        for d in (d for d in range(1, n + 1) if n % d == 0):
            rotations = tuple(range(0, rot, d))
            for i in range(d):
                subs.append(rotations + tuple(sorted(rot + (i + k) % rot for k in rotations)))
    return sorted(subs, key=lambda s: (len(s), s))


def census(family, n):
    """Subgroup count: tau(n) for Cn, tau(n) + sigma(n) for D2n, tau(2n) + sigma(n) for Dic4n."""
    if family == "cyclic":
        return _tau(n)
    if family == "dihedral":
        return _tau(n) + _sigma(n)
    return _tau(2 * n) + _sigma(n)


def check_closed_form(family, ns, max_order=DEFAULT_MAX_ORDER):
    """all_subgroups over each n agrees with the census and the closed-form member sets.

    The whole default bound is one call per family, e.g.
    check_closed_form("dihedral", range(1, 129)); orders above it need
    max_order, e.g. check_closed_form("dihedral", (256, 512), max_order=1024).
    """
    for n in ns:
        found = [h.members for h in all_subgroups(build_group(family, n), max_order)]
        expected = closed_form_subgroups(family, n)
        assert len(found) == len(expected) == census(family, n), (family, n)
        assert found == expected, (family, n)


# -- reference tables ----------------------------------------------------------------
# The entry-by-entry formulas that the sliced rows replaced, kept as the
# reference the constructors are compared against.


def presentation_table(family, n):
    """The table of the family's presentation, one formula per entry.

    Cn: a^i a^j = a^(i+j).  D2n and Dic4n: element j*m + i is b^j a^i, with
    a of order m and b^2 = a^twist (m = n, twist = 0 for D2n; m = 2n,
    twist = n for Dic4n), and a^i b = b a^-i.
    """
    if family == "cyclic":
        return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    m, twist = (n, 0) if family == "dihedral" else (2 * n, n)

    def mul_pair(j1, i1, j2, i2):
        i = (i2 - i1 + twist * j1) if j2 else i1 + i2
        return ((j1 + j2) % 2) * m + i % m

    return tuple(tuple(mul_pair(e1 // m, e1 % m, e2 // m, e2 % m) for e2 in range(2 * m))
                 for e1 in range(2 * m))


# -- constructors ------------------------------------------------------------


@pytest.mark.parametrize("family", _FAMILIES)
def test_tables_are_the_presentations(family):
    for n in range(1, 65):
        assert build_group(family, n).mul == presentation_table(family, n), n


@pytest.mark.parametrize("g", [cyclic_group(300), dihedral_group(150), dicyclic_group(75)],
                         ids=lambda g: g.name)
def test_a_table_holds_one_int_object_per_element(g):
    # order 300 is above the interpreter's cache of small ints, so entries
    # computed one by one would be distinct objects
    assert len({id(x) for row in g.mul for x in row}) == g.order


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


@pytest.mark.parametrize("g", [cyclic_group(1), cyclic_group(12), dihedral_group(1),
                               dihedral_group(9), dicyclic_group(1), dicyclic_group(6)],
                         ids=lambda g: g.name)
def test_power_walks_equal_repeated_multiplication(g):
    orders = []
    for i in range(g.order):  # the identity included
        order, acc = 1, i
        while acc != g.identity:
            acc = g.mul[acc][i]
            order += 1
        orders.append(order)
        assert g.element_order(i) == order
        walk, acc = [], g.identity
        for _ in range(order):
            walk.append(acc)
            acc = g.mul[acc][i]
        assert g.powers(i) == tuple(walk)
        for k in range(-2 * order, 2 * order + 1):
            acc, step = g.identity, i if k >= 0 else g.inv[i]
            for _ in range(abs(k)):
                acc = g.mul[acc][step]
            assert g.power(i, k) == acc, (i, k)
    assert g.exponent() == math.lcm(*orders)


def test_invalid_parameters_are_rejected():
    # n must be an int of at least 1; a bool is an int but no n
    for n in (True, 2.0, "3", 0):
        for ctor in (cyclic_group, dihedral_group, dicyclic_group):
            with pytest.raises(InvalidParameterError):
                ctor(n)
        for family in _FAMILIES:
            with pytest.raises(InvalidParameterError):
                build_group(family, n)


@pytest.mark.parametrize("family", _FAMILIES)
def test_the_registry_gives_each_group_its_order_n_and_name(family):
    _, factor, prefix = FAMILIES[family]
    for n in range(1, 17):
        g = build_group(family, n)
        assert (g.family, g.n, g.order, g.name) == (family, n, factor * n, f"{prefix}{factor * n}")
        assert family_order(family, n) == g.order


def test_an_unknown_family_is_refused():
    for fn in (build_group, family_order, FiniteGroup):
        with pytest.raises(UnsupportedFamilyError):
            fn("mystery", 3)


def test_family_order_refuses_an_n_that_is_not_an_int():
    # a sweep's order bound is checked on the order, so a bool or a float
    # n must be refused before it is multiplied
    with pytest.raises(InvalidParameterError):
        family_order("cyclic", True)
    with pytest.raises(InvalidParameterError):
        family_order("dihedral", 2.5)
    with pytest.raises(InvalidParameterError):
        list(map_family("cyclic", [True], len, max_order=0))


def test_broken_multiplication_table_is_rejected():
    # not a Latin square
    with pytest.raises(InternalConsistencyError):
        _verify_table([[0, 0], [1, 1]], [1])
    # Latin square and identity laws hold, but not associative
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InternalConsistencyError):
        _verify_table(bad, [1, 2, 3, 4])
    # every row a permutation, but not every column
    with pytest.raises(InternalConsistencyError):
        _verify_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]], [1, 2])


_ORDER_8 = [cyclic_group(8), dihedral_group(4), dicyclic_group(2)]


@pytest.mark.parametrize("g", _ORDER_8, ids=lambda g: g.name)
def test_a_table_whose_rows_alone_are_permutations_is_rejected(g):
    # Swapping two entries of one row keeps every row a permutation and
    # repeats a value in both columns; the group laws that are checked
    # must refuse the table without a check of the columns.
    for r in range(g.order):
        for a in range(g.order):
            for b in range(a + 1, g.order):
                mul = [list(row) for row in g.mul]
                mul[r][a], mul[r][b] = mul[r][b], mul[r][a]
                assert len({row[a] for row in mul}) < g.order
                with pytest.raises(InternalConsistencyError):
                    _verify_table(mul, g.gens.values())


def test_swapped_intercalate_above_order_64_is_rejected():
    # For an involution t, rows x, xt and columns ty, y of a group table
    # form a 2x2 Latin subsquare.  Swapping its two values keeps the
    # Latin-square, identity and inverse laws but breaks associativity.
    g = dihedral_group(36)
    x, t, y = g.element("a"), g.element("b"), g.element("a")
    u, v = g.mul[x][g.mul[t][y]], g.mul[x][y]
    assert g.identity not in (u, v)
    mul = [list(row) for row in g.mul]
    for r in (x, g.mul[x][t]):
        for c in (g.mul[t][y], y):
            mul[r][c] = {u: v, v: u}[mul[r][c]]
    assert g.order > 64 and mul != [list(row) for row in g.mul]
    with pytest.raises(InternalConsistencyError, match="associativity"):
        _verify_table(mul, g.gens.values())


def test_generators_must_generate_the_table():
    g = dihedral_group(5)
    with pytest.raises(InternalConsistencyError, match="generate"):
        _verify_table(g.mul, [g.gens["a"]])


def test_labels_round_trip_through_parser():
    for g in (cyclic_group(7), dihedral_group(6), dicyclic_group(4)):
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


_CLASS_ORACLE_CASES = {
    "cyclic": lambda: [cyclic_group(n) for n in range(1, 41)],
    "dihedral": lambda: [dihedral_group(n) for n in range(1, 33)],
    "dicyclic": lambda: [dicyclic_group(n) for n in range(1, 21)],
}


@pytest.mark.parametrize("case", list(_CLASS_ORACLE_CASES))
def test_classes_equal_the_brute_force_oracle(case):
    for g in _CLASS_ORACLE_CASES[case]():
        classes = _brute_classes(g)
        cls = conjugacy_classes(g)
        assert cls.classes == classes, g.name
        assert cls.reps == tuple(c[0] for c in classes)
        assert cls.sizes == tuple(len(c) for c in classes)
        assert cls.class_of == tuple(next(i for i, c in enumerate(classes) if x in c)
                                     for x in range(g.order))


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
            assert cls.classes[0] == (g.identity,)


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
    for bad in ([-1], [10], [5, -2], [1.5], [1.0], [None]):
        with pytest.raises(InvalidParameterError):
            generated_subgroup(d10, bad)


def test_subgroup_refuses_a_bool_member():
    # bool is a subclass of int, but True is no element index
    g = cyclic_group(4)
    for members in ((0, True, 2, 3), (False, 1, 2, 3)):
        with pytest.raises(InvalidParameterError, match="element index"):
            Subgroup(g, members)


def test_generated_subgroup_refuses_a_bool_generator():
    g = cyclic_group(4)
    for gens in ([True], [2, True], [False]):
        with pytest.raises(InvalidParameterError, match="element index"):
            generated_subgroup(g, gens)


@st.composite
def _generator_sets(draw):
    g = build_group(draw(st.sampled_from(_FAMILIES)), draw(st.integers(1, 24)))
    gens = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=3))
    return g, gens


@settings(max_examples=150, deadline=None, database=None)
@given(_generator_sets())
def test_generated_subgroup_equals_two_sided_closure(case):
    g, gens = case
    assert generated_subgroup(g, gens).members == tuple(sorted(closure_two_sided(g, gens)))


def test_subgroup_validation_rejects_non_closed_sets():
    g = dihedral_group(3)
    with pytest.raises(InvalidParameterError):
        Subgroup(g, (0, 1))  # a has order 3
    with pytest.raises(InvalidParameterError):
        Subgroup(g, (1, 2))  # missing identity


def test_subgroup_validation_rejects_members_that_are_no_element_index():
    g = dihedral_group(5)
    for members in ((0, 10), (0, -1), (0, 1.0), (0, 5.0), (0, "b"), (0, None), (0, (1,))):
        with pytest.raises(InvalidParameterError, match="element index"):
            Subgroup(g, members)


@pytest.mark.parametrize("g", _ORDER_8, ids=lambda g: g.name)
def test_subgroup_accepts_exactly_the_member_sets_of_subgroups(g):
    # closure under the product alone makes a subset with the identity a
    # subgroup: inverses are positive powers, and Lagrange gives the order
    subgroups = {h.members for h in all_subgroups(g)}
    for mask in range(1 << g.order):
        members = tuple(i for i in range(g.order) if mask >> i & 1)
        try:
            Subgroup(g, members)
        except InvalidParameterError:
            assert members not in subgroups, members
        else:
            assert members in subgroups, members


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


@pytest.mark.parametrize("family, hi", [("cyclic", 64), ("dihedral", 48), ("dicyclic", 24)])
def test_all_subgroups_match_census_and_closed_form(family, hi):
    check_closed_form(family, range(1, hi + 1))


@pytest.mark.parametrize("family, hi", [("cyclic", 30), ("dihedral", 16), ("dicyclic", 10)])
def test_all_subgroups_match_pairwise_join_reference(family, hi):
    for n in range(1, hi + 1):
        g = build_group(family, n)
        assert [h.members for h in all_subgroups(g)] == all_subgroups_by_pairwise_joins(g), n


def _first_conjugates(g, subs):
    """For each subgroup in subs, the first one of its conjugacy class, by conjugation orbits."""
    first = {}
    for k in subs:
        if k.members not in first:
            for x in range(g.order):
                first.setdefault(tuple(sorted(g.conjugate(y, x) for y in k.members)), k)
    return [first[k.members] for k in subs]


@pytest.mark.parametrize("family, n", [("dihedral", 36), ("dicyclic", 14)], ids=["D72", "Dic56"])
def test_all_subgroups_searches_no_closure(family, n, monkeypatch):
    # each join is a union of cosets, so enumeration never calls _closure
    g = build_group(family, n)

    def refused(group, gens):
        raise AssertionError("all_subgroups searched a closure")

    monkeypatch.setattr(sgp.groups, "_closure", refused)
    assert [h.members for h in all_subgroups(g)] == closed_form_subgroups(family, n)


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
    # the trivial subgroup is the cyclic subgroup of order 1
    assert subgroup_structure(trivial_subgroup(d10)) == ("cyclic", d10.identity)
    assert trivial_subgroup(d10).embedding() == (d10.identity,)

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
    assert are_conjugate_subgroups(h1, h2)
    assert are_conjugate_subgroups(h1, h1)

    d12 = dihedral_group(6)
    hb = generated_subgroup(d12, ["b"])
    hab = generated_subgroup(d12, ["ab"])
    assert hab.order == 2
    assert not are_conjugate_subgroups(hb, hab)


def test_subgroups_of_different_groups_are_refused():
    # the group is read off the first subgroup; the second must share it
    h1 = generated_subgroup(dihedral_group(5), ["b"])
    h2 = generated_subgroup(dihedral_group(5), ["b"])
    with pytest.raises(InvalidParameterError, match="same group"):
        are_conjugate_subgroups(h1, h2)


def test_conjugate_subgroups_share_descriptors():
    for g in (dihedral_group(6), dicyclic_group(3)):
        subs = all_subgroups(g)
        for h1 in subs:
            for h2 in subs:
                if are_conjugate_subgroups(h1, h2):
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
                expected = {"cyclic": ("cyclic", d, f"C{d}"),
                            "dihedral": ("dihedral", d // 2, f"D{d}"),
                            "dicyclic": ("dicyclic", d // 4, f"Dic{d}")}[kind]
                assert (hg.family, hg.n, hg.name) == expected
            assert sorted(emb) == list(h.members)
            for x in range(hg.order):
                for y in range(hg.order):
                    assert emb[hg.mul[x][y]] == g.mul[emb[x]][emb[y]]
            assert subgroup_table(h) is family_table(hg)


def test_non_cyclic_subgroup_of_unknown_family_is_refused():
    # a group of any other family, and so any subgroup of it, is refused
    # when the group is built, before any table is made
    with pytest.raises(UnsupportedFamilyError):
        FiniteGroup("mystery", 3)
    assert FiniteGroup("dihedral", 2).name == "D4"


def test_conjugates_share_one_family_group():
    for g in (dihedral_group(6), dihedral_group(8), dicyclic_group(3), dicyclic_group(4)):
        subs = all_subgroups(g)
        for k, first in zip(subs, _first_conjugates(g, subs)):
            assert k.group is first.group
            assert Subgroup(g, k.members).group is k.group


# C1..C40, D2..D64, Dic4..Dic64
_SWEEP = {"cyclic": range(1, 41), "dihedral": range(1, 33), "dicyclic": range(1, 17)}


@pytest.mark.parametrize("family", _FAMILIES)
def test_each_parent_holds_one_family_group_per_type(family):
    for n in _SWEEP[family]:
        g = build_group(family, n)
        groups = {id(h.group): (h.group.family, h.group.n) for h in all_subgroups(g)}
        assert len(groups) == len(set(groups.values())), g.name


def test_subgroups_are_freed_without_the_cycle_collector():
    g = dihedral_group(6)
    gc.collect()
    gc.disable()
    try:
        subs = all_subgroups(g)
        for h in subs:
            h.embedding()
        del subs, h
        left = sum(1 for o in gc.get_objects() if isinstance(o, Subgroup) and o.parent is g)
    finally:
        gc.enable()
    assert left == 0


@pytest.mark.parametrize("g", [dihedral_group(36), dicyclic_group(14)], ids=lambda g: g.name)
def test_a_conjugate_embeds_its_first_group_through_the_conjugator(g):
    # generators are picked by parent class, so some x in g carries the first
    # subgroup's embedding of the shared family group onto each conjugate's
    subs = all_subgroups(g)
    conjugates = 0
    for k, first in zip(subs, _first_conjugates(g, subs)):
        assert k.group is first.group
        assert any(k.embedding() == tuple(g.conjugate(y, x) for y in first.embedding())
                   for x in range(g.order))
        conjugates += first is not k
    assert conjugates > 0


def test_full_subgroup_group_is_parent():
    g = dihedral_group(5)
    h = generated_subgroup(g, ["a", "b"])
    assert h.group is g


# -- sweeps over a family ------------------------------------------------------------


def _sweep_to_the_end():
    assert list(map_family("cyclic", range(1, 4), lambda g: g.order)) == [1, 2, 3]


def _sweep_raising_on_the_second_n():
    def fn(g):
        if g.n == 2:
            raise ValueError("second n")
        return g.order

    with pytest.raises(ValueError, match="second n"):
        list(map_family("cyclic", range(1, 4), fn))


def _sweep_closed_after_one_value():
    sweep = map_family("cyclic", range(1, 4), lambda g: g.order)
    assert next(sweep) == 1
    sweep.close()


@pytest.mark.parametrize("sweep", [_sweep_to_the_end, _sweep_raising_on_the_second_n,
                                   _sweep_closed_after_one_value],
                         ids=["finished", "fn-raises", "closed"])
def test_every_exit_from_a_sweep_unfreezes_the_collector(sweep):
    assert gc.get_freeze_count() == 0
    sweep()
    assert gc.get_freeze_count() == 0


def test_a_sweep_freezes_what_was_alive_before_it():
    frozen = list(map_family("cyclic", range(1, 4), lambda g: gc.get_freeze_count()))
    assert len(frozen) == 3 and min(frozen) > 0
