"""Character tables, induction/restriction calculus, and the constructive oracle."""

import functools
import gc
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgp.chars
import sgp.gelfand
from sgp.chars import (
    CharacterTable,
    ClassFunction,
    TableValidation,
    _class_fusion,
    _class_power_map,
    _cyclic_rows,
    _galois_map,
    _generators,
    _orbit_totals,
    _twist_map,
    _value_ids,
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
from sgp.cli import main
from sgp.cyclo import rational, weighted_product_sum, zeta
from sgp.errors import (
    DomainMismatchError,
    IntegralityError,
    InternalConsistencyError,
    InvalidLiftError,
    UnsupportedFamilyError,
)
from sgp.groups import (
    FiniteGroup,
    all_subgroups,
    build_group,
    conjugacy_classes,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    generated_subgroup,
    Subgroup,
    trivial_subgroup,
)


def rows_equal_up_to_permutation(t1, t2):
    pool = list(t2.irreducibles)
    for r in t1.irreducibles:
        hit = None
        for i, c in enumerate(pool):
            if all(a == b for a, b in zip(r.values, c.values)):
                hit = i
                break
        if hit is None:
            return False
        pool.pop(hit)
    return not pool


def class_value(f, word):
    return f.value_on_element(f.group.element(word))


# -- inner products ----------------------------------------------------------


def test_irreducible_has_unit_norm():
    t = family_table(dihedral_group(5))
    for r in t.irreducibles:
        assert inner_product(r, r) == 1


def inner_product_by_terms(f, g):
    """The term-by-term sum that `inner_product` computed before its kernel."""
    cls = conjugacy_classes(f.group)
    total = rational(0)
    for size, fv, gv in zip(cls.sizes, f.values, g.values):
        total = total + fv * gv.conj() * size
    return total * Fraction(1, f.group.order)


_KERNEL_GROUPS = (cyclic_group(1), cyclic_group(4), dihedral_group(3), dihedral_group(4),
                  dicyclic_group(2), dicyclic_group(3))

# a value is a short sum of c * zeta(d, k) with mixed orders d and small rationals c
_cyclotomic_values = st.lists(
    st.tuples(st.sampled_from((1, 2, 3, 4, 6, 8, 12)), st.integers(0, 11),
              st.fractions(min_value=-3, max_value=3, max_denominator=3)),
    max_size=3,
).map(lambda terms: sum((zeta(d, k) * c for d, k, c in terms), rational(0)))


@st.composite
def _class_function_pairs(draw):
    g = draw(st.sampled_from(_KERNEL_GROUPS))
    k = len(conjugacy_classes(g).reps)
    f, h = (ClassFunction(g, tuple(draw(st.lists(_cyclotomic_values, min_size=k, max_size=k))))
            for _ in range(2))
    return f, h


@settings(max_examples=80, deadline=None, database=None)
@given(_class_function_pairs())
def test_inner_product_kernel_equals_term_by_term_sum(pair):
    f, h = pair
    assert h.conj_values == tuple(v.conj() for v in h.values)
    assert h.conj_values is h.conj_values
    for a, b in ((f, h), (h, f), (f, f)):
        fast, slow = inner_product(a, b), inner_product_by_terms(a, b)
        assert fast == slow and fast.order == slow.order


def test_inner_product_requires_same_group():
    f = trivial_character(dihedral_group(5))
    g = trivial_character(dihedral_group(7))
    with pytest.raises(DomainMismatchError):
        inner_product(f, g)


def test_induced_reflection_character_inner_products():
    # <mu_0 induced, chi_1> = 1 and <mu_0 induced, psi_j> = 1
    g = dihedral_group(5)
    h = generated_subgroup(g, ["b"])
    t = family_table(g)
    mu0, mu1 = subgroup_table(h).irreducibles
    up0 = induce(mu0, h)
    up1 = induce(mu1, h)
    assert inner_product(up0, t.row("χ_1")) == 1
    assert inner_product(up0, t.row("χ_2")) == 0
    assert inner_product(up1, t.row("χ_1")) == 0
    assert inner_product(up1, t.row("χ_2")) == 1
    for j in (1, 2):
        assert inner_product(up0, t.row(f"ψ_{j}")) == 1
        assert inner_product(up1, t.row(f"ψ_{j}")) == 1


def test_restricting_psi_to_proper_rotation_subgroup_doubles():
    # for odd n and a proper divisor m > 1, psi_m restricted to C_m is 2*mu_0
    g = dihedral_group(9)
    h = generated_subgroup(g, ["a^3"])  # C_3
    psi3 = family_table(g).row("ψ_3")
    down = restrict(psi3, h)
    mu0 = subgroup_table(h).irreducibles[0]
    assert inner_product(down, mu0) == 2
    assert all(v == 2 for v in down.values)


# -- restriction ---------------------------------------------------------------


def test_restrict_theta3_to_b_subgroup():
    for n in (3, 5):
        g = dicyclic_group(n)
        h = generated_subgroup(g, ["b"])
        down = restrict(family_table(g).row("θ_3"), h)
        # keyed by the parent element each class of h.group stands for:
        # 1, b^2 (= a^n), b, b^3 (= ba^n)
        emb = h.embedding()
        reps = conjugacy_classes(h.group).reps
        values = {g.labels[emb[rep]]: v for rep, v in zip(reps, down.values)}
        assert values == {"1": rational(1), f"a^{n}": rational(-1),
                          "b": zeta(4, 1), f"ba^{n}": zeta(4, 3)}


def test_restrict_trivial_character_is_trivial():
    g = dihedral_group(6)
    for h in all_subgroups(g):
        down = restrict(family_table(g).row("χ_1"), h)
        assert all(v == 1 for v in down.values)


def test_restrict_psi1_of_d12_to_rotation_c3():
    g = dihedral_group(6)
    h = generated_subgroup(g, ["a^2"])
    down = restrict(family_table(g).row("ψ_1"), h)
    # direct evaluation oracle: psi_1 at 1, a^2, a^4
    psi1 = family_table(g).row("ψ_1")
    expected = tuple(psi1.value_on_element(g.element(w)) for w in ("1", "a^2", "a^4"))
    assert down.values == expected
    assert down.values == (rational(2), rational(-1), rational(-1))


def test_restrict_requires_subgroup_of_same_group():
    g = dihedral_group(5)
    other = dihedral_group(7)
    h = generated_subgroup(other, ["b"])
    with pytest.raises(DomainMismatchError):
        restrict(trivial_character(g), h)


# -- induction ------------------------------------------------------------------


def test_induced_values_from_reflection_odd():
    # induced trivial character of <b>: n at 1, 0 on rotations, 1 on reflections
    for n in (5, 7):
        g = dihedral_group(n)
        h = generated_subgroup(g, ["b"])
        mu0, mu1 = subgroup_table(h).irreducibles
        up0, up1 = induce(mu0, h), induce(mu1, h)
        assert class_value(up0, "1") == n and class_value(up1, "1") == n
        assert class_value(up0, "a") == 0 and class_value(up0, "b") == 1
        assert class_value(up1, "b") == -1


def test_induced_values_from_reflection_even():
    for n in (6, 8):
        g = dihedral_group(n)
        h = generated_subgroup(g, ["b"])
        mu0, mu1 = subgroup_table(h).irreducibles
        up0, up1 = induce(mu0, h), induce(mu1, h)
        assert class_value(up0, "1") == n
        assert class_value(up0, f"a^{n // 2}") == 0
        assert class_value(up0, "a") == 0
        assert class_value(up0, "b") == 2 and class_value(up0, "ba") == 0
        assert class_value(up1, "b") == -2 and class_value(up1, "ba") == 0


def test_inducing_rotation_characters_gives_psi_rows():
    g = dihedral_group(5)
    h = generated_subgroup(g, ["a"])
    t = family_table(g)
    rows = subgroup_table(h).irreducibles
    for k in (1, 2):
        up = induce(rows[k], h)
        assert up.values == t.row(f"ψ_{k}").values


def test_induced_degree_is_index_times_degree():
    for g in (dihedral_group(6), dicyclic_group(3)):
        for h in all_subgroups(g):
            for psi in subgroup_table(h).irreducibles:
                up = induce(psi, h)
                assert up.degree == psi.degree * h.index


def test_frobenius_reciprocity_exact():
    for g in (dihedral_group(5), dihedral_group(6), dicyclic_group(3)):
        tg = family_table(g)
        for h in all_subgroups(g):
            th = subgroup_table(h)
            for psi in th.irreducibles:
                up = induce(psi, h)
                for chi in tg.irreducibles:
                    assert inner_product(up, chi) == inner_product(psi, restrict(chi, h))


def induce_over_whole_group(f, h):
    """The seed's induction: conjugate each class representative by all of G."""
    g = h.parent
    cls_g, cls_h = conjugacy_classes(g), conjugacy_classes(h.group)
    loc = {x: i for i, x in enumerate(h.embedding())}
    values = []
    for rep in cls_g.reps:
        counts = [0] * len(cls_h.reps)
        for x in range(g.order):
            li = loc.get(g.mul[g.mul[x][rep]][g.inv[x]])
            if li is not None:
                counts[cls_h.class_of[li]] += 1
        acc = rational(0)
        for c, v in zip(counts, f.values):
            if c:
                acc = acc + v * c
        values.append(acc * Fraction(1, h.order))
    return tuple(values)


@pytest.mark.parametrize("family, top", [("cyclic", 30), ("dihedral", 16), ("dicyclic", 8)])
def test_induce_from_the_class_fusion_equals_the_whole_group_sum(family, top):
    for n in range(1, top + 1):
        g = build_group(family, n)
        for h in all_subgroups(g):
            for psi in subgroup_table(h).irreducibles:
                fast, slow = induce(psi, h).values, induce_over_whole_group(psi, h)
                assert fast == slow
                assert [v.order for v in fast] == [v.order for v in slow]


@pytest.mark.parametrize("family, top", [("cyclic", 30), ("dihedral", 16), ("dicyclic", 8)])
def test_class_fusion_holds_on_every_element_and_restriction_reads_it(family, top):
    for n in range(1, top + 1):
        g = build_group(family, n)
        class_of = conjugacy_classes(g).class_of
        chis = family_table(g).irreducibles
        for h in all_subgroups(g):
            fusion, emb = _class_fusion(h), h.embedding()
            downs = [restrict(chi, h) for chi in chis]
            for d, members in enumerate(conjugacy_classes(h.group).classes):
                for y in members:
                    assert class_of[emb[y]] == fusion[d], (g.name, h.members, y)
                    for chi, down in zip(chis, downs):
                        assert down.value_on_element(y) == chi.value_on_element(emb[y])


@settings(max_examples=20, deadline=None, database=None)
@given(st.sampled_from(["cyclic", "dihedral", "dicyclic"]), st.integers(1, 24),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_frobenius_reciprocity_and_integrality_on_random_draws(family, n, pick, row):
    g = build_group(family, n)
    subs = all_subgroups(g)
    h = subs[pick % len(subs)]
    rows = subgroup_table(h).irreducibles
    psi = rows[row % len(rows)]
    up = induce(psi, h)
    for chi in family_table(g).irreducibles:
        via_induction = inner_product(up, chi)
        via_restriction = inner_product(psi, restrict(chi, h))
        assert via_induction == via_restriction
        q = via_induction.as_rational_integer()
        assert q is not None and q >= 0


def test_induction_is_transitive_along_chains():
    for g in (dihedral_group(6), dicyclic_group(3)):
        subs = all_subgroups(g)
        for h in subs:
            emb_h = h.embedding()
            loc_h = {x: i for i, x in enumerate(emb_h)}
            for k in subs:
                if k.order >= h.order or not set(k.members) <= set(h.members):
                    continue
                k_in_h = Subgroup(h.group, tuple(loc_h[x] for x in k.members))
                # carry psi across: element x of k_in_h.group is the parent
                # element emb_h[emb[x]], which k.group numbers loc_k[...]
                loc_k = {x: i for i, x in enumerate(k.embedding())}
                emb = k_in_h.embedding()
                reps = conjugacy_classes(k_in_h.group).reps
                for psi in subgroup_table(k).irreducibles:
                    values = tuple(psi.value_on_element(loc_k[emb_h[emb[rep]]]) for rep in reps)
                    psi_h = ClassFunction(k_in_h.group, values, psi.name)
                    via_h = induce(induce(psi_h, k_in_h), h)
                    direct = induce(psi, k)
                    assert via_h.values == direct.values


# -- family tables ------------------------------------------------------------------


def test_cyclic_table_powers_of_i():
    g = cyclic_group(4)
    t = family_table(g)
    for k in range(4):
        for r in range(4):
            assert t.irreducibles[k].value_on_element(r) == zeta(4, k * r)


def test_cyclic_rows_refuse_a_generator_of_a_proper_subgroup():
    g = cyclic_group(6)
    for gen in (0, 2, 3, 4):
        with pytest.raises(InternalConsistencyError, match="does not generate"):
            _cyclic_rows(g, gen)
    assert len(_cyclic_rows(g, 5)) == 6


def test_d10_table_shape():
    t = family_table(dihedral_group(5))
    assert t.names == ("χ_1", "χ_2", "ψ_1", "ψ_2")
    assert [r.degree.as_rational_integer() for r in t.irreducibles] == [1, 1, 2, 2]


def test_d12_table_follows_even_pattern():
    g = dihedral_group(6)
    t = family_table(g)
    assert t.names == ("χ_1", "χ_2", "χ_3", "χ_4", "ψ_1", "ψ_2")
    chi3 = t.row("χ_3")
    assert class_value(chi3, "a") == -1
    assert class_value(chi3, "b") == 1
    assert class_value(chi3, "ba") == -1
    psi1 = t.row("ψ_1")
    assert class_value(psi1, "a^3") == -2
    assert class_value(psi1, "a") == zeta(6, 1) + zeta(6, 5)


def test_dic12_table_rows():
    g = dicyclic_group(3)
    t = family_table(g)
    assert t.names == ("θ_1", "θ_2", "θ_3", "θ_4", "π_1", "γ_1")
    assert class_value(t.row("θ_3"), "b") == zeta(4, 1)
    assert class_value(t.row("θ_4"), "b") == zeta(4, 3)
    assert class_value(t.row("π_1"), "b^2") == 2
    assert class_value(t.row("γ_1"), "b^2") == -2


def test_dic4_table_is_cyclic_of_order_four():
    g = dicyclic_group(1)
    t = family_table(g)
    assert len(t.irreducibles) == 4
    assert {str(class_value(r, "b")) for r in t.irreducibles} == {"1", "-1", "z4", "-z4"}


def test_d2_and_d4_tables():
    t2 = family_table(dihedral_group(1))
    assert t2.names == ("χ_1", "χ_2")
    assert t2.irreducibles[1].values == (rational(1), rational(-1))
    d4 = dihedral_group(2)
    t4 = family_table(d4)
    assert [d4.labels[rep] for rep in conjugacy_classes(d4).reps] == ["1", "a", "b", "ba"]
    # the Klein-four table: every row a sign character
    ints = [[v.as_rational_integer() for v in r.values] for r in t4.irreducibles]
    assert ints == [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ]
    assert validate_table(t4).passed


def per_cell_rows(g):
    """The closed-form rows as (name, values), each cell's value made on its own.

    The reference for the builders in `chars`, which make each distinct
    value of a table once and share it across its cells.
    """
    reps = conjugacy_classes(g).reps
    one = rational(1)

    def row(fn, name):
        return name, tuple(fn(e) for e in reps)

    def sign(k):
        return rational(1 if k % 2 == 0 else -1)

    def pair(m, s, rot, name):
        return row(lambda e: zeta(m, s * e) + zeta(m, -s * e) if e < rot else rational(0), name)

    def cyclic(gen):
        d = g.order
        dlog = {x: r for r, x in enumerate(g.powers(gen))}
        return [(f"μ_{k}", tuple(zeta(d, k * dlog[rep]) for rep in reps)) for k in range(d)]

    def dihedral(n):
        rows = [row(lambda e: one, "χ_1"), row(lambda e: one if e < n else -one, "χ_2")]
        if n % 2 == 0:
            rows.append(row(lambda e: sign(e) if e < n else sign(e - n), "χ_3"))
            rows.append(row(lambda e: sign(e) if e < n else -sign(e - n), "χ_4"))
        rows.extend(pair(n, j, n, f"ψ_{j}") for j in range(1, (n - 1) // 2 + 1))
        return rows

    if g.family == "cyclic":
        return cyclic(g.gens["a"])
    if g.family == "dihedral":
        return dihedral(g.n)
    n, m = g.n, 2 * g.n
    if n == 1:
        return cyclic(g.gens["b"])
    if n % 2 == 0:
        return dihedral(m)
    z4 = zeta(4, 1)
    half = range(1, (n - 1) // 2 + 1)
    return [
        row(lambda e: one, "θ_1"),
        row(lambda e: one if e < m else -one, "θ_2"),
        row(lambda e: sign(e) if e < m else z4 * sign(e - m), "θ_3"),
        row(lambda e: sign(e) if e < m else -z4 * sign(e - m), "θ_4"),
        *(pair(n, j, m, f"π_{j}") for j in half),
        *(pair(m, 2 * k - 1, m, f"γ_{k}") for k in half),
    ]


def _cells(values):
    return [(v.order, v._terms, v._den, str(v)) for v in values]


@pytest.mark.parametrize("family, large", [("cyclic", 256), ("dihedral", 128), ("dicyclic", 64)])
def test_family_tables_equal_the_per_cell_reference(family, large):
    for n in [*range(1, 41), large]:
        g = build_group(family, n)
        table = family_table(g)
        reference = per_cell_rows(g)
        assert table.names == tuple(name for name, _ in reference)
        for row, (_, values) in zip(table.irreducibles, reference):
            assert _cells(row.values) == _cells(values)


# -- validation --------------------------------------------------------------------------


def test_validate_family_tables():
    assert validate_table(family_table(dihedral_group(7))).passed
    assert validate_table(family_table(dicyclic_group(5))).passed


def test_validate_catches_duplicated_row():
    g = dihedral_group(5)
    t = family_table(g)
    broken = CharacterTable(g, (t.irreducibles[0], t.irreducibles[0],
                                t.irreducibles[2], t.irreducibles[3]), "closed-form")
    report = validate_table(broken)
    assert not report.passed
    assert any("row orthogonality" in f for f in report.failures)


def test_validate_catches_wrong_row_count():
    g = dihedral_group(5)
    t = family_table(g)
    broken = CharacterTable(g, t.irreducibles[:3], "closed-form")
    report = validate_table(broken)
    assert not report.passed
    assert any("row count" in f for f in report.failures)


def validate_pairwise(t):
    """The validation that computed every row pair and column pair."""
    failures = []
    g = t.group
    cls = conjugacy_classes(g)
    k = len(cls.reps)
    rows = t.irreducibles
    if len(rows) != k:
        failures.append(f"row count {len(rows)} != class count {k}")
    deg_sum = 0
    for r in rows:
        d = r.degree.as_rational_integer()
        if d is None or d < 1:
            failures.append(f"row {r.name}: degree {r.degree} is not a positive integer")
        else:
            deg_sum += d * d
    if deg_sum != g.order:
        failures.append(f"sum of squared degrees {deg_sum} != group order {g.order}")
    sizes = cls.sizes
    order = g.order
    for i, ri in enumerate(rows):
        vi = ri.values
        for j in range(i, len(rows)):
            total = weighted_product_sum(vi, rows[j].conj_values, sizes)
            want = order if i == j else 0
            if total != want:
                failures.append(
                    f"row orthogonality <{ri.name},{rows[j].name}> = "
                    f"{total * Fraction(1, order)}, expected {1 if i == j else 0}"
                )
    columns = [tuple(r.values[c] for r in rows) for c in range(k)]
    conj_columns = [tuple(r.conj_values[c] for r in rows) for c in range(k)]
    for c in range(k):
        for cp in range(c, k):
            total = weighted_product_sum(columns[c], conj_columns[cp])
            want = Fraction(order, sizes[c]) if c == cp else Fraction(0)
            if total != want:
                failures.append(
                    f"column orthogonality at classes {c},{cp} = {total}, expected {want}"
                )
    return TableValidation(not failures, tuple(failures))


@pytest.mark.parametrize("family, top", [("cyclic", 40), ("dihedral", 24), ("dicyclic", 24)])
def test_orbit_validation_equals_the_pairwise_reference(family, top):
    for n in range(1, top + 1):
        t = family_table(build_group(family, n))
        assert validate_table(t) == validate_pairwise(t) == TableValidation(True, ())


def _replace_row(t, i, values, name=None):
    rows = list(t.irreducibles)
    rows[i] = ClassFunction(t.group, tuple(values), name or rows[i].name)
    return CharacterTable(t.group, tuple(rows), "closed-form")


def _d10_table():
    return family_table(dihedral_group(5))


def _duplicated_row():
    t = _d10_table()
    return CharacterTable(t.group, (t.irreducibles[0], t.irreducibles[0],
                                    t.irreducibles[2], t.irreducibles[3]), "closed-form")


def _two_values_swapped():
    t = family_table(dicyclic_group(5))  # Dic20: its gamma rows stay distinct when swapped
    v = list(t.irreducibles[-1].values)
    v[1], v[2] = v[2], v[1]
    return _replace_row(t, len(t.irreducibles) - 1, v)


def _row_doubled():
    t = _d10_table()
    return _replace_row(t, 2, [v * 2 for v in t.irreducibles[2].values])


def _zeta7_value():
    t = _d10_table()
    v = list(t.irreducibles[2].values)
    v[1] = zeta(7, 1)
    return _replace_row(t, 2, v)


def _one_row_short():
    t = _d10_table()
    return CharacterTable(t.group, t.irreducibles[:-1], "closed-form")


def _galois_stable_nonreal_sums():
    # Three rows of C7 that sigma_2 cycles, v(k) = v(-k), with sums 1 + 2 z7:
    # every unit's maps pass their checks, so only transport fills the pairs.
    g = cyclic_group(7)
    cls = conjugacy_classes(g)
    dlog = {g.power(g.gens["a"], r): r for r in range(7)}
    v = [rational(1), zeta(7, 1), rational(1), rational(0), rational(0), rational(1), zeta(7, 1)]
    rows = [ClassFunction(g, tuple(v[(dlog[rep] * s) % 7] for rep in cls.reps), f"r_{s}")
            for s in (1, 2, 4)]
    return CharacterTable(g, tuple(rows), "closed-form")


def _linear_row_off_the_roots():
    # chi_2 of D10 taking the value 2 on the reflections: a degree-1 row with
    # a value that is no root of unity, so twisting by it would scale sums
    t = _d10_table()
    return _replace_row(t, 1, [*t.irreducibles[1].values[:-1], rational(2)])


_BROKEN_TABLES = [_duplicated_row, _two_values_swapped, _row_doubled, _zeta7_value,
                  _one_row_short, _galois_stable_nonreal_sums, _linear_row_off_the_roots]


@pytest.mark.parametrize("make", _BROKEN_TABLES, ids=lambda f: f.__name__.strip("_"))
def test_orbit_validation_of_a_broken_table_equals_the_pairwise_reference(make):
    t = make()
    report = validate_table(t)
    assert not report.passed
    assert report == validate_pairwise(t)


def test_the_galois_stable_broken_table_reaches_swapped_pairs():
    t = _galois_stable_nonreal_sums()
    assert None not in map(functools.partial(_galois_map, t), _units(t.group))
    assert any("z7" in f for f in validate_table(t).failures)


def test_a_linear_row_off_the_roots_of_unity_is_not_used_as_a_twist():
    t = _linear_row_off_the_roots()
    assert [j for j, psi in enumerate(t.irreducibles) if psi.degree == 1] == [0, 1]
    assert (_twist_map(t, 0), _twist_map(t, 1)) == ((0, 1, 2, 3), None)
    # the trivial row passes, but moves nothing, so it is no generator
    assert _generators(t)[1:] == ((), False)
    assert validate_table(t) == validate_pairwise(t)


def test_a_class_map_that_does_not_keep_class_sizes_is_not_used(monkeypatch):
    # Swapping the classes of a^2 (size 2) and b (size 5) of D10 permutes
    # these rows, but moves the sums; the map must fail its check.
    g = dihedral_group(5)
    rows = [(1, 1, 1, 1), (2, 0, 1, -1), (2, 0, -1, 1), (1, 1, -1, -1)]
    t = CharacterTable(g, tuple(ClassFunction(g, tuple(map(rational, r)), f"r_{i}")
                                for i, r in enumerate(rows)), "closed-form")
    monkeypatch.setattr(sgp.chars, "_class_power_map", lambda group, s: (0, 1, 3, 2))
    assert set(map(functools.partial(_galois_map, t), _units(g))) == {None}
    assert validate_table(t) == validate_pairwise(t)


@pytest.mark.parametrize("g", [cyclic_group(36), dihedral_group(15), dicyclic_group(12)],
                         ids=lambda g: g.name)
def test_class_power_map_equals_repeated_multiplication(g):
    cls = conjugacy_classes(g)
    powers = [g.identity] * len(cls.reps)  # rep^t for each representative rep
    for t in range(2 * g.exponent() + 1):
        assert _class_power_map(g, t) == tuple(cls.class_of[x] for x in powers)
        powers = [g.mul[x][rep] for x, rep in zip(powers, cls.reps)]


def _units(group):
    """The units mod the exponent of `group`, the labels of its Galois maps."""
    e = group.exponent()
    return [t for t in range(e) if math.gcd(t, e) == 1]


def direct_galois_maps(table):
    """`_galois_map` of every unit, each unit's maps computed and checked on their own."""
    group = table.group
    sizes = conjugacy_classes(group).sizes
    e = group.exponent()
    ids = {}
    try:
        rows = tuple(tuple(ids.setdefault(v.key(e), len(ids)) for v in psi.values)
                     for psi in table.irreducibles)
    except InvalidLiftError:
        rows = ()
    index = {row: i for i, row in enumerate(rows)}
    distinct = len(index) == len(table.irreducibles)
    maps = {}
    for t in range(e):
        if math.gcd(t, e) == 1:
            cmap = _class_power_map(group, t)
            perm = None
            if distinct and sorted(cmap) == list(range(len(sizes))) and all(
                    sizes[d] == size for d, size in zip(cmap, sizes)):
                perm = tuple(index.get(tuple(map(row.__getitem__, cmap))) for row in rows)
                if None in perm or len(set(perm)) != len(rows):
                    perm = None
            maps[t] = None if perm is None else (cmap, perm)
    return maps


def direct_twist_maps(table):
    """`_twist_map` of every linear row, each twist computed and checked on its own.

    Every row is multiplied by every linear row cell by cell, as exact
    `Cyclotomic` products (each pair of value objects once), and the product
    is looked up among the rows by the exact keys of its values.
    """
    rows = table.irreducibles
    e = table.group.exponent()
    ids = {}
    try:
        keyed = [tuple(ids.setdefault(v.key(e), len(ids)) for v in r.values) for r in rows]
    except InvalidLiftError:
        keyed = []
    index = {r: i for i, r in enumerate(keyed)}
    usable = len(index) == len(rows)
    roots = {zeta(e, k).key(e) for k in range(e)}
    objects = {id(v): v for r in rows for v in r.values}

    class Products(dict):
        """The id of the key of x * y, or None, by (id(x), id(y))."""

        def __missing__(self, pair):
            x, y = map(objects.__getitem__, pair)
            value = self[pair] = ids.get((x * y).key(e))
            return value

    products = Products()
    maps = {}
    for j, lam in enumerate(rows):
        if lam.degree != 1:
            continue
        perm = None
        if usable and all(v.key(e) in roots for v in lam.values):
            lam_ids = [id(y) for y in lam.values]
            perm = tuple(
                index.get(tuple(map(products.__getitem__, zip(map(id, r.values), lam_ids))))
                for r in rows)
            if None in perm or len(set(perm)) != len(rows):
                perm = None
        maps[j] = perm
    return maps


def _generated(perms, n):
    """Every composition of the given permutations of range(n), the identity included."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    for p in frontier:
        for q in perms:
            pq = tuple(map(q.__getitem__, p))
            if pq not in group:
                group.add(pq)
                frontier.append(pq)
    return group


def _family_tables(top, large):
    for family in ("cyclic", "dihedral", "dicyclic"):
        for n in [*range(1, top + 1), large[family]]:
            yield family_table(build_group(family, n))


@pytest.mark.parametrize(
    "tables",
    [lambda: _family_tables(40, {"cyclic": 256, "dihedral": 128, "dicyclic": 64}),
     lambda: (make() for make in _BROKEN_TABLES)],
    ids=["family", "broken"])
def test_composed_galois_maps_equal_the_direct_maps(tables):
    for t in tables():
        direct = direct_galois_maps(t)
        assert {u: _galois_map(t, u) for u in direct} == direct
        # the units composed from the generators are exactly those that pass
        e = t.group.exponent()
        units = _generators(t)[0]
        reached = {1 % e}
        for u in units:
            reached = {s * pow(u, k, e) % e for s in reached for k in range(e)}
        passed = {u for u, maps in direct.items() if maps is not None}
        assert passed == (reached if passed else set())
        assert not any(u * u % e == u for u in units)  # the identity is no generator


@pytest.mark.parametrize(
    "tables",
    [lambda: _family_tables(40, {"cyclic": 256, "dihedral": 128, "dicyclic": 64}),
     lambda: (make() for make in _BROKEN_TABLES)],
    ids=["family", "broken"])
def test_composed_twist_maps_equal_the_direct_maps(tables):
    for t in tables():
        direct = direct_twist_maps(t)
        assert {j: _twist_map(t, j) for j in direct} == direct
        # the twists composed from the generators are exactly those that pass
        _, linear, every = _generators(t)
        passed = {perm for perm in direct.values() if perm is not None}
        generated = _generated([direct[j] for j in linear], len(t.irreducibles))
        assert passed == (generated if passed else set())
        galois = map(functools.partial(_galois_map, t), _units(t.group))
        assert every == (None not in direct.values() and None not in galois)


def test_validation_computes_one_sum_per_orbit(monkeypatch):
    calls = []
    counted = sgp.chars.weighted_product_sum

    def counting(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(sgp.chars, "weighted_product_sum", counting)
    t = family_table(cyclic_group(37))  # 37 * 38 pairs, in orbits of up to 36
    assert validate_table(t).passed
    # Row pairs (i, j), i <= j, of mu_i and mu_j: the twist by mu_1 sends
    # (i, j) to (i + 1, j + 1) and sigma_t sends it to (t i, t j), so the
    # pairs i = j form one orbit, and the pairs i < j another, as t (j - i)
    # runs over every nonzero difference.  Column pairs have the Galois maps
    # only: (0, 0), the (0, j), and one orbit for each ratio j/i mod 37 up
    # to inversion, 2 + 19.  So 2 + 21 sums, against 2 * 21 under the Galois
    # maps alone.
    assert len(calls) == 2 + 21


def _captured_matrix_maps(g, monkeypatch):
    """The (rows, columns, maps) that `gelfand` passes `_orbit_totals` for each matrix of g."""
    captured = []

    def capture(n_rows, n_cols, maps, totals_of, symmetric=False):
        captured.append((n_rows, n_cols, maps))
        return _orbit_totals(n_rows, n_cols, maps, totals_of, symmetric)

    monkeypatch.setattr(sgp.gelfand, "_orbit_totals", capture)
    sgp.gelfand.classify_subgroups(g)
    return captured


def test_orbit_fill_over_generators_equals_the_fill_over_the_whole_group(monkeypatch):
    def fill(n_rows, n_cols, maps, symmetric):
        reps = []

        def totals_of(pairs):
            reps.extend(pairs)
            return [rational(k) for k in range(len(pairs))]

        return _orbit_totals(n_rows, n_cols, maps, totals_of, symmetric), reps

    # C256's row pairs under its Galois maps: the generators checked in full
    # against all 128 units
    t = family_table(cyclic_group(256))
    units = _generators(t)[0]
    n = len(t.irreducibles)
    whole = fill(n, n, [(_galois_map(t, u)[1],) * 2 for u in _units(t.group)], True)
    assert fill(n, n, [(_galois_map(t, u)[1],) * 2 for u in units], True) == whole
    assert units == (3, 5)
    # D72's (psi, chi) pairs under the Galois maps and twists of each matrix,
    # against every composition of those maps
    captured = _captured_matrix_maps(dihedral_group(36), monkeypatch)
    assert len(captured) == 24
    for n_rows, n_cols, generators in captured:
        group = _generated([p + tuple(n_rows + j for j in q) for p, q in generators],
                           n_rows + n_cols)
        every = [(m[:n_rows], tuple(j - n_rows for j in m[n_rows:])) for m in group]
        assert len(every) > len(generators)
        assert fill(n_rows, n_cols, generators, False) == fill(n_rows, n_cols, every, False)


def test_orbit_fill_holds_one_grid_of_pairs():
    # 256 * 256 pairs of C256's rows in 766 orbits; one grid of pointers to
    # the totals is about 0.6 MB
    t = family_table(cyclic_group(256))
    maps = [(_galois_map(t, u)[1],) * 2 for u in _units(t.group)]
    n = len(t.irreducibles)
    reps = []
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        grid = _orbit_totals(n, n, maps, lambda pairs: reps.extend(pairs) or [0] * len(pairs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert len(reps) == 766
    assert [row.count(0) for row in grid] == [n] * n


def test_validation_keeps_only_the_maps_it_checks():
    t = family_table(cyclic_group(256))
    _value_ids(t)  # the ids every check reads, kept as long as the table
    gc.collect()
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        assert validate_table(t).passed
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the identity is checked and 3, 5 generate the units mod 256; the
    # trivial row is checked and mu_1 generates the twists
    checked = [(fn.__name__, label) for fn in (_galois_map, _twist_map)
               for (label,) in t.__dict__["_" + fn.__name__]]
    assert sorted(checked) == [("_galois_map", 1), ("_galois_map", 3),
                               ("_galois_map", 5), ("_twist_map", 0), ("_twist_map", 1)]
    # a map of every unit and every linear row kept about 1.7 MiB
    assert kept < 1 << 20


@pytest.mark.parametrize("family, n", [("dihedral", 128), ("dicyclic", 64), ("cyclic", 128)])
def test_order_256_family_tables_validate(family, n):
    g = build_group(family, n)
    assert validate_table(family_table(g)) == TableValidation(True, ())


# -- decomposition --------------------------------------------------------------------------


def test_decompose_induced_reflection_character():
    g = dihedral_group(5)
    h = generated_subgroup(g, ["b"])
    mu0 = subgroup_table(h).irreducibles[0]
    assert decompose(induce(mu0, h), family_table(g)) == (1, 0, 1, 1)


def test_decompose_irreducible_is_indicator():
    g = dicyclic_group(3)
    t = family_table(g)
    assert decompose(t.row("θ_1"), t) == (1, 0, 0, 0, 0, 0)
    assert decompose(t.row("π_1"), t) == (0, 0, 0, 0, 1, 0)


def test_decompose_regular_character_gives_degrees():
    g = dihedral_group(5)
    t = family_table(g)
    assert decompose(regular_character(g), t) == (1, 1, 2, 2)


def test_decompose_rejects_non_integer_multiplicities():
    g = dihedral_group(5)
    t = family_table(g)
    half = ClassFunction(g, tuple(v * Fraction(1, 2) for v in t.row("ψ_1").values))
    with pytest.raises(IntegralityError):
        decompose(half, t)


def test_decompose_a_subset_of_rows():
    g = dihedral_group(6)
    t = family_table(g)
    h = generated_subgroup(g, ["b"])
    f = induce(subgroup_table(h).irreducibles[0], h)
    full = decompose(f, t)
    assert decompose(f, t, [5, 0, 2]) == (full[5], full[0], full[2])
    assert decompose(f, t, []) == ()
    half = ClassFunction(g, tuple(v * Fraction(1, 2) for v in t.row("ψ_1").values))
    assert decompose(half, t, [0]) == (0,)
    with pytest.raises(IntegralityError):
        decompose(half, t, [4])


# -- brute-force linear characters and the constructive oracle --------------------------------


def test_linear_character_counts():
    assert len(linear_characters_bruteforce(dihedral_group(5))) == 2
    assert len(linear_characters_bruteforce(dihedral_group(6))) == 4
    assert len(linear_characters_bruteforce(dicyclic_group(3))) == 4
    assert len(linear_characters_bruteforce(cyclic_group(7))) == 7


def test_dicyclic_linear_characters_take_value_i_at_b():
    g = dicyclic_group(3)
    b_class = conjugacy_classes(g).class_of[g.element("b")]
    values = {str(f.values[b_class]) for f in linear_characters_bruteforce(g)}
    assert values == {"1", "-1", "z4", "-z4"}


def test_constructive_table_matches_family_d10():
    g = dihedral_group(5)
    assert rows_equal_up_to_permutation(constructive_family_table(g), family_table(g))


def test_constructive_table_dic8_has_single_two_dimensional_row():
    t = constructive_family_table(dicyclic_group(2))
    degrees = sorted(r.degree.as_rational_integer() for r in t.irreducibles)
    assert degrees == [1, 1, 1, 1, 2]
    assert t.provenance == "constructive"


def test_constructive_table_equals_family_for_cyclic():
    g = cyclic_group(6)
    ct = constructive_family_table(g)
    ft = family_table(g)
    for a, b in zip(ct.irreducibles, ft.irreducibles):
        assert a.values == b.values


def test_constructive_rejects_unknown_family():
    g = FiniteGroup([[0, 1], [1, 0]], ["1", "x"], "mystery")
    with pytest.raises(UnsupportedFamilyError):
        constructive_family_table(g)


# -- subgroup tables ------------------------------------------------------------------------------


def test_subgroup_table_of_dihedral_subgroup_in_dicyclic_sized_parent():
    g = dihedral_group(6)
    h = generated_subgroup(g, ["a^2", "b"])  # D6 inside D12
    t = subgroup_table(h)
    assert len(t.irreducibles) == len(conjugacy_classes(h.group).reps)
    assert validate_table(t).passed


def test_subgroup_table_of_dicyclic_subgroup():
    g = dicyclic_group(6)
    h = generated_subgroup(g, ["a^3", "b"])  # Dic8 inside Dic24
    assert h.order == 8
    t = subgroup_table(h)
    assert validate_table(t).passed
    degrees = sorted(r.degree.as_rational_integer() for r in t.irreducibles)
    assert degrees == [1, 1, 1, 1, 2]


def test_subgroup_table_trivial_subgroup():
    g = dihedral_group(5)
    t = subgroup_table(trivial_subgroup(g))
    assert len(t.irreducibles) == 1
    assert t.irreducibles[0].values == (rational(1),)


def test_all_subgroup_tables_validate():
    for g in (dihedral_group(8), dicyclic_group(4)):
        for h in all_subgroups(g):
            assert validate_table(subgroup_table(h)).passed


# -- rendering ----------------------------------------------------------------------------------


def test_table_json_schema(capsys):
    assert main(["table", "dicyclic", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"group", "classes", "rows"}
    assert doc["group"] == "Dic12"
    assert doc["classes"][0] == "1"
    assert [r["name"] for r in doc["rows"]] == ["θ_1", "θ_2", "θ_3", "θ_4", "π_1", "γ_1"]
    assert all(isinstance(v, str) for r in doc["rows"] for v in r["values"])


def test_table_text_contains_layout(capsys):
    assert main(["table", "dihedral", "5"]) == 0
    text = capsys.readouterr().out.rstrip("\n")
    lines = text.splitlines()
    assert lines[0] == "Character table of D10"
    assert lines[1].split() == ["1", "a", "a^2", "b"]
    assert len(lines) == 2 + 4
