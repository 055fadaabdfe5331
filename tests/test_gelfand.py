"""Multiplicity matrices, (strong) Gelfand decisions, prediction, audits."""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgp.chars
import sgp.gelfand
import sgp.groups
from sgp.cli import main
from sgp.errors import (
    IntegralityError,
    InternalConsistencyError,
    InvalidParameterError,
    SizeLimitError,
    UnsupportedFamilyError,
)
from sgp.gelfand import (
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
from sgp.groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    all_subgroups,
    are_conjugate_subgroups,
    build_group,
    conjugacy_classes,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    generated_subgroup,
    full_subgroup,
    Subgroup,
    trivial_subgroup,
)


# -- multiplicity matrices ----------------------------------------------------


def test_matrix_for_d10_reflection_subgroup():
    g = dihedral_group(5)
    h = generated_subgroup(g, ["b"])
    m = multiplicity_matrix(h)
    assert m.row_names == ("μ_0", "μ_1")
    assert m.col_names == ("χ_1", "χ_2", "ψ_1", "ψ_2")
    assert m.entries == ((1, 0, 1, 1), (0, 1, 1, 1))


def test_matrix_for_d12_reflection_subgroup():
    g = dihedral_group(6)
    h = generated_subgroup(g, ["b"])
    m = multiplicity_matrix(h)
    assert m.entries == ((1, 0, 1, 0, 1, 1), (0, 1, 0, 1, 1, 1))


def test_matrix_for_full_subgroup_is_identity():
    g = dicyclic_group(3)
    m = multiplicity_matrix(full_subgroup(g))
    k = len(m.row_names)
    assert m.entries == tuple(
        tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
    )


def test_matrix_for_trivial_subgroup_is_degree_row():
    g = dihedral_group(5)
    m = multiplicity_matrix(trivial_subgroup(g))
    assert m.entries == ((1, 1, 2, 2),)


def test_both_computation_paths_agree():
    for g in (dihedral_group(7), dicyclic_group(4)):
        for h in all_subgroups(g):
            assert multiplicity_by_induction(h) == multiplicity_by_restriction(h)


def _first_conjugate(subs, k):
    """The first subgroup in subs conjugate to k."""
    return next(h for h in subs if are_conjugate_subgroups(h, k))


def _assert_matrices_equal_the_reference(g):
    """Every classified subgroup's matrix equals both full paths; return how
    many subgroups have a matrix other than the first conjugate's."""
    subs = classify_subgroups(g).subgroups
    for h in subs:
        entries = multiplicity_matrix(h).entries
        assert entries == multiplicity_by_induction(h), (g.name, h.members)
        assert entries == multiplicity_by_restriction(h), (g.name, h.members)
    return sum(
        1 for k in subs
        if multiplicity_matrix(k).entries
        != multiplicity_matrix(_first_conjugate(subs, k)).entries
    )


def test_orbit_matrices_equal_the_two_path_reference():
    # C1..C30, D2..D32 and D72, and Dic4..Dic56: the benchmark's groups D72
    # and Dic8..Dic56 are among them, so every entry that the Galois maps or
    # twists transport there is compared with both paths computed in full
    permuted = 0
    for family, ns in (("cyclic", range(1, 31)), ("dihedral", [*range(1, 17), 36]),
                       ("dicyclic", range(1, 15))):
        for n in ns:
            permuted += _assert_matrices_equal_the_reference(build_group(family, n))
    # conjugates take generators from the same parent classes, so no row moves
    assert permuted == 0


@settings(max_examples=15, deadline=None, database=None)
@given(st.sampled_from(["cyclic", "dihedral", "dicyclic"]), st.integers(1, 24),
       st.integers(0, 10**6))
def test_orbit_matrix_of_a_random_subgroup_equals_the_reference(family, n, pick):
    g = build_group(family, n)
    subs = classify_subgroups(g).subgroups
    h = subs[pick % len(subs)]
    entries = multiplicity_matrix(h).entries
    assert entries == multiplicity_by_induction(h) == multiplicity_by_restriction(h)


def test_matrices_compute_one_entry_per_orbit_of_pairs(monkeypatch):
    # D72 has 24 fusion keys, so 24 matrices.  Their (psi, chi) pairs fall
    # into 600 orbits under the Galois maps together with the twists by the
    # four linear characters of D72, each read on H through the fusion; the
    # first pairs of those orbits lie in 78 rows psi.  Under the Galois maps
    # alone they were 1 360 orbits in 114 rows.  The rotations C36, for one,
    # have 36 * 21 pairs in 61 orbits and 6 rows: mu_k goes to mu_(tk), t a
    # unit mod 36, and to mu_(k+18), chi_3 read on C36, so the 9 Galois
    # orbits of k, one per value of gcd(k, 36), merge in pairs of those
    # values {2, 4}, {6, 12} and {18, 36}.  The
    # induction path decomposes each of the 78 induced characters against
    # all of its columns in one weighted_product_sums call; the restriction
    # path takes one inner_product per entry.
    calls = {"decompositions": 0, "columns": 0, "restriction": 0}

    def batched(original):
        def counted(fs, gss, weights=None):
            gss = list(gss)
            calls["decompositions"] += 1
            calls["columns"] += len(gss)
            return original(fs, gss, weights)
        return counted

    def per_entry(original):
        def counted(*args):
            calls["restriction"] += 1
            return original(*args)
        return counted

    # decompose reads chars.weighted_product_sums; the restriction path reads
    # gelfand's inner_product
    monkeypatch.setattr(sgp.chars, "weighted_product_sums",
                        batched(sgp.chars.weighted_product_sums))
    monkeypatch.setattr(sgp.gelfand, "inner_product", per_entry(sgp.gelfand.inner_product))
    classify_subgroups(dihedral_group(36))
    assert calls == {"decompositions": 78, "columns": 600, "restriction": 600}


@pytest.mark.parametrize("family, top", [("dihedral", 20), ("dicyclic", 10), ("cyclic", 40)])
def test_batched_decomposition_equals_one_inner_product_per_row(family, top):
    # D2..D40, Dic4..Dic40, C1..C40: for each psi of the first subgroup of
    # each conjugacy class, decompose reads every requested row off one
    # batched kernel call; each must be the row's own inner product
    for n in range(1, top + 1):
        g = build_group(family, n)
        tg = sgp.chars.family_table(g)
        chis = tg.irreducibles
        firsts = []
        for k in all_subgroups(g):
            if not any(are_conjugate_subgroups(h, k) for h in firsts):
                firsts.append(k)
        for h in firsts:
            for psi in sgp.chars.subgroup_table(h).irreducibles:
                induced = sgp.chars.induce(psi, h)
                want = [sgp.chars.inner_product(induced, chi).as_rational_integer()
                        for chi in chis]
                assert sgp.chars.decompose(induced, tg) == tuple(want), (g.name, h.members)
                rows = list(range(len(chis)))[::-2]
                assert (sgp.chars.decompose(induced, tg, rows)
                        == tuple(want[c] for c in rows)), (g.name, h.members)


def test_a_conjugate_reuses_its_first_subgroups_matrix(monkeypatch):
    g = dihedral_group(36)
    subs = all_subgroups(g)
    firsts = [_first_conjugate(subs, k) for k in subs]
    for first in firsts:
        multiplicity_matrix(first)
    calls = []

    def counted(original):
        def recorded(*args):
            calls.append(args)
            return original(*args)
        return recorded

    # decompose reads chars.weighted_product_sums; the restriction path
    # reads gelfand's inner_product
    monkeypatch.setattr(sgp.chars, "weighted_product_sums",
                        counted(sgp.chars.weighted_product_sums))
    monkeypatch.setattr(sgp.gelfand, "inner_product", counted(sgp.gelfand.inner_product))
    conjugates = [(k, first) for k, first in zip(subs, firsts) if first is not k]
    for k, first in conjugates:
        assert multiplicity_matrix(k) is multiplicity_matrix(first)
    assert conjugates and calls == []


@pytest.mark.parametrize("family", ["cyclic", "dihedral", "dicyclic"])
def test_a_subgroup_rebuilt_from_its_members_is_the_same_subgroup(family):
    # C1..C40, D2..D64, Dic4..Dic64: group, embedding and matrix are read
    # off the members alone, whichever order the subgroups are met in
    for n in {"cyclic": range(1, 41), "dihedral": range(1, 33), "dicyclic": range(1, 17)}[family]:
        g = build_group(family, n)
        for k in all_subgroups(g):
            h = Subgroup(g, k.members)
            assert h.group is k.group, (g.name, k.members)
            assert h.embedding() == k.embedding(), (g.name, k.members)
            assert multiplicity_matrix(h) is multiplicity_matrix(k), (g.name, k.members)


@pytest.mark.parametrize("g", [dihedral_group(36), dicyclic_group(5), dicyclic_group(6)],
                         ids=lambda g: g.name)
def test_subgroups_share_a_matrix_exactly_when_their_fusion_keys_are_equal(g):
    # a Subgroup built again from k's members is a distinct object with k's
    # family group and embedding
    subs = all_subgroups(g)
    rebuilt = [Subgroup(g, k.members) for k in subs]
    by_key = {}
    for h in subs + rebuilt:
        m = multiplicity_matrix(h)
        assert by_key.setdefault((h.group.family, h.group.n, sgp.chars._class_fusion(h)), m) is m
    for h in rebuilt:
        entries = multiplicity_matrix(h).entries
        assert entries == multiplicity_by_induction(h) == multiplicity_by_restriction(h)
    assert len({id(m) for m in by_key.values()}) == len(by_key)


def _corrupt_first_entry(original):
    def corrupted(h, rows=None):
        entries = [list(row) for row in original(h, rows)]
        entries[0][0] += 1
        return tuple(map(tuple, entries))
    return corrupted


def test_a_corrupted_entry_trips_the_row_degree_check(monkeypatch, capsys):
    # both paths agree on the wrong entry, so only the degree check sees it
    for name in ("multiplicity_by_induction", "multiplicity_by_restriction"):
        monkeypatch.setattr(sgp.gelfand, name, _corrupt_first_entry(getattr(sgp.gelfand, name)))
    g = dihedral_group(6)
    with pytest.raises(IntegralityError, match="accounts for degree"):
        multiplicity_matrix(generated_subgroup(g, ["b"]))
    assert main(["classify", "dihedral", "6"]) == 2
    assert "internal consistency failure" in capsys.readouterr().err


@pytest.mark.parametrize("g", [dihedral_group(n) for n in range(1, 13)]
                         + [dicyclic_group(n) for n in range(1, 7)], ids=lambda g: g.name)
def test_subgroup_orbits_are_the_conjugacy_classes(g):
    subs = all_subgroups(g)
    orbit = {}  # members -> the first subgroup of its conjugation orbit
    for k in subs:
        for x in range(g.order):
            orbit.setdefault(tuple(sorted(g.conjugate(y, x) for y in k.members)), k)
    firsts = [orbit[k.members] for k in subs]
    for a in range(len(subs)):
        for b in range(a + 1, len(subs)):
            same = firsts[a] is firsts[b]
            assert same == are_conjugate_subgroups(subs[a], subs[b])
            if same:
                assert multiplicity_matrix(subs[a]) is multiplicity_matrix(subs[b])


def _wrong_power_map(original):
    return lambda group, t: original(group, t + 1)


def _wrong_generator(original):
    def wrong(h):
        kind, data = original(h)
        if kind == "cyclic":  # its square generates a smaller subgroup
            return kind, h.parent.mul[data][data]
        return kind, data
    return wrong


def _failed_twists(original):
    return lambda table, j: None


def _no_restricted_row(original):
    return lambda h, j: None


_PATCH_HOMES = {"_class_power_map": sgp.chars, "subgroup_structure": sgp.groups,
                "_twist_map": sgp.gelfand, "_restricted_row": sgp.gelfand}


@pytest.mark.parametrize("name, wrong", [("_class_power_map", _wrong_power_map),
                                         ("subgroup_structure", _wrong_generator),
                                         ("_twist_map", _failed_twists),
                                         ("_restricted_row", _no_restricted_row)])
def test_a_wrong_transport_is_an_internal_consistency_error(name, wrong, monkeypatch, capsys):
    home = _PATCH_HOMES[name]
    monkeypatch.setattr(home, name, wrong(getattr(home, name)))
    with pytest.raises(InternalConsistencyError):
        classify_subgroups(dihedral_group(6))
    assert main(["classify", "dihedral", "6"]) == 2
    assert "internal consistency failure" in capsys.readouterr().err


def test_row_degree_accounting():
    g = dicyclic_group(3)
    tdeg = [1, 1, 1, 1, 2, 2]
    for h in all_subgroups(g):
        m = multiplicity_matrix(h)
        from sgp.chars import subgroup_table
        for psi, row in zip(subgroup_table(h).irreducibles, m.entries):
            total = sum(e * d for e, d in zip(row, tdeg))
            assert total == h.index * psi.degree.as_rational_integer()


@pytest.mark.parametrize("family, hi", [("cyclic", 40), ("dihedral", 32), ("dicyclic", 16)])
def test_squared_multiplicities_count_conjugation_orbits(family, hi):
    # column orthogonality gives sum_chi |chi(h)|^2 = |G| / |h^G|, so
    # sum_(psi, chi) M[psi][chi]^2 = sum_chi <chi|H, chi|H>
    # = (1/|H|) sum_(h in H) |G| / |h^G|, the number of orbits of H on G by
    # conjugation: integers from the members and class sizes alone, with no
    # character value, and a check that no degree sum can make
    for n in range(1, hi + 1):
        g = build_group(family, n)
        classes = conjugacy_classes(g)
        for h in all_subgroups(g):
            orbits = sum(g.order // classes.sizes[classes.class_of[x]] for x in h.members)
            squares = sum(e * e for row in multiplicity_matrix(h).entries for e in row)
            assert squares * h.order == orbits, (g.name, h.members)


# -- gelfand / strong gelfand ---------------------------------------------------


def test_is_gelfand_examples():
    d10 = dihedral_group(5)
    assert is_gelfand(generated_subgroup(d10, ["b"]))
    assert is_gelfand(full_subgroup(d10))
    dic8 = dicyclic_group(2)
    assert is_gelfand(generated_subgroup(dic8, ["b^2"]))


def test_is_strong_gelfand_examples():
    d10 = dihedral_group(5)
    ok, witness = is_strong_gelfand(generated_subgroup(d10, ["a"]))
    assert ok and witness is None

    ok, witness = is_strong_gelfand(trivial_subgroup(d10))
    assert not ok
    assert witness == Witness("μ_0", "ψ_1", 2)


def test_center_of_dic8_is_gelfand_but_not_strong():
    g = dicyclic_group(2)
    h = generated_subgroup(g, ["b^2"])
    assert is_gelfand(h)
    ok, witness = is_strong_gelfand(h)
    assert not ok and witness.mult == 2


def test_proper_rotation_subgroups_of_odd_dihedral_fail_with_mult_2():
    g = dihedral_group(9)
    h = generated_subgroup(g, ["a^3"])  # C_3, proper divisor of 9
    ok, witness = is_strong_gelfand(h)
    assert not ok and witness.mult == 2



@pytest.mark.parametrize("g", [dihedral_group(n) for n in range(4, 41, 2)]
                         + [dicyclic_group(n) for n in range(2, 21, 2)], ids=lambda g: g.name)
def test_matrix_of_a_squared_is_its_closed_form(g):
    # the entries of <a^2> = C_m are checked with every rotation subgroup
    # below; the one entry 2 is at j = k = m/2, for m even
    h = generated_subgroup(g, ["a^2"])
    half = h.order // 2
    witness = Witness(f"μ_{half}", f"ψ_{half}", 2) if h.order % 2 == 0 else None
    assert multiplicity_matrix(h).first_witness() == witness


@pytest.mark.parametrize("g", [dihedral_group(n) for n in range(3, 41)]
                         + [dicyclic_group(n) for n in range(2, 21)], ids=lambda g: g.name)
def test_matrix_of_the_rotation_subgroup_is_its_closed_form(g):
    # Frobenius reciprocity on each rotation subgroup C_d = <a^(R/d)>, R the
    # order of a: every row chi takes zeta_R^(se) on a^e if it is linear and
    # zeta_R^(se) + zeta_R^(-se) if it has degree 2, with s = 0 for chi_1,
    # chi_2, theta_1, theta_2 (trivial on a), s = R/2 for chi_3, chi_4,
    # theta_3, theta_4, and s = k for psi_k, 2k for pi_k and 2k - 1 for
    # gamma_k.  So <mu_j induced, chi> is [j = s] or [j = s] + [j = -s] mod d,
    # when the embedding's generator is a^(R/d).
    a = g.gens["a"]
    rot = g.element_order(a)

    def closed_form(row, col, d):
        j = int(row.removeprefix("μ_"))
        name, _, k = col.partition("_")
        k = int(k)
        if name in ("χ", "θ"):
            return int((j - (0 if k <= 2 else rot // 2)) % d == 0)
        s = {"ψ": k, "π": 2 * k, "γ": 2 * k - 1}[name]
        return ((j - s) % d == 0) + ((j + s) % d == 0)

    rotations = [h for h in all_subgroups(g) if h.members[-1] < rot]
    assert [h.order for h in rotations] == [d for d in range(1, rot + 1) if rot % d == 0]
    for h in rotations:
        d = h.order
        if d > 1:
            assert h.embedding()[1] == g.power(a, rot // d)
        m = multiplicity_matrix(h)
        assert m.entries == tuple(tuple(closed_form(row, col, d) for col in m.col_names)
                                  for row in m.row_names), d
    h = rotations[-1]  # <a>, of index 2: every entry is at most 1
    assert multiplicity_matrix(h).first_witness() is None
    assert predict(g.family, g.n).predicate(sgp.groups.describe_subgroup(h))


# -- classification ---------------------------------------------------------------


def test_classify_d10():
    report = classify_subgroups(dihedral_group(5))
    assert len(report.records) == 8
    for r in report.records:
        if r.descriptor == "trivial":
            assert not r.strong_gelfand and r.witness is not None
        else:
            assert r.strong_gelfand and r.witness is None


def test_classify_dic12():
    report = classify_subgroups(dicyclic_group(3))
    strong = sorted(r.descriptor for r in report.records if r.strong_gelfand)
    weak = sorted(r.descriptor for r in report.records if not r.strong_gelfand)
    assert strong == ["<ba^i>", "<ba^i>", "<ba^i>", "C3", "C6", "Dic12"]
    assert weak == ["C2", "trivial"]
    for r in report.records:
        assert (r.witness is not None) == (not r.strong_gelfand)
        if r.witness is not None:
            assert r.witness.mult >= 2


def test_classify_cyclic_all_strong():
    report = classify_subgroups(cyclic_group(12))
    assert all(r.strong_gelfand for r in report.records)
    assert all(r.gelfand for r in report.records)


def test_witness_iff_not_strong_invariant():
    for g in (dihedral_group(8), dicyclic_group(4)):
        for r in classify_subgroups(g).records:
            assert (r.witness is None) == r.strong_gelfand


def test_strong_gelfand_implies_gelfand():
    for g in (dihedral_group(9), dicyclic_group(5)):
        for r in classify_subgroups(g).records:
            if r.strong_gelfand:
                assert r.gelfand


def test_whole_group_always_strong_and_trivial_iff_abelian():
    for ctor in (cyclic_group, dihedral_group, dicyclic_group):
        for n in range(1, 17):
            g = ctor(n)
            assert is_strong_gelfand(full_subgroup(g))[0]
            ok, _ = is_strong_gelfand(trivial_subgroup(g))
            assert ok == (len(conjugacy_classes(g).reps) == g.order)


def test_conjugate_subgroups_get_identical_flags():
    for g in (dihedral_group(6), dicyclic_group(3)):
        subs = all_subgroups(g)
        reports = {h.members: (is_gelfand(h), is_strong_gelfand(h)) for h in subs}
        for h1 in subs:
            for h2 in subs:
                if h1.members >= h2.members or not are_conjugate_subgroups(h1, h2):
                    continue
                g1, (s1, w1) = reports[h1.members]
                g2, (s2, w2) = reports[h2.members]
                assert g1 == g2 and s1 == s2
                if w1 is not None:
                    assert w1.mult == w2.mult


def test_monotonicity_along_subgroup_chains():
    # if (G, K) is strong Gelfand and K <= H then (G, H) is strong Gelfand
    for g in (dihedral_group(6), dihedral_group(4), dicyclic_group(3), dicyclic_group(2)):
        subs = all_subgroups(g)
        strong = {h.members: is_strong_gelfand(h)[0] for h in subs}
        for k in subs:
            for h in subs:
                if set(k.members) <= set(h.members) and strong[k.members]:
                    assert strong[h.members]


def check_lattice(family, ns, max_order=DEFAULT_MAX_ORDER):
    """Verdicts are monotone up the subgroup lattice of each family group; returns the pairs tested.

    For K < H <= G: if (G, K) is strong Gelfand then so is (G, H), since
    every irreducible of H lies in the induction to H of an irreducible of
    K, so its induction to G lies in one that is multiplicity-free; and if
    (G, K) is Gelfand then so is (G, H), since 1_H lies in the induction of
    1_K.  Only the `classify_subgroups` verdicts are read, and every pair
    K < H is found by members.  The whole default bound is one call per
    family, e.g. check_lattice("dihedral", range(1, 129)).
    """
    pairs = 0
    for n in ns:
        records = classify_subgroups(build_group(family, n), max_order).records
        member_sets = [frozenset(r.members) for r in records]
        for k, rk in zip(member_sets, records):
            for h, rh in zip(member_sets, records):
                if k < h:
                    pairs += 1
                    assert rh.gelfand or not rk.gelfand, (family, n, rk.members, rh.members)
                    assert rh.strong_gelfand or not rk.strong_gelfand, (
                        family, n, rk.members, rh.members)
    return pairs


def test_verdicts_are_monotone_along_the_subgroup_lattice():
    pairs = (check_lattice("cyclic", range(1, 41)) + check_lattice("dihedral", range(1, 33))
             + check_lattice("dicyclic", range(1, 17)))
    assert pairs == 5311


# -- prediction ----------------------------------------------------------------------


def test_predict_dihedral_odd():
    p = predict("dihedral", 5)
    assert p.predicate("C5")
    assert p.predicate("<ba^i>")
    assert p.predicate("D10")
    assert not p.predicate("trivial")
    assert not p.predicate("C1")


def test_predict_dihedral_even_includes_index_four_cyclic():
    p = predict("dihedral", 6)
    assert p.predicate("C3")
    assert p.predicate("C6")
    assert not p.predicate("C2")


def test_predict_dicyclic():
    p = predict("dicyclic", 3)
    assert p.predicate("C6")
    assert p.predicate("C3")
    assert not p.predicate("C2")
    assert p.predicate("<ba^i>")
    assert p.predicate("Dic12")


def test_predict_degenerate_cases_are_all_strong():
    assert predict("dihedral", 1).predicate("trivial")
    assert predict("dihedral", 2).predicate("C2")
    assert predict("dicyclic", 1).predicate("trivial")
    assert all(predict("cyclic", 12).predicate(d) for d in ("trivial", "C2", "C6", "C12"))


def test_predict_unknown_family():
    with pytest.raises(UnsupportedFamilyError):
        predict("symmetric", 4)
    with pytest.raises(UnsupportedFamilyError):
        predict("mystery", 3)


@pytest.mark.parametrize("n", [True, 2.0, "3", 0], ids=repr)
def test_predict_refuses_an_n_that_is_not_an_int_of_at_least_one(n):
    # n is tested before the family, so an unknown family does not hide a bad n
    for family in ("cyclic", "dihedral", "dicyclic", "mystery"):
        with pytest.raises(InvalidParameterError):
            predict(family, n)


# -- audit --------------------------------------------------------------------------------


def test_audit_odd_dihedral_has_no_discrepancies():
    report = audit("dihedral", [3, 5, 6, 7])
    assert report.total_discrepancies == 0
    for ga in report.audits:
        assert ga.agree == ga.total


def test_audit_d8_finds_center_discrepancy():
    report = audit("dihedral", [4])
    (ga,) = report.audits
    assert ga.disagree == 1
    (d,) = ga.discrepancies
    assert d.record.descriptor == "C2"
    assert d.predicted and not d.record.strong_gelfand
    assert d.record.witness == Witness("μ_1", "ψ_1", 2)


def test_audit_dic8_center_conflict():
    report = audit("dicyclic", [2])
    (ga,) = report.audits
    assert ga.disagree == 1
    (d,) = ga.discrepancies
    assert d.record.descriptor == "C2"
    assert d.predicted and not d.record.strong_gelfand
    assert d.record.witness is not None and d.record.witness.mult == 2


def _closed_form_discrepancy(family, n):
    if family == "dihedral":
        return f"C{n // 2}" if n % 4 == 0 else None
    return f"C{n}" if n % 2 == 0 else None


@pytest.mark.parametrize("family, ns", [("dihedral", range(3, 29)), ("dicyclic", range(2, 17))])
def test_audit_discrepancies_follow_their_closed_form(family, ns):
    for ga in audit(family, ns).audits:
        expected = _closed_form_discrepancy(family, ga.n)
        assert [d.record.descriptor for d in ga.discrepancies] == ([expected] if expected else [])
        for d in ga.discrepancies:
            assert d.predicted is True and d.record.strong_gelfand is False
            assert d.record.witness is not None and d.record.witness.mult == 2


def test_audit_degenerate_families():
    assert audit("dihedral", [1, 2]).total_discrepancies == 0
    assert audit("dicyclic", [1]).total_discrepancies == 0


def test_oversized_audit_range_is_refused_before_any_group_is_built(monkeypatch):
    def build_group(family, n):
        raise AssertionError(f"{family} {n} was built before the range was refused")

    monkeypatch.setattr(sgp.groups, "build_group", build_group)
    with pytest.raises(SizeLimitError, match="group order 78 exceeds the bound 60"):
        audit("dihedral", range(3, 40), max_order=60)


def test_audit_validates_each_subgroup_once(monkeypatch):
    validate = Subgroup.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(Subgroup, "__post_init__", counted)
    report = audit("dicyclic", range(2, 7))
    assert sum(1 for ga in report.audits for e in ga.entries if e.record.witness) > 0
    assert len(calls) == sum(ga.total for ga in report.audits)


def test_library_audit_frees_each_group_without_the_cycle_collector():
    gc.collect()
    before = {id(o): o for o in gc.get_objects() if isinstance(o, FiniteGroup)}
    gc.disable()
    try:
        report = audit("dicyclic", range(2, 9))
        left = sum(1 for o in gc.get_objects()
                   if isinstance(o, FiniteGroup) and id(o) not in before)
    finally:
        gc.enable()
    assert len(report.audits) == 7
    assert left == 0


# -- report renderings -----------------------------------------------------------------------


def test_classification_json_schema(capsys):
    assert main(["classify", "dicyclic", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"] == "Dic12"
    assert doc["family"] == "dicyclic" and doc["n"] == 3
    recs = doc["subgroups"]
    assert len(recs) == 8
    for rec in recs:
        assert {"desc", "order", "index", "gelfand", "strong_gelfand"} <= set(rec)
        if not rec["strong_gelfand"]:
            assert rec["witness"]["mult"] >= 2


def test_audit_json_schema(capsys):
    assert main(["audit", "dihedral", "4", "--format", "json"]) == 0
    (doc,) = json.loads(capsys.readouterr().out)
    assert doc["family"] == "dihedral" and doc["n"] == 4
    assert doc["summary"] == {"total": 10, "agree": 9, "disagree": 1}
    assert all("predicted_strong_gelfand" in s for s in doc["subgroups"])
    (disc,) = doc["discrepancies"]
    assert disc["desc"] == "C2"
    assert disc["witness"] == {"psi": "μ_1", "chi": "ψ_1", "mult": 2}
