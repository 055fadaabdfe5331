"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value here is exact; the only floating point is the
explicitly float-vs-exact consistency criterion (9), checked to 1e-9.
"""

import cmath
import json
import time
from contextlib import contextmanager

from sgp.chars import (
    constructive_family_table,
    family_table,
    induce,
    inner_product,
    restrict,
    subgroup_table,
    validate_table,
)
from sgp.cli import main as cli_main
from sgp.cyclo import rational, zeta
from sgp.gelfand import (
    audit,
    classify_subgroups,
    multiplicity_by_induction,
    multiplicity_by_restriction,
    multiplicity_matrix,
)
from sgp.groups import (
    Subgroup,
    all_subgroups,
    build_group,
    conjugacy_classes,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    generated_subgroup,
)


@contextmanager
def criterion(num, desc, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL: {desc}")
        raise
    dt = time.perf_counter() - t0
    in_time = limit is None or dt < limit
    status = "PASS" if in_time else "FAIL (over time limit)"
    bound = f", limit {limit}s" if limit is not None else ""
    print(f"[criterion {num:02d}] {status} ({dt:.2f}s{bound}): {desc}")
    assert in_time, f"criterion {num} took {dt:.2f}s, limit {limit}s"


def _value_at(f, word):
    return f.value_on_element(f.group.element(word))


def _values_by_parent_label(f, h):
    """A class function on h.group, keyed by the parent label of each class rep."""
    emb = h.embedding()
    reps = conjugacy_classes(h.group).reps
    return {h.parent.labels[emb[rep]]: v for rep, v in zip(reps, f.values)}


def test_criterion_01_value_goldens():
    with criterion(1, "induced/restricted value goldens", limit=1.0):
        # multiplicity rows for (D_2n, <b>) at n = 5 and n = 6
        g5 = dihedral_group(5)
        m5 = multiplicity_matrix(g5, generated_subgroup(g5, ["b"]))
        assert m5.col_names == ("χ_1", "χ_2", "ψ_1", "ψ_2")
        assert m5.entries == ((1, 0, 1, 1), (0, 1, 1, 1))

        g6 = dihedral_group(6)
        m6 = multiplicity_matrix(g6, generated_subgroup(g6, ["b"]))
        assert m6.col_names == ("χ_1", "χ_2", "χ_3", "χ_4", "ψ_1", "ψ_2")
        assert m6.entries == ((1, 0, 1, 0, 1, 1), (0, 1, 0, 1, 1, 1))

        # induced values (n, 0, 1) for odd n and (n, 0, 0, 2, 0) for even n
        for n in (5, 7):
            g = dihedral_group(n)
            h = generated_subgroup(g, ["b"])
            mu0, mu1 = subgroup_table(h).irreducibles
            up0, up1 = induce(mu0, h), induce(mu1, h)
            assert _value_at(up0, "1") == n
            for r in range(1, (n - 1) // 2 + 1):
                assert _value_at(up0, f"a^{r}") == 0
            assert _value_at(up0, "b") == 1
            assert _value_at(up1, "1") == n and _value_at(up1, "b") == -1
        for n in (6, 8):
            g = dihedral_group(n)
            h = generated_subgroup(g, ["b"])
            mu0, mu1 = subgroup_table(h).irreducibles
            up0, up1 = induce(mu0, h), induce(mu1, h)
            assert _value_at(up0, "1") == n
            assert _value_at(up0, f"a^{n // 2}") == 0
            for r in range(1, n // 2):
                assert _value_at(up0, f"a^{r}") == 0
            assert _value_at(up0, "b") == 2 and _value_at(up0, "ba") == 0
            assert _value_at(up1, "b") == -2 and _value_at(up1, "ba") == 0

        # restriction of theta_3 to <b> is (1, -1, i, -i) on (1, b^2, b, b^3)
        for n in (3, 5):
            g = dicyclic_group(n)
            h = generated_subgroup(g, ["b"])
            down = restrict(family_table(g).row("θ_3"), h)
            assert _values_by_parent_label(down, h) == {
                "1": rational(1), f"a^{n}": rational(-1), "b": zeta(4, 1), f"ba^{n}": zeta(4, 3),
            }


def test_criterion_02_frobenius_reciprocity_suite():
    with criterion(2, "dual-path multiplicity matrices identical", limit=30.0):
        comparisons = 0
        groups = [dihedral_group(n) for n in range(3, 11)]
        groups += [dicyclic_group(n) for n in range(2, 7)]
        for g in groups:
            for h in all_subgroups(g):
                via_ind = multiplicity_by_induction(g, h)
                via_res = multiplicity_by_restriction(g, h)
                assert via_ind == via_res, (g.name, h.members)
                comparisons += sum(len(row) for row in via_ind)
        assert comparisons > 2000, comparisons


def test_criterion_03_table_validation():
    with criterion(3, "orthogonality and degree sums for all n <= 30", limit=10.0):
        for ctor in (cyclic_group, dihedral_group, dicyclic_group):
            for n in range(1, 31):
                g = ctor(n)
                report = validate_table(family_table(g))
                assert report.passed, (g.name, report.failures)


def test_criterion_04_oracle_equivalence():
    with criterion(4, "constructive tables equal closed forms up to row order",
                   limit=20.0):
        for ctor in (dihedral_group, dicyclic_group):
            for n in range(3, 21):
                g = ctor(n)
                closed = family_table(g)
                constructive = constructive_family_table(g)
                pool = list(constructive.irreducibles)
                for row in closed.irreducibles:
                    hit = None
                    for i, cand in enumerate(pool):
                        if all(a == b for a, b in zip(row.values, cand.values)):
                            hit = i
                            break
                    assert hit is not None, (g.name, row.name)
                    pool.pop(hit)
                assert not pool, g.name


def test_criterion_05_classification_goldens():
    with criterion(5, "classification goldens for D10 and Dic12", limit=5.0):
        report = classify_subgroups(dihedral_group(5))
        assert len(report.records) == 8
        for r in report.records:
            if r.descriptor == "trivial":
                assert not r.strong_gelfand
            else:
                assert r.strong_gelfand

        report = classify_subgroups(dicyclic_group(3))
        strong = sorted(r.descriptor for r in report.records if r.strong_gelfand)
        weak = sorted(r.descriptor for r in report.records if not r.strong_gelfand)
        assert strong == ["<ba^i>", "<ba^i>", "<ba^i>", "C3", "C6", "Dic12"]
        assert weak == ["C2", "trivial"]


def test_criterion_06_odd_n_conformance():
    with criterion(6, "odd-n audits report zero discrepancies", limit=60.0):
        dihedral_report = audit("dihedral", [3, 5, 7, 9, 11, 13, 15])
        dicyclic_report = audit("dicyclic", [3, 5, 7, 9])
        assert dihedral_report.total_discrepancies == 0
        assert dicyclic_report.total_discrepancies == 0


def test_criterion_07_even_n_audit_integrity():
    with criterion(7, "even-n audits complete with dual-verified witnesses",
                   limit=120.0):
        expected = {
            ("dihedral", 4): {"C2"},
            ("dihedral", 6): set(),
            ("dihedral", 8): {"C4"},
            ("dihedral", 10): set(),
            ("dihedral", 12): {"C6"},
            ("dicyclic", 2): {"C2"},
            ("dicyclic", 4): {"C4"},
            ("dicyclic", 6): {"C6"},
            ("dicyclic", 8): {"C8"},
        }
        reports = list(audit("dihedral", [4, 6, 8, 10, 12]).audits)
        reports += list(audit("dicyclic", [2, 4, 6, 8]).audits)
        for ga in reports:
            assert {d.record.descriptor for d in ga.discrepancies} == expected[(ga.family, ga.n)]
            for d in ga.discrepancies:
                assert d.record.witness is not None and d.record.witness.mult >= 2
                # independent re-verification of the witness through both paths
                g = build_group(ga.family, ga.n)
                members = next(e.record.members for e in ga.entries
                               if e.record.descriptor == d.record.descriptor
                               and e.record.witness == d.record.witness)
                h = Subgroup(g, members)
                tg, th = family_table(g), subgroup_table(h)
                psi, chi = th.row(d.record.witness.psi), tg.row(d.record.witness.chi)
                by_ind = inner_product(induce(psi, h), chi).as_rational_integer()
                by_res = inner_product(psi, restrict(chi, h)).as_rational_integer()
                assert by_ind == by_res == d.record.witness.mult


def test_criterion_08_monotonicity_over_audited_lattices():
    with criterion(8, "strong Gelfand is monotone along subgroup chains",
                   limit=30.0):
        cases = [("dihedral", n) for n in (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15)]
        cases += [("dicyclic", n) for n in (2, 3, 4, 5, 6, 7, 8, 9)]
        violations = 0
        for family, n in cases:
            g = build_group(family, n)
            flags = {}
            for h in all_subgroups(g):
                flags[frozenset(h.members)] = multiplicity_matrix(g, h).first_witness() is None
            for k_mem, k_strong in flags.items():
                if not k_strong:
                    continue
                for h_mem, h_strong in flags.items():
                    if k_mem <= h_mem and not h_strong:
                        violations += 1
        assert violations == 0


def _float_table(g):
    """Independent float evaluation of the family table formulas."""
    n = g.n
    cls = conjugacy_classes(g)
    tau = 2 * cmath.pi

    def rows_cyclic(order, dlog):
        return [[cmath.exp(tau * 1j * k * dlog[rep] / order) for rep in cls.reps]
                for k in range(order)]

    if g.family == "cyclic":
        return rows_cyclic(n, list(range(n)))
    if g.family == "dicyclic" and n == 1:
        dlog = {0: 0, 1: 2, 2: 1, 3: 3}  # 1, a=b^2, b, ba=b^3
        return rows_cyclic(4, dlog)
    rot = n if g.family == "dihedral" else 2 * n
    out = []

    def lin(sign_a, val_b):
        row = []
        for e in cls.reps:
            if e < rot:
                row.append(sign_a ** e)
            else:
                row.append(val_b * sign_a ** (e - rot))
        return row

    def two_dim(s):
        row = []
        for e in cls.reps:
            row.append(2 * cmath.cos(tau * s * e / rot) if e < rot else 0.0)
        return row

    if g.family == "dihedral":
        out.append(lin(1, 1))
        out.append(lin(1, -1))
        if n % 2 == 0:
            out.append(lin(-1, 1))
            out.append(lin(-1, -1))
            out.extend(two_dim(j) for j in range(1, n // 2))
        else:
            out.extend(two_dim(j) for j in range(1, (n - 1) // 2 + 1))
        return out
    # dicyclic, n >= 2
    if n % 2:
        out.append(lin(1, 1))
        out.append(lin(1, -1))
        out.append(lin(-1, 1j))
        out.append(lin(-1, -1j))
        out.extend(two_dim(2 * j) for j in range(1, (n - 1) // 2 + 1))
        out.extend(two_dim(2 * k - 1) for k in range(1, (n - 1) // 2 + 1))
    else:
        out.append(lin(1, 1))
        out.append(lin(1, -1))
        out.append(lin(-1, 1))
        out.append(lin(-1, -1))
        out.extend(two_dim(j) for j in range(1, n))
    return out


def test_criterion_09_exact_vs_float_consistency():
    with criterion(9, "exact values and inner products match floats to 1e-9"):
        # every family table value in the ranges used by criteria 1-6
        for ctor in (cyclic_group, dihedral_group, dicyclic_group):
            for n in range(1, 31):
                g = ctor(n)
                table = family_table(g)
                floats = _float_table(g)
                assert len(floats) == len(table.irreducibles)
                for row, frow in zip(table.irreducibles, floats):
                    for v, fv in zip(row.values, frow):
                        assert abs(v.approx() - fv) < 1e-9, (g.name, row.name)

        # inner products: float path vs exact path on whole tables
        for ctor in (cyclic_group, dihedral_group, dicyclic_group):
            for n in range(2, 13):
                g = ctor(n)
                cls = conjugacy_classes(g)
                rows = family_table(g).irreducibles
                for i, ri in enumerate(rows):
                    for rj in rows[i:]:
                        exact = inner_product(ri, rj).approx()
                        floated = sum(
                            size * x.approx() * y.approx().conjugate()
                            for size, x, y in zip(cls.sizes, ri.values, rj.values)
                        ) / g.order
                        assert abs(exact - floated) < 1e-9

        # the restriction golden of criterion 1, against literal floats
        for n in (3, 5):
            g = dicyclic_group(n)
            h = generated_subgroup(g, ["b"])
            down = restrict(family_table(g).row("θ_3"), h)
            floats = {"1": 1, f"a^{n}": -1, "b": 1j, f"ba^{n}": -1j}
            values = _values_by_parent_label(down, h)
            assert values.keys() == floats.keys()
            for label, fv in floats.items():
                assert abs(values[label].approx() - fv) < 1e-9

        # the multiplicity inner products behind criteria 1, 2 and 5:
        # every (psi, chi) pair over every subgroup of the golden groups
        for g in (dihedral_group(5), dihedral_group(6), dicyclic_group(3)):
            tg = family_table(g)
            cls_g = conjugacy_classes(g)
            for h in all_subgroups(g):
                for psi in subgroup_table(h).irreducibles:
                    up = induce(psi, h)
                    for chi in tg.irreducibles:
                        exact = inner_product(up, chi).approx()
                        floated = sum(
                            size * x.approx() * y.approx().conjugate()
                            for size, x, y in zip(cls_g.sizes, up.values, chi.values)
                        ) / g.order
                        assert abs(exact - floated) < 1e-9


def test_criterion_10_atlas_determinism(tmp_path, capsys):
    with criterion(10, "two atlas runs produce byte-identical files"):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert cli_main(["atlas", "dihedral", "3..10", "--out", str(dir_a)]) == 0
        assert cli_main(["atlas", "dihedral", "3..10", "--out", str(dir_b)]) == 0
        capsys.readouterr()
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        assert names_a == names_b
        assert len(names_a) == 9  # 8 atlas files plus the manifest
        for name in names_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        # and a re-run into an existing directory stays byte-identical
        before = {p.name: p.read_bytes() for p in dir_a.iterdir()}
        assert cli_main(["atlas", "dihedral", "3..10", "--out", str(dir_a)]) == 0
        capsys.readouterr()
        after = {p.name: p.read_bytes() for p in dir_a.iterdir()}
        assert before == after
        # sanity: the files parse and carry the schema version
        doc = json.loads((dir_a / "dihedral_3.json").read_text())
        assert doc["schema_version"] == 1
