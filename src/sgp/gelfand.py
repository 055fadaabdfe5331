"""Multiplicity matrices, (strong) Gelfand decisions, and classification audits.

The multiplicity matrix of a pair (G, H) holds <psi induced to G, chi>
over Irr(H) x Irr(G).  A pair is given by its subgroup alone: every
function here takes H, a `groups.Subgroup`, and reads G as `H.parent`.
Exact symmetries fill most of the matrix without arithmetic:

* Galois maps and twists.  The Galois maps sigma_t of G and H, and the
  twists by the linear characters lambda of G and by lambda read on H,
  permute the pairs (psi, chi) and fix every multiplicity.  Their rules,
  their checks and the pairing of each map of G with the map of H it reads
  as live in `chars` (`chars._matrix_totals`), which fills the matrix from
  the first entry of each orbit of pairs, computed here.
* Class fusion.  An entry is (1/|H|) * sum over the classes d of H of
  |d| psi(d) conj(chi(fuse(d))), so it is fixed by the family group of H
  and its class fusion in G (`chars._class_fusion`).  One matrix is kept
  on G per key (family, n, fusion), and every subgroup with that key
  reads the same `MultiplicityMatrix` object.  A subgroup's generators
  are picked by parent class (`groups.subgroup_structure`), so each
  conjugate of a subgroup has its family group and its key.

Each computed entry goes through both paths, induction and restriction,
which must agree exactly (Frobenius reciprocity as a runtime self-check),
and is certified a nonnegative integer; every row of the filled matrix
must account for the degree |G:H| psi(1).  The induction path decomposes
each induced psi against all of its requested columns chi in one kernel
call over the classes where psi induced to G is nonzero, the classes
that meet H (`chars.decompose`); the restriction path takes one
`inner_product` per entry, so every batched entry is checked against a
sum computed on its own.  A path disagreement raises
`InternalConsistencyError`, and so does `chars._matrix_totals` for a map
that fails its check.
Called without a subset of entries, `multiplicity_by_induction` and
`multiplicity_by_restriction` compute the whole matrix, the reference for
the transported entries.

`predict` encodes the closed-form classification rules for which
subgroups of each family are strong Gelfand;
`audit` diffs the brute-force classification against those rules and
reports discrepancies as data, each carrying a witness re-verified through
both paths on its own subgroup.  The audit asserts nothing about which
side is right.
"""

from __future__ import annotations

from collections import namedtuple

from .chars import (
    _class_fusion,
    _matrix_totals,
    decompose,
    induce,
    inner_product,
    family_table,
    restrict,
    subgroup_table,
)
from .errors import (
    IntegralityError,
    InternalConsistencyError,
)
from .groups import (
    _family,
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    Subgroup,
    all_subgroups,
    describe_subgroup,
    map_family,
    memoized,
)

__all__ = [
    "Witness",
    "MultiplicityMatrix",
    "SubgroupRecord",
    "ClassificationReport",
    "ClassificationRule",
    "AuditEntry",
    "GroupAudit",
    "AuditReport",
    "multiplicity_by_induction",
    "multiplicity_by_restriction",
    "multiplicity_matrix",
    "is_gelfand",
    "is_strong_gelfand",
    "classify_subgroups",
    "predict",
    "audit",
]


class Witness(namedtuple("Witness", "psi chi mult")):
    """A pair with multiplicity >= 2 certifying failure of the strong property."""

    __slots__ = ()
    psi: str
    chi: str
    mult: int


class MultiplicityMatrix(namedtuple("MultiplicityMatrix", "row_names col_names entries")):
    """The multiplicities <psi induced to G, chi>, one row per psi and one column per chi."""

    __slots__ = ()
    row_names: tuple[str, ...]
    col_names: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def first_witness(self) -> Witness | None:
        """Lexicographically first entry >= 2 in (row, col) order."""
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if e >= 2:
                    return Witness(self.row_names[i], self.col_names[j], e)
        return None


def _requested(h: Subgroup, rows) -> list:
    """(psi, column indices) for each requested row; `rows` None requests every entry."""
    irreducibles = subgroup_table(h).irreducibles
    if rows is None:
        every = range(len(family_table(h.parent).irreducibles))
        rows = dict.fromkeys(range(len(irreducibles)), every)
    return [(irreducibles[i], columns) for i, columns in rows.items()]


def multiplicity_by_induction(h: Subgroup, rows=None) -> tuple[tuple[int, ...], ...]:
    """Entries <psi induced to G, chi>, G = `h.parent`, by decomposing each induction.

    `rows` maps the index of each subgroup-table row psi to compute to the
    indices of the columns chi (rows of the table of G) to compute in it,
    both in that order; by default every entry is computed.  Each row of the
    result holds the requested entries of one requested row.
    """
    tg = family_table(h.parent)
    return tuple(decompose(induce(psi, h), tg, None if rows is None else columns)
                 for psi, columns in _requested(h, rows))


def multiplicity_by_restriction(h: Subgroup, rows=None) -> tuple[tuple[int, ...], ...]:
    """The same entries computed as <chi restricted to H, psi>.

    A multiplicity is rational, so this equals <psi, chi restricted to H>,
    and it reads only the conjugate values of the subgroup-table rows.  Only
    the columns chi that some requested entry needs are restricted.
    """
    chis = family_table(h.parent).irreducibles
    requested = _requested(h, rows)
    needed = {c for _, columns in requested for c in columns}
    restricted = {c: restrict(chis[c], h) for c in needed}
    out = []
    for psi, columns in requested:
        row = []
        for c in columns:
            q = inner_product(restricted[c], psi).as_rational_integer()
            if q is None or q < 0:
                raise IntegralityError(
                    f"<{chis[c].name} restricted, {psi.name}> is not a nonnegative integer"
                )
            row.append(q)
        out.append(tuple(row))
    return tuple(out)


# -- symmetry orbits -----------------------------------------------------------


def multiplicity_matrix(h: Subgroup) -> MultiplicityMatrix:
    """Multiplicity matrix of the pair (`h.parent`, h), computed once per fusion key.

    The family group of h and its class fusion in G = `h.parent` fix every
    entry, so G keeps one matrix per key (family, n,
    `chars._class_fusion(h)`) and every subgroup with that key gets it: each
    conjugate of h, and h rebuilt from its members, among them.  One entry
    per orbit of (psi, chi) pairs under the Galois maps and twists is
    computed by both paths; `chars._matrix_totals` reads every other entry
    from its orbit's first.
    """
    matrices = _matrices(h.parent)
    key = (h.group.family, h.group.n, _class_fusion(h))
    if key not in matrices:
        matrices[key] = _orbit_matrix(h)
    return matrices[key]


@memoized
def _matrices(g: FiniteGroup) -> dict:
    """The multiplicity matrices of g's subgroups, by (family, n, class fusion)."""
    return {}


def _orbit_matrix(h: Subgroup) -> MultiplicityMatrix:
    g = h.parent

    def both_paths(reps):
        wanted: dict[int, list[int]] = {}
        for i, j in reps:
            wanted.setdefault(i, []).append(j)
        via_induction = multiplicity_by_induction(h, wanted)
        if via_induction != multiplicity_by_restriction(h, wanted):
            raise InternalConsistencyError(
                f"induce-path and restrict-path matrices disagree for "
                f"({g.name}, subgroup of order {h.order})"
            )
        return [q for row in via_induction for q in row]

    th, tg = subgroup_table(h), family_table(g)
    entries = tuple(map(tuple, _matrix_totals(h, both_paths)))
    degrees = [chi.degree.as_rational_integer() for chi in tg.irreducibles]
    for psi, row in zip(th.irreducibles, entries):
        total = sum(m * d for m, d in zip(row, degrees))
        want = h.index * psi.degree.as_rational_integer()
        if total != want:
            raise IntegralityError(
                f"row {psi.name} of the matrix for ({g.name}, subgroup of order {h.order}) "
                f"accounts for degree {total}, not {want}"
            )
    return MultiplicityMatrix(th.names, tg.names, entries)


def _trivial_row_index(h: Subgroup) -> int:
    for i, r in enumerate(subgroup_table(h).irreducibles):
        if all(v == 1 for v in r.values):
            return i
    raise InternalConsistencyError("subgroup table is missing the trivial character")


def is_gelfand(h: Subgroup) -> bool:
    """Whether inducing the trivial character of h to `h.parent` is multiplicity-free."""
    matrix = multiplicity_matrix(h)
    return all(e <= 1 for e in matrix.entries[_trivial_row_index(h)])


def is_strong_gelfand(h: Subgroup) -> tuple[bool, Witness | None]:
    """Whether every irreducible of h induced to `h.parent` is multiplicity-free, with witness."""
    witness = multiplicity_matrix(h).first_witness()
    return (witness is None, witness)


class SubgroupRecord(namedtuple("SubgroupRecord", "descriptor order index members gelfand "
                                                   "strong_gelfand witness")):
    """The verdicts on one subgroup; `witness` is None when it is strong Gelfand."""

    __slots__ = ()
    descriptor: str
    order: int
    index: int
    members: tuple[int, ...]
    gelfand: bool
    strong_gelfand: bool
    witness: Witness | None


class ClassificationReport(namedtuple("ClassificationReport", "group records subgroups")):
    """One `SubgroupRecord` per subgroup of `group`, aligned with `subgroups`."""

    __slots__ = ()
    group: FiniteGroup
    records: tuple[SubgroupRecord, ...]
    subgroups: tuple[Subgroup, ...]


def classify_subgroups(g: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> ClassificationReport:
    """One record per subgroup, in the deterministic all_subgroups order.

    Each matrix is computed once per fusion key, so once per conjugacy
    class of subgroups at most (`multiplicity_matrix`).
    """
    subgroups = all_subgroups(g, max_order)
    records = []
    for h in subgroups:
        strong, witness = is_strong_gelfand(h)
        records.append(SubgroupRecord(
            descriptor=describe_subgroup(h),
            order=h.order,
            index=h.index,
            members=h.members,
            gelfand=is_gelfand(h),
            strong_gelfand=strong,
            witness=witness,
        ))
    return ClassificationReport(g, tuple(records), tuple(subgroups))


class ClassificationRule(namedtuple("ClassificationRule", "family n")):
    """Closed-form prediction of the strong Gelfand subgroups of a family."""

    __slots__ = ()
    family: str
    n: int

    def predicate(self, descriptor: str) -> bool:
        n = self.n
        if self.family == "dihedral":
            if n <= 2:
                return True
            return (descriptor.startswith("<")
                    or descriptor.startswith("D")
                    or descriptor == f"C{n}"
                    or (n % 2 == 0 and descriptor == f"C{n // 2}"))
        if self.family == "dicyclic":
            if n == 1:
                return True
            return (descriptor.startswith("<")
                    or descriptor.startswith("Dic")
                    or descriptor in (f"C{n}", f"C{2 * n}"))
        # abelian families: every subgroup is strong Gelfand
        return True


def predict(family: str, n: int) -> ClassificationRule:
    """Prediction for the family group of parameter n.

    Dihedral: strong Gelfand subgroups are those containing a reflection
    (reflection and dihedral subgroups), the maximal rotation subgroup,
    and for even n the index-four rotation subgroup.  Dicyclic (n >= 2):
    the <ba^i>-type subgroups, the dicyclic subgroups, and the rotation
    subgroups of order n and 2n.  Abelian groups (cyclic, dihedral n <= 2,
    dicyclic n = 1) predict every subgroup.
    """
    _family(family, n)
    return ClassificationRule(family, n)


class AuditEntry(namedtuple("AuditEntry", "record predicted")):
    """A `SubgroupRecord` and the strong Gelfand verdict the rules predict for it."""

    __slots__ = ()
    record: SubgroupRecord
    predicted: bool

    @property
    def agrees(self) -> bool:
        return self.record.strong_gelfand == self.predicted


class GroupAudit(namedtuple("GroupAudit", "family n group_name entries")):
    """The `AuditEntry` of every subgroup of one family group."""

    __slots__ = ()
    family: str
    n: int
    group_name: str
    entries: tuple[AuditEntry, ...]

    @property
    def discrepancies(self) -> tuple[AuditEntry, ...]:
        """The entries whose prediction differs from the computed verdict."""
        return tuple(e for e in self.entries if not e.agrees)

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def disagree(self) -> int:
        return len(self.discrepancies)

    @property
    def agree(self) -> int:
        return self.total - self.disagree


class AuditReport(namedtuple("AuditReport", "family audits")):
    """The `GroupAudit` of each group of a family audited over a range of n."""

    __slots__ = ()
    family: str
    audits: tuple[GroupAudit, ...]

    @property
    def total_discrepancies(self) -> int:
        return sum(a.disagree for a in self.audits)


def _reverify_witness(h: Subgroup, witness: Witness) -> None:
    """Recompute one matrix entry through both paths, fresh, and compare."""
    psi = subgroup_table(h).row(witness.psi)
    chi = family_table(h.parent).row(witness.chi)
    via_induction = inner_product(induce(psi, h), chi).as_rational_integer()
    via_restriction = inner_product(psi, restrict(chi, h)).as_rational_integer()
    if not (via_induction == via_restriction == witness.mult and witness.mult >= 2):
        raise InternalConsistencyError(
            f"witness <{witness.psi}, {witness.chi}> = {witness.mult} failed "
            f"re-verification ({via_induction} vs {via_restriction})"
        )


def audit_group(g: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> GroupAudit:
    """Diff the brute-force classification of one family group against the rules."""
    prediction = predict(g.family, g.n)
    report = classify_subgroups(g, max_order)
    entries = []
    for h, record in zip(report.subgroups, report.records):
        if record.witness is not None:
            _reverify_witness(h, record.witness)
        entries.append(AuditEntry(record, prediction.predicate(record.descriptor)))
    return GroupAudit(g.family, g.n, g.name, tuple(entries))


def audit(family: str, ns, max_order: int = DEFAULT_MAX_ORDER) -> AuditReport:
    """Audit a family over a range of n values; discrepancies are data."""
    audits = map_family(family, ns, lambda g: audit_group(g, max_order), max_order)
    return AuditReport(family, tuple(audits))
