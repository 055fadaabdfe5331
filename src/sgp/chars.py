"""Class functions, family character tables, and the induction calculus.

Character values are exact `Cyclotomic` elements indexed by conjugacy
class.  The closed-form family tables follow the printed conventions of
the families: cyclic rows mu_k, dihedral rows chi_1..chi_4 / psi_j,
dicyclic rows theta_1..theta_4 / pi_j / gamma_k for odd n and the
dihedral-shaped chi/psi rows for even n.  An independent constructive
route (`constructive_family_table`) rebuilds the nonabelian tables from
brute-forced linear characters plus inductions from the maximal rotation
subgroup and is used as an oracle against the closed forms.

A subgroup's table is the family table of `h.group`; `restrict`, `induce`
and the matrices of `gelfand` reach the parent only through the class
fusion `_class_fusion(h)`, the parent class of each class of `h.group`.

Every exact sum over classes goes through the one kernel
`cyclo.weighted_product_sums`: `inner_product` is its one-column call,
and `decompose` makes one call for all the rows it is asked for, over
only the classes where its character is nonzero.

`validate_table` checks the row count, the degrees and the first
orthogonality relation exactly; for a square table the second relation
follows from the first.  It computes one sum per orbit of row pairs under
the table's Galois maps sigma_t (the row permutations that class power
maps induce) and its twists (the row permutations r -> r * lambda for
each linear row lambda).  Each map is memoized on its table by its label
(`_galois_map`, `_twist_map`), so it is checked when it is first asked
for, and each table keeps one list of the labels whose maps generate the
rest (`_generators`); no map is composed, and a map that fails its check
is kept as None and not used, so a bad table is reported, never raised
on.  One orbit routine, `_orbit_totals`, fills one grid of those pairs:
it closes each orbit by a breadth-first search over the generators' maps,
computes one total per orbit and reads the rest from it; it also fills
the (psi, chi) pairs of a multiplicity matrix in `gelfand`, which acts on
them by the generators' maps of G and the maps of H they read as.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .cyclo import Cyclotomic, rational, weighted_product_sum, weighted_product_sums, zeta
from .errors import (
    DomainMismatchError,
    IntegralityError,
    InternalConsistencyError,
    InvalidLiftError,
    OracleFailureError,
)
from .groups import (
    FiniteGroup,
    Frozen,
    Subgroup,
    conjugacy_classes,
    generated_subgroup,
    memoized,
)

__all__ = [
    "ClassFunction",
    "CharacterTable",
    "TableValidation",
    "inner_product",
    "restrict",
    "induce",
    "family_table",
    "subgroup_table",
    "validate_table",
    "decompose",
    "linear_characters_bruteforce",
    "constructive_family_table",
    "trivial_character",
    "regular_character",
]

# The builders below make each distinct value of a table once and share
# it across the cells that hold it; these constants are shared by all.
_ONE = rational(1)
_ZERO = rational(0)
_MINUS_ONE = rational(-1)
_I = zeta(4, 1)
_MINUS_I = -_I


def _sign(k: int) -> Cyclotomic:
    """(-1)^k; -(-1)^k is _sign(k + 1)."""
    return _ONE if k % 2 == 0 else _MINUS_ONE


def _i_sign(k: int) -> Cyclotomic:
    """zeta_4 (-1)^k."""
    return _I if k % 2 == 0 else _MINUS_I


class ClassFunction(Frozen):
    """A function on a group constant on conjugacy classes.

    Immutable, and equal to a function with the same group, values and name.
    """

    _fields = ("group", "values", "name")

    def __init__(self, group: FiniteGroup, values: tuple[Cyclotomic, ...], name: str = ""):
        values = tuple(values)
        k = len(conjugacy_classes(group).reps)
        if len(values) != k:
            raise DomainMismatchError(f"{len(values)} values supplied for {k} conjugacy classes")
        self._set(group=group, values=values, name=name)

    @property
    def degree(self) -> Cyclotomic:
        return self.values[0]

    def value_on_element(self, i: int) -> Cyclotomic:
        return self.values[conjugacy_classes(self.group).class_of[i]]

    @functools.cached_property
    def conj_values(self) -> tuple[Cyclotomic, ...]:
        """Complex conjugates of the values, computed once per function."""
        return tuple(v.conj() for v in self.values)

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.values)
        return f"<ClassFunction {self.name or '?'} on {self.group.name}: [{vals}]>"


class CharacterTable(Frozen):
    """An ordered list of irreducible characters of one group.

    Immutable, and equal to a table with the same group, rows and provenance.
    """

    _fields = ("group", "irreducibles", "provenance")

    def __init__(self, group: FiniteGroup, irreducibles: tuple[ClassFunction, ...],
                 provenance: str = "closed-form"):
        self._set(group=group, irreducibles=tuple(irreducibles), provenance=provenance)

    def __repr__(self):
        return (f"CharacterTable(group={self.group!r}, irreducibles={self.irreducibles!r}, "
                f"provenance={self.provenance!r})")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.irreducibles)

    def row(self, name: str) -> ClassFunction:
        for f in self.irreducibles:
            if f.name == name:
                return f
        raise KeyError(f"no row named {name!r} in table of {self.group.name}")


def trivial_character(g: FiniteGroup, name: str = "1") -> ClassFunction:
    k = len(conjugacy_classes(g).reps)
    return ClassFunction(g, (_ONE,) * k, name)


def regular_character(g: FiniteGroup) -> ClassFunction:
    k = len(conjugacy_classes(g).reps)
    values = [rational(g.order)] + [_ZERO] * (k - 1)
    return ClassFunction(g, tuple(values), "regular")


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    """(1/|G|) * sum over classes of size * f * conj(g), exactly."""
    if f.group is not g.group:
        raise DomainMismatchError("inner product requires class functions on the same group")
    total = weighted_product_sum(f.values, g.conj_values, conjugacy_classes(f.group).sizes)
    return total / f.group.order


@memoized
def _class_fusion(h: Subgroup) -> tuple[int, ...]:
    """The parent class holding each class of `h.group`, read at its representative."""
    class_of = conjugacy_classes(h.parent).class_of
    emb = h.embedding()
    return tuple(class_of[emb[rep]] for rep in conjugacy_classes(h.group).reps)


def restrict(f: ClassFunction, h: Subgroup) -> ClassFunction:
    """Restriction of f to the subgroup h, as a class function on h."""
    if f.group is not h.parent:
        raise DomainMismatchError("can only restrict to a subgroup of the function's group")
    hg = h.group
    name = f"{f.name}↓{hg.name}" if f.name else ""
    return ClassFunction(hg, tuple(map(f.values.__getitem__, _class_fusion(h))), name)


def induce(f: ClassFunction, h: Subgroup) -> ClassFunction:
    """Frobenius induction of f from the subgroup h to its parent.

    (f^G)(g) = (1/|H|) * sum over x in G of f0(x g x^-1), with f0 zero
    outside H.  Each element of the class c of g is some x g x^-1 for
    |G|/|c| values of x, so (f^G)(g) = |G|/(|H| |c|) times the sum of
    |d| f(d) over the classes d of H that the class fusion sends to c.
    Only the classes the fusion reaches are scaled; every other class,
    where f^G vanishes, keeps the order-1 zero.
    """
    hg = h.group
    if f.group is not hg:
        raise DomainMismatchError("function must live on the subgroup being induced from")
    g = h.parent
    sizes = conjugacy_classes(g).sizes
    sums = {}
    for c, size, v in zip(_class_fusion(h), conjugacy_classes(hg).sizes, f.values):
        sums[c] = sums.get(c, _ZERO) + v * size
    values = [_ZERO] * len(sizes)
    for c, acc in sums.items():
        values[c] = acc * Fraction(g.order, h.order * sizes[c])
    name = f"{f.name}↑{g.name}" if f.name else ""
    return ClassFunction(g, tuple(values), name)


# -- closed-form family tables ---------------------------------------------


def _cyclic_rows(g: FiniteGroup, gen: int) -> list[ClassFunction]:
    """Rows mu_k(gen^r) = zeta_d^(k*r) for a cyclic group of order d."""
    d = g.order
    walk = g.powers(gen)
    if len(walk) != d:
        raise InternalConsistencyError("chosen generator does not generate the cyclic group")
    dlog = {x: r for r, x in enumerate(walk)}
    logs = [dlog[rep] for rep in conjugacy_classes(g).reps]
    roots = [zeta(d, i) for i in range(d)]
    return [ClassFunction(g, tuple(roots[k * r % d] for r in logs), f"μ_{k}")
            for k in range(d)]


def _row(g: FiniteGroup, fn, name: str) -> ClassFunction:
    """The class function taking the value fn(rep) on the class of each representative."""
    return ClassFunction(g, tuple(fn(e) for e in conjugacy_classes(g).reps), name)


@memoized
def _pair_value(g: FiniteGroup, m: int, k: int) -> Cyclotomic:
    """zeta_m^k + zeta_m^-k, made once per group and shared by every pair row of its table."""
    return zeta(m, k) + zeta(m, -k)


def _pair_row(g: FiniteGroup, m: int, s: int, rot: int, name: str) -> ClassFunction:
    """zeta_m^(s e) + zeta_m^(-s e) on the rotations e < rot, 0 elsewhere."""
    return _row(g, lambda e: _pair_value(g, m, s * e % m) if e < rot else _ZERO, name)


def _dihedral_rows(g: FiniteGroup, n: int) -> list[ClassFunction]:
    """Rows chi/psi of a group whose rotations are the elements below n."""
    rows = [
        _row(g, lambda e: _ONE, "χ_1"),
        _row(g, lambda e: _ONE if e < n else _MINUS_ONE, "χ_2"),
    ]
    if n % 2 == 0:
        rows.append(_row(g, lambda e: _sign(e) if e < n else _sign(e - n), "χ_3"))
        rows.append(_row(g, lambda e: _sign(e) if e < n else _sign(e - n + 1), "χ_4"))
    rows.extend(_pair_row(g, n, j, n, f"ψ_{j}") for j in range(1, (n - 1) // 2 + 1))
    return rows


def _dicyclic_rows(g: FiniteGroup) -> list[ClassFunction]:
    n = g.n
    m = 2 * n
    if n % 2 == 0:
        # dihedral-shaped table with rotation order 2n; the class of
        # b^2 = a^n plays the central column.
        return _dihedral_rows(g, m)
    # 1 <= j, k <= (n-1)/2; pi_j comes from even rotation exponents 2j,
    # gamma_k from odd exponents 2k-1 (the central value -2 forces odd).
    half = range(1, (n - 1) // 2 + 1)
    return [
        _row(g, lambda e: _ONE, "θ_1"),
        _row(g, lambda e: _ONE if e < m else _MINUS_ONE, "θ_2"),
        _row(g, lambda e: _sign(e) if e < m else _i_sign(e - m), "θ_3"),
        _row(g, lambda e: _sign(e) if e < m else _i_sign(e - m + 1), "θ_4"),
        *(_pair_row(g, n, j, m, f"π_{j}") for j in half),
        *(_pair_row(g, m, 2 * k - 1, m, f"γ_{k}") for k in half),
    ]


@memoized
def family_table(g: FiniteGroup) -> CharacterTable:
    """The closed-form character table of a family-constructed group."""
    if g.family == "cyclic":
        rows = _cyclic_rows(g, g.gens["a"])
    elif g.family == "dihedral":
        rows = _dihedral_rows(g, g.n)
    elif g.n == 1:  # Dic4 is cyclic, generated by b
        rows = _cyclic_rows(g, g.gens["b"])
    else:
        rows = _dicyclic_rows(g)
    return CharacterTable(g, tuple(rows), "closed-form")


def subgroup_table(h: Subgroup) -> CharacterTable:
    """Irreducible characters of a subgroup: the closed-form table of `h.group`.

    Every subgroup of a cyclic, dihedral or dicyclic group is again cyclic,
    dihedral or dicyclic, and `h.group` is that family group;
    `_class_fusion(h)` maps its classes into the parent.
    """
    return family_table(h.group)


# -- symmetries of a table -------------------------------------------------------
#
# Two kinds of exact map permute the rows of a table and fix every inner
# product of rows.  For t a unit mod the exponent e of the group, the Galois
# map sigma_t: zeta -> zeta^t sends a character psi to x -> psi(x^t): it
# reads every row through the class power map c -> class(rep_c^t).  For a
# linear row lambda whose values are powers of zeta_e, the twist sends each
# row r to r * lambda, and since |lambda| = 1,
# <r_i lambda, r_j lambda> = <r_i, r_j> (Isaacs, Character Theory of Finite
# Groups, ch. 5).  Which row a map gives is found by exact keys: each value
# is lifted to Q(zeta_e), with equal values sharing one small integer id,
# so a row is a tuple of ids.  Each map is kept as its row permutation,
# memoized on its table by its label, so it is checked when it is first
# asked for; the class map of sigma_t is checked and read only to find its
# row permutation, since validation sums over row pairs alone.  The maps of
# each kind that pass their checks compose: rep^(st) = (rep^s)^t, so
# sigma_st has row map perm_s . perm_t, and the twist by lambda mu is the
# twist by mu followed by the twist by lambda.  So the
# passing maps form a group, and `_generators` checks only the labels
# outside the group generated by those that passed before them; it
# multiplies labels, and no map is ever composed.


def _class_power_map(group: FiniteGroup, t: int) -> tuple[int, ...]:
    """The class of rep^t, for the representative rep of each class."""
    cls = conjugacy_classes(group)
    return tuple(cls.class_of[group.power(rep, t)] for rep in cls.reps)


@memoized
def _value_ids(table: CharacterTable) -> tuple[dict, tuple, dict, dict, dict]:
    """The values of `table` keyed exactly in Q(zeta_e), e the exponent of its group.

    Returns (keys, rows, index, roots, powers): `keys` maps the key of each
    value to its id, equal values sharing one; `rows` holds each row as the
    tuple of its ids and `index` the row index of each such tuple; `roots`
    maps k to the id of zeta_e^k, for each power of zeta_e that is a value
    of the table, and `powers` maps each such id back to k.  All five are
    empty when a value lies outside Q(zeta_e).  Each distinct value object
    is keyed once, however many cells hold it.
    """
    e = table.group.exponent()
    values = {id(v): v for psi in table.irreducibles for v in psi.values}
    keys: dict = {}
    try:
        ids = {i: keys.setdefault(v.key(e), len(keys)) for i, v in values.items()}
    except InvalidLiftError:
        return {}, (), {}, {}, {}
    rows = tuple(tuple(map(ids.__getitem__, map(id, psi.values))) for psi in table.irreducibles)
    root_keys = ((k, zeta(e, k).key(e)) for k in range(e))
    roots = {k: keys[key] for k, key in root_keys if key in keys}
    powers = {v: k for k, v in roots.items()}
    return keys, rows, {row: i for i, row in enumerate(rows)}, roots, powers


@memoized
def _galois_map(table: CharacterTable, t: int) -> tuple[int, ...] | None:
    """sigma_t, t a unit mod the exponent, as its row permutation, or None.

    Row j goes to row perm[j], the row equal to row j read through the class
    power map cmap (the value row j takes at class cmap[c], at each class
    c).  The class map must be a bijection that keeps class sizes, and the
    row map a bijection; maps that fail either check give None, and so does
    every t when two rows are equal or a value lies outside Q(zeta_e).
    """
    sizes = conjugacy_classes(table.group).sizes
    _, rows, index, _, _ = _value_ids(table)
    cmap = _class_power_map(table.group, t)
    if not (len(index) == len(table.irreducibles) and sorted(cmap) == list(range(len(sizes)))
            and all(sizes[d] == size for d, size in zip(cmap, sizes))):
        return None
    perm = tuple(index.get(tuple(map(row.__getitem__, cmap))) for row in rows)
    if None in perm or len(set(perm)) != len(rows):
        return None
    return perm


@memoized
def _twist_map(table: CharacterTable, j: int) -> tuple[int, ...] | None:
    """The twist by the linear row lambda = r_j: the permutation i -> index of r_i * lambda.

    The twist is used only if every value of lambda is a power of zeta_e
    and the rows r_i * lambda are distinct rows of the table; otherwise it
    is None, and so is every twist when two rows are equal or a value lies
    outside Q(zeta_e).  The product rows are made in ids: a power of zeta_e
    times one is an exponent sum, and any other value is multiplied once
    per distinct (value, nonzero power) pair.
    """
    e = table.group.exponent()
    keys, rows, index, roots, power_of = _value_ids(table)
    distinct = len(index) == len(table.irreducibles)
    powers = [power_of.get(v) for v in rows[j]] if distinct else [None]
    if None in powers:
        return None
    if not any(powers):  # lambda = 1 fixes every row
        return tuple(range(len(rows)))
    products = {(v, 0): v for v in keys.values()}  # x * zeta_e^0 is x
    perm = []
    for row, psi in zip(rows, table.irreducibles):
        twisted = []
        for v, k, x in zip(row, powers, psi.values):
            p = power_of.get(v)
            if p is not None:
                twisted.append(roots.get((p + k) % e))
                continue
            if (v, k) not in products:
                products[v, k] = keys.get((x * zeta(e, k)).key(e))
            twisted.append(products[v, k])
        perm.append(index.get(tuple(twisted)))
    if None in perm or len(set(perm)) != len(perm):
        return None
    return tuple(perm)


@memoized
def _generators(table: CharacterTable) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """(units, linear_rows, every): labels whose maps generate every map of `table` that passes.

    Units t label the Galois maps and multiply as s t mod e; linear rows j
    label the twists and multiply as perm_j[s], the row r_s * r_j.  Labels
    are taken in increasing order, and one is checked only when it lies
    outside the group generated by the passing labels before it.  The
    identity is checked but is no generator: its map moves nothing.  The
    passing labels are closed under products, so a label that fails is
    never reached, and `every` says whether every label of both kinds passes.
    """
    e = table.group.exponent()
    units, every_unit = _generate([t for t in range(e) if math.gcd(t, e) == 1],
                                  functools.partial(_galois_map, table),
                                  lambda s, t, _: s * t % e)
    linear, every_row = _generate([j for j, psi in enumerate(table.irreducibles) if psi.degree == 1],
                                  functools.partial(_twist_map, table),
                                  lambda s, _, perm: perm[s])
    return units, linear, every_unit and every_row


def _generate(labels, check, times) -> tuple[tuple, bool]:
    """The generators among `labels`, found as `_generators` says, and whether they reach all.

    `check(t)` is the map of t, or None; `times(s, t, map_t)` is the label
    s t.  The group reached so far times the powers of a new generator t is
    closed by walking each coset s, s t, s t^2, ... until it meets a label
    already reached, so each map is read from its one check.
    """
    reached: set = set()
    generators = []
    for t in labels:
        map_t = None if t in reached else check(t)
        if map_t is None:
            continue
        if times(t, t, map_t) != t:  # the identity moves nothing
            generators.append(t)
        reached.add(t)
        for s in list(reached):
            st = times(s, t, map_t)
            while st not in reached:
                reached.add(st)
                st = times(st, t, map_t)
    return tuple(generators), len(reached) == len(labels)


def _restricted_row(h: Subgroup, j: int) -> int | None:
    """The row of `subgroup_table(h)` equal to row j of the parent's table read through the fusion.

    Row j must be a twist of the parent's table, so each of its values is a
    power zeta_e^k, e the parent's exponent.  On H that value is
    zeta_f^(k f / e), f the exponent of H; a value with k f / e no integer,
    or powers that make no row of H, give None.
    """
    _, rows_g, _, _, power_of = _value_ids(family_table(h.parent))
    _, _, index_h, roots_h, _ = _value_ids(subgroup_table(h))
    ratio = h.parent.exponent() // h.group.exponent()
    powers = [power_of[rows_g[j][c]] for c in _class_fusion(h)]
    if any(k % ratio for k in powers):
        return None
    return index_h.get(tuple(roots_h.get(k // ratio) for k in powers))


def _orbit_totals(n_rows: int, n_cols: int, maps, totals_of, symmetric: bool = False) -> list:
    """The total of each pair (i, j), i < n_rows, j < n_cols, as a grid of rows.

    A map (p, q) sends the pair (i, j) to (p[i], q[j]), and each map must
    fix the total.  The maps need only generate the group that fixes the
    totals: each orbit is closed by a breadth-first search over them.  With
    `symmetric`, every map has p = q, only the pairs i <= j are filled, the
    pair (j, i) stands for the conjugate of (i, j), and the cells below the
    diagonal stay None.  Pairs are taken in row-major order; a pair that no
    earlier orbit reached is its orbit's representative.  A cell first
    holds a marker, the index k of its representative (~k for the
    conjugate), written when the search first reaches it.
    `totals_of(reps)` is called once, with the representatives in order,
    and returns their totals in that order; each marker is then replaced by
    its total or that total's conjugate.
    """
    grid = [[None] * n_cols for _ in range(n_rows)]
    reps = []
    for i, row in enumerate(grid):
        for j in range(i if symmetric else 0, n_cols):
            if row[j] is None:
                row[j] = len(reps)
                reps.append((i, j))
                layer = [(i, j)]
                while layer:  # only one layer of the search is held
                    found = []
                    for a, b in layer:
                        marker = grid[a][b]
                        for p, q in maps:
                            x, y, m = p[a], q[b], marker
                            if symmetric and x > y:
                                x, y, m = y, x, ~marker
                            if grid[x][y] is None:
                                grid[x][y] = m
                                found.append((x, y))
                    layer = found
    totals = totals_of(reps)
    for row in grid:  # one row at a time, so no second grid is held
        row[:] = [m if m is None else totals[m] if m >= 0 else totals[~m].conj() for m in row]
    return grid


# -- validation and decomposition --------------------------------------------


class TableValidation(namedtuple("TableValidation", "passed failures")):
    """Whether a table passed `validate_table`, and each failure found, in order."""

    __slots__ = ()
    passed: bool
    failures: tuple[str, ...]


def validate_table(t: CharacterTable) -> TableValidation:
    """Check row count, degrees, and the first orthogonality relation exactly.

    The second relation, on columns, follows: with as many rows as classes,
    B[i][c] = r_i(c) sqrt(|c| / |G|) is square, the first relation says
    B B* = I, so B* B = I, which is the column relation, and its column at
    the identity says that the squared degrees sum to |G| (Isaacs,
    Character Theory of Finite Groups, Thm 2.18).
    Each sum is computed once per orbit of its pair under the maps of `t`
    that pass their checks, given to `_orbit_totals` by the maps of their
    generators (`_generators`), the only maps checked.
    Galois maps (`_galois_map`): if row r_i read through the class power
    map cmap is row r_p[i], and cmap keeps class sizes, then re-indexing
    gives <r_p[i], r_p[j]> = <r_i, r_j>.  Twists (`_twist_map`): if
    r_i * lambda is r_p[i] and every value of lambda is a root of unity,
    then <r_p[i], r_p[j]> = <r_i, r_j>.  A table whose maps fail their
    checks has every pair computed; validation never raises on a bad table.
    """
    failures: list[str] = []
    g = t.group
    cls = conjugacy_classes(g)
    rows = t.irreducibles
    if len(rows) != len(cls.reps):
        failures.append(f"row count {len(rows)} != class count {len(cls.reps)}")
    for r in rows:
        d = r.degree.as_rational_integer()
        if d is None or d < 1:
            failures.append(f"row {r.name}: degree {r.degree} is not a positive integer")
    order = g.order
    units, linear, _ = _generators(t)
    perms = [_galois_map(t, u) for u in units] + [_twist_map(t, j) for j in linear]
    row_totals = _orbit_totals(
        len(rows), len(rows), [(perm, perm) for perm in perms],
        lambda reps: [weighted_product_sum(rows[i].values, rows[j].conj_values, cls.sizes)
                      for i, j in reps], symmetric=True)
    for i, ri in enumerate(rows):
        for j in range(i, len(rows)):
            total = row_totals[i][j]
            want = order if i == j else 0
            if total != want:
                failures.append(
                    f"row orthogonality <{ri.name},{rows[j].name}> = "
                    f"{total * Fraction(1, order)}, expected {1 if i == j else 0}"
                )
    return TableValidation(not failures, tuple(failures))


def decompose(f: ClassFunction, t: CharacterTable, rows=None) -> tuple[int, ...]:
    """Multiplicities <f, chi> for each row chi, certified nonnegative integers.

    `rows` lists the indices of the rows chi to compute, in that order; by
    default every row is computed, and then the multiplicities must account
    for the degree of f.  The classes where f is nonzero are found once, and
    one `weighted_product_sums` call sums size * f * conj(chi) over them for
    every row; each total, divided by |G|, must be a nonnegative integer.
    An induced character vanishes off the classes its subgroup meets, so
    its support is often a small part of the classes.
    """
    g = f.group
    if g is not t.group:
        raise DomainMismatchError("function and table must live on the same group")
    chosen = t.irreducibles if rows is None else [t.irreducibles[c] for c in rows]
    support = [c for c, v in enumerate(f.values) if v]
    sizes = conjugacy_classes(g).sizes
    totals = weighted_product_sums(
        [f.values[c] for c in support],
        [[r.conj_values[c] for c in support] for r in chosen],
        [sizes[c] for c in support])
    mults = []
    for r, total in zip(chosen, totals):
        q = (total / g.order).as_rational_integer()
        if q is None or q < 0:
            raise IntegralityError(
                f"<{f.name or 'f'}, {r.name}> is not a nonnegative integer"
            )
        mults.append(q)
    deg_f = f.degree.as_rational_integer()
    if rows is None and deg_f is not None:
        total = sum(m * r.degree.as_rational_integer() for m, r in zip(mults, t.irreducibles))
        if total != deg_f:
            raise IntegralityError(
                f"decomposition of {f.name or 'f'} accounts for degree {total}, not {deg_f}"
            )
    return tuple(mults)


# -- independent constructive route ------------------------------------------


def linear_characters_bruteforce(g: FiniteGroup) -> list[ClassFunction]:
    """All homomorphisms g -> roots of unity, found by exhaustive assignment.

    Each labeled generator is assigned a root of unity of order dividing
    the generator's order; the assignment extends breadth-first from the
    identity along right multiplication by the generators, and survives
    only if multiplication by each generator is respected everywhere
    (which forces a homomorphism).
    """
    gen_idx = [i for _, i in sorted(g.gens.items())]
    gen_ord = [g.element_order(i) for i in gen_idx]
    cls = conjugacy_classes(g)
    found: list[ClassFunction] = []
    for assignment in itertools.product(*(range(o) for o in gen_ord)):
        images = [zeta(order, exp) for order, exp in zip(gen_ord, assignment)]
        values = [None] * g.order
        values[g.identity] = _ONE
        frontier = [g.identity]
        for x in frontier:
            row = g.mul[x]
            for s, z in zip(gen_idx, images):
                if values[row[s]] is None:
                    values[row[s]] = values[x] * z
                    frontier.append(row[s])
        ok = True
        for gi in gen_idx:
            vg = values[gi]
            row = g.mul[gi]
            for e in range(g.order):
                if values[row[e]] != vg * values[e]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            row_values = tuple(values[rep] for rep in cls.reps)
            found.append(ClassFunction(g, row_values, f"λ_{len(found)}"))
    return found


def constructive_family_table(g: FiniteGroup) -> CharacterTable:
    """Independent table reconstruction used as an oracle for family_table.

    Linear rows come from the brute-force homomorphism search; the
    remaining irreducibles are inductions of the rotation subgroup's
    characters filtered by self-inner-product exactly 1, deduplicated.
    """
    cls = conjugacy_classes(g)
    rows = list(linear_characters_bruteforce(g))
    if len(rows) < len(cls.reps):
        rotation = generated_subgroup(g, [g.gens["a"]])
        seen = [r.values for r in rows]
        for mu in subgroup_table(rotation).irreducibles:
            f = induce(mu, rotation)
            if inner_product(f, f) == 1 and f.values not in seen:
                rows.append(f)
                seen.append(f.values)
    if len(rows) != len(cls.reps):
        raise OracleFailureError(
            f"constructive reconstruction found {len(rows)} of {len(cls.reps)} rows"
        )
    table = CharacterTable(g, tuple(rows), "constructive")
    check = validate_table(table)
    if not check.passed:
        raise OracleFailureError(
            "constructive table failed validation: " + "; ".join(check.failures)
        )
    return table
