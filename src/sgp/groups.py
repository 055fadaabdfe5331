"""Cayley-table models of the cyclic, dihedral and dicyclic families.

Elements are integers 0..order-1 with display labels in normal form:
rotations ``a^i`` come first, then ``b a^i`` for the families with a second
generator.  In the dicyclic group of order 4n the rotation a has order 2n
and b^2 = a^n, so labels like ``b^2`` or ``b^3a^i`` never appear; they
reduce to the ``a^i`` / ``ba^i`` forms.

The three families are the only kind of group, and a group is made from
its family and n alone: `FiniteGroup(family, n)`, which `build_group` and
the three family constructors call.  `FAMILIES` gives each family's table
builder, order factor and name prefix, and `_family(family, n)` is the one
check of the pair, refusing a bad n before an unknown family, so no
function downstream checks either again.  No table comes in from outside,
so no group carries a family tag its table does not have.  Every built
table is still self-checked: each row a permutation, the identity and
inverse laws, the generators reaching every element, and associativity
exhaustively by Light's test over the group's generators, which make it a
group's table and so a Latin square; a failure is the package's own fault
and raises `InternalConsistencyError`.  Groups and subgroups, like the class
functions and tables of `chars`, are `Frozen`: immutable after
construction.  All functions are pure, so enumeration
over different groups can run in parallel with no shared state other than
the cycle collector, which is interpreter-wide: `map_family` freezes it
for the length of a sweep, and a nested or concurrent sweep that
unfreezes early costs only speed.  What is derived from a group, subgroup
or table (classes, tables, Galois maps, family groups, matrices) is
computed once by `memoized`, per object and arguments, and kept on that
object.

Each row of a family table is a rotated slice of one shared list of the
elements (two lists, one per coset of <a>, for the dihedral and dicyclic
families), so a table of order N is built in O(N) slices and holds N int
objects however large N is.  Conjugacy classes are orbits under
conjugation by the generators, O(N * generators) steps.  Each group walks
the powers of every element once (`FiniteGroup.powers`), and element
orders, powers, the exponent and cyclic subgroups are read off those
walks.

Every subgroup of a cyclic, dihedral or dicyclic group is again one of
these.  `Subgroup.group` is that family group (the parent when full, else
the parent's one family group of that type) and `Subgroup.embedding()` the
parent element each of its elements stands for.  Both are read off the
members alone: `subgroup_structure` picks each generator as the least
element by (parent class, index), so conjugate subgroups pick generators
from the same parent classes and share one class fusion.  The trivial
subgroup is the cyclic subgroup generated by the identity.  A subgroup
names its group as `Subgroup.parent`, so a function of subgroups
(`are_conjugate_subgroups`, and every function of `gelfand`) takes no
group beside them.
"""

from __future__ import annotations

import functools
import gc
import math
import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    SizeLimitError,
    UnsupportedFamilyError,
)

__all__ = [
    "FiniteGroup",
    "FAMILIES",
    "ConjugacyClasses",
    "Subgroup",
    "cyclic_group",
    "dihedral_group",
    "dicyclic_group",
    "build_group",
    "map_family",
    "family_order",
    "check_order",
    "conjugacy_classes",
    "generated_subgroup",
    "trivial_subgroup",
    "full_subgroup",
    "all_subgroups",
    "describe_subgroup",
    "subgroup_structure",
    "are_conjugate_subgroups",
    "DEFAULT_MAX_ORDER",
]

DEFAULT_MAX_ORDER = 256

_WORD_TOKEN = re.compile(r"([a-z])(?:\^(-?\d+))?")


def memoized(fn):
    """Compute `fn(x, *args)` once per object and arguments, and keep it on `x`.

    Each value then lives and dies with the group, subgroup or table it
    describes.  The key is the function's name with a leading underscore,
    so a memoized method is not shadowed by its own value: `x.__dict__[key]`
    holds the value of `fn(x)`, or, for a function of more arguments, a
    dict of its values by the tuple of those arguments.
    """
    key = "_" + fn.__name__

    @functools.wraps(fn)
    def wrapper(x, *args):
        if not args:
            try:
                return x.__dict__[key]
            except KeyError:
                value = x.__dict__[key] = fn(x)
                return value
        memo = x.__dict__.get(key)
        if memo is None:
            memo = x.__dict__[key] = {}
        try:
            return memo[args]
        except KeyError:
            value = memo[args] = fn(x, *args)
            return value

    return wrapper


class Frozen:
    """An immutable object, equal to an object of its class with equal `_fields`.

    A subclass writes its fields once, at construction, with `_set`; a
    class that lists no fields is equal only to itself.  `memoized` keeps
    what is derived from the fields in `__dict__`.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields):
        # object.__setattr__ keeps fields as the instance's inline values, so
        # an object that memoizes nothing needs no dict of its own: a
        # ClassFunction takes 104 bytes, against 248 when its fields are
        # written with `self.__dict__.update` (Python 3.11)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or bool(self._fields) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key()) if self._fields else object.__hash__(self)


def _verify_table(mul, gens) -> tuple[int, ...]:
    """Check the group laws of the table `mul` with identity 0 and return its inverse table.

    Every row must be a permutation, which keeps every later index in
    range.  Associativity is Light's test over the generators: (xy)s = x(ys)
    for every generator s and all x, y.  The elements z with (xy)z = x(yz)
    for all x, y are closed under the product, so the test covers the whole
    table once the generators reach every element from the identity.  With
    the identity and two-sided inverses the table is then a group's, so
    every column is a permutation as well.  Only the package's own family
    tables reach this check, so a failing law is the package's fault and
    raises `InternalConsistencyError`.
    """
    order, identity = len(mul), 0
    everything = frozenset(range(order))
    for i, row in enumerate(mul):
        if len(row) != order or set(row) != everything:
            raise InternalConsistencyError(f"row {i} of the multiplication table is not a permutation")
    for i in range(order):
        if mul[identity][i] != i or mul[i][identity] != i:
            raise InternalConsistencyError("identity law fails")
    inv = []
    for i in range(order):
        j = mul[i].index(identity)
        if mul[j][i] != identity:
            raise InternalConsistencyError(f"element {i} has no two-sided inverse")
        inv.append(j)
    gens = tuple(gens)
    if len(_closure(mul, gens)) != order:
        raise InternalConsistencyError("the generators do not generate the whole table")
    for s in gens:
        col = [row[s] for row in mul]
        for x, row in enumerate(mul):
            # ((x y) s for all y) against (x (y s) for all y)
            if list(map(col.__getitem__, row)) != list(map(row.__getitem__, col)):
                raise InternalConsistencyError(f"associativity fails at x={x}, s={s}")
    return tuple(inv)


class FiniteGroup(Frozen):
    """An immutable group of one of the `FAMILIES`, made from its family and n alone.

    `_family` refuses an n that is not an int of at least 1 with
    `InvalidParameterError`, then a family outside `FAMILIES` with
    `UnsupportedFamilyError`, since subgroup enumeration and the
    closed-form tables are complete only for these families.  The family's
    builder makes the table, labels and generators (`gens` maps generator
    letters to elements), and `_verify_table` checks the group laws.  The
    group's `name` is the family's prefix and the order.  A group is equal
    only to itself.
    """

    def __init__(self, family: str, n: int):
        build, factor, prefix = _family(family, n)
        mul, labels, gens = build(n)
        mul = tuple(tuple(row) for row in mul)
        self._set(order=len(mul), identity=0, mul=mul, inv=_verify_table(mul, gens.values()),
                  labels=tuple(labels), family=family, n=n, gens=gens, name=f"{prefix}{factor * n}")

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} order={self.order}>"

    def conjugate(self, g: int, x: int) -> int:
        """x g x^-1."""
        return self.mul[self.mul[x][g]][self.inv[x]]

    @memoized
    def _power_walks(self) -> tuple[tuple[int, ...], ...]:
        walks = []
        for x in range(self.order):
            walk, acc = [self.identity], x
            while acc != self.identity:
                walk.append(acc)
                acc = self.mul[acc][x]
            walks.append(tuple(walk))
        return tuple(walks)

    def powers(self, i: int) -> tuple[int, ...]:
        """(i^0, i^1, ..., i^(o-1)) for o the order of i, walked once per group."""
        return self._power_walks()[i]

    def power(self, i: int, k: int) -> int:
        walk = self.powers(i)
        return walk[k % len(walk)]

    def element_order(self, i: int) -> int:
        return len(self.powers(i))

    def exponent(self) -> int:
        """The least common multiple of the element orders."""
        return math.lcm(*map(len, self._power_walks()))

    def element(self, word: str) -> int:
        """Parse a normal-form word such as '1', 'a^3', 'ba^2' or 'b^2'."""
        w = word.strip()
        if w == "1":
            return self.identity
        acc = self.identity
        pos = 0
        for m in _WORD_TOKEN.finditer(w):
            if m.start() != pos:
                break
            pos = m.end()
            gen = self.gens.get(m.group(1))
            if gen is None:
                raise InvalidParameterError(f"unknown generator {m.group(1)!r} in {word!r}")
            acc = self.mul[acc][self.power(gen, int(m.group(2) or 1))]
        if pos != len(w) or pos == 0:
            raise InvalidParameterError(f"cannot parse element {word!r}")
        return acc


def _rotation_label(i: int) -> str:
    return "1" if i == 0 else ("a" if i == 1 else f"a^{i}")


def _reflection_label(i: int) -> str:
    return "b" if i == 0 else ("ba" if i == 1 else f"ba^{i}")


def _cyclic_table(n: int):
    """(mul, labels, gens) of the cyclic group of order n generated by a."""
    r = list(range(n))
    mul = [r[i:] + r[:i] for i in range(n)]
    return mul, [_rotation_label(i) for i in range(n)], {"a": 1 % n}


def _extension_table(m: int, twist: int):
    """(mul, labels, gens) of the group of order 2m generated by a of order m
    and b with bab^-1 = a^-1, b^2 = a^twist.

    Element j*m + i is b^j a^i with 0 <= i < m and j in {0, 1}.  The row of
    b^j1 a^i1 takes a^i2 to b^j1 a^(i1+i2) and b a^i2 to b^(1-j1) a^(i2+s)
    with s = twist*j1 - i1, since a^i1 b = b a^-i1 and b^2 = a^twist: two
    rotations of the two cosets, sliced from one list of the elements.
    """
    cosets = (list(range(m)), list(range(m, 2 * m)))
    mul = []
    for j1 in (0, 1):
        same, other = cosets[j1], cosets[1 - j1]
        for i1 in range(m):
            s = (twist * j1 - i1) % m
            mul.append(same[i1:] + same[:i1] + other[s:] + other[:s])
    labels = [_rotation_label(i) for i in range(m)] + [_reflection_label(i) for i in range(m)]
    return mul, labels, {"a": 1 % m, "b": m}


# each family's table builder (n to (mul, labels, gens)), its order factor
# (order = factor * n) and its name prefix
FAMILIES = {
    "cyclic": (_cyclic_table, 1, "C"),
    "dihedral": (lambda n: _extension_table(n, 0), 2, "D"),
    "dicyclic": (lambda n: _extension_table(2 * n, n), 4, "Dic"),
}


def _family(family: str, n) -> tuple[Callable[[int], tuple], int, str]:
    """The `FAMILIES` entry of `family`, once n is known to be an int of at least 1.

    A bool is no n.  A bad n raises `InvalidParameterError` before an
    unknown family raises `UnsupportedFamilyError`.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"{family} group needs an int n >= 1, got {n!r}")
    if family not in FAMILIES:
        raise UnsupportedFamilyError(f"unknown family {family!r}")
    return FAMILIES[family]


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group of order n generated by a."""
    return FiniteGroup("cyclic", n)


def dihedral_group(n: int) -> FiniteGroup:
    """The dihedral group of order 2n: a^n = b^2 = 1 and bab = a^-1."""
    return FiniteGroup("dihedral", n)


def dicyclic_group(n: int) -> FiniteGroup:
    """The dicyclic group of order 4n: a^n = b^2, b^4 = 1, bab^-1 = a^-1.

    The rotation a has order 2n.  n = 1 yields the cyclic group of order 4
    (generated by b) carrying the dicyclic family tag.
    """
    return FiniteGroup("dicyclic", n)


def family_order(family: str, n: int) -> int:
    """The order of `build_group(family, n)`, known before any table is built."""
    return _family(family, n)[1] * n


def check_order(order: int, max_order: int) -> None:
    """Refuse a group whose order exceeds the subgroup-enumeration bound."""
    if order > max_order:
        raise SizeLimitError(f"group order {order} exceeds the bound {max_order}")


def build_group(family: str, n: int) -> FiniteGroup:
    return FiniteGroup(family, n)


def map_family(family: str, ns: Iterable[int], fn: Callable[[FiniteGroup], object],
               max_order: int = DEFAULT_MAX_ORDER) -> Iterator:
    """Yield `fn(build_group(family, n))` for each n, freeing each group before the next.

    The largest n is checked against the order bound before the first group
    is built, so an oversized range builds nothing.  The values memoized on
    a group and its subgroups point back at them, so a finished group is
    freed only by the cycle collector, which runs after each n; `fn`'s
    result must not hold the group.  The collection is a full one because
    only a full collection also empties the interpreter's free lists;
    freeing each group without one measured a few percent more peak memory.

    Before the first group, everything already alive (modules, the
    caller's data) is frozen with `gc.freeze`, so each per-n collection
    walks only what that n allocated.  The young generations are collected
    first, so that garbage the caller left since its last collection is
    freed rather than frozen where no collection reaches it.  Every exit
    (the last n, `fn` raising, the consumer closing the generator) calls
    `gc.unfreeze`.
    """
    ns = list(ns)
    if ns:
        check_order(family_order(family, max(ns)), max_order)
    gc.collect(1)
    gc.freeze()
    try:
        for n in ns:
            yield fn(build_group(family, n))
            gc.collect()
    finally:
        gc.unfreeze()


class ConjugacyClasses(namedtuple("ConjugacyClasses", "class_of reps sizes classes")):
    """Partition of a group under conjugation, ordered by minimal element."""

    __slots__ = ()
    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


def _conjugation_row(g: FiniteGroup, x: int) -> list[int]:
    """x y x^-1 for each element y: row x of the table read through column x^-1."""
    mul, xi = g.mul, g.inv[x]
    return [mul[z][xi] for z in mul[x]]


@memoized
def conjugacy_classes(g: FiniteGroup) -> ConjugacyClasses:
    """Conjugacy classes of g, deterministically ordered by minimal element.

    Each class is the orbit of its least element under conjugation by the
    generators (`g.gens`, which every group has), walked breadth-first:
    the x with x C x^-1 = C for an orbit C are closed under the product,
    so the generators reach every conjugate.  The identity 0 is conjugate
    only to itself, so its class comes first.
    """
    conj = [_conjugation_row(g, x) for x in g.gens.values()]
    class_of = [-1] * g.order
    classes: list[tuple[int, ...]] = []
    for e in range(g.order):
        if class_of[e] >= 0:
            continue
        idx = len(classes)
        class_of[e] = idx
        orbit = [e]
        for y in orbit:  # the orbit grows while it is read
            for row in conj:
                z = row[y]
                if class_of[z] < 0:
                    class_of[z] = idx
                    orbit.append(z)
        classes.append(tuple(sorted(orbit)))
    return ConjugacyClasses(
        class_of=tuple(class_of),
        reps=tuple(c[0] for c in classes),
        sizes=tuple(len(c) for c in classes),
        classes=tuple(classes),
    )


class Subgroup(Frozen):
    """A closed subset of a parent group, validated at construction.

    Immutable, and equal to a subgroup of the same parent with the same
    members.  `__init__` validates through `Subgroup.__post_init__`, looked
    up on the class, so a wrapper put there sees every construction.  The
    members must be element indices, hold the identity and be closed under
    the product; in a finite group that makes them a subgroup, since the
    inverse of x is x^(o-1) for o the order of x.
    """

    _fields = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...]):
        self._set(parent=parent, members=members)
        self.__post_init__()

    def __post_init__(self):
        p = self.parent
        _check_elements(p, self.members)
        mem = tuple(sorted(set(self.members)))
        self._set(members=mem)
        ms = frozenset(mem)
        if p.identity not in ms:
            raise InvalidParameterError("subgroup must contain the identity")
        for x in mem:
            row = p.mul[x]
            for y in mem:
                if row[y] not in ms:
                    raise InvalidParameterError("subgroup is not closed under multiplication")

    def __repr__(self):
        return f"<Subgroup of {self.parent.name} order={self.order}>"

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def is_full(self) -> bool:
        return len(self.members) == self.parent.order

    @memoized
    def _model(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The family group isomorphic to this subgroup, and its embedding.

        Element r of a cyclic model is gen^r and element j*rot + i of a
        dihedral or dicyclic one is b1^j a1^i (generators from
        `subgroup_structure`).  The model is the parent's one group of its
        (family, n), and the embedding is checked to be an isomorphism onto
        `members`.
        """
        p = self.parent
        if self.is_full():
            return p, tuple(range(p.order))
        kind, data = subgroup_structure(self)
        if kind == "cyclic":
            family, emb = kind, p.powers(data)
        else:
            a1, b1 = data
            rotations = p.powers(a1)
            family, emb = kind, rotations + tuple(p.mul[b1][r] for r in rotations)
        model = _family_group(p, family, self.order // FAMILIES[family][1])
        if tuple(sorted(emb)) != self.members or any(
            emb[model.mul[y][s]] != p.mul[emb[y]][emb[s]]
            for y in range(model.order)
            for s in model.gens.values()
        ):
            raise InternalConsistencyError(
                f"embedding of {model.name} in {p.name} is not an isomorphism onto the subgroup"
            )
        return model, emb

    @property
    def group(self) -> FiniteGroup:
        """The family group isomorphic to the subgroup (the parent itself when full)."""
        return self._model()[0]

    def embedding(self) -> tuple[int, ...]:
        """The parent element that each element of `group` stands for."""
        return self._model()[1]


@memoized
def _family_group(g: FiniteGroup, family: str, n: int) -> FiniteGroup:
    """g's one group of (family, n), the group of each such non-full subgroup of g."""
    return FiniteGroup(family, n)


def _closure(mul, gens) -> frozenset[int]:
    """The subgroup of the table `mul` generated by `gens`: breadth-first
    search from the identity 0 over right multiplication by the generators
    only.

    Every inverse in a finite group is a positive power, so the products of
    generators already reach the whole subgroup.
    """
    members = {0}
    queue = [0]
    for x in queue:  # the queue grows while it is read
        row = mul[x]
        for s in gens:
            y = row[s]
            if y not in members:
                members.add(y)
                queue.append(y)
    return frozenset(members)


def _check_elements(g: FiniteGroup, xs) -> None:
    """Refuse any x that is not an int element index of g; a bool is no index."""
    for x in xs:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < g.order:
            raise InvalidParameterError(f"element index {x!r} is not an int from 0 to {g.order - 1}")


def generated_subgroup(g: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup containing the generators (indices or words)."""
    idxs = [g.element(x) if isinstance(x, str) else x for x in gens]
    if not idxs:
        raise InvalidParameterError("generator set must be nonempty")
    _check_elements(g, idxs)
    return Subgroup(g, tuple(sorted(_closure(g.mul, idxs))))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (g.identity,))


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


def all_subgroups(g: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> list[Subgroup]:
    """Every subgroup of g, each exactly once, sorted by (order, members).

    Cyclic extension by normalizing elements (Neubüser 1960; Holt, Eick
    and O'Brien, *Handbook of Computational Group Theory*, 2005): starting
    from the trivial subgroup, every subgroup H found, with a tuple that
    generates it, is extended by each distinct cyclic subgroup <x> with x
    outside H, m = |<x>| / |<x> ∩ H| prime and x y x^-1 in H for every y
    of the tuple.  Then x normalizes H, and <H, x> is the union of the
    cosets H x^k for 0 <= k < m (m is the least k > 0 with x^k in H), so
    no closure is searched.

    The search is complete for the three families.  Every subgroup K != 1
    is cyclic, dihedral or dicyclic, so it has a normal subgroup H of prime
    index: <x^p> in a cyclic K = <x> of order divisible by p, the rotation
    subgroup in a dihedral or dicyclic K.  By induction on the order, H has
    been found with a tuple that generates it.  For any y in K outside H,
    the listed generator x of <y> is again in K outside H, it normalizes
    H, and H <x> = K because the index is prime; m = |H <x> : H| is that
    prime.  So joins of composite m are never needed and never built.
    Once a join K' = H <x'> of prime index is built, every x in K' outside
    H is skipped for the rest of H's loop: H <x> is a subgroup of K'
    larger than H, hence K' itself, which is already found.
    """
    check_order(g.order, max_order)
    cyclic: dict[frozenset[int], int] = {}
    for x in range(g.order):
        cyclic.setdefault(frozenset(g.powers(x)), x)
    mul = g.mul
    listed = [(x, _conjugation_row(g, x), g.powers(x)) for x in cyclic.values()]
    trivial = frozenset((g.identity,))
    found = {trivial}
    work: list[tuple[frozenset[int], tuple[int, ...]]] = [(trivial, ())]  # (H, its generators)
    for h, gens in work:  # the work list grows while it is read
        covered = set(h)  # H and every prime-index join of H built so far
        for x, row, powers in listed:
            if x in covered or not h.issuperset(map(row.__getitem__, gens)):
                continue
            m = len(powers) // len(h.intersection(powers))
            if not _is_prime(m):
                continue
            k = frozenset(mul[y][p] for p in powers[:m] for y in h)
            covered.update(k)
            if k not in found:
                found.add(k)
                work.append((k, gens + (x,)))
    members = sorted((tuple(sorted(s)) for s in found), key=lambda m: (len(m), m))
    return [Subgroup(g, m) for m in members]


def _rotation_bound(g: FiniteGroup) -> int | None:
    """The number of rotations a^i, which are the elements below it; None for a cyclic g."""
    return None if g.family == "cyclic" else g.order // 2


@memoized
def subgroup_structure(h: Subgroup):
    """Classify a subgroup structurally.

    Returns one of
      ("cyclic", generator_parent_index)
      ("dihedral", (rotation_generator, reflection)) for dihedral parents
      ("dicyclic", (rotation_generator, outside_element)) for dicyclic parents

    Each generator is the least candidate by (parent class, index), so
    conjugate subgroups take generators from the same parent classes; the
    trivial subgroup is cyclic, generated by the identity.  Every
    subgroup of a cyclic group is cyclic, so only a dihedral or dicyclic
    parent has subgroups of the other two kinds.
    """
    p = h.parent
    d = h.order
    class_of = conjugacy_classes(p).class_of

    def least(xs):
        return min(xs, key=lambda x: (class_of[x], x), default=None)

    gen = least(x for x in h.members if p.element_order(x) == d)
    if gen is not None:
        return ("cyclic", gen)
    bound = _rotation_bound(p)
    rotations = [x for x in h.members if x < bound]
    m = len(rotations)
    if 2 * m != d:
        raise InternalConsistencyError("rotation part of subgroup has unexpected size")
    a1 = least(x for x in rotations if p.element_order(x) == m)
    b1 = least(x for x in h.members if x >= bound)
    if a1 is None:
        raise InternalConsistencyError("rotation part of subgroup is not cyclic")
    return (p.family, (a1, b1))


def describe_subgroup(h: Subgroup) -> str:
    """Structural descriptor: trivial, C<d>, <ba^i>, D<2m> or Dic<4k>.

    `<ba^i>` is a literal category string covering every cyclic subgroup
    generated by an element outside the rotation subgroup (reflection
    subgroups of dihedral groups, the order-4 subgroups of dicyclic
    groups), so conjugate subgroups always share one descriptor.
    """
    if h.order == 1:
        return "trivial"
    kind, data = subgroup_structure(h)
    bound = _rotation_bound(h.parent)
    if kind == "cyclic" and bound is not None and data >= bound:  # generated outside the rotations
        return "<ba^i>"
    return f"{FAMILIES[kind][2]}{h.order}"


def are_conjugate_subgroups(h1: Subgroup, h2: Subgroup) -> bool:
    """Whether some x in their common parent g satisfies x h1 x^-1 = h2."""
    g = h1.parent
    if h2.parent is not g:
        raise InvalidParameterError("both subgroups must live in the same group")
    if h1.order != h2.order:
        return False
    target = set(h2.members)
    for x in range(g.order):
        if {g.conjugate(e, x) for e in h1.members} == target:
            return True
    return False
