"""Cayley-table models of the cyclic, dihedral and dicyclic families.

Elements are integers 0..order-1 with display labels in normal form:
rotations ``a^i`` come first, then ``b a^i`` for the families with a second
generator.  In the dicyclic group of order 4n the rotation a has order 2n
and b^2 = a^n, so labels like ``b^2`` or ``b^3a^i`` never appear; they
reduce to the ``a^i`` / ``ba^i`` forms.

Every constructed table is self-checked: Latin-square, identity and
inverse laws, and associativity exhaustively by Light's test over the
group's generators.  The package makes groups only with `build_group` and
the three family constructors.  Groups and subgroups are immutable after
construction and all functions are pure, so enumeration
over different groups can run in parallel with no shared state other than
the cycle collector, which is interpreter-wide: `map_family` freezes it
for the length of a sweep, and a nested or concurrent sweep that
unfreezes early costs only speed.  What is derived from a group or
subgroup (classes, tables, matrices) is computed once by `memoized` and
kept on that object.

Each group walks the powers of every element once (`FiniteGroup.powers`),
and element orders, powers, the exponent and cyclic subgroups are read
off those walks.

Every subgroup of a cyclic, dihedral or dicyclic group is again one of
these.  `Subgroup.group` is that family group (the parent when full, else
the parent's one family group of that type) and `Subgroup.embedding()` the
parent element each of its elements stands for.  Both are read off the
members alone: `subgroup_structure` picks each generator as the least
element by (parent class, index), so conjugate subgroups pick generators
from the same parent classes and share one class fusion.
"""

from __future__ import annotations

import functools
import gc
import math
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    SizeLimitError,
    UnsupportedFamilyError,
)

__all__ = [
    "FiniteGroup",
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
    """Compute `fn(x)` once per object and keep it in `x.__dict__`.

    Each value then lives and dies with the group or subgroup it describes.
    The key is the function's name with a leading underscore, so a memoized
    method is not shadowed by its own value.
    """
    key = "_" + fn.__name__

    @functools.wraps(fn)
    def wrapper(x):
        try:
            return x.__dict__[key]
        except KeyError:
            value = x.__dict__[key] = fn(x)
            return value

    return wrapper


def _verify_table(g: FiniteGroup, gens) -> tuple[int, ...]:
    """Check the group laws of g's table and return its inverse table.

    Associativity is Light's test over the generators: (xy)s = x(ys) for
    every generator s and all x, y.  The elements z with (xy)z = x(yz) for
    all x, y are closed under the product, so the test covers the whole
    table once the generators reach every element from the identity.
    """
    mul, order, identity = g.mul, g.order, g.identity
    everything = frozenset(range(order))
    for i, row in enumerate(mul):
        if len(row) != order or set(row) != everything:
            raise InvalidParameterError(f"row {i} of the multiplication table is not a permutation")
    for j in range(order):
        if {mul[i][j] for i in range(order)} != everything:
            raise InvalidParameterError(f"column {j} of the multiplication table is not a permutation")
    for i in range(order):
        if mul[identity][i] != i or mul[i][identity] != i:
            raise InvalidParameterError("identity law fails")
    inv = []
    for i in range(order):
        j = mul[i].index(identity)
        if mul[j][i] != identity:
            raise InvalidParameterError(f"element {i} has no two-sided inverse")
        inv.append(j)
    gens = tuple(gens)
    if any(s not in everything for s in gens) or len(_closure(g, gens)) != order:
        raise InvalidParameterError("the generators do not generate the whole table")
    for s in gens:
        col = [row[s] for row in mul]
        for x, row in enumerate(mul):
            # ((x y) s for all y) against (x (y s) for all y)
            if list(map(col.__getitem__, row)) != list(map(row.__getitem__, col)):
                raise InvalidParameterError(f"associativity fails at x={x}, s={s}")
    return tuple(inv)


class FiniteGroup:
    """An immutable finite group given by its full multiplication table.

    `gens` maps generator letters to elements and must generate the table.
    Without it, every element counts as a generator in the table check.
    """

    def __init__(self, mul, labels, family, n=None, gens=None, name=""):
        mul = tuple(tuple(row) for row in mul)
        object.__setattr__(self, "order", len(mul))
        object.__setattr__(self, "identity", 0)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", _verify_table(
            self, range(len(mul)) if gens is None else gens.values()))
        labels = tuple(labels)
        if len(labels) != len(mul) or len(set(labels)) != len(labels):
            raise InvalidParameterError("element labels must be unique, one per element")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", dict(gens or {}))
        object.__setattr__(self, "name", name or f"G{len(mul)}")

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

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


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group of order n generated by a."""
    if n < 1:
        raise InvalidParameterError(f"cyclic group needs n >= 1, got {n}")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = [_rotation_label(i) for i in range(n)]
    return FiniteGroup(mul, labels, "cyclic", n=n, gens={"a": 1 % n}, name=f"C{n}")


def _extension_group(family: str, n: int, m: int, twist: int, name: str) -> FiniteGroup:
    """The group of order 2m generated by a of order m and b with bab^-1 = a^-1, b^2 = a^twist.

    Element j*m + i is b^j a^i with 0 <= i < m and j in {0, 1}.
    """
    order = 2 * m

    def mul_pair(j1, i1, j2, i2):
        i = (i2 - i1 + twist * j1) if j2 else i1 + i2
        return ((j1 + j2) % 2) * m + i % m

    mul = [
        [mul_pair(e1 // m, e1 % m, e2 // m, e2 % m) for e2 in range(order)]
        for e1 in range(order)
    ]
    labels = [_rotation_label(i) for i in range(m)] + [_reflection_label(i) for i in range(m)]
    return FiniteGroup(mul, labels, family, n=n, gens={"a": 1 % m, "b": m}, name=name)


def dihedral_group(n: int) -> FiniteGroup:
    """The dihedral group of order 2n: a^n = b^2 = 1 and bab = a^-1."""
    if n < 1:
        raise InvalidParameterError(f"dihedral group needs n >= 1, got {n}")
    return _extension_group("dihedral", n, n, 0, f"D{2 * n}")


def dicyclic_group(n: int) -> FiniteGroup:
    """The dicyclic group of order 4n: a^n = b^2, b^4 = 1, bab^-1 = a^-1.

    The rotation a has order 2n.  n = 1 yields the cyclic group of order 4
    (generated by b) carrying the dicyclic family tag.
    """
    if n < 1:
        raise InvalidParameterError(f"dicyclic group needs n >= 1, got {n}")
    return _extension_group("dicyclic", n, 2 * n, n, f"Dic{4 * n}")


_FAMILY_ORDER_FACTOR = {"cyclic": 1, "dihedral": 2, "dicyclic": 4}


def family_order(family: str, n: int) -> int:
    """The order of `build_group(family, n)`, known before any table is built."""
    if family not in _FAMILY_ORDER_FACTOR:
        raise UnsupportedFamilyError(f"unknown family {family!r}")
    return _FAMILY_ORDER_FACTOR[family] * n


def check_order(order: int, max_order: int) -> None:
    """Refuse a group whose order exceeds the subgroup-enumeration bound."""
    if order > max_order:
        raise SizeLimitError(f"group order {order} exceeds the bound {max_order}")


_CONSTRUCTORS = {"cyclic": cyclic_group, "dihedral": dihedral_group, "dicyclic": dicyclic_group}


def build_group(family: str, n: int) -> FiniteGroup:
    if family not in _CONSTRUCTORS:
        raise UnsupportedFamilyError(f"unknown family {family!r}")
    return _CONSTRUCTORS[family](n)


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


@dataclass(frozen=True)
class ConjugacyClasses:
    """Partition of a group under conjugation, ordered by minimal element."""

    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


@memoized
def conjugacy_classes(g: FiniteGroup) -> ConjugacyClasses:
    """Conjugacy classes of g, deterministically ordered by minimal element."""
    class_of = [-1] * g.order
    classes: list[tuple[int, ...]] = []
    for e in range(g.order):
        if class_of[e] >= 0:
            continue
        orbit = tuple(sorted({g.conjugate(e, x) for x in range(g.order)}))
        idx = len(classes)
        for h in orbit:
            class_of[h] = idx
        classes.append(orbit)
    result = ConjugacyClasses(
        class_of=tuple(class_of),
        reps=tuple(c[0] for c in classes),
        sizes=tuple(len(c) for c in classes),
        classes=tuple(classes),
    )
    if result.reps[0] != g.identity or result.sizes[0] != 1:
        raise InternalConsistencyError("identity class is not the leading singleton")
    return result


@dataclass(frozen=True)
class Subgroup:
    """A closed subset of a parent group, validated at construction."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", mem)
        p = self.parent
        ms = frozenset(mem)
        if p.identity not in ms:
            raise InvalidParameterError("subgroup must contain the identity")
        for x in mem:
            if not 0 <= x < p.order:
                raise InvalidParameterError(f"element index {x} out of range")
            if p.inv[x] not in ms:
                raise InvalidParameterError("subgroup is not closed under inverses")
            row = p.mul[x]
            for y in mem:
                if row[y] not in ms:
                    raise InvalidParameterError("subgroup is not closed under multiplication")
        if p.order % len(mem):
            raise InvalidParameterError("subgroup order must divide the group order")

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
        if kind == "trivial":
            family, emb = "cyclic", (p.identity,)
        elif kind == "cyclic":
            family, emb = kind, p.powers(data)
        else:
            a1, b1 = data
            rotations = p.powers(a1)
            family, emb = kind, rotations + tuple(p.mul[b1][r] for r in rotations)
        n = self.order // _FAMILY_ORDER_FACTOR[family]
        models = _family_groups(p)
        if (family, n) not in models:
            models[family, n] = _CONSTRUCTORS[family](n)
        model = models[family, n]
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
def _family_groups(g: FiniteGroup) -> dict[tuple[str, int], FiniteGroup]:
    """The family groups of g's non-full subgroups, one per (family, n)."""
    return {}


def _closure(g: FiniteGroup, gens) -> frozenset[int]:
    """The subgroup generated by `gens`: breadth-first search from the
    identity over right multiplication by the generators only.

    Every inverse in a finite group is a positive power, so the products of
    generators already reach the whole subgroup.
    """
    mul = g.mul
    members = {g.identity}
    queue = [g.identity]
    for x in queue:  # the queue grows while it is read
        row = mul[x]
        for s in gens:
            y = row[s]
            if y not in members:
                members.add(y)
                queue.append(y)
    return frozenset(members)


def generated_subgroup(g: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup containing the generators (indices or words)."""
    idxs = {g.element(x) if isinstance(x, str) else int(x) for x in gens}
    if not idxs:
        raise InvalidParameterError("generator set must be nonempty")
    for x in idxs:
        if not 0 <= x < g.order:
            raise InvalidParameterError(f"element index {x} out of range")
    return Subgroup(g, tuple(sorted(_closure(g, idxs))))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (g.identity,))


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def all_subgroups(g: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> list[Subgroup]:
    """Every subgroup of g, each exactly once, sorted by (order, members).

    Cyclic extension up to conjugacy (Neubüser 1960): the first subgroup
    found in each conjugacy class carries one generating tuple, and is
    extended only by the distinct cyclic subgroups <x> with x outside it,
    <H, x> being the closure of its tuple plus x.  The rest of its class is
    reached by a breadth-first search over conjugation by the generators
    of g.  Every subgroup is the join of its cyclic subgroups, one at a
    time, and a conjugate of a join is the join of the conjugates, so the
    search is complete.
    """
    check_order(g.order, max_order)
    cyclic: dict[frozenset[int], int] = {}
    for x in range(g.order):
        cyclic.setdefault(frozenset(g.powers(x)), x)
    found: set[frozenset[int]] = set()
    work: list[tuple[frozenset[int], tuple[int, ...]]] = []  # (first, its generators)

    def add_class(h, gens):
        if h in found:
            return
        work.append((h, gens))
        found.add(h)
        queue = [h]
        for members in queue:  # the queue grows while it is read
            for s in g.gens.values():
                j = frozenset(g.conjugate(y, s) for y in members)
                if j not in found:
                    found.add(j)
                    queue.append(j)

    for h, x in cyclic.items():
        add_class(h, (x,))
    while work:
        h, gens = work.pop()
        for x in cyclic.values():
            if x not in h:
                add_class(_closure(g, gens + (x,)), gens + (x,))
    members = sorted((tuple(sorted(s)) for s in found), key=lambda m: (len(m), m))
    return [Subgroup(g, m) for m in members]


def _rotation_bound(g: FiniteGroup) -> int | None:
    if g.family == "dihedral":
        return g.n
    if g.family == "dicyclic":
        return 2 * g.n
    return None


@memoized
def subgroup_structure(h: Subgroup):
    """Classify a subgroup structurally.

    Returns one of
      ("trivial", None)
      ("cyclic", generator_parent_index)
      ("dihedral", (rotation_generator, reflection)) for dihedral parents
      ("dicyclic", (rotation_generator, outside_element)) for dicyclic parents

    Each generator is the least candidate by (parent class, index), so
    conjugate subgroups take generators from the same parent classes.  A
    non-cyclic subgroup of a group of any other family raises
    `UnsupportedFamilyError`.
    """
    p = h.parent
    d = h.order
    if d == 1:
        return ("trivial", None)
    class_of = conjugacy_classes(p).class_of

    def least(xs):
        return min(xs, key=lambda x: (class_of[x], x), default=None)

    gen = least(x for x in h.members if p.element_order(x) == d)
    if gen is not None:
        return ("cyclic", gen)
    bound = _rotation_bound(p)
    if bound is None:
        raise UnsupportedFamilyError(f"no structure for a non-cyclic subgroup of {p.name}")
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
    kind, data = subgroup_structure(h)
    if kind == "trivial":
        return "trivial"
    if kind == "dihedral":
        return f"D{h.order}"
    if kind == "dicyclic":
        return f"Dic{h.order}"
    bound = _rotation_bound(h.parent)
    if bound is None or data < bound:  # a rotation generates only rotations
        return f"C{h.order}"
    return "<ba^i>"


def are_conjugate_subgroups(g: FiniteGroup, h1: Subgroup, h2: Subgroup) -> bool:
    """Whether some x in g satisfies x h1 x^-1 = h2."""
    if h1.parent is not g or h2.parent is not g:
        raise InvalidParameterError("both subgroups must live in the given group")
    if h1.order != h2.order:
        return False
    target = set(h2.members)
    for x in range(g.order):
        if {g.conjugate(e, x) for e in h1.members} == target:
            return True
    return False
