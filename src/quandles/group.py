"""Finite groups as multiplication tables, conjugacy classes, conjugation quandles."""

from __future__ import annotations

import itertools
from operator import getitem, itemgetter
from typing import Iterable, Optional

from .decomposition import Decomposition, iterate_refinement
from .quandle import (AxiomViolation, FiniteQuandle, Partition, _first_failure, _Table, _walks,
                      action_generators, orbits, read_table)


class FiniteGroup(_Table):
    """A group on {0, ..., size-1} given by its multiplication table.

    Construction derives the identity and inverses (raising ValueError when
    they do not exist); associativity is checked separately by check_group,
    on a generating set (see there).
    """

    __slots__ = ("size", "mult", "inv", "identity", "labels")

    def __init__(self, mult, identity: int | None = None, labels=None, size=None):
        rows, labels = read_table(mult, labels, "mult", size)
        n = len(rows)
        unit = tuple(range(n))
        if identity is None:
            identity = next((e for e in range(n) if rows[e] == unit
                             and tuple(map(itemgetter(e), rows)) == unit), None)
            if identity is None:
                raise ValueError("table has no identity element")
        elif type(identity) is not int:
            raise ValueError("'identity' must be an integer")
        elif not (0 <= identity < n and rows[identity] == unit
                  and tuple(map(itemgetter(identity), rows)) == unit):
            raise ValueError("declared identity is not an identity")
        self._fill(rows, identity, labels)

    def _fill(self, rows, identity: int, labels=None) -> None:
        rows = tuple(rows)
        inv = []
        for a, row in enumerate(rows):
            # the least b with a b == identity == b a, among the b with a b == identity
            try:
                b = row.index(identity)
                while rows[b][a] != identity:
                    b = row.index(identity, b + 1)
            except ValueError:
                raise ValueError(f"element {a} has no inverse") from None
            inv.append(b)
        self.size = len(rows)
        self.mult = rows
        self.identity = identity
        self.inv = tuple(inv)
        self.labels = tuple(labels) if labels is not None else None

    def to_json(self) -> dict:
        data = {"size": self.size, "mult": [list(r) for r in self.mult],
                "identity": self.identity}
        if self.labels is not None:
            data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_json(cls, data, check: bool = True) -> "FiniteGroup":
        if not isinstance(data, dict) or "mult" not in data:
            raise ValueError("expected an object with a 'mult' field")
        g = cls(data["mult"], data.get("identity"), data.get("labels"), data.get("size"))
        return g._checked(check, check_group)

    def __repr__(self):
        return f"<FiniteGroup size {self.size}>"


def check_group(g: FiniteGroup) -> Optional[AxiomViolation]:
    """None for a genuine group, otherwise the failure of associativity.

    The verdict is is_associative's.  The witness (a, b, c), the first with
    (a b) c != a (b c) in scan order, indices increasing, comes from a
    generator of the failing cells (see quandle._first_failure), which runs
    only on a table that fails.
    """
    return None if is_associative(g) else _first_nonassociative(g)


def is_associative(g: FiniteGroup) -> bool:
    """Whether (a b) c == a (b c) for all a, b and c of the table.

    Deciding associativity needs c only in a generating set Z of the table
    under its product (Light's test): the c with (x y) c == x (y c) for all
    x, y are closed under products, since for two of them, c and d,

        (x y)(c d) = ((x y) c) d = (x (y c)) d = x ((y c) d) = x (y (c d)),

    and a subset closed under products holding Z is everything.  Z is the
    identity e, which passes, being a two-sided identity, and the picks S of
    quandle.action_generators under right multiplication.  Their span is
    everything, so the breadth-first walk from e along x -> x p, p in S,
    reaches every y != e by a tree edge y = z p from an earlier z.  Two
    checks then certify every c in S in O(n^2 + |S|^2 n) work, instead of
    n^2 per pick:

    (A) on every tree edge, row(y) is row(z) read through row(p), as the
        Cayley walk yields it (see _cayley_walk), that is
        (z p) w = z (p w) for all w: L_y = L_z L_p for the left translations
        L_x: w -> x w, so by induction along the tree, from L_e = id, every
        L_x is a composite of the L_s, s in S;
    (B) for all s, c in S, s (w c) = (s w) c for all w: each L_s commutes
        with each R_c: w -> w c.

    So for c in S every L_x commutes with R_c, which is (x y) c = x (y c)
    for all x and y: Z passes, and the closure above covers everything.
    Both checks hold in any group.
    """
    m, e = g.mult, g.identity
    picks = action_generators(range(g.size), (e,), lambda x, p: m[x][p])
    # (p, row(p) as an itemgetter that reads a row through it); there are
    # no picks on one element, where a one-entry itemgetter gives no tuple
    through = [(p, itemgetter(*m[p])) for p in picks]
    if any(m[y] != row for y, row in _cayley_walk(e, through, m)):  # (A)
        return False
    for c in picks:
        col = [row[c] for row in m]
        through_col = itemgetter(*col)
        # row s: w -> (s w) c reads col through row s, w -> s (w c) reads row s through col
        if any(through_s(col) != through_col(m[s]) for s, through_s in through):  # (B)
            return False
    return True


def _cayley_walk(e: int, gens, rows):
    """The breadth-first Cayley walk from the identity e along z -> z s, for
    (s, row(s) as an itemgetter) in gens: each y != e first reached, by the
    edge y = z s, with row(z) read through row(s), row(y) in a group.  Row z
    is rows[z], read after z is yielded, so a caller may fill rows from it."""
    walk, reached = [e], {e}
    for z in walk:
        row = rows[z]
        for s, through in gens:
            y = row[s]
            if y not in reached:
                reached.add(y)
                walk.append(y)
                yield y, through(row)


def _first_nonassociative(g: FiniteGroup) -> Optional[AxiomViolation]:
    m = g.mult
    # (a b) c == a (b c) reads row a b against rows a and b
    return _first_failure("associativity", (
        (a, b, c) for a, ra in enumerate(m) for b, rb in enumerate(m)
        for c, (ab_c, bc) in enumerate(zip(m[ra[b]], rb)) if ab_c != ra[bc]))


def _cycle_label(perm) -> str:
    """Disjoint cycle notation on 1-based points; the identity is 'e'."""
    return "".join("(" + " ".join(str(x + 1) for x in cyc) + ")"
                   for cyc in _walks(perm) if len(cyc) > 1) or "e"


def symmetric_group(n: int) -> FiniteGroup:
    """All permutations of n points, indexed lexicographically by one-line
    notation, so index 0 is the identity.

    The product p * q applies p first and q second.  Labels use disjoint
    cycle notation.  Degrees above 6 are refused: the tables grow
    factorially and everything downstream is meant for desk-scale objects.

    Only the rows of two generators are composed from permutations: the
    n-cycle (1 2 ... n) and the transposition (1 2).  The other rows are
    filled from the Cayley walk from the identity row (see _cayley_walk):
    if b = a s, then b x = a (s x), so row(b) is row(a) read through row(s).
    """
    if not 1 <= n <= 6:
        raise ValueError("supported degrees are 1..6")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    points = tuple(range(n))
    # (index of s, row(s) as an itemgetter that reads a row through it); a
    # one-entry itemgetter gives no tuple, but S_1 reads no row, having one
    gens = [(index[s], itemgetter(*(index[tuple(map(q.__getitem__, s))] for q in perms)))
            for s in (points[1:] + points[:1], points[1::-1] + points[2:])]
    rows = [tuple(range(len(perms)))] + [None] * (len(perms) - 1)
    for b, row in _cayley_walk(0, gens, rows):
        rows[b] = row
    return FiniteGroup._built(rows, 0, [_cycle_label(p) for p in perms])


def cyclic_group(n: int) -> FiniteGroup:
    """The integers mod n under addition."""
    if n < 1:
        raise ValueError("order must be positive")
    points = tuple(range(n))
    mult = [points[a:] + points[:a] for a in range(n)]
    return FiniteGroup._built(mult, 0, [str(a) for a in range(n)])


def conj_quandle(g: FiniteGroup) -> FiniteQuandle:
    """The quandle on the group with a * b = b^-1 a b.

    Row a is read as b^-1 (a b), one lookup per cell in the row of b^-1;
    on a table that is not associative (loaded unchecked) this is the
    product in that order.
    """
    inv_rows = [g.mult[b] for b in g.inv]
    table = [tuple(map(getitem, inv_rows, row)) for row in g.mult]
    return FiniteQuandle._built(table, g.labels)


def conjugacy_classes(g: FiniteGroup) -> Partition:
    """Partition of the group into conjugacy classes (computed directly from
    the group tables, independently of any quandle machinery)."""
    n = g.size
    unseen = set(range(n))
    blocks = []
    for a in range(n):
        if a not in unseen:
            continue
        block = {g.mult[g.mult[g.inv[h]][a]][h] for h in range(n)}
        unseen -= block
        blocks.append(block)
    return Partition(blocks)


def conj_components(g: FiniteGroup, ambient: Iterable[int] | None = None) -> Partition:
    """Orbits of the ambient set (by default the group) under conjugation
    x -> y^-1 x y by its own members y: connected_components of
    conj_quandle(g) on that set, read from the rows of an associative table.

    Conjugation by picks Y gives the same orbits, |Y| moves per element.
    With S_c: x -> c^-1 x c, S_ab = S_b S_a and S_c^-1 is a power of S_c.
    On the whole group, Y is action_generators(group, {e}, right
    multiplication): its span is <Y>, as y^-1 is a power of y, so <Y> is
    the group and the S_y generate every S_h.  On an ambient set B, Y is
    action_generators(B, {}, conjugation), O(|B| |Y|) products: each
    member of its span is a pick or p^-1 z p for an earlier member z and a
    pick p, and S_(p^-1 z p) = S_p S_z S_p^-1, so the S_y generate the S_c
    of the span, which covers B.  A move outside B raises NotASubquandle,
    as in connected_components; when no move by a pick leaves B, the S_p
    permute B, the span walk stays in B and every S_c, c in B, lies in
    their group: B is closed.
    """
    m, inv = g.mult, g.inv
    if ambient is None:
        members = range(g.size)
        picks = action_generators(members, (g.identity,), lambda x, p: m[x][p])
    else:
        members = sorted(set(ambient))
        picks = action_generators(members, (), lambda x, p: m[m[inv[p]][x]][p])
    moves = [(m[inv[y]], y) for y in picks]  # y^-1 x y as (row of y^-1 at x) y
    return orbits(members, lambda x: [m[row[x]][y] for row, y in moves])


def conj_decomposition(g: FiniteGroup) -> Decomposition:
    """maximal_decomposition(conj_quandle(g)) from the multiplication rows,
    each block refined by conj_components, the whole group by its group
    picks; the components, levels[1], are the conjugacy classes."""
    return iterate_refinement(Partition([range(g.size)]), lambda block: conj_components(
        g, None if len(block) == g.size else block))
