"""Finite quandles as explicit operation tables."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence


@dataclass(frozen=True)
class AxiomViolation:
    """First failing axiom with a lexicographically minimal witness."""

    axiom: str
    witness: tuple[int, ...]

    def __str__(self):
        return f"{self.axiom} fails at {self.witness}"


class InvalidTable(ValueError):
    """A loaded table fails its axioms."""


class NotASubquandle(ValueError):
    """The given subset is not closed under the operation.

    A finite subset closed under * is closed under its inverse too, because
    each right translation then permutes the subset.
    """


class Partition(tuple):
    """A partition of element indices, canonicalized: the tuple of its blocks.

    Blocks are sorted tuples ordered by their minimum, empty ones dropped,
    so equal partitions compare equal and every report is reproducible.
    """

    __slots__ = ()

    def __new__(cls, blocks: Iterable[Iterable[int]]):
        return super().__new__(cls, sorted(map(tuple, map(sorted, map(set, filter(None, blocks))))))

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted(map(len, self)))

    def block_of(self, x: int) -> tuple[int, ...]:
        for b in self:
            if x in b:
                return b
        raise KeyError(x)

    def refines(self, other: "Partition") -> bool:
        """Every block here sits inside a single block of `other`."""
        owner = {x: i for i, b in enumerate(other) for x in b}
        return all(b[0] in owner and len({owner.get(x) for x in b}) == 1 for b in self)

    def __repr__(self):
        return f"Partition({self.to_json()})"

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self]


def _whole(n: int) -> Partition:
    """Partition([range(n)]) for n >= 1, level 0 of every tower, without the canonical sort."""
    return tuple.__new__(Partition, (tuple(range(n)),))


class _Table:
    """The base of the three table kinds, FiniteQuandle, FiniteGroup and
    MCQ: square rows of element indices, with labels or None."""

    __slots__ = ()

    @classmethod
    def _built(cls, *parts):
        """An object on rows that the library computed itself, filled by the
        class's _fill: a non-empty square of tuples of element indices (a
        group's with its two-sided identity given, an MCQ's with at least
        one group), which __init__ would only check again cell by cell.
        What the rows imply is still derived: a group's inverses, an MCQ's
        offsets and group_of."""
        obj = cls.__new__(cls)
        obj._fill(*parts)
        return obj

    def _checked(self, check: bool, checker):
        """self; when check is true, checker(self) must find no violation,
        or InvalidTable's message is the one it finds, "<axiom> fails at
        <witness>"."""
        bad = checker(self) if check else None
        if bad is not None:
            raise InvalidTable(str(bad))
        return self

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)


class FiniteQuandle(_Table):
    """A quandle on {0, ..., size-1} given by its table: table[a][b] == a * b.

    Each column x -> x * b permutes a finite set, so the inverse operation
    is one of its powers (see op_pow).
    """

    __slots__ = ("size", "table", "labels")

    def __init__(self, table, labels=None, size=None):
        self._fill(*read_table(table, labels, "table", size))

    def _fill(self, rows, labels=None) -> None:
        self.table = tuple(rows)
        self.size = len(self.table)
        self.labels = tuple(labels) if labels is not None else None

    def to_json(self) -> dict:
        data = {"size": self.size, "table": [list(r) for r in self.table]}
        if self.labels is not None:
            data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_json(cls, data, check: bool = True) -> "FiniteQuandle":
        if not isinstance(data, dict):
            raise ValueError("expected an object with a 'table' field")
        if data.get("table") is None:
            raise ValueError("missing 'table'")
        q = cls(data["table"], data.get("labels"), data.get("size"))
        return q._checked(check, check_axioms)

    def __repr__(self):
        return f"<FiniteQuandle size {self.size}>"


_INT = frozenset({int})
_LIST = frozenset({list, tuple})
_LABEL = frozenset({str, int})
# per field: the refusals of an empty table, of a row count other than size,
# of a ragged row, of an entry out of range and of a wrong label count
_REFUSALS = {
    "table": ("a quandle is non-empty", "'size' disagrees with the table", "table must be square",
              "table entries must index elements", "labels must match the table size"),
    "mult": ("a group is non-empty", "'size' disagrees with the table",
             "multiplication table must be square", "table entries must index elements",
             "labels must match the table size"),
    "op": (("operation table must be carrier x carrier",) * 3
           + ("operation entries must index the carrier", "labels must match the carrier size")),
}


def read_table(table, labels, field: str, size=None) -> tuple[tuple, Optional[tuple]]:
    """The rows and labels of a square table of element indices, as tuples
    of ints and of strings: the one reader of a quandle's 'table', a group's
    'mult' and an MCQ's 'op', which field names.  ValueError, an input
    error, names the first fault in this order: not a list of lists (tuples
    pass); an entry not an int (bools excluded); labels not a list of
    strings or ints; an empty table, or a size that is not an int or not the
    row count; row by row, a ragged row or an entry out of range; a label
    count other than the row count.  Shape and range are checked on the set
    of row lengths and of entries; a row scan only words a failure."""
    if type(table) not in _LIST or not _LIST.issuperset(map(type, table)):
        raise ValueError(f"'{field}' must be a list of lists")
    if not all(_INT.issuperset(map(type, row)) for row in table):
        raise ValueError(f"'{field}' entries must be integers")
    if labels is not None:
        if type(labels) not in _LIST:
            raise ValueError("'labels' must be a list")
        if not _LABEL.issuperset(map(type, labels)):
            raise ValueError("'labels' entries must be strings or integers")
        labels = tuple(map(str, labels))
    empty, count, square, entries, labelled = _REFUSALS[field]
    n = len(table)
    if n == 0:
        raise ValueError(empty)
    if size is not None and type(size) is not int:
        raise ValueError("'size' must be an integer")
    if size is not None and size != n:
        raise ValueError(count)
    rows = tuple(map(tuple, table))
    if set(map(len, rows)) != {n} or min(values := set().union(*rows)) < 0 or max(values) >= n:
        for row in rows:
            if len(row) != n:
                raise ValueError(square)
            if min(row) < 0 or max(row) >= n:
                raise ValueError(entries)
    if labels is not None and len(labels) != n:
        raise ValueError(labelled)
    return rows, labels


def trivial_quandle(n: int) -> FiniteQuandle:
    """The quandle with a * b == a for all a, b."""
    if n < 1:
        raise ValueError("a quandle is non-empty")
    return FiniteQuandle._built([(a,) * n for a in range(n)])


def check_axioms(q: FiniteQuandle) -> Optional[AxiomViolation]:
    """None when the table is a quandle; otherwise the first violation.

    Checks idempotency, then column bijectivity, then right
    self-distributivity; the witness is the first failing cell, indices
    increasing, each scan a generator of the failing cells in order (see
    _first_failure), which runs only on a table that fails.

    Deciding the axioms needs self-distributivity only for c in a generating
    set Z of the quandle, n^2 work per generator instead of n^3.  This is
    exact once the columns are bijections: the c whose column map
    S_c: x -> x * c is an automorphism of (X, *) are closed under *,
    because S_(c1 * c2) = S_c2 S_c1 S_c2^-1 when S_c2 is one, and a subset
    closed under * holding Z is everything.  Z is the picks of
    action_generators under x -> x * p, O(n |Z|) products: their span is
    everything and lies inside the closure of Z under *, on any table (see
    there).
    """
    return None if _holds(q) else _first_violation(q)


def _holds(q: FiniteQuandle) -> bool:
    t, n = q.table, q.size
    cols = [list(col) for col in zip(*t)]
    if any(t[a][a] != a for a in range(n)) or any(len(set(col)) != n for col in cols):
        return False
    return _distributes(cols, action_generators(range(n), (), lambda x, p: t[x][p]), range(n))


def _distributes(cols: list[list[int]], zs: Iterable[int], ys: Sequence[int]) -> bool:
    """Whether (x * y) * z == (x * z) * (y * z) for every x, every y in ys
    and every z in zs, where cols[b] is the column x -> x * b (lists, not
    tuples: map over a list's __getitem__ is the faster lookup)."""
    identity = list(range(len(cols)))
    for z in zs:
        col = cols[z]
        if col == identity:  # S_z is the identity map, an automorphism
            continue
        for y in ys:
            if list(map(col.__getitem__, cols[y])) != list(map(cols[col[y]].__getitem__, col)):
                return False
    return True


def _first_failure(axiom: str, failing: Iterable[tuple[int, ...]]) -> Optional[AxiomViolation]:
    """AxiomViolation(axiom, cell) for the first of the failing cells, None
    when there is none.  The one witness scan of the quandle, group and MCQ
    axioms: each axiom passes a generator of its failing cells in scan order,
    its failure condition written inline, so no scan makes a call per cell."""
    return next((AxiomViolation(axiom, cell) for cell in failing), None)


def _first_violation(q: FiniteQuandle) -> Optional[AxiomViolation]:
    t = q.table
    # (a * b) * c == (a * c) * (b * c) reads row a * b against rows a and b
    return (_first_failure("idempotency", ((a,) for a, row in enumerate(t) if row[a] != a))
            or check_columns(q)
            or _first_failure("self-distributivity", (
                (a, b, c) for a, ra in enumerate(t) for b, rb in enumerate(t)
                for c, (ab_c, ac, bc) in enumerate(zip(t[ra[b]], ra, rb)) if ab_c != t[ac][bc])))


def check_columns(q: FiniteQuandle) -> Optional[AxiomViolation]:
    """None when every column x -> x * b is a bijection; otherwise the first
    collision (a, a2, b) with a < a2 and a * b == a2 * b, in the first column
    b that is not a bijection, a2 least.  The failing cells (see
    _first_failure) come from that column only, each entry a2 with first[v],
    the first index of its value v (written last, from the end): O(n)."""
    n = q.size
    return _first_failure("right-invertibility", (
        (first[v], a2, b) for b, col in enumerate(zip(*q.table)) if len(set(col)) != n
        for first in [dict(zip(reversed(col), range(n - 1, -1, -1)))]
        for a2, v in enumerate(col) if first[v] < a2))


def op_pow(q: FiniteQuandle, a: int, n: int, b: int) -> int:
    """The n-fold operation a *^n b (n may be negative or zero).

    Walks the cycle of a under the column permutation of b, so the cost is
    the cycle length regardless of |n|.
    """
    if n == 0:
        return a
    cycle = [a]
    x = q.table[a][b]
    while x != a:
        cycle.append(x)
        x = q.table[x][b]
    return cycle[n % len(cycle)]


def _walks(f) -> list[list[int]]:
    """From each point of range(len(f)) not yet reached, in order, the walk
    x, f[x], f[f[x]], ... up to the first point already reached.  For a
    permutation these are its cycles, each from its least point; on any
    other map a walk is a tail and then a cycle."""
    reached = [False] * len(f)
    walks = []
    for x in range(len(f)):
        if reached[x]:
            continue
        walk = []
        while not reached[x]:
            reached[x] = True
            walk.append(x)
            x = f[x]
        walks.append(walk)
    return walks


def column_cycle_type(q: FiniteQuandle, b: int) -> tuple[int, ...]:
    """Sorted cycle lengths of the column permutation x -> x * b."""
    return tuple(sorted(map(len, _walks([row[b] for row in q.table]))))


def type_of(q: FiniteQuandle) -> int:
    """Least n >= 1 with a *^n b == a for all a, b.

    Equals the lcm of the column permutation orders, which avoids iterating
    over candidate exponents.
    """
    return functools.reduce(math.lcm, (len(w) for col in zip(*q.table) for w in _walks(col)), 1)


def _reach(reached: set, fresh: Iterable[int], step: Callable[[set], set]) -> set:
    """Grows reached in place, round by round, and returns it: a round adds
    fresh, and the set step(fresh) of its images, less reached, is the next."""
    fresh = set(fresh) - reached
    while fresh:
        reached |= fresh
        fresh = step(fresh) - reached
    return reached


def orbits(domain: Iterable[int], moves: Callable[[int], Iterable[int]]) -> Partition:
    """Orbits of a finite domain under maps that each permute it.

    `moves(x)` gives the image of x under every map.  Only these forward
    images are followed: a permutation of a finite set has its inverse among
    its powers, so the forward closure of a point is its whole orbit.  One
    that leaves the domain raises NotASubquandle; two overlapping forward
    closures prove that some map is not a bijection and raise InvalidTable.
    """
    members = sorted(set(domain))
    if not members:
        raise ValueError("the domain must be non-empty")
    inside, seen, blocks = set(members), set(), []
    for seed in members:
        if seed in seen:
            continue
        block = _reach(set(), (seed,), lambda fresh: set(chain.from_iterable(map(moves, fresh))))
        if not block <= inside:
            raise NotASubquandle(f"the orbit of {seed} leaves the subset")
        if not seen.isdisjoint(block):
            raise InvalidTable("right translations are not bijections")
        seen |= block
        blocks.append(block)
    return Partition(blocks)


def closure(seeds: Iterable[int], products: Callable[[int, int], Iterable[int]]) -> frozenset[int]:
    """Least set that holds the seeds and products(a, b) for all members a, b.

    `products` is called once per unordered pair of members (a == b
    included), so it must give the products of both orders: O(|closure|^2)
    calls: a round pairs each fresh member with every member up to it in
    the order reached.  A generating set comes cheaper from action_generators.
    """
    order = []  # the members in the order reached

    def up_to(a):
        order.append(a)
        return order

    reached = _reach(set(), seeds,
                     lambda fresh: {y for a in fresh for b in up_to(a) for y in products(a, b)})
    if not reached:
        raise ValueError("generating set must be non-empty")
    return frozenset(reached)


def action_generators(elements: Iterable[int], start: Iterable[int],
                      act: Callable[[int, int], int]) -> list[int]:
    """Greedy generating set under an action: the elements, taken in the
    given order, outside the span of the start set and the earlier picks.
    The span is the least set that holds both and is closed under
    x -> act(x, p) for every pick p.  It grows breadth first: a new pick is
    applied to the old span, and each new member to every pick, so the cost
    is O(|span| |picks|) calls of act, where closure multiplies every pair
    of members.

    The span lies inside the closure of the start set and the picks under
    any products(a, b) that include act(a, b) (see closure): each member is
    a start element, a pick, or act(y, p) for an earlier member y and a
    pick p, both inside that closure.  So when the span reaches every
    element, the start set and the picks generate everything under those
    products.  Each element below a pick lies in the span of the earlier
    picks and the start set.
    """
    span, picks = set(start), []
    for x in elements:
        if x not in span:
            picks.append(x)
            _reach(span, {x}.union([act(y, x) for y in span]),
                   lambda fresh: {act(y, p) for y in fresh for p in picks})
    return picks


def generated_subquandle(q: FiniteQuandle, seeds: Iterable[int]) -> frozenset[int]:
    """Least subset containing the seeds and closed under * and its inverse.

    Closure under * suffices: x *^-1 a is a power x *^k a (see op_pow).
    """
    t = q.table
    return closure(seeds, lambda a, b: (t[a][b], t[b][a]))


def connected_components(q: FiniteQuandle, ambient: Iterable[int] | None = None) -> Partition:
    """Orbits of the ambient set under the right translations by its members.

    The ambient set must be closed under * (NotASubquandle otherwise); the
    orbit of x is reached through the products x * a, a row of the table
    restricted to the ambient set.
    """
    if ambient is None:
        return orbits(range(q.size), q.table.__getitem__)
    read = _reader(amb := sorted(set(ambient)))
    return orbits(amb, lambda x: read(q.table[x]))


def _reader(row: Sequence[int]):
    """The tuple of cells[i] for i in row, as itemgetter(*row) reads it for two or more."""
    if len(row) < 2:
        return lambda cells: tuple(map(cells.__getitem__, row))
    return itemgetter(*row)


def is_connected(q: FiniteQuandle, ambient: Iterable[int] | None = None) -> bool:
    return len(connected_components(q, ambient)) == 1


def subquandle(q: FiniteQuandle, elements: Iterable[int]) -> FiniteQuandle:
    """The induced quandle on a closed subset, reindexed in sorted order."""
    elems = sorted(set(elements))
    if not elems:
        raise ValueError("subquandle must be non-empty")
    index = {x: i for i, x in enumerate(elems)}
    try:
        table = [tuple([index[q.table[x][y]] for y in elems]) for x in elems]
    except KeyError as exc:
        raise NotASubquandle(f"the product {exc.args[0]} leaves the subset") from None
    labels = [q.labels[x] for x in elems] if q.labels is not None else None
    return FiniteQuandle._built(table, labels)


def _profile(q: FiniteQuandle):
    """Per element: component size, column cycle type, row fixed-point count."""
    size_of = {x: len(block) for block in connected_components(q) for x in block}
    return [(size_of[a], column_cycle_type(q, a), row.count(a)) for a, row in enumerate(q.table)]


class _Mismatch(Exception):
    """The partial map of find_isomorphism fails to extend."""


def find_isomorphism(q1: FiniteQuandle, q2: FiniteQuandle) -> Optional[tuple[int, ...]]:
    """A table-transporting bijection from q1 to q2, or None.

    Backtracks over the images of q1's greedy generators g1 < g2 < ... under
    x -> x * p (see action_generators) in ascending order, pruned by the
    invariants of _profile, and carries each pick along the span walk of
    action_generators: the new pick is applied to the old span, and each new
    member to every pick so far, which sets or checks phi(y * p) =
    phi(y) * phi(p).  Each element below g_k lies in the span of the
    earlier picks, so a complete map is fixed by the images of the picks,
    and complete maps come in lexicographic order: the first that transports
    is the lexicographically least isomorphism.

    A complete map passes one full transport check before it is accepted.
    Agreement on the pick edges makes phi a homomorphism only when both
    tables are right self-distributive (R_(a * b) = R_b^-1 R_a R_b), which
    an unchecked table or a near-quandle need not be.
    """
    if q1.size != q2.size:
        return None
    n = q1.size
    p1, p2 = _profile(q1), _profile(q2)
    if sorted(p1) != sorted(p2):
        return None
    t1, t2 = q1.table, q2.table
    phi = [-1] * n
    used = [False] * n
    members: list[int] = []  # mapped elements in span order, the undo trail

    def assign(z: int, v: int) -> None:
        if phi[z] != v:
            if phi[z] >= 0 or used[v] or p1[z] != p2[v]:
                raise _Mismatch
            phi[z] = v
            used[v] = True
            members.append(z)

    def images(g: int):
        # read lazily, against the images in use before g is picked
        return (v for v in range(n) if not used[v] and p2[v] == p1[g])

    def transports() -> bool:
        return all(list(map(phi.__getitem__, row)) == list(map(t2[phi[a]].__getitem__, phi))
                   for a, row in enumerate(t1))

    gens = action_generators(range(n), (), lambda x, p: t1[x][p])
    stack = [(images(gens[0]), 0)]  # per pick: its untried images, len(members) before it
    while stack:
        untried, mark = stack[-1]
        for z in members[mark:]:
            used[phi[z]] = False
            phi[z] = -1
        del members[mark:]
        picks = gens[:len(stack)]
        g = picks[-1]
        try:
            assign(g, next(untried))
            for y in members[:mark]:
                assign(t1[y][g], t2[phi[y]][phi[g]])
            i = mark
            while i < len(members):  # reaches the members that it appends
                y = members[i]
                row1, row2 = t1[y], t2[phi[y]]
                for p in picks:
                    assign(row1[p], row2[phi[p]])
                i += 1
        except StopIteration:  # every image of this pick was tried
            stack.pop()
            continue
        except _Mismatch:
            continue
        if len(stack) < len(gens):
            stack.append((images(gens[len(stack)]), len(members)))
        elif transports():
            return tuple(phi)
    return None
