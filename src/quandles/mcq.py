"""Multiple conjugation quandles: disjoint unions of groups with a global
operation that is conjugation inside each group.

The index set of the constituent groups carries an action through the group
identities: moving an identity by right translations lands in some group,
and the orbits of that action drive both connectivity and the maximal
connected decomposition.  A finite quandle of type m induces one of these
structures on quandle-element x group-element pairs, with all groups cyclic
of order m.  Substructures are tested and generated with the products that
closure follows: * both ways, and the group product inside one group.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import getitem, itemgetter
from typing import Iterable, Optional, Sequence

from .decomposition import Decomposition, iterate_refinement
from .group import FiniteGroup, conj_quandle, cyclic_group
from .quandle import (AxiomViolation, FiniteQuandle, Partition, _distributes, _first_failure,
                      _Table, action_generators, check_axioms, closure, orbits, read_table,
                      type_of)


class MCQ(_Table):
    """Disjoint union of groups with a global * given as a carrier table.

    Carrier indices run over the groups in order; group_of maps a carrier
    index to its group index, and identity_of gives each group's identity as
    a carrier index.  Immutable after construction.
    """

    __slots__ = ("groups", "op", "offsets", "group_of", "labels", "size")

    def __init__(self, groups: Iterable[FiniteGroup], op, labels=None):
        groups = tuple(groups)
        if not groups:
            raise ValueError("need at least one group")
        self._fill(groups, *read_table(op, labels, "op", sum(g.size for g in groups)))

    def _fill(self, groups, rows, labels=None) -> None:
        self.groups = groups = tuple(groups)
        offsets = [0]
        group_of = []
        for lam, g in enumerate(groups):
            offsets.append(offsets[-1] + g.size)
            group_of.extend([lam] * g.size)
        self.offsets = tuple(offsets)
        self.size = offsets[-1]
        self.group_of = tuple(group_of)
        self.op = tuple(rows)
        self.labels = tuple(labels) if labels is not None else None

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def group_range(self, lam: int) -> range:
        return range(self.offsets[lam], self.offsets[lam + 1])

    def identity_of(self, lam: int) -> int:
        return self.offsets[lam] + self.groups[lam].identity

    def gmul(self, a: int, b: int) -> int:
        lam = self.group_of[a]
        if self.group_of[b] != lam:
            raise ValueError("group product needs both factors in one group")
        off = self.offsets[lam]
        return off + self.groups[lam].mult[a - off][b - off]

    def ginv(self, a: int) -> int:
        lam = self.group_of[a]
        off = self.offsets[lam]
        return off + self.groups[lam].inv[a - off]

    def to_json(self) -> dict:
        data = {"groups": [g.to_json() for g in self.groups],
                "op": [list(r) for r in self.op]}
        if self.labels is not None:
            data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_json(cls, data, check: bool = True) -> "MCQ":
        if not isinstance(data, dict) or "groups" not in data or "op" not in data:
            raise ValueError("expected an object with 'groups' and 'op' fields")
        if not isinstance(data["groups"], list):
            raise ValueError("'groups' must be a list")
        groups = [FiniteGroup.from_json(g, check=check) for g in data["groups"]]
        return cls(groups, data["op"], data.get("labels"))._checked(check, check_mcq_axioms)

    def __repr__(self):
        return f"<MCQ {self.group_count} groups, carrier {self.size}>"


def check_mcq_axioms(x: MCQ) -> Optional[AxiomViolation]:
    """None when all four axioms hold, else the first violation.

    Axioms, in checking order: the operation restricted to one group is
    conjugation; acting by an identity is trivial and acting by a product is
    the composite of the actions; the operation is right self-distributive;
    group multiplication is equivariant, with both factors moved into one
    common group.  The witness is the first failing cell, indices
    increasing, each axiom's scan a generator of its failing cells in order
    (see quandle._first_failure), which runs only on a structure that fails.

    The decision uses generating sets: Gamma_lam, the greedy picks of G_lam
    under right multiplication from its identity (see action_generators,
    O(|G_lam| |Gamma_lam|) products), and Z, the greedy picks of the whole
    structure under the group product inside one group and * across groups
    (see action_generators, O(|X| |Z|) products), which generate it under *
    and the group products.
    Conjugation and the identity action are checked in full;
    x * (a b) == (x * a) * b for all x, a and b in Gamma_lam; equivariance
    for all a, x and b in Gamma_lam with e_lam; self-distributivity for z in
    Z, y in the union of the Gamma_lam and all x.  Writing S_z for
    x -> x * z, this is exact:

    - the span of Gamma_lam is G_lam and lies inside the closure of e_lam
      and Gamma_lam under the group product, on any table, so a set closed
      under products holding both is G_lam;
    - the b of G_lam passing the action check for all x, a are closed under
      products, since S_(a b1 b2) = S_b2 S_(a b1) = S_b2 S_b1 S_a, and
      e_lam passes, acting trivially;
    - the b passing equivariance for all a at one x are closed under
      products, and b = e_lam puts every a * x into one group;
    - for fixed z, the y with S_z S_y = S_(y * z) S_z are closed under the
      group products (by the action and equivariance), and the identities
      are among them, since e * z is idempotent in its group, so Gamma
      suffices for y;
    - the z whose S_z is an automorphism of (X, *) are closed under the
      group products, S_(z1 z2) = S_z2 S_z1, and under *, because
      S_(z1 * z2) = S_z2 S_z1 S_z2^-1, so Z suffices for z.
    """
    return None if _holds(x) else _first_violation(x)


def _holds(x: MCQ) -> bool:
    # lists, not tuples: map over a list's __getitem__ is the faster lookup
    op = [list(row) for row in x.op]
    cols = [list(col) for col in zip(*op)]
    group_of = list(x.group_of)
    carrier = list(range(x.size))
    local, grows = _group_rows(x)
    gammas = []
    for lam in range(x.group_count):
        span = x.group_range(lam)
        if any(op[a][b] != x.gmul(x.gmul(x.ginv(b), a), b) for a in span for b in span):
            return False
        e = x.identity_of(lam)
        if cols[e] != carrier:
            return False
        gammas.append(action_generators(span, (e,), x.gmul))
    for lam, gamma in enumerate(gammas):
        span = x.group_range(lam)
        for b in gamma:
            for a in span:
                # x * (a b) == (x * a) * b for every x
                if cols[x.gmul(a, b)] != list(map(cols[b].__getitem__, cols[a])):
                    return False
        for b in (*gamma, x.identity_of(lam)):
            groups_b = list(map(group_of.__getitem__, op[b]))
            local_b = list(map(local.__getitem__, op[b]))
            for a in span:
                # (a b) * x == (a * x)(b * x), both factors in one group, for every x
                if list(map(group_of.__getitem__, op[a])) != groups_b:
                    return False
                if op[x.gmul(a, b)] != list(map(getitem, map(grows.__getitem__, op[a]), local_b)):
                    return False

    def act(y, p):  # the group product inside one group, * across groups
        return grows[y][local[p]] if group_of[y] == group_of[p] else op[y][p]

    return _distributes(cols, action_generators(carrier, (), act),
                        [y for gamma in gammas for y in gamma])


def _group_rows(x: MCQ) -> tuple[list[int], list[list[int]]]:
    """gmul(a, b) == grows[a][local[b]], local[b] being b's index in its group."""
    local = [i - x.offsets[lam] for i, lam in enumerate(x.group_of)]
    grows = [[x.offsets[lam] + v for v in x.groups[lam].mult[local[a]]]
             for a, lam in enumerate(x.group_of)]
    return local, grows


def _first_violation(x: MCQ) -> Optional[AxiomViolation]:
    op, group_of = x.op, x.group_of
    local, grows = _group_rows(x)
    inv = [x.offsets[lam] + v for lam, g in enumerate(x.groups) for v in g.inv]
    identities = list(map(x.identity_of, range(x.group_count)))
    # the pairs (a, b) of one group, group by group, with their product a b
    pairs = [(a, b, grows[a][local[b]]) for span in map(x.group_range, range(x.group_count))
             for a, b in itertools.product(span, repeat=2)]
    return (_first_failure("conjugation", (
                (a, b) for a, b, _ in pairs if op[a][b] != grows[grows[inv[b]][local[a]]][local[b]]))
            or _first_failure("group-action", (
                (xx, e) for xx, row in enumerate(op) for e in identities if row[e] != xx))
            or _first_failure("group-action", (
                (xx, a, b) for xx, row in enumerate(op) for a, b, ab in pairs
                if row[ab] != op[row[a]][b]))
            or _first_failure("self-distributivity", (
                (xx, y, z) for xx, rx in enumerate(op) for y, ry in enumerate(op)
                for z, (xy_z, xz, yz) in enumerate(zip(op[rx[y]], rx, ry)) if xy_z != op[xz][yz]))
            # a * x and b * x have a product only in one group, so the groups are compared first
            or _first_failure("product-equivariance", (
                (a, b, xx) for a, b, ab in pairs
                for xx, (ax, bx, ab_x) in enumerate(zip(op[a], op[b], op[ab]))
                if group_of[ax] != group_of[bx] or ab_x != grows[ax][local[bx]])))


def conjugation_mcq(group: FiniteGroup) -> MCQ:
    """A single group with x * a = a^-1 x a: its conjugation quandle's table."""
    return MCQ._built((group,), conj_quandle(group).table, group.labels)


def associated_mcq(q: FiniteQuandle, m: Optional[int] = None) -> MCQ:
    """The structure on pairs (x, g), x a quandle element and g in Z_m with m
    the quandle's type: (x, g) * (y, h) = (x *^h y, h^-1 g h) = (x *^h y, g),
    since Z_m is abelian.  The pair (x, g) is carrier index x m + g, so the
    row of (x, g) is the row of (x, 0) plus g.

    m defaults to type_of(q); a caller that knows the type already, such as
    the order of t on an Alexander quandle's module, passes it.
    """
    m = type_of(q) if m is None else m
    carrier = list(range(q.size * m))
    labels = list(map(pair_labeler(q.label, m), carrier))
    return MCQ._built((cyclic_group(m),) * q.size, _pair_rows(q, m, carrier), labels)


def associated_json_text(q: FiniteQuandle, m: Optional[int] = None) -> str:
    """json.dumps(associated_mcq(q, m).to_json(), sort_keys=True), written
    from q's rows with no int row."""
    m = type_of(q) if m is None else m
    names = [str(i) for i in range(q.size * m)]
    return _json_text([cyclic_group(m).to_json()] * q.size,
                      map(pair_labeler(q.label, m), range(len(names))), _pair_rows(q, m, names))


def _pair_rows(q: FiniteQuandle, m: int, cells: list):
    """The rows of associated_mcq(q, m) in carrier order, cells[i] standing
    for carrier index i.  The row of (x, 0) is worked out once per x, as a
    reader of the entries (x *^h y) m at y m + h; applied to cells[g:], it
    gives the row of (x, g)."""
    firsts = list(range(0, len(cells), m))  # shared int objects: firsts[x] == x m
    entries = []  # entries[y m + h][x] == (x *^h y) m: the rows of (x, 0) by column
    for col in zip(*q.table):  # col[x] == x * y
        read = _reader(col)
        entries.append(firsts)  # x *^0 y == x
        for _ in range(1, m):  # x *^h y == (x * y) *^(h - 1) y
            entries.append(read(entries[-1]))
    shifts = [cells[g:] for g in range(m)]
    return (row for read in map(_reader, zip(*entries)) for row in map(read, shifts))


def _reader(row: Sequence[int]):
    """itemgetter(*row), which also gives a tuple for a row of one entry."""
    if len(row) == 1:
        return lambda cells, i=row[0]: (cells[i],)
    return itemgetter(*row)


def _json_text(groups: list, labels, rows: Iterable[Sequence[str]]) -> str:
    """json.dumps of a structure's fields, sort_keys=True, with its op rows
    given as the texts of their entries."""
    data = {"groups": groups}
    if labels is not None:
        data["labels"] = list(labels)
    op = "], [".join(map(", ".join, rows))
    # "op" sorts after "groups" and "labels"
    return json.dumps(data, sort_keys=True)[:-1] + ', "op": [[' + op + "]]}"


def pair_labeler(label, m: int):
    """Labels of the associated structure's carrier from the base labels:
    index x m + g, the pair (x, g), reads "(label(x);g)"."""
    return lambda i: f"({label(i // m)};{i % m})"


def check_associated_axioms(q: FiniteQuandle) -> Optional[AxiomViolation]:
    """check_mcq_axioms(associated_mcq(q)), building the carrier only when
    q is not a quandle.

    If Q is a quandle of type m, Q x Z_m satisfies all four axioms, with
    (x, g) * (y, h) = (x *^h y, g) and S_y^h the h-th power of x -> x * y:
    - conjugation: inside the abelian group {x} x Z_m it is trivial, and
      (x, g) * (x, h) = (x *^h x, g) = (x, g) by idempotency;
    - action: the identity (y, 0) acts trivially, and the product
      (y, h)(y, k) = (y, h + k) acts by S_y^(h+k) = S_y^k S_y^h, exponents
      read mod m, since S_y^m = id;
    - self-distributivity: S_z S_y = S_(y * z) S_z in Q (maps composed
      right to left) gives S_z^k S_y^h = S_(y *^k z)^h S_z^k, which is
      ((x, g) * (y, h)) * (z, k) = ((x, g) * (z, k)) * ((y, h) * (z, k));
    - equivariance: (y, h + k) * (z, l) = (y *^l z, h + k) is the product
      of (y *^l z, h) and (y *^l z, k), in one group.
    The converse fails: a type-1 table with non-bijective columns can pass
    the four axioms while it fails check_axioms, so on failure the witness
    comes from the built structure.
    """
    return None if check_axioms(q) is None else check_mcq_axioms(associated_mcq(q))


def lambda_orbits(x: MCQ, lambda_subset: Iterable[int] | None = None) -> Partition:
    """Orbits of the group index set under right translations of identities.

    The translation by a sends each identity e_lam into one group, so it
    moves lam to the index of e_lam * a, permuting the finite index set.
    With a subset given, only translations by elements of that subset's
    groups are used, and the moves must stay inside the subset
    (NotASubquandle otherwise); orbit blocks arising from the refinement
    always do.
    """
    lams = range(x.group_count) if lambda_subset is None else sorted(set(lambda_subset))
    gens = [a for lam in lams for a in x.group_range(lam)]
    return orbits(lams, lambda lam: map(
        x.group_of.__getitem__, map(x.op[x.identity_of(lam)].__getitem__, gens)))


def is_sub_mcq(x: MCQ, subset: Iterable[int]) -> bool:
    """Whether the subset is a substructure: closed under * and under the
    products of members that share a group (the products closure follows).

    In a finite group a nonempty subset closed under the product is a
    subgroup, so this is the same as asking that every nonempty intersection
    with a group be a subgroup; verify.substructure_criteria checks it
    against two more formulations of the definition.
    """
    members = frozenset(subset)
    if not members:
        raise ValueError("subset must be non-empty")
    products = _sub_mcq_products(x)
    return all(y in members for a in members for b in members for y in products(a, b))


def generated_sub_mcq(x: MCQ, seeds: Iterable[int]) -> frozenset[int]:
    """Least subset containing the seeds closed under *, its inverse, and the
    group operations inside each constituent group.

    Closure under * and the group products suffices: in a finite group the
    powers of a hold its inverse, and x * a^-1 undoes x * a.
    """
    return closure(seeds, _sub_mcq_products(x))


def _sub_mcq_products(x: MCQ):
    op, group_of = x.op, x.group_of

    def products(a, b):
        if group_of[a] != group_of[b]:
            return op[a][b], op[b][a]
        return op[a][b], op[b][a], x.gmul(a, b), x.gmul(b, a)

    return products


@dataclass(frozen=True)
class McqDecomposition:
    """Refinement tower over the group index set, plus the carrier partition
    obtained by expanding each index block to its full groups."""

    index_tree: Decomposition
    carrier_partition: Partition

    def to_json(self) -> dict:
        data = self.index_tree.to_json()
        data["carrier_blocks"] = self.carrier_partition.to_json()
        return data


def maximal_mcq_decomposition(x: MCQ) -> McqDecomposition:
    """Iterate index-set orbit refinement to its fixed point.

    Fixed-point blocks expand to unions of whole groups: the carrier blocks
    are maximal connected substructures, with no proper subgroup surviving at
    the fixed point.
    """
    start = Partition([range(x.group_count)])
    tree = iterate_refinement(start, lambda block: lambda_orbits(x, block))
    carrier = Partition(
        [i for lam in block for i in x.group_range(lam)] for block in tree.final
    )
    return McqDecomposition(tree, carrier)


def associated_decomposition(dec: Decomposition, m: int) -> McqDecomposition:
    """maximal_mcq_decomposition(associated_mcq(q)) from dec, the maximal
    decomposition of q, and m = type_of(q), with no carrier table.

    In the associated structure (lam, 0) * (y, h) = (lam *^h y, 0), so the
    index orbits of a block are its orbits under the powers of S_y for y in
    the block.  Once the columns are bijections these powers generate the
    same permutation group as the S_y themselves, whose orbits are
    connected_components(q, block).  Both towers start from the whole set
    and refine block by block, so the index tree is dec itself, and each
    final block expands to its pairs x m + g.
    """
    carrier = Partition([x * m + g for x in block for g in range(m)] for block in dec.final)
    return McqDecomposition(dec, carrier)
