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

from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Optional

from .decomposition import Decomposition, iterate_refinement
from .group import FiniteGroup, conj_quandle, cyclic_group
from .quandle import (FiniteQuandle, InvalidTable, Partition, _distributes, check_axioms,
                      check_json_fields, closure, generators, orbits, type_of)


@dataclass(frozen=True)
class McqViolation:
    axiom: str
    witness: tuple[int, ...]


class MCQ:
    """Disjoint union of groups with a global * given as a carrier table.

    Carrier indices run over the groups in order; group_of maps a carrier
    index to its group index, and identity_of gives each group's identity as
    a carrier index.  Immutable after construction.
    """

    __slots__ = ("groups", "op", "offsets", "group_of", "labels", "size")

    def __init__(self, groups: Iterable[FiniteGroup], op, labels=None):
        self.groups = tuple(groups)
        if not self.groups:
            raise ValueError("need at least one group")
        offsets = [0]
        for g in self.groups:
            offsets.append(offsets[-1] + g.size)
        self.offsets = tuple(offsets)
        self.size = offsets[-1]
        rows = tuple(tuple(row) for row in op)
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
            raise ValueError("operation table must be carrier x carrier")
        if any(min(row) < 0 or max(row) >= self.size for row in rows):
            raise ValueError("operation entries must index the carrier")
        self.op = rows
        group_of = []
        for lam, g in enumerate(self.groups):
            group_of.extend([lam] * g.size)
        self.group_of = tuple(group_of)
        self.labels = tuple(str(x) for x in labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.size:
            raise ValueError("labels must match the carrier size")

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

    def star(self, x: int, a: int) -> int:
        return self.op[x][a]

    def star_inv(self, x: int, a: int) -> int:
        # x * (a a^-1) = x forces S_a^-1 = S_(a^-1)
        return self.op[x][self.ginv(a)]

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

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
        check_json_fields(data, "op")
        groups = [FiniteGroup.from_json(g, check=check) for g in data["groups"]]
        x = cls(groups, data["op"], data.get("labels"))
        if check:
            bad = check_mcq_axioms(x)
            if bad is not None:
                raise InvalidTable(f"{bad.axiom} fails at {bad.witness}")
        return x

    def __repr__(self):
        return f"<MCQ {self.group_count} groups, carrier {self.size}>"


def check_mcq_axioms(x: MCQ) -> Optional[McqViolation]:
    """None when all four axioms hold, else the first violation.

    Axioms, in checking order: the operation restricted to one group is
    conjugation; acting by an identity is trivial and acting by a product is
    the composite of the actions; the operation is right self-distributive;
    group multiplication is equivariant, with both factors moved into one
    common group.  The witness is the first in scan order (see
    _first_violation, which runs only on a structure that fails).

    The decision uses generating sets: Gamma_lam, a greedy generating set of
    G_lam grown from its identity, and Z, one of the whole structure under *
    and the group products (see generators).  Conjugation and the identity
    action are checked in full; x * (a b) == (x * a) * b for all x, a and
    b in Gamma_lam; equivariance for all a, x and b in Gamma_lam with e_lam;
    self-distributivity for z in Z, y in the union of the Gamma_lam and all
    x.  Writing S_z for x -> x * z, this is exact:

    - the b of G_lam passing the action check for all x, a are closed under
      products, since S_(a b1 b2) = S_b2 S_(a b1) = S_b2 S_b1 S_a;
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
    # the group product in carrier indices: gmul(a, b) == grows[a][local[b]]
    local = [i - x.offsets[lam] for i, lam in enumerate(group_of)]
    grows = [[x.offsets[lam] + v for v in x.groups[lam].mult[local[a]]]
             for a, lam in enumerate(group_of)]
    gammas = []
    for lam in range(x.group_count):
        span = x.group_range(lam)
        if any(op[a][b] != x.gmul(x.gmul(x.ginv(b), a), b) for a in span for b in span):
            return False
        e = x.identity_of(lam)
        if cols[e] != carrier:
            return False
        gammas.append(generators(span, (e,), lambda a, b: (x.gmul(a, b), x.gmul(b, a))))
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
    return _distributes(cols, generators(carrier, (), _sub_mcq_products(x)),
                        [y for gamma in gammas for y in gamma])


def _first_violation(x: MCQ) -> Optional[McqViolation]:
    op = x.op
    for lam in range(x.group_count):
        for a in x.group_range(lam):
            for b in x.group_range(lam):
                if op[a][b] != x.gmul(x.gmul(x.ginv(b), a), b):
                    return McqViolation("conjugation", (a, b))
    for xx in range(x.size):
        for lam in range(x.group_count):
            if op[xx][x.identity_of(lam)] != xx:
                return McqViolation("group-action", (xx, x.identity_of(lam)))
    for xx in range(x.size):
        for lam in range(x.group_count):
            for a in x.group_range(lam):
                for b in x.group_range(lam):
                    if op[xx][x.gmul(a, b)] != op[op[xx][a]][b]:
                        return McqViolation("group-action", (xx, a, b))
    for xx in range(x.size):
        for y in range(x.size):
            xy = op[xx][y]
            for z in range(x.size):
                if op[xy][z] != op[op[xx][z]][op[y][z]]:
                    return McqViolation("self-distributivity", (xx, y, z))
    for lam in range(x.group_count):
        for a in x.group_range(lam):
            for b in x.group_range(lam):
                ab = x.gmul(a, b)
                for xx in range(x.size):
                    ax, bx = op[a][xx], op[b][xx]
                    if x.group_of[ax] != x.group_of[bx]:
                        return McqViolation("product-equivariance", (a, b, xx))
                    if op[ab][xx] != x.gmul(ax, bx):
                        return McqViolation("product-equivariance", (a, b, xx))
    return None


def conjugation_mcq(group: FiniteGroup) -> MCQ:
    """A single group with x * a = a^-1 x a: its conjugation quandle's table."""
    return MCQ((group,), conj_quandle(group).table, group.labels)


def associated_mcq(q: FiniteQuandle) -> MCQ:
    """The structure on pairs (x, g), x a quandle element and g in Z_m with m
    the quandle's type: (x, g) * (y, h) = (x *^h y, h^-1 g h) = (x *^h y, g),
    since Z_m is abelian.  The pair (x, g) is carrier index x m + g, so the
    row of (x, g) is the row of (x, 0) plus g.
    """
    m = type_of(q)
    n = q.size
    ys = range(n)
    # shared int objects: firsts[x] == x m and shifts[g][i] == i + g
    carrier = list(range(n * m))
    firsts = carrier[::m]
    shifts = [carrier[g:] for g in range(m)]
    op = []
    for xx in ys:
        base = [0] * (n * m)
        power = [xx] * n  # power[y] == xx *^h y
        for h in range(m):
            base[h::m] = map(firsts.__getitem__, power)
            power = list(map(getitem, map(q.table.__getitem__, power), ys))
        op.extend(tuple(map(shift.__getitem__, base)) for shift in shifts)
    labels = list(map(pair_labeler(q.label, m), carrier))
    return MCQ((cyclic_group(m),) * n, op, labels)


def pair_labeler(label, m: int):
    """Labels of the associated structure's carrier from the base labels:
    index x m + g, the pair (x, g), reads "(label(x);g)"."""
    return lambda i: f"({label(i // m)};{i % m})"


def check_associated_axioms(q: FiniteQuandle) -> Optional[McqViolation]:
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

    @classmethod
    def from_json(cls, data) -> "McqDecomposition":
        return cls(Decomposition.from_json(data), Partition.from_json(data["carrier_blocks"]))


def maximal_mcq_decomposition(x: MCQ) -> McqDecomposition:
    """Iterate index-set orbit refinement to its fixed point.

    Fixed-point blocks expand to unions of whole groups: the carrier blocks
    are maximal connected substructures, with no proper subgroup surviving at
    the fixed point.
    """
    start = Partition([range(x.group_count)])
    tree = iterate_refinement(start, lambda block: lambda_orbits(x, block).blocks)
    carrier = Partition(
        [i for lam in block for i in x.group_range(lam)] for block in tree.final.blocks
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
    carrier = Partition([x * m + g for x in block for g in range(m)] for block in dec.final.blocks)
    return McqDecomposition(dec, carrier)
