"""Reproduction suite: worked examples and closed forms checked against the
brute-force engines, plus the seeded randomized property suites.

Every check row carries the expected value (a frozen constant from the
EXPECTED table) and the value the engine computed, so a report reads as a
claim-by-claim table.  The randomized suites are deterministic for a fixed
seed and are shared with the test suite.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .alexander import (alexander_decomposition, alexander_quandle, component_ideal, dihedral,
                        gcd_chain, orbit_count)
from .group import (FiniteGroup, check_group, conj_quandle, conjugacy_classes, cyclic_group,
                    symmetric_group)
from .decomposition import maximal_decomposition
from .laurent import ONE_MINUS_T, LaurentPoly, split_one_minus_t, syzygy_basis
from .intmat import in_row_span
from .mcq import (
    MCQ,
    associated_decomposition,
    associated_mcq,
    check_associated_axioms,
    check_mcq_axioms,
    generated_sub_mcq,
    is_sub_mcq,
    lambda_orbits,
    maximal_mcq_decomposition,
)
from .quandle import (
    FiniteQuandle,
    Partition,
    check_axioms,
    connected_components,
    find_isomorphism,
    generated_subquandle,
    is_connected,
    subquandle,
    trivial_quandle,
    type_of,
)
from . import group, mcq, quandle
from .tmodule import (
    IdealPresentation,
    UnsupportedPresentation,
    build,
    ideals_equal,
    parse_ideal,
    presentation_from_generators,
)

DEFAULT_SEED = 12345
PROPERTY_CASES = 1000
SUBSETS_PER_MCQ = 500

SIX_CUBIC = "6; t^2+t+1"

ORBIT_LABELS = (
    frozenset({"0", "3", "3t", "1+2t", "1+5t", "2+t", "2+4t",
               "3+3t", "4+2t", "4+5t", "5+t", "5+4t"}),
    frozenset({"1", "4", "t", "4t", "1+3t", "2+2t", "2+5t",
               "3+t", "3+4t", "4+3t", "5+2t", "5+5t"}),
    frozenset({"2", "5", "2t", "5t", "1+t", "1+4t", "2+3t",
               "3+2t", "3+5t", "4+t", "4+4t", "5+3t"}),
)

MAXIMAL_BLOCK_LABELS = frozenset({
    frozenset({"0", "3", "3t", "3+3t"}),
    frozenset({"1+5t", "1+2t", "4+2t", "4+5t"}),
    frozenset({"2+4t", "2+t", "5+t", "5+4t"}),
    frozenset({"1", "4", "1+3t", "4+3t"}),
    frozenset({"2+5t", "2+2t", "5+2t", "5+5t"}),
    frozenset({"3+4t", "3+t", "t", "4t"}),
    frozenset({"2", "5", "2+3t", "5+3t"}),
    frozenset({"3+5t", "3+2t", "2t", "5t"}),
    frozenset({"4+4t", "4+t", "1+t", "1+4t"}),
})

EXPECTED = {
    "six-cubic-order": 36,
    "six-cubic-orbit-count": 3,
    "six-cubic-component-sizes": (12, 12, 12),
    "six-cubic-orbit-labels": ORBIT_LABELS,
    "six-cubic-block-sizes": (4,) * 9,
    "six-cubic-block-labels": MAXIMAL_BLOCK_LABELS,
    "six-cubic-depth": 2,
    "conj-s3-component-sizes": (1, 2, 3),
    "conj-s3-final-sizes": (1, 1, 1, 3),
    "conj-s3-depth": 2,
    "conj-s4-component-sizes": (1, 3, 6, 6, 8),
    "conj-s4-final-sizes": (1, 1, 1, 1, 4, 4, 6, 6),
    "conj-s4-depth": 2,
    "component-ideal-order": 12,
    "tetrahedral-connected": True,
}


@dataclass(frozen=True)
class CheckRow:
    group: str
    claim: str
    expected: object
    computed: object

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


def _row(group, claim, key_or_value, computed, literal=False):
    expected = key_or_value if literal else EXPECTED[key_or_value]
    return CheckRow(group, claim, expected, computed)


# ---------------------------------------------------------------------------
# worked examples


def _six_cubic_rows() -> list[CheckRow]:
    g = "six-cubic"
    aq = alexander_quandle(build(parse_ideal(SIX_CUBIC)))
    module = aq.module
    rows = [_row(g, "module order of (6; t^2+t+1)", "six-cubic-order", module.order)]
    comps = connected_components(aq.quandle)
    rows.append(_row(g, "component count equals gcd of values at 1",
                     "six-cubic-orbit-count",
                     orbit_count(module.presentation.generators())))
    rows.append(_row(g, "component sizes", "six-cubic-component-sizes", comps.sizes()))
    by_class = {}
    for block in comps.blocks:
        cls = module.eval_one_class(module.elements()[block[0]])
        by_class[cls] = frozenset(aq.quandle.label(i) for i in block)
    rows.append(_row(g, "component label sets by residue class",
                     "six-cubic-orbit-labels",
                     tuple(by_class.get(i, frozenset()) for i in range(3))))
    dec = maximal_decomposition(aq.quandle)
    rows.append(_row(g, "maximal block sizes", "six-cubic-block-sizes", dec.final.sizes()))
    rows.append(_row(g, "maximal block label sets", "six-cubic-block-labels",
                     frozenset(frozenset(aq.quandle.label(i) for i in block)
                               for block in dec.final.blocks)))
    rows.append(_row(g, "refinement depth", "six-cubic-depth", dec.depth))
    rows.append(_row(g, "component of 0 equals the image of 1-t", True,
                     sorted(module.elements()[i] for i in comps.block_of(0))
                     == module.one_minus_t_image(), literal=True))
    return rows


def _conj_symmetric_rows() -> list[CheckRow]:
    rows = []
    for n, key in ((3, "conj-s3"), (4, "conj-s4")):
        g = key
        q = conj_quandle(symmetric_group(n))
        comps = connected_components(q)
        rows.append(_row(g, f"Conj(S{n}) component sizes", f"{key}-component-sizes",
                         comps.sizes()))
        rows.append(_row(g, f"Conj(S{n}) components are the conjugacy classes", True,
                         comps == conjugacy_classes(symmetric_group(n)), literal=True))
        dec = maximal_decomposition(q)
        rows.append(_row(g, f"Conj(S{n}) maximal block sizes", f"{key}-final-sizes",
                         dec.final.sizes()))
        rows.append(_row(g, f"Conj(S{n}) depth", f"{key}-depth", dec.depth))
    return rows


def _dihedral_sweep_rows() -> list[CheckRow]:
    g = "dihedral-sweep"
    bad = []
    for m in range(1, 65):
        l = (m & -m).bit_length() - 1
        k = m >> l
        aq = dihedral(m)
        dec = maximal_decomposition(aq.quandle)
        ref = dihedral(k).quandle
        ok = dec.depth == l and len(dec.final) == 2 ** l and all(
            find_isomorphism(subquandle(aq.quandle, block), ref) is not None
            for block in dec.final.blocks
        )
        if not ok:
            bad.append(m)
    return [_row(g, "m = 1..64: 2^l blocks, each a copy of R_k, depth l (m = 2^l k)",
                 [], bad, literal=True)]


def _linear_grid_rows() -> list[CheckRow]:
    g = "linear-grid"
    bad = []
    for n0 in range(1, 41):
        for a in range(-10, 11):
            formula = gcd_chain(n0, a)
            pres = IdealPresentation(n0, (LaurentPoly({0: a, 1: 1}),))
            module = build(pres)
            aq = alexander_quandle(module)
            dec = maximal_decomposition(aq.quandle)
            ref = alexander_quandle(
                build(IdealPresentation(formula.block_modulus, (LaurentPoly({0: a, 1: 1}),)))
            ).quandle
            # the chain as the rank-1 case of the (1 - t)^k tower; a block has
            # block_modulus elements unless saturation shrinks it (a not a unit)
            tower = alexander_decomposition(module)
            ok = (
                len(dec.final) == formula.block_count
                and dec.depth == formula.depth
                and all(
                    find_isomorphism(subquandle(aq.quandle, block), ref) is not None
                    for block in dec.final.blocks
                )
                and tower.depth == formula.depth
                and len(tower.final) == formula.block_count
                and set(tower.final.sizes()) == {ref.size}
                and (math.gcd(a, n0) != 1 or ref.size == formula.block_modulus)
            )
            if not ok:
                bad.append((n0, a))
    return [_row(g, "n0 = 1..40, a = -10..10: block count, depth and block type "
                    "match the gcd chain, by refinement and by the (1-t)^k tower",
                 [], bad, literal=True)]


def _eval_classifier_rows() -> list[CheckRow]:
    g = "eval-classifier"
    bad = []
    cases = [parse_ideal(SIX_CUBIC)]
    cases += [IdealPresentation(m, (LaurentPoly({0: 1, 1: 1}),)) for m in range(1, 65)]
    cases += [
        IdealPresentation(n0, (LaurentPoly({0: a, 1: 1}),))
        for n0 in range(1, 41, 3)
        for a in range(-10, 11, 4)
    ]
    for pres in cases:
        aq = alexander_quandle(build(pres))
        module = aq.module
        elems = module.elements()
        classes: dict[int, list[int]] = {}
        for i, e in enumerate(elems):
            classes.setdefault(module.eval_one_class(e), []).append(i)
        if connected_components(aq.quandle) != Partition(classes.values()):
            bad.append(pres.descriptor())
    return [_row(g, "component partition equals the value-at-1 classification",
                 [], bad, literal=True)]


def _component_ideal_rows() -> list[CheckRow]:
    g = "component-ideal"
    rows = []
    result = component_ideal(list(parse_ideal(SIX_CUBIC).generators()))
    derived = presentation_from_generators(result.generators)
    module = build(derived)
    rows.append(_row(g, "augmented ideal of (6; t^2+t+1) has order",
                     "component-ideal-order", module.order))
    explicit = parse_ideal("6; 2t+4; t^2+t+1")
    rows.append(_row(g, "augmented ideal equals (6; 2t+4; t^2+t+1)", True,
                     ideals_equal(derived, explicit), literal=True))
    aq = alexander_quandle(build(parse_ideal(SIX_CUBIC)))
    piece = alexander_quandle(module).quandle
    comps = connected_components(aq.quandle)
    rows.append(_row(g, "every component is a copy of the augmented quotient", True,
                     all(find_isomorphism(subquandle(aq.quandle, block), piece) is not None
                         for block in comps.blocks), literal=True))
    tet = alexander_quandle(build(parse_ideal("2; t^2+t+1")))
    rows.append(_row(g, "the quotient by (2; t^2+t+1) is connected",
                     "tetrahedral-connected", is_connected(tet.quandle)))
    return rows


# ---------------------------------------------------------------------------
# randomized property suites (shared with the test suite)


def _random_poly(rng, max_deg=3, span=2, coeff=6) -> LaurentPoly:
    lo = rng.randint(-span, span)
    hi = lo + rng.randint(0, max_deg)
    return LaurentPoly({e: rng.randint(-coeff, coeff) for e in range(lo, hi + 1)})


def _random_module(rng, max_order=36):
    for _ in range(64):
        deg = rng.randint(1, 2)
        modulus = rng.randint(1, 6 if deg == 2 else 12)
        coeffs = {deg: rng.randint(1, 5)}
        for e in range(deg):
            coeffs[e] = rng.randint(-6, 6)
        try:
            module = build(IdealPresentation(modulus, (LaurentPoly(coeffs),)))
        except UnsupportedPresentation:
            continue
        if module.order <= max_order:
            return module
    return build(IdealPresentation(rng.randint(1, 12), (LaurentPoly({0: 1, 1: 1}),)))


def _random_quandle(rng, max_size=16):
    kind = rng.randrange(4)
    if kind == 0:
        return dihedral(rng.randint(1, max_size)).quandle
    if kind == 1:
        return alexander_quandle(_random_module(rng, max_order=max_size)).quandle
    if kind == 2:
        if rng.randrange(2):
            return conj_quandle(symmetric_group(rng.randint(1, 4)))
        return conj_quandle(cyclic_group(rng.randint(1, max_size)))
    return trivial_quandle(rng.randint(1, max_size))


def near_quandle(rng, q: FiniteQuandle) -> FiniteQuandle:
    """q with the images of two elements swapped in one column: the columns
    stay bijections, and the table is mostly not a quandle."""
    t = [list(row) for row in q.table]
    if q.size > 1:
        b = rng.randrange(q.size)
        a1, a2 = rng.sample(range(q.size), 2)
        t[a1][b], t[a2][b] = t[a2][b], t[a1][b]
    return FiniteQuandle(t, q.labels)


def random_small_mcq(rng) -> MCQ:
    """One to four groups Z_1, Z_2 or Z_3, with conjugation inside each group
    and identities acting trivially.  The other products are random or, half
    the time, the powers of one permutation per group of an order dividing
    the group's that fixes the group, so that the action axiom holds too."""
    groups = [cyclic_group(rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    n = sum(g.size for g in groups)
    op = [[xx] * n for xx in range(n)]
    powers = rng.randrange(2)
    off = 0
    for g in groups:
        m = g.size
        others = [i for i in range(n) if not off <= i < off + m]
        if powers:
            rng.shuffle(others)
            sigma = list(range(n))
            for k in range(rng.randint(0, len(others) // m)):
                cycle = others[k * m:(k + 1) * m]
                for i, v in enumerate(cycle):
                    sigma[v] = cycle[(i + 1) % m]
            image = list(range(n))
            for j in range(1, m):
                image = [sigma[v] for v in image]
                for xx in range(n):
                    op[xx][off + j] = image[xx]
        else:
            for j in range(1, m):
                for xx in others:
                    op[xx][off + j] = rng.randrange(n)
        off += m
    return MCQ(groups, op)


def substructure_criteria(x: MCQ, subset) -> tuple[bool, bool, bool]:
    """The substructure test scored three ways, as reference code for
    is_sub_mcq: (1) the restricted operations form groups (identity,
    products and inverses stay inside); (2) every nonempty intersection with
    a group is closed under the product, enough in a finite group; (3) the
    subset is a disjoint union of subgroups by the one-step test a b^-1.
    Each also needs closure under *."""
    members = set(subset)
    closed = all(x.op[a][b] in members for a in members for b in members)
    parts = [members.intersection(x.group_range(lam)) for lam in range(x.group_count)]
    parts = [(lam, part) for lam, part in enumerate(parts) if part]
    by_restriction = closed and all(
        x.identity_of(lam) in part
        and all(x.ginv(a) in part for a in part)
        and all(x.gmul(a, b) in part for a in part for b in part)
        for lam, part in parts)
    by_intersections = closed and all(
        x.gmul(a, b) in part for _, part in parts for a in part for b in part)
    by_factorization = closed and all(
        x.identity_of(lam) in part
        and all(x.gmul(a, x.ginv(b)) in part for a in part for b in part)
        for lam, part in parts)
    return by_restriction, by_intersections, by_factorization


def reference_symmetric_table(n: int) -> list[list[int]]:
    """symmetric_group(n)'s table composed one cell at a time from the
    permutations (p first, q second), as reference code."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[p[i]] for i in range(n))] for q in perms] for p in perms]


def reference_conj_table(g: FiniteGroup) -> list[list[int]]:
    """conj_quandle(g)'s table by the formula b^-1 a b = (b^-1 a) b, one
    cell at a time, as reference code."""
    m, inv = g.mult, g.inv
    return [[m[m[inv[b]][a]][b] for b in range(g.size)] for a in range(g.size)]


def reference_identity_and_inverses(mult) -> tuple | str:
    """(identity, inverses) of a square table by scanning every candidate,
    or the message FiniteGroup raises, as reference code for its
    constructor; each inverse is the least two-sided one."""
    n = len(mult)
    e = next((e for e in range(n) if all(mult[e][x] == x == mult[x][e] for x in range(n))),
             None)
    if e is None:
        return "table has no identity element"
    inv = []
    for a in range(n):
        b = next((b for b in range(n) if mult[a][b] == e == mult[b][a]), None)
        if b is None:
            return f"element {a} has no inverse"
        inv.append(b)
    return e, tuple(inv)


def _dihedral_group_table(m: int) -> list[list[int]]:
    """The group of order 2m: index i + m j stands for r^i s^j, s r = r^-1 s."""
    return [[(i + (k if j == 0 else -k)) % m + m * ((j + l) % 2)
             for l in range(2) for k in range(m)] for j in range(2) for i in range(m)]


def _product_table(g, h) -> list[list[int]]:
    """The direct product of two group tables; index a |h| + b is (a, b)."""
    nh = len(h)
    return [[g[a][c] * nh + h[b][d] for c in range(len(g)) for d in range(nh)]
            for a in range(len(g)) for b in range(nh)]


def small_group_tables() -> list[list[list[int]]]:
    """Cyclic groups of order up to 12, dihedral groups of order up to 24,
    S3 and S4."""
    small = [[[(a + b) % k for b in range(k)] for a in range(k)] for k in range(1, 13)]
    small += [_dihedral_group_table(k) for k in range(1, 13)]
    return small + [reference_symmetric_table(3), reference_symmetric_table(4)]


def random_group_table(rng, small) -> list[list[int]]:
    """One of the small group tables, or a product of two of them, of order
    at most 24, relabelled by a random permutation half the time."""
    mult = rng.choice(small)
    if rng.randrange(3) == 0:
        mult = _product_table(mult, rng.choice([h for h in small
                                                if len(h) * len(mult) <= 24]))
    if rng.randrange(2):
        n = len(mult)
        sigma = rng.sample(range(n), n)
        relabelled = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                relabelled[sigma[x]][sigma[y]] = sigma[mult[x][y]]
        mult = relabelled
    return mult


def near_group(rng, mult) -> list[list[int]]:
    """The table with two entries of one row swapped: the row stays a
    permutation, and the table is mostly not associative (and sometimes
    loses its identity or an inverse)."""
    t = [list(row) for row in mult]
    if len(t) > 1:
        a = rng.randrange(len(t))
        b1, b2 = rng.sample(range(len(t)), 2)
        t[a][b1], t[a][b2] = t[a][b2], t[a][b1]
    return t


def suite_group_generators(rng, cases=PROPERTY_CASES) -> int:
    """The group-layer constructors against their per-cell reference code:
    symmetric_group(k) for k <= 5, and on seeded groups and near-groups
    (one row with two entries swapped) the identity and inverses FiniteGroup
    finds or the message it raises, check_group against the full scan, and
    on genuine groups the conjugation table."""
    failures = sum(symmetric_group(k).mult != tuple(map(tuple, reference_symmetric_table(k)))
                   for k in range(1, 6))
    small = small_group_tables()
    for _ in range(cases):
        mult = random_group_table(rng, small)
        genuine = rng.randrange(2)
        if not genuine:
            mult = near_group(rng, mult)
        try:
            g = FiniteGroup(mult)
        except ValueError as exc:
            failures += str(exc) != reference_identity_and_inverses(mult)
            continue
        ok = (g.identity, g.inv) == reference_identity_and_inverses(mult)
        ok = ok and check_group(g) == group._first_nonassociative(g)
        ok = ok and (not genuine or conj_quandle(g).table
                     == tuple(map(tuple, reference_conj_table(g))))
        failures += not ok
    return failures


def suite_constructor_axioms(rng, cases=PROPERTY_CASES) -> int:
    """Every constructor output passes the three quandle axioms."""
    failures = 0
    for _ in range(cases):
        q = _random_quandle(rng)
        if check_axioms(q) is not None:
            failures += 1
            continue
        dec = maximal_decomposition(q)
        block = dec.final.blocks[rng.randrange(len(dec.final))]
        if check_axioms(subquandle(q, block)) is not None:
            failures += 1
    return failures


def suite_split_identity(rng, cases=PROPERTY_CASES) -> int:
    """f == (1 - t) q + f(1) exactly, for random f."""
    failures = 0
    for _ in range(cases):
        f = _random_poly(rng, max_deg=6, span=4, coeff=30)
        q, c = split_one_minus_t(f)
        if ONE_MINUS_T * q + c != f:
            failures += 1
    return failures


def suite_syzygy(rng, cases=PROPERTY_CASES) -> int:
    """Basis vectors annihilate the input, and independently generated
    syzygies reduce to zero against the basis."""
    failures = 0
    for _ in range(cases):
        k = rng.randint(1, 6)
        c = [rng.randint(-20, 20) for _ in range(k)]
        basis = syzygy_basis(c)
        if any(sum(v * x for v, x in zip(vec, c)) for vec in basis):
            failures += 1
            continue
        # a random combination of pairwise syzygies must lie in the lattice
        probe = [0] * k
        for _ in range(3):
            i, j = rng.randrange(k), rng.randrange(k)
            if i == j:
                continue
            scale = rng.randint(-3, 3)
            probe[i] += scale * c[j]
            probe[j] -= scale * c[i]
        if any(probe) and not in_row_span([list(v) for v in basis], probe):
            failures += 1
    return failures


def suite_union_connectivity(rng, cases=PROPERTY_CASES) -> int:
    """Connected subquandles with a common point generate a connected one."""
    failures = 0
    for _ in range(cases):
        q = _random_quandle(rng, max_size=12)
        pool = [set(b) for b in maximal_decomposition(q).final.blocks]
        pool += [{x} for x in range(q.size)]
        closure = generated_subquandle(q, rng.sample(range(q.size), min(2, q.size)))
        if is_connected(q, closure):
            pool.append(set(closure))
        x = rng.randrange(q.size)
        holding = [s for s in pool if x in s]
        a = rng.choice(holding)
        b = rng.choice(holding)
        if not is_connected(q, generated_subquandle(q, a | b)):
            failures += 1
    return failures


def suite_final_blocks_isomorphic(rng, cases=PROPERTY_CASES) -> int:
    """All maximal blocks of a finite Alexander quandle are isomorphic."""
    failures = 0
    for _ in range(cases):
        q = alexander_quandle(_random_module(rng, max_order=36)).quandle
        blocks = maximal_decomposition(q).final.blocks
        first = subquandle(q, blocks[0])
        for block in blocks[1:]:
            if find_isomorphism(subquandle(q, block), first) is None:
                failures += 1
                break
    return failures


def suite_image_tower(rng, cases=PROPERTY_CASES) -> int:
    """The cosets of (1 - t)^k M are the levels of table refinement."""
    failures = 0
    for _ in range(cases):
        module = _random_module(rng)
        if alexander_decomposition(module) != maximal_decomposition(
                alexander_quandle(module).quandle):
            failures += 1
    return failures


def suite_refinement_chain(rng, cases=PROPERTY_CASES) -> int:
    """Each level refines the previous, block counts strictly grow before the
    fixed point, and every final block is connected, so refining the fixed
    point changes nothing."""
    failures = 0
    for _ in range(cases):
        q = _random_quandle(rng)
        dec = maximal_decomposition(q)
        ok = all(
            dec.levels[k + 1].refines(dec.levels[k]) for k in range(len(dec.levels) - 1)
        )
        ok = ok and all(
            len(dec.levels[k + 1]) > len(dec.levels[k]) for k in range(dec.depth)
        )
        ok = ok and all(is_connected(q, block) for block in dec.final.blocks)
        if not ok:
            failures += 1
    return failures


def suite_axiom_generators(rng, cases=PROPERTY_CASES) -> int:
    """Deciding the axioms on generating sets agrees with the full scan, on
    quandles and near-quandles (one column with two images swapped), their
    associated structures up to carrier 36, and random small MCQs."""
    failures = 0
    for _ in range(cases):
        q = _random_quandle(rng, max_size=12)
        if rng.randrange(2):
            q = near_quandle(rng, q)
        structures = [random_small_mcq(rng)]
        if type_of(q) * q.size <= 36:
            structures.append(associated_mcq(q))
        ok = check_axioms(q) == quandle._first_violation(q)
        ok = ok and all(check_mcq_axioms(x) == mcq._first_violation(x) for x in structures)
        if not ok:
            failures += 1
    return failures


def suite_assoc_tower(rng, cases=PROPERTY_CASES) -> int:
    """The associated structure answered from the base quandle agrees with
    the built carrier, on quandles and near-quandles of carrier at most 36:
    the maximal decomposition is the quandle's tower with final blocks x Z_m,
    and the axiom check gives the same verdict and witness.  The type of an
    Alexander quandle is the order of t on its module."""
    failures = 0
    for _ in range(cases):
        while True:
            q = _random_quandle(rng, max_size=12)
            if rng.randrange(2):
                q = near_quandle(rng, q)
            m = type_of(q)
            if q.size * m <= 36:
                break
        x = associated_mcq(q)
        module = _random_module(rng)
        ok = (associated_decomposition(maximal_decomposition(q), m)
              == maximal_mcq_decomposition(x))
        ok = ok and check_associated_axioms(q) == check_mcq_axioms(x)
        ok = ok and module.t_order == type_of(alexander_quandle(module).quandle)
        if not ok:
            failures += 1
    return failures


PROPERTY_SUITES: tuple[tuple[str, Callable], ...] = (
    ("constructor-axioms", suite_constructor_axioms),
    ("split-identity", suite_split_identity),
    ("syzygy-lattice", suite_syzygy),
    ("union-connectivity", suite_union_connectivity),
    ("final-blocks-isomorphic", suite_final_blocks_isomorphic),
    ("refinement-chain", suite_refinement_chain),
    ("image-tower", suite_image_tower),
    ("axiom-generators", suite_axiom_generators),
    ("group-generators", suite_group_generators),
    ("assoc-tower", suite_assoc_tower),
)


def _property_rows(seed: int) -> list[CheckRow]:
    rows = []
    for i, (name, suite) in enumerate(PROPERTY_SUITES):
        failures = suite(random.Random(seed + i), PROPERTY_CASES)
        rows.append(CheckRow("properties", f"{name} ({PROPERTY_CASES} cases, seed {seed})",
                             0, failures))
    return rows


# ---------------------------------------------------------------------------
# multiple conjugation quandle layer


def _mcq_test_quandles():
    out = [(f"R{m}", dihedral(m).quandle) for m in range(3, 13)]
    out.append(("tetrahedral", alexander_quandle(build(parse_ideal("2; t^2+t+1"))).quandle))
    out.append(("Conj(S3)", conj_quandle(symmetric_group(3))))
    return out


def _mcq_rows(seed: int) -> list[CheckRow]:
    g = "mcq"
    rng = random.Random(seed + 100)
    bad_axioms = []
    bad_orbits = []
    bad_carrier = []
    bad_subsets = []
    for name, q in _mcq_test_quandles():
        x = associated_mcq(q)
        m = x.groups[0].size
        if check_mcq_axioms(x) is not None:
            bad_axioms.append(name)
        if lambda_orbits(x) != connected_components(q):
            bad_orbits.append(name)
        quandle_final = maximal_decomposition(q).final
        expected_carrier = Partition(
            [i * m + gidx for i in block for gidx in range(m)]
            for block in quandle_final.blocks
        )
        if maximal_mcq_decomposition(x).carrier_partition != expected_carrier:
            bad_carrier.append(name)
        for _ in range(SUBSETS_PER_MCQ):
            if rng.randrange(4) == 0:
                seeds = rng.sample(range(x.size), rng.randint(1, min(3, x.size)))
                subset = generated_sub_mcq(x, seeds)
            else:
                size = rng.randint(1, x.size)
                subset = rng.sample(range(x.size), size)
            if substructure_criteria(x, subset) != (is_sub_mcq(x, subset),) * 3:
                bad_subsets.append(name)
                break
    rows = [
        _row(g, "associated structures pass all four axioms", [], bad_axioms, literal=True),
        _row(g, "index orbits match the quandle components", [], bad_orbits, literal=True),
        _row(g, "maximal carrier partition is the quandle partition times Z_m",
             [], bad_carrier, literal=True),
        _row(g, f"substructure criteria agree with is_sub_mcq on {SUBSETS_PER_MCQ} subsets each",
             [], bad_subsets, literal=True),
    ]
    return rows


# ---------------------------------------------------------------------------
# registry and runner

CHECK_GROUPS: tuple[tuple[str, Callable], ...] = (
    ("six-cubic", lambda seed: _six_cubic_rows()),
    ("conj-symmetric", lambda seed: _conj_symmetric_rows()),
    ("dihedral-sweep", lambda seed: _dihedral_sweep_rows()),
    ("linear-grid", lambda seed: _linear_grid_rows()),
    ("eval-classifier", lambda seed: _eval_classifier_rows()),
    ("component-ideal", lambda seed: _component_ideal_rows()),
    ("properties", _property_rows),
    ("mcq", _mcq_rows),
)


def run_checks(only: Optional[str] = None, seed: int = DEFAULT_SEED) -> list[CheckRow]:
    """Run the reproduction checks, optionally filtered by group substring."""
    rows: list[CheckRow] = []
    for name, fn in CHECK_GROUPS:
        if only and only not in name:
            continue
        rows.extend(fn(seed))
    return rows
