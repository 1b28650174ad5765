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
from operator import itemgetter
from typing import Callable, Optional

from .alexander import (alexander_components, alexander_decomposition, alexander_quandle,
                        component_ideal, dihedral, dihedral_presentation, gcd_chain, orbit_count)
from .group import (FiniteGroup, check_group, conj_components, conj_decomposition, conj_quandle,
                    conjugacy_classes, cyclic_group, symmetric_group)
from .decomposition import Decomposition, maximal_decomposition
from .laurent import ONE_MINUS_T, LaurentPoly, split_one_minus_t, syzygy_basis
from .intmat import in_row_span
from .mcq import (
    MCQ,
    associated_decomposition,
    associated_mcq,
    check_associated_axioms,
    check_mcq_axioms,
    conjugation_mcq,
    generated_sub_mcq,
    is_sub_mcq,
    lambda_orbits,
    maximal_mcq_decomposition,
)
from .quandle import (
    AxiomViolation,
    FiniteQuandle,
    Partition,
    action_generators,
    check_axioms,
    connected_components,
    find_isomorphism,
    generated_subquandle,
    is_connected,
    op_pow,
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


def _row(group, claim, key, computed):
    return CheckRow(group, claim, EXPECTED[key], computed)


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
    for block in comps:
        cls = module.eval_one_class(module.elements()[block[0]])
        by_class[cls] = frozenset(aq.quandle.label(i) for i in block)
    rows.append(_row(g, "component label sets by residue class",
                     "six-cubic-orbit-labels",
                     tuple(by_class.get(i, frozenset()) for i in range(3))))
    dec = maximal_decomposition(aq.quandle)
    rows.append(_row(g, "maximal block sizes", "six-cubic-block-sizes", dec.final.sizes()))
    rows.append(_row(g, "maximal block label sets", "six-cubic-block-labels",
                     frozenset(frozenset(aq.quandle.label(i) for i in block)
                               for block in dec.final)))
    rows.append(_row(g, "refinement depth", "six-cubic-depth", dec.depth))
    rows.append(CheckRow(g, "component of 0 equals the image of 1-t", True,
                         sorted(module.elements()[i] for i in comps.block_of(0))
                         == reference_one_minus_t_image(module)))
    return rows


def _conj_symmetric_rows() -> list[CheckRow]:
    rows = []
    for n, key in ((3, "conj-s3"), (4, "conj-s4")):
        g = key
        q = conj_quandle(symmetric_group(n))
        comps = connected_components(q)
        rows.append(_row(g, f"Conj(S{n}) component sizes", f"{key}-component-sizes",
                         comps.sizes()))
        rows.append(CheckRow(g, f"Conj(S{n}) components are the conjugacy classes", True,
                             comps == conjugacy_classes(symmetric_group(n))))
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
            for block in dec.final
        )
        if not ok:
            bad.append(m)
    return [CheckRow(g, "m = 1..64: 2^l blocks, each a copy of R_k, depth l (m = 2^l k)",
                     [], bad)]


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
                    for block in dec.final
                )
                and tower.depth == formula.depth
                and len(tower.final) == formula.block_count
                and set(tower.final.sizes()) == {ref.size}
                and (math.gcd(a, n0) != 1 or ref.size == formula.block_modulus)
            )
            if not ok:
                bad.append((n0, a))
    return [CheckRow(g, "n0 = 1..40, a = -10..10: block count, depth and block type "
                        "match the gcd chain, by refinement and by the (1-t)^k tower", [], bad)]


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
    return [CheckRow(g, "component partition equals the value-at-1 classification", [], bad)]


def _component_ideal_rows() -> list[CheckRow]:
    g = "component-ideal"
    rows = []
    result = component_ideal(list(parse_ideal(SIX_CUBIC).generators()))
    derived = presentation_from_generators(result.generators)
    module = build(derived)
    rows.append(_row(g, "augmented ideal of (6; t^2+t+1) has order",
                     "component-ideal-order", module.order))
    explicit = parse_ideal("6; 2t+4; t^2+t+1")
    rows.append(CheckRow(g, "augmented ideal equals (6; 2t+4; t^2+t+1)", True,
                         ideals_equal(derived, explicit)))
    aq = alexander_quandle(build(parse_ideal(SIX_CUBIC)))
    piece = alexander_quandle(module).quandle
    comps = connected_components(aq.quandle)
    rows.append(CheckRow(g, "every component is a copy of the augmented quotient", True,
                         all(find_isomorphism(subquandle(aq.quandle, block), piece) is not None
                             for block in comps)))
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


def relabelled(rng, q: FiniteQuandle) -> FiniteQuandle:
    """q carried along a random permutation p of its elements, so that p is
    an isomorphism onto the result: p(a) * p(b) == p(a * b)."""
    return FiniteQuandle(relabelled_table(rng, q.table))


def transports(phi, q1: FiniteQuandle, q2: FiniteQuandle) -> bool:
    """Whether phi(a * b) == phi(a) * phi(b) for all a, b of q1."""
    t2 = q2.table
    return all(phi[ab] == t2[phi[a]][phi[b]]
               for a, row in enumerate(q1.table) for b, ab in enumerate(row))


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
        mult = relabelled_table(rng, mult)
    return mult


def relabelled_table(rng, mult) -> list[list[int]]:
    """The table carried along a random permutation sigma of its elements,
    so that sigma is an isomorphism onto the result."""
    n = len(mult)
    sigma = rng.sample(range(n), n)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][sigma[y]] = sigma[mult[x][y]]
    return out


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


# a loop of order 6 with identity 0 and two-sided inverses that is not
# associative: (1 1) 2 = 0 but 1 (1 2) = 5
NON_ASSOCIATIVE_LOOP = ((0, 1, 2, 3, 4, 5), (1, 4, 3, 5, 2, 0), (2, 3, 5, 1, 0, 4),
                        (3, 2, 4, 0, 5, 1), (4, 5, 0, 2, 1, 3), (5, 0, 1, 4, 3, 2))


def perturbed_product(rng, g: FiniteGroup) -> list[list[int]]:
    """g's table with one product a b, neither factor the identity e and
    a b != e, changed to another element than e: the identity and the
    inverses stay, and the table is mostly not associative.  Groups of
    order at most 2 have no such product and come back unchanged."""
    t = [list(row) for row in g.mult]
    e = g.identity
    cells = [(a, b) for a in range(g.size) for b in range(g.size)
             if e not in (a, b, t[a][b])]
    if cells:
        a, b = rng.choice(cells)
        t[a][b] = rng.choice([c for c in range(g.size) if c not in (e, t[a][b])])
    return t


def reference_light_test(g: FiniteGroup) -> Optional[AxiomViolation]:
    """check_group's verdict and witness by Light's test on each greedy
    pick c, one n^2 pass per pick comparing (x y) c with x (y c) row by
    row, as reference code for the spanning-tree certificate."""
    m = g.mult
    for c in action_generators(range(g.size), (g.identity,), lambda x, p: m[x][p]):
        col = [row[c] for row in m]
        through_col = itemgetter(*col)
        # row x: y -> (x y) c reads col through row x, y -> x (y c) reads row x through col
        if any(itemgetter(*row)(col) != through_col(row) for row in m):
            return group._first_nonassociative(g)
    return None


def reference_alexander_table(module) -> list[list[int]]:
    """alexander_quandle(module)'s table one cell at a time from the element
    tuples, t a + (1 - t) b looked up in an index dict, as reference code."""
    elems = module.elements()
    index = {e: i for i, e in enumerate(elems)}
    timg = [module.t_act(e) for e in elems]
    delta = [module.add(e, module.neg(timg[i])) for i, e in enumerate(elems)]
    return [[index[module.add(ta, d)] for d in delta] for ta in timg]


def reference_one_minus_t_image(module) -> list[tuple[int, ...]]:
    """The image {x - t x : x in M} of 1 - t, sorted, from the element
    tuples, as reference code."""
    return sorted({module.add(x, module.neg(module.t_act(x))) for x in module.elements()})


def reference_alexander_decomposition(module) -> Decomposition:
    """alexander_decomposition(module) one element tuple at a time: the
    cosets of I_{k+1} = (1 - t) I_k, each element added to every member of
    I_k and looked up in an index dict, as reference code."""
    elems = module.elements()
    index = {e: i for i, e in enumerate(elems)}
    add = module.add
    one_minus_t = [index[add(e, module.neg(module.t_act(e)))] for e in elems]
    whole = range(len(elems))
    image = whole
    levels = [Partition([whole])]
    while True:
        smaller = {one_minus_t[i] for i in image}
        if len(smaller) == len(image):
            break
        image = smaller
        sub = [elems[h] for h in image]
        seen = [False] * len(elems)
        blocks = []
        for x in whole:
            if not seen[x]:
                block = [index[add(elems[x], h)] for h in sub]
                for y in block:
                    seen[y] = True
                blocks.append(block)
        levels.append(Partition(blocks))
    levels.append(levels[-1])
    return Decomposition(tuple(levels), len(levels) - 2, levels[-1])


def random_index_module(rng, max_order=64):
    """A module for the index-space checks: half the time a _random_module
    draw (rank at most 2), otherwise the quotient by a random cubic, alone or
    with a second generator (a multiple of the cubic, which leaves the
    quotient as it is but not its coordinates, or a random polynomial), so
    that ranks 0 to 3 and both polynomial and coordinate labels occur."""
    if rng.randrange(2):
        return _random_module(rng, max_order=max_order)
    for _ in range(64):
        coeffs = {e: rng.randint(-4, 4) for e in range(3)}
        coeffs[3] = rng.randint(1, 3)
        gens = [LaurentPoly(coeffs)]
        extra = rng.randrange(3)
        if extra == 1:
            gens.append(rng.randint(1, 3) * gens[0])
        elif extra == 2:
            gens.append(_random_poly(rng, max_deg=2, span=1, coeff=4))
        try:
            module = build(IdealPresentation(rng.randint(2, 4), tuple(gens)))
        except UnsupportedPresentation:
            continue
        if module.order <= max_order:
            return module
    return build(IdealPresentation(2, (LaurentPoly({0: 1, 1: 1, 3: 1}),)))


def suite_alexander_index(rng, cases=PROPERTY_CASES) -> int:
    """The index-space Alexander code against its per-element reference
    code, on the dihedral modules of order 1 to 60 and on seeded modules of
    rank 0 to 3: the table and its labels, and the (1 - t)^k tower, whose
    level-1 block of 0 is the image of 1 - t."""
    modules = [build(dihedral_presentation(m)) for m in range(1, 61)]
    modules += [random_index_module(rng) for _ in range(cases)]
    failures = 0
    for module in modules:
        q = alexander_quandle(module).quandle
        ok = q.table == tuple(map(tuple, reference_alexander_table(module)))
        ok = ok and q.labels == tuple(module.label(e) for e in module.elements())
        ok = ok and alexander_decomposition(module) == reference_alexander_decomposition(module)
        failures += not ok
    return failures


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
        block = dec.final[rng.randrange(len(dec.final))]
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
        pool = [set(b) for b in maximal_decomposition(q).final]
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
        blocks = maximal_decomposition(q).final
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
        ok = ok and all(is_connected(q, block) for block in dec.final)
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


def suite_iso_generators(rng, cases=PROPERTY_CASES) -> int:
    """find_isomorphism on a quandle or near-quandle and a random relabelling
    of it, of a near-quandle made from the same draw, or of a second draw:
    up to order 7 the map is the lexicographically first transporting
    permutation found by brute force (None when there is none), and a
    relabelled copy always yields a transporting map."""
    failures = 0
    for _ in range(cases):
        q = _random_quandle(rng)
        q1 = near_quandle(rng, q) if rng.randrange(2) else q
        kind = rng.randrange(3)
        q2 = relabelled(rng, (q1, near_quandle(rng, q), _random_quandle(rng))[kind])
        phi = find_isomorphism(q1, q2)
        ok = kind != 0 or (phi is not None and transports(phi, q1, q2))
        if q1.size <= 7:
            first = None if q1.size != q2.size else next(
                (p for p in itertools.permutations(range(q1.size)) if transports(p, q1, q2)),
                None)
            ok = ok and phi == first
        failures += not ok
    return failures


def suite_conj_group(rng, cases=PROPERTY_CASES) -> int:
    """The conjugation quandle decomposed from the group against its table,
    on randomly relabelled symmetric groups of degree at most 5, cyclic and
    dihedral groups of order at most 24, and S_k x C_m of order at most 48:
    conj_decomposition equals maximal_decomposition of conj_quandle on
    every level and on depth, and its components are the conjugacy classes
    and conj_components.  On the group with one product perturbed (see
    perturbed_product), and on a non-associative loop times a cyclic group
    of order 2 to 4, check_group gives the verdict and the witness of the
    full scan."""
    cyclic = [[[(a + b) % k for b in range(k)] for a in range(k)] for k in range(1, 25)]
    symmetric = [reference_symmetric_table(k) for k in range(1, 6)]
    families = (
        symmetric,
        cyclic,
        [_dihedral_group_table(k) for k in range(1, 13)],
        [_product_table(s, c) for s in symmetric[:4] for c in cyclic if len(s) * len(c) <= 48],
    )
    failures = 0
    for _ in range(cases):
        g = FiniteGroup(relabelled_table(rng, rng.choice(rng.choice(families))))
        dec = conj_decomposition(g)
        ok = dec == maximal_decomposition(conj_quandle(g))
        ok = ok and dec.levels[1] == conjugacy_classes(g) == conj_components(g)
        near = FiniteGroup(perturbed_product(rng, g))
        ok = ok and (near.identity, near.inv) == (g.identity, g.inv)
        ok = ok and check_group(g) is None
        ok = ok and check_group(near) == group._first_nonassociative(near)
        # the picks span the group factor and the loop; the certificate fails on the loop
        looped = FiniteGroup(_product_table(NON_ASSOCIATIVE_LOOP, rng.choice(cyclic[1:4])))
        witness = group._first_nonassociative(looped)
        ok = ok and witness is not None and check_group(looped) == witness
        failures += not ok
    return failures


def suite_group_assoc_certificate(rng, cases=PROPERTY_CASES) -> int:
    """check_group, the spanning-tree certificate, against the full scan,
    verdict and witness, in turn on seeded groups of order at most 24 (see
    random_group_table), near-groups (see near_group), perturbed products
    (see perturbed_product) and the relabelled non-associative loop times a
    cyclic group of order 1 to 4; and, one case in 100, against Light's test
    on every pick (reference_light_test) on a relabelled S5 x C_m or S6, of
    order 120 to 720, where the full scan costs n^3."""
    small = small_group_tables()
    loops = [_product_table(NON_ASSOCIATIVE_LOOP, cyclic_group(k).mult) for k in range(1, 5)]
    draws = (lambda: random_group_table(rng, small),
             lambda: near_group(rng, random_group_table(rng, small)),
             lambda: perturbed_product(rng, FiniteGroup(random_group_table(rng, small))),
             lambda: relabelled_table(rng, rng.choice(loops)))
    large = {}
    failures = 0
    for case in range(cases):
        if case % 100 == 0:
            k, m = rng.choice([(5, m) for m in range(1, 7)] + [(6, 1)])
            if (k, m) not in large:
                large[k, m] = _product_table(symmetric_group(k).mult, cyclic_group(m).mult)
            g = FiniteGroup(relabelled_table(rng, large[k, m]))
            failures += (check_group(g), reference_light_test(g)) != (None, None)
        try:
            g = FiniteGroup(draws[case % len(draws)]())
        except ValueError:
            continue
        failures += check_group(g) != group._first_nonassociative(g)
    return failures


def reference_associated_op(q: FiniteQuandle, m: int) -> list[list[int]]:
    """associated_mcq(q)'s table one cell at a time: (x, g) * (y, h) is
    (x *^h y, g), at carrier index (x *^h y) m + g, as reference code."""
    return [[op_pow(q, i // m, j % m, j // m) * m + i % m for j in range(q.size * m)]
            for i in range(q.size * m)]


def same_structure(x: MCQ, y: MCQ) -> bool:
    """Whether two structures agree field by field, their groups too, the
    rows as tuples."""
    return ([(g.to_json(), g.inv) for g in x.groups] == [(g.to_json(), g.inv) for g in y.groups]
            and x.op == y.op and type(x.op) is type(y.op) is tuple
            and all(type(row) is tuple for row in x.op) and x.offsets == y.offsets
            and x.group_of == y.group_of and x.labels == y.labels and x.size == y.size)


def suite_assoc_presentation(rng, cases=PROPERTY_CASES) -> int:
    """The associated structure and the components from the module
    presentation against the table path, on the carrier of one pair and
    then on seeded modules, quandles and near-quandles: associated_mcq
    given the type module.t_order equals associated_mcq working the type
    out, the structure MCQ._built returns equals the one the validating
    constructor makes of the same rows (and so for conjugation_mcq), and
    the rows are (x *^h y, g) cell by cell, up to carrier 96;
    alexander_components equals level 1 of alexander_decomposition, with
    module.eval_modulus blocks."""
    failures = 0
    for case in range(-1, cases):
        module = build(dihedral_presentation(1)) if case < 0 else random_index_module(rng)
        q = alexander_quandle(module).quandle
        comps = alexander_components(module)
        ok = comps == alexander_decomposition(module).levels[1]
        ok = ok and len(comps) == module.eval_modulus
        m = module.t_order
        if q.size * m <= 96:
            ok = ok and same_structure(associated_mcq(q, m), associated_mcq(q))
        p = q if case < 0 else _random_quandle(rng, max_size=12)
        if case % 2:
            p = near_quandle(rng, p)
        m = type_of(p)
        if p.size * m <= 96:
            x = associated_mcq(p)
            ok = ok and same_structure(x, MCQ(x.groups, x.op, x.labels))
            ok = ok and x.op == tuple(map(tuple, reference_associated_op(p, m)))
        g = cyclic_group(rng.randint(1, 8)) if case % 3 else symmetric_group(rng.randint(1, 4))
        x = conjugation_mcq(g)
        ok = ok and same_structure(x, MCQ((g,), conj_quandle(g).table, g.labels))
        failures += not ok
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
    ("alexander-index", suite_alexander_index),
    ("iso-generators", suite_iso_generators),
    ("conj-group", suite_conj_group),
    ("group-assoc-certificate", suite_group_assoc_certificate),
    ("assoc-presentation", suite_assoc_presentation),
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
            for block in quandle_final
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
    return [
        CheckRow(g, "associated structures pass all four axioms", [], bad_axioms),
        CheckRow(g, "index orbits match the quandle components", [], bad_orbits),
        CheckRow(g, "maximal carrier partition is the quandle partition times Z_m",
                 [], bad_carrier),
        CheckRow(g, f"substructure criteria agree with is_sub_mcq on {SUBSETS_PER_MCQ} "
                    "subsets each", [], bad_subsets),
    ]


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
