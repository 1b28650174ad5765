"""Alexander quandles over finite Laurent quotient modules, and the closed
forms for their component structure.

The quandle operation on a module is a * b = t a + (1 - t) b.  Its component
count is the gcd of the generators evaluated at 1 (together with the
modulus), components are translates of the image of 1 - t, and each is again
an Alexander quandle over an explicitly presented quotient.

Iterating that last fact gives the whole maximal decomposition without a
table: level k is the set of cosets of (1 - t)^k M, and the depth is the
first k with (1 - t)^k M = (1 - t)^(k+1) M (alexander_decomposition).  The
gcd chain of (n0; t + a) is the rank-1 case of this tower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .decomposition import Decomposition, _tower
from .laurent import LaurentPoly, eval_one, format_poly, gcd_vec, split_one_minus_t, syzygy_basis
from .quandle import FiniteQuandle, Partition, _whole
from .tmodule import FiniteTModule, IdealPresentation, build


@dataclass(frozen=True)
class AlexanderQuandle:
    """A finite module together with its derived quandle table."""

    module: FiniteTModule
    quandle: FiniteQuandle


def alexander_quandle(module: FiniteTModule) -> AlexanderQuandle:
    """Tabulate a * b = t a + (1 - t) b over the module elements.

    Elements are indexed in the module's enumeration order and labeled with
    the module's labels, so tables and reports are deterministic.  Row a is
    the translate of the columns of (1 - t) b by t a, in index space.
    """
    if module.rank == 0:
        table = [(0,)]
    else:
        delta = module.coordinate_columns(module.one_minus_t_rows())
        table = [tuple(module.translate(ta, delta))
                 for ta in zip(*module.coordinate_columns(module.t_matrix))]
    return AlexanderQuandle(module, FiniteQuandle._built(table, module.labels()))


def alexander_decomposition(module: FiniteTModule) -> Decomposition:
    """The maximal connected decomposition of the Alexander quandle of a
    module, computed from the module instead of its table.

    Level k is the partition into cosets x + I_k of I_0 = M,
    I_{k+1} = (1 - t) I_k, and the tower stops at the first k with
    I_k = I_{k+1}.  Indices are positions in module.elements(), as in
    alexander_quandle, so the result equals maximal_decomposition of that
    table.  Each coset is one translate of the columns of I_k, so the cost
    is O(rank * order * (depth + 2)) C-level steps.
    """
    return _tower(module.order, _image_step(module))


def alexander_components(module: FiniteTModule) -> Partition:
    """The connected components of the Alexander quandle of a module, the
    cosets of (1 - t) M (the paper's Orb(i)): level 1 of
    alexander_decomposition, one step of its tower.  There are
    module.eval_modulus of them."""
    return _image_step(module)(_whole(module.order))


def _image_step(module: FiniteTModule):
    """The step of the tower: the cosets of I_{k+1} = (1 - t) I_k from the
    level of cosets of I_k, or that level itself when I_{k+1} = I_k.  I_k is
    the level's first block, the coset of index 0, the zero element; each
    coset x + I_{k+1} is one translate of I_{k+1}'s coordinate columns."""
    coords = module.coordinate_columns()
    one_minus_t = module.translate(module.zero(),
                                   module.coordinate_columns(module.one_minus_t_rows()))

    def step(level: Partition) -> Partition:
        image = level[0]
        smaller = set(map(one_minus_t.__getitem__, image))
        # I_{k+1} lies inside I_k, so equal sizes mean equal subgroups
        if len(smaller) == len(image):
            return level
        sub = [list(map(col.__getitem__, smaller)) for col in coords]
        seen = bytearray(module.order)
        blocks = []
        x = 0
        while x >= 0:
            block = module.translate([col[x] for col in coords], sub)
            for y in block:
                seen[y] = 1
            blocks.append(block)
            x = seen.find(0, x + 1)
        return Partition(blocks)

    return step


def dihedral_presentation(m: int) -> IdealPresentation:
    """The ideal (m, t + 1), whose quotient carries the dihedral quandle on Z_m."""
    if m < 1:
        raise ValueError("order must be positive")
    return IdealPresentation(m, (LaurentPoly({0: 1, 1: 1}),))


def dihedral(m: int) -> AlexanderQuandle:
    """The dihedral quandle on Z_m (a * b = 2b - a), built as the quotient by
    (m, t + 1)."""
    return alexander_quandle(build(dihedral_presentation(m)))


def orbit_count(gens: Iterable[LaurentPoly]) -> int:
    """Number of connected components: gcd of the generator values at t = 1,
    a modulus entering as a constant generator.  Zero means every value
    vanished, which only happens for infinite quotients."""
    return gcd_vec([eval_one(f) for f in gens])


@dataclass(frozen=True)
class ComponentIdeal:
    """Generators presenting the quotient that every component is isomorphic to."""

    orbit_count: int
    generators: tuple[LaurentPoly, ...]
    note: Optional[str] = None


def _linear_note(gens) -> Optional[str]:
    gl = [f for f in gens if f]
    if len(gl) != 2:
        return None
    consts = [f for f in gl if f.min_exp == f.max_exp == 0]
    linear = [f for f in gl if f.min_exp >= 0 and f.max_exp == 1 and f.coeff(1) == 1]
    if len(consts) != 1 or len(linear) != 1:
        return None
    chain = gcd_chain(abs(consts[0].coeff(0)), linear[0].coeff(0)).chain
    if len(chain) == 1:
        return None
    return f"ideal equals ({chain[1]}; {format_poly(linear[0])})"


def component_ideal(gens: Iterable[LaurentPoly]) -> ComponentIdeal:
    """Augment the generators so the quotient presents a single component.

    Writing each generator as f = (1 - t) q + f(1), every integer syzygy s of
    the values at 1 contributes the combination sum_i s_i q_i.  Integer
    syzygies suffice because the Laurent ring is free over the integers, so
    the kernel over it is generated by the integer kernel lattice.  The
    returned generators present the ideal; they are not a canonical form,
    and identity claims should be settled through ideals_equal.
    """
    gl = list(gens)
    if not gl:
        raise ValueError("need at least one generator")
    splits = [split_one_minus_t(f) for f in gl]
    values = [c for _, c in splits]
    extras = []
    for vec in syzygy_basis(values):
        combo = LaurentPoly()
        for coeff, (q, _) in zip(vec, splits):
            combo = combo + coeff * q
        if combo:
            extras.append(combo)
    return ComponentIdeal(gcd_vec(values), tuple(gl + extras), _linear_note(gl))


@dataclass(frozen=True)
class GcdChain:
    """The modulus chain n_{i+1} = n_i / gcd(n_i, 1 + a) down to its fixed
    point, with the block count and final modulus it predicts."""

    chain: tuple[int, ...]
    depth: int
    block_count: int
    block_modulus: int


def gcd_chain(n0: int, a: int) -> GcdChain:
    """Closed-form decomposition data for the quandle of (n0, t + a).

    The chain divides n_i by gcd(n_i, 1 + a) until it stabilizes; the
    predicted number of maximal blocks is the product of those gcds, and each
    block is a copy of the quandle of (n_l, t + a).
    """
    if n0 < 1:
        raise ValueError("n0 must be positive")
    chain = [n0]
    while True:
        g = math.gcd(chain[-1], 1 + a)
        nxt = chain[-1] // g
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    # each step divides by its gcd, so the gcds multiply to n0 // n_l
    return GcdChain(tuple(chain), len(chain) - 1, n0 // chain[-1], chain[-1])
