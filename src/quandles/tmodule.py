"""Finite quotients of the integer Laurent ring with an invertible t-action.

A presentation is an ideal (n, p_1, ..., p_k) whose first generator is a
positive integer n.  The builder realizes the quotient ring as a finite
abelian group in invariant-factor coordinates:

1. fold the generators that are constants up to a power of t into the
   modulus, through the presentation's own constructor, which reduces mod n,
   shifts each generator to exponent 0 and drops what vanishes;
2. pick a generator whose leading coefficient is a unit mod n (substituting
   t -> 1/t first, again through the constructor, when only a trailing unit
   exists) and scale it monic;
3. start from Z_n[t]/(g), a free Z_n-module of rank deg(g) on which t acts by
   the companion matrix of g;
4. quotient by the t-stable lattice spanned by the remaining generators,
   using the Smith normal form;
5. quotient by the stabilized kernel chain of t, after which t acts
   bijectively; this finishes the localization at t.

When step 2 substitutes t -> 1/t the companion matrix realizes the ideal with
the variable reversed, so the module designates the inverse of that matrix as
its t-action; the exposed structure is then isomorphic to the requested
quotient, not to its mirror image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _mixed_radix, repeat, starmap
from operator import add as _add

from .intmat import (
    hnf,
    identity,
    mat_mul,
    mat_vec,
    right_kernel,
    snf_transform,
    solve,  # unused here; perfbench/spans.py binds it
    transpose,
    unimodular_inverse,
)
from .laurent import LaurentPoly, ParseError, eval_one, format_poly, gcd_vec, parse_int, parse_poly


class UnsupportedPresentation(Exception):
    """No generator is monic up to a unit mod n, so this enumeration scheme
    cannot realize the quotient (the ideal itself may still be fine)."""


@dataclass(frozen=True)
class IdealPresentation:
    """An ideal (n, p_1, ..., p_k) of the integer Laurent ring, n >= 1.

    Stored reduced: coefficients in [0, n), every polynomial shifted so its
    lowest exponent is 0, polynomials that vanish mod n dropped.
    """

    modulus: int
    polys: tuple[LaurentPoly, ...] = ()

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        reduced = []
        for f in self.polys:
            d = {e: c % self.modulus for e, c in f.terms() if c % self.modulus}
            if not d:
                continue
            lo = min(d)
            reduced.append(LaurentPoly({e - lo: c for e, c in d.items()}))
        object.__setattr__(self, "polys", tuple(reduced))

    def generators(self) -> tuple[LaurentPoly, ...]:
        """All generators, the modulus included as a constant polynomial."""
        return (LaurentPoly.const(self.modulus),) + self.polys

    def descriptor(self) -> str:
        """Canonical 'n; p1; p2' text form; parse_ideal inverts it."""
        return "; ".join([str(self.modulus)] + [format_poly(f) for f in self.polys])


def parse_generators(text: str, offset: int = 0) -> tuple[LaurentPoly, ...]:
    """Parse 'p1; p2; ...', with error positions counted from `offset`, the
    position of text in the argument it was cut from."""
    polys = []
    for part in text.split(";"):
        if not part.strip():
            raise ParseError("expected a polynomial", offset)
        try:
            polys.append(parse_poly(part))
        except ParseError as exc:
            raise ParseError(exc.message, offset + exc.position) from None
        offset += len(part) + 1
    return tuple(polys)


def parse_ideal(text: str) -> IdealPresentation:
    """Parse 'n; p1; p2; ...' into a presentation."""
    first, sep, rest = text.partition(";")
    head = first.strip()
    if not head or not head[head[0] in "+-":].isdecimal():  # one sign at most
        raise ParseError("expected an integer modulus", 0)
    n = parse_int(head, 0)
    if n < 1:
        raise ParseError("modulus must be positive", 0)
    return IdealPresentation(n, parse_generators(rest, len(first) + 1) if sep else ())


def presentation_from_generators(gens) -> IdealPresentation:
    """Fold the integer members of a generator list into a modulus.

    Single-term generators c*t^k differ from the constant c by a unit, so
    they count as integers.  Raises UnsupportedPresentation when the list has
    no such member.
    """
    n = 0
    polys = []
    for f in gens:
        if not f:
            continue
        if f.min_exp == f.max_exp:
            n = math.gcd(n, abs(f.coeff(f.min_exp)))
        else:
            polys.append(f)
    if n == 0:
        raise UnsupportedPresentation("generator list has no integer member")
    return IdealPresentation(n, tuple(polys))


# ---------------------------------------------------------------------------
# build pipeline internals


def _fold_constants(pres):
    """Fold the constant generators into the modulus until it stops falling.

    The stored generators are shifted to exponent 0, so a constant up to a
    power of t has max_exp 0.  The new modulus divides it, so the constructor
    drops it, and reducing the others mod the new modulus can make more of
    them constant.
    """
    while True:
        n = math.gcd(pres.modulus, *(f.coeff(0) for f in pres.polys if f.max_exp == 0))
        if n == pres.modulus:
            return pres
        pres = IdealPresentation(n, pres.polys)


def _monic_pick(polys, n):
    """Index of a generator with unit leading coefficient; lowest degree wins."""
    cands = [i for i, f in enumerate(polys) if math.gcd(f.coeff(f.max_exp), n) == 1]
    if not cands:
        return None
    return min(cands, key=lambda i: (polys[i].max_exp, i))


def _companion(gvec, n):
    """Matrix of multiplication by t on Z_n[t]/(g), g monic with low coefficients gvec."""
    d = len(gvec)
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = (rows[i][d - 1] - gvec[i]) % n
    return rows


def _power_times(base, e, vec, mods):
    """base^e vec for e >= 0, coordinate i taken mod mods[i], by
    square-and-multiply, so the cost grows with the bit length of e."""
    while e:
        if e & 1:
            vec = [x % m for x, m in zip(mat_vec(base, vec), mods)]
        e >>= 1
        if e:
            base = _row_reduce(mat_mul(base, base), mods)
    return vec


def _row_reduce(rows, mods):
    # coordinate i of any image is only ever read mod mods[i]
    return [[x % mods[i] for x in row] for i, row in enumerate(rows)]


def _diag_rows(mods):
    return [[mods[i] if j == i else 0 for j in range(len(mods))] for i in range(len(mods))]


def _quotient_action(dim, lattice_gens, t_rows, eval_row, one):
    """Quotient Z^dim by the lattice spanned by lattice_gens, carrying the data.

    Returns (mods, t_rows, eval_row, one) in the new coordinates with all
    trivial (modulus 1) coordinates dropped; `one` is the image of the
    polynomial 1.
    """
    a = [[gen[i] for gen in lattice_gens] for i in range(dim)]
    d, u, _ = snf_transform(a)
    s = [d[i][i] for i in range(dim)]
    if any(x == 0 for x in s):
        raise ArithmeticError("lattice quotient is not finite")
    uinv = unimodular_inverse(u)
    t_new = mat_mul(mat_mul(u, t_rows), uinv)
    w_new = mat_vec(transpose(uinv), list(eval_row))
    one_new = mat_vec(u, one)
    keep = [i for i in range(dim) if s[i] != 1]
    mods = [s[i] for i in keep]
    t_new = [[t_new[i][j] for j in keep] for i in keep]
    w_new = [w_new[j] for j in keep]
    return mods, _row_reduce(t_new, mods), w_new, [one_new[i] % s[i] for i in keep]


def _stable_kernel_lattice(t_rows, mods):
    """Row-HNF lattice of the stabilized kernel chain of the t-action.

    The chain ker(t) <= ker(t^2) <= ... strictly grows by a factor of at
    least two until it stabilizes, so it settles within log2(order) rounds.
    """
    r = len(mods)
    diag = prev = _diag_rows(mods)
    power = identity(r)
    while True:
        power = _row_reduce(mat_mul(t_rows, power), mods)
        stacked = [power[i] + diag[i] for i in range(r)]
        kern = right_kernel(stacked)
        cur = hnf([vec[:r] for vec in kern])
        if cur == prev:
            return cur
        prev = cur


def _invert_action(t_rows, mods):
    """Matrix of the inverse action, read off one Smith form U B V = D of
    B = [T | diag(mods)].  t is onto the module exactly when D = [I | 0];
    then X = V[:, :r] U solves B X = I, so T^-1 = V[:r, :r] U, row i taken
    mod mods[i] (as are the rows of V[:r, :r] before the product)."""
    r = len(mods)
    d, u, v = snf_transform([list(row) + diag for row, diag in zip(t_rows, _diag_rows(mods))])
    if any(d[i][i] != 1 for i in range(r)):
        raise ArithmeticError("t does not act invertibly after saturation")
    inv = _row_reduce(mat_mul(_row_reduce([row[:r] for row in v[:r]], mods), u), mods)
    # every modulus is at least 2, so the identity is its own reduction
    if any(_row_reduce(composed, mods) != identity(r)
           for composed in (mat_mul(t_rows, inv), mat_mul(inv, t_rows))):
        raise ArithmeticError("inverse action verification failed")
    return inv


def build(pres: IdealPresentation) -> "FiniteTModule":
    """Construct the finite quotient module of a presentation.

    Raises UnsupportedPresentation when no generator has a unit leading or
    trailing coefficient mod n.
    """
    a = gcd_vec([pres.modulus] + [eval_one(f) for f in pres.polys])
    folded = _fold_constants(pres)
    n, polys = folded.modulus, folded.polys
    if n == 1:
        return FiniteTModule(pres, a, (), (), (), (), (), False, True)
    pick = _monic_pick(polys, n)
    flipped = pick is None
    if flipped:
        polys = IdealPresentation(n, [LaurentPoly({-e: c for e, c in f.terms()})
                                      for f in polys]).polys
        pick = _monic_pick(polys, n)
    if pick is None:
        raise UnsupportedPresentation(
            f"no generator of ({pres.descriptor()}) has a unit leading or trailing "
            f"coefficient mod {n}"
        )
    g = polys[pick]
    rest = polys[:pick] + polys[pick + 1:]
    deg = g.max_exp
    unit = pow(g.coeff(deg), -1, n)
    comp = _companion([g.coeff(e) * unit for e in range(deg)], n)
    one = [1] + [0] * (deg - 1)
    mods, t_rows, w = [n] * deg, comp, [1] * deg

    changed = bool(rest)
    if rest:
        gens = []
        for h in rest:
            # h is the sum of c t^e, and t^e 1 is C^e e_0 for the companion C
            vec = [0] * deg
            for e, c in h.terms():
                vec = [(v + c * x) % n for v, x in zip(vec, _power_times(comp, e, one, mods))]
            for _ in range(deg):
                gens.append(vec)
                vec = _power_times(comp, 1, vec, mods)
        gens += _diag_rows(mods)
        mods, t_rows, w, one = _quotient_action(deg, gens, t_rows, w, one)

    kernel = _stable_kernel_lattice(t_rows, mods)
    if kernel != _diag_rows(mods):
        changed = True
        mods, t_rows, w, one = _quotient_action(len(mods), kernel, t_rows, w, one)

    tinv_rows = _invert_action(t_rows, mods)
    if flipped:
        t_rows, tinv_rows = tinv_rows, t_rows
    return FiniteTModule(pres, a, mods, t_rows, tinv_rows, [x % a for x in w], one,
                         flipped, not flipped and not changed)


class FiniteTModule:
    """A finite abelian group in invariant-factor coordinates with invertible t.

    Elements are tuples with entry i ranging over invariant_factors[i]; the
    empty tuple is the only element of the trivial module.  Immutable after
    construction; all operations are pure.

    Index space: elements() is in lexicographic mixed-radix order, so the
    index of x is sum_i x_i s_i with stride s_i = prod_{j > i} d_j.  A list
    of elements can be kept as coordinate columns (column i holds every
    x_i), and coordinate_columns and translate work on whole columns with
    C-level maps, never a tuple per element.
    """

    def __init__(self, presentation, eval_modulus, invariant_factors, t_rows,
                 tinv_rows, eval_vector, one, flipped, labels_are_polynomials):
        self.presentation = presentation
        self.eval_modulus = eval_modulus
        self.invariant_factors = tuple(invariant_factors)
        self.t_matrix = tuple(tuple(r) for r in t_rows)
        self.t_inverse_matrix = tuple(tuple(r) for r in tinv_rows)
        self.eval_vector = tuple(eval_vector)
        self._one = tuple(one)  # the image of the polynomial 1
        self._flipped = flipped
        self.labels_are_polynomials = labels_are_polynomials
        self.order = math.prod(self.invariant_factors)
        self._element_list = None
        self._cycle_lists = None

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in lexicographic mixed-radix order; index 0 is zero."""
        if self._element_list is None:
            self._element_list = list(_mixed_radix(*(range(m) for m in self.invariant_factors)))
        return list(self._element_list)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, x, y):
        return tuple((p + q) % m for p, q, m in zip(x, y, self.invariant_factors))

    def neg(self, x):
        return tuple((-p) % m for p, m in zip(x, self.invariant_factors))

    def t_act(self, x):
        return tuple(_power_times(self.t_matrix, 1, x, self.invariant_factors))

    @property
    def t_order(self) -> int:
        """Least m >= 1 with t^m x = x for every x in M, found by moving the
        basis vectors at most m times.  It is the type of the Alexander
        quandle, since S_b^k(x) = t^k x + (1 - t^k) b is the identity for
        every b exactly when t^k is."""
        basis = list(map(tuple, identity(self.rank)))
        images = [self.t_act(e) for e in basis]
        m = 1
        while images != basis:
            images = [self.t_act(v) for v in images]
            m += 1
        return m

    def _cycles(self):
        """Per coordinate, range(d_i) twice over and the same scaled by the
        stride s_i: entry v < 2 d_i of either is v mod d_i, as a coordinate
        or as its share of the index.  In rank 2 and up also range(order),
        to read summed indices back as shared int objects.  Built on first
        use, since a module may be far too large to enumerate."""
        if self._cycle_lists is None:
            plain, strided = [], []
            stride = self.order
            for d in self.invariant_factors:
                stride //= d
                plain.append(list(range(d)) * 2)
                strided.append(list(range(0, d * stride, stride)) * 2 if stride > 1
                               else plain[-1])
            shared = list(range(self.order)) if self.rank > 1 else None
            self._cycle_lists = plain, strided, shared
        return self._cycle_lists

    def coordinate_columns(self, rows=None) -> list[list[int]]:
        """Coordinate columns of rows.x for every x in elements() order; of
        the elements themselves when rows is None.

        Since x = sum_j x_j e_j, the list over the first j + 1 coordinates is
        each entry of the list over the first j plus each multiple
        v (rows e_j), v < d_j, with the entry outermost, as in elements().
        Every step is one C-level map per coordinate, so the cost is
        O(rank * order).
        """
        rows = identity(self.rank) if rows is None else rows
        plain = self._cycles()[0]
        cols = []
        for i, d in enumerate(self.invariant_factors):
            col = [0]
            for j, dj in enumerate(self.invariant_factors):
                c = rows[i][j] % d
                steps = map(d.__rmod__, range(0, c * dj, c)) if c else repeat(0, dj)
                col = list(map(plain[i].__getitem__, starmap(_add, _mixed_radix(col, steps))))
            cols.append(col)
        return cols

    def translate(self, x, cols) -> list[int]:
        """Indices of x + y for the elements y given as coordinate columns.

        Per coordinate one C-level map reduces x_i + y_i < 2 d_i through the
        strided cycle, and the shares add up to the index.  In rank 0 the
        only element is index 0.
        """
        _, strided, shared = self._cycles()
        parts = [map(cycle.__getitem__, map(xi.__add__, col))
                 for xi, cycle, col in zip(x, strided, cols)]
        if not parts:
            return [0]
        out = parts[0]
        for part in parts[1:]:
            out = map(_add, out, part)
        if shared is not None:
            # each sum is a new int object; a table of n^2 of them would
            # hold n^2 ints where n shared ones do
            out = map(shared.__getitem__, out)
        return list(out)

    def one_minus_t_rows(self) -> list[list[int]]:
        """The matrix of 1 - t, for coordinate_columns."""
        return [[int(i == j) - v for j, v in enumerate(row)]
                for i, row in enumerate(self.t_matrix)]

    def eval_one_class(self, x) -> int:
        """Residue of the representative polynomial at t = 1, mod the orbit gcd."""
        return sum(w * v for w, v in zip(self.eval_vector, x)) % self.eval_modulus

    def reduce_poly(self, f: LaurentPoly) -> tuple[int, ...]:
        """Image of a Laurent polynomial in the module: the sum of c t^e 1
        over its terms, t^e by square-and-multiply on the matrix of t (or of
        t^-1 when e < 0), so an exponent costs its bit length."""
        out = self.zero()
        for e, c in f.terms():
            vec = _power_times(self.t_matrix if e >= 0 else self.t_inverse_matrix, abs(e),
                               self._one, self.invariant_factors)
            out = self.add(out, [c * v for v in vec])
        return out

    def label(self, x) -> str:
        """Polynomial label when the coordinates still mean 1, t, t^2, ...;
        a plain coordinate tuple otherwise."""
        if self.rank == 0:
            return "0"
        if self.labels_are_polynomials:
            return format_poly(LaurentPoly(dict(enumerate(x))))
        return "(" + ",".join(str(v) for v in x) + ")"

    def labels(self) -> list[str]:
        return [self.label(x) for x in self.elements()]

    def descriptor(self) -> str:
        return self.presentation.descriptor()

    def __repr__(self) -> str:
        return f"<FiniteTModule ({self.descriptor()}) order {self.order}>"


def ideals_equal(p1: IdealPresentation, p2: IdealPresentation) -> bool:
    """Whether two presentations generate the same ideal.

    Decided by mutual reduction of generators plus equal order, never by
    comparing generator lists (those depend on basis choices).
    """
    m1, m2 = build(p1), build(p2)
    return m1.order == m2.order and all(
        m.reduce_poly(g) == m.zero() for m, p in ((m1, p2), (m2, p1)) for g in p.generators())
