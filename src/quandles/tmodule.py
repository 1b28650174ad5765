"""Finite quotients of the integer Laurent ring with an invertible t-action.

A presentation is an ideal (n, p_1, ..., p_k) whose first generator is a
positive integer n.  The builder realizes the quotient ring as a finite
abelian group in invariant-factor coordinates:

1. reduce the generators mod n, normalize each by a power of t, and fold any
   constants that appear into the modulus;
2. pick a generator whose leading coefficient is a unit mod n (substituting
   t -> 1/t first when only a trailing unit exists) and scale it monic;
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
    solve,
    transpose,
    unimodular_inverse,
)
from .laurent import LaurentPoly, ParseError, eval_one, format_poly, gcd_vec, parse_poly


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
    if not head or not head.lstrip("+-").isdigit():
        raise ParseError("expected an integer modulus", 0)
    n = int(head)
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


def _fold_constants(n, polys):
    """Reduce mod n, shift to exponent 0, fold constants into the modulus.

    Folding shrinks n, which can kill further coefficients, so iterate to a
    fixed point (n only ever divides its previous value).
    """
    work = [dict(f.terms()) for f in polys]
    while True:
        n0 = n
        reduced = []
        for d in work:
            d2 = {e: c % n for e, c in d.items() if c % n}
            if not d2:
                continue
            lo = min(d2)
            d2 = {e - lo: c for e, c in d2.items()}
            if max(d2) == 0:
                n = math.gcd(n, d2[0])
            else:
                reduced.append(d2)
        work = reduced
        if n == 1:
            return 1, []
        if n == n0:
            return n, work


def _flip(d):
    """Substitute t -> 1/t in a coefficient dict and renormalize to exponent 0."""
    lo = min(-e for e in d)
    return {-e - lo: c for e, c in d.items()}


def _monic_pick(polys, n):
    """Index of a generator with unit leading coefficient; lowest degree wins."""
    cands = [i for i, d in enumerate(polys) if math.gcd(d[max(d)], n) == 1]
    if not cands:
        return None
    return min(cands, key=lambda i: (max(polys[i]), i))


def _companion(gvec, n):
    """Matrix of multiplication by t on Z_n[t]/(g), g monic with low coefficients gvec."""
    d = len(gvec)
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = (rows[i][d - 1] - gvec[i]) % n
    return rows


def _reduce_mod_monic(coeffs, gvec, n):
    """Coordinates of a nonnegative-exponent polynomial mod the monic g over Z_n."""
    deg = len(gvec)
    top = max(coeffs)
    c = [0] * (top + 1)
    for e, v in coeffs.items():
        c[e] = v % n
    for e in range(top, deg - 1, -1):
        v = c[e]
        if v:
            c[e] = 0
            for j in range(deg):
                c[e - deg + j] = (c[e - deg + j] - v * gvec[j]) % n
    out = c[:deg]
    out += [0] * (deg - len(out))
    return out


def _row_reduce(rows, mods):
    # coordinate i of any image is only ever read mod mods[i]
    return [[x % mods[i] for x in row] for i, row in enumerate(rows)]


def _diag_rows(mods):
    return [[mods[i] if j == i else 0 for j in range(len(mods))] for i in range(len(mods))]


def _quotient_action(dim, lattice_gens, t_rows, eval_row, pre):
    """Quotient Z^dim by the lattice spanned by lattice_gens, carrying the data.

    Returns (mods, t_rows, eval_row, pre) in the new coordinates with all
    trivial (modulus 1) coordinates dropped.  `pre` accumulates the map from
    the original polynomial basis into the current coordinates.
    """
    a = [[gen[i] for gen in lattice_gens] for i in range(dim)]
    d, u, _ = snf_transform(a)
    s = [d[i][i] for i in range(dim)]
    if any(x == 0 for x in s):
        raise ArithmeticError("lattice quotient is not finite")
    uinv = unimodular_inverse(u)
    t_new = mat_mul(mat_mul(u, t_rows), uinv)
    w_new = mat_vec(transpose(uinv), list(eval_row))
    pre_new = mat_mul(u, pre)
    keep = [i for i in range(dim) if s[i] != 1]
    mods = [s[i] for i in keep]
    t_new = [[t_new[i][j] for j in keep] for i in keep]
    w_new = [w_new[j] for j in keep]
    pre_new = [pre_new[i] for i in keep]
    return mods, _row_reduce(t_new, mods), w_new, pre_new


def _stable_kernel_lattice(t_rows, mods):
    """Row-HNF lattice of the stabilized kernel chain of the t-action.

    The chain ker(t) <= ker(t^2) <= ... strictly grows by a factor of at
    least two until it stabilizes, so it settles within log2(order) rounds.
    """
    r = len(mods)
    if r == 0:
        return []
    diag = _diag_rows(mods)
    prev = hnf(diag)
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
    """Matrix of the inverse action; solves t*x == e_k in the module per column."""
    r = len(mods)
    if r == 0:
        return []
    block = [list(t_rows[i]) + [mods[i] if j == i else 0 for j in range(r)] for i in range(r)]
    cols = []
    for k in range(r):
        rhs = [1 if i == k else 0 for i in range(r)]
        sol = solve(block, rhs)
        if sol is None:
            raise ArithmeticError("t does not act invertibly after saturation")
        cols.append(sol[:r])
    inv = [[cols[j][i] % mods[i] for j in range(r)] for i in range(r)]
    for composed in (mat_mul(t_rows, inv), mat_mul(inv, t_rows)):
        for i in range(r):
            for j in range(r):
                if (composed[i][j] - (1 if i == j else 0)) % mods[i]:
                    raise ArithmeticError("inverse action verification failed")
    return inv


def build(pres: IdealPresentation) -> "FiniteTModule":
    """Construct the finite quotient module of a presentation.

    Raises UnsupportedPresentation when no generator has a unit leading or
    trailing coefficient mod n.
    """
    a = gcd_vec([pres.modulus] + [eval_one(f) for f in pres.polys])
    n, polys = _fold_constants(pres.modulus, pres.polys)
    if n == 1:
        return FiniteTModule(pres, a, (), (), (), (), (), False, None, True)
    flipped = False
    pick = _monic_pick(polys, n)
    if pick is None and any(math.gcd(d[0], n) == 1 for d in polys):
        flipped = True
        polys = [_flip(d) for d in polys]
        pick = _monic_pick(polys, n)
    if pick is None:
        raise UnsupportedPresentation(
            f"no generator of ({pres.descriptor()}) has a unit leading or trailing "
            f"coefficient mod {n}"
        )
    g = polys[pick]
    rest = polys[:pick] + polys[pick + 1:]
    deg = max(g)
    unit = pow(g[deg] % n, -1, n)
    gvec = [(g.get(e, 0) * unit) % n for e in range(deg)]
    comp = _companion(gvec, n)

    changed = False
    if rest:
        gens = []
        for h in rest:
            vec = _reduce_mod_monic(h, gvec, n)
            for _ in range(deg):
                gens.append(vec)
                vec = [x % n for x in mat_vec(comp, vec)]
        gens += [[n if i == j else 0 for i in range(deg)] for j in range(deg)]
        mods, t_rows, w, pre = _quotient_action(deg, gens, comp, [1] * deg, identity(deg))
        changed = True
    else:
        mods = [n] * deg
        t_rows = _row_reduce([list(r) for r in comp], mods)
        w = [1] * deg
        pre = identity(deg)

    kernel = _stable_kernel_lattice(t_rows, mods)
    if kernel != hnf(_diag_rows(mods)):
        changed = True
        mods, t_rows, w, pre = _quotient_action(len(mods), kernel, t_rows, w, pre)

    tinv_rows = _invert_action(t_rows, mods)
    if flipped:
        t_rows, tinv_rows = tinv_rows, t_rows
    return FiniteTModule(
        pres,
        a,
        tuple(mods),
        tuple(tuple(r) for r in t_rows),
        tuple(tuple(r) for r in tinv_rows),
        tuple(x % a for x in w),
        tuple(tuple(r) for r in pre),
        flipped,
        (n, deg, tuple(gvec)),
        not flipped and not changed,
    )


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
                 tinv_rows, eval_vector, transform, flipped, base,
                 labels_are_polynomials):
        self.presentation = presentation
        self.eval_modulus = eval_modulus
        self.invariant_factors = tuple(invariant_factors)
        self.t_matrix = tuple(tuple(r) for r in t_rows)
        self.t_inverse_matrix = tuple(tuple(r) for r in tinv_rows)
        self.eval_vector = tuple(eval_vector)
        self._transform = tuple(tuple(r) for r in transform)
        self._flipped = flipped
        self._base = base  # (n, deg, gvec) of the companion stage; None if trivial
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

    def _apply(self, rows, x):
        return tuple(
            sum(rows[i][j] * x[j] for j in range(self.rank)) % self.invariant_factors[i]
            for i in range(self.rank)
        )

    def t_act(self, x):
        return self._apply(self.t_matrix, x)

    def t_inv_act(self, x):
        return self._apply(self.t_inverse_matrix, x)

    @property
    def t_order(self) -> int:
        """Least m >= 1 with t^m x = x for every x in M, found by moving the
        basis vectors at most m times.  It is the type of the Alexander
        quandle, since S_b^k(x) = t^k x + (1 - t^k) b is the identity for
        every b exactly when t^k is."""
        basis = [tuple(int(i == j) % d for j, d in enumerate(self.invariant_factors))
                 for i in range(self.rank)]
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

    def one_minus_t_image(self) -> list[tuple[int, ...]]:
        """The set {(1 - t) y : y in M}, deduplicated, in enumeration order."""
        image = self.translate(self.zero(), self.coordinate_columns(self.one_minus_t_rows()))
        elems = self.elements()
        return [elems[i] for i in sorted(set(image))]

    def reduce_poly(self, f: LaurentPoly) -> tuple[int, ...]:
        """Image of a Laurent polynomial in the module."""
        if self._base is None:
            return ()
        if self._flipped:
            f = f.substitute_t_inverse()
        if not f:
            return self.zero()
        shift = min(0, f.min_exp)
        if shift:
            f = f.shifted(-shift)
        n, deg, gvec = self._base
        vec = _reduce_mod_monic(dict(f.terms()), list(gvec), n)
        cur = tuple(
            sum(self._transform[i][j] * vec[j] for j in range(deg)) % self.invariant_factors[i]
            for i in range(self.rank)
        )
        # undo the t^k clearing of negative exponents with the concrete inverse
        concrete_inv = self.t_matrix if self._flipped else self.t_inverse_matrix
        for _ in range(-shift):
            cur = self._apply(concrete_inv, cur)
        return cur

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

    def reduces_to_zero(self, pres: IdealPresentation) -> bool:
        """Whether every generator of the presentation maps to 0 here."""
        return all(self.reduce_poly(g) == self.zero() for g in pres.generators())

    def descriptor(self) -> str:
        return self.presentation.descriptor()

    def __repr__(self) -> str:
        return f"<FiniteTModule ({self.descriptor()}) order {self.order}>"


def ideals_equal(p1: IdealPresentation, p2: IdealPresentation) -> bool:
    """Whether two presentations generate the same ideal.

    Decided by mutual reduction of generators plus equal order, never by
    comparing generator lists (those depend on basis choices).
    """
    m1 = build(p1)
    m2 = build(p2)
    return m1.order == m2.order and m1.reduces_to_zero(p2) and m2.reduces_to_zero(p1)
