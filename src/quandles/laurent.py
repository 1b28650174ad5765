"""Integer Laurent polynomials in t, with the lattice helpers built on them.

A polynomial is a map exponent -> coefficient holding no zero coefficients;
the zero polynomial is the empty map.  Exponents may be negative.  Shifting
every exponent by a fixed amount multiplies by a unit of the Laurent ring and
changes no algebraic property used downstream.
"""

from __future__ import annotations

import math
import re
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .intmat import hnf, left_kernel


class ParseError(ValueError):
    """Malformed polynomial or ideal text; carries the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.message = message
        self.position = position


class LaurentPoly:
    """An integer Laurent polynomial in the variable t."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c}

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def t(cls, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return tuple(sorted(self._coeffs.items()))

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms())

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in rhs._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in rhs._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


ONE_MINUS_T = LaurentPoly({0: 1, 1: -1})


def format_poly(f: LaurentPoly) -> str:
    """Render in the compact style '1+2t', '3t', '2t^-1-3'; zero is '0'.

    Terms appear in increasing exponent order; the output parses back with
    parse_poly.
    """
    if not f:
        return "0"
    parts = []
    for e, c in f.terms():
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            body = tpart if mag == 1 else f"{mag}{tpart}"
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += sign + body
    return out


_TERM = re.compile(r"\s*([+-]?)\s*(\d*)\s*(\*?)\s*(?:(t)\s*(?:\^\s*([+-]?)(\d*))?)?")


def parse_poly(text: str) -> LaurentPoly:
    """Parse a term sum '[+|-] [coeff *] t[^exp]', e.g. 't^2+t+1', '2*t^-1 - 3'.

    Whitespace insensitive; the '*' between coefficient and t is optional; an
    exponent may carry a sign.  Each match of _TERM reads one term, its
    groups empty where the text lacks that part.  Raises ParseError with the
    failing position.
    """
    if not text.strip():
        raise ParseError("expected a term", len(text))
    coeffs: dict[int, int] = {}
    pos = 0
    while (m := _TERM.match(text, pos)).start(1) < len(text):
        sign, coeff, star, t, esign, exp = m.groups()
        if pos and not sign:
            raise ParseError("expected '+' or '-'", m.start(1))
        if not coeff and (star or not t):
            raise ParseError("expected a coefficient or 't'", m.start(2))
        if star and not t:
            raise ParseError("expected 't'", m.end())
        if exp == "":
            raise ParseError("expected an integer exponent", m.start(6))
        c = parse_int(sign + (coeff or "1"), m.start(2))
        e = parse_int(esign + exp, m.start(6)) if exp else (1 if t else 0)
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
    return LaurentPoly(coeffs)


def parse_int(digits: str, position: int) -> int:
    """int(digits); past sys.get_int_max_str_digits, a positioned ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("integer too long", position) from None


def eval_one(f: LaurentPoly) -> int:
    """The value of f at t = 1, i.e. the sum of its coefficients."""
    return sum(c for _, c in f.terms())


def split_one_minus_t(f: LaurentPoly) -> tuple[LaurentPoly, int]:
    """The unique (q, c) with f == (1 - t) * q + c and c == f(1).

    Uniqueness holds because 1 - t is not a zero divisor.  The quotient is
    recovered by the first-order recurrence q_e = g_e + q_{e-1} applied to
    g = f - c, which vanishes at t = 1.
    """
    c = eval_one(f)
    g = f - c
    if not g:
        return LaurentPoly(), c
    lo, hi = g.min_exp, g.max_exp
    out: dict[int, int] = {}
    acc = 0
    for e in range(lo, hi):
        acc += g.coeff(e)
        if acc:
            out[e] = acc
    return LaurentPoly(out), c


def gcd_vec(values: Iterable[int]) -> int:
    """gcd of the entries; 0 for an all-zero (or empty) vector."""
    return reduce(math.gcd, values, 0)


def syzygy_basis(c: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Canonical (row Hermite form) basis of the integer kernel lattice
    {s : sum s_i c_i == 0} of v -> sum v_i c_i, as the tuple of its rows.

    The rank is k - 1 when some entry is nonzero, k when all are zero.
    """
    if not c:
        raise ValueError("need at least one entry")
    kern = left_kernel([[int(v)] for v in c])
    return tuple(tuple(row) for row in hnf(kern))
