"""The harness's own algebra, used to check every benchmarked CLI output.

Nothing here imports `quandles`.  Each expected answer is computed from the
data the generator chose, by methods that share no code with the library:

- An Alexander quotient Z[t, 1/t]/(n, p_1, ..., p_k) is modelled as (Z_n)^d
  modulo the subgroup the other generators span, with t acting by a
  companion matrix.  Orders and the (1 - t)^k image tower (whose cosets are
  the levels of the maximal decomposition) come from subgroup closures, not
  from Hermite or Smith forms and not from quandle tables.
- Linear ideals (n; t + a) use the gcd chain n_{i+1} = n_i / gcd(n_i, 1 + a)
  and residue classes mod n / n_k.
- Conjugation quandles use the harness's own group elements (permutations,
  affine maps of Z_n, products with Z_m); conjugacy classes are orbits under
  conjugation by group generators.
"""

from __future__ import annotations

import math
import re
from itertools import permutations


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient} dicts


def poly_text(poly: dict, star: bool = False) -> str:
    """Input text for a polynomial, highest exponent first."""
    out = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            body = tpart if c == 1 else (f"{c}*{tpart}" if star else f"{c}{tpart}")
        out.append((sign, body))
    if not out:
        return "0"
    text = ("-" if out[0][0] == "-" else "") + out[0][1]
    for sign, body in out[1:]:
        text += f" {sign} {body}"
    return text


_TERM = re.compile(r"([+-])?(\d+)?(?:\*?(t)(?:\^(-?\d+))?)?")


def parse_terms(text: str) -> dict:
    """Parse a polynomial as the library prints it ('1+3t+2t^2', '-2t^-1')."""
    s = text.replace(" ", "")
    out: dict = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        sign, digits, tee, exp = m.groups()
        if m.end() == pos or (digits is None and tee is None):
            raise ValueError(f"unreadable polynomial {text!r}")
        c = int(digits) if digits else 1
        c = -c if sign == "-" else c
        e = (int(exp) if exp else 1) if tee else 0
        out[e] = out.get(e, 0) + c
        pos = m.end()
    return {e: c for e, c in out.items() if c}


def value_at_one(poly: dict) -> int:
    return sum(poly.values())


def reduced(n: int, poly: dict) -> dict:
    """Coefficients mod n, lowest exponent shifted to 0; {} when it vanishes."""
    d = {e: c % n for e, c in poly.items() if c % n}
    if not d:
        return {}
    lo = min(d)
    return {e - lo: c for e, c in d.items()}


def is_unit(c: int, n: int) -> bool:
    return math.gcd(c, n) == 1


# ---------------------------------------------------------------------------
# Alexander quotients as (Z_n)^d / H


class Unsupported(Exception):
    """No generator has a unit leading or trailing coefficient."""


def _closure(gens, n):
    """Subgroup of (Z_n)^d generated by the vectors, as a set."""
    gens = [g for g in set(gens) if any(g)]
    zero = None
    for g in gens:
        zero = (0,) * len(g)
        break
    if zero is None:
        return {()}
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % n for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


class QuotientModel:
    """Order and (1 - t)^k tower of Z[t, 1/t]/(n, polys).

    Constants and monomials fold into the modulus (t is a unit).  One
    generator with a unit leading coefficient (after t -> 1/t if none has
    one) spans the free part (Z_n)^d; the others span a t-stable subgroup H.
    The Laurent quotient is the stable image of t on (Z_n)^d / H, since a
    finite module splits into its t-nilpotent part and the part where t is
    invertible.
    """

    def __init__(self, n: int, polys):
        n, polys = self._fold(n, [dict(p) for p in polys])
        self.n = n
        if n == 1:
            self.order = 1
            self.tower = [1]
            return
        pick = self._pick(polys, n)
        if pick is None:
            polys = [reduced(n, {-e: c for e, c in p.items()}) for p in polys]
            pick = self._pick(polys, n)
        if pick is None:
            raise Unsupported("no unit leading or trailing coefficient")
        f = polys[pick]
        d = max(f)
        inv = pow(f[d], -1, n)
        low = [(f.get(e, 0) * inv) % n for e in range(d)]
        self.d = d
        self._low = low
        h_gens = []
        for g in polys[:pick] + polys[pick + 1:]:
            v = self._reduce(g)
            for _ in range(d):
                h_gens.append(v)
                v = self._times_t(v)
        h_size = len(_closure(h_gens, n)) if h_gens else 1
        gens = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
        size = len(_closure(gens + h_gens, n))
        while True:  # stable image of t
            nxt = [self._times_t(v) for v in gens]
            nsize = len(_closure(nxt + h_gens, n))
            gens = nxt
            if nsize == size:
                break
            size = nsize
        self.order = size // h_size
        tower = [self.order]
        while True:  # |(1 - t)^k M| until it stops shrinking
            gens = [self._one_minus_t(v) for v in gens]
            size = len(_closure(gens + h_gens, n)) // h_size
            if size == tower[-1]:
                break
            tower.append(size)
        self.tower = tower

    @staticmethod
    def _fold(n, polys):
        while True:
            n0 = n
            work = []
            for p in polys:
                q = reduced(n, p)
                if not q:
                    continue
                if max(q) == 0:
                    n = math.gcd(n, q[0])
                else:
                    work.append(q)
            polys = work
            if n == 1:
                return 1, []
            if n == n0:
                return n, polys

    @staticmethod
    def _pick(polys, n):
        cands = [p for p in polys if is_unit(p[max(p)], n)]
        if not cands:
            return None
        best = min(cands, key=max)
        return next(i for i, p in enumerate(polys) if p is best)

    def _times_t(self, v):
        n = self.n
        top = v[-1]
        shifted = (0,) + tuple(v[:-1])
        return tuple((s - top * c) % n for s, c in zip(shifted, self._low))

    def _one_minus_t(self, v):
        tv = self._times_t(v)
        return tuple((a - b) % self.n for a, b in zip(v, tv))

    def _reduce(self, g):
        """Coordinates of g mod the monic generator."""
        n, d = self.n, self.d
        v = [0] * d
        tpow = tuple(1 if i == 0 else 0 for i in range(d))
        for e in range(max(g) + 1):
            c = g.get(e, 0)
            if c:
                v = [(a + c * b) % n for a, b in zip(v, tpow)]
            tpow = self._times_t(tpow)
        return tuple(v)

    @property
    def depth(self) -> int:
        return len(self.tower) - 1

    def level_counts(self) -> list[int]:
        """Number of blocks at each level, the repeated fixed point included."""
        counts = [self.order // s for s in self.tower]
        return counts + [counts[-1]]


def gcd_chain(n0: int, a: int) -> list[int]:
    chain = [n0]
    while True:
        nxt = chain[-1] // math.gcd(chain[-1], 1 + a)
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def residue_partition(n: int, modulus: int) -> set:
    return {frozenset(range(r, n, modulus)) for r in range(modulus)}


def linear_levels(n: int, a: int) -> list[set]:
    """Levels of the maximal decomposition of (n; t + a), a a unit mod n:
    level k is the residue classes mod n / n_k."""
    chain = gcd_chain(n, a)
    levels = [residue_partition(n, n // m) for m in chain]
    return levels + [levels[-1]]


def mult_order(u: int, n: int) -> int:
    if n == 1:
        return 1
    k, x = 1, u % n
    while x != 1:
        x = x * u % n
        k += 1
    return k


# ---------------------------------------------------------------------------
# Finite groups from their own elements


class Group:
    """Elements in a fixed order, with product (left factor applied first),
    inverse and a generating set."""

    def __init__(self, elements, mul, inv, gens, label=str):
        self.elements = list(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.mul = mul
        self.inv = inv
        self.gens = list(gens)
        self.label = label

    @property
    def size(self) -> int:
        return len(self.elements)

    def conj(self, x, b, b_inv=None):
        """x * b = b^-1 x b."""
        return self.mul(self.mul(self.inv(b) if b_inv is None else b_inv, x), b)

    def relabeled(self, order):
        return Group([self.elements[i] for i in order], self.mul, self.inv, self.gens, self.label)

    def to_json(self) -> dict:
        idx = self.index
        mult = [[idx[self.mul(a, b)] for b in self.elements] for a in self.elements]
        ident = next(i for i, g in enumerate(self.elements)
                     if all(self.mul(g, h) == h for h in self.gens))
        return {"size": self.size, "mult": mult, "identity": ident}

    def classes(self) -> set:
        """Conjugacy classes as index sets: orbits under conjugation by the
        generators (and their inverses)."""
        return self._orbits(self.elements, self.gens)

    def tower(self) -> list[set]:
        """Orbit-refinement levels of Conj(G): each block splits into its
        orbits under conjugation by its own members."""
        levels = [{frozenset(range(self.size))}, self.classes()]
        if levels[1] == levels[0]:
            return levels
        while True:
            nxt = set()
            for block in levels[-1]:
                members = [self.elements[i] for i in block]
                nxt |= self._orbits(members, members)
            levels.append(nxt)
            if nxt == levels[-2]:
                return levels

    def _orbits(self, domain, movers) -> set:
        pairs = [(b, self.inv(b)) for b in movers]
        pairs += [(b_inv, b) for b, b_inv in pairs]
        unseen = set(domain)
        out = set()
        for seed in domain:
            if seed not in unseen:
                continue
            block = {seed}
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                for b, b_inv in pairs:
                    y = self.conj(x, b, b_inv)
                    if y not in block:
                        block.add(y)
                        frontier.append(y)
            unseen -= block
            out.add(frozenset(self.index[x] for x in block))
        return out


def _perm_mul(p, q):
    return tuple(q[i] for i in p)


def _perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle_label(p) -> str:
    """Disjoint cycles on 1-based points, 'e' for the identity."""
    seen = set()
    parts = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc = []
        j = start
        while j not in seen:
            seen.add(j)
            cyc.append(str(j + 1))
            j = p[j]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "e"


def symmetric(k: int) -> Group:
    """S_k indexed lexicographically by one-line notation, as the library
    documents for --symmetric."""
    gens = [tuple([1, 0] + list(range(2, k))), tuple(list(range(1, k)) + [0])]
    return Group(sorted(permutations(range(k))), _perm_mul, _perm_inv, gens, cycle_label)


def dihedral_group(n: int) -> Group:
    """Affine maps x -> s x + r of Z_n with s = +-1 (order 2n)."""
    elems = [(s, r) for s in (1, n - 1) for r in range(n)]

    def mul(p, q):
        return ((q[0] * p[0]) % n, (q[0] * p[1] + q[1]) % n)

    def inv(p):
        return (p[0], (-p[0] * p[1]) % n)

    return Group(elems, mul, inv, [(1, 1), (n - 1, 0)])


def symmetric_times_cyclic(k: int, m: int) -> Group:
    sk = symmetric(k)
    elems = [(p, z) for p in sk.elements for z in range(m)]

    def mul(x, y):
        return (_perm_mul(x[0], y[0]), (x[1] + y[1]) % m)

    def inv(x):
        return (_perm_inv(x[0]), (-x[1]) % m)

    ident = tuple(range(k))
    gens = [(g, 0) for g in sk.gens] + [(ident, 1)]
    return Group(elems, mul, inv, gens)


def group_exponent(g: Group) -> int:
    """Type of Conj(G) for a centreless G: the lcm of element orders."""
    out = 1
    for x in g.elements:
        k, y = 1, x
        while not all(g.mul(y, h) == h for h in g.gens):
            y = g.mul(y, x)
            k += 1
        out = math.lcm(out, k)
    return out


# ---------------------------------------------------------------------------
# Quandle tables


def linear_table(n: int, a: int) -> list[list[int]]:
    """x * y = t x + (1 - t) y on Z_n with t = -a."""
    t = (-a) % n
    return [[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)]


def conj_table(g: Group) -> list[list[int]]:
    idx = g.index
    return [[idx[g.conj(x, b)] for b in g.elements] for x in g.elements]


def relabel(table, sigma) -> list[list[int]]:
    """The table transported along the bijection sigma."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return out


def is_quandle(table) -> bool:
    n = len(table)
    if any(table[a][a] != a for a in range(n)):
        return False
    if any(len({table[a][b] for a in range(n)}) != n for b in range(n)):
        return False
    return all(table[table[a][b]][c] == table[table[a][c]][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def witness_holds(table, axiom: str, witness) -> bool:
    """Whether a reported violation really is one in this table."""
    n = len(table)
    if not all(isinstance(w, int) and 0 <= w < n for w in witness):
        return False
    if axiom == "idempotency" and len(witness) == 1:
        a, = witness
        return table[a][a] != a
    if axiom == "right-invertibility" and len(witness) == 3:
        a1, a2, b = witness
        return a1 != a2 and table[a1][b] == table[a2][b]
    if axiom == "self-distributivity" and len(witness) == 3:
        a, b, c = witness
        return table[table[a][b]][c] != table[table[a][c]][table[b][c]]
    return False


def transports(phi, t1, t2) -> bool:
    n = len(t1)
    if len(phi) != n or sorted(phi) != list(range(n)):
        return False
    return all(phi[t1[x][y]] == t2[phi[x]][phi[y]] for x in range(n) for y in range(n))


# ---------------------------------------------------------------------------
# Associated multiple conjugation quandles


class Base:
    """A type-m quandle with its powers and labels, as the MCQ layer sees it."""

    def __init__(self, size, power, m, label, components, levels):
        self.size = size
        self.power = power          # power(x, h, y) = x *^h y
        self.m = m
        self.label = label
        self.components = components
        self.levels = levels        # refinement tower, fixed point repeated

    @classmethod
    def linear(cls, n: int, a: int) -> "Base":
        t = (-a) % n

        def power(x, h, y):
            th = pow(t, h, n)
            return (th * x + (1 - th) * y) % n

        levels = linear_levels(n, a)
        return cls(n, power, mult_order(t, n), str, levels[1], levels)

    @classmethod
    def conj(cls, g: Group) -> "Base":
        els = g.elements

        def power(x, h, y):
            z = els[x]
            for _ in range(h):
                z = g.conj(z, els[y])
            return g.index[z]

        levels = g.tower()
        return cls(g.size, power, group_exponent(g),
                   lambda i: g.label(els[i]), levels[1], levels)

    def mcq_json(self) -> dict:
        """The associated MCQ on pairs (x, g), carrier index x m + g, with
        (x, g) * (y, h) = (x *^h y, g) since Z_m is abelian."""
        m, n = self.m, self.size
        zm = {"size": m, "mult": [[(a + b) % m for b in range(m)] for a in range(m)],
              "identity": 0, "labels": [str(a) for a in range(m)]}
        powers = [[[self.power(x, h, y) for y in range(n)] for x in range(n)]
                  for h in range(m)]
        op = []
        for x in range(n):
            for g in range(m):
                op.append([powers[h][x][y] * m + g for y in range(n) for h in range(m)])
        labels = [f"({self.label(x)};{g})" for x in range(n) for g in range(m)]
        return {"groups": [zm] * n, "op": op, "labels": labels}

    def carrier_blocks(self) -> set:
        m = self.m
        return {frozenset(x * m + g for x in block for g in range(m)) for block in self.levels[-1]}


# ---------------------------------------------------------------------------
# Comparing outputs


def as_partition(blocks, n: int):
    """The output's blocks as a set of frozensets, or None unless they
    partition range(n)."""
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        return None
    flat = [x for b in blocks for x in b]
    if sorted(flat) != list(range(n)) or any(not b for b in blocks):
        return None
    return {frozenset(b) for b in blocks}


def block_sizes_ok(part, count: int, size: int) -> bool:
    return part is not None and len(part) == count and all(len(b) == size for b in part)
