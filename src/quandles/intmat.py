"""Exact integer linear algebra: Hermite and Smith normal forms, kernels, solving.

Everything runs on plain Python integers, so intermediate coefficient growth
is harmless.  Matrices are lists of row lists, sized by module ranks, which
reach the degree of the monic generator (150 and more in a high-degree build).
The classic cubic algorithms are used throughout, so their cost grows with
the cube of that size.  Each normal form carries its transform in the rows
it reduces, [A | I], so one row operation serves both; empty matrices take
the general path.
"""

from __future__ import annotations


def identity(n: int) -> list[list[int]]:
    return [[*(0,) * i, 1, *(0,) * (n - 1 - i)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b == g and g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_transform(mat):
    """Row-style Hermite normal form with transform.

    Returns (H, U) with U unimodular and U*mat == H.  H is canonical: pivots
    positive, entries above each pivot reduced into [0, pivot), zero rows at
    the bottom.  The rows reduced are [mat | I], so each row operation also
    builds U, in the last len(mat) columns; pivots are read in the first n.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    h = [list(row) + e for row, e in zip(mat, identity(m))]
    r = 0
    for c in range(n):
        for piv in range(r, m):
            if h[piv][c]:
                break
        else:
            continue
        h[r], h[piv] = h[piv], h[r]
        for i in range(r + 1, m):
            if not h[i][c]:
                continue
            g, x, y = _xgcd(h[r][c], h[i][c])
            p, q = h[r][c] // g, h[i][c] // g
            # the 2x2 transform [[x, y], [-q, p]] has determinant +1
            h[r], h[i] = (
                [x * a + y * b for a, b in zip(h[r], h[i])],
                [-q * a + p * b for a, b in zip(h[r], h[i])],
            )
        if h[r][c] < 0:
            h[r] = [-a for a in h[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
        r += 1
        if r == m:
            break
    return [row[:n] for row in h], [row[n:] for row in h]


def hnf(mat):
    """Canonical basis (nonzero HNF rows) of the integer row lattice of mat."""
    h, _ = hnf_transform(mat)
    return [row for row in h if any(row)]


def left_kernel(mat):
    """Canonical basis of the lattice {v : v*mat == 0}."""
    h, u = hnf_transform(mat)
    return hnf([w for row, w in zip(h, u) if not any(row)])


def right_kernel(mat):
    """Canonical basis vectors of {x : mat*x == 0}."""
    return left_kernel(transpose(mat))


def in_row_span(basis, vec) -> bool:
    """Whether vec lies in the integer row span of a canonical HNF basis."""
    v = list(vec)
    for row in basis:
        c = next(j for j in range(len(row)) if row[j])
        if v[c] % row[c]:
            return False
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def snf_transform(mat):
    """Smith normal form with transforms: (D, U, V) with U*mat*V == D.

    D is diagonal with nonnegative entries d_1 | d_2 | ...; U and V are
    unimodular.  Row operations run on the first m rows of d, [mat | I_m],
    so they also build U; the rows of V start as I_n below those, so each
    column operation, a pass over all of d, also builds V.  The pivot
    magnitude strictly decreases whenever a cleanup pass leaves a remainder,
    so the loop terminates.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    d = [list(row) + e for row, e in zip(mat, identity(m))] + identity(n)
    k = 0
    while k < min(m, n):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        d[k], d[i0] = d[i0], d[k]
        if j0 != k:
            for row in d:
                row[k], row[j0] = row[j0], row[k]
        dirty = False
        for i in range(k + 1, m):
            q = d[i][k] // d[k][k]
            if q:
                d[i] = [a - q * b for a, b in zip(d[i], d[k])]
            if d[i][k]:
                dirty = True
        for j in range(k + 1, n):
            q = d[k][j] // d[k][k]
            if q:
                for row in d:
                    row[j] -= q * row[k]
            if d[k][j]:
                dirty = True
        if dirty:
            continue
        piv = d[k][k]
        for i in range(k + 1, m):
            if any(d[i][j] % piv for j in range(k + 1, n)):
                # the first offender's row is added, and the pivot is searched again
                d[k] = [a + b for a, b in zip(d[k], d[i])]
                break
        else:
            if piv < 0:
                d[k] = [-a for a in d[k]]
            k += 1
    return [row[:n] for row in d[:m]], [row[n:] for row in d[:m]], d[m:]


def unimodular_inverse(u):
    """Inverse of a unimodular integer matrix (its HNF is the identity)."""
    h, w = hnf_transform(u)
    if h != identity(len(u)):
        raise ValueError("matrix is not unimodular")
    return w


def solve(mat, rhs):
    """One integer solution x of mat*x == rhs, or None if there is none."""
    if not mat:
        return []
    d, u, v = snf_transform(mat)
    m = len(mat)
    n = len(mat[0])
    c = mat_vec(u, list(rhs))
    w = [0] * n
    for i in range(m):
        di = d[i][i] if i < n else 0
        if di:
            if c[i] % di:
                return None
            w[i] = c[i] // di
        elif c[i]:
            return None
    return mat_vec(v, w)
