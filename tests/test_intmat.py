import hashlib
import random

from quandles.intmat import (
    hnf,
    hnf_transform,
    identity,
    in_row_span,
    left_kernel,
    mat_mul,
    mat_vec,
    right_kernel,
    snf_transform,
    solve,
    transpose,
    unimodular_inverse,
)


def test_hnf_transform_reproduces_input():
    a = [[12, 6, 4], [3, 9, 6], [2, 16, 14]]
    h, u = hnf_transform(a)
    assert mat_mul(u, a) == h
    # canonical: positive pivots, entries above reduced
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if nz:
            pivots.append((nz[0], row[nz[0]]))
    assert all(p > 0 for _, p in pivots)
    cols = [c for c, _ in pivots]
    assert cols == sorted(cols)


def test_hnf_is_basis_independent():
    a = [[2, 4], [6, 8]]
    b = [[6, 8], [2, 4], [8, 12]]  # same lattice, extra dependent row
    assert hnf(a) == hnf(b)


def test_left_kernel_annihilates():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        for v in left_kernel(a):
            assert all(sum(v[i] * a[i][j] for i in range(m)) == 0 for j in range(n))


def test_right_kernel_annihilates():
    rng = random.Random(8)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        for v in right_kernel(a):
            assert all(sum(a[i][j] * v[j] for j in range(n)) == 0 for i in range(m))


def test_kernel_rank_plus_rank_is_dimension():
    a = [[6], [3]]
    assert left_kernel(a) == [[1, -2]]
    assert left_kernel([[5]]) == []
    assert left_kernel([[0], [0]]) == [[1, 0], [0, 1]]


def test_snf_transform_identity():
    rng = random.Random(9)
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        d, u, v = snf_transform(a)
        assert mat_mul(mat_mul(u, a), v) == d
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and y >= 0
            if x:
                assert y % x == 0
            else:
                assert y == 0


def test_unimodular_inverse_round_trip():
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randint(1, 4)
        # random unimodular: product of elementary row ops on the identity
        u = identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        w = unimodular_inverse(u)
        assert mat_mul(w, u) == identity(n)
        assert mat_mul(u, w) == identity(n)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = mat_vec(a, x)
        sol = solve(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b
    assert solve([[2]], [1]) is None
    assert solve([[2, 0], [0, 3]], [4, 6]) == [2, 2]


def test_in_row_span():
    basis = hnf([[2, 0], [0, 3]])
    assert in_row_span(basis, [4, 3])
    assert not in_row_span(basis, [1, 0])
    assert in_row_span(basis, [0, 0])


def normal_form_grid():
    """20,000 seeded pairs (a, b): a of shape 0-6 x 0-6, empty shapes
    included, and b of a shape that a can multiply.  Entries are bounded by
    1, 3, 10 or 100, drawn per pair, and about 30 % of them are zero."""
    rng = random.Random(35)

    def draw(rows, cols, bound):
        return [[0 if rng.random() < 0.3 else rng.randint(-bound, bound) for _ in range(cols)]
                for _ in range(rows)]

    grid = []
    for _ in range(20000):
        m, n, p = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        bound = rng.choice((1, 3, 10, 100))
        grid.append((draw(m, n, bound), draw(n, p, bound)))
    return grid


def unimodular_inverse_or_refusal(mat):
    try:
        return unimodular_inverse(mat)
    except ValueError:
        return "not unimodular"


def normal_form_fingerprint(a, b):
    h, u = hnf_transform(a)
    return repr((h, u, snf_transform(a), unimodular_inverse_or_refusal(a), unimodular_inverse(u),
                 hnf(a), left_kernel(a), right_kernel(a), mat_mul(a, b), transpose(a)))


class TestNormalFormBytes:
    def test_the_normal_form_grid_hashes_as_pinned(self):
        # any change to an entry of a normal form, a transform or a kernel shows here
        text = "\n".join(normal_form_fingerprint(a, b) for a, b in normal_form_grid())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ee37b8c183a559455378c74e11a74443fe8396f198c4847a2c4a463bafe49d33")

    def test_the_normal_form_grid_covers_every_shape(self):
        grid = normal_form_grid()
        shapes = {(len(a), len(b)) for a, b in grid}
        assert shapes == {(m, n) for m in range(7) for n in range(7)}
        inverses = [unimodular_inverse_or_refusal(a) for a, _ in grid]
        assert 1000 < inverses.count("not unimodular") < len(grid) - 1000


class TestEmptyShapes:
    def test_products_with_no_rows_or_no_columns(self):
        assert mat_mul([], [[1]]) == []
        assert mat_mul([[], []], []) == [[], []]

    def test_the_empty_matrix(self):
        assert transpose([]) == []
        assert hnf([]) == []
        assert left_kernel([]) == []
        assert right_kernel([]) == []
        assert snf_transform([]) == ([], [], [])

    def test_rows_with_no_columns_keep_the_identity_transform(self):
        assert hnf_transform([[], []]) == ([[], []], [[1, 0], [0, 1]])
