import hashlib
import math
import random

import pytest

from quandles import tmodule
from quandles.alexander import alexander_components
from quandles.laurent import LaurentPoly, ParseError, eval_one, parse_poly
from quandles.tmodule import (
    IdealPresentation,
    _companion,
    _fold_constants,
    _invert_action,
    _power_times,
    UnsupportedPresentation,
    build,
    ideals_equal,
    parse_ideal,
    presentation_from_generators,
)
from quandles.verify import _random_module, random_index_module


def saturated_order_oracle(n, t_value):
    """Brute-force order of Z_n after making multiplication by t_value
    bijective: quotient by the union of the kernels of its powers."""
    kernel = {0}
    while True:
        bigger = {x for x in range(n) if (t_value * x) % n in kernel}
        if bigger == kernel:
            break
        kernel = bigger
    return n // len(kernel)


class TestBuild:
    def test_six_cubic(self, six_cubic):
        m = six_cubic.module
        assert m.order == 36
        assert m.invariant_factors == (6, 6)
        # companion action of the monic quadratic: 1 -> t, t -> -1 - t
        assert m.t_act((1, 0)) == (0, 1)
        assert m.t_act((0, 1)) == (5, 5)

    def test_dihedral_presentation(self):
        m = build(parse_ideal("12; t+1"))
        assert m.order == 12
        assert m.invariant_factors == (12,)
        assert m.t_act((5,)) == (7,)  # t acts as -1

    def test_saturation_collapse(self):
        # in the quotient t must be invertible; localizing Z_4 at 2 kills it
        assert saturated_order_oracle(4, -2 % 4) == 1
        assert build(parse_ideal("4; t+2")).order == 1

    def test_a_generator_quotient_down_to_rank_zero(self, monkeypatch):
        # t+1 gives Z_5 with t = -1, where t+2 is the unit 1; the kernel chain
        # and the inverse action then run on rank 0
        ranks = []
        for name in ("_stable_kernel_lattice", "_invert_action"):
            def recorded(t_rows, mods, inner=getattr(tmodule, name)):
                ranks.append(len(mods))
                return inner(t_rows, mods)
            monkeypatch.setattr(tmodule, name, recorded)
        m = build(parse_ideal("5; t+1; t+2"))
        assert ranks == [0, 0]
        assert (m.order, m.invariant_factors, m.t_matrix, m.eval_modulus) == (1, (), (), 1)

    def test_partial_saturation(self):
        # oracle: Z_12 localized at t = -2 keeps only the 3-part
        assert saturated_order_oracle(12, (-2) % 12) == 3
        m = build(parse_ideal("12; t+2"))
        assert m.order == 3

    def test_flip_keeps_the_designated_action_faithful(self):
        # 2t = -1 mod 10 forces 5 into the ideal, and then t = -3^-1... hand
        # reduction: over Z_5, t = -2^-1 = -3 = 2
        m = build(parse_ideal("10; 2t+1"))
        assert m.order == 5
        assert m.t_act((1,)) == (2,)
        assert m.t_inverse_matrix == ((3,),)  # 2 * 3 = 1 mod 5
        assert m.reduce_poly(LaurentPoly.t(-1)) == (3,)
        assert not m.labels_are_polynomials

    def test_flip_collapse(self):
        # 2t = -1 mod 12 forces 6, then 3, into the ideal; over Z_3 t = 1
        m = build(parse_ideal("12; 2t+1"))
        assert m.order == 3
        assert m.t_act((1,)) == (1,)

    def test_flipped_quandle_matches_hand_reduction(self):
        from quandles import alexander_quandle, find_isomorphism

        q = alexander_quandle(build(parse_ideal("10; 2t+1"))).quandle
        reduced = alexander_quandle(build(parse_ideal("5; t+3"))).quandle
        assert q.table == reduced.table
        # the mirrored misreading (t acting as 3) is a different quandle
        mirrored = alexander_quandle(build(parse_ideal("5; t+2"))).quandle
        assert find_isomorphism(q, mirrored) is None

    def test_unit_everywhere_collapses_to_zero_ring(self):
        # (2t+1)(1-2t) = 1 - 4t^2 is 1 mod 4
        assert build(parse_ideal("4; 2t+1")).order == 1

    def test_unsupported(self):
        with pytest.raises(UnsupportedPresentation):
            build(parse_ideal("4; 2t+2"))
        with pytest.raises(UnsupportedPresentation):
            build(IdealPresentation(6))  # Z_6[t, 1/t] is infinite

    def test_modulus_one_is_trivial(self):
        m = build(IdealPresentation(1))
        assert m.order == 1
        assert m.elements() == [()]
        assert m.label(()) == "0"


class TestElements:
    def test_trivial(self):
        assert build(IdealPresentation(1)).elements() == [()]

    def test_mixed_radix_order(self):
        m = build(parse_ideal("2; t^2+1"))
        assert m.invariant_factors == (2, 2)
        assert m.elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_index_zero_is_zero(self, six_cubic):
        for module in (six_cubic.module, build(parse_ideal("12; t+1"))):
            assert module.elements()[0] == module.zero()

    def test_six_cubic_labels(self, six_cubic):
        labels = set(six_cubic.module.labels())
        assert len(labels) == 36
        for expected in ("0", "3", "3t", "1+2t", "2+t", "5+4t"):
            assert expected in labels


class TestOperations:
    def test_t_on_zero(self, six_cubic):
        m = six_cubic.module
        assert m.t_act(m.zero()) == m.zero()

    def test_t_bijective(self, six_cubic):
        m = six_cubic.module
        elems = m.elements()
        images = {m.t_act(x) for x in elems}
        assert len(images) == len(elems)
        # the labels are polynomials, so t x is the polynomial of t_act(x),
        # and reduce_poly takes t^-1 of it through t_inverse_matrix
        assert m.labels_are_polynomials
        for x in elems:
            tx = LaurentPoly(dict(enumerate(m.t_act(x))))
            assert m.reduce_poly(tx * LaurentPoly.t(-1)) == x

    def test_eval_class_zero_element(self, six_cubic):
        m = six_cubic.module
        assert m.eval_one_class(m.zero()) == 0

    def test_eval_class_examples(self, six_cubic):
        m = six_cubic.module
        assert m.eval_modulus == 3
        assert m.eval_one_class((1, 2)) == 0  # 1+2t
        assert m.eval_one_class((2, 1)) == 0  # 2+t

    def test_eval_class_additive_and_t_invariant(self, six_cubic):
        m = six_cubic.module
        elems = m.elements()
        rng = random.Random(6)
        for _ in range(300):
            x, y = rng.choice(elems), rng.choice(elems)
            assert m.eval_one_class(m.add(x, y)) == \
                (m.eval_one_class(x) + m.eval_one_class(y)) % m.eval_modulus
            assert m.eval_one_class(m.t_act(x)) == m.eval_one_class(x)

    @pytest.mark.parametrize("text,order", [
        ("1; t+1", 1), ("2; t+1", 1), ("7; t+3", 3), ("7; t+4", 6),
    ])
    def test_t_order(self, text, order):
        # t acts as -3 = 4 and -4 = 3 mod 7, of multiplicative orders 3 and 6
        assert build(parse_ideal(text)).t_order == order

    def test_t_order_of_a_rank_two_module(self, six_cubic):
        m = six_cubic.module
        # t^3 - 1 = (t - 1)(t^2 + t + 1) vanishes, and t itself is no identity
        assert m.t_order == 3
        assert all(m.t_act(m.t_act(m.t_act(x))) == x for x in m.elements())


def inverse_by_search(m):
    """T^-1 found without intmat: column j is the element x with
    t_act(x) == e_j, found among all elements."""
    preimage = {m.t_act(x): x for x in m.elements()}
    basis = [tuple(int(i == j) % d for i, d in enumerate(m.invariant_factors))
             for j in range(m.rank)]
    cols = [preimage[e] for e in basis]
    return tuple(tuple(col[i] for col in cols) for i in range(m.rank))


class TestInverseAction:
    # flipped, flipped in rank 2, and saturated (t = -2 on Z_6 kills 3)
    @pytest.mark.parametrize("text, flipped, factors", [
        ("6; 2t+1", True, (3,)), ("12; 3t^2+2t+1", True, (4, 12)), ("6; t+2", False, (3,)),
    ])
    def test_flipped_and_saturated_match_the_search(self, text, flipped, factors):
        m = build(parse_ideal(text))
        assert (m._flipped, m.invariant_factors) == (flipped, factors)
        assert m.t_inverse_matrix == inverse_by_search(m)

    def test_seeded_modules_match_the_search(self):
        rng = random.Random(29)
        modules = [draw(rng, max_order=200) for _ in range(40)
                   for draw in (random_index_module, _random_module)]
        assert {m.rank for m in modules} >= {1, 2, 3}
        for m in modules:
            assert m.t_inverse_matrix == inverse_by_search(m), m.descriptor()

    def test_a_non_invertible_action_is_refused(self):
        # t = 2 on Z_4 is not onto: the Smith form of [2 | 4] is [2 | 0]
        with pytest.raises(ArithmeticError, match="does not act invertibly"):
            _invert_action([[2]], [4])


def image_of_one_minus_t(m):
    """(1 - t)M as the component of 0, in enumeration order."""
    elems = m.elements()
    return [elems[i] for i in alexander_components(m).block_of(0)]


class TestOneMinusTImage:
    def test_trivial(self):
        m = build(IdealPresentation(1))
        assert image_of_one_minus_t(m) == [()]

    def test_six_cubic_matches_class_zero(self, six_cubic):
        m = six_cubic.module
        image = image_of_one_minus_t(m)
        assert len(image) == 12
        class_zero = [x for x in m.elements() if m.eval_one_class(x) == 0]
        assert image == class_zero

    def test_dihedral_even_residues(self):
        m = build(parse_ideal("12; t+1"))
        assert image_of_one_minus_t(m) == [(r,) for r in range(0, 12, 2)]


INDEX_MODULES = ("1; t+1", "7; t+3", "9; t^2+1; 3t", "10; t^3+t+1")


class TestIndexSpace:
    """coordinate_columns and translate against the tuple operations."""

    @pytest.mark.parametrize("text", INDEX_MODULES)
    def test_columns_are_the_images_of_the_elements(self, text):
        m = build(parse_ideal(text))
        elems = m.elements()
        one_minus_t = [m.add(x, m.neg(m.t_act(x))) for x in elems]
        for rows, images in ((None, elems), (m.t_matrix, [m.t_act(x) for x in elems]),
                             (m.one_minus_t_rows(), one_minus_t)):
            cols = m.coordinate_columns(rows)
            assert len(cols) == m.rank
            assert all(len(col) == m.order for col in cols)
            assert list(zip(*cols)) == (images if m.rank else [])

    @pytest.mark.parametrize("text", INDEX_MODULES)
    def test_translate_spot_rows(self, text):
        m = build(parse_ideal(text))
        elems = m.elements()
        index = {x: i for i, x in enumerate(elems)}
        delta = m.coordinate_columns(m.one_minus_t_rows())
        tcols = m.coordinate_columns(m.t_matrix)
        rng = random.Random(8)
        for a in sorted(rng.sample(range(m.order), min(m.order, 12))) + [0, m.order - 1]:
            ta = tuple(col[a] for col in tcols)
            assert ta == m.t_act(elems[a])
            expected = [index[m.add(ta, m.add(b, m.neg(m.t_act(b))))] for b in elems]
            assert m.translate(ta, delta) == expected

    @pytest.mark.parametrize("text", INDEX_MODULES)
    def test_translate_a_subset(self, text):
        m = build(parse_ideal(text))
        elems = m.elements()
        index = {x: i for i, x in enumerate(elems)}
        coords = m.coordinate_columns()
        rng = random.Random(9)
        subset = rng.sample(range(m.order), min(m.order, 20))
        sub = [[col[h] for h in subset] for col in coords]
        for x in rng.sample(elems, min(m.order, 5)):
            assert m.translate(x, sub) == (
                [index[m.add(x, elems[h])] for h in subset] if m.rank else [0])


    def test_translated_indices_share_one_int_per_element(self):
        # n^2 table cells should hold n int objects, as dict lookups would
        m = build(parse_ideal("10; t^3+t+1"))
        delta = m.coordinate_columns(m.one_minus_t_rows())
        cells = [v for x in m.elements()[::97] for v in m.translate(x, delta)]
        assert len({id(v) for v in cells}) == len(set(cells)) == m.order


class TestPipelineSoundness:
    def test_single_monic_generator_with_unit_constant(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 9)
            deg = rng.randint(1, 3)
            units = [u for u in range(1, n) if math.gcd(u, n) == 1]
            coeffs = {deg: 1, 0: rng.choice(units)}
            for e in range(1, deg):
                coeffs[e] = rng.randint(0, n - 1)
            m = build(IdealPresentation(n, (LaurentPoly(coeffs),)))
            assert m.order == n ** deg
            assert m.labels_are_polynomials
            assert m.invariant_factors == (n,) * deg


class TestReducePoly:
    def test_generators_vanish(self, six_cubic):
        m = six_cubic.module
        for g in m.presentation.generators():
            assert m.reduce_poly(g) == m.zero()

    def test_negative_exponents(self, six_cubic):
        m = six_cubic.module
        f = parse_poly("t^-1")
        # t * (image of 1/t) must be the image of 1
        assert m.t_act(m.reduce_poly(f)) == m.reduce_poly(LaurentPoly.const(1))

    def test_additive(self, six_cubic):
        m = six_cubic.module
        f, g = parse_poly("1+2t"), parse_poly("3+t^2")
        assert m.reduce_poly(f + g) == m.add(m.reduce_poly(f), m.reduce_poly(g))

    def test_flipped_module_reduction(self):
        m = build(parse_ideal("10; 2t+1"))
        assert m.reduce_poly(parse_poly("2t+1")) == m.zero()
        assert m.reduce_poly(LaurentPoly.const(5)) == m.zero()

    @pytest.mark.parametrize("text,flipped", [
        ("10; 2t+1", True),
        ("12; 3t^2+2t+1", True),
        ("7; t^2+t+1", False),
        ("9; t^2+3; 3t+3", False),
    ])
    def test_huge_exponents_reduce_through_the_order_of_t(self, text, flipped):
        # t^N 1 == t^(N mod t_order) 1, with N far past any per-unit walk
        m = build(parse_ideal(text))
        assert m._flipped == flipped
        for big in (10 ** 18, -10 ** 18, 3 * 10 ** 20 + 2):
            assert m.reduce_poly(LaurentPoly.t(big)) == m.reduce_poly(LaurentPoly.t(big % m.t_order))


def linear_reduction(coeffs, gvec, n):
    """Reference reduction mod the monic g over Z_n: clear the top exponent
    one step at a time, in a list as long as the largest exponent."""
    deg = len(gvec)
    c = [0] * (max(coeffs) + 1)
    for e, v in coeffs.items():
        c[e] = v % n
    for e in range(len(c) - 1, deg - 1, -1):
        v, c[e] = c[e], 0
        for j in range(deg):
            c[e - deg + j] = (c[e - deg + j] - v * gvec[j]) % n
    return (c + [0] * deg)[:deg]


class TestReduceModMonic:
    def test_square_and_multiply_matches_the_linear_reduction(self):
        # build maps a further generator to the sum of c C^e e_0, with C the
        # companion matrix of the monic pick
        rng = random.Random(60)
        for _ in range(600):
            n, deg = rng.randint(2, 60), rng.randint(0, 5)
            gvec = [rng.randrange(n) for _ in range(deg)]
            coeffs = {rng.randint(0, 60): rng.randint(-100, 100)
                      for _ in range(rng.randint(1, 4))}
            comp, e0 = _companion(gvec, n), [int(i == 0) for i in range(deg)]
            out = [0] * deg
            for e, c in coeffs.items():
                out = [(o + c * x) % n for o, x in zip(out, _power_times(comp, e, e0, [n] * deg))]
            assert out == linear_reduction(coeffs, gvec, n)

    def test_a_huge_exponent_reduces_by_its_bits(self):
        # t^3 = 1 mod (7, t^2+t+1), so the second generator is t^2 + 3 = 2 - t
        m = build(parse_ideal(f"7; t^2+t+1; t^{3 * 10 ** 20 + 2}+3"))
        assert m.order == 7 and m.reduce_poly(parse_poly("t-2")) == m.zero()


BUILD_GRID_MODULI = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 18, 20, 24, 30, 36, 60, 90)


def build_grid():
    """3000 seeded presentations over the paths of build: monic and non-monic
    generators of degree 1-3, folded constants and fold cascades, flips,
    saturation, two generators, and in a quarter of the draws a further
    generator with an exponent up to 10^18."""
    rng = random.Random(34)
    grid = [parse_ideal(text) for text in (
        "90; 15t+30; 6; t+1", "12; 4t+6; 3", "60; 10t+15; 4; t^2+t+1",
        "10; 2t+1", "12; 3t^2+2t+1", "12; t+2", "4; 2t+2",
        "5; t+1; t^1000000000000000000+2", "10; 2t+1; 2t^1000000000001+t^1000000000000+2t+1")]
    while len(grid) < 3000:
        n = rng.choice(BUILD_GRID_MODULI)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        further = rng.randrange(4) == 0
        polys = []
        for _ in range(1 + (rng.randrange(5) < 2)):
            scale = rng.choice(divisors) if rng.randrange(3) == 0 else 1
            deg = rng.randint(1, 3)
            coeffs = {e: scale * rng.randrange(-n, 2 * n) for e in range(deg + 1)}
            if further and not polys:
                # a unit leads a generator of degree at most 3, so the
                # further generator below is never the pick
                coeffs[deg] = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
            polys.append(LaurentPoly(coeffs))
        if rng.randrange(5) == 0:
            polys.append(LaurentPoly.t(rng.randint(0, 2), rng.choice(divisors) * rng.randint(1, 3)))
        if further:
            polys.append(LaurentPoly({rng.randint(1, 10 ** rng.randint(1, 18)): rng.randint(1, n),
                                      0: rng.randrange(n)}))
        rng.shuffle(polys)
        grid.append(IdealPresentation(n, tuple(polys)))
    return grid


def build_fingerprint(pres):
    try:
        m = build(pres)
    except UnsupportedPresentation:
        return repr((pres.descriptor(), "unsupported"))
    return repr((m.descriptor(), m.invariant_factors, m.t_matrix, m.t_inverse_matrix,
                 m.eval_vector, m.reduce_poly(LaurentPoly.const(1)), m.labels_are_polynomials,
                 m.labels() if m.order <= 4096 else None))


class TestBuildBytes:
    def test_the_build_grid_hashes_as_pinned(self):
        # any change to a coordinate, a matrix or a label of a build shows here
        text = "\n".join(map(build_fingerprint, build_grid()))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5000d59865c2b4522ec26efa72e97c08b530519fb13839607a18aae5e61b96eb")

    def test_the_build_grid_covers_every_path(self):
        built = []
        for pres in build_grid():
            try:
                built.append(build(pres))
            except UnsupportedPresentation:
                pass
        assert 500 < len(built) < 3000
        assert any(m._flipped for m in built)
        assert {m.rank for m in built} == {0, 1, 2, 3}
        assert {m.labels_are_polynomials for m in built} == {False, True}


def sequential_fold(n, polys):
    """Reference fold, one generator at a time on coefficient dicts: reduce
    mod the current n, shift to exponent 0, fold a constant into n at once,
    and repeat the pass until n stops falling."""
    work = [dict(f.terms()) for f in polys]
    while True:
        n0 = n
        reduced = []
        for d in work:
            d = {e: c % n for e, c in d.items() if c % n}
            if not d:
                continue
            lo = min(d)
            d = {e - lo: c for e, c in d.items()}
            if max(d) == 0:
                n = math.gcd(n, d[0])
            else:
                reduced.append(d)
        work = reduced
        if n == 1:
            return 1, []
        if n == n0:
            return n, work


class TestFoldConstants:
    @pytest.mark.parametrize("text, folded", [
        # 6 folds n to 6, then 15t+30 = 3t mod 6 folds it to 3
        ("90; 15t+30; 6; t+1", "3; 1+t"),
        ("12; 4t+6; 3", "1"),
        ("60; 10t+15; 4; t^2+t+1", "4; 3+2t; 1+t+t^2"),
    ])
    def test_cascades(self, text, folded):
        assert _fold_constants(parse_ideal(text)) == parse_ideal(folded)

    def test_a_cascade_builds_its_folded_quotient(self):
        m = build(parse_ideal("90; 15t+30; 6; t+1"))
        assert (m.order, m.labels()) == (3, ["0", "1", "2"])

    def test_seeded_presentations_fold_as_one_generator_at_a_time(self):
        rng = random.Random(3401)
        folds = 0
        for _ in range(20000):
            n = rng.choice((60, 72, 90, 120, 144, 180, 240, 360, 720))
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            polys = []
            for _ in range(rng.randint(1, 4)):
                scale = rng.choice(divisors)
                lo = rng.randint(-2, 2)
                polys.append(LaurentPoly({e: scale * rng.randint(-n, n)
                                          for e in range(lo, lo + rng.randint(1, 3))}))
            pres = IdealPresentation(n, tuple(polys))
            expected = sequential_fold(n, polys)
            folded = _fold_constants(pres)
            assert (folded.modulus, [dict(f.terms()) for f in folded.polys]) == expected, pres
            folds += folded.modulus < n
        assert folds > 5000


class TestQuotientStructure:
    def sample_presentations(self):
        rng = random.Random(40)
        out = [
            parse_ideal("6; t^2+t+1"),
            parse_ideal("12; t+2"),
            parse_ideal("10; 2t+1"),
            parse_ideal("8; t^2+2t+3"),
            parse_ideal("9; t^2+3; 3t+3"),
            parse_ideal("6; t^3+t+1"),
        ]
        for _ in range(30):
            n = rng.randint(2, 10)
            deg = rng.randint(1, 2)
            coeffs = {deg: rng.randint(1, n - 1) if n > 2 else 1}
            for e in range(deg):
                coeffs[e] = rng.randint(0, n - 1)
            try:
                p = IdealPresentation(n, (LaurentPoly(coeffs),))
                build(p)
            except UnsupportedPresentation:
                continue
            out.append(p)
        return out

    def test_monomial_images_span_the_module(self):
        # the quotient map is onto: sums of images of t^k fill the module
        for pres in self.sample_presentations():
            m = build(pres)
            gens = {m.reduce_poly(LaurentPoly.t(k)) for k in range(8)}
            span = {m.zero()}
            frontier = [m.zero()]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = m.add(x, g)
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
            assert len(span) == m.order, pres.descriptor()

    def test_reduction_intertwines_t(self):
        rng = random.Random(41)
        for pres in self.sample_presentations():
            m = build(pres)
            for _ in range(10):
                f = LaurentPoly({e: rng.randint(-9, 9)
                                 for e in range(rng.randint(-2, 0), rng.randint(1, 4))})
                assert m.reduce_poly(f * LaurentPoly.t()) == m.t_act(m.reduce_poly(f))
                assert m.t_act(m.reduce_poly(f * LaurentPoly.t(-1))) == m.reduce_poly(f)

    def test_reduction_additive(self):
        rng = random.Random(42)
        for pres in self.sample_presentations():
            m = build(pres)
            for _ in range(10):
                f = LaurentPoly({e: rng.randint(-9, 9) for e in range(-2, 3)})
                g = LaurentPoly({e: rng.randint(-9, 9) for e in range(-1, 4)})
                assert m.reduce_poly(f + g) == m.add(m.reduce_poly(f), m.reduce_poly(g))


def brute_quotient_quandle(pres):
    """Enumeration-only realization of the quotient quandle, for cross checks.

    Starts from Z_n^d with the companion action of a monic generator (scaled
    by a unit), quotients by the additive closure of the translated extra
    generators, and saturates by restricting to the image of a high power of
    t.  No normal-form code is involved anywhere.  Needs a generator with a
    unit leading coefficient as given (no variable flip).
    """
    import itertools

    from quandles import FiniteQuandle

    n = pres.modulus
    polys = [dict(f.terms()) for f in pres.polys]
    pick = next(i for i, d in enumerate(polys) if math.gcd(d[max(d)], n) == 1)
    g = polys[pick]
    deg = max(g)
    if deg == 0:
        return FiniteQuandle([[0]])  # a unit constant collapses the quotient
    unit = pow(g[deg], -1, n)
    glow = [(g.get(e, 0) * unit) % n for e in range(deg)]

    def t_apply(vec):
        lead = vec[deg - 1]
        out = [(-lead * glow[0]) % n]
        for i in range(1, deg):
            out.append((vec[i - 1] - lead * glow[i]) % n)
        return tuple(out)

    def embed(d):
        vec = [0] * deg
        gen = tuple(1 if i == 0 else 0 for i in range(deg))
        for e in sorted(d):
            img = gen
            for _ in range(e):
                img = t_apply(img)
            vec = [(a + d[e] * b) % n for a, b in zip(vec, img)]
        return tuple(vec)

    # additive closure of the extra generators under translation by t
    seeds = []
    for i, h in enumerate(polys):
        if i == pick:
            continue
        img = embed(h)
        for _ in range(deg):
            seeds.append(img)
            img = t_apply(img)
    closure = {tuple([0] * deg)}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for s in seeds:
            y = tuple((a + b) % n for a, b in zip(x, s))
            if y not in closure:
                closure.add(y)
                frontier.append(y)

    def rep(vec):
        return min(tuple((a + b) % n for a, b in zip(vec, h)) for h in closure)

    cosets = sorted({rep(v) for v in itertools.product(range(n), repeat=deg)})
    # saturate: restrict to the image of a high power of t
    image = set(cosets)
    for _ in range(deg * n.bit_length() + 4):
        image = {rep(t_apply(v)) for v in image}
    elems = sorted(image)
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for x in elems:
        tx = rep(t_apply(x))
        row = []
        for y in elems:
            ty = rep(t_apply(y))
            row.append(index[rep(tuple((a + b - c) % n
                                       for a, b, c in zip(tx, y, ty)))])
        table.append(row)
    return FiniteQuandle(table)


class TestAgainstEnumerationOracle:
    def test_pipeline_matches_brute_force(self):
        from quandles import alexander_quandle, find_isomorphism

        rng = random.Random(50)
        cases = [
            parse_ideal("6; t^2+t+1"),
            parse_ideal("12; t+2"),
            parse_ideal("4; t+2"),
            parse_ideal("6; t^2+t+1; 2t+4"),
            parse_ideal("9; t^2+3; 3t+3"),
            parse_ideal("8; t^2+2t+2"),
        ]
        while len(cases) < 30:
            n = rng.randint(2, 8)
            deg = rng.randint(1, 2)
            coeffs = {deg: 1}
            for e in range(deg):
                coeffs[e] = rng.randint(0, n - 1)
            polys = [LaurentPoly(coeffs)]
            if rng.randrange(2):
                polys.append(LaurentPoly({0: rng.randint(0, n - 1),
                                          1: rng.randint(0, n - 1)}))
            pres = IdealPresentation(n, tuple(polys))
            if not pres.polys:
                continue
            degrees = [f.max_exp for f in pres.polys]
            has_unit_lead = any(
                math.gcd(f.coeff(f.max_exp), n) == 1 for f in pres.polys)
            if has_unit_lead and n ** max(degrees) <= 256:
                cases.append(pres)
        for pres in cases:
            oracle = brute_quotient_quandle(pres)
            built = alexander_quandle(build(pres)).quandle
            assert built.size == oracle.size, pres.descriptor()
            assert find_isomorphism(built, oracle) is not None, pres.descriptor()


class TestIdealEquality:
    def test_reordered_generators(self):
        assert ideals_equal(parse_ideal("6; t^2+t+1; 2t+4"),
                            parse_ideal("6; 2t+4; t^2+t+1"))

    def test_redundant_generator(self):
        assert ideals_equal(parse_ideal("12; t+1"), parse_ideal("12; t+1; 3t+3"))

    def test_distinct_ideals(self):
        assert not ideals_equal(parse_ideal("6; t+1"), parse_ideal("6; t+5"))

    def test_reflexive(self):
        p = parse_ideal("6; t^2+t+1")
        assert ideals_equal(p, p)

    def test_redundant_generator_of_huge_degree_on_a_flipped_module(self):
        # 2t^(k+1) + t^k == t^k (2t + 1), so the ideal is unchanged
        k = 10 ** 12
        assert ideals_equal(parse_ideal("10; 2t+1"),
                            parse_ideal(f"10; 2t+1; 2t^{k + 1}+t^{k}+2t+1"))


class TestParseIdeal:
    def test_basic(self):
        p = parse_ideal("6; t^2+t+1")
        assert p.modulus == 6
        assert len(p.polys) == 1

    def test_dihedral(self):
        p = parse_ideal("12; t+1")
        assert p.modulus == 12
        assert p.polys[0] == parse_poly("1+t")

    def test_three_generators(self):
        p = parse_ideal("6; t^2+t+1; 2*t+4")
        assert p.modulus == 6
        assert len(p.polys) == 2

    def test_descriptor_round_trip(self):
        for text in ("6; t^2+t+1", "12; t+1", "6; t^2+t+1; 2*t+4", "1"):
            p = parse_ideal(text)
            assert parse_ideal(p.descriptor()) == p

    def test_seeded_descriptor_round_trip(self):
        rng = random.Random(13)
        for _ in range(500):
            polys = [LaurentPoly({e: rng.randint(-10 ** 6, 10 ** 6)
                                  for e in range(rng.randint(-4, 0), rng.randint(0, 4) + 1)})
                     for _ in range(rng.randint(0, 4))]
            p = IdealPresentation(rng.randint(1, 10 ** 6), tuple(polys))
            assert parse_ideal(p.descriptor()) == p, p

    @pytest.mark.parametrize("text", ["", "x; t", "0; t+1", "-3; t", "6;", "6; ; t"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_ideal(text)

    def test_superscript_modulus_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("\u00b2; t+1")
        assert (err.value.message, err.value.position) == ("expected an integer modulus", 0)

    @pytest.mark.parametrize("head", ["--5", "+-5", "-+5", "++5"])
    def test_a_modulus_with_two_signs_is_a_parse_error(self, head):
        # int() refuses a second sign, which once passed the digit test
        with pytest.raises(ParseError) as err:
            parse_ideal(f"{head}; t+1")
        assert (err.value.message, err.value.position) == ("expected an integer modulus", 0)

    def test_error_position_spans_segments(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("6; t^2+t+1; t^")
        assert err.value.position == len("6; t^2+t+1; t^")


class TestPresentationFromGenerators:
    def test_folds_constants(self):
        gens = [LaurentPoly.const(6), parse_poly("t^2+t+1"), parse_poly("2t+4")]
        p = presentation_from_generators(gens)
        assert p.modulus == 6
        assert len(p.polys) == 2

    def test_single_term_counts_as_integer(self):
        p = presentation_from_generators([LaurentPoly({3: 4}), LaurentPoly({0: 6})])
        assert p.modulus == 2

    def test_rejects_integer_free_list(self):
        with pytest.raises(UnsupportedPresentation):
            presentation_from_generators([parse_poly("t+1")])


class TestNormalization:
    def test_presentation_reduces_and_shifts(self):
        p = IdealPresentation(6, (parse_poly("8t^2 + 14t"),))
        # coefficients mod 6, then shifted down to exponent 0
        assert p.polys[0] == parse_poly("2+2t")

    def test_vanishing_generator_dropped(self):
        p = IdealPresentation(3, (parse_poly("3t + 6"),))
        assert p.polys == ()

    def test_eval_gcd_unchanged_by_normalization(self):
        raw = [parse_poly("8t^2+14t"), LaurentPoly.const(9)]
        p = IdealPresentation(6, tuple(raw))
        a = math.gcd(6, math.gcd(*[eval_one(f) for f in raw]))
        assert build(p).eval_modulus == a
