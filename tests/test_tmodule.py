import math
import random

import pytest

from quandles.laurent import LaurentPoly, ParseError, eval_one, parse_poly
from quandles.tmodule import (
    IdealPresentation,
    UnsupportedPresentation,
    build,
    ideals_equal,
    parse_ideal,
    presentation_from_generators,
)


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
        assert m.t_inv_act((2,)) == (1,)
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
        for x in elems:
            assert m.t_inv_act(m.t_act(x)) == x

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


class TestOneMinusTImage:
    def test_trivial(self):
        m = build(IdealPresentation(1))
        assert m.one_minus_t_image() == [()]

    def test_six_cubic_matches_class_zero(self, six_cubic):
        m = six_cubic.module
        image = m.one_minus_t_image()
        assert len(image) == 12
        class_zero = [x for x in m.elements() if m.eval_one_class(x) == 0]
        assert image == class_zero

    def test_dihedral_even_residues(self):
        m = build(parse_ideal("12; t+1"))
        assert m.one_minus_t_image() == [(r,) for r in range(0, 12, 2)]


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
                assert m.reduce_poly(f.shifted(-1)) == m.t_inv_act(m.reduce_poly(f))

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
