import hashlib
import math
import random

from quandles import (
    LaurentPoly,
    Partition,
    alexander_components,
    alexander_decomposition,
    alexander_quandle,
    build,
    check_axioms,
    component_ideal,
    connected_components,
    dihedral,
    find_isomorphism,
    gcd_chain,
    ideals_equal,
    is_connected,
    maximal_decomposition,
    orbit_count,
    parse_ideal,
    parse_poly,
    presentation_from_generators,
    subquandle,
    type_of,
)
from quandles.tmodule import IdealPresentation
from quandles.verify import (PROPERTY_CASES, _random_module, random_index_module,
                             reference_one_minus_t_image, transports)

NAMED_MODULES = ("1; t+1", "6; t^2+t+1", "64; t+1", "10; t^3+t+1", "12; t+5",
                 "6; 2t+4; t^2+t+1", "8; t^2+1; 2t+2", "4; t+2",
                 "8; t^2+3", "16; t+3", "32; t^2+t+2")


def _tower_grid():
    """Named presentations, (n0; t+a) on a small grid and seeded random modules."""
    modules = [build(parse_ideal(text)) for text in NAMED_MODULES]
    modules += [build(IdealPresentation(n0, (LaurentPoly({0: a, 1: 1}),)))
                for n0 in range(1, 25, 3) for a in range(-4, 5)]
    rng = random.Random(2024)
    modules += [_random_module(rng, max_order=100) for _ in range(60)]
    return modules


class TestAlexanderQuandle:
    def test_dihedral_three_table(self):
        q = alexander_quandle(build(parse_ideal("3; t+1"))).quandle
        for a in range(3):
            for b in range(3):
                assert q.table[a][b] == (2 * b - a) % 3

    def test_tetrahedral(self, tetrahedral):
        assert tetrahedral.quandle.size == 4
        assert is_connected(tetrahedral.quandle)
        assert check_axioms(tetrahedral.quandle) is None

    def test_singleton(self):
        q = alexander_quandle(build(parse_ideal("1; t+7"))).quandle
        assert q.size == 1

    def test_operation_matches_module(self, six_cubic):
        m = six_cubic.module
        q = six_cubic.quandle
        elems = m.elements()
        rng = random.Random(20)
        for _ in range(200):
            i, j = rng.randrange(36), rng.randrange(36)
            expected = m.add(m.t_act(elems[i]),
                             m.add(elems[j], m.neg(m.t_act(elems[j]))))
            assert elems[q.table[i][j]] == expected


class TestOrbitCount:
    def test_six_cubic(self):
        assert orbit_count([parse_poly("6"), parse_poly("t^2+t+1")]) == 3

    def test_even_dihedral(self):
        assert orbit_count([parse_poly("6"), parse_poly("t+1")]) == 2

    def test_connected(self):
        assert orbit_count([parse_poly("t^2+t-1")]) == 1

    def test_symbolic_zero(self):
        assert orbit_count([parse_poly("1-t")]) == 0


class TestComponentIdeal:
    def test_six_cubic_matches_explicit_presentation(self):
        result = component_ideal([parse_poly("6"), parse_poly("t^2+t+1")])
        assert result.orbit_count == 3
        derived = presentation_from_generators(result.generators)
        assert ideals_equal(derived, parse_ideal("6; 2t+4; t^2+t+1"))
        assert build(derived).order == 12

    def test_linear_case_closed_form(self):
        # oracle: components of (m; t+a) present as (m/gcd(m, 1+a); t+a)
        rng = random.Random(21)
        for _ in range(40):
            m = rng.randint(1, 20)
            a = rng.randint(-6, 6)
            result = component_ideal([LaurentPoly.const(m), parse_poly(f"t+{a}") if a >= 0
                                      else parse_poly(f"t{a}")])
            n = m // math.gcd(m, 1 + a)
            derived = presentation_from_generators(result.generators)
            target = IdealPresentation(n if n else m, (LaurentPoly({0: a, 1: 1}),))
            assert ideals_equal(derived, target)

    def test_whole_ring(self):
        result = component_ideal([parse_poly("1-t")])
        # the split part is 1 and the single value 0 has the full syzygy line
        assert any(f == LaurentPoly.const(1) for f in result.generators)
        assert build(presentation_from_generators(result.generators)).order == 1

    def test_note_for_linear_shape(self):
        result = component_ideal([LaurentPoly.const(12), parse_poly("t+1")])
        assert result.note == "ideal equals (6; 1+t)"


def translation_map(aq, a):
    """The translation x -> x + a from the component of 0 onto the component
    of a, checked to be an isomorphism of the two subquandles."""
    module = aq.module
    elems = module.elements()
    index = {e: i for i, e in enumerate(elems)}
    comps = connected_components(aq.quandle)
    orb0 = comps.block_of(index[module.zero()])
    target = comps.block_of(index[a])
    phi = {elems[i]: module.add(elems[i], a) for i in orb0}
    assert sorted(index[y] for y in phi.values()) == list(target)
    # subquandle numbers a block's elements in sorted order
    position = {x: k for k, x in enumerate(target)}
    moved = [position[index[phi[elems[i]]]] for i in orb0]
    assert transports(moved, subquandle(aq.quandle, orb0), subquandle(aq.quandle, target))
    return phi


class TestTranslationIso:
    def test_identity_translation(self, six_cubic):
        phi = translation_map(six_cubic, six_cubic.module.zero())
        assert all(x == y for x, y in phi.items())

    def test_six_cubic_onto_orbit_one(self, six_cubic):
        m = six_cubic.module
        one = m.reduce_poly(LaurentPoly.const(1))
        phi = translation_map(six_cubic, one)
        assert len(phi) == 12
        assert {m.eval_one_class(v) for v in phi.values()} == {1}

    def test_dihedral_shift(self):
        aq = dihedral(6)
        one = (1,)
        phi = translation_map(aq, one)
        assert sorted(phi) == [(0,), (2,), (4,)]
        assert sorted(phi.values()) == [(1,), (3,), (5,)]


class TestGcdChain:
    def test_twelve_one(self):
        # oracle below: brute-force decomposition of the order-12 quandle
        result = gcd_chain(12, 1)
        assert (result.depth, result.block_count, result.block_modulus) == (2, 4, 3)
        assert result.chain == (12, 6, 3)

    def test_nine_two(self):
        result = gcd_chain(9, 2)
        assert (result.depth, result.block_count, result.block_modulus) == (2, 9, 1)

    def test_coprime_is_connected(self):
        for n0, a in ((5, 1), (9, 5), (7, 0)):
            if math.gcd(n0, 1 + a) == 1:
                result = gcd_chain(n0, a)
                assert (result.depth, result.block_count) == (0, 1)

    def test_block_count_is_the_product_of_the_gcds(self):
        for n0 in range(1, 301):
            for a in range(-30, 31):
                # reference: divide out gcd(n_i, 1 + a) one step at a time
                n, product = n0, 1
                while math.gcd(n, 1 + a) != 1:
                    product *= math.gcd(n, 1 + a)
                    n //= math.gcd(n, 1 + a)
                result = gcd_chain(n0, a)
                assert (result.block_count, result.block_modulus) == (product, n), (n0, a)

    def test_against_brute_force_samples(self):
        rng = random.Random(22)
        for _ in range(30):
            n0 = rng.randint(1, 24)
            a = rng.randint(-6, 6)
            formula = gcd_chain(n0, a)
            aq = alexander_quandle(build(IdealPresentation(n0, (LaurentPoly({0: a, 1: 1}),))))
            dec = maximal_decomposition(aq.quandle)
            assert len(dec.final) == formula.block_count
            assert dec.depth == formula.depth
            ref = alexander_quandle(
                build(IdealPresentation(formula.block_modulus, (LaurentPoly({0: a, 1: 1}),)))
            ).quandle
            for block in dec.final:
                assert find_isomorphism(subquandle(aq.quandle, block), ref) is not None


class TestDihedral:
    def test_singleton(self):
        assert dihedral(1).quandle.size == 1

    def test_three(self):
        q = dihedral(3).quandle
        assert is_connected(q)
        assert type_of(q) == 2

    def test_six_components(self):
        q = dihedral(6).quandle
        assert connected_components(q) == ((0, 2, 4), (1, 3, 5))

    def test_table_is_reflection(self):
        for m in (2, 5, 9):
            q = dihedral(m).quandle
            for a in range(m):
                for b in range(m):
                    assert q.table[a][b] == (2 * b - a) % m


class TestCrossChecks:
    def test_components_equal_eval_classes(self, six_cubic):
        m = six_cubic.module
        elems = m.elements()
        comps = connected_components(six_cubic.quandle)
        for block in comps:
            classes = {m.eval_one_class(elems[i]) for i in block}
            assert len(classes) == 1

    def test_component_of_zero_is_one_minus_t_image(self, six_cubic):
        m = six_cubic.module
        elems = m.elements()
        comp0 = connected_components(six_cubic.quandle).block_of(0)
        assert sorted(elems[i] for i in comp0) == reference_one_minus_t_image(m)

    def test_even_dihedral_components_are_half_dihedral(self):
        for m in (4, 6, 10, 14, 24):
            aq = dihedral(m)
            ref = dihedral(m // 2).quandle
            for block in connected_components(aq.quandle):
                assert find_isomorphism(subquandle(aq.quandle, block), ref) is not None

    def test_final_blocks_pairwise_isomorphic(self, six_cubic):
        dec = maximal_decomposition(six_cubic.quandle)
        pieces = [subquandle(six_cubic.quandle, b) for b in dec.final]
        for other in pieces[1:]:
            assert find_isomorphism(pieces[0], other) is not None

    def test_components_match_component_ideal_quotient_randomized(self):
        from quandles import UnsupportedPresentation

        rng = random.Random(23)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 12)
            deg = rng.randint(1, 2)
            coeffs = {deg: 1}
            for e in range(deg):
                coeffs[e] = rng.randint(-4, 4)
            pres = IdealPresentation(n, (LaurentPoly(coeffs),))
            module = build(pres)
            if module.order > 36 or module.order == 0:
                continue
            result = component_ideal(list(pres.generators()))
            try:
                piece_pres = presentation_from_generators(result.generators)
                piece = alexander_quandle(build(piece_pres)).quandle
            except UnsupportedPresentation:
                continue
            aq = alexander_quandle(module)
            for block in connected_components(aq.quandle):
                assert find_isomorphism(subquandle(aq.quandle, block),
                                        piece) is not None, pres.descriptor()
            checked += 1


class TestAlexanderDecomposition:
    def test_the_towers_and_components_hash_as_pinned(self):
        # any change to a level, a block or a depth of a tower or of its components shows here
        rng = random.Random(3917)
        modules = _tower_grid() + [random_index_module(rng) for _ in range(1000)]
        text = "\n".join(repr((alexander_decomposition(module).to_json(),
                                alexander_components(module).to_json())) for module in modules)
        assert {module.rank for module in modules} == {0, 1, 2, 3}
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "be895d13e78c9cc9a276a2c8aa962c4662e45bd16fbf32cdf5a994a7081b4aff")

    def test_matches_table_refinement(self):
        for module in _tower_grid():
            expected = maximal_decomposition(alexander_quandle(module).quandle)
            assert alexander_decomposition(module) == expected, module

    def test_components_count_is_eval_modulus(self):
        for module in _tower_grid():
            assert len(alexander_decomposition(module).levels[1]) == module.eval_modulus, module

    def test_components_are_the_first_level(self):
        for module in _tower_grid():
            comps = alexander_components(module)
            assert comps == alexander_decomposition(module).levels[1], module
            assert comps == connected_components(alexander_quandle(module).quandle), module

    def test_components_of_a_deep_tower(self):
        # a depth-9 tower of up to 512 blocks, of which level 1 has 2
        module = build(parse_ideal("8; t^3+3t^2+5t+5"))
        assert alexander_decomposition(module).depth == 9
        assert alexander_components(module).sizes() == (256, 256)

    def test_trivial_module_has_depth_zero(self):
        dec = alexander_decomposition(build(parse_ideal("1; t+1")))
        assert dec.depth == 0
        assert dec.levels == (Partition([[0]]), Partition([[0]]))

    def test_six_cubic(self):
        dec = alexander_decomposition(build(parse_ideal("6; t^2+t+1")))
        assert dec.depth == 2
        assert dec.final.sizes() == (4,) * 9
        assert len(dec.levels[1]) == 3

    def test_sixty_four_dihedral(self):
        dec = alexander_decomposition(build(parse_ideal("64; t+1")))
        assert dec.depth == 6
        assert [len(level) for level in dec.levels] == [1, 2, 4, 8, 16, 32, 64, 64]

    def test_two_generator_presentation(self):
        module = build(parse_ideal("6; 2t+4; t^2+t+1"))
        assert module.invariant_factors == (2, 6)
        dec = alexander_decomposition(module)
        assert dec.depth == 1
        assert dec.final.sizes() == (4, 4, 4)

    def test_gcd_chain_is_the_rank_one_tower(self):
        for n0 in range(1, 41):
            for a in (-3, 1, 2, 5):
                if math.gcd(a, n0) != 1:
                    continue
                formula = gcd_chain(n0, a)
                dec = alexander_decomposition(
                    build(IdealPresentation(n0, (LaurentPoly({0: a, 1: 1}),))))
                assert dec.depth == formula.depth
                assert len(dec.final) == formula.block_count
                assert set(dec.final.sizes()) == {formula.block_modulus}


def test_index_suite_draws_cover_every_rank_and_label_kind():
    rng = random.Random(12345)
    kinds = {(m.rank, m.labels_are_polynomials)
             for m in (random_index_module(rng) for _ in range(PROPERTY_CASES))}
    assert kinds == {(rank, poly) for rank in range(4) for poly in (True, False)}
