"""Acceptance suite: one test per criterion, exact comparisons throughout.

Every expected value is pinned here, independently of the library's own
verification tables.  Each test prints a single pass line (visible with
pytest -s) after its assertions hold.
"""

import random

from quandles import (
    LaurentPoly,
    Partition,
    alexander_quandle,
    associated_mcq,
    build,
    check_mcq_axioms,
    component_ideal,
    connected_components,
    dihedral,
    find_isomorphism,
    gcd_chain,
    generated_sub_mcq,
    ideals_equal,
    is_sub_mcq,
    lambda_orbits,
    maximal_decomposition,
    maximal_mcq_decomposition,
    parse_ideal,
    presentation_from_generators,
    subquandle,
    type_of,
)
from quandles.tmodule import IdealPresentation
from quandles.verify import PROPERTY_CASES, PROPERTY_SUITES, substructure_criteria

ORBIT_LABELS = {
    0: {"0", "3", "3t", "1+2t", "1+5t", "2+t", "2+4t",
        "3+3t", "4+2t", "4+5t", "5+t", "5+4t"},
    1: {"1", "4", "t", "4t", "1+3t", "2+2t", "2+5t",
        "3+t", "3+4t", "4+3t", "5+2t", "5+5t"},
    2: {"2", "5", "2t", "5t", "1+t", "1+4t", "2+3t",
        "3+2t", "3+5t", "4+t", "4+4t", "5+3t"},
}

MAXIMAL_BLOCKS = {
    frozenset({"0", "3", "3t", "3+3t"}),
    frozenset({"1+5t", "1+2t", "4+2t", "4+5t"}),
    frozenset({"2+4t", "2+t", "5+t", "5+4t"}),
    frozenset({"1", "4", "1+3t", "4+3t"}),
    frozenset({"2+5t", "2+2t", "5+2t", "5+5t"}),
    frozenset({"3+4t", "3+t", "t", "4t"}),
    frozenset({"2", "5", "2+3t", "5+3t"}),
    frozenset({"3+5t", "3+2t", "2t", "5t"}),
    frozenset({"4+4t", "4+t", "1+t", "1+4t"}),
}


def linear_presentation(n0, a):
    return IdealPresentation(n0, (LaurentPoly({0: a, 1: 1}),))


def eval_class_partition(module):
    elems = module.elements()
    classes = {}
    for i, e in enumerate(elems):
        classes.setdefault(module.eval_one_class(e), []).append(i)
    return Partition(classes.values())


def test_criterion_1_order36_quotient(six_cubic):
    module = six_cubic.module
    q = six_cubic.quandle
    assert module.order == 36
    comps = connected_components(q)
    assert comps.sizes() == (12, 12, 12)
    for block in comps:
        cls = module.eval_one_class(module.elements()[block[0]])
        assert {q.label(i) for i in block} == ORBIT_LABELS[cls]
    dec = maximal_decomposition(q)
    assert len(dec.final) == 9
    assert {frozenset(q.label(i) for i in block) for block in dec.final} \
        == MAXIMAL_BLOCKS
    assert dec.depth == 2
    print("ACCEPTANCE 1 (order-36 quotient: components, blocks, depth): PASS")


def test_criterion_2_conjugation_quandles(conj_s3, conj_s4):
    assert connected_components(conj_s3).sizes() == (1, 2, 3)
    dec3 = maximal_decomposition(conj_s3)
    assert dec3.final.sizes() == (1, 1, 1, 3)
    assert dec3.depth == 2
    assert connected_components(conj_s4).sizes() == (1, 3, 6, 6, 8)
    dec4 = maximal_decomposition(conj_s4)
    assert dec4.final.sizes() == (1, 1, 1, 1, 4, 4, 6, 6)
    assert dec4.depth == 2
    print("ACCEPTANCE 2 (Conj(S3) and Conj(S4) decompositions): PASS")


def test_criterion_3_dihedral_sweep():
    for m in range(1, 65):
        l = (m & -m).bit_length() - 1
        k = m >> l
        aq = dihedral(m)
        dec = maximal_decomposition(aq.quandle)
        assert len(dec.final) == 2 ** l, m
        assert dec.depth == l, m
        ref = dihedral(k).quandle
        for block in dec.final:
            assert find_isomorphism(subquandle(aq.quandle, block), ref) is not None, m
    print("ACCEPTANCE 3 (dihedral sweep m = 1..64): PASS")


def test_criterion_4_linear_grid():
    for n0 in range(1, 41):
        for a in range(-10, 11):
            formula = gcd_chain(n0, a)
            aq = alexander_quandle(build(linear_presentation(n0, a)))
            dec = maximal_decomposition(aq.quandle)
            assert len(dec.final) == formula.block_count, (n0, a)
            assert dec.depth == formula.depth, (n0, a)
            ref = alexander_quandle(
                build(linear_presentation(formula.block_modulus, a))).quandle
            for block in dec.final:
                assert find_isomorphism(
                    subquandle(aq.quandle, block), ref) is not None, (n0, a)
    print("ACCEPTANCE 4 (gcd-chain grid n0 = 1..40, a = -10..10): PASS")


def test_criterion_5_eval_classifier(six_cubic):
    structures = [six_cubic]
    structures += [dihedral(m) for m in range(1, 65)]
    structures += [
        alexander_quandle(build(linear_presentation(n0, a)))
        for n0 in range(1, 41)
        for a in range(-10, 11)
    ]
    for aq in structures:
        assert connected_components(aq.quandle) == eval_class_partition(aq.module)
    print("ACCEPTANCE 5 (components equal the value-at-1 classes): PASS")


def test_criterion_6_component_ideal(six_cubic):
    result = component_ideal(list(parse_ideal("6; t^2+t+1").generators()))
    derived = presentation_from_generators(result.generators)
    module = build(derived)
    assert module.order == 12
    assert ideals_equal(derived, parse_ideal("6; 2t+4; t^2+t+1"))
    piece = alexander_quandle(module).quandle
    for block in connected_components(six_cubic.quandle):
        assert find_isomorphism(subquandle(six_cubic.quandle, block), piece) is not None
    print("ACCEPTANCE 6 (component ideal of the order-36 quotient): PASS")


def test_criterion_7_property_suites():
    assert PROPERTY_CASES >= 1000
    for i, (name, suite) in enumerate(PROPERTY_SUITES):
        failures = suite(random.Random(12345 + i), PROPERTY_CASES)
        assert failures == 0, name
    print(f"ACCEPTANCE 7 (property suites, {PROPERTY_CASES} cases each): PASS")


def test_criterion_8_mcq_layer(tetrahedral, conj_s3):
    rng = random.Random(777)
    quandles = [dihedral(m).quandle for m in range(3, 13)]
    quandles.append(tetrahedral.quandle)
    quandles.append(conj_s3)
    for q in quandles:
        m = type_of(q)
        x = associated_mcq(q)
        assert check_mcq_axioms(x) is None
        assert lambda_orbits(x) == connected_components(q)
        expected_carrier = Partition(
            [i * m + g for i in block for g in range(m)]
            for block in maximal_decomposition(q).final
        )
        assert maximal_mcq_decomposition(x).carrier_partition == expected_carrier
        for _ in range(500):
            if rng.randrange(4) == 0:
                subset = generated_sub_mcq(x, rng.sample(range(x.size),
                                                         rng.randint(1, 3)))
            else:
                subset = rng.sample(range(x.size), rng.randint(1, x.size))
            ok = is_sub_mcq(x, subset)
            assert substructure_criteria(x, subset) == (ok, ok, ok)
    print("ACCEPTANCE 8 (associated MCQ layer): PASS")
