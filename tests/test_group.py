import hashlib
import random

import pytest

from quandles import (
    AxiomViolation,
    FiniteGroup,
    InvalidTable,
    NotASubquandle,
    check_axioms,
    check_group,
    conj_components,
    conj_decomposition,
    conj_quandle,
    conjugacy_classes,
    connected_components,
    cyclic_group,
    is_associative,
    maximal_decomposition,
    symmetric_group,
    trivial_quandle,
)
from quandles.group import _first_nonassociative
from quandles.quandle import action_generators
from quandles.verify import (NON_ASSOCIATIVE_LOOP, _dihedral_group_table, _product_table, near_group,
                             perturbed_product,
                             random_group_table, reference_identity_and_inverses,
                             reference_symmetric_table, relabelled_table, small_group_tables)


class TestSymmetricGroup:
    def test_orders(self):
        assert symmetric_group(1).size == 1
        assert symmetric_group(3).size == 6
        assert symmetric_group(4).size == 24

    def test_range(self):
        with pytest.raises(ValueError):
            symmetric_group(0)
        with pytest.raises(ValueError):
            symmetric_group(7)

    def test_identity_is_index_zero(self):
        g = symmetric_group(4)
        assert g.identity == 0
        assert g.labels[0] == "e"

    def test_group_laws(self):
        for n in (1, 2, 3, 4):
            assert check_group(symmetric_group(n)) is None

    def test_cycle_labels(self):
        g = symmetric_group(4)
        assert "(1 2)" in g.labels
        assert "(1 2 3 4)" in g.labels
        assert "(1 2)(3 4)" in g.labels

    def test_table_equals_the_per_cell_composition(self):
        assert symmetric_group(6).mult == tuple(map(tuple, reference_symmetric_table(6)))

    def test_composition_order_applies_left_first(self):
        g = symmetric_group(3)
        a = g.labels.index("(1 2)")
        b = g.labels.index("(1 3)")
        # (1 2) then (1 3): 1 -> 2 -> 2, 2 -> 1 -> 3, 3 -> 3 -> 1
        assert g.labels[g.mult[a][b]] == "(1 2 3)"


class TestBuiltGroups:
    @pytest.mark.parametrize("g", [symmetric_group(k) for k in range(1, 7)]
                             + [cyclic_group(n) for n in range(1, 31)],
                             ids=[f"S{k}" for k in range(1, 7)] + [f"C{n}" for n in range(1, 31)])
    def test_built_group_equals_the_validated_one(self, g):
        derived = FiniteGroup([list(row) for row in g.mult], labels=g.labels)
        assert ((g.size, g.mult, g.identity, g.inv, g.labels)
                == (derived.size, derived.mult, derived.identity, derived.inv, derived.labels))
        # both generators hand _built a list of rows, which _fill makes a tuple
        assert type(g.mult) is tuple


class TestCyclicGroup:
    def test_structure(self):
        g = cyclic_group(4)
        assert g.identity == 0
        assert g.mult[3][2] == 1
        assert g.inv[1] == 3
        assert check_group(g) is None


class TestConjQuandle:
    def test_abelian_gives_trivial(self):
        g = cyclic_group(5)
        q = conj_quandle(g)
        assert q.table == trivial_quandle(5).table

    def test_s3_components_are_class_sizes(self, conj_s3):
        assert connected_components(conj_s3).sizes() == (1, 2, 3)

    def test_s4_component_sizes(self, conj_s4):
        assert connected_components(conj_s4).sizes() == (1, 3, 6, 6, 8)

    def test_axioms(self):
        for n in (1, 2, 3, 4):
            assert check_axioms(conj_quandle(symmetric_group(n))) is None
        for n in (1, 2, 6):
            assert check_axioms(conj_quandle(cyclic_group(n))) is None


class TestConjugacyClasses:
    def test_cyclic_all_singletons(self):
        assert conjugacy_classes(cyclic_group(4)).sizes() == (1, 1, 1, 1)

    def test_s3_classes(self):
        g = symmetric_group(3)
        classes = conjugacy_classes(g)
        by_labels = {frozenset(g.labels[i] for i in block) for block in classes}
        assert by_labels == {
            frozenset({"e"}),
            frozenset({"(1 2)", "(1 3)", "(2 3)"}),
            frozenset({"(1 2 3)", "(1 3 2)"}),
        }

    def test_s4_has_five_classes(self):
        assert len(conjugacy_classes(symmetric_group(4))) == 5

    def test_classes_equal_components_of_conjugation_quandle(self):
        for n in (1, 2, 3, 4, 5):
            g = symmetric_group(n)
            assert conjugacy_classes(g) == connected_components(conj_quandle(g))


class TestConjDecomposition:
    @pytest.mark.parametrize("mult,final", [
        (lambda: _dihedral_group_table(150), 152),
        (lambda: _product_table(symmetric_group(5).mult, cyclic_group(3).mult), 24),
    ], ids=["D150", "S5xC3"])
    def test_block_picks_give_the_quandle_engine_tower(self, mult, final):
        g = FiniteGroup(relabelled_table(random.Random(1), mult()))
        q = conj_quandle(g)
        dec = conj_decomposition(g)
        assert dec == maximal_decomposition(q) and len(dec.final) == final
        for level in dec.levels:
            for block in level:
                assert conj_components(g, block) == connected_components(q, block)

    def test_an_ambient_set_that_is_not_closed_is_refused(self):
        g = symmetric_group(3)
        # (1 3)^-1 (1 2) (1 3) = (2 3) leaves the set
        with pytest.raises(NotASubquandle):
            conj_components(g, [g.labels.index("(1 2)"), g.labels.index("(1 3)")])


class TestJson:
    def test_round_trip(self):
        g = symmetric_group(3)
        back = FiniteGroup.from_json(g.to_json())
        assert back.mult == g.mult
        assert back.identity == g.identity
        assert back.labels == g.labels

    def test_loader_refuses_nonassociative(self):
        # unital magma with inverses that is not associative
        mult = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(InvalidTable):
            FiniteGroup.from_json({"mult": mult, "identity": 0})

    def test_structural_errors(self):
        with pytest.raises(ValueError):
            FiniteGroup.from_json({"mult": [[0, 1]]})
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 1]])  # element 1 has no inverse


class TestGroupChecks:
    def test_check_group_equals_the_full_scan_on_near_groups(self):
        rng = random.Random(2024)
        small = small_group_tables()
        checked = failing = 0
        while checked < 500:
            mult = near_group(rng, random_group_table(rng, small))
            try:
                g = FiniteGroup(mult)
            except ValueError:
                continue
            checked += 1
            failing += check_group(g) is not None
            assert check_group(g) == _first_nonassociative(g)
        assert failing > 400

    def test_inverse_search_passes_a_one_sided_identity_entry(self):
        # 1 * 2 == 0 but 2 * 1 == 3: the inverse of 1 is its next identity entry, 3
        mult = [
            [0, 1, 2, 3],
            [1, 2, 0, 0],
            [2, 3, 0, 1],
            [3, 0, 1, 0],
        ]
        g = FiniteGroup(mult)
        assert g.inv == (0, 3, 2, 1)
        assert (g.identity, g.inv) == reference_identity_and_inverses(mult)
        assert check_group(g) == AxiomViolation("associativity", (1, 1, 1))
        mult[3][1] = 2
        with pytest.raises(ValueError, match="element 1 has no inverse"):
            FiniteGroup(mult)


def _certificate_parts(g):
    """Whether check_group's checks (A) and (B) hold, one cell at a time:
    (A) (z p) w == z (p w) on the breadth-first tree edges y = z p from the
    identity, (B) s (w c) == (s w) c for picks s and c."""
    m, e, n = g.mult, g.identity, g.size
    picks = action_generators(range(n), (e,), lambda x, p: m[x][p])
    edges, walk = {}, [e]
    for z in walk:
        for p in picks:
            y = m[z][p]
            if y != e and y not in edges:
                edges[y] = (z, p)
                walk.append(y)
    assert len(walk) == n
    tree = all(m[m[z][p]][w] == m[z][m[p][w]] for z, p in edges.values() for w in range(n))
    picks_commute = all(m[s][m[w][c]] == m[m[s][w]][c]
                        for s in picks for c in picks for w in range(n))
    return tree, picks_commute


def _b_only_table():
    # a relabelled C7 with the product 0 0 changed from 5 to 0; the pick 0 is a leaf of the tree
    rng = random.Random(54435)
    return perturbed_product(rng, FiniteGroup(random_group_table(rng, small_group_tables())))


class TestAssociativityCertificate:
    @pytest.mark.parametrize("table,parts,witness", [
        (lambda: perturbed_product(random.Random(0), FiniteGroup(_dihedral_group_table(6))),
         (False, True), AxiomViolation("associativity", (1, 10, 9))),
        (_b_only_table, (True, False), AxiomViolation("associativity", (0, 0, 2))),
    ], ids=["refused-only-by-the-tree-edges", "refused-only-by-the-commuting-picks"])
    def test_each_check_alone_refuses_a_table(self, table, parts, witness):
        g = FiniteGroup(table())
        assert _certificate_parts(g) == parts
        assert check_group(g) == _first_nonassociative(g) == witness


def associativity_grid(cases=600):
    """Seeded tables, in turn: groups of order at most 24 (see
    random_group_table), near-groups, perturbed products and the
    non-associative loop times a cyclic group of order 1 to 4, relabelled;
    each with is_associative's verdict, or the constructor's refusal."""
    rng = random.Random(3911)
    small = small_group_tables()
    loops = [_product_table(NON_ASSOCIATIVE_LOOP, cyclic_group(k).mult) for k in range(1, 5)]
    draws = (lambda: random_group_table(rng, small),
             lambda: near_group(rng, random_group_table(rng, small)),
             lambda: perturbed_product(rng, FiniteGroup(random_group_table(rng, small))),
             lambda: relabelled_table(rng, rng.choice(loops)))
    for case in range(cases):
        mult = draws[case % len(draws)]()
        try:
            yield mult, is_associative(FiniteGroup(mult))
        except ValueError as exc:
            yield mult, str(exc)


class TestGroupBytes:
    def test_the_symmetric_groups_and_associativity_verdicts_hash_as_pinned(self):
        # any change to a row or a label of S1-S6, or to a verdict, shows here
        texts = [repr((symmetric_group(k).mult, symmetric_group(k).labels)) for k in range(1, 7)]
        texts += [repr(draw) for draw in associativity_grid()]
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "32c7e4c15ba63fa1af15f86427b8edd9c7aa4bb50aed2c7f01ec888dbbb3c1a8")

    def test_the_grid_reaches_every_verdict(self):
        verdicts = [verdict for _, verdict in associativity_grid()]
        assert {True, False} <= set(verdicts)
        assert any(isinstance(verdict, str) for verdict in verdicts)
        assert 200 < verdicts.count(False) < 500
