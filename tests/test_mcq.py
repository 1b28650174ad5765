import json
import random

import pytest

from quandles import (
    MCQ,
    AxiomViolation,
    InvalidTable,
    alexander_quandle,
    build,
    parse_ideal,
    NotASubquandle,
    Partition,
    associated_mcq,
    check_mcq_axioms,
    conjugation_mcq,
    connected_components,
    cyclic_group,
    dihedral,
    generated_sub_mcq,
    is_sub_mcq,
    lambda_orbits,
    maximal_decomposition,
    maximal_mcq_decomposition,
    symmetric_group,
    trivial_quandle,
    type_of,
)
from quandles.mcq import _first_violation, associated_json_text
from quandles.quandle import action_generators
from quandles.verify import (_random_module, _random_quandle, near_quandle, random_small_mcq,
                             reference_associated_op, relabelled, same_structure,
                             substructure_criteria)


def _refuse(*args, **kwargs):
    raise AssertionError("the type was worked out from the table")


def mcq_isomorphic_by(x, y, carrier_map):
    """Verify an explicit bijection transports * and the group products."""
    if sorted(carrier_map) != list(range(x.size)):
        return False
    image = sorted(carrier_map[i] for i in range(x.size))
    if image != list(range(y.size)):
        return False
    for a in range(x.size):
        for b in range(x.size):
            if carrier_map[x.op[a][b]] != y.op[carrier_map[a]][carrier_map[b]]:
                return False
            if x.group_of[a] == x.group_of[b]:
                if y.group_of[carrier_map[a]] != y.group_of[carrier_map[b]]:
                    return False
                if carrier_map[x.gmul(a, b)] != y.gmul(carrier_map[a], carrier_map[b]):
                    return False
    return True


class TestAssociatedMcq:
    def test_dihedral_three(self):
        q = dihedral(3).quandle
        x = associated_mcq(q)
        assert x.group_count == 3
        assert all(g.size == 2 for g in x.groups)
        assert x.size == 6

    def test_trivial_singleton(self):
        x = associated_mcq(trivial_quandle(1))
        assert x.group_count == 1
        assert x.size == 1

    def test_tetrahedral(self, tetrahedral):
        assert type_of(tetrahedral.quandle) == 3
        x = associated_mcq(tetrahedral.quandle)
        assert x.group_count == 4
        assert x.size == 12

    @pytest.mark.parametrize("ideal", ["1; t+1", "2; t^2+t+1", "7; t+4", "9; t+2", "8; t^2+3"])
    def test_the_type_of_the_module_is_taken_as_given(self, monkeypatch, ideal):
        module = build(parse_ideal(ideal))
        q = alexander_quandle(module).quandle
        expected = associated_mcq(q)
        monkeypatch.setattr("quandles.mcq.type_of", _refuse)
        assert same_structure(associated_mcq(q, module.t_order), expected)

    @pytest.mark.parametrize("q", [trivial_quandle(1), trivial_quandle(3), dihedral(2).quandle,
                                   dihedral(6).quandle], ids=["carrier-1", "trivial-3",
                                                              "dihedral-2", "dihedral-6"])
    def test_built_equals_the_validated_structure(self, q):
        x = associated_mcq(q)
        assert same_structure(x, MCQ(x.groups, x.op, x.labels))
        if x.size == 1:
            assert x.op == ((0,),) and x.labels == ("(0;0)",)

    @pytest.mark.parametrize("source,m", [
        ("dihedral-4", 2), ("tetrahedral", 3), ("7; t+3", 3), ("7; t+4", 6), ("conj-s3", 6)],
        ids=["dihedral-4", "tetrahedral", "alexander-7-t+3", "alexander-7-t+4", "conj-s3"])
    def test_operation_formula(self, request, source, m):
        if source == "dihedral-4":
            q = dihedral(4).quandle
        elif source == "tetrahedral":
            q = request.getfixturevalue("tetrahedral").quandle
        elif source == "conj-s3":
            q = request.getfixturevalue("conj_s3")
        else:
            q = alexander_quandle(build(parse_ideal(source))).quandle
        assert type_of(q) == m
        x = associated_mcq(q)
        n = q.size
        assert x.size == n * m
        for xx in range(n):
            for g in range(m):
                for y in range(n):
                    for h in range(m):
                        out = x.op[xx * m + g][y * m + h]
                        elem = xx
                        for _ in range(h):
                            elem = q.table[elem][y]
                        assert out == elem * m + g  # Z_m is abelian: h^-1 g h == g

    def test_the_writer_gives_json_dumps_bytes_on_seeded_bases(self):
        """associated_json_text against json.dumps of the built structure,
        and the built rows against the reference formula, on 300 distinct
        bases up to carrier 300: carrier 1, then random quandles, their
        relabellings without labels, Alexander bases with m = t_order, and
        near-quandles with m = type_of."""
        rng = random.Random(22)
        checked = set()
        bases = [(trivial_quandle(1), 1), (dihedral(1).quandle, None)]
        for _ in range(400):
            for q, m in bases:
                if q.size * (type_of(q) if m is None else m) > 300:
                    continue
                x = associated_mcq(q, m)
                assert associated_json_text(q, m) == json.dumps(x.to_json(), sort_keys=True)
                if x.size <= 96:
                    assert x.op == tuple(map(tuple, reference_associated_op(q, x.size // q.size)))
                    assert same_structure(x, MCQ(x.groups, x.op, x.labels))
                checked.add((x.size, q.table, q.labels))
            if len(checked) >= 300:
                break
            q = _random_quandle(rng)
            module = _random_module(rng)
            bases = [(q, None), (relabelled(rng, q), type_of(q)),
                     (alexander_quandle(module).quandle, module.t_order), (near_quandle(rng, q), None)]
        assert len(checked) >= 300


class TestAxioms:
    def test_associated_structures_pass(self, conj_s3, tetrahedral):
        for q in (dihedral(3).quandle, dihedral(6).quandle,
                  tetrahedral.quandle, conj_s3):
            assert check_mcq_axioms(associated_mcq(q)) is None

    def test_single_group_conjugation(self):
        for g in (symmetric_group(3), cyclic_group(5)):
            assert check_mcq_axioms(conjugation_mcq(g)) is None

    def test_tampered_identity_action(self):
        x = associated_mcq(dihedral(3).quandle)
        table = [list(row) for row in x.op]
        e0 = x.identity_of(0)
        # tamper a cross-group entry so the conjugation axiom stays intact
        victim = next(i for i in range(x.size) if x.group_of[i] != 0)
        assert table[victim][e0] == victim
        table[victim][e0] = (victim + 1) % x.size
        bad = check_mcq_axioms(MCQ(x.groups, table, x.labels))
        assert bad is not None
        assert bad.axiom == "group-action"
        assert bad.witness == (victim, e0)

    def test_generator_decision_matches_the_scan_on_near_quandles(self, conj_s3, tetrahedral):
        rng = random.Random(11)
        bases = [dihedral(m).quandle for m in (3, 4, 5, 6)] + [
            tetrahedral.quandle, conj_s3, alexander_quandle(build(parse_ideal("5; t+2"))).quandle]
        seen = set()
        for _ in range(300):
            x = associated_mcq(near_quandle(rng, rng.choice(bases)))
            bad = _first_violation(x)
            assert check_mcq_axioms(x) == bad
            seen.add(bad.axiom if bad else None)
        assert "self-distributivity" in seen

    def test_generator_decision_matches_the_scan_on_random_mcqs(self):
        rng = random.Random(13)
        seen = set()
        for _ in range(1500):
            x = random_small_mcq(rng)
            bad = _first_violation(x)
            assert check_mcq_axioms(x) == bad
            seen.add(bad.axiom if bad else None)
        assert seen == {None, "group-action", "self-distributivity", "product-equivariance"}

    def test_self_distributive_but_not_equivariant(self):
        # Z_2 + Z_2 on e1, a1, e2, a2; only S_a2 moves anything: it swaps e1 and a1
        z2 = cyclic_group(2)
        op = [[0, 0, 0, 1], [1, 1, 1, 0], [2, 2, 2, 2], [3, 3, 3, 3]]
        x = MCQ((z2, z2), op)
        assert all(op[op[a][b]][c] == op[op[a][c]][op[b][c]]
                   for a in range(4) for b in range(4) for c in range(4))
        assert check_mcq_axioms(x) == _first_violation(x) == AxiomViolation(
            "product-equivariance", (0, 0, 3))

    def test_a_trivial_group_whose_identity_moves_an_element(self):
        # Z_1 + Z_1 with 1 * 0 == 0: only the identity action refuses it
        x = MCQ((cyclic_group(1), cyclic_group(1)), [[0, 0], [0, 1]])
        assert check_mcq_axioms(x) == _first_violation(x) == AxiomViolation(
            "group-action", (1, 0))

    def test_equivariance_fails_first_at_a_group_mismatch(self):
        # Z_2 + Z_1 + Z_2; 3 * 1 == 2 and 4 * 1 == 4 lie in different groups, so
        # (3 4) * 1 has no product of the two to equal
        op = [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [2, 3, 2, 2, 2], [3, 2, 3, 3, 3], [4, 4, 4, 4, 4]]
        x = MCQ((cyclic_group(2), cyclic_group(1), cyclic_group(2)), op)
        assert check_mcq_axioms(x) == _first_violation(x) == AxiomViolation(
            "product-equivariance", (3, 4, 1))

    def test_an_action_that_fails_only_at_the_second_pick(self, later_gamma_pick_mcq):
        x = later_gamma_pick_mcq
        assert (check_mcq_axioms(x) == _first_violation(x)
                == AxiomViolation("group-action", (4, 2, 2)))

    def test_a_structure_that_fails_only_at_a_later_pick_of_z(self, later_z_pick_mcq):
        x = later_z_pick_mcq
        op = x.op

        def act(y, p):  # the group product inside one group, * across groups
            return x.gmul(y, p) if x.group_of[y] == x.group_of[p] else op[y][p]

        assert action_generators(range(7), (), act) == [0, 1, 2, 3, 6]
        assert [row[0] for row in op] == list(range(7))
        assert check_mcq_axioms(x) == _first_violation(x) == AxiomViolation(
            "self-distributivity", (0, 3, 1))

    def test_trivial_quandles_and_trivial_groups(self):
        rng = random.Random(17)
        for n in range(1, 7):
            x = associated_mcq(trivial_quandle(n))
            assert all(g.size == 1 for g in x.groups)
            assert check_mcq_axioms(x) is None
            x = associated_mcq(near_quandle(rng, trivial_quandle(n)))
            assert check_mcq_axioms(x) == _first_violation(x)

    def test_loader_round_trip_and_refusal(self):
        x = associated_mcq(dihedral(3).quandle)
        data = x.to_json()
        back = MCQ.from_json(data)
        assert back.op == x.op
        assert back.labels == x.labels
        data_bad = x.to_json()
        data_bad["op"][0][x.identity_of(0)] = 1 if data_bad["op"][0][x.identity_of(0)] != 1 else 2
        with pytest.raises(InvalidTable):
            MCQ.from_json(data_bad)
        assert MCQ.from_json(data_bad, check=False).size == x.size


class TestLambdaOrbits:
    def test_overlapping_index_orbits_are_refused(self):
        # bijective op columns, but the translation by 2 moves the identities
        # of groups 0 and 2 both into group 1: no permutation of the indices
        data = {"groups": [{"mult": [[0]], "identity": 0},
                           {"mult": [[0, 1], [1, 0]], "identity": 0},
                           {"mult": [[0]], "identity": 0}],
                "op": [[0, 0, 1, 0], [1, 1, 0, 1], [2, 2, 3, 2], [3, 3, 2, 3]]}
        with pytest.raises(InvalidTable):
            lambda_orbits(MCQ.from_json(data, check=False))

    def test_connected_for_odd_dihedral(self):
        x = associated_mcq(dihedral(3).quandle)
        assert lambda_orbits(x) == ((0, 1, 2),)

    def test_even_dihedral_splits(self):
        x = associated_mcq(dihedral(6).quandle)
        assert lambda_orbits(x) == ((0, 2, 4), (1, 3, 5))

    def test_single_group(self):
        x = conjugation_mcq(symmetric_group(3))
        assert lambda_orbits(x) == ((0,),)

    def test_matches_quandle_components(self, conj_s3, tetrahedral):
        for q in [dihedral(m).quandle for m in range(3, 13)] + [
                tetrahedral.quandle, conj_s3]:
            assert lambda_orbits(associated_mcq(q)) == connected_components(q)

    def test_non_closed_index_subset(self):
        # in R6 the identity of group 0 moved by group 1 lands in group 2
        x = associated_mcq(dihedral(6).quandle)
        with pytest.raises(NotASubquandle):
            lambda_orbits(x, [0, 1])
        assert lambda_orbits(x, [0, 2, 4]) == ((0, 2, 4),)


class TestSubMcq:
    def test_identity_singleton(self):
        x = associated_mcq(dihedral(3).quandle)
        subset = [x.identity_of(0)]
        assert is_sub_mcq(x, subset) is True
        assert substructure_criteria(x, subset) == (True, True, True)

    def test_full_carrier(self):
        x = associated_mcq(dihedral(3).quandle)
        assert is_sub_mcq(x, range(x.size)) is True

    def test_non_idempotent_singleton(self):
        x = associated_mcq(dihedral(3).quandle)
        non_identity = next(i for i in range(x.size) if x.gmul(i, i) != i or
                            i != x.identity_of(x.group_of[i]))
        assert is_sub_mcq(x, [non_identity]) is False
        assert substructure_criteria(x, [non_identity]) == (False, False, False)

    def test_empty_subset_is_refused(self):
        with pytest.raises(ValueError):
            is_sub_mcq(associated_mcq(dihedral(3).quandle), [])

    def test_criteria_agree_on_random_subsets(self, conj_s3):
        rng = random.Random(31)
        seen = set()
        for q in (dihedral(4).quandle, dihedral(9).quandle, conj_s3):
            x = associated_mcq(q)
            for _ in range(300):
                if rng.randrange(4) == 0:
                    subset = generated_sub_mcq(
                        x, rng.sample(range(x.size), rng.randint(1, 3)))
                else:
                    subset = rng.sample(range(x.size), rng.randint(1, x.size))
                ok = is_sub_mcq(x, subset)
                assert substructure_criteria(x, subset) == (ok, ok, ok)
                seen.add(ok)
        assert seen == {True, False}


class TestGeneratedSubMcq:
    def test_identity_is_closed(self):
        x = associated_mcq(dihedral(3).quandle)
        e = x.identity_of(1)
        assert generated_sub_mcq(x, [e]) == {e}

    def test_generator_fills_its_group(self):
        x = associated_mcq(dihedral(3).quandle)
        # (x0, 1) generates {x0} x Z_2
        a = 0 * 2 + 1
        assert generated_sub_mcq(x, [a]) == set(x.group_range(0))

    def test_two_generators_fill_the_carrier(self):
        x = associated_mcq(dihedral(3).quandle)
        a, b = 0 * 2 + 1, 1 * 2 + 1
        assert generated_sub_mcq(x, [a, b]) == set(range(6))

    def test_closed_under_inverses(self, conj_s3, tetrahedral):
        rng = random.Random(34)
        for x in (associated_mcq(dihedral(6).quandle), associated_mcq(tetrahedral.quandle),
                  associated_mcq(conj_s3), conjugation_mcq(symmetric_group(4))):
            for _ in range(20):
                sub = generated_sub_mcq(x, rng.sample(range(x.size), rng.randint(1, 3)))
                assert all(x.ginv(a) in sub for a in sub)
                assert all(x.op[a][x.ginv(b)] in sub for a in sub for b in sub)

    def test_closure_is_sub_mcq_and_reachable(self, conj_s3):
        rng = random.Random(32)
        for q in (dihedral(6).quandle, conj_s3):
            x = associated_mcq(q)
            for _ in range(40):
                seeds = rng.sample(range(x.size), rng.randint(1, 3))
                closure = generated_sub_mcq(x, seeds)
                assert is_sub_mcq(x, closure)
                # identity of every touched group is reachable from a seed
                # identity by moves with operands in the seed set
                reach = {x.identity_of(x.group_of[a]) for a in seeds}
                frontier = list(reach)
                while frontier:
                    e = frontier.pop()
                    for a in seeds:
                        for nxt in (x.op[e][a], x.op[e][x.ginv(a)]):
                            if nxt not in reach:
                                reach.add(nxt)
                                frontier.append(nxt)
                for member in closure:
                    assert x.identity_of(x.group_of[member]) in reach


class TestMaximalMcqDecomposition:
    def test_connected_case(self):
        x = associated_mcq(dihedral(3).quandle)
        dec = maximal_mcq_decomposition(x)
        assert dec.index_tree.depth == 0
        assert len(dec.carrier_partition) == 1

    def test_dihedral_six(self):
        x = associated_mcq(dihedral(6).quandle)
        dec = maximal_mcq_decomposition(x)
        assert dec.index_tree.depth == 1
        assert dec.index_tree.final == ((0, 2, 4), (1, 3, 5))
        ref = associated_mcq(dihedral(3).quandle)
        for block in dec.index_tree.final:
            # order-preserving reindex x -> x // 2 transports the structure
            lams = sorted(block)
            carrier = [i for lam in lams for i in x.group_range(lam)]
            mapping = {c: idx for idx, c in enumerate(carrier)}
            sub_op = [[mapping[x.op[a][b]] for b in carrier] for a in carrier]
            sub = MCQ((cyclic_group(2),) * 3, sub_op)
            identity_map = list(range(6))
            assert mcq_isomorphic_by(sub, ref, identity_map)

    def test_dihedral_twelve(self):
        x = associated_mcq(dihedral(12).quandle)
        dec = maximal_mcq_decomposition(x)
        assert dec.index_tree.depth == 2
        assert len(dec.index_tree.final) == 4
        assert all(len(b) == 3 for b in dec.index_tree.final)

    def test_carrier_partition_is_quandle_partition_times_zm(self, conj_s3, tetrahedral):
        for q in [dihedral(m).quandle for m in range(3, 13)] + [
                tetrahedral.quandle, conj_s3]:
            m = type_of(q)
            x = associated_mcq(q)
            expected = Partition(
                [i * m + g for i in block for g in range(m)]
                for block in maximal_decomposition(q).final
            )
            assert maximal_mcq_decomposition(x).carrier_partition == expected
