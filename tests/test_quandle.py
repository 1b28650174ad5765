import hashlib
import itertools
import random
import time

import pytest

from quandles import (
    MCQ,
    AxiomViolation,
    FiniteGroup,
    FiniteQuandle,
    InvalidTable,
    NotASubquandle,
    Partition,
    alexander_quandle,
    associated_mcq,
    build,
    check_axioms,
    check_columns,
    check_group,
    check_mcq_axioms,
    column_cycle_type,
    component_ideal,
    conj_components,
    conj_quandle,
    conjugacy_classes,
    connected_components,
    cyclic_group,
    dihedral,
    find_isomorphism,
    generated_subquandle,
    is_connected,
    op_pow,
    parse_ideal,
    subquandle,
    symmetric_group,
    trivial_quandle,
    type_of,
)
from quandles import group, mcq, quandle
from quandles.laurent import LaurentPoly
from quandles.quandle import _first_violation, _profile, action_generators
from quandles.verify import (NON_ASSOCIATIVE_LOOP, _product_table, _random_quandle, near_group,
                             near_quandle, perturbed_product, random_group_table, random_small_mcq,
                             relabelled, small_group_tables, transports)


def label_index(q, name):
    return q.labels.index(name)


def forward_only_pool():
    """A seeded pool; its Alexander and conjugation members have column
    cycles longer than 2, where x *^-1 a differs from x * a."""
    rng = random.Random(41)
    pool = [dihedral(m).quandle for m in (1, 2, 6, 12, 15)]
    for _ in range(6):
        n = rng.randint(2, 16)
        pool.append(alexander_quandle(build(parse_ideal(f"{n}; t+{rng.randrange(n)}"))).quandle)
    for _ in range(3):
        n = rng.randint(2, 6)
        ideal = f"{n}; t^2+{rng.randrange(n)}t+1"
        pool.append(alexander_quandle(build(parse_ideal(ideal))).quandle)
    pool += [conj_quandle(symmetric_group(3)), conj_quandle(symmetric_group(4)),
             trivial_quandle(4)]
    return pool


def two_way_components(q, ambient):
    """Reference orbits under both x -> x * a and x -> x *^-1 a."""
    blocks, seen = [], set()
    for seed in ambient:
        if seed in seen:
            continue
        block, frontier = {seed}, [seed]
        while frontier:
            x = frontier.pop()
            for a in ambient:
                for y in (q.table[x][a], op_pow(q, x, -1, a)):
                    if y not in block:
                        block.add(y)
                        frontier.append(y)
        seen |= block
        blocks.append(block)
    return Partition(blocks)


class TestPartition:
    def test_canonical_form(self):
        p = Partition([[3, 1], [0, 2]])
        assert p == ((0, 2), (1, 3))
        assert p == Partition([(2, 0), (1, 3)])

    def test_sizes_and_refines(self):
        p = Partition([[0, 1], [2, 3, 4]])
        q = Partition([[0], [1], [2, 3, 4]])
        assert p.sizes() == (2, 3)
        assert q.refines(p)
        assert not p.refines(q)

    def test_equal_partitions_hash_alike_and_are_one_key(self):
        p, q = Partition([[1, 3], [0, 2]]), Partition([(2, 0), [], (3, 1)])
        assert hash(p) == hash(q) == hash(((0, 2), (1, 3)))
        assert {p: "first", q: "second"} == {p: "second"}

    def test_immutable(self):
        p = Partition([[0, 2], [1]])
        with pytest.raises(TypeError):
            p[0] = (0, 1, 2)
        with pytest.raises(AttributeError):
            p.extra = 1

    def test_len_and_iteration_run_over_the_blocks(self):
        p = Partition([[4, 3], [0], [2, 1]])
        assert len(p) == 3
        assert list(p) == [(0,), (1, 2), (3, 4)]
        assert p.block_of(2) == (1, 2)
        with pytest.raises(KeyError):
            p.block_of(5)

    def test_repr(self):
        assert repr(Partition([[2, 0], [1]])) == "Partition([[0, 2], [1]])"

    def test_a_partition_is_the_tuple_of_its_blocks(self):
        p = Partition([[2, 0], [1]])
        assert isinstance(p, tuple)
        assert p == ((0, 2), (1,))


class TestAxioms:
    def test_dihedral_ok(self):
        assert check_axioms(dihedral(3).quandle) is None

    def test_conj_ok(self, conj_s3):
        assert check_axioms(conj_s3) is None

    def test_idempotency_violation(self):
        table = [[1, 0], [1, 1]]
        q = FiniteQuandle(table)
        bad = check_axioms(q)
        assert bad is not None
        assert bad.axiom == "idempotency"
        assert bad.witness == (0,)

    def test_invertibility_violation(self):
        # column 0 hits 0 twice
        table = [[0, 0, 0], [0, 1, 1], [2, 2, 2]]
        bad = check_axioms(FiniteQuandle(table))
        assert bad is not None
        assert bad.axiom == "right-invertibility"

    def test_distributivity_violation(self):
        # idempotent, columns bijective, but the column maps are not
        # automorphisms: S_0 = (1 2), S_1 = (0 2), S_2 = id
        table = [[0, 2, 0], [2, 1, 1], [1, 0, 2]]
        bad = check_axioms(FiniteQuandle(table))
        assert bad is not None
        assert bad.axiom == "self-distributivity"
        assert bad.witness == (0, 1, 0)

    def test_a_table_that_fails_only_at_a_later_pick(self, later_pick_quandle):
        q = later_pick_quandle
        table = q.table
        assert action_generators(range(6), (), lambda x, p: table[x][p]) == [0, 1, 2]
        assert [row[0] for row in table] == list(range(6))
        assert check_axioms(q) == _first_violation(q) == AxiomViolation(
            "self-distributivity", (1, 3, 2))

    def test_generator_decision_matches_the_scan_on_near_quandles(self, conj_s3, tetrahedral):
        rng = random.Random(7)
        bases = [dihedral(m).quandle for m in (3, 4, 5, 6, 9)] + [
            tetrahedral.quandle, conj_s3, trivial_quandle(5),
            alexander_quandle(build(parse_ideal("7; t+3"))).quandle]
        seen = set()
        for _ in range(600):
            q = near_quandle(rng, rng.choice(bases))
            bad = _first_violation(q)
            assert check_axioms(q) == bad
            seen.add(bad.axiom if bad else None)
        assert {"idempotency", "self-distributivity"} <= seen

    def test_from_table_refuses_invalid(self):
        with pytest.raises(InvalidTable):
            FiniteQuandle.from_json({"table": [[1, 0], [1, 1]]})
        q = FiniteQuandle.from_json({"table": [[1, 0], [1, 1]]}, check=False)
        assert q.size == 2

    def test_a_collision_in_the_last_column_of_r720(self):
        # every column before the last is a bijection; 5 * 719 == 6 * 719
        t = [list(row) for row in dihedral(720).quandle.table]
        t[5][719] = t[6][719]
        q = FiniteQuandle(t)
        assert check_columns(q) == check_axioms(q) == AxiomViolation(
            "right-invertibility", (5, 6, 719))


def _idempotent_bijective_table(rng, n):
    """Idempotent, each column b a random permutation that fixes b."""
    cols = []
    for b in range(n):
        col = rng.sample([x for x in range(n) if x != b], n - 1)
        col.insert(b, b)
        cols.append(col)
    return [[col[a] for col in cols] for a in range(n)]


def witness_grid(cases=600):
    """Seeded (kind, structure, verdicts) triples.  Quandle tables: near-
    quandles, random tables, idempotent ones and idempotent ones with
    bijective columns, in turn.  Groups: near-groups and perturbed products,
    with the constructor's refusal when there is one.  MCQs: random small
    ones, one of them with one cell redrawn, and the associated structures
    of near-quandles up to carrier 36."""
    rng = random.Random(4099)
    small = small_group_tables()
    for i in range(cases):
        n = rng.randint(1, 8)
        shape = i % 4
        if shape == 0:
            q = near_quandle(rng, _random_quandle(rng, max_size=12))
        elif shape == 1:
            q = FiniteQuandle([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        elif shape == 2:
            q = FiniteQuandle([[a if a == b else rng.randrange(n) for b in range(n)]
                               for a in range(n)])
        else:
            q = FiniteQuandle(_idempotent_bijective_table(rng, n))
        yield "quandle", q, (check_axioms(q), _first_violation(q), check_columns(q))
        mult = random_group_table(rng, small)
        mult = near_group(rng, mult) if i % 2 else perturbed_product(rng, FiniteGroup(mult))
        try:
            g = FiniteGroup(mult)
        except ValueError as exc:
            yield "group", None, str(exc)
        else:
            yield "group", g, (check_group(g), group._first_nonassociative(g))
        shape = i % 3
        x = random_small_mcq(rng)
        if shape == 1:
            op = [list(row) for row in x.op]
            op[rng.randrange(x.size)][rng.randrange(x.size)] = rng.randrange(x.size)
            x = MCQ(x.groups, op)
        elif shape == 2:
            while True:
                q = near_quandle(rng, _random_quandle(rng, max_size=12))
                if type_of(q) * q.size <= 36:
                    break
            x = associated_mcq(q)
        yield "mcq", x, (check_mcq_axioms(x), mcq._first_violation(x))


class TestWitnessGrid:
    def test_the_witness_grid_hashes_as_pinned(self):
        # any change to a verdict, an axiom name or a witness shows here
        texts, reached = [], set()
        for kind, obj, verdicts in witness_grid():
            texts.append(repr(verdicts))
            if obj is None:
                continue
            bad = verdicts[1]
            reached.add((kind, bad.axiom, len(bad.witness)) if bad else (kind, None))
            if kind == "quandle":
                reached.add(("columns", verdicts[2].axiom if verdicts[2] else None))
            if bad and bad.axiom == "product-equivariance":
                a, b, xx = bad.witness
                if obj.group_of[obj.op[a][xx]] != obj.group_of[obj.op[b][xx]]:
                    reached.add(("mcq", "group mismatch"))
        assert reached >= {
            ("quandle", "idempotency", 1), ("quandle", "right-invertibility", 3),
            ("quandle", "self-distributivity", 3), ("quandle", None),
            ("columns", "right-invertibility"), ("columns", None),
            ("group", "associativity", 3), ("group", None),
            ("mcq", "conjugation", 2), ("mcq", "group-action", 2), ("mcq", "group-action", 3),
            ("mcq", "self-distributivity", 3), ("mcq", "product-equivariance", 3),
            ("mcq", "group mismatch"), ("mcq", None)}
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "cfd85b34b71aeafa4a5104752a1276361d607626034606a6bb320aa73e5b4f52")


class TestBuiltQuandles:
    @pytest.mark.parametrize("q", [trivial_quandle(1), trivial_quandle(4), dihedral(5).quandle,
                                   conj_quandle(symmetric_group(3)),
                                   subquandle(dihedral(6).quandle, [0, 2, 4])],
                             ids=["trivial-1", "trivial-4", "dihedral-5", "conj-s3", "subquandle"])
    def test_built_quandle_equals_the_validated_one(self, q):
        derived = FiniteQuandle([list(row) for row in q.table], q.labels)
        assert (q.size, q.table, q.labels) == (derived.size, derived.table, derived.labels)
        # each constructor hands _built a list of rows, which _fill makes a tuple
        assert type(q.table) is tuple


class TestOpPow:
    def test_zero_power(self):
        q = dihedral(5).quandle
        for a in range(5):
            for b in range(5):
                assert op_pow(q, a, 0, b) == a

    def test_dihedral_involution(self):
        q = dihedral(5).quandle
        assert op_pow(q, 1, 2, 3) == 1

    def test_negative_matches_inverse(self):
        q = dihedral(7).quandle
        for a in range(7):
            for b in range(7):
                assert op_pow(q, op_pow(q, a, -1, b), 1, b) == a

    def test_tetrahedral_cube_is_identity(self, tetrahedral):
        q = tetrahedral.quandle
        # oracle: repeated table application
        for a in range(4):
            for b in range(4):
                x = a
                for _ in range(3):
                    x = q.table[x][b]
                assert x == a
                assert op_pow(q, a, 3, b) == a


class TestType:
    def test_trivial(self):
        assert type_of(trivial_quandle(5)) == 1

    def test_dihedral(self):
        for m in (3, 4, 7, 12):
            assert type_of(dihedral(m).quandle) == 2

    def test_tetrahedral(self, tetrahedral):
        q = tetrahedral.quandle
        # brute-force oracle: least n with a *^n b == a for all pairs
        n = 1
        while True:
            if all(op_pow(q, a, n, b) == a for a in range(4) for b in range(4)):
                break
            n += 1
        assert n == 3
        assert type_of(q) == 3


class TestGenerated:
    def test_singleton(self, conj_s3):
        for a in range(conj_s3.size):
            assert generated_subquandle(conj_s3, [a]) == {a}

    def test_two_transpositions_generate_all_three(self, conj_s3):
        a = label_index(conj_s3, "(1 2)")
        b = label_index(conj_s3, "(1 3)")
        got = generated_subquandle(conj_s3, [a, b])
        expected = {label_index(conj_s3, x) for x in ("(1 2)", "(1 3)", "(2 3)")}
        assert got == expected

    def test_three_cycle_is_closed(self, conj_s3):
        a = label_index(conj_s3, "(1 2 3)")
        assert generated_subquandle(conj_s3, [a]) == {a}

    def test_closed_under_the_inverse_operation(self):
        rng = random.Random(42)
        for q in forward_only_pool():
            for _ in range(10):
                sub = generated_subquandle(q, rng.sample(range(q.size), min(q.size, 2)))
                assert all(op_pow(q, x, -1, a) in sub for x in sub for a in sub)


class TestComponents:
    def test_conj_s3_sizes(self, conj_s3):
        assert connected_components(conj_s3).sizes() == (1, 2, 3)

    def test_dihedral_six(self):
        q = dihedral(6).quandle
        assert connected_components(q) == ((0, 2, 4), (1, 3, 5))

    def test_tetrahedral_connected(self, tetrahedral):
        assert connected_components(tetrahedral.quandle).sizes() == (4,)

    def test_is_connected(self):
        assert is_connected(dihedral(3).quandle)
        assert not is_connected(dihedral(6).quandle)
        assert is_connected(trivial_quandle(1))

    def test_not_a_subquandle(self):
        q = dihedral(5).quandle
        with pytest.raises(NotASubquandle):
            connected_components(q, [0, 1])
        with pytest.raises(NotASubquandle):
            subquandle(q, [0, 1])

    def test_forward_orbits_match_two_way_orbits(self):
        for q in forward_only_pool():
            whole = connected_components(q)
            assert whole == two_way_components(q, range(q.size))
            for block in whole:
                assert connected_components(q, block) == two_way_components(q, block)

    def test_blocks_are_closed(self, conj_s4):
        for block in connected_components(conj_s4):
            sub = subquandle(conj_s4, block)  # raises if not closed
            assert sub.size == len(block)


class TestInnerMapsAreAutomorphisms:
    def test_translation_maps_transport_the_table(self, conj_s4):
        q = conj_s4
        rng = random.Random(13)
        for _ in range(50):
            a = rng.randrange(q.size)
            for x in range(q.size):
                for y in range(q.size):
                    lhs = q.table[q.table[x][y]][a]
                    rhs = q.table[q.table[x][a]][q.table[y][a]]
                    assert lhs == rhs


class TestIsomorphism:
    def test_same_construction(self):
        q1 = alexander_quandle(build(parse_ideal("3; t+1"))).quandle
        q2 = dihedral(3).quandle
        assert find_isomorphism(q1, q2) is not None

    def test_distinct_orbit_structure(self):
        assert find_isomorphism(dihedral(3).quandle, trivial_quandle(3)) is None

    def test_component_versus_augmented_quotient(self, six_cubic):
        q = six_cubic.quandle
        comp0 = connected_components(q).block_of(0)
        piece = alexander_quandle(build(parse_ideal("6; 2t+4; t^2+t+1"))).quandle
        assert piece.size == 12
        phi = find_isomorphism(subquandle(q, comp0), piece)
        assert phi is not None

    def test_returned_map_transports_tables(self):
        q1 = alexander_quandle(build(parse_ideal("5; t+2"))).quandle
        q2 = alexander_quandle(build(parse_ideal("5; t+2"))).quandle
        phi = find_isomorphism(q1, q2)
        assert phi is not None
        for x in range(5):
            for y in range(5):
                assert phi[q1.table[x][y]] == q2.table[phi[x]][phi[y]]

    def test_equivalence_properties(self, tetrahedral, six_cubic):
        q = tetrahedral.quandle
        assert find_isomorphism(q, q) is not None  # reflexive
        # symmetry: the inverse of a found map transports the tables back
        comps = connected_components(six_cubic.quandle)
        a = subquandle(six_cubic.quandle, comps[0])
        b = subquandle(six_cubic.quandle, comps[1])
        phi = find_isomorphism(a, b)
        assert phi is not None
        inv = [0] * len(phi)
        for i, v in enumerate(phi):
            inv[v] = i
        for x in range(b.size):
            for y in range(b.size):
                assert inv[b.table[x][y]] == a.table[inv[x]][inv[y]]

    def test_size_mismatch(self):
        assert find_isomorphism(dihedral(3).quandle, dihedral(4).quandle) is None

    def test_nonisomorphic_same_size_connected(self):
        # Z_5 with t = 2 and t = 3 are not isomorphic
        q1 = alexander_quandle(build(parse_ideal("5; t+3"))).quandle  # t = -3 = 2
        q2 = alexander_quandle(build(parse_ideal("5; t+2"))).quandle  # t = -2 = 3
        assert find_isomorphism(q1, q2) is None

    def test_nonisomorphic_order_25_pair_answers_at_once(self):
        q1 = alexander_quandle(build(parse_ideal("5; t^2+2"))).quandle
        q2 = alexander_quandle(build(parse_ideal("5; t^2+3"))).quandle
        start = time.perf_counter()
        assert find_isomorphism(q1, q2) is None
        assert time.perf_counter() - start < 1.0

    def test_relabelled_order_49_copy(self):
        q = alexander_quandle(build(parse_ideal("7; t^2+3"))).quandle
        copy = relabelled(random.Random(49), q)
        start = time.perf_counter()
        phi = find_isomorphism(q, copy)
        assert time.perf_counter() - start < 1.0
        assert phi is not None and transports(phi, q, copy)

    def test_a_map_that_agrees_on_the_pick_edges_but_does_not_transport(self):
        # two near-quandles (bijective columns, neither a quandle), drawn as
        # in the iso-generators suite with seed 12345
        q1 = FiniteQuandle([[0, 3, 2, 0], [2, 1, 1, 2], [1, 2, 3, 1], [3, 0, 0, 3]])
        q2 = FiniteQuandle([[0, 3, 3, 0], [2, 1, 1, 2], [1, 2, 2, 3], [3, 0, 0, 1]])
        picks = action_generators(range(4), (), lambda x, p: q1.table[x][p])
        wrong = (1, 0, 3, 2)  # lexicographically before the isomorphism
        assert all(wrong[q1.table[y][p]] == q2.table[wrong[y]][wrong[p]]
                   for y in range(4) for p in picks)
        assert not transports(wrong, q1, q2)
        first = next(p for p in itertools.permutations(range(4)) if transports(p, q1, q2))
        assert find_isomorphism(q1, q2) == first == (2, 0, 3, 1)

    @pytest.mark.parametrize("make", [lambda: dihedral(601).quandle, lambda: trivial_quandle(600)],
                             ids=["dihedral-601", "trivial-600"])
    def test_identity_is_the_first_map_at_large_orders(self, make):
        q = make()
        assert find_isomorphism(q, q) == tuple(range(q.size))


def cycle_walk_grid():
    """20,000 seeded tables of order 1-9, as (columns drawn as bijections,
    table): every third draws each entry at random, flagged at order 1
    only, the others a random permutation per column."""
    rng = random.Random(3607)
    for i in range(20000):
        n = rng.randint(1, 9)
        if i % 3 == 0:
            yield n == 1, FiniteQuandle([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        else:
            cols = [rng.sample(range(n), n) for _ in range(n)]
            yield True, FiniteQuandle([[col[x] for col in cols] for x in range(n)])


def cycle_walk_fingerprints():
    """Everything read off permutation cycles: the column cycle types and
    the type of every grid table, the profile of the bijective ones, the
    labels of S1-S6, and the rank-1 note of [m, t + a] and [t + a, m]."""
    for bijective, q in cycle_walk_grid():
        yield repr(([column_cycle_type(q, b) for b in range(q.size)], type_of(q),
                    _profile(q) if bijective else None))
    for n in range(1, 7):
        yield repr(symmetric_group(n).labels)
    for m in range(-30, 31):
        for a in range(-30, 31):
            const, linear = LaurentPoly.const(m), LaurentPoly({0: a, 1: 1})
            yield repr((component_ideal([const, linear]).note,
                        component_ideal([linear, const]).note))


class TestColumnCycleType:
    def test_dihedral(self):
        q = dihedral(5).quandle
        for b in range(5):
            assert column_cycle_type(q, b) == (1, 2, 2)

    def test_the_cycle_walk_grid_hashes_as_pinned(self):
        # any change to a cycle type, a type, a profile, a label or a note shows here
        text = "\n".join(cycle_walk_fingerprints())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0523d45adc238ad8fa7884113874a85e0dbfcbbc63c67d49cbd5eb0041149c51")

    def test_a_walk_with_a_tail_counts_the_tail_in_its_length(self):
        # column 0 walks 0 -> 1, where 1 is fixed; no column is a cycle of length 2
        q = FiniteQuandle([[1, 0, 0], [1, 1, 1], [2, 2, 2]])
        assert [column_cycle_type(q, b) for b in range(3)] == [(1, 2), (1, 1, 1), (1, 1, 1)]
        assert type_of(q) == 2


class TestJson:
    def test_round_trip(self, conj_s3):
        data = conj_s3.to_json()
        q = FiniteQuandle.from_json(data)
        assert q.table == conj_s3.table
        assert q.labels == conj_s3.labels

    def test_loader_refuses_invalid(self):
        with pytest.raises(InvalidTable):
            FiniteQuandle.from_json({"size": 2, "table": [[1, 0], [1, 1]]})
        q = FiniteQuandle.from_json({"size": 2, "table": [[1, 0], [1, 1]]}, check=False)
        assert q.size == 2

    def test_loader_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            FiniteQuandle.from_json({"size": 3, "table": [[0, 1], [1, 0]]})
        with pytest.raises(ValueError):
            FiniteQuandle.from_json({"table": [[0, 1]]})


# the first-pick mutant of each module's action_generators: it keeps only the
# first pick of the calls with a start set (True), of those without (False),
# or of all of them (None); an MCQ's calls with one pick its groups' Gamma,
# those without its Z; a group's calls with one pick for the associativity
# certificate and the conjugacy classes, those without for a block's orbits
FIRST_PICK_MUTANTS = {"quandle": (quandle, None), "gamma": (mcq, True), "z": (mcq, False),
                      "group": (group, True), "block": (group, False)}


_TRANSPOSITIONS = next(b for b in conjugacy_classes(symmetric_group(3)) if len(b) == 3)


def _first_pick_only(started):
    def mutant(elements, start, act):
        picks = action_generators(elements, start, act)
        return picks[:1] if started in (None, bool(start)) else picks
    return mutant


# wrong(witness): the answer on the witness is wrong, a failing table accepted
# or the conjugacy classes missed
@pytest.mark.parametrize("own,build,wrong", [
    ("quandle", lambda fx: fx("later_pick_quandle"), lambda q: check_axioms(q) is None),
    ("gamma", lambda fx: fx("later_gamma_pick_mcq"), lambda x: check_mcq_axioms(x) is None),
    ("z", lambda fx: fx("later_z_pick_mcq"), lambda x: check_mcq_axioms(x) is None),
    ("group", lambda fx: FiniteGroup(_product_table(NON_ASSOCIATIVE_LOOP, cyclic_group(2).mult)),
     lambda g: check_group(g) is None),
    ("group", lambda fx: symmetric_group(3),
     lambda g: conj_components(g) != conjugacy_classes(g)),
    # the transposition class of S3, split in two by the first pick alone
    ("block", lambda fx: symmetric_group(3),
     lambda g: conj_components(g, _TRANSPOSITIONS) != connected_components(conj_quandle(g),
                                                                            _TRANSPOSITIONS)),
], ids=["quandle-axioms", "mcq-gamma-picks", "mcq-z-picks", "group-associativity",
        "conj-components", "conj-block"])
def test_each_committed_witness_is_missed_only_by_its_own_mutant(monkeypatch, request,
                                                                 own, build, wrong):
    witness = build(request.getfixturevalue)
    assert not wrong(witness)
    for name, (module, started) in FIRST_PICK_MUTANTS.items():
        with monkeypatch.context() as patch:
            patch.setattr(module, "action_generators", _first_pick_only(started))
            assert wrong(witness) == (name == own), name
