import hashlib
import random

import pytest
from test_quandle import _idempotent_bijective_table

from quandles import (
    FiniteGroup,
    FiniteQuandle,
    Partition,
    alexander_quandle,
    associated_mcq,
    build,
    conj_decomposition,
    conj_quandle,
    conjugation_mcq,
    connected_components,
    dihedral,
    generated_sub_mcq,
    generated_subquandle,
    is_connected,
    is_sub_mcq,
    maximal_decomposition,
    maximal_mcq_decomposition,
    parse_ideal,
    symmetric_group,
    trivial_quandle,
    type_of,
)
from quandles import decomposition, group, mcq
from quandles.verify import (_random_quandle, near_quandle, random_group_table, random_small_mcq,
                             relabelled_table, small_group_tables)


class TestRefineOnce:
    # one refinement round takes levels[k] to levels[k + 1]
    def test_connected_fixed(self):
        q = dihedral(5).quandle
        whole = Partition([range(5)])
        assert maximal_decomposition(q).levels[1] == whole

    def test_conj_s3_first_step(self, conj_s3):
        assert maximal_decomposition(conj_s3).levels[1].sizes() == (1, 2, 3)

    def test_conj_s3_second_step_splits_three_cycles(self, conj_s3):
        assert maximal_decomposition(conj_s3).levels[2].sizes() == (1, 1, 1, 3)


class TestMaximalDecomposition:
    def test_conj_s3(self, conj_s3):
        dec = maximal_decomposition(conj_s3)
        assert dec.final.sizes() == (1, 1, 1, 3)
        assert dec.depth == 2
        assert dec.levels[dec.depth] == dec.levels[dec.depth + 1] == dec.final

    def test_conj_s4(self, conj_s4):
        dec = maximal_decomposition(conj_s4)
        assert dec.final.sizes() == (1, 1, 1, 1, 4, 4, 6, 6)
        assert dec.depth == 2

    def test_six_cubic(self, six_cubic):
        dec = maximal_decomposition(six_cubic.quandle)
        assert dec.final.sizes() == (4,) * 9
        assert dec.depth == 2

    def test_depth_examples(self):
        assert maximal_decomposition(dihedral(3).quandle).depth == 0
        assert maximal_decomposition(dihedral(6).quandle).depth == 1
        assert maximal_decomposition(dihedral(12).quandle).depth == 2


class TestWholeSetPath:
    # level 1 of every tower is its engine's whole-set path, called once;
    # every later round refines block by block
    @pytest.mark.parametrize("module,engine,tower,make", [
        (decomposition, "connected_components", maximal_decomposition,
         lambda: conj_quandle(symmetric_group(4))),
        (group, "conj_components", conj_decomposition, lambda: symmetric_group(4)),
        (mcq, "lambda_orbits", maximal_mcq_decomposition,
         lambda: associated_mcq(conj_quandle(symmetric_group(3)))),
    ], ids=["quandle", "group", "mcq"])
    def test_the_whole_set_path_runs_once_at_level_one(self, monkeypatch, module, engine, tower,
                                                        make):
        calls, components = [], getattr(module, engine)

        def recorder(structure, ambient=None):
            calls.append(ambient)
            return components(structure, ambient)

        monkeypatch.setattr(module, engine, recorder)
        dec = tower(make())
        levels = getattr(dec, "index_tree", dec).levels
        assert len(levels) >= 4  # two rounds below level 1
        assert calls[0] is None and None not in calls[1:]
        assert calls[1:] == [block for level in levels[1:-1] for block in level]


class TestInvariants:
    def quandle_pool(self):
        return [
            dihedral(m).quandle for m in (1, 2, 6, 12, 15)
        ] + [
            alexander_quandle(build(parse_ideal("6; t^2+t+1"))).quandle,
            trivial_quandle(4),
        ]

    def test_refinement_chain(self):
        for q in self.quandle_pool():
            dec = maximal_decomposition(q)
            for k in range(len(dec.levels) - 1):
                assert dec.levels[k + 1].refines(dec.levels[k])

    def test_final_blocks_connected(self):
        for q in self.quandle_pool():
            dec = maximal_decomposition(q)
            for block in dec.final:
                assert is_connected(q, block)

    def test_block_count_strictly_grows_before_fixed_point(self):
        for q in self.quandle_pool():
            dec = maximal_decomposition(q)
            for k in range(dec.depth):
                assert len(dec.levels[k + 1]) > len(dec.levels[k])

    def test_order_independence_of_refinement(self, conj_s4):
        # refine over shuffled block orders and compare the canonical result
        rng = random.Random(30)
        dec = maximal_decomposition(conj_s4)
        for level, reference in zip(dec.levels, dec.levels[1:]):
            for _ in range(5):
                blocks = [list(b) for b in level]
                rng.shuffle(blocks)
                for b in blocks:
                    rng.shuffle(b)
                pieces = []
                for b in blocks:
                    pieces.extend(connected_components(conj_s4, b))
                assert Partition(pieces) == reference

    def test_connected_subquandles_sit_inside_final_blocks(self, conj_s4):
        # sample connected subquandles and check each lies in one final block
        rng = random.Random(33)
        for q in (dihedral(12).quandle, conj_s4):
            final = maximal_decomposition(q).final
            for _ in range(200):
                seeds = rng.sample(range(q.size), rng.randint(1, 2))
                sub = generated_subquandle(q, seeds)
                if not is_connected(q, sub):
                    continue
                owner = final.block_of(min(sub))
                assert sub <= set(owner)

    def test_maximality_at_small_scale(self, conj_s3):
        # any final block extended by an outside point of the same component
        # stops generating a connected subquandle
        pool = [dihedral(6).quandle, dihedral(12).quandle, conj_s3,
                alexander_quandle(build(parse_ideal("9; t+2"))).quandle]
        for q in pool:
            dec = maximal_decomposition(q)
            level1 = dec.levels[1]
            for block in dec.final:
                component = set(level1.block_of(block[0]))
                for x in sorted(component - set(block)):
                    closure = generated_subquandle(q, set(block) | {x})
                    assert not is_connected(q, closure)


def _json_or_refusal(f, *args):
    """f(*args).to_json(), or the name of the refusal's type."""
    try:
        return f(*args).to_json()
    except ValueError as exc:
        return type(exc).__name__


def _product_or_refusal(mul, a, b):
    """mul(a, b), or the name of the type of what it raised: a ValueError
    for factors from two groups."""
    try:
        return mul(a, b)
    except Exception as exc:  # any other type shows as a changed record
        return type(exc).__name__


def tower_grid(cases=240):
    """Seeded records of every tower and of an MCQ's group products.
    Quandle tables (quandles, near-quandles, idempotent tables with
    bijective columns and random tables, in turn): the maximal
    decomposition, or the type of the refusal.  Relabelled groups: the
    conjugation decomposition.  MCQs (random small ones, whose index orbits
    may overlap, associated structures and conjugation MCQs, in turn): the
    maximal decomposition or its refusal, gmul over every pair, ginv of
    every element, and is_sub_mcq on random subsets, on a group and on a
    generated substructure."""
    rng = random.Random(4141)
    small = small_group_tables()
    for i in range(cases):
        shape, n = i % 4, rng.randint(1, 8)
        if shape == 0:
            q = _random_quandle(rng, max_size=24)
        elif shape == 1:
            q = near_quandle(rng, _random_quandle(rng, max_size=16))
        elif shape == 2:
            q = FiniteQuandle(_idempotent_bijective_table(rng, n))
        else:
            q = FiniteQuandle([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        yield "quandle", _json_or_refusal(maximal_decomposition, q)
        g = FiniteGroup(relabelled_table(rng, random_group_table(rng, small) if i % 2 else
                                         symmetric_group(rng.randint(1, 4)).mult))
        yield "group", conj_decomposition(g).to_json()
        shape = i % 3
        if shape == 0:
            x = random_small_mcq(rng)
        elif shape == 1:
            q = _random_quandle(rng, max_size=8)
            x = associated_mcq(q) if type_of(q) * q.size <= 48 else conjugation_mcq(g)
        else:
            x = conjugation_mcq(g)
        carrier = range(x.size)
        subsets = [rng.sample(carrier, rng.randint(1, x.size)) for _ in range(3)]
        subsets += [x.group_range(rng.randrange(x.group_count)),
                    generated_sub_mcq(x, rng.sample(carrier, 1))]
        yield ("mcq", _json_or_refusal(maximal_mcq_decomposition, x),
               [_product_or_refusal(x.gmul, a, b) for a in carrier for b in carrier],
               list(map(x.ginv, carrier)), [is_sub_mcq(x, s) for s in subsets])


class TestTowerGrid:
    def test_the_tower_grid_hashes_as_pinned(self):
        # any change to a tower, a refusal, a group product or a substructure verdict shows here
        records = list(tower_grid())
        texts = list(map(repr, records))
        kinds = {(r[0], r[1] if isinstance(r[1], str) else "tower") for r in records}
        assert kinds >= {("quandle", "tower"), ("quandle", "InvalidTable"), ("group", "tower"),
                         ("mcq", "tower"), ("mcq", "InvalidTable")}
        products = {p for r in records if r[0] == "mcq" for p in r[2]}
        assert "ValueError" in products and {True, False} <= {v for r in records
                                                              if r[0] == "mcq" for v in r[4]}
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "8e2e753a4e0acef241fd8e6a04c2e074ff60ed84fb43ca361c7b405d6b99921d")
