import random

from quandles import (
    Partition,
    alexander_quandle,
    build,
    connected_components,
    dihedral,
    generated_subquandle,
    is_connected,
    maximal_decomposition,
    parse_ideal,
    trivial_quandle,
)


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

