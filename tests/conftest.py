import pytest

from quandles import (MCQ, FiniteGroup, FiniteQuandle, alexander_quandle, build, conj_quandle,
                      cyclic_group, parse_ideal, symmetric_group)


@pytest.fixture(scope="session")
def six_cubic():
    """The order-36 quandle of (6; t^2+t+1), shared across test modules."""
    return alexander_quandle(build(parse_ideal("6; t^2+t+1")))


@pytest.fixture(scope="session")
def conj_s3():
    return conj_quandle(symmetric_group(3))


@pytest.fixture(scope="session")
def conj_s4():
    return conj_quandle(symmetric_group(4))


@pytest.fixture(scope="session")
def tetrahedral():
    """The connected 4-element quandle of (2; t^2+t+1)."""
    return alexander_quandle(build(parse_ideal("2; t^2+t+1")))


# Witnesses that only a later greedy pick refuses: each fails its axioms, and
# a check that kept only the first pick of action_generators would accept it.


@pytest.fixture(scope="session")
def later_pick_quandle():
    """Idempotent, columns bijective; the picks of x -> x * p are 0, 1 and 2,
    and S_0 is the identity."""
    return FiniteQuandle(((0, 0, 0, 0, 0, 0), (1, 1, 5, 5, 2, 2), (2, 5, 2, 1, 5, 1),
                          (3, 4, 1, 3, 3, 4), (4, 3, 3, 4, 4, 3), (5, 2, 4, 2, 1, 5)))


@pytest.fixture(scope="session")
def later_gamma_pick_mcq():
    """The Klein four group (xor on 0-3) and the trivial groups {4}, {5},
    {6}; the picks of the Klein group are 1 and 2, rho(1) is trivial, and
    rho(2) = rho(3) is the 3-cycle (4 5 6), so rho(2 2) = rho(0) is not
    rho(2) rho(2)."""
    klein = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])
    trivial = cyclic_group(1)
    cycle = {4: 5, 5: 6, 6: 4}
    op = [[cycle.get(x, x) if a in (2, 3) else x for a in range(7)] for x in range(7)]
    return MCQ((klein, trivial, trivial, trivial), op)


@pytest.fixture(scope="session")
def later_z_pick_mcq():
    """Z_2 on {0, 1}, {2, 3}, {4, 5} and the trivial group {6}, from a seeded
    random_small_mcq draw; S_1 swaps 2, 4 and 3, 5, S_3 swaps 0, 4 and 1, 5,
    and every other S_a is the identity."""
    z2 = cyclic_group(2)
    op = [[0, 0, 0, 4, 0, 0, 0], [1, 1, 1, 5, 1, 1, 1], [2, 4, 2, 2, 2, 2, 2],
          [3, 5, 3, 3, 3, 3, 3], [4, 2, 4, 0, 4, 4, 4], [5, 3, 5, 1, 5, 5, 5],
          [6, 6, 6, 6, 6, 6, 6]]
    return MCQ((z2, z2, z2, cyclic_group(1)), op)
