"""Committed mutants: every scan and shortcut keeps a killer that fails on it.

Each registry entry names a function, an exact snippet of its source, the
snippet's replacement and a killer.  The test checks through
inspect.getsource that the snippet occurs exactly once, so a refactor that
moves the code fails here and the entry moves with it; it then compiles the
mutated function in a copy of its module's namespace, installs it with
monkeypatch on every package module that binds the function, and asserts
that the killer fails.  A killer is a committed pin or test, or a short seeded
slice of a verify suite; each passes unmutated (test_every_killer_passes).
"""

import __future__
import hashlib
import inspect
import random
import sys
import textwrap
from typing import Callable, NamedTuple

import pytest

import test_alexander
import test_group
import test_mcq
import test_quandle
from quandles import FiniteGroup, alexander, check_group, decomposition, group, mcq, quandle, verify


def witness_slice():
    """The first 150 cases of the witness grid (see test_quandle.witness_grid),
    every verdict and witness hashed."""
    texts = [repr(verdicts) for _, _, verdicts in test_quandle.witness_grid(150)]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "8c49f64154ca9871c7114e953eda2de3ca9dc2d43516a2803a7112a7f75280b0")


def reach_slice():
    """The first 80 cases of the reach grid (see test_quandle.reach_grid):
    orbits, closures and greedy picks hashed."""
    texts = [repr(record) for record in test_quandle.reach_grid(80)]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "1f526a801367fda25db8a8bfcc60720d9db771594e8efaebe61b19d2bdf6011c")


def no_failures(suite, cases):
    """A seeded slice of a verify suite: it must count no failure."""
    def killer():
        assert suite(random.Random(39), cases) == 0
    killer.__name__ = f"{suite.__name__}[{cases}]"
    return killer


def b_only_table():
    """The committed table that only check (B) of is_associative refuses."""
    assert check_group(FiniteGroup(test_group._b_only_table())) is not None


def r720_collision():
    test_quandle.TestAxioms().test_a_collision_in_the_last_column_of_r720()


def overlapping_index_orbits():
    test_mcq.TestLambdaOrbits().test_overlapping_index_orbits_are_refused()


def equivariance_mismatch():
    test_mcq.TestAxioms().test_equivariance_fails_first_at_a_group_mismatch()


def identity_that_moves_an_element():
    test_mcq.TestAxioms().test_a_trivial_group_whose_identity_moves_an_element()


def self_distributive_but_not_equivariant():
    test_mcq.TestAxioms().test_self_distributive_but_not_equivariant()


def non_idempotent_singleton():
    test_mcq.TestSubMcq().test_non_idempotent_singleton()


def sixty_four_dihedral():
    test_alexander.TestAlexanderDecomposition().test_sixty_four_dihedral()


class Mutant(NamedTuple):
    module: object
    function: str
    snippet: str
    replacement: str
    killer: Callable[[], None]


MUTANTS = {
    # the witness scans: scan orders, the equivariance group test, the last
    # failing column and the identity-action scan
    "quandle-self-distributivity-in-b-a-c-order": Mutant(
        quandle, "_first_violation",
        "for a, ra in enumerate(t) for b, rb in enumerate(t)",
        "for b, rb in enumerate(t) for a, ra in enumerate(t)", witness_slice),
    "associativity-in-b-a-c-order": Mutant(
        group, "_first_nonassociative",
        "for a, ra in enumerate(m) for b, rb in enumerate(m)",
        "for b, rb in enumerate(m) for a, ra in enumerate(m)", witness_slice),
    "mcq-self-distributivity-in-y-x-z-order": Mutant(
        mcq, "_first_violation",
        "for xx, rx in enumerate(op) for y, ry in enumerate(op)",
        "for y, ry in enumerate(op) for xx, rx in enumerate(op)", witness_slice),
    "equivariance-without-its-group-test": Mutant(
        mcq, "_first_violation", "group_of[ax] != group_of[bx] or ", "", equivariance_mismatch),
    "columns-from-the-last-failing-column": Mutant(
        quandle, "check_columns", "enumerate(zip(*q.table))",
        "reversed(list(enumerate(zip(*q.table))))", witness_slice),
    "mcq-identity-action-scan-skipped": Mutant(
        mcq, "_first_violation", "for e in identities if row[e] != xx",
        "for e in identities if False", witness_slice),
    # the certificates and shortcuts
    "associativity-without-the-tree-check": Mutant(
        group, "is_associative", "any(m[y] != row for", "any(False for",
        no_failures(verify.suite_group_assoc_certificate, 40)),
    "associativity-without-the-commuting-picks": Mutant(
        group, "is_associative", "any(through_s(col) != through_col(m[s]) for",
        "any(False for", b_only_table),
    "cayley-walk-yields-the-row-of-z": Mutant(
        group, "_cayley_walk", "yield y, through(row)", "yield y, row",
        no_failures(verify.suite_group_generators, 4)),
    "tower-step-from-the-whole-level": Mutant(
        alexander, "_image_step", "image = level[0]",
        "image = [x for block in level for x in block]",
        no_failures(verify.suite_image_tower, 20)),
    "tower-without-its-repeated-final-level": Mutant(
        decomposition, "_tower", "Decomposition(tuple(levels), len(levels) - 2, levels[-1])",
        "Decomposition(tuple(levels[:-1]), len(levels) - 2, levels[-1])",
        sixty_four_dihedral),
    "columns-fast-path-always-passing": Mutant(
        quandle, "check_columns", "if len(set(col)) != n", "if False", r720_collision),
    "distributivity-on-the-first-y-only": Mutant(
        quandle, "_distributes", "for y in ys:", "for y in ys[:1]:",
        no_failures(verify.suite_axiom_generators, 40)),
    "mcq-certificate-without-the-identity-column": Mutant(
        mcq, "_holds", "if cols[e] != carrier:", "if False:", identity_that_moves_an_element),
    "mcq-certificate-without-product-equivariance": Mutant(
        mcq, "_holds", "if op[grows[a][local[b]]] != list(",
        "if False and op[grows[a][local[b]]] != list(",
        self_distributive_but_not_equivariant),
    "sub-mcq-without-the-group-products": Mutant(
        mcq, "_sub_mcq_products", "return op[a][b], op[b][a], x.gmul(a, b), x.gmul(b, a)",
        "return op[a][b], op[b][a]", non_idempotent_singleton),
    "orbits-without-the-overlap-check": Mutant(
        quandle, "orbits", "if not seen.isdisjoint(block):", "if False:",
        overlapping_index_orbits),
    # the reach walk and the three walks that grow their sets through it
    "reach-after-its-first-round": Mutant(
        quandle, "_reach", "while fresh:", "if fresh:", reach_slice),
    "closure-taking-products-in-one-order": Mutant(
        quandle, "closure", "for y in products(a, b)", "for y in products(a, b)[::2]",
        reach_slice),
    "orbits-following-one-move-per-point": Mutant(
        quandle, "orbits", "set(chain.from_iterable(map(moves, fresh)))",
        "{y for x in fresh for y in list(moves(x))[:1]}", reach_slice),
}


def mutated(entry: Mutant):
    """The function of the entry with its snippet replaced, compiled in a
    copy of its module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(entry.module, entry.function)))
    assert source.count(entry.snippet) == 1, entry.snippet
    code = compile(source.replace(entry.snippet, entry.replacement), f"<mutant {entry.function}>",
                   "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(vars(entry.module))
    exec(code, namespace)
    return namespace[entry.function]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_is_killed(name, monkeypatch):
    entry = MUTANTS[name]
    original, mutant = getattr(entry.module, entry.function), mutated(entry)
    # every package module that binds the function, by import or as its home
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "quandles"]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, mutant)
    # a failed assertion, an exception, or a committed test's own failure
    with pytest.raises((Exception, pytest.fail.Exception)):
        entry.killer()


@pytest.mark.parametrize("killer", sorted({entry.killer for entry in MUTANTS.values()},
                                          key=lambda k: k.__name__),
                         ids=lambda k: k.__name__)
def test_every_killer_passes(killer):
    killer()
