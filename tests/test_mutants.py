"""Committed mutants: every scan and shortcut keeps a killer that fails on it.

Each registry entry names a function (or a method, as Class.method), an
exact snippet of its source, the snippet's replacement and a killer.  The
test checks through inspect.getsource that the snippet occurs exactly once,
so a refactor that moves the code fails here and the entry moves with it; it
then compiles the mutated function in a copy of its module's namespace,
installs it with monkeypatch where the function is defined and on every
package or test module that binds it, and asserts that the killer fails.
A killer is a committed pin or test, or a short seeded slice of a verify
suite; each passes unmutated (test_every_killer_passes).
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
import test_decomposition
import test_group
import test_mcq
import test_quandle
import test_tmodule
from quandles import (FiniteGroup, alexander, check_group, conj_quandle, connected_components,
                      decomposition, group, mcq, quandle, symmetric_group, tmodule, verify)


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


def tower_slice():
    """The first 30 cases of the tower grid (see test_decomposition.tower_grid):
    towers, group products and substructure verdicts hashed."""
    texts = [repr(record) for record in test_decomposition.tower_grid(30)]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "8ee5a34d695edb944476432e48a411743611d37b7327599598b2f94ba459bbe4")


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


def non_invertible_action():
    test_tmodule.TestInverseAction().test_a_non_invertible_action_is_refused()


def seeded_inverse_actions():
    test_tmodule.TestInverseAction().test_seeded_modules_match_the_search()


def transposition_block():
    """The committed witness of the block picks (the conj-block case of
    test_quandle's first-pick mutants): the transpositions of S3."""
    g, block = symmetric_group(3), test_quandle._TRANSPOSITIONS
    assert group.conj_components(g, block) == connected_components(conj_quandle(g), block)


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
        mcq, "_sub_mcq_products",
        "return op[a][b], op[b][a], grows[a][local[b]], grows[b][local[a]]",
        "return op[a][b], op[b][a]", non_idempotent_singleton),
    "group-product-across-two-groups": Mutant(
        mcq, "MCQ.gmul", "if self.group_of[a] != self.group_of[b]:", "if False:", tower_slice),
    "conj-block-from-its-first-pick": Mutant(
        group, "conj_components", "lambda x, p: m[m[inv[p]][x]][p])",
        "lambda x, p: m[m[inv[p]][x]][p])[:1]", transposition_block),
    # the inverse action read off one Smith form
    "inverse-action-without-its-refusal": Mutant(
        tmodule, "_invert_action", "if any(d[i][i] != 1 for i in range(r)):", "if False:",
        non_invertible_action),
    "inverse-action-without-its-final-row-reduction": Mutant(
        tmodule, "_invert_action",
        "inv = _row_reduce(mat_mul(_row_reduce([row[:r] for row in v[:r]], mods), u), mods)",
        "inv = mat_mul(_row_reduce([row[:r] for row in v[:r]], mods), u)", seeded_inverse_actions),
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


def site(entry: Mutant):
    """(owner, name): the module and the function's name, or the class and
    the method's name for a Class.method entry."""
    *outer, name = entry.function.split(".")
    owner = entry.module
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def mutated(entry: Mutant):
    """The function of the entry with its snippet replaced, compiled in a
    copy of its module's namespace."""
    owner, name = site(entry)
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(entry.snippet) == 1, entry.snippet
    code = compile(source.replace(entry.snippet, entry.replacement), f"<mutant {entry.function}>",
                   "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(vars(entry.module))
    exec(code, namespace)
    return namespace[name]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_is_killed(name, monkeypatch):
    entry = MUTANTS[name]
    (owner, attr), mutant = site(entry), mutated(entry)
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, mutant)
    # every package or test module that binds the function by import
    for module in [m for key, m in list(sys.modules.items())
                   if key.split(".")[0] == "quandles" or key.startswith("test_")]:
        for binding, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, binding, mutant)
    # a failed assertion, an exception, or a committed test's own failure
    with pytest.raises((Exception, pytest.fail.Exception)):
        entry.killer()


@pytest.mark.parametrize("killer", sorted({entry.killer for entry in MUTANTS.values()},
                                          key=lambda k: k.__name__),
                         ids=lambda k: k.__name__)
def test_every_killer_passes(killer):
    killer()
