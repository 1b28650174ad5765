"""Iterated orbit refinement down to the maximal connected decomposition.

Every tower grows from the whole set, level 0.  Level 1 is its connected
components, read by the engine's own whole-set path; from there the
refinement operator splits every block of a partition into the orbits of
that block under its own right translations.  For a finite structure the
iteration reaches a fixed point, whose blocks are the maximal connected
pieces; the number of rounds needed is the depth.

The iteration core is generic in how the components are read, so group
conjugation and the multiple conjugation quandle layer reuse it, the latter
for partitions of its group index set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .quandle import FiniteQuandle, Partition, _whole, connected_components


@dataclass(frozen=True)
class Decomposition:
    """The refinement tower: levels[0] is the whole set, each level refines
    the previous one, and levels[depth] == levels[depth + 1] == final."""

    levels: tuple[Partition, ...]
    depth: int
    final: Partition

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "levels": [level.to_json() for level in self.levels],
        }


def _tower(n: int, step: Callable[[Partition], Partition]) -> Decomposition:
    """The one level loop of every tower: levels _whole(n), step of it, ...
    up to the first level that step leaves as it is."""
    levels = [_whole(n)]
    while len(levels) < 2 or levels[-1] != levels[-2]:
        levels.append(step(levels[-1]))
    return Decomposition(tuple(levels), len(levels) - 2, levels[-1])


def iterate_refinement(n: int, components: Callable[[tuple[int, ...] | None], Partition]
                       ) -> Decomposition:
    """Iterate refinement of range(n) to a fixed point (see _tower).

    Level 1 is components(None), the components of the whole set by the
    engine's own whole-set path; each later round refines block by block,
    components(block) being a partition of its block.  Only level 0 has one
    block when a round runs (a level of one block below it equals level 0,
    and the tower has stopped), so len(level) == 1 marks the first round.
    Blocks refine independently, so processing order cannot affect the
    result.  Each round either leaves every block whole or splits some
    block into strictly smaller pieces, so the fixed point comes within
    n + 1 rounds.
    """
    return _tower(n, lambda level: components(None) if len(level) == 1 else Partition(
        piece for block in level for piece in components(block)))


def maximal_decomposition(q: FiniteQuandle) -> Decomposition:
    """The maximal connected subquandle decomposition, with the full tower."""
    return iterate_refinement(q.size, lambda block: connected_components(q, block))
