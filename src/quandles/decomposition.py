"""Iterated orbit refinement down to the maximal connected decomposition.

The refinement operator splits every block of a partition into the orbits of
that block under its own right translations.  For a finite structure the
iteration reaches a fixed point, whose blocks are the maximal connected
pieces; the number of rounds needed is the depth.

The iteration core is generic in how a block is refined, so the multiple
conjugation quandle layer reuses it for partitions of its group index set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

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


def _tower(start: Partition, step: Callable[[Partition], Partition]) -> Decomposition:
    """The one level loop of every tower: levels start, step(start), ...
    up to the first level that step leaves as it is."""
    levels = [start]
    while len(levels) < 2 or levels[-1] != levels[-2]:
        levels.append(step(levels[-1]))
    return Decomposition(tuple(levels), len(levels) - 2, levels[-1])


def iterate_refinement(start: Partition,
                       refine_block: Callable[[tuple[int, ...]], Iterable[Iterable[int]]]
                       ) -> Decomposition:
    """Iterate block-wise refinement from `start` to a fixed point (see _tower).

    `refine_block` must return a partition of its block; blocks refine
    independently, so processing order cannot affect the result.  Each round
    either leaves every block whole or splits some block into strictly
    smaller pieces, so the fixed point comes within (largest block size + 1)
    rounds.
    """
    return _tower(start, lambda level: Partition(
        tuple(piece) for block in level for piece in refine_block(block)))


def maximal_decomposition(q: FiniteQuandle) -> Decomposition:
    """The maximal connected subquandle decomposition, with the full tower."""
    return iterate_refinement(_whole(q.size), lambda block: connected_components(q, block))
