"""Combinatorial horoballs, truncated augmented spaces, and their subspaces.

A horoball over a finite base puts a copy of the base at each level, joins
(p,l)-(q,l) when 0 < d(p,q) <= 2^l, and adds vertical edges.  The augmented
space glues one horoball onto each enumerated peripheral coset of a Cayley
ball; level-0 horizontal edges are the Cayley edges themselves.

``build_augmented`` computes the ball once, as a ``groups.WordBall`` of
integer element ids.  Its Cayley edges come from the BFS products, and its
coset bases from one bucketing pass per peripheral atom.  The attached
bases' distance matrices come from one ``graphs.bfs`` search per peripheral
atom over the Cayley edges inside its cosets, once for all levels.  Both
builders give ``graphs.MetricGraph`` their edges as arrays of index pairs,
one per level.  The space keeps the ball, the bases and their matrices for
its covers and boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError, EmptyBaseError, vertex_budget
from .graphs import MetricGraph, Vertex, csr, distance_rows
from .groups import CosetTable, GroupSpec, WordBall


def interval_points(lo: int, hi: int) -> list[int]:
    """Integer interval with the absolute-value metric, as a base space."""
    return list(range(lo, hi + 1))


def _levels_in(interval, lmax: int) -> list[int]:
    lo, hi = interval
    hi = lmax if hi is None else min(hi, lmax)
    lo = max(0, lo)
    return list(range(lo, hi + 1))


def build_horoball(
    points: Sequence,
    dist: Callable[[object, object], int],
    interval: tuple[int, int | None],
    lmax: int,
) -> MetricGraph:
    """Horoball truncation over a finite base metric space.

    ``interval`` selects the levels (upper bound None means "up to lmax");
    horizontal edges join base points at distance <= 2^level, vertical edges
    join consecutive present levels.  Level-0 vertices carry coset tag 0 and
    the others coset 1, so a single-coset augmented space has the same
    labels.
    """
    points = list(points)
    if not points:
        raise EmptyBaseError("horoball base is empty")
    levels = _levels_in(interval, lmax)
    if not levels:
        raise ValueError(f"no levels in {interval} truncated at {lmax}")
    cap = vertex_budget()
    if len(points) * len(levels) > cap:
        raise BudgetExceededError(
            f"{len(points)} x {len(levels)} vertices exceed budget {cap}"
        )
    # vertex i * len(levels) + k is point i at the k-th level
    vertices = [Vertex(p, l, 0 if l == 0 else 1) for p in points for l in levels]
    iu, ju = np.triu_indices(len(points), 1)
    d = np.array([dist(points[i], points[j]) for i, j in zip(iu, ju)], float)
    at = np.arange(len(points)) * len(levels)
    edges = []
    for k, l in enumerate(levels):
        near = (0 < d) & (d <= 2**l)
        edges.append(np.stack([at[iu[near]] + k, at[ju[near]] + k], axis=1))
        if k:  # the levels are consecutive
            edges.append(np.stack([at + k - 1, at + k], axis=1))
    meta = {
        "kind": "horoball",
        "base_size": len(points),
        "levels": [levels[0], levels[-1]],
    }
    return MetricGraph(vertices, np.concatenate(edges), meta=meta)


@dataclass(frozen=True)
class Truncation:
    """Explicit truncation of an augmented space: ball radius, horoball depth,
    number of attached horoballs (None = all cosets meeting the ball)."""

    rg: int
    lmax: int
    mmax: int | None = None

    def as_dict(self):
        return {"rg": self.rg, "lmax": self.lmax, "mmax": self.mmax}


@dataclass(eq=False, repr=False)
class AugmentedSpace:
    """A truncated augmented space together with its group-side context:
    the ball as element ids, and each attached coset's base and its metric."""

    spec: GroupSpec
    peripherals: tuple[int, ...]
    trunc: Truncation
    graph: MetricGraph
    ball: WordBall
    table: CosetTable
    attached: tuple  # CosetEntry list for horoballs actually built
    bases: dict[int, list[int]]  # coset index -> ball ids of the coset's base
    base_distances: dict[int, np.ndarray]  # coset index -> its base's distance matrix
    name: str
    _covers: dict = field(default_factory=dict, init=False)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "atoms": [[a.kind, list(a.letters)] for a in self.spec.atoms],
            "peripherals": list(self.peripherals),
            "truncation": self.trunc.as_dict(),
            "vertices": len(self.graph),
        }


def build_augmented(
    spec: GroupSpec,
    peripherals: Sequence[int],
    trunc: Truncation,
    name: str = "",
) -> AugmentedSpace:
    """Cayley ball with horoballs glued along the first mmax peripheral cosets."""
    cap = vertex_budget()
    ball = WordBall(spec, trunc.rg)
    table = ball.coset_table(peripherals)
    mmax = len(table.entries) if trunc.mmax is None else trunc.mmax
    attached = table.entries[:mmax]

    bases = {e.index: ball.cosets(e.atom)[e.rep] for e in attached}
    if len(ball) + trunc.lmax * sum(map(len, bases.values())) > cap:
        raise BudgetExceededError(f"augmented space exceeds budget {cap}")
    base_distances = _base_distances(ball, attached, bases)

    # vertex i < len(ball) is the ball's element i; each floor follows
    words = ball.words
    vertices = [Vertex(x, 0, 0) for x in words]
    edges = [ball.edges]
    for entry in attached:
        base = np.array(bases[entry.index], np.intp)
        iu, ju = np.triu_indices(len(base), 1)
        dist = base_distances[entry.index][iu, ju]
        below = base
        for l in range(1, trunc.lmax + 1):
            floor = np.arange(len(vertices), len(vertices) + len(base))
            vertices.extend(Vertex(words[i], l, entry.index) for i in bases[entry.index])
            near = dist <= 2**l
            edges.append(np.stack([floor[iu[near]], floor[ju[near]]], axis=1))
            edges.append(np.stack([below, floor], axis=1))
            below = floor

    meta = {
        "kind": "augmented",
        "rg": trunc.rg,
        "lmax": trunc.lmax,
        "attached": [e.index for e in attached],
        "name": name,
    }
    graph = MetricGraph(vertices, np.concatenate(edges), meta=meta)
    return AugmentedSpace(
        spec, tuple(peripherals), trunc, graph, ball, table, tuple(attached), bases,
        base_distances, name,
    )


def _base_distances(ball: WordBall, attached, bases) -> dict[int, np.ndarray]:
    """Each attached base's distance matrix, from one ``graphs.bfs`` search
    per peripheral atom.  The Cayley edges with both ends in one coset of the
    atom split the ball into its cosets, and inside a base they give its
    metric (``groups.WordBall``, steps 2 and 3).  So search column j is
    seeded at the j-th element of every attached base of the atom at once."""
    eu, ev = ball.edges.T
    out = {}
    for atom in sorted({e.atom for e in attached}):
        coset = np.empty(len(ball), np.intp)
        for k, ids in enumerate(ball.cosets(atom).values()):
            coset[ids] = k
        mine = {e.index: bases[e.index] for e in attached if e.atom == atom}
        rank = np.full(len(ball), -1)
        for base in mine.values():
            rank[base] = np.arange(len(base))
        inside = coset[eu] == coset[ev]
        rows = np.empty((max(map(len, mine.values())), len(ball)), np.int32)
        distance_rows(csr(len(ball), eu[inside], ev[inside]), rank, rows)
        for index, base in mine.items():
            out[index] = rows[: len(base), base]
    return out


def boundary_vertices(space: AugmentedSpace) -> set[Vertex]:
    """Outer shell of the truncation: the Cayley sphere at the ball radius,
    the top horoball slice, and Cayley vertices whose coset has no horoball."""
    rg, lmax = space.trunc.rg, space.trunc.lmax
    words = space.ball.words
    covered = {words[i] for base in space.bases.values() for i in base}
    out = set()
    for v in space.graph.vertices:
        if v.level == lmax:
            out.add(v)
        elif v.level == 0 and (len(v.element) == rg or v.element not in covered):
            out.add(v)
    return out


def interior_window(space: AugmentedSpace, scale: int) -> set[Vertex]:
    """Vertices at graph distance >= scale+1 from the truncation boundary.

    The margin grows linearly with the cover scale; the exponential margin
    2^(scale+1) empties every affordable truncation of a group with
    exponential growth, so the linear rule is used throughout.
    """
    g = space.graph
    boundary = boundary_vertices(space)
    if not boundary:
        return set(g.vertices)
    row = g.multi_source_distances(boundary)
    need = scale + 1
    return {g.vertices[i] for i, d in enumerate(row) if d < 0 or d >= need}
