"""Combinatorial horoballs, truncated augmented spaces, and their subspaces.

A horoball over a finite base puts a copy of the base at each level, joins
(p,l)-(q,l) when 0 < d(p,q) <= 2^l, and adds vertical edges.  The augmented
space glues one horoball onto each enumerated peripheral coset of a Cayley
ball; level-0 horizontal edges are the Cayley edges themselves.

``build_augmented`` computes the ball once, as a ``groups.WordBall`` of
integer element ids.  Its Cayley edges come from the BFS products, and its
coset bases from one bucketing pass per peripheral atom.  Each base's
distance matrix comes from the syllable metric, once for all levels.  The
space keeps the ball and the bases for its covers and boundary.  A second,
independently coded builder realizes the distance-one presentation of the
same space from normal forms and doubles as a cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceededError, EmptyBaseError, vertex_budget
from .graphs import MetricGraph, Vertex
from .groups import CosetTable, GroupSpec, WordBall, enumerate_cosets


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
    vof = lambda p, l: Vertex(p, l, 0 if l == 0 else 1)
    vertices = [vof(p, l) for p in points for l in levels]
    edges = []
    for l in levels:
        reach = 2**l
        for i, p in enumerate(points):
            for q in points[i + 1 :]:
                d = dist(p, q)
                if 0 < d <= reach:
                    edges.append((vof(p, l), vof(q, l)))
    for a, b in zip(levels, levels[1:]):
        if b == a + 1:
            for p in points:
                edges.append((vof(p, a), vof(p, b)))
    meta = {
        "kind": "horoball",
        "base_size": len(points),
        "levels": [levels[0], levels[-1]],
    }
    return MetricGraph(vertices, edges, meta=meta)


@dataclass(frozen=True)
class Truncation:
    """Explicit truncation of an augmented space: ball radius, horoball depth,
    number of attached horoballs (None = all cosets meeting the ball)."""

    rg: int
    lmax: int
    mmax: int | None = None

    def as_dict(self):
        return {"rg": self.rg, "lmax": self.lmax, "mmax": self.mmax}


class AugmentedSpace:
    """A truncated augmented space together with its group-side context:
    the ball as element ids, and the ids of each attached coset's base."""

    def __init__(
        self,
        spec: GroupSpec,
        peripherals: tuple[int, ...],
        trunc: Truncation,
        graph: MetricGraph,
        ball: WordBall,
        table: CosetTable,
        attached: tuple,
        bases: dict[int, list[int]],
        name: str,
    ):
        self.spec = spec
        self.peripherals = peripherals
        self.trunc = trunc
        self.graph = graph
        self.ball = ball
        self.table = table
        self.attached = attached  # CosetEntry list for horoballs actually built
        self.bases = bases  # coset index -> ball ids of the coset's base
        self.name = name
        self._covers = {}

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

    words = ball.words
    cayley = [Vertex(x, 0, 0) for x in words]
    vertices = list(cayley)
    edges = [(cayley[i], cayley[j]) for i, j in ball.edges]
    bases = {}
    for entry in attached:
        base = bases[entry.index] = ball.cosets(entry.atom)[entry.rep]
        floors = [
            [Vertex(words[i], l, entry.index) for i in base] for l in range(1, trunc.lmax + 1)
        ]
        for floor in floors:
            vertices.extend(floor)
        if len(vertices) > cap:
            raise BudgetExceededError(f"augmented space exceeds budget {cap}")
        iu, ju = np.triu_indices(len(base), 1)
        dist = ball.distances(base, base)[iu, ju]
        below = [cayley[i] for i in base]
        for l, floor in enumerate(floors, 1):
            near = dist <= 2**l
            pairs = zip(iu[near].tolist(), ju[near].tolist())
            edges.extend((floor[i], floor[j]) for i, j in pairs)
            edges.extend(zip(below, floor))
            below = floor

    meta = {
        "kind": "augmented",
        "rg": trunc.rg,
        "lmax": trunc.lmax,
        "attached": [e.index for e in attached],
        "name": name,
    }
    graph = MetricGraph(vertices, edges, meta=meta)
    return AugmentedSpace(
        spec, tuple(peripherals), trunc, graph, ball, table, tuple(attached), bases, name
    )


def build_vertex_space(
    spec: GroupSpec,
    peripherals: Sequence[int],
    rg: int,
    lmax: int,
) -> MetricGraph:
    """Distance-one presentation of the augmented space (second construction).

    Group-level horizontal edges are the distance-1 pairs of the word metric,
    horoball levels start at 1 over every enumerated coset.  Kept independent
    of build_augmented on purpose: for word metrics the two presentations
    produce the same graph, which the tests exploit as an oracle.
    """
    cap = vertex_budget()
    ball = spec.ball(rg)
    table = enumerate_cosets(spec, tuple(peripherals), rg)
    vertices = [Vertex(x, 0, 0) for x in ball]
    edges = []
    for i, x in enumerate(ball):
        for y in ball[i + 1 :]:
            if spec.word_metric(x, y) == 1:
                edges.append((Vertex(x, 0, 0), Vertex(y, 0, 0)))
    for entry in table.entries:
        base = [x for x in ball if spec.coset_rep(x, entry.atom) == entry.rep]
        vertices.extend(
            Vertex(x, l, entry.index) for x in base for l in range(1, lmax + 1)
        )
        if len(vertices) > cap:
            raise BudgetExceededError(f"vertex space exceeds budget {cap}")
        for t in range(1, lmax + 1):
            reach = 2**t
            for i, x in enumerate(base):
                for y in base[i + 1 :]:
                    d = spec.word_metric(x, y)
                    if 0 < d <= reach:
                        edges.append((Vertex(x, t, entry.index), Vertex(y, t, entry.index)))
        if lmax < 1:
            continue
        for x in base:
            edges.append((Vertex(x, 0, 0), Vertex(x, 1, entry.index)))
            for t in range(1, lmax):
                edges.append((Vertex(x, t, entry.index), Vertex(x, t + 1, entry.index)))
    meta = {"kind": "vertex-space", "rg": rg, "lmax": lmax}
    return MetricGraph(vertices, edges, meta=meta)


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
