"""Column covers of augmented spaces, their nerves, and connecting maps.

A column is the cover element centered at a vertex: around a horoball vertex
(x,t) at scale j it collects the same-coset vertices (y,l) with the group
distance d(x,y) <= 2^(t+j) and t <= l <= t+j; around a Cayley vertex the
window is d(x,y) <= 2^j, 0 <= l <= j over the whole space.  A family of
columns comes as one ``complexes.PointSets``: each column's carrier
indices, increasing, as int32 compressed rows.  A cover stores its horoball
columns so; its Cayley columns, the dense ones, are searched on the ball
whenever a family asks for them and are never stored.  Covers are formal
families indexed by centers: distinct centers stay distinct nerve vertices
even when their vertex sets coincide.

Cover nerve faces are enumerated only by ``nerve``, which runs the clique
kernel (``complexes.set_nerve``) on the columns' points, and by
``core_nerve``, which runs it on the dominated-column core only, with the
retraction as core vertex indices.  Contiguity needs no nerve from its
caller: it intersects the target columns over each point's star and scans
only the nerve of the points where that intersection is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .complexes import (
    PointSets,
    SimplicialComplex,
    _common_point,
    _meet,
    _offsets,
    _set_words,
    _stars,
    set_core_nerve,
    set_nerve,
)
from .errors import (
    BudgetExceededError,
    DecompositionError,
    ScheduleMismatchError,
    vertex_budget,
)
from .graphs import SOURCE_BLOCK, Vertex, bfs
from .spaces import AugmentedSpace


class Cover:
    """All columns of one scale over an augmented space, one per center, the
    centers in the carrier's vertex order (``levels`` holds each center's
    level, so each point's too).  The first ``cayley`` columns, the Cayley
    columns of ``build_cover``, are never stored: ``columns`` searches them
    on the ball when a family asks for them.  The rest are ``stored``: the
    column at ``centers[i]``, i >= cayley, holds set i - cayley."""

    def __init__(self, space: AugmentedSpace, scale: int, centers: Iterable[Vertex],
                 stored: PointSets):
        self.space = space
        self.scale = scale
        self.centers = tuple(centers)
        self.stored = stored
        self.cayley = len(self.centers) - len(stored)
        self.pos = {c: i for i, c in enumerate(self.centers)}
        self.levels = np.fromiter((v.level for v in self.centers), np.int64, len(self.centers))

    def __len__(self):
        return len(self.centers)

    def family(self, name: str, positions: Iterable[int]) -> "Family":
        return Family(self, name, tuple(sorted(set(positions))))

    def whole(self) -> "Family":
        return Family(self, "whole", tuple(range(len(self.centers))))

    def columns(self, positions) -> PointSets:
        """The columns at the given increasing positions."""
        positions = np.asarray(positions, dtype=np.int64)
        k = int(np.searchsorted(positions, self.cayley))
        return _cayley_columns(self, positions[:k], self.stored.take(positions[k:] - self.cayley))

    def meeting(self, region: np.ndarray, name: str) -> "Family":
        """The columns that hold a point of ``region``, a boolean array over
        the points.  A Cayley column at x does when a point of the region at
        level <= scale lies within 2^scale of x: one search from all those
        points at once finds them."""
        indptr = self.stored.indptr
        # a false cell past the last point, so that every start is a cell
        hit = np.logical_or.reduceat(np.append(region[self.stored.points], False), indptr[:-1])
        hit &= indptr[1:] > indptr[:-1]
        near = np.zeros(self.cayley, dtype=bool)
        seeds = np.flatnonzero(region & (self.levels <= self.scale)) if self.cayley else ()
        if len(seeds):
            elem, ball = _elements(self.space), self.space.ball
            rank = np.full(len(ball), -1)
            rank[elem[seeds]] = 0
            near = bfs(ball.csr, rank, 0, 1, _rounds(self), None)[elem[: self.cayley], 0] != 0
        return Family(self, name, tuple(np.flatnonzero(np.append(near, hit)).tolist()))


@dataclass(frozen=True)
class Family:
    """A named subfamily of a cover; nerve vertices are its columns."""

    cover: Cover
    name: str
    positions: tuple[int, ...]

    def __len__(self):
        return len(self.positions)

    @property
    def centers(self) -> list[Vertex]:
        return [self.cover.centers[p] for p in self.positions]

    def sets(self) -> PointSets:
        """The family's columns, in order."""
        return self.cover.columns(self.positions)

    def restrict_to_centers(self, centers: Iterable[Vertex], name: str) -> "Family":
        wanted = set(centers)
        return Family(
            self.cover,
            name,
            tuple(p for p in self.positions if self.cover.centers[p] in wanted),
        )

    def by_coset(self) -> dict[int, "Family"]:
        """The family split by the coset of its centers (0 for Cayley
        columns), in coset order; the piece of coset i is named name@i."""
        pieces: dict[int, list[int]] = {}
        for p in self.positions:
            pieces.setdefault(self.cover.centers[p].coset, []).append(p)
        return {
            i: self.cover.family(f"{self.name}@{i}", ps) for i, ps in sorted(pieces.items())
        }


def build_cover(space: AugmentedSpace, scale: int) -> Cover:
    """One column per vertex of the carrier, in vertex order; cached per
    space and scale.  The level-0 vertices, one per ball element, come first
    and center the Cayley columns, which are not stored.

    A coset's vertices come next, coset by coset, a run in vertex order,
    level by level, each level its base in one order.  So a horoball column
    repeats one row of its base's matrix (``AugmentedSpace.base_distances``)
    at each of its levels."""
    if scale < 1:
        raise ValueError("cover scale must be >= 1")
    cached = space._covers.get(scale)
    if cached is not None:
        return cached
    g = space.graph
    cap = vertex_budget()
    if len(g) > cap:
        raise BudgetExceededError(f"carrier exceeds vertex budget {cap}")
    lmax = space.trunc.lmax
    elem = _elements(space)
    coset = np.fromiter((v.coset for v in g.vertices), np.int64, len(g))
    # a horoball column at (x, t): its coset's vertices at levels t..t+scale
    # within 2^(t+scale)
    local = np.empty(len(space.ball), np.int64)
    counts, points = [np.empty(0, np.int64)], [np.empty(0, np.int32)]
    for c, base in sorted(space.bases.items()):
        start, m = int(np.searchsorted(coset, c)), len(base)
        local[base] = np.arange(m)
        order = local[elem[start : start + m]]
        dist = space.base_distances[c][np.ix_(order, order)]
        for t in range(1, lmax + 1):
            near = dist <= np.int64(1 << min(t + scale, 62))
            depth = min(t + scale, lmax) - t + 1
            counts.append(near.sum(axis=1) * depth)
            # row k repeated once per level t..t+scale: its cell i is the
            # vertex start + (t - 1) * m + i
            at = np.nonzero(np.tile(near, depth))[1] + (start + (t - 1) * m)
            points.append(at.astype(np.int32))
    stored = PointSets(_offsets(np.concatenate(counts)), np.concatenate(points))
    cover = Cover(space, scale, g.vertices, stored)
    space._covers[scale] = cover
    return cover


def _elements(space: AugmentedSpace) -> np.ndarray:
    """The ball id of each vertex's element, in vertex order."""
    index = space.ball.index
    return np.fromiter((index[v.element] for v in space.graph.vertices), np.int64,
                       len(space.graph))


def _rounds(cover: Cover) -> int:
    """The search rounds of a Cayley column: 2^scale, or past every
    distance in the ball."""
    return 1 << min(cover.scale, len(cover.space.ball).bit_length())


def _cayley_columns(cover: Cover, positions: np.ndarray, rest: PointSets) -> PointSets:
    """The Cayley columns at the given positions, followed by the sets of
    ``rest``: every vertex at level <= scale within 2^scale of the center.

    The ball ids come from ``graphs.bfs`` on the ball's Cayley graph,
    ``SOURCE_BLOCK`` centers per search, capped at ``_rounds``: bit j of an
    element's bitset is then set iff it lies within 2^scale of center j
    (``groups.WordBall``).  The bitsets of the vertices at levels <= scale
    are gathered and unpacked column-major (the bytes transposed, then split
    into bits), so their true cells list each column's points."""
    if not len(positions):
        return rest
    elem, ball = _elements(cover.space), cover.space.ball
    low = np.flatnonzero(cover.levels <= cover.scale).astype(np.int32)
    rank = np.full(len(ball), -1)
    rank[elem[positions]] = np.arange(len(positions))
    counts = np.empty(len(positions) + len(rest), dtype=np.int64)
    counts[len(positions) :] = np.diff(rest.indptr)
    # the points are written in column order as they come, into an array
    # grown in place (``resize`` zero-fills only what it adds)
    points = np.empty(0, dtype=np.int32)
    for s in range(0, len(positions), SOURCE_BLOCK):
        k = min(s + SOURCE_BLOCK, len(positions)) - s
        seen = bfs(ball.csr, rank, s, s + k, _rounds(cover), None)
        # byte b of a bitset holds columns 8b..8b+7, so the gathered bytes
        # transposed and split into their bits are the block column-major
        octets = np.ascontiguousarray(seen[elem[low]].view(np.uint8).T)
        bits = np.empty((len(octets), 8, len(low)), dtype=np.uint8)
        for i in range(8):
            np.right_shift(octets, i, out=bits[:, i])
        bits &= 1
        at = np.flatnonzero(bits.view(bool).reshape(-1)[: k * len(low)])
        counts[s : s + k] = np.diff(np.searchsorted(at, np.arange(k + 1) * len(low)))
        at -= np.repeat(np.arange(k) * len(low), counts[s : s + k])
        points.resize(len(points) + len(at), refcheck=False)
        points[len(points) - len(at) :] = low[at]
    points.resize(len(points) + len(rest.points), refcheck=False)
    points[len(points) - len(rest.points) :] = rest.points
    return PointSets(_offsets(counts), points)


# -- schedules ---------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    name: str
    scale_fn: Callable[[int], int]
    slice_fn: Callable[[int], int]

    def scale(self, n: int) -> int:
        return self.scale_fn(n)

    def slice_level(self, n: int) -> int:
        return self.slice_fn(n)

    def stage(self, n: int) -> tuple[int, int]:
        """(scale, slice level) of stage n, whose slice must lie above the
        scale for a clean split."""
        scale, level = self.scale(n), self.slice_level(n)
        if level <= scale:
            raise ScheduleMismatchError(
                f"slice level {level} must exceed scale {scale} for a clean split"
            )
        return scale, level


PAPER_SCHEDULE = Schedule("paper", lambda n: 3**n, lambda n: 3**n + 1)
LINEAR_SCHEDULE = Schedule("linear", lambda n: n + 1, lambda n: n + 2)

SCHEDULES = {"paper": PAPER_SCHEDULE, "linear": LINEAR_SCHEDULE}


@dataclass(frozen=True)
class Decomposition:
    stage: int
    scale: int
    slice_level: int
    whole: Family
    thick: Family  # columns meeting levels <= N
    cusp: Family  # columns meeting levels >= N
    interface: Family  # columns meeting level N exactly
    clusters: dict[int, Family]  # interface split by horoball


def decompose(space: AugmentedSpace, n: int, schedule: Schedule) -> Decomposition:
    """Split the scale-j_n cover by the level-N_n slice and verify the
    excision identities as exact set equalities of column families."""
    scale, level = schedule.stage(n)
    cover = build_cover(space, scale)
    whole = cover.whole()
    thick = cover.meeting(cover.levels <= level, f"thick[{n}]")
    cusp = cover.meeting(cover.levels >= level, f"cusp[{n}]")
    interface = cover.meeting(cover.levels == level, f"interface[{n}]")
    if set(thick.positions) | set(cusp.positions) != set(whole.positions):
        raise DecompositionError("thick and cusp families do not cover the whole")
    if set(thick.positions) & set(cusp.positions) != set(interface.positions):
        raise DecompositionError("thick-cusp overlap differs from the interface")
    clusters = interface.by_coset()
    if 0 in clusters:
        raise DecompositionError("a Cayley column meets the slice; schedule too shallow")
    return Decomposition(n, scale, level, whole, thick, cusp, interface, clusters)


# -- nerves ------------------------------------------------------------------


def nerve(family: Family, cap: int) -> SimplicialComplex:
    """Nerve of the family: a simplex per subfamily with common intersection
    (``complexes.set_nerve`` of the columns' points)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return set_nerve(tuple(family.centers), family.sets(), cap)


def core_nerve(family: Family, cap: int) -> tuple[SimplicialComplex, dict[Vertex, int]]:
    """Nerve of the family's dominated-column core, and the retraction of the
    family's centers onto it as {center: index of its core vertex}
    (``complexes.set_core_nerve``): the full nerve's H_p for every p below
    the cap.  A map f onto the core is ``[retract[f(c)] for c in labels]``."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return set_core_nerve(tuple(family.centers), family.sets(), cap)


# -- connecting maps ---------------------------------------------------------


@dataclass(frozen=True)
class CoverMap:
    """A map of cover families given on centers; simplicial by point check."""

    source: Family
    target: Family
    center_map: Callable[[Vertex], Vertex]

    def image_positions(self) -> list[int]:
        index = {center: i for i, center in enumerate(self.target.centers)}
        images = [self.center_map(c) for c in self.source.centers]
        for image in images:
            if image not in index:
                if image not in self.target.cover.pos:
                    raise KeyError(f"no column centered at {image}")
                raise KeyError(f"column {image} not in family {self.target.name!r}")
        return [index[image] for image in images]


def contiguous_cover_maps(f: CoverMap, g: CoverMap, cap: int):
    """(True, None) when f(s) | g(s) has common intersection for each face s
    of the common source family's nerve up to the cap; otherwise (False, the
    centers of the lexicographically least failing face).

    No source nerve is built.  Every face of two or more columns has a common
    point p, and the face lies in the star of p, the columns containing p
    (Dowker, "Homology groups of relations", Annals 1952).  So if the
    intersection of the images over the star of p is nonempty, every face
    in that star passes.  The points whose star fails are ``failing``; a
    failing face has all its common points there, so the failing faces are
    exactly those of the nerve of the source columns cut to ``failing``,
    whose vertices are all the columns (singletons and empty ones included).
    That cut nerve, only its vertices when every star passes, is the one
    scanned.  The intersections f(v) & g(v) are taken as 64-bit words
    (``complexes._meet``) and ANDed over each star and each face
    (``complexes._common_point``).
    """
    if f.source is not g.source and f.source.positions != g.source.positions:
        raise ValueError("contiguity needs a common source family")
    fi, gi = f.image_positions(), g.image_positions()
    if f.target.cover is not g.target.cover:
        raise ValueError("contiguity needs a common target cover")
    # f(v) and g(v) as columns of one family, the union of the targets
    union = sorted(set(f.target.positions) | set(g.target.positions))
    index = {p: i for i, p in enumerate(union)}
    images = np.array([[index[f.target.positions[a]], index[g.target.positions[b]]]
                       for a, b in zip(fi, gi)], dtype=np.int64).reshape(-1, 2)
    rows, keyed = _set_words(f.target.cover.columns(union))
    keep, (count, position, values) = _meet(rows, images[:, 0], images[:, 1], keyed)
    counts = np.zeros(len(images), dtype=np.int64)
    counts[keep] = count
    key = np.repeat(np.arange(len(images)) * keyed[2], counts) + position
    both = (_offsets(counts), position, values), (key, values, keyed[2])
    # the intersection of ``both`` over the star of each source point
    source = f.source.sets()
    starts, members, _ = _stars(source)
    failing = ~_common_point(both, starts, members)
    cut = failing[source.points]
    centers = tuple(f.source.centers)
    cx = set_nerve(centers, PointSets(_offsets(cut)[source.indptr], source.points[cut]), cap)
    # each face list is lexicographic, so the least failing face is the least
    # of the first failures per dimension
    least = None
    for fs in cx.faces:
        q = fs.shape[1]
        fails = np.flatnonzero(~_common_point(both, np.arange(0, fs.size + 1, q), fs.ravel()))
        if len(fails):
            face = tuple(fs[fails[0]].tolist())
            if least is None or face < least:
                least = face
    if least is None:
        return True, None
    return False, tuple(centers[v] for v in least)


def connecting_map(
    space: AugmentedSpace,
    kind: str,
    n: int,
    schedule: Schedule,
    s: int | None = None,
) -> CoverMap:
    """The stage maps between cover families.

    kind = "refine":    whole cover at scale j_n -> whole cover at j_{n+1},
                        column-wise inclusion by center identity.
    kind = "inclusion": columns meeting the level-1 thick part at scale j_n
                        includes into those meeting the level-N_n thick part.
    kind = "collar":    level-N_n-meeting columns at j_n map to level-1-meeting
                        columns at j_{n+1}; horoball centers drop to level 1.
    kind = "stage-refine": level-N_n family at j_n to level-N_{n+1} at j_{n+1}
                        by center identity.
    kind = "floor":     cusp families; centers below level s are raised to s
                        (requires s within the truncation depth).
    """
    j_n, j_next = schedule.scale(n), schedule.scale(n + 1)
    level_n, level_next = schedule.slice_level(n), schedule.slice_level(n + 1)
    here, there = build_cover(space, j_n), build_cover(space, j_next)
    if kind == "refine":
        return CoverMap(here.whole(), there.whole(), lambda v: v)
    if kind == "inclusion":
        src = here.meeting(here.levels <= 1, f"near-base[{n}]")
        tgt = here.meeting(here.levels <= level_n, f"thick[{n}]")
        return CoverMap(src, tgt, lambda v: v)
    if kind == "collar":
        src = here.meeting(here.levels <= level_n, f"thick[{n}]")
        tgt = there.meeting(there.levels <= 1, f"near-base[{n + 1}]")

        def drop(v: Vertex) -> Vertex:
            return v if v.level == 0 else Vertex(v.element, 1, v.coset)

        return CoverMap(src, tgt, drop)
    if kind == "stage-refine":
        src = here.meeting(here.levels <= level_n, f"thick[{n}]")
        tgt = there.meeting(there.levels <= level_next, f"thick[{n + 1}]")
        return CoverMap(src, tgt, lambda v: v)
    if kind == "floor":
        if s is None or s < 0:
            raise ValueError("floor map needs s >= 0")
        if s > space.trunc.lmax:
            raise ValueError(f"floor level {s} beyond truncation depth {space.trunc.lmax}")
        src = here.meeting(here.levels >= level_n, f"cusp[{n}]")
        tgt = there.meeting(there.levels >= level_next, f"cusp[{n + 1}]")

        def raise_floor(v: Vertex) -> Vertex:
            return v if v.level >= s else Vertex(v.element, s, v.coset)

        return CoverMap(src, tgt, raise_floor)
    raise ValueError(f"unknown connecting map kind {kind!r}")
