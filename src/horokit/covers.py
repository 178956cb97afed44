"""Column covers of augmented spaces, their nerves, and connecting maps.

A column is the cover element centered at a vertex: around a horoball vertex
(x,t) at scale j it collects the same-coset vertices (y,l) with the group
distance d(x,y) <= 2^(t+j) and t <= l <= t+j; around a Cayley vertex the
window is d(x,y) <= 2^j, 0 <= l <= j over the whole space.  Column vertex
sets are bitmasks over the carrier's vertex order, so nerve faces and
contiguity reduce to integer AND.  Covers are formal families indexed by
centers: distinct centers stay distinct nerve vertices even when their
vertex sets coincide.

Cover nerve faces are enumerated only by ``nerve``, which runs the clique
kernel (``complexes.mask_nerve``) on the column masks, and by ``core_nerve``,
which runs it on the dominated-column core only, with the retraction as
core vertex indices.  Contiguity needs no nerve from its caller: it
intersects the target masks over each point's star and scans only the nerve
of the points where that intersection is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .complexes import SimplicialComplex, _set_bits, mask_core_nerve, mask_nerve
from .errors import (
    BudgetExceededError,
    DecompositionError,
    ScheduleMismatchError,
    vertex_budget,
)
from .graphs import Vertex
from .spaces import AugmentedSpace


@dataclass(frozen=True)
class Column:
    center: Vertex
    scale: int
    mask: int


class Cover:
    """All columns of one scale over an augmented space."""

    def __init__(self, space: AugmentedSpace, scale: int, columns: tuple[Column, ...]):
        self.space = space
        self.scale = scale
        self.columns = columns
        self.pos = {c.center: i for i, c in enumerate(columns)}

    def __len__(self):
        return len(self.columns)

    def level_mask(self, lo: int | None = None, hi: int | None = None) -> int:
        mask = 0
        for i, v in enumerate(self.space.graph.vertices):
            if (lo is None or v.level >= lo) and (hi is None or v.level <= hi):
                mask |= 1 << i
        return mask

    def family(self, name: str, positions: Iterable[int]) -> "Family":
        return Family(self, name, tuple(sorted(set(positions))))

    def whole(self) -> "Family":
        return Family(self, "whole", tuple(range(len(self.columns))))

    def meeting(self, region_mask: int, name: str) -> "Family":
        return Family(
            self,
            name,
            tuple(i for i, c in enumerate(self.columns) if c.mask & region_mask),
        )


@dataclass(frozen=True)
class Family:
    """A named subfamily of a cover; nerve vertices are its columns."""

    cover: Cover
    name: str
    positions: tuple[int, ...]

    def __len__(self):
        return len(self.positions)

    @property
    def columns(self) -> list[Column]:
        return [self.cover.columns[p] for p in self.positions]

    @property
    def centers(self) -> list[Vertex]:
        return [self.cover.columns[p].center for p in self.positions]

    def restrict_to_centers(self, centers: Iterable[Vertex], name: str) -> "Family":
        wanted = set(centers)
        return Family(
            self.cover,
            name,
            tuple(p for p in self.positions if self.cover.columns[p].center in wanted),
        )

    def by_coset(self) -> dict[int, "Family"]:
        """The family split by the coset of its centers (0 for Cayley
        columns), in coset order; the piece of coset i is named name@i."""
        pieces: dict[int, list[int]] = {}
        for p in self.positions:
            pieces.setdefault(self.cover.columns[p].center.coset, []).append(p)
        return {
            i: self.cover.family(f"{self.name}@{i}", ps) for i, ps in sorted(pieces.items())
        }

    def union_mask(self) -> int:
        out = 0
        for c in self.columns:
            out |= c.mask
        return out


def build_cover(space: AugmentedSpace, scale: int) -> Cover:
    """One column per vertex of the carrier; cached per space and scale.

    Distances come in blocks from the space's ``WordBall``: a Cayley
    column's from one row over the ball ids, a horoball column's from its
    coset base's matrix.  Each block of columns becomes a boolean matrix
    over the carrier's vertices, packed into one mask per row.
    """
    if scale < 1:
        raise ValueError("cover scale must be >= 1")
    cached = space._covers.get(scale)
    if cached is not None:
        return cached
    g = space.graph
    cap = vertex_budget()
    if len(g) > cap:
        raise BudgetExceededError(f"carrier exceeds vertex budget {cap}")
    ball = space.ball
    n = len(g)
    elem = np.fromiter((ball.index[v.element] for v in g.vertices), np.int64, n)
    level = np.fromiter((v.level for v in g.vertices), np.int64, n)
    coset = np.fromiter((v.coset for v in g.vertices), np.int64, n)
    masks = [0] * n
    # a Cayley column: every vertex at level <= scale within 2^scale
    low = np.flatnonzero(level <= scale)
    every = np.arange(len(ball))
    for rows in _blocks(np.flatnonzero(level == 0), max(n, len(ball))):
        near = ball.distances(elem[rows], every)[:, elem[low]] <= 2 ** min(scale, 62)
        bits = np.zeros((len(rows), n), bool)
        bits[:, low] = near
        for i, m in zip(rows.tolist(), _row_masks(bits)):
            masks[i] = m
    # a horoball column at (x, t): its coset's vertices at levels t..t+scale
    # within 2^(t+scale); a coset's vertices are contiguous in vertex order
    local = np.empty(len(ball), np.int64)
    for c, base in space.bases.items():
        span = np.flatnonzero(coset == c)
        if not len(span):
            continue
        start, width = int(span[0]), int(span[-1]) + 1 - int(span[0])
        local[base] = np.arange(len(base))
        dist = ball.distances(base, base)[:, local[elem[span]]]
        lv = level[span]
        for rows in _blocks(np.arange(len(span)), width):
            t = lv[rows, None]
            reach = 2 ** np.minimum(t + scale, 62)
            near = (dist[local[elem[span[rows]]]] <= reach) & (lv >= t) & (lv <= t + scale)
            bits = np.zeros((len(rows), width), bool)
            bits[:, span - start] = near
            for i, m in zip(span[rows].tolist(), _row_masks(bits)):
                masks[i] = m << start
    columns = tuple(Column(v, scale, m) for v, m in zip(g.vertices, masks))
    cover = Cover(space, scale, columns)
    space._covers[scale] = cover
    return cover


def _blocks(rows: np.ndarray, width: int, cells: int = 1 << 18):
    """``rows`` in consecutive blocks of about ``cells`` / ``width`` rows."""
    step = max(1, cells // max(width, 1))
    for k in range(0, len(rows), step):
        yield rows[k : k + step]


def _row_masks(bits: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, column i as bit i."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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
    thick_mask = cover.level_mask(hi=level)
    cusp_mask = cover.level_mask(lo=level)
    slice_mask = cover.level_mask(lo=level, hi=level)
    whole = cover.whole()
    thick = cover.meeting(thick_mask, f"thick[{n}]")
    cusp = cover.meeting(cusp_mask, f"cusp[{n}]")
    interface = cover.meeting(slice_mask, f"interface[{n}]")
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
    (``complexes.mask_nerve`` of the column masks)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return mask_nerve(tuple(family.centers), [c.mask for c in family.columns], cap)


def core_nerve(family: Family, cap: int) -> tuple[SimplicialComplex, dict[Vertex, int]]:
    """Nerve of the family's dominated-column core, and the retraction of the
    family's centers onto it as {center: index of its core vertex}
    (``complexes.mask_core_nerve``): the full nerve's H_p for every p below
    the cap.  A map f onto the core is ``[retract[f(c)] for c in labels]``."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return mask_core_nerve(tuple(family.centers), [c.mask for c in family.columns], cap)


# -- connecting maps ---------------------------------------------------------


@dataclass(frozen=True)
class CoverMap:
    """A map of cover families given on centers; simplicial by mask check."""

    source: Family
    target: Family
    center_map: Callable[[Vertex], Vertex]

    def image_positions(self) -> list[int]:
        index = {center: i for i, center in enumerate(self.target.centers)}
        images = [self.center_map(c.center) for c in self.source.columns]
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
    in that star passes.  The points whose star fails form the mask ``failing``;
    a failing face has all its common points there, so the failing faces are
    exactly those of the nerve of the source masks cut to ``failing``, whose
    vertices are all the columns (singletons and empty masks included).  That
    cut nerve, only its vertices when every star passes, is the one scanned.
    """
    if f.source is not g.source and f.source.positions != g.source.positions:
        raise ValueError("contiguity needs a common source family")
    fi = f.image_positions()
    gi = g.image_positions()
    if f.target.cover is not g.target.cover:
        raise ValueError("contiguity needs a common target cover")
    tmasks = [c.mask for c in f.target.columns]
    gmasks = [c.mask for c in g.target.columns]
    # the target columns of f(v) and g(v), intersected, per source vertex v
    both = [tmasks[a] & gmasks[b] for a, b in zip(fi, gi)]
    # the intersection of ``both`` over the star of each source point
    masks = [c.mask for c in f.source.columns]
    stars: dict[int, int] = {}
    for v, mask in enumerate(masks):
        for p in _set_bits(mask):
            stars[p] = stars.get(p, -1) & both[v]
    failing = 0
    for p, common in stars.items():
        if not common:
            failing |= 1 << p
    centers = tuple(f.source.centers)
    cut = mask_nerve(centers, [m & failing for m in masks], cap)
    # each face list is lexicographic, so the least failing face is the least
    # of the first failures per dimension
    both = np.array(both, dtype=object)  # python ints, ANDed per face
    least = None
    for fs in cut.faces:
        common = both[fs[:, 0]]
        for k in range(1, fs.shape[1]):
            common = common & both[fs[:, k]]
        fails = np.flatnonzero(common == 0)
        if len(fails):
            face = tuple(fs[fails[0]].tolist())
            if least is None or face < least:
                least = face
    if least is None:
        return True, None
    return False, tuple(centers[v] for v in least)


def _thick_meeting(space: AugmentedSpace, level: int, scale: int, name: str) -> Family:
    cover = build_cover(space, scale)
    return cover.meeting(cover.level_mask(hi=level), name)


def _cusp_meeting(space: AugmentedSpace, level: int, scale: int, name: str) -> Family:
    cover = build_cover(space, scale)
    return cover.meeting(cover.level_mask(lo=level), name)


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
    if kind == "refine":
        src = build_cover(space, j_n).whole()
        tgt = build_cover(space, j_next).whole()
        return CoverMap(src, tgt, lambda v: v)
    if kind == "inclusion":
        src = _thick_meeting(space, 1, j_n, f"near-base[{n}]")
        tgt = _thick_meeting(space, level_n, j_n, f"thick[{n}]")
        return CoverMap(src, tgt, lambda v: v)
    if kind == "collar":
        src = _thick_meeting(space, level_n, j_n, f"thick[{n}]")
        tgt = _thick_meeting(space, 1, j_next, f"near-base[{n + 1}]")

        def drop(v: Vertex) -> Vertex:
            return v if v.level == 0 else Vertex(v.element, 1, v.coset)

        return CoverMap(src, tgt, drop)
    if kind == "stage-refine":
        src = _thick_meeting(space, level_n, j_n, f"thick[{n}]")
        tgt = _thick_meeting(space, level_next, j_next, f"thick[{n + 1}]")
        return CoverMap(src, tgt, lambda v: v)
    if kind == "floor":
        if s is None or s < 0:
            raise ValueError("floor map needs s >= 0")
        if s > space.trunc.lmax:
            raise ValueError(f"floor level {s} beyond truncation depth {space.trunc.lmax}")
        src = _cusp_meeting(space, level_n, j_n, f"cusp[{n}]")
        tgt = _cusp_meeting(space, level_next, j_next, f"cusp[{n + 1}]")

        def raise_floor(v: Vertex) -> Vertex:
            return v if v.level >= s else Vertex(v.element, s, v.coset)

        return CoverMap(src, tgt, raise_floor)
    raise ValueError(f"unknown connecting map kind {kind!r}")
