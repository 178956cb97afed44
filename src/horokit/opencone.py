"""Discretized open cones over finite subsets of a unit sphere.

A finite base metric space is embedded (exactly or with recorded distortion)
into the unit sphere of a small Euclidean space; the cone collects scalar
multiples of the base points on a dyadic parameter grid.  Level nets are
greedy 1-nets whose covering property is checked exhaustively, and the cone
covers at scale 3^i feed a nerve tower whose homology stabilization is
reported through the tower calculus; each scale's balls are the rows of one
boolean center-by-point matrix, passed on as point lists
(``complexes.point_sets``).  Distance comparisons happen on squared values,
which are exact for dyadic fixtures.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .complexes import SimplicialMap, point_sets, set_core_nerve
from .errors import BudgetExceededError, EmbeddingError, vertex_budget
from .homology import DegreeCoordinates, induced_map
from .towers import Tower, direct_limit_report

COVER_CELL_LIMIT = 1_000_000  # distance tests of the cover balls: centers x points x scales
GRID_STEP = Fraction(1, 4)  # the radial grid step of an embedded cone


@dataclass(frozen=True)
class ConePoint:
    ray: int  # index of the base point
    t: Fraction  # radial parameter

    def coords(self, base: np.ndarray) -> np.ndarray:
        return float(self.t) * base[self.ray]


@dataclass
class ConedSpace:
    base: np.ndarray  # unit vectors, one row per base point
    levels: int
    grid_step: Fraction
    distortion: float
    size: int = field(init=False)  # grid points, counted before any is built

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if not 0 < self.grid_step < Fraction(1, 2):
            raise ValueError("grid step must lie in (0, 1/2) for conclusive ball checks")
        self._steps = int(self.levels / self.grid_step)  # t = step, 2 step, ..., up to levels
        self.size, cap = 1 + self._steps * len(self.base), vertex_budget()
        if self.size > cap:
            raise BudgetExceededError(
                f"opencone: cone grid of {self.size} points is over the budget of {cap} points"
            )

    @cached_property
    def points(self) -> list[ConePoint]:
        """The grid, built on first use: the apex once, then one point per ray
        at each t.  t never decreases, so levels and bands are bisected out of
        the sorted t values."""
        step = self.grid_step
        return [ConePoint(0, Fraction(0))] + [
            ConePoint(ray, k * step)
            for k in range(1, self._steps + 1)
            for ray in range(len(self.base))
        ]

    @cached_property
    def _ts(self) -> list[Fraction]:
        return [p.t for p in self.points]

    @cached_property
    def _xyz(self) -> np.ndarray:
        return np.array([p.coords(self.base) for p in self.points])

    def dist2(self, i: int, j: int) -> float:
        d = self._xyz[i] - self._xyz[j]
        return float(d @ d)

    def level_points(self, n: int) -> list[int]:
        """Indices of the exact level-n points (one per ray)."""
        return self.band_points(n, n)

    def band_points(self, lo: Fraction, hi: Fraction) -> list[int]:
        return list(range(bisect_left(self._ts, lo), bisect_right(self._ts, hi)))


def embed_and_cone(
    dist_matrix,
    dim: int,
    levels: int,
    max_distortion: float = 1.5,
    coords=None,
) -> ConedSpace:
    """Embed a finite metric space in the unit sphere and build its cone on
    the ``GRID_STEP`` grid.

    With explicit coordinates the embedding is taken as given (distortion
    still measured); otherwise a classical-scaling fit is used and the rows
    are normalized onto the sphere.  The achieved metric distortion (max
    expansion times max contraction) is recorded and gated.
    """
    d = np.asarray(dist_matrix, dtype=float)
    m = d.shape[0]
    if coords is not None:
        x = np.asarray(coords, dtype=float)
    else:
        # classical scaling, then radial projection to the sphere
        h = np.eye(m) - np.ones((m, m)) / m
        b = -0.5 * h @ (d**2) @ h
        w, v = np.linalg.eigh(b)
        idx = np.argsort(w)[::-1][:dim]
        w = np.clip(w[idx], 0, None)
        x = v[:, idx] * np.sqrt(w)
    norms = np.linalg.norm(x, axis=1)
    if (norms < 1e-9).any():
        x = x + 1e-6  # nudge a degenerate fit off the origin
        norms = np.linalg.norm(x, axis=1)
    x = x / norms[:, None]
    expansion = contraction = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            e = float(np.linalg.norm(x[i] - x[j]))
            if d[i, j] > 0:
                expansion = max(expansion, e / d[i, j])
                contraction = max(contraction, d[i, j] / e if e > 0 else np.inf)
    distortion = float(expansion * contraction)
    if distortion > max_distortion:
        raise EmbeddingError(distortion, max_distortion)
    return ConedSpace(x, levels, GRID_STEP, distortion)


@dataclass
class LevelNet:
    level: int
    centers: list[int]  # point indices at the exact level
    covered: bool

    def as_dict(self):
        return {"level": self.level, "centers": len(self.centers), "covered": self.covered}


def build_net(cone: ConedSpace, level: int) -> LevelNet:
    """Greedy farthest-point 1-net on the exact level points, verified."""
    pts = cone.level_points(level)
    if not pts:
        raise ValueError(f"level {level} not populated")
    centers = [pts[0]]
    while True:
        best, best_d2 = None, 1.0
        for p in pts:
            d2 = min(cone.dist2(p, c) for c in centers)
            if d2 > best_d2:
                best, best_d2 = p, d2
        if best is None:
            break
        centers.append(best)
    covered = all(min(cone.dist2(p, c) for c in centers) <= 1.0 for p in pts)
    return LevelNet(level, centers, covered)


def band_cover_check(cone: ConedSpace, net: LevelNet, level: int) -> bool:
    """Radius-2 balls at the net centers cover the grid band one level out."""
    lo = Fraction(max(level - 1, 0))
    hi = Fraction(min(level + 1, cone.levels))
    band = cone.band_points(lo, hi)
    return all(
        min(cone.dist2(p, c) for c in net.centers) <= 4.0 for p in band
    )


@dataclass
class ConeCoverReport:
    scales: list[int]
    covering: list[bool]
    h0_tower: dict
    h1_tower: dict
    pen_inclusion: bool

    def as_dict(self):
        return {
            "scales": self.scales,
            "covering": self.covering,
            "h0_tower": self.h0_tower,
            "h1_tower": self.h1_tower,
            "pen_inclusion": self.pen_inclusion,
        }


def tower_budget(cone: ConedSpace, i_max: int, centers: int | None = None) -> None:
    """Refuse a cover tower of more than ``COVER_CELL_LIMIT`` distance tests,
    centers x points x scales.  With ``centers`` unknown, before any net is
    built, the level count stands in for it: each level's net has at least
    one center, so the count is a lower bound on the tower's tests.  The
    points are counted, not built, so a refused tower builds no grid."""
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    n = cone.levels if centers is None else centers
    cells = n * cone.size * i_max
    if cells > COVER_CELL_LIMIT:
        raise BudgetExceededError(
            f"opencone: cover tower of {'at least ' if centers is None else ''}{n} "
            f"centers, {cone.size} points and {i_max} scales needs "
            f"{cells} distance tests, over the budget of {COVER_CELL_LIMIT}"
        )


def cone_cover_tower(cone: ConedSpace, nets: list[LevelNet], i_max: int) -> ConeCoverReport:
    """Covers by 3^i-balls at all net centers and their nerve tower.

    Elements keep their center identity across scales, so the refinement
    maps are vertex-wise and simplicial; degree-0 and degree-1 homology
    towers are handed to the stabilization report.  Both degrees lie below
    the nerve cap 2, so each scale's nerve is that of its dominated-column core
    (``complexes.set_core_nerve``), and the refinement from scale k to k+1
    is r_{k+1} ∘ j_k: the balls only grow, so a face stays a face.
    """
    centers = [c for net in nets for c in net.centers]
    tower_budget(cone, i_max, len(centers))
    # no two points lie farther apart than twice the largest norm, so every
    # larger radius takes every point (and 3**i may not fit a float)
    reach = 2 * float(np.sqrt((cone._xyz**2).sum(axis=1).max()))
    # each distance once; every scale's balls compare the same values
    d2 = np.array(
        [[cone.dist2(c, j) for j in range(len(cone.points))] for c in centers], dtype=float
    ).reshape(len(centers), len(cone.points))
    complexes = []
    retractions = []
    covering = []
    scales = list(range(1, i_max + 1))
    for i in scales:
        r2 = float(3**i) ** 2 if 3**i <= reach else math.inf
        near = d2 <= r2
        covering.append(bool(near.any(axis=0).all()))
        cx, retract = set_core_nerve(list(range(len(centers))), point_sets(near), 2)
        complexes.append(cx)
        retractions.append(retract)
    refinements = [
        SimplicialMap(complexes[k], complexes[k + 1],
                      [retractions[k + 1][c] for c in complexes[k].labels], name=f"refine{k}")
        for k in range(len(complexes) - 1)
    ]
    towers = {}
    for degree in (0, 1):
        coords = [DegreeCoordinates(cx, degree) for cx in complexes]
        maps = [
            induced_map(smap, degree, coords[k], coords[k + 1])
            for k, smap in enumerate(refinements)
        ]
        tower = Tower("inductive", [c.group for c in coords], maps)
        towers[degree] = direct_limit_report(tower).as_dict()
    # penumbra inclusion: cover elements are cut to cone points, so every
    # covered point is at distance zero from the cone, within every 3^i
    pen_ok = all(cone.dist2(c, c) == 0.0 for c in centers)
    return ConeCoverReport(scales, covering, towers[0], towers[1], pen_ok)


def cone_to_json(cone: ConedSpace) -> dict:
    return {
        "format": "horokit-cone",
        "version": 1,
        "base": [[float(x) for x in row] for row in cone.base],
        "levels": cone.levels,
        "grid_step": [cone.grid_step.numerator, cone.grid_step.denominator],
        "distortion": cone.distortion,
    }


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def cone_from_json(data: dict) -> ConedSpace:
    """The cone of a ``cone_to_json`` file; every field is checked before use,
    and a bad one raises ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError("a cone file holds one JSON object")
    base = data["base"]
    if not (isinstance(base, list) and base
            and all(isinstance(row, list) and row and len(row) == len(base[0])
                    and all(_is_number(x) for x in row) for row in base)):
        raise ValueError("base must be a non-empty list of equal-length numeric rows")
    levels = data["levels"]
    if type(levels) is not int:
        raise ValueError(f"levels must be an integer, got {levels!r}")
    distortion = data.get("distortion", 1.0)
    if not _is_number(distortion):
        raise ValueError(f"distortion must be a number, got {distortion!r}")
    num_den = data["grid_step"]
    if not (isinstance(num_den, list) and len(num_den) == 2
            and all(type(x) is int for x in num_den) and num_den[1]):
        raise ValueError(
            f"grid step must be [numerator, denominator], two integers with a "
            f"nonzero denominator, got {num_den!r}"
        )
    step = Fraction(*num_den)
    return ConedSpace(np.array(base, dtype=float), levels, step, float(distortion))


def cone_fixture(name: str, levels: int = 4) -> ConedSpace:
    """Named cone fixtures used across the verification suite."""
    if name == "two_rays":
        coords = np.array([[1.0], [-1.0]])
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        return embed_and_cone(dist, 1, levels, coords=coords)
    if name == "circle4":
        coords = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        dist = np.array(
            [[np.linalg.norm(coords[i] - coords[j]) for j in range(4)] for i in range(4)]
        )
        return embed_and_cone(dist, 2, levels, coords=coords)
    if name == "graph6":
        # six-cycle graph metric, fit into three dimensions with distortion
        dist = np.array(
            [[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)]
        )
        return embed_and_cone(dist, 3, levels, max_distortion=4.0)
    raise KeyError(f"unknown cone fixture {name!r}")


def adversarial_net(cone: ConedSpace, level: int) -> LevelNet:
    """A deliberately broken net: one center only, first ray. Violates the
    level covering whenever another ray sits farther than distance one."""
    pts = cone.level_points(level)
    centers = [pts[0]]
    covered = all(min(cone.dist2(p, c) for c in centers) <= 1.0 for p in pts)
    return LevelNet(level, centers, covered)
