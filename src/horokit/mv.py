"""Mayer-Vietoris verification at the nerve-homology level.

A stage assembles the thick/cusp/interface families of one cover scale
(restricted to the interior window), builds the nerves of their
dominated-column cores (``covers.core_nerve``) and the maps between them,
each one vertex list through the target's retraction, and checks exactness of

    H_p(interface) -> H_p(thick) + H_p(cusp) -> H_p(whole)

with the (incoming, -outgoing) sign convention, plus the connecting-map
slots via an explicit chain-level snake.  Only degrees below the nerve cap
are asked for, where a core nerve has the full nerve's homology.  The
cusp-vanishing check, the cluster decomposition of the interface and the
half-line tower demonstration live here too.  Every family of sets here is
point lists (``complexes.PointSets``): the clusters are disjoint when their
point sets are, and the demonstration's unit balls are lists of indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import SimplicialMap, point_sets, push_faces, set_nerve
from .covers import (
    CoverMap,
    Family,
    Schedule,
    connecting_map,
    contiguous_cover_maps,
    core_nerve,
    decompose,
)
from .errors import DecompositionError, EmptyWindowError
from .homology import (
    AbelianGroup,
    DegreeCoordinates,
    GroupMap,
    canonical_type,
    chain_image,
    concat_maps,
    direct_sum_group,
    exactness_check,
    homology_type,
    induced_map,
    stack_maps,
)
from .snf import kernel_budget
from .spaces import AugmentedSpace, interior_window
from .towers import Tower, inverse_limit, ml_lim1


# -- stage assembly -----------------------------------------------------------


@dataclass
class MVStage:
    """One stage's excision triple below the cap.  Each family's nerve is the
    nerve of its dominated-column core (``covers.core_nerve``), with H_p of
    the full nerve for every p < cap; the maps between cores are r_B ∘ incl ∘
    j_A, which the core isomorphisms conjugate to the full inclusions, so
    every exactness verdict and group type is the full nerves'."""

    stage: int
    cap: int
    window_size: int
    nerves: dict  # whole/thick/cusp/interface -> SimplicialComplex (of the core)
    coords: dict  # (key, degree) -> DegreeCoordinates
    inclusions: dict  # ("interface","thick") etc -> SimplicialMap
    retractions: dict  # key -> {center of the family: index of its core vertex}

    def degrees(self):
        return range(0, self.cap)


_MAPS = {
    ("interface", "thick"): "int->thick",
    ("interface", "cusp"): "int->cusp",
    ("thick", "whole"): "thick->whole",
    ("cusp", "whole"): "cusp->whole",
}


def assemble_mv(
    space: AugmentedSpace,
    n: int,
    schedule: Schedule,
    cap: int,
) -> MVStage:
    """Build the stage-n excision triple, restricted to the interior window,
    with core nerves and homology coordinates; no full nerve is built.

    An empty interior window is refused before the cover is built."""
    scale, _ = schedule.stage(n)
    window = interior_window(space, scale)
    if not window:
        raise EmptyWindowError(
            f"no interior vertices at scale {scale}; truncation too small"
        )
    dec = decompose(space, n, schedule)
    fams = {
        "whole": dec.whole.restrict_to_centers(window, "whole|win"),
        "thick": dec.thick.restrict_to_centers(window, "thick|win"),
        "cusp": dec.cusp.restrict_to_centers(window, "cusp|win"),
        "interface": dec.interface.restrict_to_centers(window, "interface|win"),
    }
    if not fams["whole"].positions:
        raise EmptyWindowError("interior window contains no column centers")
    return _core_stage(fams, cap, n, len(window))


def _core_stage(fams: dict, cap: int, n: int, window_size: int) -> MVStage:
    """Stage n of four families on their cores."""
    nerves, retractions = {}, {}
    for k, f in fams.items():
        nerves[k], retractions[k] = core_nerve(f, cap=cap)
    coords = {(k, p): DegreeCoordinates(cx, p) for k, cx in nerves.items() for p in range(cap)}
    inclusions = {
        (a, b): SimplicialMap(
            nerves[a], nerves[b], [retractions[b][c] for c in nerves[a].labels],
            check=False, name=name,
        )
        for (a, b), name in _MAPS.items()
    }
    return MVStage(n, cap, window_size, nerves, coords, inclusions, retractions)


def _snake_matrix(stage: MVStage, p: int) -> GroupMap:
    """Connecting map H_p(whole) -> H_{p-1}(interface) by chain splitting.

    A generator of the whole core's H_p is split by the thick membership of
    its faces' columns.  The boundary of the thick part, taken in the whole
    core (a full subcomplex of the whole nerve, so it is the whole nerve's
    boundary), lies on interface columns; it is pushed through the interface
    retraction, degenerate faces dropped and each face signed by its sorting
    permutation, and projected in the interface core's coordinates.  (A
    column kept in the whole core is kept in the interface core too, so on an
    assembled stage the push only renumbers; it is the chain map r_# all the
    same.)"""
    u_coords = stage.coords[("whole", p)]
    z_coords = stage.coords[("interface", p - 1)]
    whole = stage.nerves["whole"]
    thick = np.array([c in stage.retractions["thick"] for c in whole.labels], dtype=bool)
    cusp = np.array([c in stage.retractions["cusp"] for c in whole.labels], dtype=bool)
    r_iface = stage.retractions["interface"]
    to_iface = np.array([r_iface.get(c, -1) for c in whole.labels], dtype=np.int64)
    cols = []
    for cycle in u_coords.generator_cycles():
        rows = whole.faces[p][list(cycle)]
        in_thick = np.all(thick[rows], axis=1)
        if not np.all(in_thick | np.all(cusp[rows], axis=1)):
            raise DecompositionError(
                "a face is neither all-thick nor all-cusp; excision broken"
            )
        thick_part = {fi: coeff for (fi, coeff), t in zip(cycle.items(), in_thick) if t}
        boundary = whole.chain_boundary(p, thick_part)
        images = to_iface[whole.faces[p - 1][list(boundary)]]
        if np.any(images < 0):
            raise DecompositionError(
                "snake boundary leaves the interface; excision identities broken"
            )
        index, sign = push_faces(stage.nerves["interface"], images)
        missing = np.flatnonzero(sign.astype(bool) & (index < 0))
        if len(missing):
            raise KeyError(tuple(np.sort(images[missing[0]]).tolist()))
        chain: dict[int, int] = {}
        for z, s, coeff in zip(index.tolist(), sign.tolist(), boundary.values()):
            if s:
                chain[z] = chain.get(z, 0) + s * coeff
        cols.append(z_coords.project({z: v for z, v in chain.items() if v}))
    mat = (
        np.array(cols, dtype=object).T
        if cols
        else np.zeros((z_coords.group.dim, 0), dtype=object)
    )
    return GroupMap(u_coords.group, z_coords.group, mat)


@dataclass
class MVVerdict:
    stage: int
    degrees: dict
    composites_agree: bool
    cap_limited: list

    @property
    def all_exact(self) -> bool:
        return self.composites_agree and all(
            d["middle"] for d in self.degrees.values()
        )

    def as_dict(self):
        return {
            "stage": self.stage,
            "degrees": {str(k): v for k, v in self.degrees.items()},
            "composites_agree": self.composites_agree,
            "cap_limited": self.cap_limited,
            "all_exact": self.all_exact,
        }


def check_mv_exactness(stage: MVStage) -> MVVerdict:
    """Slot-by-slot exactness verdicts for the assembled stage.

    (i, -j) followed by [k | l] is k∘i - l∘j, so the two composites through
    thick and cusp agree exactly when every degree's incoming image lies in
    the outgoing kernel.  Each slot's kernel lattice is budgeted before the
    first induced map, in the order the slots are checked."""
    sk = stage.coords
    for width in _kernel_widths(stage):
        kernel_budget(width)
    degrees = {}
    snakes, intos = {}, {}
    for p in stage.degrees():
        i_map = induced_map(
            stage.inclusions[("interface", "thick")], p,
            sk[("interface", p)], sk[("thick", p)],
        )
        j_map = induced_map(
            stage.inclusions[("interface", "cusp")], p,
            sk[("interface", p)], sk[("cusp", p)],
        )
        k_map = induced_map(
            stage.inclusions[("thick", "whole")], p,
            sk[("thick", p)], sk[("whole", p)],
        )
        l_map = induced_map(
            stage.inclusions[("cusp", "whole")], p,
            sk[("cusp", p)], sk[("whole", p)],
        )
        into = intos[p] = stack_maps(i_map, j_map.negate())
        outof = concat_maps(k_map, l_map)
        middle = exactness_check(into, outof)
        entry = {
            "middle": middle.exact,
            "middle_detail": middle.as_dict(),
            "groups": {
                "interface": sk[("interface", p)].group.as_dict(),
                "thick": sk[("thick", p)].group.as_dict(),
                "cusp": sk[("cusp", p)].group.as_dict(),
                "whole": sk[("whole", p)].group.as_dict(),
            },
        }
        if p >= 1:
            snake = _snake_matrix(stage, p)
            snakes[p] = snake
            entry["whole_slot"] = exactness_check(outof, snake).exact
        degrees[p] = entry
    for p in stage.degrees():
        if p + 1 in snakes:
            degrees[p]["interface_slot"] = exactness_check(snakes[p + 1], intos[p]).exact
    composites_agree = all(d["middle_detail"]["image_in_kernel"] for d in degrees.values())
    cap_limited = [
        f"degree {stage.cap} and above not computed (cap {stage.cap})",
        f"interface slot at degree {stage.cap - 1} needs the degree-{stage.cap} snake",
    ]
    return MVVerdict(stage.stage, degrees, composites_agree, cap_limited)


def _kernel_widths(stage: MVStage):
    """The column counts of the kernel lattices ``check_mv_exactness`` takes,
    in turn: the outgoing map's source dimension plus its target's torsion,
    for the middle and whole slots of each degree, then the interface slots."""
    group = {key: coords.group for key, coords in stage.coords.items()}
    for p in stage.degrees():
        yield group["thick", p].dim + group["cusp", p].dim + len(group["whole", p].torsion)
        if p >= 1:
            yield group["whole", p].dim + len(group["interface", p - 1].torsion)
    for p in range(stage.cap - 1):
        yield (group["interface", p].dim + len(group["thick", p].torsion)
               + len(group["cusp", p].torsion))


# -- cusp vanishing -----------------------------------------------------------


@dataclass
class ClusterVanishing:
    coset: int
    degrees: dict  # p -> {"zero": bool, "how": str, "source": group dict}

    def as_dict(self):
        return {"coset": self.coset, "degrees": {str(k): v for k, v in self.degrees.items()}}


@dataclass
class VanishingReport:
    stage: int
    clusters: list[ClusterVanishing]
    contiguity_chain: list  # [(s, ok, witness)]
    all_zero: bool

    def as_dict(self):
        return {
            "stage": self.stage,
            "clusters": [c.as_dict() for c in self.clusters],
            "contiguity_chain": [
                {"s": s, "contiguous": ok, "witness": [repr(w) for w in (wit or ())]}
                for s, ok, wit in self.contiguity_chain
            ],
            "all_zero": self.all_zero,
        }


VANISHING_DEGREE = 2  # the top degree of reduced homology checked to vanish


def y_vanishing_check(
    space: AugmentedSpace, n: int, schedule: Schedule
) -> VanishingReport:
    """The tower map on cusp families induces zero on reduced homology.

    Verified cluster-by-cluster (one horoball at a time), on the cores of
    the pieces: a trivial source group is recorded as vacuously zero;
    otherwise the source group's generator cycles are pushed through the
    chain map, and each image must have zero coordinates in the target's
    homology (it bounds there).  The floor-map
    contiguity chain is verified for every floor up to the truncation depth,
    on faces up to dimension VANISHING_DEGREE + 1, from the columns' points
    (``covers.contiguous_cover_maps``): no cusp-family nerve is built.
    """
    level_next = schedule.slice_level(n + 1)
    if level_next > space.trunc.lmax:
        raise EmptyWindowError(
            f"stage {n + 1} slice level {level_next} exceeds depth {space.trunc.lmax}"
        )
    floors = [
        connecting_map(space, "floor", n, schedule, s=s) for s in range(space.trunc.lmax + 1)
    ]
    tower_map = floors[0]
    if not tower_map.source.positions:
        return VanishingReport(n, [], [], True)
    # mechanism: consecutive floor maps are contiguous
    chain = [
        (s, *contiguous_cover_maps(f, g, VANISHING_DEGREE + 1))
        for s, (f, g) in enumerate(zip(floors, floors[1:]))
    ]
    tgt_pieces = tower_map.target.by_coset()
    clusters = []
    all_zero = all(ok for _, ok, _ in chain)
    for coset, src_fam in tower_map.source.by_coset().items():
        entry = _cluster_vanishing(src_fam, tgt_pieces[coset], tower_map, coset, VANISHING_DEGREE)
        clusters.append(entry)
        all_zero = all_zero and all(d["zero"] for d in entry.degrees.values())
    return VanishingReport(n, clusters, chain, all_zero)


def _cluster_vanishing(
    src_fam: Family, tgt_fam: Family, tower_map: CoverMap, coset: int, max_degree: int
) -> ClusterVanishing:
    """Every degree is below the cap max_degree + 1, so source and target
    types, components and pushed cycles are taken on the cores, through
    r_T ∘ f ∘ j_S."""
    cap = max_degree + 1
    src_nerve, _ = core_nerve(src_fam, cap=cap)
    smap = None  # built with the target core on the first nontrivial source degree
    degrees = {}
    for p in range(max_degree + 1):
        group = homology_type(src_nerve, p, reduced=True)
        rec = {"source": group.as_dict()}
        degrees[p] = rec
        if group.is_trivial:
            rec.update(zero=True, how="source reduced homology is trivial")
            continue
        if smap is None:
            tgt_cx, retract = core_nerve(tgt_fam, cap=cap)
            smap = SimplicialMap(
                src_nerve, tgt_cx, [retract[tower_map.center_map(c)] for c in src_nerve.labels],
                check=False, name=f"tower@{coset}",
            )
        if p == 0:
            comps = tgt_cx.components()
            images = {comps[t] for t in smap.vertex_images}
            rec.update(
                zero=len(images) <= 1,
                how="all source columns land in one target component",
            )
            continue
        # f_* is zero iff it kills each generator of the source group
        gens = DegreeCoordinates(src_nerve, p).generator_cycles()
        tgt = DegreeCoordinates(tgt_cx, p)
        chain_cols = smap.chain_columns(p)
        ok = not any(any(tgt.project(chain_image(chain_cols, z))) for z in gens)
        rec.update(zero=ok, how=f"pushed {len(gens)} cycle generators bound in target")
    return ClusterVanishing(coset, degrees)


# -- cluster decomposition ----------------------------------------------------


@dataclass
class ClusterVerdict:
    stage: int
    disjoint: bool
    block_structure: bool
    additive: dict  # p -> bool
    types: dict

    @property
    def ok(self):
        return self.disjoint and self.block_structure and all(self.additive.values())

    def as_dict(self):
        return {
            "stage": self.stage,
            "disjoint": self.disjoint,
            "block_structure": self.block_structure,
            "additive": {str(k): v for k, v in self.additive.items()},
            "types": self.types,
            "ok": self.ok,
        }


def cluster_check(
    space: AugmentedSpace, n: int, schedule: Schedule, cap: int
) -> ClusterVerdict:
    """Interface homology decomposes as the direct sum over horoballs.

    Columns of two clusters share a nerve edge iff the clusters' point sets
    meet, so the interface nerve has no face across cosets (its block
    structure) exactly when the clusters are disjoint.  Group types come from
    the interface and cluster cores; every degree is below the cap."""
    dec = decompose(space, n, schedule)
    clusters = list(dec.clusters.values())
    hits = np.zeros(len(dec.whole.cover), dtype=np.int64)
    for f in clusters:
        hits[f.sets().points] += 1  # once per point of the cluster, however often held
    disjoint = bool(hits.max(initial=0) <= 1)
    whole, _ = core_nerve(dec.interface, cap=cap)
    cluster_nerves = [core_nerve(f, cap=cap)[0] for f in clusters]
    additive = {}
    types = {"whole": {}, "clusters": {}}
    for p in range(cap):
        whole_t = homology_type(whole, p)
        parts = [homology_type(cx, p) for cx in cluster_nerves]
        summed = canonical_type(direct_sum_group(*parts)) if parts else AbelianGroup(0)
        additive[p] = whole_t == summed
        types["whole"][str(p)] = whole_t.as_dict()
        types["clusters"][str(p)] = [t.as_dict() for t in parts]
    return ClusterVerdict(n, disjoint, disjoint, additive, types)


# -- the half-line tower demonstration ----------------------------------------


def milnor_counterexample_demo() -> dict:
    """Deterministic report on the tower of punctured lines.

    The stage-n space removes [-n, n] from a window of the integer line; its
    unit-ball nerve has two contractible components, the inclusion maps
    induce the identity on degree-0 homology, the inverse limit is free of
    rank two, and the image chains satisfy the stabilization criterion, yet
    the intersection of the family is empty with trivial homology.  The
    naive limit sequence therefore cannot be exact for these towers.
    """
    halfwidth, stages = 8, 5
    window = list(range(-halfwidth, halfwidth + 1))
    complexes = []
    stage_records = []
    for n in range(1, stages + 1):
        pts = [x for x in window if abs(x) > n]
        # nerve of the unit-ball cover, each ball as its points' indices
        x = np.array(pts)
        cx = set_nerve(pts, point_sets(np.abs(x[:, None] - x[None, :]) <= 1), 1)
        complexes.append((pts, cx))
        comps = cx.components()
        stage_records.append(
            {
                "stage": n,
                "points": len(pts),
                "components": len(set(comps)),
                "h0": homology_type(cx, 0).as_dict(),
            }
        )
    groups = []
    maps = []
    coords = [DegreeCoordinates(cx, 0) for _, cx in complexes]
    for k in range(stages - 1):
        pts_small, cx_small = complexes[k + 1]
        pts_big, cx_big = complexes[k]
        pos_big = {x: i for i, x in enumerate(cx_big.labels)}
        smap = SimplicialMap(
            cx_small, cx_big, [pos_big[x] for x in cx_small.labels], name=f"incl{k}"
        )
        maps.append(induced_map(smap, 0, coords[k + 1], coords[k]))
    groups = [c.group for c in coords]
    tower = Tower("projective", groups, maps)
    lim = inverse_limit(tower)
    verdict = ml_lim1(tower)
    identity_maps = all(
        m.matrix.shape[0] == m.matrix.shape[1]
        and np.equal(m.matrix, np.eye(m.matrix.shape[0], dtype=object)).all()
        for m in maps
    )
    return {
        "schema": "horokit-report/1",
        "command": "milnor-demo",
        "config": {"halfwidth": halfwidth, "stages": stages},
        "stages": stage_records,
        "tower": {
            "direction": "projective",
            "maps_are_identity": bool(identity_maps),
            "inverse_limit": lim.as_dict(),
            "lim1": verdict.as_dict(),
        },
        "intersection": {"empty": True, "h0": AbelianGroup(0).as_dict()},
        "naive_sequence_exact": False,
        "note": (
            "limit homology rank 2 versus empty intersection: the naive"
            " limit sequence fails for these towers"
        ),
    }
