"""Finite towers of abelian groups: limits, stabilization, Mittag-Leffler.

A tower is a finite sequence of groups with connecting maps, tagged as
inductive (maps go up the index) or projective (maps come down).  All
verdicts are finite-stage observations and say so: nothing here claims to
compute the limit of an infinite system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homology import (
    AbelianGroup,
    GroupMap,
    OrdersGroup,
    _relation_lattice,
    canonical_type,
    identity_map,
)
from .snf import (
    column_hnf,
    kernel_lattice,
    lattice_coords,
    lattice_equal,
    lattice_sum,
    smith_normal_form,
)


@dataclass
class Tower:
    direction: str  # "inductive" | "projective"
    groups: list
    maps: list[GroupMap]  # maps[i]: groups[i] -> groups[i+1] (inductive)
    #                       maps[i]: groups[i+1] -> groups[i] (projective)

    def __post_init__(self):
        if self.direction not in ("inductive", "projective"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if len(self.maps) != len(self.groups) - 1:
            raise ValueError("need exactly one map per consecutive pair")
        for i, m in enumerate(self.maps):
            src, tgt = (
                (self.groups[i], self.groups[i + 1])
                if self.direction == "inductive"
                else (self.groups[i + 1], self.groups[i])
            )
            if tuple(m.source.orders) != tuple(src.orders) or tuple(
                m.target.orders
            ) != tuple(tgt.orders):
                raise ValueError(f"map {i} does not match its groups")

    def composite(self, start: int, stop: int) -> GroupMap:
        """Connecting map from stage start to stage stop along the tower."""
        if self.direction == "inductive":
            if not 0 <= start <= stop < len(self.groups):
                raise ValueError("bad stage range")
            maps = self.maps[start:stop]
        else:
            if not 0 <= stop <= start < len(self.groups):
                raise ValueError("bad stage range")
            maps = list(reversed(self.maps[stop:start]))
        out = identity_map(self.groups[start])
        for m in maps:
            out = m.compose(out)
        return out


def subgroup_type(lattice: np.ndarray, ambient) -> AbelianGroup:
    """Isomorphism type of (lattice / relations) inside the ambient group."""
    rel = _relation_lattice(ambient)
    # columns of `lattice` generate the subgroup's preimage; quotient by rel
    basis = column_hnf(lattice)  # basis of the preimage lattice
    if basis.shape[1] == 0:
        return AbelianGroup(0)
    # write rel in terms of basis: basis @ T = rel
    coords = [lattice_coords(basis, col) for col in rel.T]
    if None in coords:
        raise ValueError("relations do not lie inside the subgroup lattice")
    t = np.array(coords, dtype=object).reshape(-1, basis.shape[1]).T
    res = smith_normal_form(t)
    torsion = tuple(int(d) for d in res.diag if d > 1)
    rank = basis.shape[1] - res.rank
    return AbelianGroup(rank, torsion)


@dataclass
class DirectLimitReport:
    eventual: list[AbelianGroup]  # type of im(stage i -> last), i < last
    stabilized_at: int | None  # 1-based stage from which images agree
    limit: AbelianGroup | None

    def as_dict(self):
        return {
            "eventual_images": [g.as_dict() for g in self.eventual],
            "stabilized_at": self.stabilized_at,
            "limit": self.limit.as_dict() if self.limit else None,
        }


def direct_limit_report(t: Tower) -> DirectLimitReport:
    """Finite-stage shadow of the direct limit.

    For each stage i below the last, the image of the composite into the last
    stage is computed as a subgroup; stabilization means those subgroups are
    equal from some stage on (the connecting maps then realize isomorphisms).
    """
    if t.direction != "inductive":
        raise ValueError("direct limit needs an inductive tower")
    last = len(t.groups) - 1
    if last == 0:
        g = canonical_type(t.groups[0])
        return DirectLimitReport([g], 1, g)
    lattices = [t.composite(i, last).image_lattice() for i in range(last)]
    types = [subgroup_type(lat, t.groups[last]) for lat in lattices]
    stabilized = None
    for s in range(last):
        if all(lattice_equal(lattices[s], lattices[j]) for j in range(s + 1, last)):
            stabilized = s + 1
            break
    limit = types[stabilized - 1] if stabilized else None
    return DirectLimitReport(types, stabilized, limit)


@dataclass
class Lim1Verdict:
    kind: str  # "zero" | "not-ML" | "undetermined"
    witness_stage: int | None = None
    witness_chain: list[AbelianGroup] = field(default_factory=list)
    witness_lattices: list[list[list[int]]] = field(default_factory=list)

    def as_dict(self):
        return {
            "kind": self.kind,
            "witness_stage": self.witness_stage,
            "witness_chain": [g.as_dict() for g in self.witness_chain],
            "witness_lattices": self.witness_lattices,
        }


def ml_lim1(t: Tower) -> Lim1Verdict:
    """Mittag-Leffler verdict at the shown stages.

    "zero": for every stage, the images from later stages have stopped
    shrinking within view.  "not-ML": some stage exhibits a strictly
    decreasing image chain through every shown step (at least two strict
    drops).  Anything else is "undetermined".
    """
    if t.direction != "projective":
        raise ValueError("lim^1 needs a projective tower")
    n = len(t.groups)
    all_stable = True
    for i in range(n - 1):
        ambient = t.groups[i]
        full = lattice_sum(
            column_hnf(np.eye(ambient.dim, dtype=object)),
            _relation_lattice(ambient),
        )
        chain = [full]
        for j in range(i + 1, n):
            chain.append(t.composite(j, i).image_lattice())
        strict = [not lattice_equal(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
        if strict and strict[-1]:
            all_stable = False
        if len(strict) >= 2 and all(strict):
            types = [subgroup_type(lat, ambient) for lat in chain]
            mats = [[[int(x) for x in row] for row in lat] for lat in chain]
            return Lim1Verdict(
                "not-ML", witness_stage=i + 1, witness_chain=types, witness_lattices=mats
            )
    return Lim1Verdict("zero") if all_stable else Lim1Verdict("undetermined")


def inverse_limit(t: Tower) -> AbelianGroup:
    """The group of compatible tuples across the shown stages."""
    if t.direction != "projective":
        raise ValueError("inverse limit needs a projective tower")
    n = len(t.groups)
    if n == 1:
        return canonical_type(t.groups[0])
    # compatibility: x_i - f_i(x_{i+1}) lies in the relations of group i
    dims = [g.dim for g in t.groups]
    offs = np.cumsum([0] + dims)
    system = np.zeros((offs[-2], offs[-1]), dtype=object)
    for i in range(n - 1):
        system[offs[i] : offs[i + 1], offs[i] : offs[i + 1]] = np.eye(dims[i], dtype=object)
        system[offs[i] : offs[i + 1], offs[i + 1] : offs[i + 2]] = -t.maps[i].matrix
    head = OrdersGroup(tuple(o for g in t.groups[:-1] for o in g.orders))
    sol = kernel_lattice(system, _relation_lattice(head))
    ambient = OrdersGroup(tuple(o for g in t.groups for o in g.orders))
    return subgroup_type(lattice_sum(sol, _relation_lattice(ambient)), ambient)
