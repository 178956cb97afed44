"""Integer simplicial homology and maps between homology groups.

Degree 0 is the component count.  Every homology group of degree >= 1 goes
through one sparse chain reduction, ``snf._eliminate``: group types from the
unit pivots and invariant factors of the boundary maps, eliminated as
coboundaries without the columns the degree below already paired, d_1
read off a spanning forest (``homology_type``), coordinates from the same
elimination of d_p itself with its column combinations tracked
(``DegreeCoordinates``: the unmatched faces of d_p give a cycle basis,
d_{p+1} is eliminated in it, and only the residue gets a Smith normal form).
Classes of cycles are then plain integer vectors reduced modulo the
invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import SimplicialComplex, SimplicialMap
from .snf import (
    _clear_pivot_rows,
    _dense,
    _eliminate,
    csc_columns,
    kernel_lattice,
    lattice_coords,
    lattice_sum,
    smith_normal_form,
    sparse_diagonal,
)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be > 1")

    @property
    def dim(self) -> int:
        return self.rank + len(self.torsion)

    @property
    def orders(self) -> tuple[int, ...]:
        # torsion coordinates first, then 0 for each free coordinate
        return self.torsion + (0,) * self.rank

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    def __str__(self):
        parts = [f"Z/{t}" for t in self.torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " + ".join(parts) if parts else "0"

    def as_dict(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


@dataclass(frozen=True)
class OrdersGroup:
    """A group presented by a plain orders vector (used for direct sums)."""

    orders: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.orders)

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0


def canonical_type(group) -> AbelianGroup:
    """Invariant-factor form of any orders-vector presentation."""
    if isinstance(group, AbelianGroup):
        return group
    torsion = [d for d in group.orders if d != 0]
    rank = sum(1 for d in group.orders if d == 0)
    if not torsion:
        return AbelianGroup(rank)
    mat = np.zeros((len(torsion), len(torsion)), dtype=object)
    for i, d in enumerate(torsion):
        mat[i, i] = d
    res = smith_normal_form(mat)
    return AbelianGroup(rank, _torsion_from_diag(res.diag))


def direct_sum_group(*groups) -> OrdersGroup:
    orders: tuple[int, ...] = ()
    for g in groups:
        orders = orders + tuple(g.orders)
    return OrdersGroup(orders)


def _torsion_from_diag(diag) -> tuple[int, ...]:
    return tuple(int(d) for d in diag if d > 1)


def homology_type(
    complex_: SimplicialComplex, degree: int, reduced: bool = False
) -> AbelianGroup:
    """H_degree via ranks and invariant factors of the boundary maps.

    At the cap dimension the next boundary is unavailable, so the value there
    is the homology of the cap-skeleton.
    """
    if degree < 0 or degree > complex_.cap:
        raise ValueError(f"degree {degree} outside cap {complex_.cap}")
    if degree == 0:
        comps = complex_.components()
        n_comp = len(set(comps)) if comps else 0
        rank = n_comp - (1 if reduced and n_comp else 0)
        return AbelianGroup(max(rank, 0))
    n_p = complex_.n_faces(degree)
    _, rank_dp, _ = _boundary_type(complex_, degree)
    torsion, rank_next, _ = _boundary_type(complex_, degree + 1)
    return AbelianGroup(n_p - rank_dp - rank_next, torsion)


def _boundary_type(
    complex_: SimplicialComplex, p: int
) -> tuple[tuple[int, ...], int, frozenset[int]]:
    """(torsion, rank, unit pivot rows) of the boundary C_p -> C_{p-1},
    eliminated once per complex and degree p >= 2 (d_1 is read off a
    spanning forest, below).

    The elimination runs on the transpose, one column per (p-1)-face holding
    its p-cofaces (``coboundary_columns``): a matrix and its transpose have
    the same invariant factors (de Silva, Morozov and Vejdemo-Johansson,
    "Dualities in persistent (co)homology", 2011).  The (p-1)-faces that were
    unit pivot rows of d_{p-1}^T are cleared, that is, left out as columns
    (Chen and Kerber, "Persistent homology computation with a twist", EuroCG
    2011): each unit pivot column lies in im d_{p-1}^T, inside ker d_p^T, and
    the pivot columns are unit-triangular on their pivot rows, so every
    cleared column is an integer combination of the kept ones and the column
    lattice, hence the Smith form, is unchanged.  The kept columns number
    n_{p-1} minus the unit pivots of d_{p-1}; only about beta_{p-1} of them
    reduce to zero.  Pivot rows of the dense residue are not cleared: a
    non-unit pivot block is not unimodular.  ``snf.sparse_diagonal`` is a
    benchmark-traced name, so the elimination goes through it with its
    ``(diag, rank)`` result.

    d_1 is not eliminated: it is the incidence matrix of the 1-skeleton, of
    rank V - c for c components and without torsion, and the edges of a
    spanning forest (``spanning_forest``) stand for its pivot rows.  They
    may be cleared from d_2^T: for each vertex v, d_2^T d_1^T = 0 reads
    sum_e delta(v)_e * delta(e) = 0 over the edges e at v, where delta(e) is
    the column of edge e.  On the forest edges, the rows delta(v) of the
    vertices other than each tree's root form the reduced incidence matrix
    of the forest, which is square and unimodular (a leaf's row has one
    entry; remove it and recurse).  Solving these relations for the forest
    columns writes each as an integer combination of the other columns.
    """
    if p <= 0 or p > complex_.cap or complex_.n_faces(p) == 0:
        return (), 0, frozenset()
    cache = complex_.boundary_types
    if p == 1 and p not in cache:
        forest = complex_.spanning_forest()[1]
        cache[p] = ((), len(forest), frozenset(forest))
    elif p not in cache:
        _, _, cleared = _boundary_type(complex_, p - 1)
        pivot_rows: list[int] = []
        diag, rank = sparse_diagonal(complex_.coboundary_columns(p, cleared), pivot_rows)
        cache[p] = (_torsion_from_diag(diag), rank, frozenset(pivot_rows))
    return cache[p]


def chain_image(columns, chain: dict[int, int]) -> dict[int, int]:
    """The sum of ``coeff * columns[i]`` over the entries ``i: coeff`` of a
    sparse chain (a chain map's columns, or a basis), zero entries dropped."""
    out: dict[int, int] = {}
    for i, coeff in chain.items():
        for r, v in columns[i].items():
            out[r] = out.get(r, 0) + coeff * v
    return {r: v for r, v in out.items() if v}


class DegreeCoordinates:
    """Coordinates on H_degree of one complex.

    Degree 0 counts components.  Above it, ``snf._eliminate`` runs on the
    boundary d_p with its column combinations tracked: the unit pivots match
    p-faces to (p-1)-faces, a cycle is fixed by its restriction to the
    unmatched p-faces, and the cycle basis is the unmatched faces whose
    columns cleared to zero plus a kernel basis of the (small) residue.  The
    columns of d_{p+1} written in that basis are eliminated in turn; a cycle
    is reduced by the frozen pivot columns onto the non-pivot rows, and only
    the residue on those rows gets a Smith normal form, whose row transform
    gives the group coordinates.
    """

    def __init__(self, complex_: SimplicialComplex, degree: int):
        self.complex = complex_
        self.degree = degree
        if degree == 0:
            self._comps = complex_.components()
            self._n_comp = len(set(self._comps))
            self.group = AbelianGroup(self._n_comp)
            return
        # the cycle basis: unmatched faces first, then the residue's kernel
        d_p = csc_columns(complex_.boundary_columns(degree))
        _, residue, chains, _ = _eliminate(d_p, track=True)
        unmatched = [c for c in chains if c not in residue]
        self._slot = {c: i for i, c in enumerate(unmatched)}
        self._basis = [chains[c] for c in unmatched]
        self._residue_faces = sorted(residue)
        self._kernel = kernel_lattice(_dense(residue))
        for column in self._kernel.T:
            kernel = {c: int(x) for c, x in zip(self._residue_faces, column) if x}
            self._basis.append(chain_image(chains, kernel))
        # the boundaries in cycle coordinates
        expr = [self._cycle_coords(col) for col in complex_.boundary_columns(degree + 1)]
        _, rest, _, self._pivots = _eliminate(csc_columns(expr), freeze=True)
        self._rows = [s for s in range(len(self._basis)) if s not in self._pivots]
        res = smith_normal_form(_dense(rest, self._rows), want_u=True)
        self._U, self._Uinv = res.U, res.Uinv
        self._diag = list(res.diag) + [0] * (len(self._rows) - res.rank)
        self.group = AbelianGroup(len(self._rows) - res.rank, _torsion_from_diag(res.diag))
        # coordinate slots with order 1 are dropped when projecting
        self._keep = [i for i, d in enumerate(self._diag) if d != 1]

    def _cycle_coords(self, cycle: dict[int, int]) -> dict[int, int]:
        """A cycle in the cycle basis: its restriction to the unmatched faces,
        then the coordinates of its restriction to the residue faces in the
        residue's kernel basis."""
        out = {self._slot[r]: v for r, v in cycle.items() if v and r in self._slot}
        if self._residue_faces:
            part = [cycle.get(c, 0) for c in self._residue_faces]
            coords = lattice_coords(self._kernel, part)
            out.update((len(self._slot) + j, y) for j, y in enumerate(coords) if y)
        return out

    # -- projections ---------------------------------------------------------

    def project(self, chain: dict[int, int]) -> tuple[int, ...]:
        """Class of a cycle in group coordinates (torsion reduced)."""
        if self.degree == 0:
            vec = [0] * self._n_comp
            for v, coeff in chain.items():
                vec[self._comps[v]] += coeff
            return tuple(vec)
        if self.complex.chain_boundary(self.degree, chain):
            raise ValueError("chain is not a cycle")
        x = _clear_pivot_rows(self._cycle_coords(chain), self._pivots)
        h = self._U @ np.array([x.get(s, 0) for s in self._rows], dtype=object)
        out = []
        for i in self._keep:
            d = self._diag[i]
            out.append(int(h[i]) % d if d > 1 else int(h[i]))
        return tuple(out)

    def generator_cycles(self) -> list[dict[int, int]]:
        """One representative cycle per retained group coordinate."""
        if self.degree == 0:
            reps = {}
            for v, comp in enumerate(self._comps):
                reps.setdefault(comp, v)
            return [{reps[c]: 1} for c in range(self._n_comp)]
        out = []
        for i in self._keep:
            column = self._Uinv[:, i]
            coeffs = {s: int(column[t]) for t, s in enumerate(self._rows) if column[t]}
            out.append(chain_image(self._basis, coeffs))
        return out


# -- maps between groups ------------------------------------------------------


def _relation_lattice(group) -> np.ndarray:
    cols = []
    dim = group.dim
    for i, d in enumerate(group.orders):
        if d:
            col = [0] * dim
            col[i] = d
            cols.append(col)
    if not cols:
        return np.zeros((dim, 0), dtype=object)
    return np.array(cols, dtype=object).T


@dataclass
class GroupMap:
    source: object  # AbelianGroup or OrdersGroup
    target: object
    matrix: np.ndarray  # target.dim x source.dim

    def __post_init__(self):
        self.matrix = np.array(self.matrix, dtype=object).reshape(
            self.target.dim, self.source.dim
        )
        for j, d in enumerate(self.source.orders):
            if d == 0:
                continue
            for i, e in enumerate(self.target.orders):
                v = d * self.matrix[i, j]
                if (e == 0 and v != 0) or (e != 0 and v % e):
                    raise ValueError("matrix does not respect torsion relations")

    def negate(self) -> "GroupMap":
        return GroupMap(self.source, self.target, -self.matrix)

    def compose(self, other: "GroupMap") -> "GroupMap":
        """self after other."""
        if tuple(other.target.orders) != tuple(self.source.orders):
            raise ValueError("composition type mismatch")
        return GroupMap(other.source, self.target, self.matrix @ other.matrix)

    def image_lattice(self) -> np.ndarray:
        return lattice_sum(
            np.array(self.matrix, dtype=object), _relation_lattice(self.target)
        )

    def kernel_lattice(self) -> np.ndarray:
        """Preimage in Z^source_dim of the target's torsion relations."""
        ker = kernel_lattice(self.matrix, _relation_lattice(self.target))
        return lattice_sum(ker, _relation_lattice(self.source))


def identity_map(group) -> GroupMap:
    return GroupMap(group, group, np.eye(group.dim, dtype=object))


def stack_maps(f: GroupMap, g: GroupMap) -> GroupMap:
    """(f, g): A -> B + C from maps with common source."""
    if tuple(f.source.orders) != tuple(g.source.orders):
        raise ValueError("stack needs a common source")
    target = direct_sum_group(f.target, g.target)
    mat = np.concatenate([f.matrix, g.matrix], axis=0)
    return GroupMap(f.source, target, mat)


def concat_maps(f: GroupMap, g: GroupMap) -> GroupMap:
    """[f | g]: A + B -> C from maps with common target."""
    if tuple(f.target.orders) != tuple(g.target.orders):
        raise ValueError("concat needs a common target")
    source = direct_sum_group(f.source, g.source)
    mat = np.concatenate([f.matrix, g.matrix], axis=1)
    return GroupMap(source, f.target, mat)


@dataclass
class ExactnessResult:
    exact: bool
    image_in_kernel: bool
    kernel_in_image: bool
    note: str

    def as_dict(self):
        return {
            "exact": self.exact,
            "image_in_kernel": self.image_in_kernel,
            "kernel_in_image": self.kernel_in_image,
            "note": self.note,
        }


def exactness_check(f: GroupMap, g: GroupMap) -> ExactnessResult:
    """Is image(f) equal to kernel(g) at the middle group?"""
    if tuple(f.target.orders) != tuple(g.source.orders):
        raise ValueError("shape mismatch between incoming and outgoing maps")
    im = f.image_lattice()
    ker = g.kernel_lattice()
    im_in_ker = all(lattice_coords(ker, col) is not None for col in im.T)
    ker_in_im = all(lattice_coords(im, col) is not None for col in ker.T)
    note = ""
    if not im_in_ker:
        note = "image not contained in kernel (composite nonzero)"
    elif not ker_in_im:
        note = "kernel class not hit by the incoming map"
    return ExactnessResult(im_in_ker and ker_in_im, im_in_ker, ker_in_im, note)


def induced_map(
    f: SimplicialMap,
    degree: int,
    source_coords: DegreeCoordinates,
    target_coords: DegreeCoordinates,
) -> GroupMap:
    """Matrix of f_* on H_degree in the coordinate systems of both sides."""
    gens = source_coords.generator_cycles()
    chain_cols = f.chain_columns(degree) if gens else None
    cols = [target_coords.project(chain_image(chain_cols, cycle)) for cycle in gens]
    mat = (
        np.array(cols, dtype=object).T
        if cols
        else np.zeros((target_coords.group.dim, 0), dtype=object)
    )
    return GroupMap(source_coords.group, target_coords.group, mat)
