"""Finite-range interactions in D=3 and one-step coarse-graining to metaspins.

A finite-range model is a local dimension d, an odd range R, and a set of
interaction shapes: offset sets S containing the origin, each carrying a
projection on (C^d)^{|S|} (tensor factors in lexicographic offset order).
Space is partitioned into cubes C(y) of side R centered at y in R*Z^3; the
sites of a run of cubes are listed cube-major, lexicographically within each
cube.  The one range rule is that every shape spans at most R per axis, which
`coarse_grain` checks: a translated term P_{x+S} then touches at most two
cubes per axis, so its covering cube block is a sub-block of a 2x2x2
cluster.  Grouping translated terms by the spanned axes of their cover gives
four class kinds -- on-site, face, edge-adjacent, corner-adjacent -- and the
coarse interaction of a class is the projection onto the orthogonal
complement of the joint kernel of all terms assigned to its block.  That
construction preserves ground spaces exactly: on any cube region, the
kernels of the original and coarse-grained Hamiltonians coincide.

Class matrices act on d^{R^3}-dimensional metaspins and are materialized
lazily: at R=3, d=2 a face block already has dimension 2^54, far beyond
dense limits, while the class structure (assignments, counts, kinds) stays
cheap at any R.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from gapcert.operators import (
    DEFAULT_DENSE_LIMIT,
    ManyBodyOperator,
    dense_matrix,
    projection_check,
    projection_defects,
)
from gapcert.spectral import KERNEL_TOL

SUBSPACE_TOL = 1e-9

Vec3 = tuple


def _as_vec3(t) -> Vec3:
    t = tuple(int(c) for c in t)
    if len(t) != 3:
        raise ValueError(f"expected a 3-vector, got {t}")
    return t


@dataclass(frozen=True, eq=False)
class InteractionShape:
    """An offset set S (lex-sorted, containing the origin) and its projection.

    The projection acts on (C^d)^{|S|} with tensor factors ordered by the
    lexicographic order of the offsets.
    """

    offsets: tuple
    projection: np.ndarray

    def __post_init__(self):
        offs = tuple(sorted(_as_vec3(o) for o in self.offsets))
        if len(set(offs)) != len(offs):
            raise ValueError("shape offsets contain duplicates")
        if (0, 0, 0) not in offs:
            raise ValueError("shape offsets must contain the origin")
        P = np.asarray(self.projection, dtype=np.complex128)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"projection must be square, got shape {P.shape}")
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "projection", P)

    @property
    def n_sites(self) -> int:
        return len(self.offsets)

    def span(self, axis: int) -> int:
        vals = [o[axis] for o in self.offsets]
        return max(vals) - min(vals)


@dataclass(frozen=True, eq=False)
class FiniteRangeSpec:
    """Local dimension, odd range R, and the interaction shapes."""

    d: int
    shapes: tuple
    R: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")
        if self.R < 1 or self.R % 2 == 0:
            raise ValueError(f"range R must be odd and positive, got {self.R}")
        shapes = tuple(self.shapes)
        for s in shapes:
            want = self.d**s.n_sites
            if s.projection.shape != (want, want):
                raise ValueError(
                    f"projection shape {s.projection.shape} does not match "
                    f"d^{s.n_sites} = {want}"
                )
            if not projection_check(s.projection):
                dh, di = projection_defects(s.projection)
                raise ValueError(
                    f"shape matrix fails projection check: "
                    f"|P - P*| = {dh:.3e}, |P^2 - P| = {di:.3e}"
                )
        object.__setattr__(self, "shapes", shapes)


def cube_of(site, R: int) -> Vec3:
    """Index b of the side-R cube C(R*b) containing the site."""
    h = (R - 1) // 2
    return tuple((c + h) // R for c in _as_vec3(site))


def _place(x, offsets):
    """The translate x + offsets, in the order of `offsets`."""
    return tuple(tuple(a + b for a, b in zip(x, o)) for o in offsets)


def _translates(offsets, region):
    """The points x of `region`, in its order, with x + offsets inside it."""
    inside = set(region)
    return [x for x in region if inside.issuperset(_place(x, offsets))]


def _cube_sites(cubes, R: int):
    """Sites of the cubes C(R*b), b in `cubes`, cube-major in the given order."""
    h = (R - 1) // 2
    cube = tuple(itertools.product(range(-h, h + 1), repeat=3))
    return [s for b in cubes for s in _place(tuple(R * c for c in b), cube)]


def region_hamiltonian(spec: FiniteRangeSpec, cubes) -> ManyBodyOperator:
    """Open-boundary Hamiltonian on the union of the cubes C(R*b), b in `cubes`.

    Its terms are every translate x+S lying inside the region, shape by shape.
    """
    region = _cube_sites(cubes, spec.R)
    terms = [
        (_place(x, shape.offsets), shape.projection)
        for shape in spec.shapes
        for x in _translates(shape.offsets, region)
    ]
    return ManyBodyOperator(region, spec.d, terms)


class CoarseKind(Enum):
    ON_SITE = "OnSite"
    FACE = "Face"
    EDGE_ADJ = "EdgeAdj"
    CORNER_ADJ = "CornerAdj"


_KIND_BY_SPAN = {
    0: CoarseKind.ON_SITE,
    1: CoarseKind.FACE,
    2: CoarseKind.EDGE_ADJ,
    3: CoarseKind.CORNER_ADJ,
}


@dataclass(eq=False)
class CoarseClass:
    """One coarse interaction: a cube block plus the terms assigned to it.

    `block` lists the covering cubes as relative cube indices in {0,1}^3
    (lex order); `assigned` holds (shape, anchor) pairs with the anchor in
    the centred frame of `_cube_sites`, where the base cube C(0) occupies
    [-h, h]^3 for h = (R-1)/2.  The matrix is the projection onto the
    complement of the joint kernel of the assigned terms on the block,
    materialized on demand because its dimension d^{R^3 * 2^k} is usually
    far beyond dense limits.
    """

    kind: CoarseKind
    axes: tuple
    block: tuple
    assigned: tuple
    d: int
    R: int
    _matrix: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_terms(self) -> int:
        return len(self.assigned)

    @property
    def n_cubes(self) -> int:
        return len(self.block)

    @property
    def block_dim(self) -> int:
        return self.d ** (self.n_cubes * self.R**3)

    def matrix(self, limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        sites = _cube_sites(self.block, self.R)
        terms = [
            (_place(anchor, shape.offsets), shape.projection)
            for shape, anchor in self.assigned
        ]
        op = ManyBodyOperator(sites, self.d, terms)
        H = dense_matrix(op, limit=limit)
        if len(self.assigned) == 1 and self.assigned[0][0].n_sites == len(sites):
            # single term covering the whole block: H is already the
            # complement-of-kernel projection, entrywise exact
            M = H
        else:
            V = _kernel_basis(H)
            M = np.eye(op.dimension, dtype=np.complex128) - V @ V.conj().T
            M = (M + M.conj().T) / 2
        self._matrix = M
        return M


@dataclass(eq=False)
class CoarseGrainedSpec:
    """Coarse interaction classes of one metaspin unit cell."""

    d: int
    R: int
    classes: tuple

    @property
    def metaspin_dim(self) -> int:
        return self.d ** self.R**3

    @property
    def n_cell_terms(self) -> int:
        return sum(c.n_terms for c in self.classes)


def coarse_grain(spec: FiniteRangeSpec) -> CoarseGrainedSpec:
    """Partition one unit cell of translated terms into coarse classes.

    Terms are admitted when every shape spans at most R per axis (so the
    cover is a sub-block of a 2x2x2 cube cluster); this admits
    nearest-neighbor shapes at R=1, where coarse-graining is the identity.
    Classes are keyed by the set of spanned axes; every term of the cell is
    assigned to exactly one class.
    """
    R = spec.R
    for shape in spec.shapes:
        for a in range(3):
            if shape.span(a) > R:
                raise ValueError(
                    f"shape spans {shape.span(a)} > R = {R} along axis {a}; "
                    f"cover exceeds a 2x2x2 cube block"
                )
    buckets = {}
    n_anchors = 0
    for shape in spec.shapes:
        for x in _cube_sites([(0, 0, 0)], R):
            n_anchors += 1
            sites = _place(x, shape.offsets)
            cube_vals = [{cube_of(s, R)[a] for s in sites} for a in range(3)]
            assert all(len(v) <= 2 for v in cube_vals)
            axes = tuple(a for a in range(3) if len(cube_vals[a]) > 1)
            # the anchor relative to the centre R*b of the block's base cube
            anchor = tuple(c - R * min(v) for c, v in zip(x, cube_vals))
            buckets.setdefault(axes, []).append((shape, anchor))
    classes = []
    for axes in sorted(buckets):
        block = tuple(
            sorted(
                itertools.product(
                    *[(0, 1) if a in axes else (0,) for a in range(3)]
                )
            )
        )
        classes.append(
            CoarseClass(
                kind=_KIND_BY_SPAN[len(axes)],
                axes=axes,
                block=block,
                assigned=tuple(buckets[axes]),
                d=spec.d,
                R=R,
            )
        )
    cg = CoarseGrainedSpec(d=spec.d, R=R, classes=tuple(classes))
    if cg.n_cell_terms != n_anchors:
        raise AssertionError(
            f"term conservation violated: {cg.n_cell_terms} assigned "
            f"vs {n_anchors} translated terms per cell"
        )
    return cg


def metacube_adjacency_counts() -> dict:
    """Face/edge/corner neighbor counts of a metacube, by enumeration."""
    counts = {"face": 0, "edge": 0, "corner": 0}
    for off in itertools.product((-1, 0, 1), repeat=3):
        touched = sum(1 for c in off if c != 0)
        if touched == 1:
            counts["face"] += 1
        elif touched == 2:
            counts["edge"] += 1
        elif touched == 3:
            counts["corner"] += 1
    return counts


def _kernel_basis(A: np.ndarray) -> np.ndarray:
    vals, vecs = scipy.linalg.eigh(A)
    return vecs[:, vals <= KERNEL_TOL]


def verify_ground_space_preservation(spec: FiniteRangeSpec, cubes, config=None) -> bool:
    """Kernels of the original and coarse Hamiltonians coincide on a region.

    `cubes` is a collection of cube indices b (the region is the union of
    C(R*b)).  Both Hamiltonians are built densely on the region with a
    shared cube-major site order, and both kernels are cut at KERNEL_TOL;
    the check is mutual subspace containment with residual at most 1e-9.
    Raises DimensionLimitError when the region dimension exceeds the dense
    limit.
    """
    limit = config.dense_limit if config else DEFAULT_DENSE_LIMIT
    R = spec.R
    cube_set = sorted({_as_vec3(b) for b in cubes})
    if not cube_set:
        raise ValueError("region contains no cubes")
    op = region_hamiltonian(spec, cube_set)
    H_orig = dense_matrix(op, limit=limit)
    coarse_terms = []
    for cls in coarse_grain(spec).classes:
        M = cls.matrix(limit=limit)
        for b in _translates(cls.block, cube_set):
            coarse_terms.append((tuple(_cube_sites(_place(b, cls.block), R)), M))
    H_cg = dense_matrix(ManyBodyOperator(op.site_list, spec.d, coarse_terms), limit=limit)

    V1 = _kernel_basis(H_orig)
    V2 = _kernel_basis(H_cg)
    if V1.shape[1] != V2.shape[1]:
        return False
    if V1.shape[1] == 0:
        return True
    r12 = np.linalg.norm(V1 - V2 @ (V2.conj().T @ V1), ord=2)
    r21 = np.linalg.norm(V2 - V1 @ (V1.conj().T @ V2), ord=2)
    return max(r12, r21) <= SUBSPACE_TOL

