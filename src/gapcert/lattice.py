"""Periodic lattice geometry and the box-decomposition combinatorics.

Sites of the periodic box live on the D-dimensional torus with coordinates
in (-N, N] per axis (side length 2N).  Edges are *oriented slots*
(tail, tail + e_axis): on tori of side >= 3 a slot is in bijection with an
unordered nearest-neighbor pair, while on the degenerate side-2 torus each
unordered pair carries two distinct slots (the usual doubling of the
periodic two-site Hamiltonian, h_{1,2} + h_{2,1}).  Subsystem boxes are
translates of {0..n}^D together with their open-boundary edges, lifted to
the torus by coordinate wrap.

The counting facts verified here are the ones the box decomposition rests
on: with boxes over all (2N)^D translates, every edge lies in exactly
n(n+1)^(D-1) boxes, every aligned pair (two collinear edges sharing one
vertex) in exactly (n-1)(n+1)^(D-1), every bent pair (shared vertex,
different axes) in exactly n^2(n+1)^(D-2), and every disjoint pair in at
most n^2(n+1)^(D-2) -- exact for N >= 2n+1 and checked by enumeration.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

# Cap on the number of torus translates any enumeration walks over.
DEFAULT_ENUMERATION_LIMIT = 10**6

Site = tuple  # integer coordinate tuple of length D


@dataclass(frozen=True)
class LatticeGeometry:
    """Periodic box: D axes, coordinates in (-N, N] per axis."""

    D: int
    N: int
    periodic: bool = True

    def __post_init__(self):
        if self.D < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {self.D}")
        if self.N < 1:
            raise ValueError(f"half side length must be >= 1, got {self.N}")

    @property
    def side(self) -> int:
        return 2 * self.N

    @property
    def n_sites(self) -> int:
        return self.side**self.D


@dataclass(frozen=True, order=True)
class Edge:
    """Oriented nearest-neighbor slot tail -> head = tail + e_axis (mod side)."""

    tail: Site
    head: Site
    axis: int

    @property
    def endpoints(self) -> frozenset:
        return frozenset((self.tail, self.head))


@dataclass(frozen=True)
class BoxRegion:
    """Translate of the box {0..n}^D by `base`, taken mod the torus."""

    base: Site
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"box side parameter must be >= 1, got {self.n}")


class PairClass(Enum):
    SAME = "same"
    ALIGNED = "aligned"
    BENT = "bent"
    DISJOINT = "disjoint"


def canonical_site(coords, geometry: LatticeGeometry) -> Site:
    """Reduce integer coordinates to the representative in (-N, N] per axis."""
    N, side = geometry.N, geometry.side
    return tuple(((int(c) + N - 1) % side) - N + 1 for c in coords)


def sites(geometry: LatticeGeometry, enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT):
    """All canonical sites in lexicographic order; (2N)^D of them."""
    if geometry.n_sites > enumeration_limit:
        raise ValueError(
            f"site enumeration of size {geometry.n_sites} exceeds limit {enumeration_limit}"
        )
    rng = range(-geometry.N + 1, geometry.N + 1)
    return [tuple(c) for c in itertools.product(rng, repeat=geometry.D)]


def _shift(site, axis, delta, geometry):
    moved = list(site)
    moved[axis] += delta
    return canonical_site(moved, geometry)


def periodic_edges(geometry: LatticeGeometry):
    """All D*(2N)^D edge slots of the torus, ordered by (tail, axis)."""
    out = []
    for s in sites(geometry):
        for a in range(geometry.D):
            out.append(Edge(s, _shift(s, a, +1, geometry), a))
    return out


def _box_axis_offsets(D, n, axis):
    """Tail offsets of the box's internal edges along `axis`."""
    rngs = [range(n) if ax == axis else range(n + 1) for ax in range(D)]
    return list(itertools.product(*rngs))


def box_edges(box: BoxRegion, geometry: LatticeGeometry):
    """Internal (open-boundary) edges of the lifted box; D*n*(n+1)^(D-1) slots."""
    out = []
    for a in range(geometry.D):
        for p in _box_axis_offsets(geometry.D, box.n, a):
            tail = canonical_site([b + q for b, q in zip(box.base, p)], geometry)
            out.append(Edge(tail, _shift(tail, a, +1, geometry), a))
    return out


def grid_sites(D: int, side: int):
    """Sites {0..side-1}^D in lexicographic order (plain box, no canonical window)."""
    if D < 1 or side < 1:
        raise ValueError(f"need D >= 1 and side >= 1, got D={D}, side={side}")
    return [tuple(c) for c in itertools.product(range(side), repeat=D)]


def grid_edges(D: int, side: int, periodic: bool = False):
    """Nearest-neighbor edges of the box {0..side-1}^D.

    Open: tails with tail[axis] < side-1, giving D*(side-1)*side^(D-1) edges.
    Periodic: one slot per (site, axis) with wrap, giving D*side^D slots
    (side 2 doubles each pair, matching the periodic two-site convention).
    """
    if periodic and side < 2:
        raise ValueError("periodic edges need side >= 2")
    edges = []
    for s in grid_sites(D, side):
        for a in range(D):
            if s[a] + 1 < side:
                head = s[:a] + (s[a] + 1,) + s[a + 1 :]
            elif periodic:
                head = s[:a] + (s[a] + 1 - side,) + s[a + 1 :]
            else:
                continue
            edges.append(Edge(s, head, a))
    return edges


def classify_pair(e1: Edge, e2: Edge) -> PairClass:
    """Classify an edge pair by shared vertices.

    Same: identical slot, or identical endpoint set (the latter occurs only
    on side-2 tori, where wrap doubles each nearest-neighbor pair).
    Aligned/Bent: exactly one shared vertex, with equal/different axis.
    Disjoint: no shared vertex.
    """
    if e1 == e2:
        return PairClass.SAME
    shared = len(e1.endpoints & e2.endpoints)
    if shared == 2:
        return PairClass.SAME
    if shared == 1:
        return PairClass.ALIGNED if e1.axis == e2.axis else PairClass.BENT
    return PairClass.DISJOINT


@dataclass
class CountReport:
    """Enumerated box-containment counts vs. the closed forms.

    Count dictionaries map an observed containment count to how many
    edges / pairs / displacement classes realized it.  `discrepancies`
    is empty iff every count matches its closed form (equality for edges,
    aligned and bent pairs; upper bound for disjoint pairs).
    """

    D: int
    n: int
    N: int
    edge_expected: int
    aligned_expected: int
    bent_expected: int | None
    disjoint_bound: Fraction
    edge_counts: Counter = field(default_factory=Counter)
    aligned_counts: Counter = field(default_factory=Counter)
    bent_counts: Counter = field(default_factory=Counter)
    disjoint_counts: Counter = field(default_factory=Counter)
    discrepancies: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def verify_counting_lemma(n: int, geometry: LatticeGeometry) -> CountReport:
    """Check every box-containment count against its closed form.

    Per-edge counts and all vertex-sharing (aligned/bent) pairs are
    enumerated exhaustively.  Disjoint pairs are enumerated per displacement
    class: translating a pair by t maps box translates containing it
    bijectively onto those containing the translated pair (the box family
    consists of all torus translates), so the count of a pair depends only
    on the two axes and the tail displacement, and checking one
    representative per class checks every pair.  Discrepancies are
    collected, not raised; the closed forms are only guaranteed for
    N >= 2n+1.
    """
    D, N, side = geometry.D, geometry.N, geometry.side
    nsites = geometry.n_sites
    if n < 1:
        raise ValueError(f"box side parameter must be >= 1, got {n}")

    edge_expected = n * (n + 1) ** (D - 1)
    aligned_expected = (n - 1) * (n + 1) ** (D - 1)
    bent_expected = n * n * (n + 1) ** (D - 2) if D >= 2 else None
    disjoint_bound = Fraction(n * n * (n + 1) ** D, (n + 1) ** 2)

    report = CountReport(
        D=D,
        n=n,
        N=N,
        edge_expected=edge_expected,
        aligned_expected=aligned_expected,
        bent_expected=bent_expected,
        disjoint_bound=disjoint_bound,
    )
    if N < 2 * n + 1:
        report.notes.append(
            f"N={N} < 2n+1={2 * n + 1}: closed forms are not guaranteed in this regime"
        )
    if D == 1:
        report.notes.append("bent class skipped for D=1 (no bent pairs in one dimension)")

    site_list = sites(geometry)  # lexicographic
    coords = np.array(site_list, dtype=np.int64)
    strides = side ** np.arange(D - 1, -1, -1, dtype=np.int64)

    def site_index(arr):
        # arr (..., D) arbitrary integers -> flat index of the canonical site
        return ((arr + (N - 1)) % side) @ strides

    # Box-membership sets: S(t, a) = {box translates whose box contains slot (t, a)}
    # = {index(t - p) : p tail offset of an axis-a box edge}.
    boxsets = {}
    for a in range(D):
        offs = np.array(_box_axis_offsets(D, n, a), dtype=np.int64)
        base = site_index(coords[:, None, :] - offs[None, :, :])  # (nsites, n_off)
        for t in range(nsites):
            boxsets[(t, a)] = frozenset(base[t].tolist())

    unit = np.eye(D, dtype=np.int64)
    heads = site_index(coords[:, None, :] + unit[None, :, :])  # (nsites, D)
    tails_in = site_index(coords[:, None, :] - unit[None, :, :])

    # built once: classify_pair runs on every candidate pair below
    edge = {
        (t, a): Edge(site_list[t], site_list[heads[t, a]], a)
        for t in range(nsites)
        for a in range(D)
    }

    # --- per-edge counts, exhaustive over all slots
    for slot, s in boxsets.items():
        cnt = len(s)
        report.edge_counts[cnt] += 1
        if cnt != edge_expected:
            report.discrepancies.append(
                f"edge tail={site_list[slot[0]]} "
                f"axis={slot[1]}: count {cnt} != {edge_expected}"
            )

    def check_pair(slot1, slot2, cls):
        cnt = len(boxsets[slot1] & boxsets[slot2])
        t1, a1 = slot1
        t2, a2 = slot2
        where = f"tails {site_list[t1]}/{site_list[t2]} axes {a1}/{a2}"
        if cls is PairClass.ALIGNED:
            report.aligned_counts[cnt] += 1
            if cnt != aligned_expected:
                report.discrepancies.append(
                    f"aligned pair {where}: count {cnt} != {aligned_expected}"
                )
        elif cls is PairClass.BENT:
            report.bent_counts[cnt] += 1
            if bent_expected is not None and cnt != bent_expected:
                report.discrepancies.append(
                    f"bent pair {where}: count {cnt} != {bent_expected}"
                )
        elif cls is PairClass.DISJOINT:
            report.disjoint_counts[cnt] += 1
            if cnt > disjoint_bound:
                report.discrepancies.append(
                    f"disjoint pair {where}: count {cnt} > bound {disjoint_bound}"
                )

    # --- vertex-sharing pairs, exhaustive via the star of every site
    seen = set()
    for t in range(nsites):
        star = []
        for a in range(D):
            star.append((t, a))
            star.append((int(tails_in[t, a]), a))
        for slot1, slot2 in itertools.combinations(sorted(set(star)), 2):
            if (slot1, slot2) in seen:
                continue
            seen.add((slot1, slot2))
            cls = classify_pair(edge[slot1], edge[slot2])
            if cls is PairClass.SAME:
                report.notes.append(
                    f"doubled slot pair at site index {t} skipped (side-2 wrap)"
                )
                continue
            check_pair(slot1, slot2, cls)

    # --- disjoint pairs via displacement-class representatives
    origin_idx = int(site_index(np.zeros(D, dtype=np.int64)))
    for a1 in range(D):
        slot1 = (origin_idx, a1)
        for a2 in range(D):
            for t2 in range(nsites):
                slot2 = (t2, a2)
                if classify_pair(edge[slot1], edge[slot2]) is PairClass.DISJOINT:
                    check_pair(slot1, slot2, PairClass.DISJOINT)

    return report
