"""Periodic lattice geometry and the box-decomposition combinatorics.

Sites of the periodic box live on the D-dimensional torus with coordinates
in (-N, N] per axis (side length 2N).  Edges are *oriented slots*
(tail, tail + e_axis): on tori of side >= 3 a slot is in bijection with an
unordered nearest-neighbor pair, while on the degenerate side-2 torus each
unordered pair carries two distinct slots (the usual doubling of the
periodic two-site Hamiltonian, h_{1,2} + h_{2,1}).  Subsystem boxes are
translates of {0..n}^D together with their open-boundary edges, lifted to
the torus by coordinate wrap.  Both the torus and the boxes are built from
`grid_sites` / `grid_edges`, relabelled into the window.

The counting facts verified here are the ones the box decomposition rests
on: with boxes over all (2N)^D translates, every edge lies in exactly
n(n+1)^(D-1) boxes, every aligned pair (two collinear edges sharing one
vertex) in exactly (n-1)(n+1)^(D-1), every bent pair (shared vertex,
different axes) in exactly n^2(n+1)^(D-2), and every disjoint pair in at
most n^2(n+1)^(D-2) -- exact for N >= 2n+1 and checked by enumeration.
The verifier runs as integer array passes over all slots and pairs at once
(see `verify_counting_lemma`), with memory linear in the number of slots.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

import numpy as np

# Cap on the number of torus translates any enumeration walks over.
DEFAULT_ENUMERATION_LIMIT = 10**6
_PAIR_CHUNK = 1024  # pairs per array pass of `_common_counts`

Site = tuple  # integer coordinate tuple of length D


@dataclass(frozen=True)
class LatticeGeometry:
    """Periodic box: D axes, coordinates in (-N, N] per axis."""

    D: int
    N: int

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


@dataclass(frozen=True)
class BoxRegion:
    """Translate of the box {0..n}^D by `base`, taken mod the torus."""

    base: Site
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"box side parameter must be >= 1, got {self.n}")


class PairClass(IntEnum):
    """Edge-pair class; `classify_pairs` returns these as integer codes."""

    SAME = 0
    ALIGNED = 1
    BENT = 2
    DISJOINT = 3


def canonical_site(coords, geometry: LatticeGeometry) -> Site:
    """Reduce integer coordinates to the representative in (-N, N] per axis."""
    N, side = geometry.N, geometry.side
    return tuple(((int(c) + N - 1) % side) - N + 1 for c in coords)


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


def _window(geometry: LatticeGeometry):
    """Relabel grid coordinates [0, 2N) to the window (-N, N], order kept."""
    if geometry.n_sites > DEFAULT_ENUMERATION_LIMIT:
        raise ValueError(
            f"site enumeration of size {geometry.n_sites} exceeds limit "
            f"{DEFAULT_ENUMERATION_LIMIT}"
        )
    return lambda s: tuple(c - geometry.N + 1 for c in s)


def sites(geometry: LatticeGeometry):
    """All canonical sites in lexicographic order; (2N)^D of them."""
    relabel = _window(geometry)
    return [relabel(s) for s in grid_sites(geometry.D, geometry.side)]


def periodic_edges(geometry: LatticeGeometry):
    """All D*(2N)^D edge slots of the torus, ordered by (tail, axis)."""
    relabel = _window(geometry)
    grid = grid_edges(geometry.D, geometry.side, periodic=True)
    return [Edge(relabel(e.tail), relabel(e.head), e.axis) for e in grid]


def _box_axis_offsets(D, n, axis):
    """Tail offsets of the box's internal edges along `axis`."""
    rngs = [range(n) if ax == axis else range(n + 1) for ax in range(D)]
    return list(itertools.product(*rngs))


def box_edges(box: BoxRegion, geometry: LatticeGeometry):
    """Internal (open-boundary) edges of the lifted box; D*n*(n+1)^(D-1) slots."""
    D, side = geometry.D, box.n + 1
    lift = {
        p: canonical_site([b + q for b, q in zip(box.base, p)], geometry)
        for p in grid_sites(D, side)
    }
    return [Edge(lift[e.tail], lift[e.head], e.axis) for e in grid_edges(D, side)]


def edge_arrays(edges):
    """Tail, head and axis arrays of an edge list, sites labelled in order of appearance."""
    label = {}
    ends = [label.setdefault(s, len(label)) for e in edges for s in (e.tail, e.head)]
    tail, head = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    return tail, head, np.array([e.axis for e in edges], dtype=np.int64)


def classify_pairs(tail, head, axis, first, second) -> np.ndarray:
    """Classify edge pairs by shared vertices; `PairClass` codes out.

    Edge k is (tail[k], head[k], axis[k]) with integer site labels; pair p is
    edges (first[p], second[p]).
    Same: identical slot, or identical endpoint set (the latter occurs only
    on side-2 tori, where wrap doubles each nearest-neighbor pair).
    Aligned/Bent: exactly one shared vertex, with equal/different axis.
    Disjoint: no shared vertex.
    """
    t1, h1, a1 = tail[first], head[first], axis[first]
    t2, h2, a2 = tail[second], head[second], axis[second]
    # |{t1, h1} & {t2, h2}|, with h1 counted only when it is a second vertex
    shared = ((t1 == t2) | (t1 == h2)).astype(np.int8) + (
        ((h1 == t2) | (h1 == h2)) & (h1 != t1)
    )
    same = ((t1 == t2) & (h1 == h2) & (a1 == a2)) | (shared == 2)
    one = shared == 1
    codes = (PairClass.SAME, PairClass.ALIGNED, PairClass.BENT)
    return np.select([same, one & (a1 == a2), one], codes, PairClass.DISJOINT)


def classify_pair(e1: Edge, e2: Edge) -> PairClass:
    """`classify_pairs` for a single pair of edges."""
    return PairClass(int(classify_pairs(*edge_arrays((e1, e2)), 0, 1)))


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


def _common_counts(members, first, second) -> np.ndarray:
    """|S_first & S_second| per pair, for rows of `members` without repeats.

    Sorted together, two rows show each common element as equal neighbours;
    chunking bounds the temporaries at _PAIR_CHUNK x 2K integers for rows of K.
    """
    out = np.empty(len(first), dtype=np.int64)
    for lo in range(0, len(first), _PAIR_CHUNK):
        hi = lo + _PAIR_CHUNK
        both = np.sort(np.hstack((members[first[lo:hi]], members[second[lo:hi]])), axis=1)
        out[lo:hi] = np.count_nonzero(both[:, 1:] == both[:, :-1], axis=1)
    return out


def verify_counting_lemma(n: int, geometry: LatticeGeometry) -> CountReport:
    """Check every box-containment count against its closed form.

    Per-edge counts and all vertex-sharing (aligned/bent) pairs, taken from
    the star of every site, are enumerated exhaustively.  Disjoint pairs are
    enumerated per displacement class: translating a pair by t maps box
    translates containing it bijectively onto those containing the
    translated pair (the box family consists of all torus translates), so
    the count of a pair depends only on the two axes and the tail
    displacement, and checking one representative per class checks every
    pair.  Discrepancies are collected, not raised, in this order: edges by
    (axis, tail), star pairs by first appearance, disjoint representatives
    by (axis, axis, tail).  The closed forms are only guaranteed for N >= 2n+1.

    A pair's count intersects its two slots' rows of box translates
    (`_common_counts`), so memory stays at slots x boxes per slot plus one
    chunk of pairs, never slots x translates.
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

    # Slot s = t*D + a is the edge (t, t + e_a).  Row s of `members` holds the
    # sorted box translates containing it, index(t - p) over the tail offsets p
    # of the box's axis-a edges.  A box wider than the torus meets a slot twice;
    # each repeat becomes a distinct negative value that matches nothing.
    members = np.empty((nsites * D, edge_expected), dtype=np.int64)  # one box per tail offset
    for a in range(D):
        members[a::D] = site_index(coords[:, None, :] - np.array(_box_axis_offsets(D, n, a)))
    members.sort(axis=1)
    repeat = np.diff(members, axis=1, prepend=-1) == 0
    members[repeat] = -1 - np.flatnonzero(repeat)

    slot_tail, slot_axis = np.divmod(np.arange(nsites * D), D)
    slot_head = site_index(coords[:, None, :] + np.eye(D, dtype=np.int64)).ravel()
    tails_in = site_index(coords[:, None, :] - np.eye(D, dtype=np.int64))  # (nsites, D)

    def where(s1, s2):
        return f"tails {site_list[s1 // D]}/{site_list[s2 // D]} axes {s1 % D}/{s2 % D}"

    # --- per-edge counts, exhaustive over all slots, in (axis, tail) order
    edge_counts = (members.shape[1] - repeat.sum(axis=1)).reshape(nsites, D).T
    report.edge_counts.update(edge_counts.ravel().tolist())
    for a, t in zip(*np.nonzero(edge_counts != edge_expected)):
        report.discrepancies.append(
            f"edge tail={site_list[t]} axis={a}: count {edge_counts[a, t]} != {edge_expected}"
        )

    # --- vertex-sharing pairs, exhaustive via the star of every site: the
    # 2D slots ending at it, sorted, paired in itertools.combinations order,
    # each pair kept at its first appearance
    leaving = np.arange(nsites * D).reshape(nsites, D)
    star = np.sort(np.hstack((leaving, tails_in * D + np.arange(D))), axis=1)
    i, j = np.triu_indices(2 * D, 1)
    first, second = star[:, i].ravel(), star[:, j].ravel()
    _, keep = np.unique(first * (nsites * D) + second, return_index=True)
    keep.sort()
    first, second = first[keep], second[keep]
    cls = classify_pairs(slot_tail, slot_head, slot_axis, first, second)
    for t in keep[cls == PairClass.SAME] // len(i):
        report.notes.append(f"doubled slot pair at site index {t} skipped (side-2 wrap)")
    # every other star pair shares exactly the centre site: aligned or bent
    touching = cls != PairClass.SAME
    first, second = first[touching], second[touching]
    aligned = cls[touching] == PairClass.ALIGNED
    counts = _common_counts(members, first, second)
    report.aligned_counts.update(counts[aligned].tolist())
    report.bent_counts.update(counts[~aligned].tolist())
    expected = np.where(aligned, aligned_expected, bent_expected or 0)  # D=1: none bent
    for k in np.flatnonzero(counts != expected):
        kind = "aligned" if aligned[k] else "bent"
        report.discrepancies.append(
            f"{kind} pair {where(first[k], second[k])}: count {counts[k]} != {expected[k]}"
        )

    # --- disjoint pairs via displacement-class representatives
    origin = int(site_index(np.zeros(D, dtype=np.int64)))
    a1, a2, t2 = (g.ravel() for g in np.indices((D, D, nsites)))
    first, second = origin * D + a1, t2 * D + a2
    disjoint = classify_pairs(slot_tail, slot_head, slot_axis, first, second)
    first, second = (x[disjoint == PairClass.DISJOINT] for x in (first, second))
    counts = _common_counts(members, first, second)
    report.disjoint_counts.update(counts.tolist())
    over = counts * disjoint_bound.denominator > disjoint_bound.numerator
    for k in np.flatnonzero(over):
        report.discrepancies.append(
            f"disjoint pair {where(first[k], second[k])}: "
            f"count {counts[k]} > bound {disjoint_bound}"
        )

    return report
