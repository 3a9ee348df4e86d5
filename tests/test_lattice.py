import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapcert.lattice import (
    BoxRegion,
    Edge,
    LatticeGeometry,
    PairClass,
    box_edges,
    canonical_site,
    classify_pair,
    periodic_edges,
    sites,
    verify_counting_lemma,
)


def box_sites(box: BoxRegion, geometry: LatticeGeometry):
    """The (n+1)^D sites of the lifted box (with repeats if the box wraps)."""
    return [
        canonical_site([b + p for b, p in zip(box.base, offs)], geometry)
        for offs in itertools.product(range(box.n + 1), repeat=geometry.D)
    ]


def n_edges(geometry: LatticeGeometry) -> int:
    """D edge slots per site of the torus."""
    return geometry.D * geometry.n_sites


def count_boxes_containing(target, n: int, geometry: LatticeGeometry) -> int:
    """Number of box translates containing all target edges, by brute force.

    `target` is a single Edge or an iterable of Edges.  Walks every translate
    l of the box {0..n}^D and tests membership of each target edge in the
    box's internal edge set.  The closed forms (see the gapcert.lattice
    docstring) are exact when N >= 2n+1; this function makes no such
    assumption.
    """
    edges = (target,) if isinstance(target, Edge) else tuple(target)
    count = 0
    for base in sites(geometry):
        slots = set(box_edges(BoxRegion(base, n), geometry))
        if all(e in slots for e in edges):
            count += 1
    return count


def make_edge(tail, axis, geometry):
    head = list(tail)
    head[axis] += 1
    return Edge(tuple(tail), canonical_site(head, geometry), axis)


class TestGeometry:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LatticeGeometry(D=0, N=3)
        with pytest.raises(ValueError):
            LatticeGeometry(D=2, N=0)

    def test_canonical_window(self):
        geo = LatticeGeometry(D=1, N=2)
        # representatives in (-2, 2]
        assert canonical_site((3,), geo) == (-1,)
        assert canonical_site((-2,), geo) == (2,)
        assert canonical_site((2,), geo) == (2,)
        assert canonical_site((6,), geo) == (2,)

    def test_sites_examples(self):
        assert sites(LatticeGeometry(D=1, N=2)) == [(-1,), (0,), (1,), (2,)]
        assert len(sites(LatticeGeometry(D=2, N=1))) == 4
        assert len(sites(LatticeGeometry(D=3, N=2))) == 64

    def test_sites_lexicographic_and_limit(self):
        geo = LatticeGeometry(D=2, N=2)
        ss = sites(geo)
        assert ss == sorted(ss)
        assert len(ss) == geo.n_sites
        with pytest.raises(ValueError):
            sites(LatticeGeometry(D=3, N=51))  # 102^3 > 10^6


class TestEdges:
    def test_periodic_counts(self):
        assert len(periodic_edges(LatticeGeometry(D=1, N=2))) == 4
        assert len(periodic_edges(LatticeGeometry(D=2, N=1))) == 8
        assert len(periodic_edges(LatticeGeometry(D=3, N=2))) == 192

    def test_wrap_edge_present(self):
        geo = LatticeGeometry(D=1, N=2)
        edges = periodic_edges(geo)
        assert Edge((2,), (-1,), 0) in edges
        assert len(set(edges)) == len(edges)  # slots are distinct

    def test_side_two_doubling(self):
        # on the side-2 torus both orientations of each pair appear as slots
        geo = LatticeGeometry(D=1, N=1)
        edges = periodic_edges(geo)
        assert len(edges) == 2
        assert frozenset((edges[0].tail, edges[0].head)) == frozenset(
            (edges[1].tail, edges[1].head)
        )
        assert edges[0] != edges[1]

    def test_box_sites_examples(self):
        geo1 = LatticeGeometry(D=1, N=5)
        assert box_sites(BoxRegion((0,), 2), geo1) == [(0,), (1,), (2,)]
        assert len(box_sites(BoxRegion((0, 0), 1), LatticeGeometry(D=2, N=5))) == 4
        assert len(box_sites(BoxRegion((0, 0, 0), 2), LatticeGeometry(D=3, N=5))) == 27

    def test_box_edges_counts(self):
        assert len(box_edges(BoxRegion((0,), 3), LatticeGeometry(D=1, N=5))) == 3
        assert len(box_edges(BoxRegion((0, 0), 2), LatticeGeometry(D=2, N=5))) == 12
        assert len(box_edges(BoxRegion((0, 0, 0), 1), LatticeGeometry(D=3, N=5))) == 12

    def test_box_edges_are_torus_slots(self):
        geo = LatticeGeometry(D=2, N=3)
        slots = set(periodic_edges(geo))
        for e in box_edges(BoxRegion((2, 3), 2), geo):  # wraps across the boundary
            assert e in slots


class TestClassify:
    def test_examples(self):
        geo = LatticeGeometry(D=1, N=5)
        e1 = make_edge((0,), 0, geo)
        e2 = make_edge((1,), 0, geo)
        assert classify_pair(e1, e2) is PairClass.ALIGNED

        geo2 = LatticeGeometry(D=2, N=5)
        b1 = make_edge((0, 0), 0, geo2)
        b2 = make_edge((1, 0), 1, geo2)
        assert classify_pair(b1, b2) is PairClass.BENT

        d1 = make_edge((0, 0), 0, geo2)
        d2 = make_edge((3, 3), 1, geo2)
        assert classify_pair(d1, d2) is PairClass.DISJOINT

    def test_same(self):
        geo = LatticeGeometry(D=2, N=5)
        e = make_edge((1, 2), 1, geo)
        assert classify_pair(e, e) is PairClass.SAME
        # doubled slots on the side-2 torus share both endpoints
        geo2 = LatticeGeometry(D=1, N=1)
        a, b = periodic_edges(geo2)
        assert classify_pair(a, b) is PairClass.SAME

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, data):
        D = data.draw(st.integers(1, 3))
        N = data.draw(st.integers(1, 3))
        geo = LatticeGeometry(D=D, N=N)
        all_sites = sites(geo)
        t1 = data.draw(st.sampled_from(all_sites))
        t2 = data.draw(st.sampled_from(all_sites))
        a1 = data.draw(st.integers(0, D - 1))
        a2 = data.draw(st.integers(0, D - 1))
        e1, e2 = make_edge(t1, a1, geo), make_edge(t2, a2, geo)
        assert classify_pair(e1, e2) is classify_pair(e2, e1)


class TestCountBoxes:
    def test_single_edge(self):
        geo = LatticeGeometry(D=2, N=5)
        e = make_edge((0, 0), 0, geo)
        assert count_boxes_containing(e, 2, geo) == 6

    def test_aligned_pair(self):
        geo = LatticeGeometry(D=1, N=5)
        pair = (make_edge((0,), 0, geo), make_edge((1,), 0, geo))
        assert count_boxes_containing(pair, 2, geo) == 1

    def test_bent_pair(self):
        geo = LatticeGeometry(D=2, N=5)
        pair = (make_edge((0, 0), 0, geo), make_edge((1, 0), 1, geo))
        assert count_boxes_containing(pair, 2, geo) == 4

    def test_translation_invariance(self):
        geo = LatticeGeometry(D=2, N=3)
        for shift in [(1, 0), (2, 4), (-1, 3)]:
            moved = []
            for tail, axis in [((0, 0), 0), ((1, 0), 1)]:
                t = canonical_site([c + s for c, s in zip(tail, shift)], geo)
                moved.append(make_edge(t, axis, geo))
            base = (make_edge((0, 0), 0, geo), make_edge((1, 0), 1, geo))
            assert count_boxes_containing(moved, 2, geo) == count_boxes_containing(
                base, 2, geo
            )


class TestCountingLemma:
    @pytest.mark.parametrize(
        "D,n,N",
        [(1, 2, 5), (2, 3, 7), (3, 2, 5)],
    )
    def test_clean_regimes(self, D, n, N):
        report = verify_counting_lemma(n, LatticeGeometry(D=D, N=N))
        assert report.ok, report.discrepancies[:5]
        assert set(report.edge_counts) == {n * (n + 1) ** (D - 1)}
        assert set(report.aligned_counts) == {(n - 1) * (n + 1) ** (D - 1)}
        if D >= 2:
            assert set(report.bent_counts) == {n * n * (n + 1) ** (D - 2)}
        else:
            assert report.bent_counts == {}

    def test_edge_count_totals(self):
        geo = LatticeGeometry(D=2, N=5)
        report = verify_counting_lemma(2, geo)
        assert sum(report.edge_counts.values()) == n_edges(geo)

    def test_out_of_regime_violation(self):
        # N=2 < 2n+1: wrap doubles the lift of a disjoint parallel pair
        geo = LatticeGeometry(D=2, N=2)
        report = verify_counting_lemma(3, geo)
        assert not report.ok
        assert any("disjoint" in d for d in report.discrepancies)
        assert any("not guaranteed" in note for note in report.notes)
        # cross-check one violating pair against the brute-force counter
        pair = (make_edge((0, 0), 0, geo), make_edge((0, 2), 0, geo))
        assert classify_pair(*pair) is PairClass.DISJOINT
        assert count_boxes_containing(pair, 3, geo) == 12
        assert report.disjoint_bound == 9

    def test_disjoint_bound_is_fraction_for_1d(self):
        report = verify_counting_lemma(2, LatticeGeometry(D=1, N=5))
        assert report.disjoint_bound == Fraction(4, 3)
        assert report.bent_expected is None

    def test_counts_match_brute_force(self):
        # the sweep and the per-translate brute force must agree edge-by-edge
        geo = LatticeGeometry(D=2, N=3)
        n = 2
        report = verify_counting_lemma(n, geo)
        assert report.ok
        for tail in [(0, 0), (2, -1), (3, 3)]:
            for axis in range(2):
                e = make_edge(tail, axis, geo)
                assert count_boxes_containing(e, n, geo) == report.edge_expected

    @given(
        D=st.integers(1, 2),
        n=st.integers(1, 3),
        N=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_counts_at_or_below_edge_expected_total(self, D, n, N):
        # sum of per-edge counts == total box-edge incidences (set-counted),
        # and in the clean regime every count equals the closed form
        geo = LatticeGeometry(D=D, N=N)
        report = verify_counting_lemma(n, geo)
        if N >= 2 * n + 1:
            assert report.ok
        total_slots = sum(report.edge_counts.values())
        assert total_slots == n_edges(geo)


def test_box_wrap_repeats_sites():
    # box larger than the torus revisits sites through the wrap
    geo = LatticeGeometry(D=1, N=1)
    ss = box_sites(BoxRegion((0,), 2), geo)
    assert len(ss) == 3
    assert len(set(ss)) == 2


@pytest.mark.parametrize(
    "D,n,N",
    [(1, 2, 1), (1, 3, 2), (1, 2, 5), (2, 2, 1), (2, 2, 2), (2, 1, 3), (3, 2, 1)],
)
def test_counting_report_matches_brute_force(D, n, N):
    # every vertex-sharing pair of slots and every disjoint pair with its first
    # slot at the origin, each counted by walking all box translates
    geo = LatticeGeometry(D=D, N=N)
    report = verify_counting_lemma(n, geo)
    slots = periodic_edges(geo)
    counts = {cls: Counter() for cls in PairClass}
    for e1, e2 in itertools.combinations(slots, 2):
        cls = classify_pair(e1, e2)
        if cls is PairClass.SAME:
            counts[cls][None] += 1
        elif cls is not PairClass.DISJOINT:
            counts[cls][count_boxes_containing((e1, e2), n, geo)] += 1
    for axis in range(D):
        e1 = make_edge((0,) * D, axis, geo)
        for e2 in slots:
            if classify_pair(e1, e2) is PairClass.DISJOINT:
                counts[PairClass.DISJOINT][count_boxes_containing((e1, e2), n, geo)] += 1
    edge_counts = Counter(count_boxes_containing(e, n, geo) for e in slots)

    assert report.edge_counts == edge_counts
    assert report.aligned_counts == counts[PairClass.ALIGNED]
    assert report.bent_counts == counts[PairClass.BENT]
    assert report.disjoint_counts == counts[PairClass.DISJOINT]
    doubled = sum("doubled slot pair" in note for note in report.notes)
    assert doubled == counts[PairClass.SAME][None]
    assert (doubled > 0) == (N == 1)

    def misses(counter, ok):
        return sum(v for c, v in counter.items() if not ok(c))

    expected_failures = (
        misses(edge_counts, lambda c: c == report.edge_expected)
        + misses(counts[PairClass.ALIGNED], lambda c: c == report.aligned_expected)
        + misses(counts[PairClass.BENT], lambda c: c == report.bent_expected)
        + misses(counts[PairClass.DISJOINT], lambda c: c <= report.disjoint_bound)
    )
    assert len(report.discrepancies) == expected_failures
