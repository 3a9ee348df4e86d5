from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapcert.coarsegrain import (
    CoarseKind,
    FiniteRangeSpec,
    InteractionShape,
    MetaCube,
    build_Cn_region,
    build_HCn,
    coarse_grain,
    cube_of,
    diam1,
    metacube_adjacency_counts,
    validate_range,
    verify_ground_space_preservation,
)
from gapcert.lattice import grid_edges, grid_sites
from gapcert.models import heisenberg_ferro, heisenberg_ferro_fr
from gapcert.operators import DimensionLimitError, build_hamiltonian, dense_matrix

ZERO_BIT = np.diag([1.0, 0.0]).astype(complex)  # |0><0|


def single_site_spec(R=1):
    return FiniteRangeSpec(
        d=2, shapes=(InteractionShape(((0, 0, 0),), ZERO_BIT),), R=R
    )


class TestShapes:
    def test_offsets_sorted_and_origin(self):
        s = InteractionShape(((1, 0, 0), (0, 0, 0)), np.eye(4))
        assert s.offsets == ((0, 0, 0), (1, 0, 0))
        with pytest.raises(ValueError, match="origin"):
            InteractionShape(((1, 0, 0), (2, 0, 0)), np.eye(4))

    def test_projection_dim_guard(self):
        with pytest.raises(ValueError):
            FiniteRangeSpec(
                d=2, shapes=(InteractionShape(((0, 0, 0),), np.eye(4)),), R=1
            )

    def test_diam1(self):
        assert diam1([(0, 0, 0)]) == 0
        assert diam1([(0, 0, 0), (1, 0, 0)]) == 1
        assert diam1([(0, 0, 0), (1, 1, 1)]) == 3
        assert diam1(single_site_spec().shapes[0]) == 0
        with pytest.raises(ValueError):
            diam1([])

    def test_validate_range(self):
        assert validate_range(heisenberg_ferro_fr(R=3))
        assert not validate_range(heisenberg_ferro_fr(R=1))  # diam 1 is not < 1
        assert validate_range(FiniteRangeSpec(d=2, shapes=(), R=1))


class TestGeometry:
    def test_cube_of(self):
        assert cube_of((1, 1, 1), 1) == (1, 1, 1)
        assert cube_of((2, 0, -1), 3) == (1, 0, 0)
        assert cube_of((-2, 4, 1), 3) == (-1, 1, 0)

    def test_metacube_sites(self):
        mc = MetaCube((0, 0, 0), 3)
        assert len(mc.sites) == 27
        assert mc.sites[0] == (-1, -1, -1)
        assert mc.sites[-1] == (1, 1, 1)
        assert mc.sites == sorted(mc.sites)
        assert MetaCube((2, 0, 0), 1).sites == [(2, 0, 0)]

    def test_region_sizes(self):
        assert len(build_Cn_region(1, 1)) == 8
        assert len(build_Cn_region(1, 3)) == 216
        assert len(build_Cn_region(2, 1)) == 27
        assert len(build_Cn_region(2, 3)) == 729

    def test_adjacency_counts(self):
        assert metacube_adjacency_counts() == {"face": 6, "edge": 12, "corner": 8}


class TestBuildHCn:
    def test_matches_nearest_neighbor_box(self):
        # R=1, n=1: the region is the 2^3 box and the finite-range terms are
        # exactly the 12 nearest-neighbor edges
        H_fr = build_HCn(heisenberg_ferro_fr(R=1), 1)
        H_nn = build_hamiltonian(heisenberg_ferro(), grid_edges(3, 2), grid_sites(3, 2))
        assert H_fr.n_terms == H_nn.n_terms == 12
        assert_allclose(dense_matrix(H_fr), dense_matrix(H_nn), atol=1e-14)

    def test_single_site_diagonal(self):
        # sum of |0><0| over 8 sites counts the zero bits of the basis index
        H = build_HCn(single_site_spec(), 1)
        A = dense_matrix(H)
        diag = np.real(np.diag(A))
        expected = [8 - bin(i).count("1") for i in range(256)]
        assert_allclose(diag, expected, atol=1e-14)
        assert_allclose(A - np.diag(np.diag(A)), 0, atol=1e-14)

    def test_empty_spec(self):
        H = build_HCn(FiniteRangeSpec(d=2, shapes=(), R=1), 1)
        assert H.n_terms == 0
        assert H.dimension == 256

    def test_matvec_limit(self):
        # 2^216 states on the 8 cubes of C_1 at R=3: past the dimension cap
        with pytest.raises(DimensionLimitError, match="feasible"):
            build_HCn(heisenberg_ferro_fr(R=3), 1)


class TestCoarseGrain:
    def test_r1_identity_classes(self):
        cg = coarse_grain(heisenberg_ferro_fr(R=1))
        assert cg.metaspin_dim == 2
        assert cg.n_cell_terms == 3
        assert [c.kind for c in cg.classes] == [CoarseKind.FACE] * 3
        assert [c.axes for c in cg.classes] == [(0,), (1,), (2,)]
        P = heisenberg_ferro().P
        for c in cg.classes:
            assert c.n_terms == 1
            assert c.block_dim == 4
            assert np.array_equal(c.matrix(), P)

    def test_r3_structure(self):
        cg = coarse_grain(heisenberg_ferro_fr(R=3))
        assert cg.metaspin_dim == 2**27
        assert cg.n_cell_terms == 81  # 3 shapes x 27 anchors
        kinds = Counter(c.kind for c in cg.classes)
        assert kinds == {CoarseKind.ON_SITE: 1, CoarseKind.FACE: 3}
        assert not cg.by_kind(CoarseKind.EDGE_ADJ)
        assert not cg.by_kind(CoarseKind.CORNER_ADJ)
        onsite, = cg.by_kind(CoarseKind.ON_SITE)
        assert onsite.n_terms == 54  # 3 axes x 18 interior anchors
        assert onsite.n_cubes == 1
        assert onsite.block_dim == 2**27
        for face in cg.by_kind(CoarseKind.FACE):
            assert face.n_terms == 9
            assert face.n_cubes == 2
            assert face.block_dim == 2**54

    def test_block_sites_cube_major(self):
        cg = coarse_grain(heisenberg_ferro_fr(R=3))
        face = cg.by_kind(CoarseKind.FACE)[0]
        sites_list = face.block_sites()
        assert len(sites_list) == 54
        # block coordinates are corner-based: all 27 sites of the first cube
        # (floor-division grouping) precede the second cube's sites
        first_cube = {tuple(c // 3 for c in s) for s in sites_list[:27]}
        second_cube = {tuple(c // 3 for c in s) for s in sites_list[27:]}
        assert len(first_cube) == len(second_cube) == 1
        assert first_cube != second_cube

    def test_matrix_refused_beyond_dense_limit(self):
        cg = coarse_grain(heisenberg_ferro_fr(R=3))
        with pytest.raises(DimensionLimitError):
            cg.by_kind(CoarseKind.FACE)[0].matrix()

    def test_span_exceeding_R_rejected(self):
        shape = InteractionShape(((0, 0, 0), (2, 0, 0)), np.zeros((4, 4)))
        spec = FiniteRangeSpec(d=2, shapes=(shape,), R=1)
        with pytest.raises(ValueError, match="spans 2 > R = 1"):
            coarse_grain(spec)

    def test_empty_spec(self):
        assert coarse_grain(FiniteRangeSpec(d=2, shapes=(), R=1)).classes == ()


class TestGroundSpacePreservation:
    def test_r1_two_cubes(self):
        spec = heisenberg_ferro_fr(R=1)
        assert verify_ground_space_preservation(spec, [(0, 0, 0), (1, 0, 0)])

    def test_r1_strip(self):
        spec = heisenberg_ferro_fr(R=1)
        cubes = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        assert verify_ground_space_preservation(spec, cubes)

    def test_r3_refused(self):
        with pytest.raises(DimensionLimitError, match="feasible"):
            verify_ground_space_preservation(
                heisenberg_ferro_fr(R=3), [(0, 0, 0), (1, 0, 0)]
            )

