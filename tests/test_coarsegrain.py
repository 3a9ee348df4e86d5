from collections import Counter
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import null_space

from gapcert import coarsegrain
from gapcert.coarsegrain import (
    CoarseKind,
    FiniteRangeSpec,
    InteractionShape,
    _cube_sites,
    coarse_grain,
    cube_of,
    metacube_adjacency_counts,
    region_hamiltonian,
    verify_ground_space_preservation,
)
from gapcert.lattice import grid_edges, grid_sites
from gapcert.models import heisenberg_ferro, heisenberg_ferro_fr, random_projection
from gapcert.operators import DimensionLimitError, build_hamiltonian, dense_matrix

ZERO_BIT = np.diag([1.0, 0.0]).astype(complex)  # |0><0|


def single_site_spec(R=1):
    return FiniteRangeSpec(
        d=2, shapes=(InteractionShape(((0, 0, 0),), ZERO_BIT),), R=R
    )


def region_Cn(spec, n):
    """The Hamiltonian on the (n+1)^3 cubes C(R*b), b in [0, n]^3."""
    return region_hamiltonian(spec, product(range(n + 1), repeat=3))


def two_term_face_spec():
    """R=1 with two projections on the axis-0 bond, so Face (0,) has 2 terms."""
    singlet = heisenberg_ferro().P
    other = random_projection(2, 1, 3).P
    bond0, bond1 = ((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0))
    shapes = (
        InteractionShape(bond0, singlet),
        InteractionShape(bond0, other),
        InteractionShape(bond1, singlet),
        InteractionShape(((0, 0, 0),), ZERO_BIT),
    )
    return FiniteRangeSpec(d=2, shapes=shapes, R=1), singlet, other


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


class TestGeometry:
    def test_cube_of(self):
        assert cube_of((1, 1, 1), 1) == (1, 1, 1)
        assert cube_of((2, 0, -1), 3) == (1, 0, 0)
        assert cube_of((-2, 4, 1), 3) == (-1, 1, 0)

    def test_metacube_sites(self):
        # C(R*b) is centred at R*b, its sites lexicographic
        sites = _cube_sites([(0, 0, 0)], 3)
        assert len(sites) == 27
        assert sites[0] == (-1, -1, -1)
        assert sites[-1] == (1, 1, 1)
        assert sites == sorted(sites)
        assert _cube_sites([(2, 0, 0)], 1) == [(2, 0, 0)]
        assert _cube_sites([(1, -1, 0)], 3)[0] == (2, -4, -1)
        # cube-major in the given cube order, not sorted overall
        sites = _cube_sites([(1, 0, 0), (0, 0, 0)], 3)
        assert sites[:27] == _cube_sites([(1, 0, 0)], 3)
        assert sites[27:] == _cube_sites([(0, 0, 0)], 3)

    def test_region_sizes(self):
        for n, R in ((1, 1), (1, 3), (2, 1), (2, 3)):
            cubes = product(range(n + 1), repeat=3)
            assert len(_cube_sites(cubes, R)) == (n + 1) ** 3 * R**3

    def test_adjacency_counts(self):
        assert metacube_adjacency_counts() == {"face": 6, "edge": 12, "corner": 8}


class TestBuildHCn:
    def test_matches_nearest_neighbor_box(self):
        # R=1, n=1: the region is the 2^3 box and the finite-range terms are
        # exactly the 12 nearest-neighbor edges
        H_fr = region_Cn(heisenberg_ferro_fr(R=1), 1)
        H_nn = build_hamiltonian(heisenberg_ferro(), grid_edges(3, 2), grid_sites(3, 2))
        assert H_fr.n_terms == H_nn.n_terms == 12
        assert_allclose(dense_matrix(H_fr), dense_matrix(H_nn), atol=1e-14)

    def test_single_site_diagonal(self):
        # sum of |0><0| over 8 sites counts the zero bits of the basis index
        H = region_Cn(single_site_spec(), 1)
        A = dense_matrix(H)
        diag = np.real(np.diag(A))
        expected = [8 - bin(i).count("1") for i in range(256)]
        assert_allclose(diag, expected, atol=1e-14)
        assert_allclose(A - np.diag(np.diag(A)), 0, atol=1e-14)

    def test_empty_spec(self):
        H = region_Cn(FiniteRangeSpec(d=2, shapes=(), R=1), 1)
        assert H.n_terms == 0
        assert H.dimension == 256

    def test_matvec_limit(self):
        # 2^216 states on the 8 cubes of C_1 at R=3: past the dimension cap
        with pytest.raises(DimensionLimitError, match="feasible"):
            region_Cn(heisenberg_ferro_fr(R=3), 1)


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
        assert not [c for c in cg.classes if c.kind is CoarseKind.EDGE_ADJ]
        assert not [c for c in cg.classes if c.kind is CoarseKind.CORNER_ADJ]
        onsite, = [c for c in cg.classes if c.kind is CoarseKind.ON_SITE]
        assert onsite.n_terms == 54  # 3 axes x 18 interior anchors
        assert onsite.n_cubes == 1
        assert onsite.block_dim == 2**27
        for face in [c for c in cg.classes if c.kind is CoarseKind.FACE]:
            assert face.n_terms == 9
            assert face.n_cubes == 2
            assert face.block_dim == 2**54

    def test_lost_placement_breaks_conservation(self, monkeypatch):
        # one anchor of the unit cell dropped: 3 shapes x 27 - 3 terms assigned
        cube_sites = coarsegrain._cube_sites
        monkeypatch.setattr(coarsegrain, "_cube_sites", lambda cubes, R: cube_sites(cubes, R)[1:])
        with pytest.raises(AssertionError, match="term conservation violated: 78 assigned"):
            coarse_grain(heisenberg_ferro_fr(R=3))

    def test_block_sites_cube_major(self):
        cg = coarse_grain(heisenberg_ferro_fr(R=3))
        face = [c for c in cg.classes if c.kind is CoarseKind.FACE][0]
        sites_list = _cube_sites(face.block, 3)
        assert len(sites_list) == 54
        # all 27 sites of the first cube precede the second cube's sites
        first_cube = {cube_of(s, 3) for s in sites_list[:27]}
        second_cube = {cube_of(s, 3) for s in sites_list[27:]}
        assert len(first_cube) == len(second_cube) == 1
        assert first_cube != second_cube
        # anchors share the centred frame: the block holds each assigned term
        for shape, anchor in face.assigned:
            sites = {tuple(a + o for a, o in zip(anchor, off)) for off in shape.offsets}
            assert sites <= set(sites_list)

    def test_matrix_refused_beyond_dense_limit(self):
        cg = coarse_grain(heisenberg_ferro_fr(R=3))
        with pytest.raises(DimensionLimitError):
            [c for c in cg.classes if c.kind is CoarseKind.FACE][0].matrix()

    def test_multi_term_class_is_joint_kernel_complement(self):
        spec, P, P2 = two_term_face_spec()
        face, = [c for c in coarse_grain(spec).classes if c.axes == (0,)]
        assert face.kind is CoarseKind.FACE
        assert face.n_terms == 2
        M = face.matrix()
        assert_allclose(M, M.conj().T, atol=1e-14)
        assert_allclose(M @ M, M, atol=1e-12)
        assert_allclose(np.linalg.eigvalsh(M), [0, 0, 1, 1], atol=1e-12)
        joint_kernel = null_space(np.vstack([P, P2]))
        assert joint_kernel.shape == (4, 2)
        assert_allclose(np.eye(4) - M, joint_kernel @ joint_kernel.conj().T, atol=1e-12)
        strip = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        assert verify_ground_space_preservation(spec, strip)

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

