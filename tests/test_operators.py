import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gapcert.coarsegrain import FiniteRangeSpec, InteractionShape, region_hamiltonian
from gapcert.lattice import (
    LatticeGeometry,
    PairClass,
    classify_pairs,
    edge_arrays,
    grid_edges,
    grid_sites,
    periodic_edges,
    sites,
)
from gapcert.models import aklt, heisenberg_ferro, heisenberg_ferro_fr, random_projection
from gapcert.operators import (
    CompositeOperator,
    DimensionLimitError,
    ManyBodyOperator,
    NNInteraction,
    Sector,
    build_QR,
    build_hamiltonian,
    cauchy_schwarz_witness,
    dense_matrix,
    projection_check,
    _anticommutator,
    projection_defects,
    verify_square_identity,
    weighted_sum,
)

I2 = np.eye(2, dtype=complex)
FERRO = heisenberg_ferro()

# |01> - |10> singlet projector on two qubits
SINGLET = np.zeros((4, 4), dtype=complex)
SINGLET[1, 1] = SINGLET[2, 2] = 0.5
SINGLET[1, 2] = SINGLET[2, 1] = -0.5


def classify_pair(e1, e2):
    return PairClass(int(classify_pairs(*edge_arrays((e1, e2)), 0, 1)))


def random_vec(dim, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def single_term_operator(op, term_index):
    """One embedded term of `op` as a standalone operator on the same sites."""
    sites_of_term, M = op.terms[term_index]
    return ManyBodyOperator(op.site_list, op.d, [(sites_of_term, M)])


class TestProjectionCheck:
    def test_examples(self):
        assert projection_check(np.eye(4))
        assert projection_check(SINGLET)
        assert projection_check(np.zeros((3, 3)))
        assert not projection_check(2 * np.eye(4))  # not idempotent
        assert not projection_check(np.array([[0, 1], [0, 0]]))  # not Hermitian

    def test_defect_values(self):
        herm, idem = projection_defects(2 * SINGLET)
        assert herm == 0.0
        assert_allclose(idem, 2.0, atol=1e-14)  # ||4P^2 - 2P|| = 2||P||

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            projection_defects(np.zeros((2, 3)))


class TestNNInteraction:
    def test_shape_guard(self):
        with pytest.raises(ValueError):
            NNInteraction(d=2, P=np.eye(3))
        with pytest.raises(ValueError):
            NNInteraction(d=3, P=np.eye(4))

    def test_check(self):
        assert FERRO.check()
        assert not NNInteraction(d=2, P=0.5 * np.eye(4)).check()


class TestManyBodyOperator:
    def test_embedding_matches_kron(self):
        # first listed site is the most significant factor
        chain = [(0,), (1,), (2,)]
        op01 = ManyBodyOperator(chain, 2, [(((0,), (1,)), SINGLET)])
        op12 = ManyBodyOperator(chain, 2, [(((1,), (2,)), SINGLET)])
        assert_allclose(dense_matrix(op01), np.kron(SINGLET, I2), atol=1e-14)
        assert_allclose(dense_matrix(op12), np.kron(I2, SINGLET), atol=1e-14)

    def test_single_site_embedding_d3(self):
        n1 = np.diag([0.0, 1.0, 2.0]).astype(complex)
        op = ManyBodyOperator([(0,), (1,)], 3, [(((1,),), n1)])
        assert_allclose(dense_matrix(op), np.kron(np.eye(3), n1), atol=1e-14)

    def test_widened_term_matches_narrow_term(self):
        # same physical term, once as a two-site term and once as a
        # three-site term with an identity leg
        chain = [(0,), (1,), (2,)]
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        bit = ManyBodyOperator(chain, 2, [(((0,), (1,)), M)])
        general = ManyBodyOperator(chain, 2, [(((0,), (1,), (2,)), np.kron(M, I2))])
        v = random_vec(8, seed=1)
        assert_allclose(bit.apply(v), general.apply(v), atol=1e-13)

    def test_nonadjacent_pair(self):
        # acting on (site0, site2) skips the middle tensor factor
        chain = [(0,), (1,), (2,)]
        op = ManyBodyOperator(chain, 2, [(((0,), (2,)), SINGLET)])
        expected = np.zeros((8, 8), dtype=complex)
        for a in range(2):
            for b in range(2):
                for ap in range(2):
                    for bp in range(2):
                        coeff = SINGLET[2 * a + b, 2 * ap + bp]
                        for mid in range(2):
                            expected[4 * a + 2 * mid + b, 4 * ap + 2 * mid + bp] += coeff
        assert_allclose(dense_matrix(op), expected, atol=1e-14)

    def test_reversed_site_order_transposes_factors(self):
        chain = [(0,), (1,)]
        M = np.arange(16, dtype=complex).reshape(4, 4)
        fwd = ManyBodyOperator(chain, 2, [(((0,), (1,)), M)])
        # SWAP . M . SWAP expressed by listing the sites in the other order
        swap = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                swap[2 * a + b, 2 * b + a] = 1.0
        rev = ManyBodyOperator(chain, 2, [(((1,), (0,)), swap @ M @ swap)])
        assert_allclose(dense_matrix(fwd), dense_matrix(rev), atol=1e-13)

    def test_apply_matches_dense(self):
        geo_sites = grid_sites(1, 4)
        H = build_hamiltonian(FERRO, grid_edges(1, 4), geo_sites)
        A = dense_matrix(H)
        v = random_vec(16, seed=2)
        assert_allclose(H.apply(v), A @ v, atol=1e-12)

    def test_batch_apply(self):
        H = build_hamiltonian(FERRO, grid_edges(1, 4), grid_sites(1, 4))
        rng = np.random.default_rng(3)
        B = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        out = H.apply(B)
        for j in range(5):
            assert_allclose(out[:, j], H.apply(B[:, j]), atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ManyBodyOperator([(0,), (0,)], 2, [])  # duplicate sites
        with pytest.raises(ValueError):
            ManyBodyOperator([(0,), (1,)], 2, [(((0,), (0,)), SINGLET)])
        with pytest.raises(ValueError):
            ManyBodyOperator([(0,), (1,)], 2, [(((0,),), SINGLET)])  # shape
        op = ManyBodyOperator([(0,), (1,)], 2, [(((0,), (1,)), SINGLET)])
        with pytest.raises(ValueError):
            op.apply(np.ones(3))

    def test_terms_round_trip(self):
        op = ManyBodyOperator([(0,), (1,), (2,)], 2, [(((1,), (2,)), SINGLET)])
        assert op.n_terms == 1
        (sites_of_term, M), = op.terms
        assert sites_of_term == ((1,), (2,))
        assert_allclose(M, SINGLET)
        sub = single_term_operator(op, 0)
        assert_allclose(dense_matrix(sub), dense_matrix(op), atol=1e-14)


class TestCompositeOperator:
    def test_product_applies_right_to_left(self):
        chain = [(0,), (1,)]
        A = ManyBodyOperator(chain, 2, [(((0,),), np.array([[0, 1], [0, 0]], dtype=complex))])
        B = ManyBodyOperator(chain, 2, [(((1,),), np.array([[0, 0], [1, 0]], dtype=complex))])
        comp = CompositeOperator(4, [(2.0, (A, B))])
        Ad, Bd = dense_matrix(A), dense_matrix(B)
        v = random_vec(4, seed=4)
        assert_allclose(comp.apply(v), 2.0 * (Ad @ (Bd @ v)), atol=1e-13)

    def test_dimension_mismatch(self):
        H4 = build_hamiltonian(FERRO, grid_edges(1, 4), grid_sites(1, 4))
        with pytest.raises(ValueError):
            CompositeOperator(8, [(1.0, (H4,))])


class TestWeightedSum:
    def test_matches_dense_combination(self):
        dec = build_QR(random_projection(2, 1, seed=3), grid_edges(1, 4), grid_sites(1, 4))
        h_weights = np.array([2.0, 0.0, -1.5])
        op = weighted_sum([(h_weights, dec.H), (-0.5, dec.Q), (3.0, dec.R)])
        # the zero-weight H term is dropped, the rest keep their order
        assert op.n_terms == 2 + dec.Q.n_terms + dec.R.n_terms
        assert [s for s, _ in op.terms[:2]] == [dec.H.terms[0][0], dec.H.terms[2][0]]
        h = [dense_matrix(single_term_operator(dec.H, i)) for i in range(3)]
        want = (
            sum(w * M for w, M in zip(h_weights, h))
            - 0.5 * dense_matrix(dec.Q)
            + 3.0 * dense_matrix(dec.R)
        )
        assert_allclose(dense_matrix(op), want, rtol=0, atol=1e-13)
        assert_sparse_matches_apply(op)

    def test_later_part_adds_into_earlier_terms(self):
        H = build_hamiltonian(FERRO, grid_edges(1, 3), grid_sites(1, 3))
        diff = weighted_sum([(1.0, H), (-1.0, H)])
        assert diff.n_terms == H.n_terms
        assert not any(M.any() for _, M in diff.terms)
        # within one part, terms on the same sites stay apart: on the 3-ring
        # two touching pairs share the union of sites (0, 1, 2)
        dec = build_QR(FERRO, grid_edges(1, 3, periodic=True), grid_sites(1, 3))
        unions = [s for s, _ in dec.Q.terms]
        assert len(set(unions)) < len(unions)
        op = weighted_sum([(2.0, dec.H), (1.0, dec.Q)])
        assert [s for s, _ in op.terms] == [s for s, _ in dec.H.terms] + unions

    def test_declares_what_it_is_given(self):
        # a sum keeps the charges and S+ that all its parts declare alike
        dec = build_QR(FERRO, grid_edges(1, 4, periodic=True), grid_sites(1, 4))
        for op in (dec.Q, dec.R):
            assert op.charges == FERRO.charges
            assert_allclose(op.raising, FERRO.raising)
            # no Q or R term couples different sectors: each charge block is
            # its dense principal submatrix
            full = dense_matrix(op)
            labels = {sum(q) for q in itertools.product(FERRO.charges, repeat=4)}
            sectors = [Sector(4, 2, FERRO.charges, label) for label in sorted(labels)]
            assert sum(sector.size for sector in sectors) == op.dimension
            for sector in sectors:
                want = full[np.ix_(sector.indices, sector.indices)]
                assert_allclose(op.block(sector).toarray(), want, rtol=0, atol=0)
        weights = np.arange(dec.Q.n_terms, dtype=float)
        op = weighted_sum([(2.0, dec.H), (weights, dec.Q), (-1.0, dec.R)])
        assert op.charges == FERRO.charges
        assert_allclose(op.raising, FERRO.raising)
        H = dec.H
        no_raising = ManyBodyOperator(H.site_list, H.d, H.terms, H.charges)
        op = weighted_sum([(1.0, dec.Q), (1.0, no_raising)])
        assert op.charges == FERRO.charges and op.raising is None
        plain = ManyBodyOperator(H.site_list, H.d, H.terms)
        op = weighted_sum([(1.0, dec.Q), (1.0, plain)])
        assert op.charges is None and op.raising is None

    def test_different_spaces_refused(self):
        H3 = build_hamiltonian(FERRO, grid_edges(1, 3), grid_sites(1, 3))
        H4 = build_hamiltonian(FERRO, grid_edges(1, 4), grid_sites(1, 4))
        A3 = build_hamiltonian(aklt(), grid_edges(1, 3), grid_sites(1, 3))
        for other in (H4, A3):
            with pytest.raises(ValueError, match="different spaces"):
                weighted_sum([(1.0, H3), (1.0, other)])


def identity_columns(op):
    """The operator through the matrix-free path, one identity column at a time."""
    return op.apply(np.eye(op.dimension, dtype=complex))


def assert_sparse_matches_apply(op):
    assert_allclose(op.sparse().toarray(), identity_columns(op), rtol=0, atol=1e-13)


class TestSparse:
    def test_pair_tail_after_head(self):
        # the term's first factor sits later in the site list than its second
        chain = [(0,), (1,), (2,), (3,)]
        M = np.random.default_rng(7).standard_normal((4, 4))
        op = ManyBodyOperator(chain, 2, [(((3,), (1,)), M + M.T)])
        assert_sparse_matches_apply(op)

    def test_real_models_are_float64(self):
        ferro = build_hamiltonian(FERRO, grid_edges(1, 6), grid_sites(1, 6))
        chain = build_hamiltonian(aklt(), grid_edges(1, 5), grid_sites(1, 5))
        for H in (ferro, chain):
            assert H.sparse().dtype == np.float64
            assert dense_matrix(H).dtype == np.float64
            assert_sparse_matches_apply(H)

    def test_three_site_terms(self):
        # an L-shaped three-site term: the ferro-fr singlet on two legs, the
        # identity on the third
        P = heisenberg_ferro_fr(R=1).shapes[0].projection
        shape = InteractionShape(((0, 0, 0), (1, 0, 0), (0, 1, 0)), np.kron(P, I2))
        spec = FiniteRangeSpec(d=2, shapes=(shape,), R=1)
        H = region_hamiltonian(spec, itertools.product(range(2), repeat=3))
        assert {len(sites_of_term) for sites_of_term, _ in H.terms} == {3}
        assert H.sparse().dtype == np.float64
        assert_sparse_matches_apply(H)

    def test_random_projection_is_complex(self):
        model = random_projection(3, 2, seed=4)
        H = build_hamiltonian(model, grid_edges(1, 4, periodic=True), grid_sites(1, 4))
        assert H.sparse().dtype == np.complex128
        assert_sparse_matches_apply(H)

    @given(st.permutations(range(5)))
    @settings(max_examples=30, deadline=None)
    def test_any_site_order(self, order):
        chain = grid_sites(1, 5)
        rng = np.random.default_rng(11)
        terms = [
            (tuple(chain[i] for i in picked), rng.standard_normal((2 ** len(picked),) * 2))
            for picked in ((0,), (1, 2), (4, 0), (3, 1, 4))
        ]
        op = ManyBodyOperator([chain[i] for i in order], 2, terms)
        assert_sparse_matches_apply(op)


def local_matrix(rng, d, k, kind, complex_):
    """A d^k x d^k matrix: "full" has no zero row or column, "zero" is all
    zero, "cut" zeroes about half of its rows and half of its columns, always
    row 0 and the last column but never the last row or column 0."""
    n = d**k
    M = rng.uniform(0.5, 1.5, (n, n)) * rng.choice([-1, 1], (n, n))
    if complex_:
        M = M + 1j * rng.standard_normal((n, n))
    if kind == "zero":
        M[:] = 0
    elif kind == "cut":
        rows, cols = rng.random(n) < 0.5, rng.random(n) < 0.5
        rows[[0, -1]] = cols[[-1, 0]] = True, False
        M[rows] = 0
        M[:, cols] = 0
    return M


def vector_layouts(rng, dim):
    """A real 1-D vector, C- and F-ordered batches and a column slice."""
    batch = rng.standard_normal((dim, 3))
    return [
        rng.standard_normal(dim),
        batch,
        np.asfortranarray(batch),
        rng.standard_normal((dim, 7))[:, 2:5],
    ]


def assert_apply_matches_csr(op, V):
    got = op.apply(V)
    assert got.shape == V.shape
    assert_allclose(got, op.sparse() @ V, rtol=0, atol=1e-12)


class TestCutMatvec:
    """`apply` reads and writes only each term's nonzero rows and columns;
    the CSR assembly is the independent reference."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_named_cases(self, d):
        rng = np.random.default_rng(d)
        chain = grid_sites(1, 5)
        placed = [
            ((2,), "cut"),  # one site in the middle: one index array
            ((0,), "cut"),
            ((3, 1), "cut"),  # out of order
            ((4, 0), "cut"),  # far apart
            ((1, 2, 3), "cut"),  # adjacent
            ((4, 0, 2), "zero"),
            ((2, 4), "full"),
        ]
        terms = [
            (tuple(chain[i] for i in pos), local_matrix(rng, d, len(pos), kind, i % 2 == 1))
            for i, (pos, kind) in enumerate(placed)
        ]
        op = ManyBodyOperator(chain, d, terms)
        assert op.dtype == np.complex128
        for V in vector_layouts(rng, op.dimension):
            assert_apply_matches_csr(op, V)

    @given(
        d=st.sampled_from([2, 3]),
        data=st.data(),
        layout=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_terms(self, d, data, layout, seed):
        m = data.draw(st.integers(3, 6 if d == 2 else 4), label="sites")
        placed = data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True),
                    st.sampled_from(["cut", "cut", "zero", "full"]),
                    st.booleans(),
                ),
                min_size=1,
                max_size=5,
            ),
            label="terms",
        )
        rng = np.random.default_rng(seed)
        chain = grid_sites(1, m)
        terms = [
            (tuple(chain[i] for i in pos), local_matrix(rng, d, len(pos), kind, complex_))
            for pos, kind, complex_ in placed
        ]
        op = ManyBodyOperator(chain, d, terms)
        assert_apply_matches_csr(op, vector_layouts(rng, op.dimension)[layout])


class TestBuildHamiltonian:
    def test_open_three_site_spectrum(self):
        H = build_hamiltonian(FERRO, grid_edges(1, 3), grid_sites(1, 3))
        vals = np.linalg.eigvalsh(dense_matrix(H))
        assert_allclose(vals, [0, 0, 0, 0, 0.5, 0.5, 1.5, 1.5], atol=1e-12)

    def test_doubled_slot_ring(self):
        # side-2 ring carries two slots on the same pair, so H = 2 P
        geo = LatticeGeometry(D=1, N=1)
        H = build_hamiltonian(FERRO, periodic_edges(geo), sites(geo))
        assert H.n_terms == 2
        vals = np.linalg.eigvalsh(dense_matrix(H))
        assert_allclose(vals, [0, 0, 0, 2], atol=1e-12)

    def test_rejects_non_projection(self):
        bad = NNInteraction(d=2, P=0.5 * np.eye(4))
        with pytest.raises(ValueError, match="projection"):
            build_hamiltonian(bad, grid_edges(1, 3), grid_sites(1, 3))

    def test_matvec_limit(self):
        # 2^29 states exceed the 2^28 dimension cap; refused before any allocation
        with pytest.raises(DimensionLimitError, match="at most 28 sites"):
            build_hamiltonian(FERRO, grid_edges(1, 29), grid_sites(1, 29))


QR_CASES = [
    (FERRO, grid_edges(2, 3, periodic=True), grid_sites(2, 3)),
    (aklt(), grid_edges(1, 5, periodic=True), grid_sites(1, 5)),
    (
        random_projection(2, 2, seed=5),
        periodic_edges(LatticeGeometry(D=2, N=1)),
        sites(LatticeGeometry(D=2, N=1)),
    ),
]
QR_IDS = ["ferro_torus3x3", "aklt_ring5", "random_side2"]


class TestBuildQR:
    def test_single_edge(self):
        dec = build_QR(FERRO, grid_edges(1, 2), grid_sites(1, 2))
        assert len(dec.q_pairs) == 0
        assert len(dec.r_pairs) == 0
        v = random_vec(4, seed=7)
        assert_allclose(dec.Q.apply(v), 0 * v, atol=1e-14)
        assert_allclose(dec.R.apply(v), 0 * v, atol=1e-14)
        # H^2 = H for a single projection
        assert_allclose(dec.H.apply(dec.H.apply(v)), dec.H.apply(v), atol=1e-13)

    def test_two_disjoint_edges(self):
        # 4-site chain, edges (0,1) and (2,3): commuting terms, R = 2 h1 h2
        edges = [e for e in grid_edges(1, 4) if e.tail != (1,)]
        assert len(edges) == 2
        dec = build_QR(FERRO, edges, grid_sites(1, 4))
        assert len(dec.q_pairs) == 0
        assert len(dec.r_pairs) == 1
        h1 = dense_matrix(single_term_operator(dec.H, 0))
        h2 = dense_matrix(single_term_operator(dec.H, 1))
        v = random_vec(16, seed=8)
        assert_allclose(dec.Q.apply(v), 0 * v, atol=1e-14)
        assert_allclose(dec.R.apply(v), 2 * h1 @ h2 @ v, atol=1e-12)

    def test_open_three_site_counts(self):
        dec = build_QR(FERRO, grid_edges(1, 3), grid_sites(1, 3))
        assert len(dec.q_pairs) == 1
        assert len(dec.r_pairs) == 0

    @pytest.mark.parametrize("model, edges, site_list", QR_CASES, ids=QR_IDS)
    def test_local_terms_match_products(self, model, edges, site_list):
        dec = build_QR(model, edges, site_list)
        limit = dec.H.dimension
        h = [dense_matrix(single_term_operator(dec.H, i), limit) for i in range(dec.H.n_terms)]
        ordered = sorted(edges)
        Q = np.zeros((limit, limit), dtype=complex)
        R = np.zeros((limit, limit), dtype=complex)
        widths = {"Q": [], "R": []}
        for i in range(len(h)):
            for j in range(i + 1, len(h)):
                ei, ej = ordered[i], ordered[j]
                width = len(frozenset((ei.tail, ei.head)) | frozenset((ej.tail, ej.head)))
                if classify_pair(ordered[i], ordered[j]) is PairClass.DISJOINT:
                    R += h[i] @ h[j] + h[j] @ h[i]
                    widths["R"].append(width)
                else:
                    Q += h[i] @ h[j] + h[j] @ h[i]
                    widths["Q"].append(width)
        assert_allclose(dense_matrix(dec.Q, limit), Q, rtol=0, atol=1e-13)
        assert_allclose(dense_matrix(dec.R, limit), R, rtol=0, atol=1e-13)
        # one local term per unordered pair, as wide as the pair's sites
        assert dec.Q.n_terms == len(dec.q_pairs) == len(widths["Q"])
        assert dec.R.n_terms == len(dec.r_pairs) == len(widths["R"])
        assert sorted(len(s) for s, _ in dec.Q.terms) == sorted(widths["Q"])
        assert sorted(len(s) for s, _ in dec.R.terms) == sorted(widths["R"])
        assert set(widths["Q"]) <= {2, 3} and set(widths["R"]) == {4}

    @pytest.mark.parametrize("model, edges, site_list", QR_CASES, ids=QR_IDS)
    def test_shared_terms_equal_per_pair_anticommutators(self, model, edges, site_list):
        # one matrix per overlap pattern, bitwise equal to forming each pair's own
        dec = build_QR(model, edges, site_list)
        ordered = sorted(edges)
        expected = {"Q": [], "R": []}
        slots = {"Q": [], "R": []}
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                e, f = ordered[i], ordered[j]
                pair = ((e.tail, e.head), model.P), ((f.tail, f.head), model.P)
                term = _anticommutator(*pair, model.d)
                disjoint = classify_pair(e, f) is PairClass.DISJOINT
                expected["R" if disjoint else "Q"].append(term)
                slots["R" if disjoint else "Q"].append((i, j))
        assert dec.q_pairs.tolist() == [list(p) for p in slots["Q"]]
        assert dec.r_pairs.tolist() == [list(p) for p in slots["R"]]
        for op, want in ((dec.Q, expected["Q"]), (dec.R, expected["R"])):
            assert len(op.terms) == len(want)
            for (sites_of_term, M), (union, A) in zip(op.terms, want):
                assert sites_of_term == union
                assert np.array_equal(M, A)


def with_one_R_entry_shifted(dec, delta):
    """`dec` with `delta` added to entry (0, 0) of its first R term."""
    terms = dec.R.terms
    sites_of_term, M = terms[0]
    M = M.astype(np.result_type(M, delta))
    M[0, 0] += delta
    terms[0] = (sites_of_term, M)
    R = ManyBodyOperator(dec.R.site_list, dec.R.d, terms)
    return dataclasses.replace(dec, R=R)


class TestRealArithmetic:
    def test_operator_dtype(self):
        edges, site_list = grid_edges(1, 4, periodic=True), grid_sites(1, 4)
        for model in (FERRO, aklt()):
            assert build_hamiltonian(model, edges, site_list).dtype == np.float64
        model = random_projection(3, 2, seed=4)
        assert build_hamiltonian(model, edges, site_list).dtype == np.complex128

    def test_real_vector_stays_real(self):
        H = build_hamiltonian(aklt(), grid_edges(1, 5, periodic=True), grid_sites(1, 5))
        rng = np.random.default_rng(12)
        for shape in ((H.dimension,), (H.dimension, 3)):
            v = rng.standard_normal(shape)
            out = H.apply(v)
            assert out.dtype == np.float64
            assert_allclose(out, H.apply(v.astype(np.complex128)), rtol=0, atol=1e-13)
        w = random_vec(H.dimension, seed=13)
        assert H.apply(w).dtype == np.complex128
        assert_allclose(H.apply(w), H.sparse() @ w, rtol=0, atol=1e-13)

    def test_complex_operator_keeps_complex(self):
        model = random_projection(2, 2, seed=6)
        H = build_hamiltonian(model, grid_edges(1, 4), grid_sites(1, 4))
        v = np.random.default_rng(14).standard_normal(H.dimension)
        assert H.apply(v).dtype == np.complex128
        assert_allclose(H.apply(v), H.sparse() @ v, rtol=0, atol=1e-13)

    def test_square_identity_detects_shifted_R_entry(self, monkeypatch):
        args = (FERRO, grid_edges(2, 3, periodic=True), grid_sites(2, 3))
        assert verify_square_identity(*args, trials=3).passed
        for delta, dtype in ((1e-6, np.float64), (1e-6j, np.complex128)):
            dec = with_one_R_entry_shifted(build_QR(*args), delta)
            assert dec.R.dtype == dtype
            monkeypatch.setattr("gapcert.operators.build_QR", lambda *a, dec=dec: dec)
            report = verify_square_identity(*args, trials=3)
            assert not report.passed
            assert report.max_residual > 1e-8


def with_new_support(dec):
    """`dec` with its first Q and first R term each given a nonzero entry in
    a row and a column that were zero; a term with no zero row or column
    (AKLT) gets it at its first zero entry instead."""

    def widened(op):
        terms = op.terms
        sites_of_term, M = terms[0]
        rows, cols = np.flatnonzero(~M.any(axis=1)), np.flatnonzero(~M.any(axis=0))
        r, c = (rows[0], cols[0]) if rows.size else np.argwhere(M == 0)[0]
        M = M.copy()
        M[r, c] = 1e-6
        terms[0] = (sites_of_term, M)
        return ManyBodyOperator(op.site_list, op.d, terms)

    return dataclasses.replace(dec, Q=widened(dec.Q), R=widened(dec.R))


@pytest.mark.parametrize(
    "args",
    [
        (FERRO, grid_edges(2, 4, periodic=True), grid_sites(2, 4)),
        (aklt(), grid_edges(1, 6, periodic=True), grid_sites(1, 6)),
    ],
    ids=["ferro-4x4-torus", "aklt-ring6"],
)
def test_square_identity_sees_entries_outside_the_support(args, monkeypatch):
    dec = with_new_support(build_QR(*args))
    monkeypatch.setattr("gapcert.operators.build_QR", lambda *a: dec)
    report = verify_square_identity(*args, trials=1)
    assert not report.passed
    assert report.max_residual > 1e-8


class TestSquareIdentity:
    def test_ferro_chain_exact(self):
        report = verify_square_identity(FERRO, grid_edges(1, 8), grid_sites(1, 8))
        assert report.passed
        assert report.max_residual <= 1e-12
        assert report.n_touching_pairs == 6
        assert report.n_disjoint_pairs == 15

    def test_small_torus_d2(self):
        geo = LatticeGeometry(D=2, N=1)
        report = verify_square_identity(FERRO, periodic_edges(geo), sites(geo))
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_small_torus_d3_random(self):
        geo = LatticeGeometry(D=3, N=1)
        inter = random_projection(d=2, rank=2, seed=0)
        report = verify_square_identity(
            inter, periodic_edges(geo), sites(geo), trials=10
        )
        assert report.passed  # tol 1e-10

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            verify_square_identity(FERRO, grid_edges(1, 3), grid_sites(1, 3), trials=trials)

    def test_deterministic(self):
        args = (FERRO, grid_edges(1, 5), grid_sites(1, 5))
        r1 = verify_square_identity(*args, trials=5, seed=3)
        r2 = verify_square_identity(*args, trials=5, seed=3)
        assert r1.residuals == r2.residuals


class TestCauchySchwarz:
    def test_identity_interaction(self):
        ident = NNInteraction(d=2, P=np.eye(4))
        assert cauchy_schwarz_witness(ident, ident) == 4.0

    def test_ferro_nonnegative(self):
        assert cauchy_schwarz_witness(FERRO, FERRO) >= -1e-10

    def test_random_pairs_nonnegative(self):
        for d in (2, 3):
            for seed in range(5):
                P1 = random_projection(d, 1 + seed % (d**2 - 1), seed)
                P2 = random_projection(d, 1 + (seed + 1) % (d**2 - 1), seed + 50)
                assert cauchy_schwarz_witness(P1, P2) >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cauchy_schwarz_witness(FERRO, random_projection(3, 2, 0))

    def test_dense_limit(self):
        with pytest.raises(DimensionLimitError):
            cauchy_schwarz_witness(FERRO, FERRO, dense_limit=4)


class TestDenseMatrix:
    def test_limit(self):
        H = build_hamiltonian(FERRO, grid_edges(1, 5), grid_sites(1, 5))
        with pytest.raises(DimensionLimitError):
            dense_matrix(H, limit=16)

    def test_hermitian(self):
        H = build_hamiltonian(FERRO, grid_edges(1, 5), grid_sites(1, 5))
        A = dense_matrix(H)
        assert_allclose(A, A.conj().T, atol=1e-14)
