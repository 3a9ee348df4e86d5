"""Total-charge sectors: the sectored solve against the one-block solve,
the charge check on models and model files, and the kernel counts the
sectors make exact on the iterative path."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapcert import operators, spectral
from gapcert.cli import main
from gapcert.lattice import grid_edges, grid_sites
from gapcert.models import (
    ModelFormatError,
    aklt,
    heisenberg_ferro,
    load_model,
    random_projection,
    save_model,
)
from gapcert.operators import (
    ManyBodyOperator,
    NNInteraction,
    Sector,
    build_hamiltonian,
    build_QR,
    dense_matrix,
    raised,
    weighted_sum,
)
from gapcert.spectral import (
    EigenSolveConfig,
    GapUndefinedError,
    _sectors,
    spectral_gap,
)

CASES = [
    ("ferro chain 6", heisenberg_ferro, 1, 6, False),
    ("ferro ring 7", heisenberg_ferro, 1, 7, True),
    ("aklt chain 5", aklt, 1, 5, False),
    ("aklt ring 6", aklt, 1, 6, True),
    ("ferro torus 3x3", heisenberg_ferro, 2, 3, True),
]


def hamiltonian(model, D, side, periodic):
    return build_hamiltonian(model, grid_edges(D, side, periodic=periodic), grid_sites(D, side))


def one_block(H):
    """The same operator with no charges declared, so it is solved whole."""
    return ManyBodyOperator(H.site_list, H.d, H.terms)


@pytest.mark.parametrize("name,factory,D,side,periodic", CASES, ids=[c[0] for c in CASES])
class TestSectoredMatchesOneBlock:
    def test_dense(self, name, factory, D, side, periodic):
        H = hamiltonian(factory(), D, side, periodic)
        assert H.charges == factory().charges
        sectored, whole = spectral_gap(H), spectral_gap(one_block(H))
        assert sectored.method == whole.method == "dense"
        assert sectored.kernel_dim == whole.kernel_dim
        assert len(sectored.eigenvalues) == len(whole.eigenvalues)
        assert_allclose(sectored.eigenvalues, whole.eigenvalues, rtol=0, atol=1e-12)
        assert_allclose(sectored.gap, whole.gap, rtol=0, atol=1e-12)
        assert max(sectored.residuals) <= 1e-12

    def test_iterative(self, name, factory, D, side, periodic):
        # every block through ARPACK or, when too small for it, dense eigh;
        # the one-block reference stays dense, where its kernel count is exact
        H = hamiltonian(factory(), D, side, periodic)
        sectored = spectral_gap(H, config=EigenSolveConfig(dense_limit=1))
        whole = spectral_gap(one_block(H))
        assert sectored.method == "iterative"
        assert sectored.kernel_dim == whole.kernel_dim
        assert_allclose(sectored.eigenvalues, whole.eigenvalues, rtol=0, atol=1e-10)
        assert max(sectored.residuals) <= 1e-10

    def test_widened_blocks(self, name, factory, D, side, periodic):
        # k = 1 is swallowed by the kernel of every block that has one, so
        # only those blocks widen; the report still holds kernel_dim + 1 values
        H = hamiltonian(factory(), D, side, periodic)
        whole = spectral_gap(one_block(H))
        for limit in (4096, 1):
            rep = spectral_gap(H, config=EigenSolveConfig(k=1, dense_limit=limit))
            assert rep.kernel_dim == whole.kernel_dim
            assert rep.k_used == whole.kernel_dim + 1
            assert_allclose(rep.gap, whole.gap, rtol=0, atol=1e-10)


def complex_spin_one():
    """A complex projection that conserves the spin-1 charges (1, 0, -1) but
    has no SU(2) symmetry: onto one random vector of the charge-0 states
    |0 2>, |1 1>, |2 0> of two sites."""
    rng = np.random.default_rng(5)
    v = np.zeros(9, dtype=complex)
    v[[2, 4, 6]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return NNInteraction(d=3, P=np.outer(v, v.conj()), charges=(1, 0, -1))


def reloaded_aklt():
    """aklt() as a model file reads back: its charges, but no S+."""
    return NNInteraction(d=3, P=aklt().P, charges=aklt().charges)


BLOCK_CASES = [
    ("ferro chain 7", heisenberg_ferro, 7, False),
    ("ferro ring 8", heisenberg_ferro, 8, True),
    ("aklt chain 5", aklt, 5, False),
    ("aklt ring 6", aklt, 6, True),
    ("complex ring 5", complex_spin_one, 5, True),
    ("reloaded aklt chain 5", reloaded_aklt, 5, False),
]


@pytest.mark.parametrize("name,factory,m,periodic", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
class TestBlockAssembly:
    """Blocks built from their basis against the principal submatrices of the
    full CSR of the same terms with the charges stripped: equal bit for bit,
    since both sum each entry over the terms in the same order."""

    def test_solved_blocks_are_principal_submatrices(self, name, factory, m, periodic):
        H = hamiltonian(factory(), 1, m, periodic)
        full = one_block(H).block(Sector(m, H.d))
        blocks = list(_sectors(H))
        assert len(blocks) == (1 if H.raising is not None else 2 * m * max(H.charges) + 1)
        for sector, _ in blocks:
            idx = sector.indices
            B, want = H.block(sector), full[idx][:, idx]
            assert B.dtype == want.dtype == H.dtype
            assert np.array_equal(B.toarray(), want.toarray())

    def test_every_charge_block_is_a_principal_submatrix(self, name, factory, m, periodic):
        # each total charge on its own label: the labels' states partition
        # the basis, and each block is the principal submatrix on its states
        H = hamiltonian(factory(), 1, m, periodic)
        full = one_block(H).block(Sector(m, H.d))
        labels = np.array(H.charges)[np.indices((H.d,) * m).reshape(m, -1)].sum(axis=0)
        seen = []
        for label in np.unique(labels).tolist():
            one = Sector(m, H.d, H.charges, label)
            assert np.array_equal(one.indices, np.flatnonzero(labels == label))
            seen += one.indices.tolist()
            B, want = H.block(one), full[one.indices][:, one.indices]
            assert B.dtype == want.dtype == H.dtype
            assert np.array_equal(B.toarray(), want.toarray())
        assert sorted(seen) == list(range(H.dimension))


ASSEMBLY_CASES = [
    ("aklt chain 6", aklt, 1, 6, False),
    ("aklt ring 6", aklt, 1, 6, True),
    ("ferro torus 3x3", heisenberg_ferro, 2, 3, True),
    ("complex chain 5", lambda: random_projection(3, 2, 5), 1, 5, False),
]


@pytest.mark.parametrize(
    "name,factory,D,side,periodic", ASSEMBLY_CASES, ids=[c[0] for c in ASSEMBLY_CASES]
)
def test_dense_and_csr_assembly_agree(name, factory, D, side, periodic):
    # the dense path adds the terms one at a time into its array, the CSR
    # path sums them pairwise: the same entries in another summation order,
    # so within a few eps per term, and exactly where every sum is exact
    # (the ferro entries are multiples of 1/2); S+ applied site by site to
    # the identity columns of a sector is the sector-to-image submatrix of
    # the dense sum of single-site S+ terms, bit for bit, since each entry
    # comes from one site only
    model = factory()
    dec = build_QR(model, grid_edges(D, side, periodic=periodic), grid_sites(D, side))
    m, d, charges = side**D, model.d, model.charges
    if charges is None:
        sectors = [Sector(m, d)]
    else:
        labels = np.array(charges)[np.indices((d,) * m).reshape(m, -1)].sum(axis=0)
        sectors = [Sector(m, d, charges, t) for t in np.unique(labels).tolist()]
    for op in (dec.H, weighted_sum([(2.0, dec.H), (1.0, dec.Q)]), dec.R):
        for sector in sectors:
            want = op.block(sector).toarray()
            got = dense_matrix(op, op.dimension, sector)
            assert got.dtype == want.dtype == op.dtype
            assert got.flags.f_contiguous
            if model.name == heisenberg_ferro().name:
                assert np.array_equal(got, want)
            else:
                tol = 4 * np.finfo(np.float64).eps * op.n_terms * np.abs(want).max()
                assert_allclose(got, want, rtol=0, atol=tol)
    if model.raising is not None:
        site_list = grid_sites(D, side)
        up = ManyBodyOperator(site_list, d, [((s,), model.raising) for s in site_list])
        full = dense_matrix(up, up.dimension)
        for sector, image in zip(sectors, sectors[1:]):
            got = raised(model.raising, sector, image, np.eye(sector.size))
            want = full[np.ix_(image.indices, sector.indices)]
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)


def test_charged_gap_builds_no_full_csr(capsys, monkeypatch, tmp_path):
    # the full tensor-basis CSR is placed only for an operator without charges
    full_space = []
    place = operators._placed

    def spy(M, pos, cols, rows):
        full_space.append(cols.size == cols.d**cols.m)
        return place(M, pos, cols, rows)

    monkeypatch.setattr(operators, "_placed", spy)
    save_model(aklt(), tmp_path / "aklt.model")
    for model in ("heisenberg-ferro", "aklt", str(tmp_path / "aklt.model")):
        assert main(["gap", "--model", model, "--n", "4"]) == 0
    assert full_space and not any(full_space)
    H = hamiltonian(heisenberg_ferro(), 1, 5, False)
    spectral_gap(one_block(H))
    assert any(full_space)


def test_iterative_path_builds_a_csr_only_for_arpack(capsys, monkeypatch, tmp_path):
    # a saved ferro 3x3 open box has charge blocks 1, 9, 36, 84, 126, 126,
    # 84, 36, 9, 1; ARPACK needs k = 8 <= dim - 2, so the blocks of 1 and 9
    # states are placed densely, and only the others are summed into a CSR
    csr, dense = [], []
    sum_csr, place_dense = operators._sum_csr, spectral.dense_matrix

    def spy_csr(placed, shape):
        csr.append(shape[0])
        return sum_csr(placed, shape)

    def spy_dense(op, limit, sector):
        dense.append(sector.size)
        return place_dense(op, limit, sector)

    monkeypatch.setattr(operators, "_sum_csr", spy_csr)
    monkeypatch.setattr(spectral, "dense_matrix", spy_dense)
    save_model(heisenberg_ferro(), tmp_path / "ferro.model")
    argv = ["gap", "--model", str(tmp_path / "ferro.model"), "--D", "2", "--n", "2"]
    assert main([*argv, "--dense-limit", "1"]) == 0
    assert "method: iterative" in capsys.readouterr().out
    assert csr == [36, 84, 126, 126, 84, 36]
    assert dense == [1, 9, 9, 1]


class TestBlocks:
    def test_ferro_blocks_are_sz_sectors(self):
        # charges without S+, so every block is solved
        H = hamiltonian(heisenberg_ferro(), 1, 6, False)
        blocks = list(_sectors(ManyBodyOperator(H.site_list, H.d, H.terms, H.charges)))
        assert [sector.size for sector, _ in blocks] == [1, 6, 15, 20, 15, 6, 1]
        covered = np.sort(np.concatenate([sector.indices for sector, _ in blocks]))
        assert (covered == np.arange(H.dimension)).all()

    def test_no_charges_is_one_block(self):
        H = one_block(hamiltonian(heisenberg_ferro(), 1, 4, False))
        assert [sector.size for sector, _ in _sectors(H)] == [16]

    def test_whole_basis_is_the_charge_zero_sector(self):
        # Sector(m, d) is a sector like any other, with every charge 0, and it
        # is the one block of an operator without charges
        assert np.array_equal(Sector(3, 3).indices, np.arange(27))
        H = one_block(hamiltonian(heisenberg_ferro(), 1, 4, False))
        [(sector, weigh)] = _sectors(H)
        assert np.array_equal(sector.indices, np.arange(16))
        assert weigh is spectral._unit_weights

    def test_sector_keeps_only_its_indices(self):
        # nothing is stored per site: a built sector holds its indices and a
        # few arrays of m entries, and its label array is freed
        tracemalloc.start()
        try:
            sector = Sector(20, 2, (1, -1), 0)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sector.size == 184756
        assert kept <= sector.indices.nbytes + 64 * 1024

    def test_all_kernel_blocks_undefined(self):
        # every block is pure kernel, so there is no gap anywhere
        op = ManyBodyOperator([(0,), (1,), (2,)], 2, [], charges=(1, -1))
        for limit in (4096, 1):
            with pytest.raises(GapUndefinedError):
                spectral_gap(op, config=EigenSolveConfig(dense_limit=limit))

    def test_coupled_sectors_refused(self):
        # a term that flips one spin does not conserve the declared charges
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        op = ManyBodyOperator([(0,), (1,)], 2, [(((0,),), flip)], charges=(1, -1))
        with pytest.raises(ValueError, match="couples different sectors"):
            spectral_gap(op)

    def test_coupled_central_block_refused(self):
        # the same flip with S+ declared: the central block alone refuses it
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        up = np.array([[0, 1], [0, 0]], dtype=complex)
        sites = [(0,), (1,), (2,)]
        op = ManyBodyOperator(sites, 2, [(((1,),), flip)], charges=(1, -1), raising=up)
        with pytest.raises(ValueError, match=r"couples different sectors.*by -?2, not 0"):
            spectral_gap(op)


class TestCharges:
    def test_builtin_charges(self):
        assert heisenberg_ferro().charges == (1, -1)
        assert aklt().charges == (1, 0, -1)

    def test_wrong_charges_refused(self):
        with pytest.raises(ValueError, match="does not conserve"):
            NNInteraction(d=3, P=aklt().P, charges=(1, -1, 0))

    def test_malformed_charges_refused(self):
        for charges in ((1, 0), (1, 0.5, -1)):
            with pytest.raises(ValueError, match="3 integers"):
                NNInteraction(d=3, P=aklt().P, charges=charges)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "aklt.model"
        save_model(aklt(), path)
        assert path.read_text().splitlines()[1] == "Q= 1 0 -1"
        back = load_model(path)
        assert back.charges == (1, 0, -1)
        assert_allclose(back.P, aklt().P, rtol=0, atol=0)

    def test_no_charge_line_without_charges(self, tmp_path):
        path = tmp_path / "plain.model"
        save_model(NNInteraction(d=3, P=aklt().P), path)
        assert not any(l.startswith("Q=") for l in path.read_text().splitlines())
        assert load_model(path).charges is None

    def test_wrong_charges_in_file(self, tmp_path):
        path = tmp_path / "aklt.model"
        save_model(aklt(), path)
        lines = path.read_text().splitlines()
        lines[1] = "Q= 1 -1 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=r"line 2: Q= charges refused"):
            load_model(path)

    @pytest.mark.parametrize(
        "qline,message",
        [("Q= 1 0", "needs 3 per-site charges"), ("Q= 1 x -1", "charges must be integers")],
    )
    def test_malformed_charge_line(self, tmp_path, qline, message):
        path = tmp_path / "aklt.model"
        save_model(aklt(), path)
        lines = path.read_text().splitlines()
        lines[1] = qline
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=f"line 2: Q= {message}"):
            load_model(path)


def test_cli_iterative_kernel_is_exact(capsys):
    # one ARPACK solve of the whole 4096-state chain found 7 of the 13
    # kernel vectors; block by block every one is found
    rc = main(["gap", "--model", "heisenberg-ferro", "--D", "1", "--n", "11", "--dense-limit", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kernel_dim: 13\n" in out
    assert "gap: 0.0340741737109\n" in out
    assert "method: iterative" in out
