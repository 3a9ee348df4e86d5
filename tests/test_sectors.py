"""Total-charge sectors: the sectored solve against the one-block solve,
the charge check on models and model files, and the kernel counts the
sectors make exact on the iterative path."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapcert.cli import main
from gapcert.lattice import grid_edges, grid_sites
from gapcert.models import ModelFormatError, aklt, heisenberg_ferro, load_model, save_model
from gapcert.operators import ManyBodyOperator, NNInteraction, build_hamiltonian
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


class TestBlocks:
    def test_ferro_blocks_are_sz_sectors(self):
        # charges without S+, so every block is solved
        H = hamiltonian(heisenberg_ferro(), 1, 6, False)
        blocks = _sectors(ManyBodyOperator(H.site_list, H.d, H.terms, H.charges))
        assert [B.shape[0] for B, _, _ in blocks] == [1, 6, 15, 20, 15, 6, 1]
        covered = np.sort(np.concatenate([idx for _, idx, _ in blocks]))
        assert (covered == np.arange(H.dimension)).all()

    def test_no_charges_is_one_block(self):
        H = one_block(hamiltonian(heisenberg_ferro(), 1, 4, False))
        assert [B.shape[0] for B, _, _ in _sectors(H)] == [16]

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
