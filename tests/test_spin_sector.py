"""One-sector solves: SU(2) models diagonalize only the central total-S^z
block and count each multiplet by |S+ v|^2, against the all-block solve of
the same terms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapcert import spectral
from gapcert.cli import main
from gapcert.lattice import grid_edges, grid_sites
from gapcert.models import aklt, heisenberg_ferro, load_model, save_model
from gapcert.operators import ManyBodyOperator, NNInteraction, build_hamiltonian
from gapcert.spectral import (
    KERNEL_TOL,
    EigenSolveConfig,
    _residuals,
    _solve_blocks,
    lowest_eigenvalues,
    spectral_gap,
)

UP_FROM_DOWN = np.array([[0.0, 1.0], [0.0, 0.0]])


def chain(model, m):
    return build_hamiltonian(model, grid_edges(1, m), grid_sites(1, m))


def one_block(H):
    """The same operator with no charges declared, so it is solved whole."""
    return ManyBodyOperator(H.site_list, H.d, H.terms)


def all_blocks(H):
    """The same operator with its charges but no S+, so every block is solved."""
    return ManyBodyOperator(H.site_list, H.d, H.terms, H.charges)


# (id, model, sites, central block dimension, number of charge blocks)
CHAINS = [
    ("ferro chain 7 (M0 = 1/2)", heisenberg_ferro, 7, 35, 8),
    ("aklt chain 6 (M0 = 0)", aklt, 6, 141, 13),
]


@pytest.mark.parametrize("name,factory,m,central,blocks", CHAINS, ids=[c[0] for c in CHAINS])
class TestOneSector:
    def test_matches_one_block(self, name, factory, m, central, blocks):
        H = chain(factory(), m)
        assert H.raising is not None
        whole = spectral_gap(one_block(H))
        for limit, atol in ((4096, 1e-12), (1, 1e-10)):
            rep = spectral_gap(H, config=EigenSolveConfig(dense_limit=limit))
            assert rep.kernel_dim == whole.kernel_dim
            assert rep.k_used == whole.k_used
            assert_allclose(rep.eigenvalues, whole.eigenvalues, rtol=0, atol=atol)
            assert_allclose(rep.gap, whole.gap, rtol=0, atol=atol)
            assert max(rep.residuals) <= atol

    def test_lowest_matches_one_block(self, name, factory, m, central, blocks):
        H = chain(factory(), m)
        cfg = EigenSolveConfig(k=20)
        want = [v for v, _ in lowest_eigenvalues(one_block(H), cfg)]
        got = [v for v, _ in lowest_eigenvalues(H, cfg)]
        assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_solves_one_block(self, name, factory, m, central, blocks, monkeypatch):
        seen = []
        inner = spectral._block_lowest

        def spy(B, *args):
            seen.append(B.shape[0])
            return inner(B, *args)

        monkeypatch.setattr(spectral, "_block_lowest", spy)
        H = chain(factory(), m)
        spectral_gap(H)
        assert seen == [central]
        seen.clear()
        spectral_gap(all_blocks(H))
        assert len(seen) == blocks
        assert sum(seen) == H.dimension


def test_aklt_open_kernel_is_singlet_plus_triplet():
    # the open AKLT chain's four ground states are S = 0 and S = 1
    H = chain(aklt(), 6)
    [(vals, _, weights, _)], _ = _solve_blocks(H, EigenSolveConfig(), KERNEL_TOL)
    assert sorted(weights[vals <= KERNEL_TOL].tolist()) == [1, 3]
    assert spectral_gap(H).kernel_dim == 4


def test_reloaded_model_solves_all_blocks(tmp_path):
    # model files carry no S+, so a reloaded built-in takes the all-block path
    path = tmp_path / "aklt.model"
    save_model(aklt(), path)
    back = load_model(path)
    assert back.charges == (1, 0, -1) and back.raising is None
    want, got = spectral_gap(chain(aklt(), 5)), spectral_gap(chain(back, 5))
    assert got.kernel_dim == want.kernel_dim
    assert_allclose(got.gap, want.gap, rtol=0, atol=1e-12)


def test_batched_residuals_match_column_loop():
    H = chain(heisenberg_ferro(), 8)
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((H.dimension, 5))
    vals = rng.standard_normal(5)
    loop = [np.linalg.norm(H.apply(v) - lam * v) for lam, v in zip(vals, vecs.T)]
    assert_allclose(_residuals(H, vals, vecs), loop, rtol=1e-13, atol=0)


class TestRefusals:
    def test_raising_breaks_commutator(self):
        # 2|up><down| gives S^z = diag(2, -2), and [S^z, S+] = 4 S+
        with pytest.raises(ValueError, match=r"\[S\^z, S\+\] != S\+"):
            NNInteraction(
                d=2, P=heisenberg_ferro().P, charges=(1, -1), raising=2 * UP_FROM_DOWN
            )

    def test_charge_conserving_projection_without_su2(self):
        # |01><01| conserves total S^z but is not SU(2)-invariant
        P = np.diag([0.0, 1.0, 0.0, 0.0])
        assert NNInteraction(d=2, P=P, charges=(1, -1)).charges == (1, -1)
        with pytest.raises(ValueError, match="not SU\\(2\\)-invariant"):
            NNInteraction(d=2, P=P, charges=(1, -1), raising=UP_FROM_DOWN)

    def test_raising_needs_charges(self):
        with pytest.raises(ValueError, match="needs per-site charges"):
            NNInteraction(d=2, P=heisenberg_ferro().P, raising=UP_FROM_DOWN)

    def test_charges_not_proportional_to_sz(self):
        with pytest.raises(ValueError, match="c \\* diag"):
            NNInteraction(d=2, P=heisenberg_ferro().P, charges=(-1, 1), raising=UP_FROM_DOWN)

    def test_integer_and_half_integer_spins_refused(self):
        # spin 1/2 (+) spin 0 on one site: the M = 0 block misses half-integer multiplets
        raising = np.zeros((3, 3))
        raising[0, 1] = 1.0
        with pytest.raises(ValueError, match="mix integers and half-integers"):
            NNInteraction(d=3, P=np.zeros((9, 9)), charges=(1, -1, 0), raising=raising)

    def test_off_integer_multiplicity_exits_2(self, capsys, monkeypatch):
        # a raising operator 5% too long moves every |S+ v|^2 off S(S+1) - M0(M0+1)
        class Stretched(ManyBodyOperator):
            def apply(self, v):
                return 1.05 * super().apply(v)

        monkeypatch.setattr(spectral, "ManyBodyOperator", Stretched)
        rc = main(["gap", "--model", "heisenberg-ferro", "--n", "4"])
        assert rc == 2
        assert "not integers" in capsys.readouterr().err
