"""One-sector solves: SU(2) models diagonalize only the central total-S^z
block and count each multiplet by |S+ v|^2, against the all-block solve of
the same terms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapcert import spectral
from gapcert.cli import main
from gapcert.criteria import aligned_pair_witness, verify_proposition_key
from gapcert.lattice import grid_edges, grid_sites
from gapcert.models import aklt, heisenberg_ferro, load_model, save_model
from gapcert.operators import (
    ManyBodyOperator,
    NNInteraction,
    Sector,
    build_hamiltonian,
    raised,
)
from gapcert.spectral import (
    KERNEL_TOL,
    EigenSolveConfig,
    _block_lowest,
    _residuals,
    _sectors,
    lowest_eigenvalue,
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
        want = spectral_gap(one_block(H), -np.inf, cfg).eigenvalues
        got = spectral_gap(H, -np.inf, cfg).eigenvalues
        assert_allclose(got, want, rtol=0, atol=1e-12)
        assert abs(lowest_eigenvalue(H, cfg) - want[0]) <= 1e-12

    def test_solves_one_block(self, name, factory, m, central, blocks, monkeypatch):
        seen = []
        inner = spectral._block_lowest

        def spy(op, sector, *args):
            seen.append(sector.size)
            return inner(op, sector, *args)

        monkeypatch.setattr(spectral, "_block_lowest", spy)
        H = chain(factory(), m)
        spectral_gap(H)
        assert seen == [central]
        seen.clear()
        spectral_gap(all_blocks(H))
        assert len(seen) == blocks
        assert sum(seen) == H.dimension

    def test_raise_central_matches_full_space_apply(self, name, factory, m, central, blocks):
        # reference: the full-space sum of single-site S+ terms on the embedded columns
        H = chain(factory(), m)
        labels = np.sum(np.array(H.charges)[np.indices((H.d,) * m).reshape(m, -1)], axis=0)
        low = labels[labels >= 0].min()
        a, b = np.argwhere(H.raising)[0]
        step = H.charges[a] - H.charges[b]
        idx, up = np.flatnonzero(labels == low), np.flatnonzero(labels == low + step)
        V = np.random.default_rng(0).standard_normal((central, 3))
        full = np.zeros((H.dimension, 3))
        full[idx] = V
        raising = ManyBodyOperator(H.site_list, H.d, [((s,), H.raising) for s in H.site_list])
        want = raising.apply(full)
        sectors = [Sector(m, H.d, H.charges, label) for label in (low, low + step)]
        assert [s.indices.tolist() for s in sectors] == [idx.tolist(), up.tolist()]
        got = raised(H.raising, *sectors, V)
        assert_allclose(got, want[up], rtol=0, atol=1e-14)
        assert np.linalg.norm(want) == pytest.approx(np.linalg.norm(got), rel=1e-14)


def test_raised_adds_image_rows_that_repeat_within_a_site():
    # two spin-1/2 doublets on one site, mixed by a Hadamard: S+ sends both
    # down states d1 and d2 of a site into u1 and u2 at once, so two states
    # of one site share each image row, and only an unbuffered add
    # (np.add.at) sums both; the reference is the full-space sum of the
    # single-site S+ terms on the embedded columns
    r = np.sqrt(0.5)
    Sp = np.zeros((4, 4))
    Sp[:2, 2:] = [[r, r], [r, -r]]
    charges = (1, 1, -1, -1)
    model = NNInteraction(d=4, P=np.zeros((16, 16)), charges=charges, raising=Sp)
    sites = [(0,), (1,), (2,)]
    sectors = [Sector(3, 4, charges, label) for label in (-1, 1)]
    V = np.random.default_rng(1).standard_normal((sectors[0].size, 3))
    full = np.zeros((4**3, 3))
    full[sectors[0].indices] = V
    up = ManyBodyOperator(sites, 4, [((s,), model.raising) for s in sites])
    want = up.apply(full)[sectors[1].indices]
    assert_allclose(raised(model.raising, *sectors, V), want, rtol=0, atol=1e-14)


def test_aklt_open_kernel_is_singlet_plus_triplet():
    # the open AKLT chain's four ground states are S = 0 and S = 1
    H = chain(aklt(), 6)
    [(sector, weigh)] = _sectors(H)
    vals, _, weights = _block_lowest(H, sector, EigenSolveConfig(), KERNEL_TOL, weigh)
    assert sorted(weights[vals <= KERNEL_TOL].tolist()) == [1, 3]
    assert spectral_gap(H).kernel_dim == 4


def test_reloaded_model_solves_all_blocks(tmp_path):
    # model files carry no S+, so a reloaded built-in takes the all-block
    # path, dense and iterative; the built-in's dense solve, where the kernel
    # count is exact, is the reference
    for factory, D, side in ((aklt, 1, 5), (heisenberg_ferro, 2, 3)):
        path = tmp_path / f"{factory.__name__}.model"
        save_model(factory(), path)
        back = load_model(path)
        assert back.charges == factory().charges and back.raising is None
        edges, site_list = grid_edges(D, side), grid_sites(D, side)
        want = spectral_gap(build_hamiltonian(factory(), edges, site_list))
        for config, method in ((None, "dense"), (EigenSolveConfig(dense_limit=1), "iterative")):
            got = spectral_gap(build_hamiltonian(back, edges, site_list), config=config)
            assert got.method == method
            assert got.kernel_dim == want.kernel_dim
            assert_allclose(got.gap, want.gap, rtol=0, atol=1e-12)


@pytest.fixture
def spies(monkeypatch):
    """The block sizes `_block_lowest` is given with no kernel (the witness
    solves), and a count of the times S+ is applied."""
    seen = {"witness blocks": [], "S+ applied": 0}
    block_lowest, raising = spectral._block_lowest, spectral.raised

    def spy_block(op, sector, config, kernel_tol, weigh):
        if kernel_tol == -np.inf:
            seen["witness blocks"].append(sector.size)
        return block_lowest(op, sector, config, kernel_tol, weigh)

    def spy_raising(*args):
        seen["S+ applied"] += 1
        return raising(*args)

    monkeypatch.setattr(spectral, "_block_lowest", spy_block)
    monkeypatch.setattr(spectral, "raised", spy_raising)
    return seen


class TestWitnessSolvesOneBlock:
    def test_prop_key_witnesses(self, spies):
        # the 2x2 torus: 4 sites, central block C(4, 2) = 6 of 5 charge blocks
        rep = verify_proposition_key(heisenberg_ferro(), 2, 1, 1)
        assert rep.passed
        assert spies["witness blocks"] == [6, 6]

    def test_aligned_builds_no_raising_map(self, spies):
        H = build_hamiltonian(aklt(), grid_edges(1, 6, periodic=True), grid_sites(1, 6))
        central = Sector(6, 3, H.charges, 0).size
        w = aligned_pair_witness(aklt(), 6)
        assert spies["witness blocks"] == [central]
        assert spies["S+ applied"] == 0
        spectral_gap(H)  # the gap weighs by 2S+1, so it does apply S+
        assert spies["S+ applied"] == 1
        assert w >= -1e-10

    def test_reloaded_model_solves_every_charge_block(self, spies, tmp_path):
        path = tmp_path / "aklt.model"
        save_model(aklt(), path)
        back = load_model(path)
        assert back.raising is None
        w = aligned_pair_witness(back, 5)
        assert len(spies["witness blocks"]) == 11 and sum(spies["witness blocks"]) == 3**5
        assert abs(w - aligned_pair_witness(aklt(), 5)) <= 1e-12


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
        monkeypatch.setattr(spectral, "raised", lambda *a: 1.05 * raised(*a))
        rc = main(["gap", "--model", "heisenberg-ferro", "--n", "4"])
        assert rc == 2
        assert "not integers" in capsys.readouterr().err
