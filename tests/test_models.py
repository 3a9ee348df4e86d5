import numpy as np
import pytest
from numpy.testing import assert_allclose

from gapcert.coarsegrain import FiniteRangeSpec
from gapcert.lattice import grid_edges, grid_sites
from gapcert.models import (
    MODELS,
    ModelFormatError,
    aklt,
    build_model,
    heisenberg_ferro,
    heisenberg_ferro_fr,
    load_model,
    random_projection,
    resolve_model,
    save_model,
)
from gapcert.operators import build_hamiltonian, projection_defects
from gapcert.spectral import spectral_gap


def chain_gap(model, m, periodic=False):
    H = build_hamiltonian(model, grid_edges(1, m, periodic=periodic), grid_sites(1, m))
    return spectral_gap(H)


class TestHeisenbergFerro:
    def test_projection_exact(self):
        P = heisenberg_ferro().P
        assert projection_defects(P) == (0.0, 0.0)
        assert_allclose(np.linalg.eigvalsh(P), [0, 0, 0, 1], atol=1e-15)

    def test_annihilates_symmetric_states(self):
        P = heisenberg_ferro().P
        up = np.array([1, 0, 0, 0], dtype=complex)
        sym = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        anti = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        assert_allclose(P @ up, 0 * up, atol=1e-15)
        assert_allclose(P @ sym, 0 * sym, atol=1e-15)
        assert_allclose(P @ anti, anti, atol=1e-15)

    @pytest.mark.parametrize(
        "m,gap,kernel",
        [(3, 0.4999999999999999, 4), (4, 0.2928932188134525, 5)],
    )
    def test_open_chain_gaps(self, m, gap, kernel):
        rep = chain_gap(heisenberg_ferro(), m)
        assert rep.kernel_dim == kernel
        assert_allclose(rep.gap, gap, atol=1e-10)


class TestAKLT:
    def test_projection(self):
        model = aklt()
        assert model.d == 3
        assert model.check()
        vals = np.linalg.eigvalsh(model.P)
        assert_allclose(vals, np.round(vals), atol=1e-12)  # eigenvalues 0/1
        assert round(float(np.trace(model.P).real)) == 5

    def test_open_chain_gap(self):
        rep = chain_gap(aklt(), 3)
        assert rep.kernel_dim == 4
        assert_allclose(rep.gap, 0.4999999999999995, atol=1e-10)

    def test_periodic_unique_ground_state(self):
        rep = chain_gap(aklt(), 4, periodic=True)
        assert rep.kernel_dim == 1
        assert_allclose(rep.gap, 0.3333333333333326, atol=1e-10)


class TestRandomProjection:
    def test_deterministic(self):
        P1 = random_projection(3, 4, seed=11)
        P2 = random_projection(3, 4, seed=11)
        assert np.array_equal(P1.P, P2.P)
        assert P1.name == "random-d3-r4-s11"

    def test_rank_guards(self):
        with pytest.raises(ValueError):
            random_projection(2, 0, seed=0)
        with pytest.raises(ValueError):
            random_projection(2, 4, seed=0)

    def test_projection_and_rank(self):
        for d in (2, 3):
            for rank in range(1, d**2):
                for seed in range(4):
                    model = random_projection(d, rank, seed)
                    assert model.check()
                    assert round(float(np.trace(model.P).real)) == rank


class TestRegistry:
    def test_registry_entries(self):
        assert set(MODELS) == {"heisenberg-ferro", "aklt", "heisenberg-ferro-fr"}
        assert MODELS["aklt"].d == 3
        assert MODELS["heisenberg-ferro"].d == 2

    def test_build_model(self):
        assert build_model("heisenberg-ferro").name == "heisenberg-ferro"
        spec = build_model("heisenberg-ferro-fr", R=3)
        assert isinstance(spec, FiniteRangeSpec)
        assert spec.R == 3
        with pytest.raises(ValueError, match="registry"):
            build_model("no-such-model")

    def test_resolve_model(self, tmp_path):
        assert resolve_model("aklt").d == 3
        path = tmp_path / "mine.model"
        save_model(heisenberg_ferro(), path)
        loaded = resolve_model(str(path))
        assert loaded.name == "mine"
        with pytest.raises(ValueError, match="no such file"):
            resolve_model("missing.model")


class TestSaveLoad:
    def test_nn_round_trip_exact(self, tmp_path):
        path = tmp_path / "rand.model"
        model = random_projection(3, 5, seed=2)  # complex entries
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.d == 3
        assert np.array_equal(loaded.P, model.P)
        assert loaded.name == "rand"

    def test_finite_range_round_trip_exact(self, tmp_path):
        path = tmp_path / "fr.model"
        spec = heisenberg_ferro_fr(R=3)
        save_model(spec, path)
        loaded = load_model(path)
        assert isinstance(loaded, FiniteRangeSpec)
        assert loaded.d == spec.d and loaded.R == spec.R
        assert len(loaded.shapes) == len(spec.shapes) == 3
        for got, want in zip(loaded.shapes, spec.shapes):
            assert got.offsets == want.offsets
            assert np.array_equal(got.projection, want.projection)

    def test_unserializable(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), tmp_path / "x.model")


def write_model(tmp_path, text):
    path = tmp_path / "m.model"
    path.write_text(text)
    return path


class TestFormatErrors:
    def test_is_value_error(self):
        assert issubclass(ModelFormatError, ValueError)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="line 1: empty"):
            load_model(write_model(tmp_path, "\n\n"))

    def test_missing_header(self, tmp_path):
        with pytest.raises(ModelFormatError, match="expected 'd=<int>'"):
            load_model(write_model(tmp_path, "hello\n"))

    def test_non_integer_dimension(self, tmp_path):
        with pytest.raises(ModelFormatError, match="non-integer local dimension"):
            load_model(write_model(tmp_path, "d=two\n"))

    def test_dimension_too_small(self, tmp_path):
        with pytest.raises(ModelFormatError, match=">= 2"):
            load_model(write_model(tmp_path, "d=1\n"))

    def test_missing_imaginary_part(self, tmp_path):
        text = "d=2\n1.0 0,0 0,0 0,0\n" + "0,0 0,0 0,0 0,0\n" * 3
        with pytest.raises(
            ModelFormatError, match=r"line 2, entry 1: expected 're,im', got '1.0'"
        ):
            load_model(write_model(tmp_path, text))

    def test_non_numeric_entry(self, tmp_path):
        text = "d=2\na,b 0,0 0,0 0,0\n" + "0,0 0,0 0,0 0,0\n" * 3
        with pytest.raises(ModelFormatError, match="non-numeric entry"):
            load_model(write_model(tmp_path, text))

    def test_wrong_entry_count(self, tmp_path):
        text = "d=2\n0,0 0,0\n"
        with pytest.raises(ModelFormatError, match="expected 4 entries, found 2"):
            load_model(write_model(tmp_path, text))

    def test_truncated_matrix(self, tmp_path):
        text = "d=2\n" + "0,0 0,0 0,0 0,0\n" * 2
        with pytest.raises(ModelFormatError, match="unexpected end of file"):
            load_model(write_model(tmp_path, text))

    def test_trailing_content(self, tmp_path):
        text = "d=2\n" + "0,0 0,0 0,0 0,0\n" * 4 + "extra\n"
        with pytest.raises(ModelFormatError, match="trailing content"):
            load_model(write_model(tmp_path, text))

    def test_not_a_projection(self, tmp_path):
        rows = ["0.5,0 0,0 0,0 0,0"] + ["0,0 0,0 0,0 0,0"] * 3
        text = "d=2\n" + "\n".join(rows) + "\n"
        with pytest.raises(ModelFormatError, match=r"not a projection.*2\.5\d+e-01"):
            load_model(write_model(tmp_path, text))

    def test_even_range(self, tmp_path):
        with pytest.raises(ModelFormatError, match="odd and positive"):
            load_model(write_model(tmp_path, "d=2\nR=2\n"))

    def test_bad_shape_line(self, tmp_path):
        text = "d=2\nR=1\nT= (0,0,0)\n"
        with pytest.raises(ModelFormatError, match="expected a shape line"):
            load_model(write_model(tmp_path, text))

    def test_offset_coordinate_count(self, tmp_path):
        text = "d=2\nR=1\nS= (0,0)\n"
        with pytest.raises(ModelFormatError, match="3 coordinates"):
            load_model(write_model(tmp_path, text))

    def test_non_integer_offset(self, tmp_path):
        text = "d=2\nR=1\nS= (0,0,a)\n"
        with pytest.raises(ModelFormatError, match="non-integer offset"):
            load_model(write_model(tmp_path, text))

    def test_loads_valid_finite_range(self, tmp_path):
        text = "d=2\nR=1\nS= (0,0,0)\n1.0,0 0.0,0\n0.0,0 0.0,0\n"
        spec = load_model(write_model(tmp_path, text))
        assert isinstance(spec, FiniteRangeSpec)
        assert spec.shapes[0].offsets == ((0, 0, 0),)
