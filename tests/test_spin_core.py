import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from spindimer.oracle import trace_norm_discord
from spindimer.spin_core import (
    DimerModel,
    SINGLET,
    TOTAL_SZ,
    TRIPLET_MINUS,
    TRIPLET_PLUS,
    TRIPLET_ZERO,
    bell_diagonal_state,
    build_hamiltonian,
    eigensystem,
    fano_decompose,
    fano_reconstruct,
    projector,
    require_density_matrix,
    thermal_state,
)

# Explicit four-term Gibbs average of sigma_z sigma_z at J = 1, T = 1:
# (e^{-1/4} - e^{3/4}) / (3 e^{-1/4} + e^{3/4}), evaluated at 50 digits.
GIBBS_CZ_J1_T1 = -0.30048918189156225

# magnitudes kept well clear of the subnormal range so the analytic
# energies J/4 and -3J/4 stay exactly representable arithmetic
couplings = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=-1e-6, allow_nan=False),
)


class TestHamiltonian:
    def test_zero_coupling_gives_zero_matrix(self):
        h = build_hamiltonian(DimerModel(coupling=0.0))
        assert np.all(h == 0.0)

    def test_unit_coupling_spectrum(self):
        # independent diagonalizer on the same matrix
        h = build_hamiltonian(DimerModel(coupling=1.0))
        evals = np.linalg.eigvalsh(h)
        assert np.allclose(evals, [-0.75, 0.25, 0.25, 0.25], atol=1e-14)

    def test_hermitian_and_commutes_with_total_sz(self):
        h = build_hamiltonian(DimerModel(coupling=-3.7))
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        assert np.max(np.abs(h @ TOTAL_SZ - TOTAL_SZ @ h)) <= 1e-12

    @given(couplings)
    def test_spectrum_is_quarter_j_and_minus_three_quarter_j(self, j):
        eig = eigensystem(build_hamiltonian(DimerModel(coupling=j)))
        expected = np.sort(np.array([0.25 * j] * 3 + [-0.75 * j]))
        assert np.array_equal(eig.energies, expected)

    @given(couplings)
    def test_commutes_with_total_sz_for_all_couplings(self, j):
        h = build_hamiltonian(DimerModel(coupling=j))
        scale = max(1.0, abs(j))
        assert np.max(np.abs(h @ TOTAL_SZ - TOTAL_SZ @ h)) <= 1e-12 * scale


class TestEigensystem:
    def test_positive_coupling_singlet_ground_state(self):
        eig = eigensystem(build_hamiltonian(DimerModel(coupling=1.0)))
        assert eig.energies[0] == -0.75
        assert eig.labels[0] == (0, 0)
        overlap = abs(np.vdot(SINGLET, eig.states[:, 0]))
        assert abs(overlap - 1.0) < 1e-12

    def test_triplet_ordering_by_ms_descending(self):
        eig = eigensystem(build_hamiltonian(DimerModel(coupling=1.0)))
        assert eig.labels == ((0, 0), (1, 1), (1, 0), (1, -1))

    def test_negative_coupling_flips_spectrum(self):
        eig = eigensystem(build_hamiltonian(DimerModel(coupling=-1.0)))
        assert np.array_equal(eig.energies, [-0.25, -0.25, -0.25, 0.75])
        assert eig.labels[-1] == (0, 0)

    def test_singlet_energy_at_coupling_minus_two(self):
        # spectrum for J = -2: triplet at -1/2, singlet at +3/2
        eig = eigensystem(build_hamiltonian(DimerModel(coupling=-2.0)))
        assert eig.energies[eig.labels.index((0, 0))] == 1.5

    def test_eigenvectors_orthonormal(self):
        eig = eigensystem(build_hamiltonian(DimerModel(coupling=2.3)))
        gram = eig.states.conj().T @ eig.states
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_degenerate_zero_coupling_is_accepted(self):
        eig = eigensystem(build_hamiltonian(DimerModel(coupling=0.0)))
        assert np.all(eig.energies == 0.0)
        gram = eig.states.conj().T @ eig.states
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            eigensystem(bad)

    def test_rejects_non_dimer_hamiltonian(self):
        # a local field term is Hermitian but not singlet-triplet diagonal
        field = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))
        with pytest.raises(ValueError, match="singlet-triplet"):
            eigensystem(field)

    def test_state_lookup_by_label(self):
        eig = eigensystem(build_hamiltonian(DimerModel(coupling=1.0)))
        state = eig.states[:, eig.labels.index((1, 0))]
        assert abs(abs(np.vdot(TRIPLET_ZERO, state)) - 1.0) < 1e-12


class TestThermalState:
    def test_zero_temperature_positive_coupling_is_singlet_projector(self):
        rho = thermal_state(DimerModel(coupling=1.0), 0.0)
        assert np.max(np.abs(rho - projector(SINGLET))) < 1e-12

    def test_zero_temperature_negative_coupling_is_triplet_projector(self):
        # the triplet is the (threefold) ground manifold when J < 0
        rho = thermal_state(DimerModel(coupling=-1.0), 0.0)
        expected = (
            projector(TRIPLET_PLUS) + projector(TRIPLET_ZERO) + projector(TRIPLET_MINUS)
        ) / 3.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_infinite_temperature_limit_is_maximally_mixed(self):
        rho = thermal_state(DimerModel(coupling=1.0), 1e9)
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-6

    def test_gibbs_correlation_at_unit_coupling_and_temperature(self):
        rho = thermal_state(DimerModel(coupling=1.0), 1.0)
        cz = np.trace(rho @ np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))).real
        expected = (np.exp(-0.25) - np.exp(0.75)) / (3.0 * np.exp(-0.25) + np.exp(0.75))
        assert abs(cz - expected) < 1e-14
        assert abs(cz - GIBBS_CZ_J1_T1) < 1e-15

    def test_commutes_with_hamiltonian(self):
        model = DimerModel(coupling=-0.8)
        h = build_hamiltonian(model)
        rho = thermal_state(model, 0.3)
        assert np.max(np.abs(h @ rho - rho @ h)) < 1e-12

    @pytest.mark.parametrize("j", [1.0, -2.0, 0.7])
    @pytest.mark.parametrize("temp", [0.05, 1.0, 50.0])
    def test_eigenvalues_are_boltzmann_weights(self, j, temp):
        eig = eigensystem(build_hamiltonian(DimerModel(coupling=j)))
        weights = np.exp(-(eig.energies - eig.energies[0]) / temp)
        weights /= weights.sum()
        observed = np.linalg.eigvalsh(thermal_state(DimerModel(coupling=j), temp))
        assert np.max(np.abs(observed - np.sort(weights))) < 1e-12

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            thermal_state(DimerModel(), -0.1)

    def test_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            thermal_state(DimerModel(), np.nan)

    def test_infinite_temperature_is_maximally_mixed(self):
        rho = thermal_state(DimerModel(coupling=1.0), np.inf)
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-15


class TestFanoDecomposition:
    def test_singlet(self):
        fano = fano_decompose(projector(SINGLET))
        assert np.max(np.abs(fano.a)) < 1e-12
        assert np.max(np.abs(fano.b)) < 1e-12
        assert np.allclose(fano.tensor, -np.eye(3), atol=1e-12)

    def test_maximally_mixed(self):
        fano = fano_decompose(np.eye(4, dtype=complex) / 4.0)
        assert np.max(np.abs(fano.a)) < 1e-12
        assert np.max(np.abs(fano.b)) < 1e-12
        assert np.max(np.abs(fano.tensor)) < 1e-12

    def test_thermal_state_correlations_match_gibbs_sum(self):
        fano = fano_decompose(thermal_state(DimerModel(coupling=1.0), 1.0))
        assert np.allclose(fano.tensor, GIBBS_CZ_J1_T1 * np.eye(3), atol=1e-14)

    def test_flags_non_diagonal_correlation_tensor(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        up = np.array([1.0, 0.0], dtype=complex)
        rho = projector(np.kron(plus, up))
        assert abs(fano_decompose(rho).tensor[0, 2] - 1.0) < 1e-12
        # (I + sigma_x (x) sigma_z / 2) / 4: no Bloch vectors, one off-diagonal correlation.
        cross = (np.eye(4) + 0.5 * np.kron(np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0]))) / 4.0
        for state in (rho, cross):
            with pytest.raises(ValueError, match="is not Bell-diagonal"):
                trace_norm_discord(state, "closed_form_bell_diagonal")

    def test_rejects_invalid_density_matrix(self):
        with pytest.raises(ValueError, match="trace"):
            fano_decompose(np.eye(4, dtype=complex))
        negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            fano_decompose(negative)

    def test_roundtrip_on_random_bell_diagonal_states(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            weights = rng.dirichlet(np.ones(4))
            c1 = weights[0] - weights[1] + weights[2] - weights[3]
            c2 = -weights[0] + weights[1] + weights[2] - weights[3]
            c3 = weights[0] + weights[1] - weights[2] - weights[3]
            rho = bell_diagonal_state(np.array([c1, c2, c3]))
            worst = max(worst, np.max(np.abs(fano_reconstruct(fano_decompose(rho)) - rho)))
        assert worst < 1e-12

    def test_roundtrip_on_general_state(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        up = np.array([1.0, 0.0], dtype=complex)
        rho = 0.6 * projector(np.kron(plus, up)) + 0.4 * projector(SINGLET)
        assert np.max(np.abs(fano_reconstruct(fano_decompose(rho)) - rho)) < 1e-12


class TestStacks:
    """Stacks of states (..., 4, 4) go through the same code as one state."""

    @staticmethod
    def states():
        rng = np.random.default_rng(19)
        g = rng.standard_normal((12, 4, 4)) + 1j * rng.standard_normal((12, 4, 4))
        rho = g @ g.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        rho[:3] = [projector(SINGLET), np.eye(4) / 4.0, projector(TRIPLET_PLUS)]
        return rho.reshape(3, 4, 4, 4)

    def test_fano_decompose_and_reconstruct_bit_for_bit(self):
        states = self.states()
        stacked = fano_decompose(states)
        singles = [fano_decompose(rho) for rho in states.reshape(-1, 4, 4)]
        for field in ("a", "b", "tensor"):
            expected = np.array([getattr(f, field) for f in singles])
            got = getattr(stacked, field)
            assert np.array_equal(got.reshape(expected.shape), expected), field
            assert got.shape[:2] == (3, 4)
        rebuilt = np.array([fano_reconstruct(f) for f in singles]).reshape(states.shape)
        assert np.array_equal(fano_reconstruct(stacked), rebuilt)

    def test_bell_diagonal_state_bit_for_bit(self):
        rng = np.random.default_rng(20)
        w = rng.dirichlet(np.ones(4), size=(2, 5))
        c = np.stack([w @ [1, -1, 1, -1], w @ [-1, 1, 1, -1], w @ [1, 1, -1, -1]], axis=-1)
        expected = np.array([bell_diagonal_state(ci) for ci in c.reshape(-1, 3)]).reshape(2, 5, 4, 4)
        assert np.array_equal(bell_diagonal_state(c), expected)

    def test_invalid_state_is_named_by_its_index(self):
        states = self.states()
        states[2, 1, 0, 1] += 1e-3
        with pytest.raises(ValueError, match=r"rho\[2, 1\] is not Hermitian"):
            require_density_matrix(states)
        negative = np.array([np.eye(4) / 4.0] * 5)
        negative[3] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"rho\[3\] has a negative eigenvalue"):
            fano_decompose(negative)
        with pytest.raises(ValueError, match=r"bell-diagonal state\[1\] has a negative eigenvalue"):
            bell_diagonal_state(np.array([[-1.0, -1.0, -1.0], [0.5, 0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_rejected(self, bad):
        rho = np.eye(4) / 4.0
        rho[0, 0] = bad
        with pytest.raises(ValueError, match=r"^rho has a non-finite entry$"):
            require_density_matrix(rho)
        states = np.array([np.eye(4) / 4.0] * 6).reshape(2, 3, 4, 4)
        states[1, 2, 0, 0] = bad
        with pytest.raises(ValueError, match=r"^rho\[1, 2\] has a non-finite entry$"):
            require_density_matrix(states)

    def test_one_state_keeps_its_messages(self):
        with pytest.raises(ValueError, match=r"^rho is not Hermitian within 1e-12$"):
            require_density_matrix(np.triu(np.ones((4, 4))) / 4.0)
        with pytest.raises(ValueError, match=r"^rho must be a 4x4 matrix, got shape \(4, 3\)$"):
            require_density_matrix(np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"must be a 4x4 matrix, got shape \(2, 4, 3\)"):
            fano_decompose(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError, match="c must be a 3-vector"):
            bell_diagonal_state(np.zeros((2, 4)))


class TestBellDiagonalState:
    def test_isotropic_range(self):
        bell_diagonal_state(np.array([-1.0, -1.0, -1.0]))
        bell_diagonal_state(np.array([1.0, 1.0, -1.0]) / 3.0)
        with pytest.raises(ValueError):
            bell_diagonal_state(np.array([0.5, 0.5, 0.5]))

    def test_singlet_corner(self):
        rho = bell_diagonal_state(np.array([-1.0, -1.0, -1.0]))
        assert np.max(np.abs(rho - projector(SINGLET))) < 1e-12


class TestDimerModel:
    def test_fixed_ion_count_and_spin(self):
        assert DimerModel.n_ions == 2
        assert DimerModel.spin == 0.5
