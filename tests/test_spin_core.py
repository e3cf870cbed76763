"""Tests of the spin-1/2 dimer core.

`run_certificate_battery` is a command-line runner for the validation
certificate at a scale too large for the test suite:

    PYTHONPATH=src:tests python -c 'import test_spin_core as t; t.run_certificate_battery(200_000)'
"""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from spindimer.oracle import random_density_matrix, trace_norm_discord
from spindimer.spin_core import (
    EIGENVALUE_FLOOR,
    PAULI_PRODUCTS,
    TRACE_ATOL,
    DimerModel,
    SINGLET,
    SPIN_SITE_1,
    TOTAL_SZ,
    TRIPLET_MINUS,
    TRIPLET_PLUS,
    TRIPLET_ZERO,
    bell_diagonal_state,
    build_hamiltonian,
    eigensystem,
    fano_decompose,
    fano_reconstruct,
    _reject_first,
    projector,
    require_density_matrix,
    require_hermitian,
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

    @pytest.mark.parametrize("count", [2, 1])
    def test_rejects_a_stack(self, count):
        stack = np.broadcast_to(build_hamiltonian(DimerModel(coupling=1.0)), (count, 4, 4))
        with pytest.raises(ValueError, match=rf"^hamiltonian must be one 4x4 matrix, got shape \({count}, 4, 4\)$"):
            eigensystem(stack)

    # A transverse field h S_1^x on site 1 takes |00> to h/2 |10>: residual
    # h/2 for the first ket, rejected at any h because the tolerance is
    # 1e-9 of H's largest entry, h/2, with no absolute floor.
    @pytest.mark.parametrize("field,residual", [(2.0, r"1\.000e\+00"), (1e-11, r"5\.000e-12")])
    def test_residual_names_the_first_coupled_state_off_the_diagonal(self, field, residual):
        with pytest.raises(ValueError, match=rf"residual {residual} for \(s, m_s\) = \(1, 1\)"):
            eigensystem(field * SPIN_SITE_1[0])

    @pytest.mark.parametrize("j", [4.0, 1e-13, -1e-200, 0.0])
    def test_level_tolerance_is_relative_to_the_largest_entry(self, j):
        # The largest |entry| of the exchange Hamiltonian is |J|/2, off the diagonal.
        assert eigensystem(build_hamiltonian(DimerModel(coupling=j))).atol == 1e-9 * (abs(j) / 2.0)


class TestThermalState:
    # The level tolerance is 1e-9 |J| / 2, so the singlet-triplet gap |J|
    # splits the levels at any nonzero coupling, however small.
    @pytest.mark.parametrize("j", [1.0, 1e-13, 1e-200])
    def test_zero_temperature_positive_coupling_is_singlet_projector(self, j):
        rho = thermal_state(DimerModel(coupling=j), 0.0)
        assert np.max(np.abs(rho - projector(SINGLET))) < 1e-12

    @pytest.mark.parametrize("j", [-1.0, -1e-13])
    def test_zero_temperature_negative_coupling_is_triplet_projector(self, j):
        # the triplet is the (threefold) ground manifold when J < 0
        rho = thermal_state(DimerModel(coupling=j), 0.0)
        expected = (
            projector(TRIPLET_PLUS) + projector(TRIPLET_ZERO) + projector(TRIPLET_MINUS)
        ) / 3.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    @pytest.mark.parametrize("j", [1.0, -1.0])  # J = -1 has the degenerate triplet ground manifold
    def test_subnormal_temperature_is_the_zero_temperature_state(self, j):
        model = DimerModel(coupling=j)
        assert np.array_equal(thermal_state(model, 1e-310), thermal_state(model, 0.0))

    @pytest.mark.parametrize("temp", [0.0, 1.0])
    def test_zero_coupling_is_maximally_mixed(self, temp):
        # All four levels are one, and the level tolerance is 0.
        rho = thermal_state(DimerModel(coupling=0.0), temp)
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-15

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
        coeffs = fano_decompose(projector(SINGLET))
        assert abs(coeffs[0, 0] - 1.0) < 1e-12
        assert np.max(np.abs(coeffs[1:, 0])) < 1e-12
        assert np.max(np.abs(coeffs[0, 1:])) < 1e-12
        assert np.allclose(coeffs[1:, 1:], -np.eye(3), atol=1e-12)

    def test_maximally_mixed(self):
        coeffs = fano_decompose(np.eye(4, dtype=complex) / 4.0)
        assert abs(coeffs[0, 0] - 1.0) < 1e-12
        assert np.max(np.abs(coeffs[1:, 0])) < 1e-12
        assert np.max(np.abs(coeffs[0, 1:])) < 1e-12
        assert np.max(np.abs(coeffs[1:, 1:])) < 1e-12

    def test_thermal_state_correlations_match_gibbs_sum(self):
        coeffs = fano_decompose(thermal_state(DimerModel(coupling=1.0), 1.0))
        assert np.allclose(coeffs[1:, 1:], GIBBS_CZ_J1_T1 * np.eye(3), atol=1e-14)

    def test_flags_non_diagonal_correlation_tensor(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        up = np.array([1.0, 0.0], dtype=complex)
        rho = projector(np.kron(plus, up))
        assert abs(fano_decompose(rho)[1, 3] - 1.0) < 1e-12
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

    def test_roundtrip_on_ginibre_stacks(self):
        rho = random_density_matrix(np.random.default_rng(43), (2, 500))
        assert np.max(np.abs(fano_reconstruct(fano_decompose(rho)) - rho)) < 1e-15

    def test_decompose_equals_each_matrix_trace_bit_for_bit(self):
        states = random_density_matrix(np.random.default_rng(44), 1000)
        for rho in states:
            traces = np.array([[np.trace(rho @ PAULI_PRODUCTS[i, j]).real for j in range(4)] for i in range(4)])
            assert np.array_equal(fano_decompose(rho), traces)

    def test_decompose_equals_the_pauli_product_einsum_on_stacks(self):
        # The reference sums every entry of each row product, zeros included.
        states = random_density_matrix(np.random.default_rng(45), (3, 400))
        expected = np.einsum("ijab,...ba->...ija", PAULI_PRODUCTS, states).sum(axis=-1).real
        assert np.array_equal(fano_decompose(states), expected)

    def test_reconstruct_equals_the_mixed_dtype_einsum(self):
        rng = np.random.default_rng(46)
        coeffs = np.concatenate([
            fano_decompose(random_density_matrix(rng, 500)),
            fano_decompose(bell_diagonal_state(rng.dirichlet(np.ones(4), 500) @ [[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])),
        ])
        expected = np.einsum("...ij,ijab->...ab", coeffs, PAULI_PRODUCTS) / 4.0
        assert np.array_equal(fano_reconstruct(coeffs), expected)
        assert np.array_equal(fano_reconstruct(coeffs[3]), expected[3])


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
        singles = np.array([fano_decompose(rho) for rho in states.reshape(-1, 4, 4)])
        assert stacked.shape == (3, 4, 4, 4)
        assert np.array_equal(stacked.reshape(singles.shape), singles)
        rebuilt = np.array([fano_reconstruct(coeffs) for coeffs in singles]).reshape(states.shape)
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

    @pytest.mark.parametrize("coupling", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_coupling(self, coupling):
        with pytest.raises(ValueError, match="^coupling must be finite$"):
            DimerModel(coupling=coupling)

    # 1e200 and 1e-200 are finite and nonzero, but their squares are not; the
    # square of 1e-160 is 1e-320, a subnormal float.
    @pytest.mark.parametrize("g", [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e200, -1e200, 1e-200, 1e-160])
    def test_rejects_a_non_finite_or_zero_g(self, g):
        with pytest.raises(ValueError, match=r"^g\*\*2 must be finite and at least the smallest normal float, "
                                             r"2\.2250738585072014e-308$"):
            DimerModel(g=g)

    def test_zero_coupling_and_negative_g_are_valid(self):
        model = DimerModel(coupling=0.0, g=-2.0)
        assert (model.coupling, model.g) == (0.0, -2.0)


def eigvalsh_rule(rho, name="rho"):
    """`require_density_matrix` with positivity tested by `eigvalsh` alone,
    as it was before its Cholesky certificate: the reference the certificate
    must agree with, decision and message."""
    rho = require_hermitian(rho, name=name)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    _reject_first((np.abs(trace.real - 1.0) > TRACE_ATOL) | (np.abs(trace.imag) > TRACE_ATOL), name,
                  "does not have unit trace")
    _reject_first(np.linalg.eigvalsh(rho).min(axis=-1) < EIGENVALUE_FLOOR, name,
                  f"has a negative eigenvalue below {EIGENVALUE_FLOOR:g}")
    return rho


def outcome(check, rho):
    """The error message `check` raises on rho, or None if it passes."""
    try:
        check(rho)
    except ValueError as exc:
        return str(exc)
    return None


# Shifts of the smallest eigenvalue to -1e-10 (1 + delta): on both sides of
# EIGENVALUE_FLOOR, from far (delta = 2, -0.5) to within float resolution.
FLOOR_DELTAS = (0.5, -0.5, 1e-3, -1e-3, 1e-6, -1e-6, 0.0, 2.0)


def near_floor_battery(rng, per_rank):
    """Ginibre states of rank 1 to 4, each followed by its copies whose
    smallest eigenvalue is moved to -1e-10 (1 + delta) for each of
    FLOOR_DELTAS, the trace kept by moving the largest one the other way."""
    states = []
    for rank in range(1, 5):
        g = rng.standard_normal((per_rank, 4, rank)) + 1j * rng.standard_normal((per_rank, 4, rank))
        rho = g @ g.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        w, v = np.linalg.eigh(rho)
        shifted = [rho]
        for delta in FLOOR_DELTAS:
            target = EIGENVALUE_FLOOR * (1.0 + delta)
            moved = w.copy()
            moved[:, 0] = target
            moved[:, -1] += w[:, 0] - target
            shifted.append((v * moved[:, None, :]) @ v.conj().swapaxes(-1, -2))
        states.append(np.stack(shifted, axis=1).reshape(-1, 4, 4))
    return np.concatenate(states)


def run_certificate_battery(count: int) -> None:
    """`require_density_matrix` against `eigvalsh_rule` on `count` states of
    `near_floor_battery`, in stacks of 10000; prints how many stacks the
    certificate accepted whole and the time, and exits 1 on a disagreement.

    The states are ordered by their shift, the states as drawn first, so a
    stack is clean (as drawn, or all 0.5e-10 above the floor), lies on one
    side of the floor near it, or straddles it where two shifts meet."""
    start = time.perf_counter()
    copies = 1 + len(FLOOR_DELTAS)  # each drawn state and its shifted copies, for 4 ranks
    battery = near_floor_battery(np.random.default_rng(22), -(-count // (4 * copies)))
    states = battery.reshape(-1, copies, 4, 4).swapaxes(0, 1).reshape(-1, 4, 4)[:count]
    stacks = accepted = disagreements = 0
    for first in range(0, count, 10_000):
        stack = states[first:first + 10_000]
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            shipped = outcome(require_density_matrix, stack)
        stacks += 1
        accepted += not eigvalsh.called
        disagreements += shipped != outcome(eigvalsh_rule, stack)
    print(f"certificate accepted {accepted} of {stacks} stacks, {stacks - accepted} went to eigvalsh, "
          f"{disagreements} disagreements, {time.perf_counter() - start:.1f} s")
    raise SystemExit(1 if disagreements else 0)


class TestValidationCertificate:
    """`require_density_matrix` certifies positivity by a Cholesky
    factorization and runs `eigvalsh` only when that fails; on every state
    it decides, and words its error, as the `eigvalsh` rule does."""

    @pytest.fixture(scope="class")
    def battery(self):
        return near_floor_battery(np.random.default_rng(41), 60)

    def test_battery_straddles_the_floor(self, battery):
        smallest = np.linalg.eigvalsh(battery).min(axis=-1)
        below = smallest < EIGENVALUE_FLOOR
        assert 0.3 < below.mean() < 0.7
        assert np.any(below & (smallest > EIGENVALUE_FLOOR * (1.0 + 1e-5)))
        assert np.any(~below & (smallest < EIGENVALUE_FLOOR * (1.0 - 1e-5)))

    def test_single_states(self, battery):
        for rho in battery:
            assert outcome(require_density_matrix, rho) == outcome(eigvalsh_rule, rho)

    def test_stacks(self, battery):
        order = np.random.default_rng(42).permutation(len(battery))
        for size in (1, 3, 16, len(battery)):
            for first in range(0, len(battery), size):
                stack = battery[order[first:first + size]]
                assert outcome(require_density_matrix, stack) == outcome(eigvalsh_rule, stack)
        clean = battery[np.linalg.eigvalsh(battery).min(axis=-1) > EIGENVALUE_FLOOR * 0.5]
        clean = clean[:len(clean) // 2 * 2].reshape(-1, 2, 4, 4)
        assert outcome(require_density_matrix, clean) is None is outcome(eigvalsh_rule, clean)

    def test_names_the_bad_state_first_last_or_alone(self, battery):
        rho = battery[:9]
        good, bad = rho[0], rho[FLOOR_DELTAS.index(2.0) + 1]
        message = "has a negative eigenvalue below -1e-10"
        for stack, index in (([bad, good, good], 0), ([good, good, bad], 2), ([bad], 0)):
            assert outcome(require_density_matrix, np.array(stack)) == f"rho[{index}] {message}"
        assert outcome(require_density_matrix, bad) == f"rho {message}"
        grid = np.array([good] * 6)
        grid[5] = bad
        assert outcome(require_density_matrix, grid.reshape(2, 3, 4, 4)) == f"rho[1, 2] {message}"

    def test_empty_stack_passes(self):
        assert require_density_matrix(np.zeros((0, 4, 4))).shape == (0, 4, 4)
