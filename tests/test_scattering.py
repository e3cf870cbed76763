import re

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from spindimer.oracle import random_density_matrix
from spindimer.scattering import (
    exclusive_structure_factor,
    integrated_structure_factor,
    scalar_structure_factor,
    scattering_phase,
)
from spindimer.spin_core import (
    SPIN_SITE_1,
    SPIN_SITE_2,
    DimerModel,
    SINGLET,
    TRIPLET_PLUS,
    TRIPLET_ZERO,
    build_hamiltonian,
    eigensystem,
    projector,
)

TWO_PI = 2.0 * np.pi

phases = st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False)


@pytest.fixture(scope="module")
def dimer_eigensystem():
    return eigensystem(build_hamiltonian(DimerModel(coupling=1.0)))


class TestScalarStructureFactor:
    @pytest.mark.parametrize(
        "x,expected", [(0.0, 0.0), (np.pi, 1.0), (np.pi / 2.0, 0.5)]
    )
    def test_reference_points(self, x, expected):
        assert scalar_structure_factor(x) == pytest.approx(expected, abs=1e-15)

    @given(phases)
    def test_bounded_in_unit_interval(self, x):
        s = scalar_structure_factor(x)
        assert 0.0 <= s <= 1.0

    @given(phases)
    def test_even_and_periodic(self, x):
        s = scalar_structure_factor(x)
        assert abs(s - scalar_structure_factor(-x)) == 0.0
        assert abs(s - scalar_structure_factor(x + TWO_PI)) < 1e-12

    def test_mirror_symmetry_about_pi(self):
        grid = np.linspace(0.0, TWO_PI, 1001)
        dev = np.abs(scalar_structure_factor(grid) - scalar_structure_factor(TWO_PI - grid))
        assert np.max(dev) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            scalar_structure_factor(bad)


class TestExclusiveStructureFactor:
    def test_singlet_matches_scalar_form(self, dimer_eigensystem):
        x = np.random.default_rng(11).uniform(0.0, TWO_PI, 200)
        q = np.stack([np.zeros_like(x), np.zeros_like(x), x], axis=-1)
        tensors = exclusive_structure_factor(SINGLET, dimer_eigensystem, q, np.array([0.0, 0.0, 1.0]), np.zeros(3))
        assert tensors.shape == (200, 3, 3)
        assert np.max(np.abs(tensors - scalar_structure_factor(x)[:, None, None] * np.eye(3))) < 1e-12

    @pytest.mark.parametrize("shape", [(1000, 3), (2, 3, 3)])
    @pytest.mark.parametrize("initial", [SINGLET, TRIPLET_ZERO, (TRIPLET_PLUS + TRIPLET_ZERO) / np.sqrt(2.0)],
                             ids=["singlet", "triplet_zero", "degenerate_triplets"])
    def test_stack_equals_per_q_calls_bit_for_bit(self, dimer_eigensystem, shape, initial):
        rng = np.random.default_rng(12)
        q = rng.normal(size=shape)
        r1, r2 = rng.normal(size=3), rng.normal(size=3)
        stack = exclusive_structure_factor(initial, dimer_eigensystem, q, r1, r2)
        singles = [exclusive_structure_factor(initial, dimer_eigensystem, row, r1, r2) for row in q.reshape(-1, 3)]
        assert singles[0].shape == (3, 3)
        assert stack.shape == shape[:-1] + (3, 3)
        assert stack.tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize("name", ["r1", "r2"])
    @pytest.mark.parametrize("shape", [(2,), (3, 3), (2, 3)])
    def test_rejects_positions_that_are_not_3_vectors(self, dimer_eigensystem, name, shape):
        positions = {"r1": np.array([0.0, 0.0, 1.0]), "r2": np.zeros(3), name: np.ones(shape)}
        with pytest.raises(ValueError, match=rf"^{name} must be a 3-vector, got shape {re.escape(str(shape))}$"):
            exclusive_structure_factor(SINGLET, dimer_eigensystem, np.ones((4, 3)), **positions)

    @pytest.mark.parametrize("shape", [(2,), (3, 2)])
    def test_rejects_wave_vectors_that_are_not_3_vectors(self, dimer_eigensystem, shape):
        with pytest.raises(ValueError, match="q must be a 3-vector or a stack of them"):
            exclusive_structure_factor(SINGLET, dimer_eigensystem, np.ones(shape), np.zeros(3), np.ones(3))

    def test_zero_wavevector_gives_zero_tensor(self, dimer_eigensystem):
        tensor = exclusive_structure_factor(
            SINGLET, dimer_eigensystem, np.zeros(3), np.array([0.0, 0.0, 1.0]), np.zeros(3)
        )
        assert np.max(np.abs(tensor)) < 1e-12

    def test_opposite_phase_gives_unit_diagonal(self, dimer_eigensystem):
        tensor = exclusive_structure_factor(
            SINGLET,
            dimer_eigensystem,
            np.array([0.0, 0.0, np.pi]),
            np.array([0.0, 0.0, 1.0]),
            np.zeros(3),
        )
        assert np.max(np.abs(tensor - np.eye(3))) < 1e-12

    def test_oblique_geometry_reduces_to_dot_product(self, dimer_eigensystem):
        q = np.array([0.3, -1.1, 0.7])
        r1 = np.array([0.2, 0.5, -0.4])
        r2 = np.array([-1.0, 0.1, 0.9])
        x = scattering_phase(q, r1, r2)
        tensor = exclusive_structure_factor(SINGLET, dimer_eigensystem, q, r1, r2)
        assert np.max(np.abs(tensor - scalar_structure_factor(x) * np.eye(3))) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_initial_state(self, dimer_eigensystem, bad):
        # NaN passes the norm and energy-level comparisons, so it must be caught before them.
        with pytest.raises(ValueError, match="^initial must be finite$"):
            exclusive_structure_factor(
                np.array([bad, 0.0, 0.0, 0.0]), dimer_eigensystem, np.ones(3), np.zeros(3), np.ones(3)
            )

    def test_rejects_unnormalized_initial_state(self, dimer_eigensystem):
        with pytest.raises(ValueError, match="normalized"):
            exclusive_structure_factor(
                2.0 * SINGLET, dimer_eigensystem, np.zeros(3), np.zeros(3), np.ones(3)
            )

    def test_rejects_initial_state_spanning_two_levels(self, dimer_eigensystem):
        # Its mean energy matches no level, so no term would count as elastic.
        with pytest.raises(ValueError, match="initial state must lie in one energy level"):
            exclusive_structure_factor(
                (SINGLET + TRIPLET_PLUS) / np.sqrt(2.0), dimer_eigensystem, np.zeros(3), np.zeros(3), np.ones(3)
            )

    def test_degenerate_triplet_superposition_is_one_level(self, dimer_eigensystem):
        # At q = 0 each U_a is a total spin component, which stays inside the
        # triplet: every transition is elastic and the tensor vanishes.
        initial = (TRIPLET_PLUS + TRIPLET_ZERO) / np.sqrt(2.0)
        tensor = exclusive_structure_factor(initial, dimer_eigensystem, np.zeros(3), np.zeros(3), np.ones(3))
        assert np.max(np.abs(tensor)) < 1e-12


def site_term_sum(rho, q, r1, r2):
    """The integrated structure factor as its twelve terms
    e^{i q.(r_l - r_m)} tr(rho S_l^a S_m^a), one phase and one trace each."""
    positions = (r1, r2)
    sites = (SPIN_SITE_1, SPIN_SITE_2)
    total = 0.0 + 0.0j
    for axis in range(3):
        for l in range(2):
            for m in range(2):
                phase = np.exp(1j * scattering_phase(q, positions[l], positions[m]))
                total += phase * np.trace(rho @ sites[l][axis] @ sites[m][axis])
    return complex(total)


class TestIntegratedStructureFactor:
    def test_matches_the_twelve_term_sum_on_random_states(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(25):
            rho = random_density_matrix(rng, 10)
            q = rng.uniform(-4.0, 4.0, (10, 3))
            r1, r2 = rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 3)
            values = integrated_structure_factor(rho, q, r1, r2)
            assert values.shape == (10,)
            for k in range(10):
                worst = max(worst, abs(values[k] - site_term_sum(rho[k], q[k], r1, r2)))
        assert worst < 1e-13

    def test_stack_equals_per_item_calls_bit_for_bit(self):
        rng = np.random.default_rng(22)
        rho = random_density_matrix(rng, (4, 5))
        q = rng.normal(size=(4, 5, 3))
        r1, r2 = rng.normal(size=3), rng.normal(size=3)
        single = integrated_structure_factor(rho[0, 0], q[0, 0], r1, r2)
        assert type(single) is complex
        # Both stacked, one of them stacked, and leading shapes (4, 1) and (5,) broadcast to (4, 5).
        cases = [(rho, q, lambda i: (rho[i], q[i])), (rho, q[0, 0], lambda i: (rho[i], q[0, 0])),
                 (rho[0, 0], q, lambda i: (rho[0, 0], q[i])), (rho[:, :1], q[0], lambda i: (rho[i[0], 0], q[0, i[1]]))]
        for stack_rho, stack_q, item in cases:
            stack = integrated_structure_factor(stack_rho, stack_q, r1, r2)
            assert stack.shape == (4, 5)
            singles = [integrated_structure_factor(*item(i), r1, r2) for i in np.ndindex(4, 5)]
            assert stack.tobytes() == np.array(singles).tobytes()

    def test_singlet_at_opposite_phase(self):
        # on-site part 3/2 plus cross part 2 cos(pi) <S1.S2> = 3/2
        value = integrated_structure_factor(
            projector(SINGLET), np.array([0.0, 0.0, np.pi]), np.array([0.0, 0.0, 1.0]), np.zeros(3)
        )
        assert value.real - 1.5 == pytest.approx(1.5, abs=1e-12)
        assert abs(value.imag) < 1e-12

    def test_singlet_at_zero_wavevector_vanishes(self):
        value = integrated_structure_factor(
            projector(SINGLET), np.zeros(3), np.array([1.0, 0.0, 0.0]), np.zeros(3)
        )
        assert abs(value) < 1e-12

    def test_maximally_mixed_keeps_only_on_site_terms(self):
        value = integrated_structure_factor(
            np.eye(4, dtype=complex) / 4.0,
            np.array([0.7, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0]),
            np.zeros(3),
        )
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_rejects_invalid_density_matrix(self):
        with pytest.raises(ValueError, match="trace"):
            integrated_structure_factor(
                np.eye(4, dtype=complex), np.zeros(3), np.ones(3), np.zeros(3)
            )


class TestScatteringPhase:
    @pytest.mark.parametrize("name", ["q", "r1", "r2"])
    def test_rejects_non_finite_and_wrong_shape(self, name):
        vectors = {"q": np.ones(3), "r1": np.zeros(3), "r2": np.ones(3)}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            scattering_phase(**{**vectors, name: np.array([0.0, np.inf, 0.0])})
        message = "q must be a 3-vector or a stack of them" if name == "q" else f"{name} must be a 3-vector"
        with pytest.raises(ValueError, match=rf"^{message}, got shape \(2,\)$"):
            scattering_phase(**{**vectors, name: np.ones(2)})
        # One phase, so a stack of 3-vectors is rejected too, q included.
        with pytest.raises(ValueError, match=rf"^{name} must be a 3-vector, got shape \(2, 3\)$"):
            scattering_phase(**{**vectors, name: np.ones((2, 3))})
