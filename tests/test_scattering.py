import re

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from spindimer.quantifiers import scan_roots
from spindimer.scattering import (
    correlation_from_structure,
    exclusive_structure_factor,
    integrated_structure_factor,
    scalar_structure_factor,
    scattering_phase,
)
from spindimer.spin_core import (
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


class TestIntegratedStructureFactor:
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


class TestCorrelationFromStructure:
    def test_antiparallel_point(self):
        c, re_c = correlation_from_structure(np.pi)
        assert abs(c - (-1.0 + 0.0j)) < 1e-12
        assert re_c == -1.0

    def test_zero_crossing_at_half_pi(self):
        _, re_c = correlation_from_structure(np.pi / 2.0)
        assert abs(re_c) < 1e-15

    def test_value_at_third_pi(self):
        _, re_c = correlation_from_structure(np.pi / 3.0)
        assert re_c == pytest.approx(0.125, abs=1e-15)

    @given(phases)
    def test_complex_value_is_phase_times_structure_factor(self, x):
        c, re_c = correlation_from_structure(x)
        assert abs(c - np.exp(-1j * x) * scalar_structure_factor(x)) == 0.0
        assert re_c == c.real

    def test_sign_change_roots_at_half_and_three_half_pi(self):
        roots = scan_roots(lambda x: correlation_from_structure(x)[1])
        assert len(roots) == 2
        assert abs(roots[0] - np.pi / 2.0) < 1e-10
        assert abs(roots[1] - 3.0 * np.pi / 2.0) < 1e-10

    def test_extremes(self):
        grid = np.linspace(0.0, TWO_PI, 100001)
        re_c = correlation_from_structure(grid)[1]
        assert np.min(re_c) == pytest.approx(-1.0, abs=1e-9)
        assert abs(grid[np.argmin(re_c)] - np.pi) < 1e-4
        assert np.max(re_c) <= 0.125 + 1e-12
        assert correlation_from_structure(np.pi / 3.0)[1] == pytest.approx(0.125, abs=1e-15)
        assert correlation_from_structure(5.0 * np.pi / 3.0)[1] == pytest.approx(0.125, abs=1e-12)


class TestScatteringPhase:
    @pytest.mark.parametrize("name", ["q", "r1", "r2"])
    def test_rejects_non_finite_and_wrong_shape(self, name):
        vectors = {"q": np.ones(3), "r1": np.zeros(3), "r2": np.ones(3)}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            scattering_phase(**{**vectors, name: np.array([0.0, np.inf, 0.0])})
        with pytest.raises(ValueError, match="3-vectors"):
            scattering_phase(**{**vectors, name: np.ones(2)})
