"""Tests of the brute-force oracles.

`run_search_smoke` is a command-line runner for the two sphere searches on
stacks too large for the test suite, with a bound on peak memory:

    PYTHONPATH=src:tests python -c 'import test_oracle; test_oracle.run_search_smoke()'
"""

import numpy as np
import pytest

from spindimer import oracle, verify
from spindimer.oracle import (
    _residual_trace_norm,
    chsh_direct_search,
    chsh_max,
    correlation_oracle,
    random_bell_diagonal_state,
    random_density_matrix,
    trace_norm_discord,
    werner_state,
    wootters_concurrence,
)
from spindimer.quantifiers import TSIRELSON_BOUND
from spindimer.spin_core import (
    IDENTITY_2,
    PAULI,
    PAULI_PRODUCTS,
    DimerModel,
    SINGLET,
    TOTAL_SZ,
    TRIPLET_MINUS,
    TRIPLET_PLUS,
    TRIPLET_ZERO,
    bell_diagonal_state,
    build_hamiltonian,
    fano_decompose,
    projector,
    require_density_matrix,
    thermal_state,
)

MIXED = np.eye(4, dtype=complex) / 4.0
KET_00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
# Phi+, Phi-, Psi+, Psi-: the Bell kets, the reference for the correlator
# table `random_bell_diagonal_state` mixes.
BELL_KETS = (
    (TRIPLET_PLUS + TRIPLET_MINUS) / np.sqrt(2.0),
    (TRIPLET_PLUS - TRIPLET_MINUS) / np.sqrt(2.0),
    TRIPLET_ZERO,
    SINGLET,
)


def trace_norm(matrix):
    """Schatten 1-norm: sum of singular values."""
    return float(np.sum(np.linalg.svd(matrix, compute_uv=False)))


def measurement_dephase(rho, theta, phi):
    """Dephasing of rho under the subsystem-1 measurement along (theta, phi).

    Built from explicit 4x4 projectors; with `trace_norm` it is the
    reference the closed-form `_residual_trace_norm` is tested against.
    """
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    n_sigma = sum(ni * s for ni, s in zip(n, PAULI))
    e0 = np.kron(0.5 * (IDENTITY_2 + n_sigma), IDENTITY_2)
    e1 = np.kron(0.5 * (IDENTITY_2 - n_sigma), IDENTITY_2)
    return e0 @ rho @ e0 + e1 @ rho @ e1


def random_directions(rng, count):
    n = rng.standard_normal((count, 3))
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def angles(n):
    """(theta, phi) of a unit vector, with theta in [0, pi] and phi in [0, 2 pi)."""
    return float(np.arccos(np.clip(n[2], -1.0, 1.0))), float(np.arctan2(n[1], n[0]) % (2.0 * np.pi))


def explicit_trace_norms(rho, n):
    """||rho - sum_+- E rho E||_1 with E = P_+-(n) (x) I built as explicit
    4x4 projectors, for each row of n."""
    n_sigma = np.einsum("ki,iab->kab", n, np.stack(PAULI))
    residual = np.broadcast_to(rho, (len(n), 4, 4)).copy()
    for sign in (1.0, -1.0):
        p = 0.5 * (IDENTITY_2 + sign * n_sigma)
        e = np.einsum("kab,cd->kacbd", p, IDENTITY_2).reshape(-1, 4, 4)
        residual -= e @ rho @ e
    return np.linalg.svd(residual, compute_uv=False).sum(axis=-1)


class TestMeasurementBasis:
    @pytest.mark.parametrize(
        "theta,phi",
        [(0.0, 0.0), (np.pi / 2.0, 0.0), (np.pi / 2.0, np.pi / 2.0), (1.1, 4.0), (np.pi, 0.3)],
    )
    def test_projector_algebra(self, theta, phi):
        # Orthogonal projectors P+ and P- that sum to I make the dephasing
        # idempotent and trace preserving, and keep <n.sigma (x) I>.
        rho = random_density_matrix(np.random.default_rng(3))
        dephased = measurement_dephase(rho, theta, phi)
        n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
        local = np.kron(sum(ni * s for ni, s in zip(n, PAULI)), IDENTITY_2)
        assert np.max(np.abs(measurement_dephase(dephased, theta, phi) - dephased)) < 1e-12
        assert abs(np.trace(dephased - rho)) < 1e-12
        assert abs(np.trace(local @ (dephased - rho))) < 1e-12

    def test_dephasing_preserves_trace_and_hermiticity(self):
        rho = werner_state(0.6)
        dephased = measurement_dephase(rho, 0.7, 1.3)
        assert abs(np.trace(dephased).real - 1.0) < 1e-12
        assert np.max(np.abs(dephased - dephased.conj().T)) < 1e-12


class TestWoottersConcurrence:
    def test_singlet_is_maximally_entangled(self):
        assert wootters_concurrence(projector(SINGLET)) == pytest.approx(1.0, abs=1e-10)

    def test_product_state_is_separable(self):
        assert wootters_concurrence(projector(KET_00)) == 0.0

    def test_werner_point_eight(self):
        assert wootters_concurrence(werner_state(0.8)) == pytest.approx(0.7, abs=1e-10)

    def test_werner_family_closed_form(self):
        for p in np.linspace(0.0, 1.0, 100):
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert wootters_concurrence(werner_state(p)) == pytest.approx(expected, abs=1e-10)

    def test_werner_states_near_pure(self):
        p = np.append(1.0 - np.geomspace(1e-1, 1e-15, 15), 1.0)
        assert np.max(np.abs(wootters_concurrence(werner_state(p)) - (3.0 * p - 1.0) / 2.0)) < 1e-14

    def test_pure_states_match_the_amplitude_form(self):
        # A pure state a|00> + b|01> + c|10> + d|11> has concurrence 2|ad - bc|.
        rng = np.random.default_rng(20)
        psi = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        states = psi[:, :, None] * psi[:, None, :].conj()
        expected = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])
        stacked = wootters_concurrence(states)
        assert np.max(np.abs(stacked - expected)) < 1e-13
        assert np.array_equal(stacked, [wootters_concurrence(rho) for rho in states])

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            wootters_concurrence(np.eye(4, dtype=complex))


class TestChsh:
    def test_singlet_fixed_directions_reach_tsirelson(self):
        assert chsh_max(projector(SINGLET), "fixed") == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_maximally_mixed_state_has_no_correlations(self):
        assert chsh_max(MIXED, "fixed") == 0.0
        assert chsh_max(MIXED, "optimized") == 0.0

    def test_werner_point_eight_optimized(self):
        assert chsh_max(werner_state(0.8), "optimized") == pytest.approx(
            2.2627416997969522, abs=1e-10
        )

    def test_optimized_dominates_fixed(self):
        rng = np.random.default_rng(5)
        states = [werner_state(0.3), projector(KET_00)] + [
            random_density_matrix(rng) for _ in range(50)
        ]
        for rho in states:
            assert chsh_max(rho, "optimized") >= chsh_max(rho, "fixed") - 1e-10

    def test_fixed_matches_the_explicit_operator_trace(self):
        states = random_density_matrix(np.random.default_rng(21), (4, 250))
        operator = np.sqrt(2.0) * (PAULI_PRODUCTS[1, 1] + PAULI_PRODUCTS[3, 3])
        direct = np.abs(np.trace(states @ operator, axis1=-2, axis2=-1).real)
        assert np.max(np.abs(chsh_max(states, "fixed") - direct)) < 1e-15

    def test_equality_on_the_singlet(self):
        rho = projector(SINGLET)
        assert abs(chsh_max(rho, "optimized") - chsh_max(rho, "fixed")) < 1e-12

    def test_direct_search_confirms_horodecki(self):
        rng = np.random.default_rng(6)
        states = [werner_state(0.8), projector(SINGLET)] + [
            random_density_matrix(rng) for _ in range(3)
        ]
        for rho in states:
            assert chsh_direct_search(rho) == pytest.approx(
                chsh_max(rho, "optimized"), abs=1e-6
            )

    def test_product_state_reaches_classical_bound(self):
        assert chsh_max(projector(KET_00), "optimized") == pytest.approx(2.0, abs=1e-12)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            chsh_max(MIXED, "exhaustive")

    def test_tsirelson_bound_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho = random_density_matrix(rng)
            assert chsh_max(rho, "optimized") <= TSIRELSON_BOUND + 1e-9

    def test_violation_requires_entanglement(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            rho = random_density_matrix(rng)
            if chsh_max(rho, "optimized") > 2.0 + 1e-9:
                assert wootters_concurrence(rho) > 0.0


class TestTraceNormDiscord:
    def test_singlet_closed_form(self):
        assert trace_norm_discord(projector(SINGLET), "closed_form_bell_diagonal") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_singlet_numerical_agrees(self):
        assert trace_norm_discord(projector(SINGLET), "numerical_min") == pytest.approx(
            1.0, abs=1e-6
        )

    def test_maximally_mixed_has_no_discord(self):
        assert trace_norm_discord(MIXED, "closed_form_bell_diagonal") == 0.0
        assert trace_norm_discord(MIXED, "numerical_min") < 1e-8

    def test_isotropic_correlations_give_their_magnitude(self):
        rho = bell_diagonal_state(np.array([-0.4, -0.4, -0.4]))
        assert trace_norm_discord(rho, "closed_form_bell_diagonal") == pytest.approx(0.4, abs=1e-12)
        assert trace_norm_discord(rho, "numerical_min") == pytest.approx(0.4, abs=1e-6)

    def test_anisotropic_correlations_give_the_middle_magnitude(self):
        rho = bell_diagonal_state(np.array([0.5, -0.2, -0.1]))
        assert trace_norm_discord(rho, "closed_form_bell_diagonal") == pytest.approx(0.2, abs=1e-12)
        assert trace_norm_discord(rho, "numerical_min") == pytest.approx(0.2, abs=1e-6)

    def test_numerical_matches_closed_form_on_random_states(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            rho = random_bell_diagonal_state(rng)
            closed = trace_norm_discord(rho, "closed_form_bell_diagonal")
            numeric = trace_norm_discord(rho, "numerical_min")
            assert numeric == pytest.approx(closed, abs=1e-6)

    def test_closed_form_rejects_non_bell_diagonal_states(self):
        with pytest.raises(ValueError, match="Bell-diagonal"):
            trace_norm_discord(projector(KET_00), "closed_form_bell_diagonal")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            trace_norm_discord(MIXED, "entropic")

    def test_residual_trace_norm_matches_explicit_dephasing(self):
        rng = np.random.default_rng(11)
        # Poles, equator directions on both sides of the tangent frame's z = 0
        # seam, and directions near the pole, where the residual of a state
        # with |c1| = |c2| is nearly rank one.
        tilt = np.array([1e-2, 1e-3, 1e-4])
        special = np.concatenate([
            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
            [[1.0, 0.0, 0.0], [1.0, 0.0, -0.0], [0.6, -0.8, 0.0], [0.6, -0.8, -0.0]],
            np.stack([np.sin(tilt), np.zeros(3), np.cos(tilt)], axis=-1),
        ])
        full_rank = [(random_density_matrix(rng), random_directions(rng, 10)) for _ in range(20)]
        degenerate = [
            bell_diagonal_state(np.array([-0.5, -0.5, 0.0])),
            projector(SINGLET),
            MIXED,
            projector(np.kron([0.6, 0.8j], [1.0, 0.0])),
        ]
        cases = full_rank + [(rho, special) for rho in [full_rank[0][0]] + degenerate]
        for rho, n in cases:
            coeffs = fano_decompose(rho)
            norms = _residual_trace_norm(coeffs[1:, :], n)
            assert norms.shape == (len(n),)
            for nk, value in zip(n, norms):
                theta, phi = angles(nk)
                assert abs(value - trace_norm(rho - measurement_dephase(rho, theta, phi))) < 1e-14

    def test_residual_trace_norm_of_a_stack_matches_each_state(self):
        rng = np.random.default_rng(19)
        coeffs = fano_decompose(np.array([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 4, 4))
        block = coeffs[..., 1:, :]
        n = random_directions(rng, 2 * 3 * 5).reshape(2, 3, 5, 3)
        stacked = _residual_trace_norm(block, n)
        assert stacked.shape == (2, 3, 5)
        for index in np.ndindex(2, 3):
            assert np.array_equal(stacked[index], _residual_trace_norm(block[index], n[index]))

    def test_numerical_min_is_below_every_explicit_direction(self):
        rng = np.random.default_rng(12)
        n = random_directions(rng, 2000)
        theta, phi = angles(n[0])
        rho = random_density_matrix(rng)
        assert explicit_trace_norms(rho, n[:1])[0] == pytest.approx(
            trace_norm(rho - measurement_dephase(rho, theta, phi)), abs=1e-14
        )
        for _ in range(20):
            rho = random_density_matrix(rng)
            assert trace_norm_discord(rho, "numerical_min") <= np.min(explicit_trace_norms(rho, n)) + 1e-12

    def test_numerical_min_equals_concurrence_on_pure_states(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rho = projector(psi / np.linalg.norm(psi))
            assert trace_norm_discord(rho, "numerical_min") == pytest.approx(
                wootters_concurrence(rho), abs=1e-6
            )

    def test_trace_norm_is_sum_of_singular_values(self):
        m = np.diag([3.0, -2.0, 0.0, 1.0]).astype(complex)
        assert trace_norm(m) == pytest.approx(6.0, abs=1e-12)


class TestCorrelationOracle:
    def test_singlet(self):
        assert np.allclose(correlation_oracle(projector(SINGLET)), [-1.0, -1.0, -1.0], atol=1e-12)

    def test_product_state(self):
        assert np.allclose(correlation_oracle(projector(KET_00)), [0.0, 0.0, 1.0], atol=1e-12)

    def test_thermal_state_matches_gibbs_sum(self):
        c = correlation_oracle(thermal_state(DimerModel(coupling=1.0), 1.0))
        expected = (np.exp(-0.25) - np.exp(0.75)) / (3.0 * np.exp(-0.25) + np.exp(0.75))
        assert np.allclose(c, expected, atol=1e-14)
        assert abs(c[0] - c[1]) < 1e-14 and abs(c[1] - c[2]) < 1e-14

    def test_rejects_cross_correlated_state(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        up = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="cross-axis"):
            correlation_oracle(projector(np.kron(plus, up)))

    def test_stack_of_thermal_states_matches_each_state_bit_for_bit(self):
        states = np.array([thermal_state(DimerModel(coupling=j), t) for j in (1.0, -0.7) for t in (0.3, 1.0, 4.0)])
        stacked = correlation_oracle(states.reshape(2, 3, 4, 4))
        assert stacked.shape == (2, 3, 3)
        assert stacked.tobytes() == np.array([correlation_oracle(rho) for rho in states]).tobytes()

    def test_stack_names_the_cross_correlated_state_by_its_index(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        up = np.array([1.0, 0.0], dtype=complex)
        states = np.array([thermal_state(DimerModel(), 1.0)] * 6).reshape(2, 3, 4, 4)
        states[1, 2] = projector(np.kron(plus, up))
        with pytest.raises(ValueError, match=r"^rho\[1, 2\] has cross-axis correlators above 1e-12$"):
            correlation_oracle(states)

    def test_fano_tensor_matches_direct_traces(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix(rng)
        direct = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULI] for si in PAULI])
        assert np.max(np.abs(fano_decompose(rho)[1:, 1:] - direct)) < 1e-14


class TestRandomStates:
    def test_ginibre_states_are_valid_and_deterministic(self):
        rho1 = random_density_matrix(np.random.default_rng(123))
        rho2 = random_density_matrix(np.random.default_rng(123))
        assert np.array_equal(rho1, rho2)
        assert abs(np.trace(rho1).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho1)) > -1e-12

    def test_stacked_ginibre_draw_equals_single_draws(self):
        stack = random_density_matrix(np.random.default_rng(303), 50)
        rng = np.random.default_rng(303)
        singles = [random_density_matrix(rng) for _ in range(50)]
        assert singles[0].shape == (4, 4)
        assert stack.shape == (50, 4, 4)
        assert stack.tobytes() == np.array(singles).tobytes()
        require_density_matrix(stack)
        assert random_density_matrix(np.random.default_rng(303), (2, 3)).shape == (2, 3, 4, 4)

    def test_stacked_werner_states_equal_single_states(self):
        p = np.linspace(0.0, 1.0, 100)
        stack = werner_state(p)
        assert stack.shape == (100, 4, 4)
        assert stack.tobytes() == np.array([werner_state(pk) for pk in p]).tobytes()

    def test_werner_stack_names_the_invalid_p_by_its_index(self):
        with pytest.raises(ValueError, match=r"^werner state\[2\] has a negative eigenvalue below"):
            werner_state(np.array([0.0, 0.5, 1.5, 1.0]))
        with pytest.raises(ValueError, match=r"^werner state\[1, 0\] has a non-finite entry$"):
            werner_state(np.array([[0.5, 0.1], [np.nan, 1.0]]))

    def test_stacked_bell_diagonal_draw_equals_single_draws(self):
        stack = random_bell_diagonal_state(np.random.default_rng(404), 50)
        rng = np.random.default_rng(404)
        singles = [random_bell_diagonal_state(rng) for _ in range(50)]
        assert singles[0].shape == (4, 4)
        assert stack.shape == (50, 4, 4)
        assert stack.tobytes() == np.array(singles).tobytes()
        require_density_matrix(stack)

    def test_bell_diagonal_states_have_no_local_moments(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            coeffs = fano_decompose(random_bell_diagonal_state(rng))
            assert np.max(np.abs(coeffs[1:, 0])) < 1e-12
            assert np.max(np.abs(coeffs[0, 1:])) < 1e-12
            assert np.max(np.abs(coeffs[1:, 1:] * (1.0 - np.eye(3)))) < 1e-12

    def test_bell_diagonal_draws_are_mixtures_of_the_bell_kets(self):
        states = random_bell_diagonal_state(np.random.default_rng(322), 1000)
        weights = np.random.default_rng(322).dirichlet(np.ones(4), 1000)
        mixtures = sum(weights[:, k, None, None] * projector(ket) for k, ket in enumerate(BELL_KETS))
        assert np.max(np.abs(states - mixtures)) < 1e-15


def stack_of_kinds(rng, per_kind):
    """Ginibre, Bell-diagonal, Werner and pure states, `per_kind` of each,
    in a stack of shape (4, per_kind, 4, 4)."""
    psi = rng.standard_normal((per_kind, 4)) + 1j * rng.standard_normal((per_kind, 4))
    return np.array([
        [random_density_matrix(rng) for _ in range(per_kind)],
        [random_bell_diagonal_state(rng) for _ in range(per_kind)],
        [werner_state(p) for p in np.linspace(0.0, 1.0, per_kind)],
        [projector(p / np.linalg.norm(p)) for p in psi],
    ])


def per_state(oracle, stack):
    """`oracle` called on each (4, 4) state of `stack`, in a Python loop."""
    return np.array([oracle(rho) for rho in stack.reshape(-1, 4, 4)]).reshape(stack.shape[:-2])


class TestStackedOracles:
    """A stack of states gives what a loop over its (4, 4) states gives."""

    @pytest.fixture(scope="class")
    def states(self):
        return stack_of_kinds(np.random.default_rng(14), 25)

    @pytest.mark.parametrize(
        "oracle",
        [
            wootters_concurrence,
            lambda rho: chsh_max(rho, "fixed"),
            lambda rho: chsh_max(rho, "optimized"),
        ],
        ids=["wootters", "chsh_fixed", "chsh_optimized"],
    )
    def test_bit_for_bit(self, states, oracle):
        stacked = oracle(states)
        assert stacked.shape == (4, 25)
        assert np.array_equal(stacked, per_state(oracle, states))

    def test_closed_form_bell_diagonal_bit_for_bit(self):
        rng = np.random.default_rng(15)
        states = np.array([random_bell_diagonal_state(rng) for _ in range(60)]).reshape(3, 20, 4, 4)
        closed = lambda rho: trace_norm_discord(rho, "closed_form_bell_diagonal")
        assert np.array_equal(closed(states), per_state(closed, states))

    @pytest.mark.parametrize(
        "oracle",
        [lambda rho: trace_norm_discord(rho, "numerical_min"), chsh_direct_search],
        ids=["numerical_min", "chsh_direct_search"],
    )
    def test_searches_agree_to_1e13(self, oracle):
        states = stack_of_kinds(np.random.default_rng(16), 2)
        stacked = oracle(states)
        assert stacked.shape == (4, 2)
        assert np.max(np.abs(stacked - per_state(oracle, states))) < 1e-13

    @pytest.mark.parametrize(
        "oracle",
        [
            wootters_concurrence,
            lambda rho: chsh_max(rho, "fixed"),
            lambda rho: chsh_max(rho, "optimized"),
            lambda rho: trace_norm_discord(rho, "closed_form_bell_diagonal"),
            lambda rho: trace_norm_discord(rho, "numerical_min"),
            chsh_direct_search,
        ],
        ids=["wootters", "chsh_fixed", "chsh_optimized", "closed_form", "numerical_min", "chsh_direct_search"],
    )
    def test_one_state_gives_a_float_and_a_stack_of_one_an_array(self, oracle):
        rho = werner_state(0.7)
        value = oracle(rho)
        assert type(value) is float
        assert np.array_equal(oracle(rho[None]), [value])

    def test_closed_form_names_the_state_that_is_not_bell_diagonal(self):
        states = np.array([werner_state(0.5), werner_state(0.2), projector(KET_00)])
        with pytest.raises(ValueError, match=r"state\[2\] is not Bell-diagonal"):
            trace_norm_discord(states, "closed_form_bell_diagonal")

    def test_invalid_state_in_a_stack_is_named_by_its_index(self):
        states = np.array([werner_state(0.5)] * 6).reshape(2, 3, 4, 4)
        states[1, 2] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"rho\[1, 2\] has a negative eigenvalue"):
            wootters_concurrence(states)
        with pytest.raises(ValueError, match=r"rho\[1, 2\] has a negative eigenvalue"):
            trace_norm_discord(states, "numerical_min")

    def test_numerical_discord_validates_a_stack_once(self, monkeypatch):
        states = np.array([werner_state(0.5)] * 6).reshape(2, 3, 4, 4)
        calls = []

        def counted(rho, *args, **kwargs):
            calls.append(np.shape(rho))
            return require_density_matrix(rho, *args, **kwargs)

        for module in ("spindimer.spin_core", "spindimer.oracle"):
            monkeypatch.setattr(f"{module}.require_density_matrix", counted)
        assert trace_norm_discord(states, "numerical_min").shape == (2, 3)
        assert calls == [(2, 3, 4, 4)]

    @pytest.mark.parametrize("oracle", [wootters_concurrence, lambda rho: chsh_max(rho, "fixed"), chsh_max],
                             ids=["wootters", "chsh_fixed", "chsh_optimized"])
    def test_nan_entry_is_a_validation_error(self, oracle):
        rho = MIXED.copy()
        rho[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"^rho has a non-finite entry$"):
            oracle(rho)
        states = np.array([MIXED] * 4)
        states[3, 1, 2] = np.nan
        with pytest.raises(ValueError, match=r"^rho\[3\] has a non-finite entry$"):
            oracle(states)


def x_state_discord(coeffs):
    """Trace-norm discord of X states, measured on subsystem 1, in the
    closed form of Ciccarello, Tufarelli & Giovannetti, NJP 16, 013038 (2014).

    For Bloch vectors along z and a diagonal correlation tensor c, with
    g1 >= g2 the magnitudes of c_x, c_y, g3 = |c_z| and a3 the z component of
    the measured spin's Bloch vector:
    D^2 = (g1^2 high - g2^2 low) / (high - low + g1^2 - g2^2),
    high = max(g3^2, g2^2 + a3^2), low = min(g3^2, g1^2).
    A test-side reference, independent of the numerical search.

    It is evaluated as D^2 = g2^2 + (g1^2 - g2^2) (high - g2^2) / (high -
    low + g1^2 - g2^2), whose terms are all non-negative and whose ratio lies
    in [0, 1], so nothing cancels: the quotient form above loses digits on
    nearly pure states with g1 close to g2. A zero denominator makes
    g1 = g2 and the second term 0.
    """
    c = np.abs(np.diagonal(coeffs, axis1=-2, axis2=-1)[..., 1:])
    g1, g2, g3 = np.maximum(c[..., 0], c[..., 1]), np.minimum(c[..., 0], c[..., 1]), c[..., 2]
    high = np.maximum(g3**2, g2**2 + coeffs[..., 3, 0] ** 2)
    low = np.minimum(g3**2, g1**2)
    spread = g1**2 - g2**2
    denominator = high - low + spread
    ratio = np.divide(high - g2**2, denominator, out=np.zeros_like(denominator), where=denominator > 0.0)
    return np.sqrt(g2**2 + spread * ratio)


def random_x_states(rng, count):
    """X states with real coherences: diagonal weights uniform on the
    simplex, and rho_03, rho_12 uniform within their positivity bounds
    |rho_03|^2 <= rho_00 rho_33, |rho_12|^2 <= rho_11 rho_22."""
    p = rng.dirichlet(np.ones(4), size=count)
    rho = np.zeros((count, 4, 4), dtype=complex)
    rho[:, range(4), range(4)] = p
    rho[:, 0, 3] = rho[:, 3, 0] = rng.uniform(-1.0, 1.0, count) * np.sqrt(p[:, 0] * p[:, 3])
    rho[:, 1, 2] = rho[:, 2, 1] = rng.uniform(-1.0, 1.0, count) * np.sqrt(p[:, 1] * p[:, 2])
    return rho


def umbilic_value(rho):
    """The objective of the numerical discord at the better of the two
    umbilic directions of each state: the cone points of the objective.

    With W = [a | T] the rows 1-3 of rho's Pauli coefficients and
    M = W eta W^T (eta = diag(1, -1, -1, -1)), whose eigenvalues are
    m1 >= m2 >= m3 with eigenvectors v1, v2, v3, the umbilics are
    n = sqrt(m1 - m2) v1 +- sqrt(m2 - m3) v3, normalized: the unit normals of
    M's circular sections, where the eigenvalue gap of M restricted to the
    plane orthogonal to n, and so the objective's square-root term, vanishes.
    They are directions, not a discord formula, so this goes through no
    closed form. For states whose M has distinct eigenvalues, as Ginibre
    states have.
    """
    block = fano_decompose(rho)[..., 1:, :]
    m, v = np.linalg.eigh((block * oracle._MINKOWSKI) @ block.swapaxes(-1, -2))
    outer = np.sqrt(m[..., 2] - m[..., 1])[..., None] * v[..., 2]
    inner = np.sqrt(m[..., 1] - m[..., 0])[..., None] * v[..., 0]
    n = np.stack([outer + inner, outer - inner], axis=-2)
    return _residual_trace_norm(block, n / np.linalg.norm(n, axis=-1, keepdims=True)).min(axis=-1)


def gibbs_states_in_field():
    """The 300 Gibbs states of H + B S^z_total at J = 1, B in
    linspace(0.05, 2, 20) and T in geomspace(0.05, 3, 15), built with `eigh`,
    B-major: from near-singlet states at low T to nearly mixed ones."""
    fields = np.linspace(0.05, 2.0, 20)
    temps = np.geomspace(0.05, 3.0, 15)
    w, v = np.linalg.eigh(build_hamiltonian(DimerModel(coupling=1.0)) + fields[:, None, None] * TOTAL_SZ)
    p = np.exp(-(w - w[:, :1])[:, None, :] / temps[:, None])
    p /= p.sum(axis=-1, keepdims=True)
    return ((v[:, None] * p[..., None, :]) @ v[:, None].conj().swapaxes(-1, -2)).reshape(-1, 4, 4)


def haar_unitaries(rng, count):
    """`count` Haar-random 2x2 unitaries: the Q of a complex Ginibre
    matrix's QR, its columns rephased by R's diagonal."""
    z = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


@pytest.fixture(scope="module")
def pairs():
    """The Gibbs states in a field and their copies rotated by seeded Haar
    local unitaries: general states, no longer X states."""
    states = gibbs_states_in_field()
    rng = np.random.default_rng(303)
    u1, u2 = haar_unitaries(rng, len(states)), haar_unitaries(rng, len(states))
    u = np.einsum("nab,ncd->nacbd", u1, u2).reshape(-1, 4, 4)  # u[n] = kron(u1[n], u2[n])
    return states, u @ states @ u.conj().swapaxes(-1, -2)


class TestLocalUnitaryInvariance:
    """Entanglement and the CHSH maximum are invariant under local unitaries
    U1 (x) U2: a state and its rotated copy give the same value, a check
    that goes through no closed form."""

    def test_chsh_max(self, pairs):
        states, rotated = pairs
        assert np.max(np.abs(chsh_max(rotated, "optimized") - chsh_max(states, "optimized"))) < 1e-13

    def test_wootters_concurrence(self, pairs):
        # The low-T states are nearly pure, and the lambda_i of their nearly
        # null directions are square roots of eigenvalues near 0: a rotation's
        # rounding, O(eps), moves them by O(sqrt(eps)) = 1.5e-8 (2.7e-8 at
        # most here). So the bound is a few sqrt(eps), not a few eps.
        states, rotated = pairs
        assert np.max(np.abs(wootters_concurrence(rotated) - wootters_concurrence(states))) < 1e-7

    def test_numerical_discord(self, pairs):
        # The search goes through no closed form, so this gates the search
        # itself: each copy must reach the same minimum to rounding. They
        # differ by 6.7e-16 at most; a search that stops its points at a step
        # of 1e-11 differs by 2.9e-15.
        states, rotated = pairs
        numeric = trace_norm_discord(rotated, "numerical_min") - trace_norm_discord(states, "numerical_min")
        assert np.max(np.abs(numeric)) < 2e-15


class TestXStateDiscord:
    def test_reference_reduces_to_the_middle_magnitude_on_bell_diagonal_states(self):
        rng = np.random.default_rng(17)
        states = np.array([random_bell_diagonal_state(rng) for _ in range(1000)])
        middle = trace_norm_discord(states, "closed_form_bell_diagonal")
        assert np.max(np.abs(x_state_discord(fano_decompose(states)) - middle)) < 1e-12

    def test_numerical_min_matches_the_x_state_closed_form(self):
        states = random_x_states(np.random.default_rng(18), 100)
        coeffs = fano_decompose(states)
        # States with a Bloch vector along z, which the Bell-diagonal gate does not cover.
        assert np.max(np.abs(coeffs[:, 1:, 1:] * (1.0 - np.eye(3)))) <= 1e-12 and np.min(np.abs(coeffs[:, 3, 0])) > 0.0
        assert np.max(np.abs(coeffs[:, 1:3, 0])) == 0.0
        numeric = trace_norm_discord(states, "numerical_min")
        assert np.max(np.abs(numeric - x_state_discord(coeffs))) < 1e-6

    def test_numerical_min_matches_the_x_state_closed_form_on_thermal_states(self):
        # The 300 Gibbs states in a field are X states with |c_x| = |c_y|, from
        # nearly pure to nearly mixed. The search ends at most 5.6e-17 above
        # the reference and 1.1e-16 below it, under 1 ulp of a discord near 1.
        # 1e-14 leaves room for another BLAS's rounding and still fails the
        # quotient form of the reference, up to 1.9e-9 off on the nearly pure
        # states, and a search that stops short of the minimum.
        states = gibbs_states_in_field()
        numeric = trace_norm_discord(states, "numerical_min")
        assert np.max(np.abs(numeric - x_state_discord(fano_decompose(states)))) < 1e-14

    def test_numerical_min_on_rotated_thermal_states_matches_the_unrotated_reference(self, pairs):
        # The rotated copies are general states, whose minima can sit at
        # cone points; their discord is that of the unrotated X states. The
        # search ends at most 5.6e-16 above the reference and 6.7e-16 below
        # it; one that stops its points at a step of 1e-11 ends 4.1e-15 above.
        states, rotated = pairs
        numeric = trace_norm_discord(rotated, "numerical_min")
        assert np.max(np.abs(numeric - x_state_discord(fano_decompose(states)))) < 2e-15


class TestConePointMinima:
    def test_numerical_min_reaches_the_umbilic_value_on_ginibre_states(self):
        # Most minima of general states sit at an umbilic, where the objective
        # has a cone-shaped kink and the polls never look flat, so the points
        # that reach one stop on the step floor. 10 of these 1000 states end
        # more than 1e-15 above it; a floor of 1e-11 leaves 718. The 10 are
        # creeping points, which move to a slightly lower poll round after
        # round: 8 sit in narrow cones, whose shallow slope is about 1e-3 of
        # the steep one, and end 3e-15 to 1.4e-14 above the tip after 570 to
        # 2000 rounds (each state searched alone); states 515 and 727 still
        # creep at the cap of _MAX_ROUNDS, 4.8e-5 and 5.8e-7 above.
        states = random_density_matrix(np.random.default_rng(7), 1000)
        gap = trace_norm_discord(states, "numerical_min") - umbilic_value(states)
        assert np.count_nonzero(gap > 1e-15) <= 30


def objective_calls(monkeypatch):
    """Objective calls of each `_sphere_search` run, one count per run."""
    counts = []
    search = oracle._sphere_search

    def counted(objective, data, grid):
        counts.append(0)

        def wrapped(points, rows):
            counts[-1] += 1
            return objective(points, rows)

        return search(wrapped, data, grid)

    monkeypatch.setattr(oracle, "_sphere_search", counted)
    return counts


class TestSearchWork:
    def test_a_flat_objective_stops_after_one_round(self, monkeypatch):
        # Every direction gives a Werner state the same discord, p, so no
        # poll beats any start and the search ends after its first round:
        # one grid call per 8 states (2048 points of 256), then one round.
        counts = objective_calls(monkeypatch)
        p = np.linspace(0.0, 1.0, 50)
        assert trace_norm_discord(MIXED, "numerical_min") == 0.0
        assert np.max(np.abs(trace_norm_discord(werner_state(p), "numerical_min") - p)) < 1e-15
        assert counts == [1 + 1, 7 + 1]

    def test_numerical_min_matches_the_closed_form_on_bell_diagonal_states(self):
        states = random_bell_diagonal_state(np.random.default_rng(23), 1000)
        gap = trace_norm_discord(states, "numerical_min") - trace_norm_discord(states, "closed_form_bell_diagonal")
        assert np.max(np.abs(gap)) < 1e-13

    def test_thermal_states_in_a_field_stop_before_the_cap(self, monkeypatch):
        # Near-flat valleys: a point must stop on its step or on flat polls,
        # not on _MAX_ROUNDS (2000). 38 grid calls (8 states each), then
        # one call per round.
        counts = objective_calls(monkeypatch)
        trace_norm_discord(gibbs_states_in_field(), "numerical_min")
        assert len(counts) == 1 and counts[0] <= 150

    def test_rotated_thermal_states_stop_before_the_cap(self, monkeypatch, pairs):
        # At the cone points of the rotated copies one ulp of direction moves
        # the value by more than _FLAT_ULPS ulps, so the polls never look flat
        # and the points stop on the step floor, after 125 objective calls;
        # with the flat stop alone two points run to the cap (2038 calls).
        counts = objective_calls(monkeypatch)
        trace_norm_discord(pairs[1], "numerical_min")
        assert len(counts) == 1 and counts[0] <= 150

    def test_verify_searches_stay_short(self, monkeypatch):
        # The discord and CHSH searches of `verify`; a stop rule that lets
        # points halve their steps long after the objective is flat fails here.
        counts = objective_calls(monkeypatch)
        assert verify.run_all_checks().all_pass
        assert len(counts) == 2 and max(counts) <= 90


def run_search_smoke() -> None:
    """The numerical discord of 5000 random Bell-diagonal states against
    their closed form, and the CHSH angle search on 1000 Ginibre states
    against the Horodecki value; prints the largest deviations and the peak
    RSS, and exits 1 above 1e-13, 1e-12 or 150 MB."""
    import resource  # Unix only, and needed only here

    states = random_bell_diagonal_state(np.random.default_rng(1), 5000)
    numeric = trace_norm_discord(states, "numerical_min")
    gap = np.max(np.abs(numeric - trace_norm_discord(states, "closed_form_bell_diagonal")))
    ginibre = random_density_matrix(np.random.default_rng(2), 1000)
    chsh_gap = np.max(np.abs(chsh_direct_search(ginibre) - chsh_max(ginibre, "optimized")))
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"max discord deviation {gap:.3e}, max CHSH deviation {chsh_gap:.3e}, peak RSS {mb:.1f} MB")
    raise SystemExit(1 if gap > 1e-13 or chsh_gap > 1e-12 or mb > 150 else 0)


def reference_tangent_frame(u):
    """The stacked form of `_tangent_frame`, as the broadcast-form search
    round below built its frames."""
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.stack([1.0 + sign * x * x * a, sign * b, -sign * x], axis=-1)
    e2 = np.stack([b, sign + y * y * a, -y], axis=-1)
    return e1, e2


def reference_residual_trace_norm(block, n):
    """`_residual_trace_norm` with numpy's own reductions: the stacked frame
    and `np.sum` over the last axis."""
    e1, e2 = reference_tangent_frame(n)
    u, v = e1 @ block, e2 @ block
    uu, vv = u * u, v * v
    half_frobenius = np.sum(uu + vv, axis=-1)
    det = np.hypot((uu - vv) @ oracle._MINKOWSKI, 2.0 * ((u * v) @ oracle._MINKOWSKI))
    return np.sqrt((half_frobenius + det) / 2.0)


def reference_residual_norm(directions, block):
    return reference_residual_trace_norm(block, directions[..., 0, :])


def reference_negative_chsh(pairs, transposed):
    b, bp = pairs[..., 0, :], pairs[..., 1, :]
    return -(np.linalg.norm((b - bp) @ transposed, axis=-1) + np.linalg.norm((b + bp) @ transposed, axis=-1))


def reference_sphere_search(objective, data, grid):
    """The compass search with its round in broadcast form: every active
    point is gathered each round, its polls are built point-major by
    `np.where`, and norms and sums are numpy's reductions over the last
    axis. The shipped `_sphere_search` must reach the same values bit for bit."""
    rows = data.reshape(-1, *data.shape[-2:])
    count = len(rows)
    starts = np.empty((count, oracle._STARTS), dtype=int)
    start_values = np.empty(starts.shape)
    chunk = max(1, oracle._GRID_POINTS_PER_CALL // len(grid))
    for first in range(0, count, chunk):
        states = np.arange(first, min(first + chunk, count))
        coarse = objective(grid[None], rows[states])
        starts[states] = np.argsort(coarse, axis=-1)[:, :oracle._STARTS]
        start_values[states] = np.take_along_axis(coarse, starts[states], axis=-1)
    owner = np.repeat(np.arange(count), oracle._STARTS)
    x, value = grid[starts.ravel()], start_values.ravel()
    batch, m = x.shape[:2]
    steps = np.full(batch, oracle._STEP)
    compass = np.exp(2j * np.pi * np.arange(oracle._COMPASS) / oracle._COMPASS)[:, None, None]
    replaced = np.eye(m, dtype=bool)[:, :, None]
    for r in range(oracle._MAX_ROUNDS):
        active = np.nonzero(steps > np.finfo(float).eps)[0]
        if active.size == 0:
            break
        u = x[active]
        e1, e2 = reference_tangent_frame(u)
        turn = compass * np.exp(1j * oracle._GOLDEN_ANGLE * r)
        tangent = turn.real * e1[:, None] + turn.imag * e2[:, None]
        h = steps[active, None, None, None]
        turned = np.cos(h) * u[:, None] + np.sin(h) * tangent
        turned /= np.linalg.norm(turned, axis=-1, keepdims=True)
        polls = np.where(replaced, turned[:, :, None], u[:, None, None]).reshape(-1, oracle._COMPASS * m, m, 3)
        values = objective(polls, rows[owner[active]])
        k = np.argmin(values, axis=1)
        best = values[np.arange(active.size), k]
        current = value[active]
        better = best < current
        spread = values.max(axis=1) - current
        flat = ~better & (spread <= oracle._FLAT_ULPS * np.spacing(np.abs(current)))
        x[active[better]] = polls[better, k[better]]
        value[active[better]] = best[better]
        steps[active[~better]] *= 0.5
        steps[active[flat]] = 0.0
    return value.reshape(count, oracle._STARTS).min(axis=-1).reshape(data.shape[:-2])


def reference_discord(rho):
    block = fano_decompose(rho)[..., 1:, :]
    grid = oracle._hemisphere(oracle._DISCORD_GRID)[:, None, :]
    return reference_sphere_search(reference_residual_norm, block, grid)


def reference_chsh_search(rho):
    grid = oracle._hemisphere(oracle._CHSH_GRID)
    pairs = np.stack(np.broadcast_arrays(grid[:, None], grid[None, :]), axis=-2).reshape(-1, 2, 3)
    return -reference_sphere_search(reference_negative_chsh, fano_decompose(rho)[..., 1:, 1:].swapaxes(-1, -2), pairs)


def same_bits(shipped, reference):
    shipped, reference = np.asarray(shipped, dtype=float), np.asarray(reference, dtype=float)
    return shipped.shape == reference.shape and shipped.tobytes() == reference.tobytes()


class TestCompassMajorRound:
    """The compass-major search round reaches the values of the broadcast-form
    round bit for bit: the same polls, in the same order, through the same
    arithmetic."""

    @pytest.mark.parametrize(
        "states",
        [
            lambda: random_density_matrix(np.random.default_rng(31), (3, 7)),
            lambda: random_bell_diagonal_state(np.random.default_rng(32), 300),
            lambda: random_density_matrix(np.random.default_rng(33)),
            lambda: werner_state(0.7),
        ],
        ids=["ginibre_3x7", "bell_diagonal_300", "ginibre_single", "werner_single"],
    )
    def test_discord_search(self, states):
        rho = states()
        assert same_bits(trace_norm_discord(rho, "numerical_min"), reference_discord(rho))

    @pytest.mark.parametrize(
        "states",
        [
            lambda: random_density_matrix(np.random.default_rng(34), 40),
            lambda: random_density_matrix(np.random.default_rng(35), (3, 7)),
            lambda: random_density_matrix(np.random.default_rng(36)),
            lambda: werner_state(0.8),
        ],
        ids=["ginibre_40", "ginibre_3x7", "ginibre_single", "werner_single"],
    )
    def test_chsh_search(self, states):
        rho = states()
        assert same_bits(chsh_direct_search(rho), reference_chsh_search(rho))

    def test_residual_trace_norm_matches_the_np_sum_form(self):
        rng = np.random.default_rng(37)
        block = fano_decompose(random_density_matrix(rng, (5, 3)))[..., 1:, :]
        n = random_directions(rng, 5 * 3 * 6).reshape(5, 3, 6, 3)
        assert same_bits(_residual_trace_norm(block, n), reference_residual_trace_norm(block, n))
        # Directions laid out compass-major, as the search round hands them over.
        polls = random_directions(rng, 6 * 15).reshape(6, 15, 3)
        view = polls.transpose(1, 0, 2)
        assert same_bits(_residual_trace_norm(block.reshape(15, 3, 4), view),
                         reference_residual_trace_norm(block.reshape(15, 3, 4), np.ascontiguousarray(view)))

    def test_norm_matches_np_linalg_norm(self):
        v = np.random.default_rng(38).standard_normal((1000, 7, 3)) * np.logspace(-150, 150, 7)[:, None]
        assert same_bits(oracle._norm(v), np.linalg.norm(v, axis=-1))
