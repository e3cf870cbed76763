import numpy as np
import pytest

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
    DimerModel,
    SINGLET,
    bell_diagonal_state,
    fano_decompose,
    projector,
    require_density_matrix,
    thermal_state,
)

MIXED = np.eye(4, dtype=complex) / 4.0
KET_00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


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
            fano = fano_decompose(rho)
            norms = _residual_trace_norm(fano.a, fano.tensor, n)
            assert norms.shape == (len(n),)
            for nk, value in zip(n, norms):
                theta, phi = angles(nk)
                assert abs(value - trace_norm(rho - measurement_dephase(rho, theta, phi))) < 1e-14

    def test_residual_trace_norm_of_a_stack_matches_each_state(self):
        rng = np.random.default_rng(19)
        fano = fano_decompose(np.array([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 4, 4))
        n = random_directions(rng, 2 * 3 * 5).reshape(2, 3, 5, 3)
        stacked = _residual_trace_norm(fano.a, fano.tensor, n)
        assert stacked.shape == (2, 3, 5)
        for index in np.ndindex(2, 3):
            assert np.array_equal(stacked[index], _residual_trace_norm(fano.a[index], fano.tensor[index], n[index]))

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

    def test_fano_tensor_matches_direct_traces(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix(rng)
        direct = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULI] for si in PAULI])
        assert np.max(np.abs(fano_decompose(rho).tensor - direct)) < 1e-14


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
            fano = fano_decompose(random_bell_diagonal_state(rng))
            assert np.max(np.abs(fano.a)) < 1e-12
            assert np.max(np.abs(fano.b)) < 1e-12
            assert np.max(np.abs(fano.tensor * (1.0 - np.eye(3)))) < 1e-12


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


def x_state_discord(fano):
    """Trace-norm discord of X states, measured on subsystem 1, in the
    closed form of Ciccarello, Tufarelli & Giovannetti, NJP 16, 013038 (2014).

    For Bloch vectors along z and a diagonal correlation tensor c, with
    g1 >= g2 the magnitudes of c_x, c_y, g3 = |c_z| and a3 the z component of
    the measured spin's Bloch vector:
    D^2 = (g1^2 high - g2^2 low) / (high - low + g1^2 - g2^2),
    high = max(g3^2, g2^2 + a3^2), low = min(g3^2, g1^2).
    A test-side reference, independent of the numerical search.
    """
    c = np.abs(np.diagonal(fano.tensor, axis1=-2, axis2=-1))
    g1, g2, g3 = np.maximum(c[..., 0], c[..., 1]), np.minimum(c[..., 0], c[..., 1]), c[..., 2]
    high = np.maximum(g3**2, g2**2 + fano.a[..., 2] ** 2)
    low = np.minimum(g3**2, g1**2)
    return np.sqrt((g1**2 * high - g2**2 * low) / (high - low + g1**2 - g2**2))


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


class TestXStateDiscord:
    def test_reference_reduces_to_the_middle_magnitude_on_bell_diagonal_states(self):
        rng = np.random.default_rng(17)
        states = np.array([random_bell_diagonal_state(rng) for _ in range(1000)])
        middle = trace_norm_discord(states, "closed_form_bell_diagonal")
        assert np.max(np.abs(x_state_discord(fano_decompose(states)) - middle)) < 1e-12

    def test_numerical_min_matches_the_x_state_closed_form(self):
        states = random_x_states(np.random.default_rng(18), 100)
        fano = fano_decompose(states)
        # States with a Bloch vector along z, which the Bell-diagonal gate does not cover.
        assert np.max(np.abs(fano.tensor * (1.0 - np.eye(3)))) <= 1e-12 and np.min(np.abs(fano.a[:, 2])) > 0.0
        assert np.max(np.abs(fano.a[:, :2])) == 0.0
        numeric = trace_norm_discord(states, "numerical_min")
        assert np.max(np.abs(numeric - x_state_discord(fano))) < 1e-6
