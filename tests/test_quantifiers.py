import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from spindimer import quantifiers
from spindimer.quantifiers import (
    QUANTIFIER_FUNCTIONS,
    TSIRELSON_BOUND,
    bell_mean,
    bell_violation_window,
    bisect_root,
    concurrence,
    concurrence_window,
    entanglement_of_formation,
    geometric_discord,
    quantifier_table,
    real_correlation,
    scan_roots,
    signed_concurrence,
    susceptibility,
    witness,
    witness_from_susceptibility,
    witness_window,
)
from spindimer.scattering import scalar_structure_factor
from spindimer.spin_core import DimerModel

TWO_PI = 2.0 * np.pi

# 50-digit evaluations of the closed-form window endpoints:
# cos x = (3 - sqrt(57))/6, (3 - sqrt(33))/6 and 1 - sqrt(2) respectively,
# with the upper endpoints at 2 pi minus the lower ones.
WITNESS_ROOTS = (2.4315065365930624, 3.8516787705865241)
CONCURRENCE_BOUNDS = (2.0458960272066791, 4.2372892799729074)
BELL_CROSSINGS = (1.9978749131873727, 4.2853103939922137)
# binary entropy of (1 +/- sqrt(3)/2)/2, evaluated at 50 digits
EOF_AT_HALF_CONCURRENCE = 0.35457890266526988


def assert_within_one_ulp(roots, references):
    """Each root lies within one ulp of its reference."""
    references = np.array(references)
    assert np.all(np.abs(np.array(roots) - references) <= np.spacing(references)), roots


phases = st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False)
temperatures = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestRealCorrelation:
    def test_antiparallel_point(self):
        assert real_correlation(np.pi) == -1.0

    def test_zero_crossing_at_half_pi(self):
        assert abs(real_correlation(np.pi / 2.0)) < 1e-15

    def test_value_at_third_pi(self):
        assert real_correlation(np.pi / 3.0) == pytest.approx(0.125, abs=1e-15)

    def test_sign_change_roots_at_half_and_three_half_pi(self):
        roots = scan_roots(real_correlation)
        assert len(roots) == 2
        assert abs(roots[0] - np.pi / 2.0) < 1e-10
        assert abs(roots[1] - 3.0 * np.pi / 2.0) < 1e-10

    def test_extremes(self):
        grid = np.linspace(0.0, TWO_PI, 100001)
        re_c = real_correlation(grid)
        assert np.min(re_c) == pytest.approx(-1.0, abs=1e-9)
        assert abs(grid[np.argmin(re_c)] - np.pi) < 1e-4
        assert np.max(re_c) <= 0.125 + 1e-12
        assert real_correlation(5.0 * np.pi / 3.0) == pytest.approx(0.125, abs=1e-12)


class TestWitness:
    def test_reference_points(self):
        assert witness(np.pi) == -1.0
        assert witness(0.0) == 2.0

    def test_zero_crossings(self):
        assert_within_one_ulp(witness_window(), WITNESS_ROOTS)

    @given(phases)
    def test_equals_two_plus_three_rec(self, x):
        assert abs(witness(x) - (2.0 + 3.0 * real_correlation(x))) == 0.0

    def test_negative_witness_implies_positive_concurrence(self):
        grid = np.linspace(0.0, TWO_PI, 1001)
        w = witness(grid)
        c = concurrence(grid)
        assert np.all(c[w < 0.0] > 0.0)

    def test_converse_fails_between_the_windows(self):
        # concurrence window is strictly wider than the witness window
        w_lo, w_hi = witness_window()
        c_lo, c_hi = concurrence_window()
        assert c_lo < w_lo and w_hi < c_hi
        probe = 0.5 * (c_lo + w_lo)
        assert concurrence(probe) > 0.0
        assert witness(probe) > 0.0


class TestSusceptibilityPipeline:
    def test_singlet_correlation_gives_zero_susceptibility(self):
        assert susceptibility(1.0, -1.0, DimerModel()) == 0.0

    def test_uncorrelated_unit_point(self):
        model = DimerModel(g=1.0)
        assert susceptibility(1.0, 0.0, model) == 1.0

    def test_parallel_limit(self):
        model = DimerModel(g=1.0)
        assert susceptibility(2.0, 1.0 / 3.0, model) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_susceptibility_recovers_witness_floor(self):
        assert witness_from_susceptibility(0.0, 1.0, DimerModel()) == -1.0

    def test_pipeline_reference_points(self):
        model = DimerModel()
        chi = susceptibility(1.0, 0.0, model)
        assert witness_from_susceptibility(chi, 1.0, model) == pytest.approx(2.0, abs=1e-15)
        chi = susceptibility(1.0, -2.0 / 3.0, model)
        assert witness_from_susceptibility(chi, 1.0, model) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_a_subnormal_susceptibility(self):
        model = DimerModel(g=1.5e-154)  # g**2 is normal; chi = 2.25e-311 at Re C = 0, T = 1000 is not
        with pytest.raises(ValueError, match="^susceptibility is subnormal for g = 1.5e-154 and temperature = 1000.0$"):
            susceptibility(1000.0, 0.0, model)
        assert susceptibility(1000.0, -1.0, model) == 0.0

    def test_rejects_a_subnormal_measured_susceptibility(self):
        model = DimerModel(g=1.5e-154)
        with pytest.raises(ValueError, match="^susceptibility chi = 2.53e-311 is subnormal$"):
            witness_from_susceptibility(2.53e-311, 1000.0, model)
        assert witness_from_susceptibility(0.0, 1000.0, model) == -1.0

    def test_rejects_a_measured_susceptibility_whose_witness_overflows(self):
        with pytest.raises(ValueError, match=r"^witness from susceptibility is not finite for chi = 1e\+308 and temperature = 1e\+308$"):
            witness_from_susceptibility(1e308, 1e308, DimerModel())

    @pytest.mark.parametrize("g, temperature", [(1.3e154, 10.0), (1.3e154, 1e300), (1.5e-154, 1e-310), (2.0, 1.79e308)])
    def test_extreme_g_and_temperature_match_exact_arithmetic(self, g, temperature):
        # At g = 1.3e154 both g^2 (1 + Re C) and T chi overflow, although chi
        # and the witness are finite. The reference is the exact rational
        # value, rounded once.
        model, re_c = DimerModel(g=g), float(real_correlation(0.9))
        chi = susceptibility(temperature, re_c, model)
        exact = Fraction(g) ** 2 * (1 + Fraction(re_c)) / Fraction(temperature)
        assert abs(chi - float(exact)) <= 1e-15 * float(exact)
        assert abs(witness_from_susceptibility(chi, temperature, model) - witness(0.9)) < 1e-15

    @pytest.mark.parametrize("re_c", [np.nextafter(-1.0, -2.0), np.nextafter(1.0 / 3.0, 1.0), 1.0, -np.inf, np.inf, np.nan])
    def test_rejects_a_correlation_outside_its_range(self, re_c):
        with pytest.raises(ValueError, match=rf"^re_c = {re.escape(repr(re_c))} must lie in \[-1, 1/3\]$"):
            susceptibility(5.0, re_c, DimerModel())

    def test_accepts_both_ends_of_the_correlation_range(self):
        assert susceptibility(5.0, -1.0, DimerModel()) == 0.0
        assert susceptibility(1.0, 1.0 / 3.0, DimerModel(g=1.0)) == 4.0 / 3.0

    @pytest.mark.parametrize("bad_temp", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_non_positive_temperature(self, bad_temp):
        with pytest.raises(ValueError, match="^temperature must be finite and positive$"):
            susceptibility(bad_temp, 0.0, DimerModel())
        with pytest.raises(ValueError, match="^temperature must be finite and positive$"):
            witness_from_susceptibility(1.0, bad_temp, DimerModel())

    @given(phases, temperatures, st.floats(min_value=0.5, max_value=5.0))
    def test_pipeline_identity(self, x, temp, g):
        model = DimerModel(g=g)
        chi = susceptibility(temp, float(real_correlation(x)), model)
        assert abs(witness_from_susceptibility(chi, temp, model) - witness(x)) < 1e-12


class TestConcurrence:
    def test_maximal_at_pi(self):
        assert concurrence(np.pi) == 1.0

    def test_zero_at_origin(self):
        assert concurrence(0.0) == 0.0

    def test_window_boundaries(self):
        assert_within_one_ulp(concurrence_window(), CONCURRENCE_BOUNDS)

    @given(phases)
    def test_bounded_in_unit_interval(self, x):
        assert 0.0 <= concurrence(x) <= 1.0

    def test_clipped_outside_window(self):
        assert concurrence(1.0) == 0.0
        assert signed_concurrence(1.0) < 0.0


class TestEntanglementOfFormation:
    def test_endpoints_exact(self):
        assert entanglement_of_formation(1.0) == 1.0
        assert entanglement_of_formation(0.0) == 0.0

    def test_zero_concurrence_is_not_negative_zero(self):
        assert not np.signbit(entanglement_of_formation(0.0))
        assert not np.any(np.signbit(entanglement_of_formation(np.zeros(3))))

    def test_half_concurrence(self):
        assert abs(entanglement_of_formation(0.5) - EOF_AT_HALF_CONCURRENCE) < 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            entanglement_of_formation(-0.1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            entanglement_of_formation(1.1)

    @pytest.mark.parametrize("conc", [np.nan, [0.5, np.nan], [np.nan, 0.0, 1.0]])
    def test_rejects_nan(self, conc):
        with pytest.raises(ValueError, match=r"^concurrence must lie in \[0, 1\]$"):
            entanglement_of_formation(conc)

    def test_strictly_increasing(self):
        conc = np.linspace(1e-6, 1.0, 1000)
        values = entanglement_of_formation(conc)
        assert np.all(np.diff(values) > 0.0)

    def test_positive_iff_concurrence_positive(self):
        grid = np.linspace(0.0, TWO_PI, 1001)
        conc = concurrence(grid)
        eof = entanglement_of_formation(conc)
        assert np.all((conc > 0.0) == (eof > 0.0))


class TestBellMean:
    def test_maximum_at_pi_is_tsirelson(self):
        assert bell_mean(np.pi) == TSIRELSON_BOUND

    def test_zero_at_origin(self):
        assert bell_mean(0.0) == 0.0

    def test_violation_threshold_crossings(self):
        assert_within_one_ulp(bell_violation_window(), BELL_CROSSINGS)

    def test_never_exceeds_tsirelson_and_peaks_only_at_pi(self):
        grid = np.linspace(0.0, TWO_PI, 1001)
        values = bell_mean(grid)
        assert np.max(values) <= TSIRELSON_BOUND
        at_bound = np.nonzero(values > TSIRELSON_BOUND - 1e-9)[0]
        assert len(at_bound) == 1
        assert abs(grid[at_bound[0]] - np.pi) < 1e-2


class TestGeometricDiscord:
    def test_variants_agree_at_pi(self):
        assert geometric_discord(np.pi, "verbatim") == 0.5
        assert geometric_discord(np.pi, "figure-consistent") == 0.5

    def test_zero_at_origin(self):
        assert geometric_discord(0.0, "verbatim") == 0.0
        assert geometric_discord(0.0, "figure-consistent") == 0.0

    def test_variants_split_at_half_pi(self):
        assert geometric_discord(np.pi / 2.0, "verbatim") == pytest.approx(0.25, abs=1e-15)
        assert geometric_discord(np.pi / 2.0, "figure-consistent") == pytest.approx(0.0, abs=1e-15)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            geometric_discord(1.0, "resolved")


class TestSymmetryAndReport:
    @given(phases)
    def test_all_quantifiers_even_about_pi(self, x):
        for key in ("S", "ReC", "witness", "concurrence", "eof", "bell", "discord_verbatim", "discord_figure"):
            f = QUANTIFIER_FUNCTIONS[key]
            assert abs(f(x) - f(TWO_PI - x)) < 1e-12

    def test_report_internal_consistency(self):
        report = {name: float(f(2.7)) for name, f in QUANTIFIER_FUNCTIONS.items()}
        assert abs(report["witness"] - (2.0 + 3.0 * report["ReC"])) < 1e-15
        assert report["concurrence"] == max(0.0, -(1.0 + 3.0 * report["ReC"]) / 2.0)
        assert report["bell"] == TSIRELSON_BOUND * report["S"]
        assert (report["concurrence"] > 0.0) == (report["eof"] > 0.0)


class TestQuantifierTable:
    def test_theoretical_structure_factor_reproduces_phase_functions_bit_for_bit(self):
        x = np.random.default_rng(11).uniform(-50.0, 50.0, 20_000)
        x[:4] = (0.0, np.pi / 2.0, np.pi, TWO_PI)
        table = quantifier_table(x, scalar_structure_factor(x))
        assert list(table) == [name for name in QUANTIFIER_FUNCTIONS if name != "S"]
        for name, column in table.items():
            assert column.tobytes() == np.asarray(QUANTIFIER_FUNCTIONS[name](x), dtype=float).tobytes(), name
        # cos(x) S(x) is exactly the real part of the complex C = exp(-ix) S(x).
        assert real_correlation(x).tobytes() == np.real(np.exp(-1j * x) * scalar_structure_factor(x)).tobytes()

    def test_concurrence_clipped_at_exactly_zero_is_not_negative_zero(self):
        # cos(pi) = -1 exactly, so Re C = -1/3 and 1 + 3 Re C rounds to exactly 0.
        table = quantifier_table(np.array([np.pi]), np.array([1.0 / 3.0]))
        assert table["concurrence"][0] == 0.0 and not np.signbit(table["concurrence"][0])
        assert table["eof"][0] == 0.0


class TestRootFinding:
    def test_bisection_meets_function_tolerance(self):
        root = bisect_root(witness, 2.0, 3.0)
        assert abs(witness(root)) < 1e-12

    def test_bisection_requires_bracket(self):
        with pytest.raises(ValueError, match="bracket"):
            bisect_root(witness, 0.1, 0.2)

    def test_bisection_returns_an_end_where_f_is_exactly_zero(self):
        assert bisect_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert bisect_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_bisection_stops_once_the_bracket_closes(self):
        # A step is never zero, so the halving runs until the midpoint rounds
        # to an end: the bracket is then the two doubles around the sign change
        # at 0.3, |f| ties at 1, and the lower end, one ulp below 0.3, is returned.
        calls = []

        def step(x):
            calls.append(x)
            return -1.0 if x < 0.3 else 1.0

        assert bisect_root(step, 0.0, 1.0) == 0.29999999999999993 == np.nextafter(0.3, 0.0)
        assert len(calls) == 56
        assert calls[-2:] == [np.nextafter(0.3, 0.0), 0.3]

    def test_bisection_returns_the_end_where_f_is_smaller(self):
        assert bisect_root(lambda x: -1.0 if x < 0.3 else 2.0, 0.0, 1.0) == np.nextafter(0.3, 0.0)
        assert bisect_root(lambda x: -2.0 if x < 0.3 else 1.0, 0.0, 1.0) == 0.3

    def test_bisection_does_not_depend_on_the_scale_of_f(self):
        assert abs(bisect_root(lambda x: 1e-20 * (x - 0.3), 0.0, 1.0) - 0.3) <= np.spacing(0.3)
        roots = scan_roots(lambda x: 1e-13 * np.cos(x))
        assert_within_one_ulp(roots, (np.pi / 2.0, 3.0 * np.pi / 2.0))

    def test_bisection_keeps_the_midpoint_of_huge_ends_finite(self):
        # 1e308 + 1.7e308 overflows; half of each end does not.
        assert bisect_root(lambda x: x - 1.5e308, 1e308, 1.7e308) == 1.5e308

    @pytest.mark.parametrize("lo, hi", [(0.0, np.nan), (np.nan, 1.0), (-np.inf, np.inf), (0.0, np.inf)])
    def test_bisection_rejects_an_end_that_is_not_finite(self, lo, hi):
        where = lo if not np.isfinite(lo) else hi
        with pytest.raises(ValueError, match=rf"^bracket end x = {where!r} is not finite$"):
            bisect_root(lambda x: -1.0 if x < 0.3 else 1.0, lo, hi)

    @pytest.mark.parametrize("f, where", [
        (lambda x: np.nan, 0.0),
        (lambda x: np.nan if x == 1.0 else -1.0, 1.0),
        (lambda x: -np.inf if x == 0.0 else x, 0.0),
        # Finite at both ends, NaN on (0.4, 0.6): the first midpoint is 0.5.
        (lambda x: np.nan if 0.4 < x < 0.6 else x - 0.7, 0.5),
    ])
    def test_bisection_rejects_a_value_that_is_not_finite(self, f, where):
        with pytest.raises(ValueError, match=rf"^f is not finite at x = {where!r}: "):
            bisect_root(f, 0.0, 1.0)

    def test_window_without_two_sign_changes_is_an_error(self):
        with pytest.raises(RuntimeError, match=r"expected exactly 2 sign changes on \[0, 2pi\], found 0"):
            quantifiers._window(lambda x: np.cos(x) + 2.0)

    def test_scan_returns_a_root_on_a_grid_point(self):
        # The grid is 0, 0.5, ..., 2.0, so f is exactly zero at the grid point 1.0.
        assert scan_roots(lambda x: x - 1.0, lo=0.0, hi=2.0, samples=5) == [1.0]
        assert scan_roots(lambda x: (x - 1.0) * (x - 1.8), lo=0.0, hi=2.0, samples=5) == pytest.approx(
            [1.0, 1.8], abs=1e-11
        )

    def test_scan_ignores_zeros_at_the_ends(self):
        assert scan_roots(lambda x: np.sin(x), lo=0.0, hi=np.pi, samples=101) == []
