"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Reference roots are 50-digit evaluations of the closed forms
cos x = (3 - sqrt(57))/6, (3 - sqrt(33))/6 and 1 - sqrt(2); the
entanglement-of-formation reference is the binary entropy of
(1 + sqrt(3)/2)/2 at the same precision.
"""

import numpy as np
import pytest

from spindimer.oracle import (
    chsh_max,
    random_bell_diagonal_state,
    random_density_matrix,
    trace_norm_discord,
    werner_state,
    wootters_concurrence,
)
from spindimer.quantifiers import (
    QUANTIFIER_FUNCTIONS,
    TSIRELSON_BOUND,
    bell_mean,
    bell_violation_window,
    concurrence,
    concurrence_window,
    entanglement_of_formation,
    geometric_discord,
    real_correlation,
    scan_roots,
    susceptibility,
    witness,
    witness_from_susceptibility,
    witness_window,
)
from spindimer.scattering import exclusive_structure_factor, scalar_structure_factor
from spindimer.spin_core import (
    DimerModel,
    SINGLET,
    build_hamiltonian,
    eigensystem,
    projector,
)
from spindimer.verify import implied_state

TWO_PI = 2.0 * np.pi

WITNESS_ROOTS = (2.4315065365930624, 3.8516787705865241)
CONCURRENCE_BOUNDS = (2.0458960272066791, 4.2372892799729074)
BELL_CROSSINGS = (1.9978749131873727, 4.2853103939922137)
EOF_AT_HALF_CONCURRENCE = 0.35457890266526988


def check(num, name, ok, detail):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_structure_factor_chain():
    eig = eigensystem(build_hamiltonian(DimerModel(coupling=1.0)))
    r1, r2 = np.array([0.0, 0.0, 1.0]), np.zeros(3)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for x in rng.uniform(0.0, TWO_PI, 1000):
        tensor = exclusive_structure_factor(SINGLET, eig, np.array([0.0, 0.0, x]), r1, r2)
        worst = max(worst, float(np.max(np.abs(tensor - scalar_structure_factor(x) * np.eye(3)))))
    check(1, "structure-factor chain", worst < 1e-12, f"max dev {worst:.3e} over 1000 phases")


def test_criterion_02_witness_window():
    lo, hi = witness_window()
    dev = max(abs(lo - WITNESS_ROOTS[0]), abs(hi - WITNESS_ROOTS[1]))
    rounded = max(abs(lo - 2.45), abs(hi - 3.85))
    ok = dev < 1e-6 and rounded < 0.03
    check(2, "witness window", ok,
          f"roots ({lo:.7f}, {hi:.7f}), dev vs closed form {dev:.3e}, vs rounded window {rounded:.3f}")


def test_criterion_03_concurrence_window():
    lo, hi = concurrence_window()
    dev = max(abs(lo - CONCURRENCE_BOUNDS[0]), abs(hi - CONCURRENCE_BOUNDS[1]))
    rounded = max(abs(lo - 2.0), abs(hi - 4.2))
    peak = abs(float(concurrence(np.pi)) - 1.0)
    ok = dev < 1e-6 and rounded < 0.05 and peak < 1e-12
    check(3, "concurrence window and peak", ok,
          f"bounds ({lo:.7f}, {hi:.7f}), dev {dev:.3e}, vs rounded {rounded:.3f}, |C(pi)-1| {peak:.1e}")


def test_criterion_04_bell_curve():
    peak = abs(float(bell_mean(np.pi)) - TSIRELSON_BOUND)
    lo, hi = bell_violation_window()
    dev = max(abs(lo - BELL_CROSSINGS[0]), abs(hi - BELL_CROSSINGS[1]))
    excess = float(np.max(bell_mean(np.linspace(0.0, TWO_PI, 1001)))) - TSIRELSON_BOUND
    ok = peak < 1e-12 and dev < 1e-6 and excess <= 0.0
    check(4, "bell curve", ok,
          f"|B(pi)-2sqrt2| {peak:.1e}, crossing dev {dev:.3e}, max excess {excess:.1e}")


def test_criterion_05_entanglement_of_formation():
    exact = (
        float(entanglement_of_formation(1.0)) == 1.0
        and float(entanglement_of_formation(0.0)) == 0.0
    )
    dev = abs(float(entanglement_of_formation(0.5)) - 0.354579)
    ref_dev = abs(float(entanglement_of_formation(0.5)) - EOF_AT_HALF_CONCURRENCE)
    ok = exact and dev < 1e-6 and ref_dev < 1e-9
    check(5, "entanglement of formation", ok,
          f"endpoints exact {exact}, E(0.5) dev {dev:.3e} (high-precision ref dev {ref_dev:.1e})")


def test_criterion_06_susceptibility_pipeline_identity():
    rng = np.random.default_rng(77)
    model = DimerModel()
    worst = 0.0
    for x, log_t in zip(rng.uniform(0.0, TWO_PI, 100), rng.uniform(-3.0, 3.0, 100)):
        temp = 10.0**log_t
        chi = susceptibility(temp, float(real_correlation(x)), model)
        worst = max(worst, abs(witness_from_susceptibility(chi, temp, model) - float(witness(x))))
    check(6, "susceptibility pipeline identity", worst < 1e-12,
          f"max dev {worst:.3e} over 100 (x, T) pairs, T in [1e-3, 1e3]")


def test_criterion_07_oracle_agreement_at_the_pure_point():
    singlet = projector(SINGLET)
    oracle_vals = (
        wootters_concurrence(singlet),
        chsh_max(singlet, "fixed"),
        trace_norm_discord(singlet, "closed_form_bell_diagonal"),
    )
    oracle_dev = max(
        abs(oracle_vals[0] - 1.0),
        abs(oracle_vals[1] - TSIRELSON_BOUND),
        abs(oracle_vals[2] - 1.0),
    )
    closed_exact = float(concurrence(np.pi)) == 1.0 and float(bell_mean(np.pi)) == TSIRELSON_BOUND

    # proportionality of the raw trace-norm oracle against both discord
    # readings (property-based: the normalization is not pinned down)
    xs = np.linspace(0.2, TWO_PI - 0.2, 201)
    oracle_discord = np.array(
        [trace_norm_discord(implied_state(x), "closed_form_bell_diagonal") for x in xs]
    )
    fig = np.asarray(geometric_discord(xs, "figure-consistent"))
    verb = np.asarray(geometric_discord(xs, "verbatim"))
    fig_ratio = oracle_discord[fig > 1e-6] / fig[fig > 1e-6]
    verb_ratio = oracle_discord / verb
    fig_constant = float(np.max(fig_ratio) - np.min(fig_ratio))
    verb_spread = float(np.max(verb_ratio) - np.min(verb_ratio))

    ok = oracle_dev < 1e-10 and closed_exact and fig_constant < 1e-9 and verb_spread > 0.5
    check(7, "oracle agreement at x = pi", ok,
          f"oracle dev {oracle_dev:.3e}, closed forms exact {closed_exact}, "
          f"discord ratio vs figure-consistent constant {np.mean(fig_ratio):.6f} "
          f"(spread {fig_constant:.1e}), vs verbatim non-constant (spread {verb_spread:.2f})")


def test_criterion_08_oracle_self_consistency():
    rng = np.random.default_rng(88)
    discord_dev = 0.0
    for _ in range(100):
        rho = random_bell_diagonal_state(rng)
        discord_dev = max(
            discord_dev,
            abs(
                trace_norm_discord(rho, "numerical_min")
                - trace_norm_discord(rho, "closed_form_bell_diagonal")
            ),
        )
    werner_dev = max(
        abs(wootters_concurrence(werner_state(p)) - max(0.0, (3.0 * p - 1.0) / 2.0))
        for p in np.linspace(0.0, 1.0, 100)
    )
    ok = discord_dev < 1e-6 and werner_dev < 1e-10
    check(8, "oracle self-consistency", ok,
          f"discord numerical-vs-closed max dev {discord_dev:.3e} (100 states), "
          f"Werner concurrence max dev {werner_dev:.3e} (100 points)")


def test_criterion_09_physicality_audit(verification_report):
    rng = np.random.default_rng(99)
    counterexamples = 0
    for _ in range(1000):
        rho = random_density_matrix(rng)
        if chsh_max(rho, "optimized") > 2.0 and wootters_concurrence(rho) <= 0.0:
            counterexamples += 1

    regions = None
    for entry in verification_report.discrepancies:
        if "violation_without_entanglement" in entry:
            regions = entry["violation_without_entanglement"]
    listed = regions is not None and all(lo < hi for lo, hi in regions)
    midpoints_confirm = listed and all(
        bell_mean(0.5 * (lo + hi)) > 2.0 and concurrence(0.5 * (lo + hi)) == 0.0
        for lo, hi in regions
    )
    ok = counterexamples == 0 and listed and midpoints_confirm
    check(9, "physicality audit", ok,
          f"{counterexamples} violating-but-separable random states out of 1000; "
          f"formula-level counterexample regions listed in the verify report: {regions}")


def test_criterion_10_mirror_symmetry_and_zero_crossings():
    grid = np.linspace(0.0, TWO_PI, 1001)
    columns = ("S", "ReC", "witness", "concurrence", "eof", "bell", "discord_verbatim", "discord_figure")
    worst = 0.0
    for x in grid:
        for f in (QUANTIFIER_FUNCTIONS[k] for k in columns):
            worst = max(worst, abs(f(x) - f(TWO_PI - x)))

    roots = scan_roots(real_correlation)
    crossings_ok = (
        len(roots) == 2
        and abs(roots[0] - np.pi / 2.0) < 1e-10
        and abs(roots[1] - 3.0 * np.pi / 2.0) < 1e-10
    )
    ok = worst < 1e-12 and crossings_ok
    check(10, "mirror symmetry and correlation zeros", ok,
          f"max symmetry dev {worst:.3e} on 1001-point grid; "
          f"ReC roots at {roots[0]:.10f}, {roots[1]:.10f}")
