"""Cross-validation of every closed form against the density-matrix oracles.

Runs the invariant suite behind the `verify` CLI command and assembles the
table of documented formula discrepancies (the published Bell and discord
curves are internally inconsistent; we expose the gaps instead of hiding
them).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import oracle, quantifiers
from .quantifiers import (
    DISCORD_VARIANTS,
    QUANTIFIER_FUNCTIONS,
    bell_mean,
    bell_violation_window,
    concurrence,
    concurrence_window,
    entanglement_of_formation,
    evaluate_quantifiers,
    geometric_discord,
    real_correlation,
    scan_roots,
    susceptibility,
    witness,
    witness_from_susceptibility,
    witness_window,
    TSIRELSON_BOUND,
)
from .scattering import exclusive_structure_factor, scalar_structure_factor
from .spin_core import (
    DimerModel,
    SINGLET,
    TOTAL_SZ,
    bell_diagonal_state,
    build_hamiltonian,
    eigensystem,
    fano_decompose,
    fano_reconstruct,
    thermal_state,
)


@dataclass(frozen=True)
class CheckResult:
    # In the key order of a check in the verify JSON, which `asdict` follows.
    name: str
    metric: str
    observed: float
    tolerance: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.metric == "counterexamples":
            return f"{self.name}: {self.metric} = {self.observed:g} (allowed {self.tolerance:g}): {status}"
        op = "<" if self.passed else ">="
        return f"{self.name}: {self.metric} {op} {self.tolerance:g} [observed {self.observed:.3e}]: {status}"


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    discrepancies: list[dict] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "checks": [asdict(c) for c in self.checks],
            "discrepancies": self.discrepancies,
        }

    def format_text(self) -> str:
        lines = ["cross-validation checks", "-----------------------"]
        lines += [c.line() for c in self.checks]
        lines += ["", "documented formula discrepancies", "--------------------------------"]
        for d in self.discrepancies:
            lines.append(f"- {d['description']}")
            for key, value in d.items():
                if key != "description":
                    lines.append(f"    {key}: {value}")
        n_pass = sum(c.passed for c in self.checks)
        lines += ["", f"overall: {'PASS' if self.all_pass else 'FAIL'} ({n_pass}/{len(self.checks)} checks)"]
        return "\n".join(lines)


def implied_state(x) -> np.ndarray:
    """Two-qubit state the diffraction formulas describe at phase x: zero
    Bloch vectors and all three same-axis correlators equal to Re C(x).
    An array of phases gives a stack of states."""
    c = np.asarray(real_correlation(x), dtype=float)
    return bell_diagonal_state(np.stack([c, c, c], axis=-1))


def closed_form_vs_oracle(x: float) -> dict:
    """Closed-form quantifiers at x next to brute-force values on the
    implied state, with their differences and discord ratios: the flat
    point report, keyed x, the quantifiers, oracle, delta, discord_ratio."""
    report = evaluate_quantifiers(x)
    rho = implied_state(x)
    oracle_values = {
        "concurrence": oracle.wootters_concurrence(rho),
        "chsh_fixed": oracle.chsh_max(rho, "fixed"),
        "chsh_optimized": oracle.chsh_max(rho, "optimized"),
        "discord_trace_norm": oracle.trace_norm_discord(rho, "closed_form_bell_diagonal"),
        "correlation": float(oracle.correlation_oracle(rho)[2]),
    }
    deltas = {
        "concurrence": report.concurrence - oracle_values["concurrence"],
        "eof": float(entanglement_of_formation(oracle_values["concurrence"])) - report.eof,
        "bell_vs_chsh_fixed": report.bell - oracle_values["chsh_fixed"],
        "correlation": report.ReC - oracle_values["correlation"],
    }
    ratios = {
        f"oracle_to_{variant}": oracle_values["discord_trace_norm"] / value if value > 1e-12 else None
        for variant, value in (("verbatim", report.discord_verbatim), ("figure", report.discord_figure))
    }
    return {**report.as_dict(), "oracle": oracle_values, "delta": deltas, "discord_ratio": ratios}


def _check(name, observed, tolerance, metric="max dev") -> CheckResult:
    return CheckResult(name, metric, float(observed), tolerance, bool(observed <= tolerance))


def run_all_checks() -> VerificationReport:
    """Full invariant and oracle-equivalence suite. Deterministic."""
    report = VerificationReport()
    two_pi = 2.0 * np.pi

    # -- structure-factor chain ------------------------------------------
    rng = np.random.default_rng(101)
    eig = eigensystem(build_hamiltonian(DimerModel(coupling=1.0)))
    x = rng.uniform(0.0, two_pi, 1000)
    q = np.stack([np.zeros_like(x), np.zeros_like(x), x], axis=-1)
    tensors = exclusive_structure_factor(SINGLET, eig, q, np.array([0.0, 0.0, 1.0]), np.zeros(3))
    worst = np.max(np.abs(tensors - scalar_structure_factor(x)[:, None, None] * np.eye(3)))
    report.checks.append(_check("exclusive vs scalar structure factor", worst, 1e-12))

    # -- symmetry and correlation structure ------------------------------
    grid = np.linspace(0.0, two_pi, 1001)
    worst = max(
        float(np.max(np.abs(np.asarray(f(grid)) - np.asarray(f(two_pi - grid)))))
        for f in QUANTIFIER_FUNCTIONS.values()
    )
    report.checks.append(_check("quantifier mirror symmetry about x = pi", worst, 1e-12))

    crossings = scan_roots(real_correlation)
    dev = max(
        abs(crossings[0] - np.pi / 2.0) if len(crossings) > 0 else np.inf,
        abs(crossings[1] - 3.0 * np.pi / 2.0) if len(crossings) > 1 else np.inf,
        np.inf if len(crossings) != 2 else 0.0,
        abs(float(real_correlation(0.0))),
        abs(float(real_correlation(two_pi))),
    )
    report.checks.append(_check("correlation zeros at 0, pi/2, 3pi/2, 2pi", dev, 1e-10))

    rec = real_correlation(grid)
    dev = max(
        abs(float(np.min(rec)) + 1.0),
        abs(grid[np.argmin(rec)] - np.pi),
        abs(float(real_correlation(np.pi / 3.0)) - 0.125),
        max(0.0, float(np.max(rec)) - 0.125),
    )
    report.checks.append(_check("correlation extremes (-1 at pi, 1/8 at pi/3)", dev, 1e-12))

    # -- witness identities ----------------------------------------------
    worst = float(np.max(np.abs(witness(grid) - (2.0 + 3.0 * rec))))
    report.checks.append(_check("witness equals 2 + 3 ReC", worst, 1e-12))

    rng = np.random.default_rng(202)
    model = DimerModel()
    worst = 0.0
    for x, log_t in zip(rng.uniform(0.0, two_pi, 100), rng.uniform(-3.0, 3.0, 100)):
        temp = 10.0**log_t
        chi = susceptibility(temp, float(real_correlation(x)), model)
        worst = max(worst, abs(witness_from_susceptibility(chi, temp, model) - float(witness(x))))
    report.checks.append(_check("susceptibility pipeline reproduces witness", worst, 1e-12))

    # -- window endpoints vs closed-form roots ---------------------------
    windows = {}
    for name, window, cos_root in (
        ("witness window endpoints", witness_window, (3.0 - np.sqrt(57.0)) / 6.0),
        ("concurrence window endpoints", concurrence_window, (3.0 - np.sqrt(33.0)) / 6.0),
        ("bell threshold crossings", bell_violation_window, 1.0 - np.sqrt(2.0)),
    ):
        lo, hi = windows[window] = window()
        ref = float(np.arccos(cos_root))
        worst = max(abs(lo - ref), abs(hi - (two_pi - ref)))
        report.checks.append(_check(f"{name} vs arccos form", worst, 1e-6))

    # -- bounds ------------------------------------------------------------
    bell_curve = bell_mean(grid)
    report.checks.append(
        _check(
            "Tsirelson bound on the closed-form bell curve",
            float(np.max(bell_curve)) - TSIRELSON_BOUND,
            1e-12,
            metric="max excess",
        )
    )

    rng = np.random.default_rng(303)
    random_states = oracle.random_density_matrix(rng, 1000)
    chsh = oracle.chsh_max(random_states, "optimized")
    excess = np.max(chsh - TSIRELSON_BOUND)
    report.checks.append(
        _check("Tsirelson bound on optimized CHSH over random states", excess, 1e-9, metric="max excess")
    )

    violations = np.count_nonzero((chsh > 2.0 + 1e-9) & (oracle.wootters_concurrence(random_states) == 0.0))
    report.checks.append(
        _check("separable random states never violate CHSH", violations, 0.0, metric="counterexamples")
    )

    # -- oracle self-consistency -----------------------------------------
    p = np.linspace(0.0, 1.0, 100)
    concurrences = oracle.wootters_concurrence(oracle.werner_state(p))
    worst = np.max(np.abs(concurrences - np.maximum(0.0, (3.0 * p - 1.0) / 2.0)))
    report.checks.append(_check("Werner concurrence matches (3p-1)/2 form", worst, 1e-10))

    rng = np.random.default_rng(404)
    states = oracle.random_bell_diagonal_state(rng, 100)
    closed = oracle.trace_norm_discord(states, "closed_form_bell_diagonal")
    numeric = oracle.trace_norm_discord(states, "numerical_min")
    worst = np.max(np.abs(closed - numeric))
    report.checks.append(_check("trace-norm discord numerical vs closed form", worst, 1e-6))

    rng = np.random.default_rng(505)
    probes = np.concatenate([
        [oracle.werner_state(0.8), bell_diagonal_state(np.array([-1.0, -1.0, -1.0]))],
        oracle.random_density_matrix(rng, 3),
    ])
    worst = np.max(np.abs(oracle.chsh_direct_search(probes) - oracle.chsh_max(probes, "optimized")))
    report.checks.append(_check("CHSH direct angle search vs Horodecki value", worst, 1e-6))

    # -- closed forms vs oracle at the pure point -------------------------
    comparison = closed_form_vs_oracle(np.pi)
    worst = max(
        abs(comparison["concurrence"] - 1.0),
        abs(comparison["eof"] - 1.0),
        abs(comparison["bell"] - TSIRELSON_BOUND),
        abs(comparison["witness"] + 1.0),
        abs(comparison["oracle"]["concurrence"] - 1.0),
        abs(comparison["oracle"]["chsh_fixed"] - TSIRELSON_BOUND),
        abs(comparison["oracle"]["discord_trace_norm"] - 1.0),
    )
    report.checks.append(_check("closed forms vs oracle at the singlet point x = pi", worst, 1e-10))

    # -- dimer mechanics ---------------------------------------------------
    couplings = np.linspace(-5.0, 5.0, 41)
    worst = 0.0
    spectrum_dev = 0.0
    for j in couplings:
        h = build_hamiltonian(DimerModel(coupling=float(j)))
        worst = max(worst, float(np.max(np.abs(h @ TOTAL_SZ - TOTAL_SZ @ h))))
        expected = np.sort(np.array([0.25 * j] * 3 + [-0.75 * j]))
        spectrum_dev = max(
            spectrum_dev,
            float(np.max(np.abs(eigensystem(h).energies - expected))),
        )
    report.checks.append(_check("hamiltonian commutes with total Sz", worst, 1e-12))
    report.checks.append(_check("spectrum is {J/4 x3, -3J/4}", spectrum_dev, 1e-12))

    worst = 0.0
    for j in (1.0, -2.0, 0.7):
        h_eigs = eigensystem(build_hamiltonian(DimerModel(coupling=j))).energies
        for temp in (0.1, 1.0, 10.0):
            boltzmann = np.exp(-(h_eigs - h_eigs[0]) / temp)
            boltzmann /= boltzmann.sum()
            observed = np.linalg.eigvalsh(thermal_state(DimerModel(coupling=j), temp))
            worst = max(worst, float(np.max(np.abs(observed - np.sort(boltzmann)))))
    report.checks.append(_check("thermal eigenvalues are Boltzmann weights", worst, 1e-12))

    rng = np.random.default_rng(606)
    states = oracle.random_bell_diagonal_state(rng, 1000)
    worst = np.max(np.abs(fano_reconstruct(fano_decompose(states)) - states))
    report.checks.append(_check("Pauli decompose/reconstruct round trip", worst, 1e-12))

    report.discrepancies = _discrepancy_table(
        grid, bell_curve, windows[bell_violation_window], windows[concurrence_window]
    )
    return report


def _discrepancy_table(grid, bell_curve, bell_bounds, concurrence_bounds) -> list[dict]:
    """Quantified table of the documented formula-level inconsistencies,
    from the suite's 1001-point phase grid on [0, 2 pi], the closed-form
    bell curve on it and the two windows."""
    two_pi = 2.0 * np.pi
    entries = []

    half_pi = np.pi / 2.0
    verbatim, figure = (float(geometric_discord(half_pi, variant)) for variant in DISCORD_VARIANTS)
    entries.append(
        {
            "description": (
                "the two published discord readings differ by a factor-2 placement: "
                "'verbatim' = (1 - cos x)/4 stays positive at x = pi/2 while "
                "'figure-consistent' = |ReC|/2 vanishes there with the correlation"
            ),
            "gap_at_half_pi": verbatim - figure,
            "verbatim_at_half_pi": verbatim,
            "figure_at_half_pi": figure,
            "both_at_pi": float(geometric_discord(np.pi, "verbatim")),
        }
    )

    xs = np.linspace(0.2, two_pi - 0.2, 501)
    oracle_vals = oracle.trace_norm_discord(implied_state(xs), "closed_form_bell_diagonal")
    fig_vals = np.asarray(geometric_discord(xs, "figure-consistent"))
    verb_vals = np.asarray(geometric_discord(xs, "verbatim"))
    keep = fig_vals > 1e-6
    fig_ratio = oracle_vals[keep] / fig_vals[keep]
    verb_ratio = oracle_vals / verb_vals
    entries.append(
        {
            "description": (
                "no normalization convention is fixed for the trace-norm discord; the raw "
                "minimized trace norm on the implied states is proportional to the "
                "figure-consistent variant (constant ratio) but not to the verbatim one"
            ),
            "ratio_oracle_to_figure_min": float(np.min(fig_ratio)),
            "ratio_oracle_to_figure_max": float(np.max(fig_ratio)),
            "ratio_oracle_to_figure_constant": bool(np.max(fig_ratio) - np.min(fig_ratio) < 1e-9),
            "ratio_oracle_to_verbatim_min": float(np.min(verb_ratio)),
            "ratio_oracle_to_verbatim_max": float(np.max(verb_ratio)),
            "ratio_oracle_to_verbatim_constant": bool(np.max(verb_ratio) - np.min(verb_ratio) < 1e-9),
        }
    )

    gaps = np.abs(bell_curve - oracle.chsh_max(implied_state(grid), "fixed"))
    entries.append(
        {
            "description": (
                "the closed-form bell curve 2 sqrt(2) S(x) does not equal the fixed-direction "
                "CHSH expectation on the implied states (2 sqrt(2) |ReC|); they agree only "
                "where the state is pure"
            ),
            "max_gap": float(np.max(gaps)),
            "gap_at_pi": float(gaps[500]),
        }
    )

    b_lo, b_hi = bell_bounds
    c_lo, c_hi = concurrence_bounds
    mid_left = 0.5 * (b_lo + c_lo)
    mid_right = 0.5 * (c_hi + b_hi)
    entries.append(
        {
            "description": (
                "the bell-violation window strictly contains the concurrence window, so the "
                "closed forms claim CHSH violation for phases whose implied state is "
                "separable; physically impossible, hence at least one formula misstates "
                "the phase dependence"
            ),
            "bell_window": [float(b_lo), float(b_hi)],
            "concurrence_window": [float(c_lo), float(c_hi)],
            "violation_without_entanglement": [
                [float(b_lo), float(c_lo)],
                [float(c_hi), float(b_hi)],
            ],
            "left_midpoint_bell": float(bell_mean(mid_left)),
            "left_midpoint_concurrence": float(concurrence(mid_left)),
            "right_midpoint_bell": float(bell_mean(mid_right)),
            "right_midpoint_concurrence": float(concurrence(mid_right)),
        }
    )
    return entries
