"""Cross-validation of every closed form against the density-matrix oracles.

Runs the invariant suite behind the `verify` CLI command and assembles the
table of documented formula discrepancies (the published Bell and discord
curves are internally inconsistent; we expose the gaps instead of hiding
them).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from . import oracle
from .quantifiers import (
    DISCORD_VARIANTS,
    QUANTIFIER_FUNCTIONS,
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

_TWO_PI = 2.0 * np.pi


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
    report = {"x": float(x), **{name: float(f(x)) for name, f in QUANTIFIER_FUNCTIONS.items()}}
    rho = implied_state(x)
    oracle_values = {
        "concurrence": oracle.wootters_concurrence(rho),
        "chsh_fixed": oracle.chsh_max(rho, "fixed"),
        "chsh_optimized": oracle.chsh_max(rho, "optimized"),
        "discord_trace_norm": oracle.trace_norm_discord(rho, "closed_form_bell_diagonal"),
        "correlation": float(oracle.correlation_oracle(rho)[2]),
    }
    deltas = {
        "concurrence": report["concurrence"] - oracle_values["concurrence"],
        "eof": float(entanglement_of_formation(oracle_values["concurrence"])) - report["eof"],
        "bell_vs_chsh_fixed": report["bell"] - oracle_values["chsh_fixed"],
        "correlation": report["ReC"] - oracle_values["correlation"],
    }
    ratios = {
        f"oracle_to_{variant}": oracle_values["discord_trace_norm"] / value if value > 1e-12 else None
        for variant, value in (("verbatim", report["discord_verbatim"]), ("figure", report["discord_figure"]))
    }
    return {**report, "oracle": oracle_values, "delta": deltas, "discord_ratio": ratios}


def _shared_inputs() -> SimpleNamespace:
    """What several checks, or a check and the discrepancy table, read:
    `grid`, 1001 phases on [0, 2 pi], with `rec` (Re C) and `bell_curve` on
    it; `windows` keyed "witness", "concurrence" and "bell"; the dimer
    `hamiltonians` keyed by 41 couplings J in [-5, 5]; and the seed-303
    Ginibre stack `random_states` with its optimized `chsh` values."""
    grid = np.linspace(0.0, _TWO_PI, 1001)
    random_states = oracle.random_density_matrix(np.random.default_rng(303), 1000)
    return SimpleNamespace(
        grid=grid,
        rec=real_correlation(grid),
        bell_curve=bell_mean(grid),
        windows={"witness": witness_window(), "concurrence": concurrence_window(), "bell": bell_violation_window()},
        hamiltonians={j: build_hamiltonian(DimerModel(coupling=float(j))) for j in np.linspace(-5.0, 5.0, 41)},
        random_states=random_states,
        chsh=oracle.chsh_max(random_states, "optimized"),
    )


def _structure_factor_chain(shared) -> float:
    x = np.random.default_rng(101).uniform(0.0, _TWO_PI, 1000)
    eig = eigensystem(build_hamiltonian(DimerModel(coupling=1.0)))
    q = np.stack([np.zeros_like(x), np.zeros_like(x), x], axis=-1)
    tensors = exclusive_structure_factor(SINGLET, eig, q, np.array([0.0, 0.0, 1.0]), np.zeros(3))
    return np.max(np.abs(tensors - scalar_structure_factor(x)[:, None, None] * np.eye(3)))


def _correlation_zeros(shared) -> float:
    crossings = scan_roots(real_correlation)
    return np.max([
        abs(crossings[0] - np.pi / 2.0) if len(crossings) > 0 else np.inf,
        abs(crossings[1] - 3.0 * np.pi / 2.0) if len(crossings) > 1 else np.inf,
        np.inf if len(crossings) != 2 else 0.0,
        abs(float(real_correlation(0.0))),
        abs(float(real_correlation(_TWO_PI))),
    ])


def _correlation_extremes(shared) -> float:
    return np.max([
        abs(float(np.min(shared.rec)) + 1.0),
        abs(shared.grid[np.argmin(shared.rec)] - np.pi),
        abs(float(real_correlation(np.pi / 3.0)) - 0.125),
        np.maximum(0.0, float(np.max(shared.rec)) - 0.125),
    ])


def _susceptibility_pipeline(shared) -> float:
    # The closed forms are evaluated once on the phase array; their values are
    # the per-phase scalar calls' bit for bit. The pipeline itself stays scalar.
    rng = np.random.default_rng(202)
    phases, log_ts = rng.uniform(0.0, _TWO_PI, 100), rng.uniform(-3.0, 3.0, 100)
    model = DimerModel()
    deviations = []
    for re_c, w, log_t in zip(real_correlation(phases).tolist(), witness(phases).tolist(), log_ts):
        temp = 10.0**log_t
        chi = susceptibility(temp, re_c, model)
        deviations.append(abs(witness_from_susceptibility(chi, temp, model) - w))
    return np.max(deviations)


def _window_endpoints(shared, window: str, cos_root: float) -> float:
    lo, hi = shared.windows[window]
    ref = float(np.arccos(cos_root))
    return np.max([abs(lo - ref), abs(hi - (_TWO_PI - ref))])


def _separable_violators(shared) -> int:
    # Random states that violate CHSH yet have zero concurrence. Only the
    # violators can count, and the oracle's value for a state does not depend
    # on the stack it comes in, so the concurrence is computed for them alone.
    violators = shared.random_states[shared.chsh > 2.0 + 1e-9]
    return np.count_nonzero(oracle.wootters_concurrence(violators) == 0.0)


def _werner_concurrence(shared) -> float:
    p = np.linspace(0.0, 1.0, 100)
    concurrences = oracle.wootters_concurrence(oracle.werner_state(p))
    return np.max(np.abs(concurrences - np.maximum(0.0, (3.0 * p - 1.0) / 2.0)))


def _discord_search(shared) -> float:
    states = oracle.random_bell_diagonal_state(np.random.default_rng(404), 100)
    closed = oracle.trace_norm_discord(states, "closed_form_bell_diagonal")
    return np.max(np.abs(closed - oracle.trace_norm_discord(states, "numerical_min")))


def _chsh_search(shared) -> float:
    probes = np.concatenate([
        [oracle.werner_state(0.8), bell_diagonal_state(np.array([-1.0, -1.0, -1.0]))],
        oracle.random_density_matrix(np.random.default_rng(505), 3),
    ])
    return np.max(np.abs(oracle.chsh_direct_search(probes) - oracle.chsh_max(probes, "optimized")))


def _singlet_point(shared) -> float:
    comparison = closed_form_vs_oracle(np.pi)
    return np.max([
        abs(comparison["concurrence"] - 1.0),
        abs(comparison["eof"] - 1.0),
        abs(comparison["bell"] - TSIRELSON_BOUND),
        abs(comparison["witness"] + 1.0),
        abs(comparison["oracle"]["concurrence"] - 1.0),
        abs(comparison["oracle"]["chsh_fixed"] - TSIRELSON_BOUND),
        abs(comparison["oracle"]["discord_trace_norm"] - 1.0),
    ])


def _thermal_weights(shared) -> float:
    deviations = []
    for j in (1.0, -2.0, 0.7):
        h_eigs = eigensystem(build_hamiltonian(DimerModel(coupling=j))).energies
        for temp in (0.1, 1.0, 10.0):
            boltzmann = np.exp(-(h_eigs - h_eigs[0]) / temp)
            boltzmann /= boltzmann.sum()
            observed = np.linalg.eigvalsh(thermal_state(DimerModel(coupling=j), temp))
            deviations.append(np.max(np.abs(observed - np.sort(boltzmann))))
    return np.max(deviations)


def _fano_round_trip(shared) -> float:
    states = oracle.random_bell_diagonal_state(np.random.default_rng(606), 1000)
    return np.max(np.abs(fano_reconstruct(fano_decompose(states)) - states))


# (name, tolerance, metric, observe) in report order; `observe` maps the
# shared inputs to one number, reducing with np.max so that a NaN fails the
# check (Python's max skips one that is not first), and one that draws random
# states seeds its own generator, so each check runs the same alone. The entries and the shared
# inputs hold no public spindimer function, which a tracer may rebind: the
# windows are keyed by name, and the observers look functions up as they run.
_CHECKS = (
    ("exclusive vs scalar structure factor", 1e-12, "max dev", _structure_factor_chain),
    ("quantifier mirror symmetry about x = pi", 1e-12, "max dev", lambda shared: np.max([
        np.max(np.abs(np.asarray(f(shared.grid)) - np.asarray(f(_TWO_PI - shared.grid))))
        for f in QUANTIFIER_FUNCTIONS.values()
    ])),
    ("correlation zeros at 0, pi/2, 3pi/2, 2pi", 1e-10, "max dev", _correlation_zeros),
    ("correlation extremes (-1 at pi, 1/8 at pi/3)", 1e-12, "max dev", _correlation_extremes),
    ("witness equals 2 + 3 ReC", 1e-12, "max dev",
     lambda shared: np.max(np.abs(witness(shared.grid) - (2.0 + 3.0 * shared.rec)))),
    ("susceptibility pipeline reproduces witness", 1e-12, "max dev", _susceptibility_pipeline),
    ("witness window endpoints vs arccos form", 1e-6, "max dev",
     lambda shared: _window_endpoints(shared, "witness", (3.0 - np.sqrt(57.0)) / 6.0)),
    ("concurrence window endpoints vs arccos form", 1e-6, "max dev",
     lambda shared: _window_endpoints(shared, "concurrence", (3.0 - np.sqrt(33.0)) / 6.0)),
    ("bell threshold crossings vs arccos form", 1e-6, "max dev",
     lambda shared: _window_endpoints(shared, "bell", 1.0 - np.sqrt(2.0))),
    ("Tsirelson bound on the closed-form bell curve", 1e-12, "max excess",
     lambda shared: float(np.max(shared.bell_curve)) - TSIRELSON_BOUND),
    ("Tsirelson bound on optimized CHSH over random states", 1e-9, "max excess",
     lambda shared: np.max(shared.chsh - TSIRELSON_BOUND)),
    ("separable random states never violate CHSH", 0.0, "counterexamples", _separable_violators),
    ("Werner concurrence matches (3p-1)/2 form", 1e-10, "max dev", _werner_concurrence),
    ("trace-norm discord numerical vs closed form", 1e-6, "max dev", _discord_search),
    ("CHSH direct angle search vs Horodecki value", 1e-6, "max dev", _chsh_search),
    ("closed forms vs oracle at the singlet point x = pi", 1e-10, "max dev", _singlet_point),
    ("hamiltonian commutes with total Sz", 1e-12, "max dev", lambda shared: np.max(
        [np.max(np.abs(h @ TOTAL_SZ - TOTAL_SZ @ h)) for h in shared.hamiltonians.values()]
    )),
    ("spectrum is {J/4 x3, -3J/4}", 1e-12, "max dev", lambda shared: np.max([
        np.max(np.abs(eigensystem(h).energies - np.sort(np.array([0.25 * j] * 3 + [-0.75 * j]))))
        for j, h in shared.hamiltonians.items()
    ])),
    ("thermal eigenvalues are Boltzmann weights", 1e-12, "max dev", _thermal_weights),
    ("Pauli decompose/reconstruct round trip", 1e-12, "max dev", _fano_round_trip),
)


def run_all_checks() -> VerificationReport:
    """Full invariant and oracle-equivalence suite: the `_CHECKS` in order on
    one set of shared inputs, then the discrepancy table. Deterministic."""
    shared = _shared_inputs()
    checks = []
    for name, tolerance, metric, observe in _CHECKS:
        observed = float(observe(shared))
        checks.append(CheckResult(name, metric, observed, tolerance, observed <= tolerance))
    return VerificationReport(checks, _discrepancy_table(shared))


def _discrepancy_table(shared) -> list[dict]:
    """Quantified table of the documented formula-level inconsistencies,
    from the suite's shared inputs: the phase grid, the closed-form bell
    curve on it and the bell and concurrence windows."""
    entries = []

    half_pi = np.pi / 2.0
    verbatim, figure = (float(geometric_discord(half_pi, variant)) for variant in DISCORD_VARIANTS)
    entries.append({
        "description": (
            "the two published discord readings differ by a factor-2 placement: "
            "'verbatim' = (1 - cos x)/4 stays positive at x = pi/2 while "
            "'figure-consistent' = |ReC|/2 vanishes there with the correlation"
        ),
        "gap_at_half_pi": verbatim - figure,
        "verbatim_at_half_pi": verbatim,
        "figure_at_half_pi": figure,
        "both_at_pi": float(geometric_discord(np.pi, "verbatim")),
    })

    xs = np.linspace(0.2, _TWO_PI - 0.2, 501)
    oracle_vals = oracle.trace_norm_discord(implied_state(xs), "closed_form_bell_diagonal")
    fig_vals = np.asarray(geometric_discord(xs, "figure-consistent"))
    verb_vals = np.asarray(geometric_discord(xs, "verbatim"))
    keep = fig_vals > 1e-6
    fig_ratio = oracle_vals[keep] / fig_vals[keep]
    verb_ratio = oracle_vals / verb_vals
    entries.append({
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
    })

    gaps = np.abs(shared.bell_curve - oracle.chsh_max(implied_state(shared.grid), "fixed"))
    entries.append({
        "description": (
            "the closed-form bell curve 2 sqrt(2) S(x) does not equal the fixed-direction "
            "CHSH expectation on the implied states (2 sqrt(2) |ReC|); they agree only "
            "where the state is pure"
        ),
        "max_gap": float(np.max(gaps)),
        "gap_at_pi": float(gaps[500]),
    })

    b_lo, b_hi = shared.windows["bell"]
    c_lo, c_hi = shared.windows["concurrence"]
    mid_left = 0.5 * (b_lo + c_lo)
    mid_right = 0.5 * (c_hi + b_hi)
    entries.append({
        "description": (
            "the bell-violation window strictly contains the concurrence window, so the "
            "closed forms claim CHSH violation for phases whose implied state is "
            "separable; physically impossible, hence at least one formula misstates "
            "the phase dependence"
        ),
        "bell_window": [float(b_lo), float(b_hi)],
        "concurrence_window": [float(c_lo), float(c_hi)],
        "violation_without_entanglement": [[float(b_lo), float(c_lo)], [float(c_hi), float(b_hi)]],
        "left_midpoint_bell": float(bell_mean(mid_left)),
        "left_midpoint_concurrence": float(concurrence(mid_left)),
        "right_midpoint_bell": float(bell_mean(mid_right)),
        "right_midpoint_concurrence": float(concurrence(mid_right)),
    })
    return entries
