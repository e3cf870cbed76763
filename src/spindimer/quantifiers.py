"""Closed-form quantum-correlation quantifiers versus the scattering phase.

Each published closed form is written once, as a function of the structure
factor S and the real correlation Re C = cos(x) S, in `_CLOSED_FORMS`. The
functions of the scalar phase x = q . (r1 - r2) evaluate it at S(x), and
`quantifier_table` at a measured S. The independent density-matrix checks
live in `oracle`; this module is deliberately formula-only.
"""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np

from .scattering import scalar_structure_factor
from .spin_core import DimerModel

TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)
DISCORD_VARIANTS = ("verbatim", "figure-consistent")


def _signed_concurrence(re_c):
    return -0.5 * (1.0 + 3.0 * re_c)


# Every quantifier but S as its closed form in (Re C, S), in canonical column order.
# np.maximum may return either zero when both are zeros; adding 0.0 turns -0 into 0.
_CLOSED_FORMS = {
    "ReC": lambda re_c, s: re_c,
    "witness": lambda re_c, s: 2.0 + 3.0 * re_c,
    "concurrence": lambda re_c, s: np.maximum(0.0, _signed_concurrence(re_c)) + 0.0,
    "eof": lambda re_c, s: entanglement_of_formation(_CLOSED_FORMS["concurrence"](re_c, s)),
    "bell": lambda re_c, s: TSIRELSON_BOUND * s,
    "discord_verbatim": lambda re_c, s: 0.5 * s,
    "discord_figure": lambda re_c, s: 0.5 * np.abs(re_c),
}


def _at_phase(name: str, x):
    """The closed form `name` at phase x, from S(x) and Re C(x) = cos(x) S(x)."""
    s = scalar_structure_factor(x)
    return _CLOSED_FORMS[name](np.cos(x) * s, s)


def real_correlation(x):
    """Physical spin-spin correlation Re C(x) = cos(x) S(x) = cos(x) (1 - cos x)/2."""
    return _at_phase("ReC", x)


def witness(x):
    """Susceptibility-based entanglement witness 2 + 3 Re C(x).

    Negative values certify entanglement; positive values are inconclusive.
    """
    return _at_phase("witness", x)


def _scaled(mantissa: float, exponent: int) -> float:
    """mantissa * 2**exponent: exact in the normal range, inf on overflow."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def susceptibility(temperature: float, re_c: float, model: DimerModel) -> float:
    """Average magnetic susceptibility N g^2 (1 + Re C) / (2 T).

    Units are (g mu_B)^2 per energy with mu_B = 1. A re_c outside [-1, 1/3],
    the physical range of the pairwise correlation, is a ValueError, and so
    is NaN. A result that is not finite, or subnormal and so short of
    digits, is a ValueError; the exact 0 at Re C = -1 is not. g and T enter through their mantissas, and
    their binary exponents are applied last (`_scaled`), so no intermediate
    overflows or underflows unless chi itself does.
    """
    if not 0.0 < temperature < math.inf:
        raise ValueError("temperature must be finite and positive")
    if not -1.0 <= re_c <= 1.0 / 3.0:
        raise ValueError(f"re_c = {re_c!r} must lie in [-1, 1/3]")
    (g, g_exp), (t, t_exp) = math.frexp(model.g), math.frexp(temperature)
    chi = _scaled(model.n_ions / 2.0 * g * g * (1.0 + re_c) / t, 2 * g_exp - t_exp)
    if not math.isfinite(chi):
        raise ValueError(f"susceptibility is not finite for g = {model.g!r} and temperature = {temperature!r}")
    if 0.0 < chi < sys.float_info.min:
        raise ValueError(f"susceptibility is subnormal for g = {model.g!r} and temperature = {temperature!r}")
    return chi


def witness_from_susceptibility(chi: float, temperature: float, model: DimerModel) -> float:
    """Witness recovered from a measured susceptibility.

    Composing with `susceptibility` reproduces `witness` identically; the
    g, N, S and T dependence cancels algebraically. As in `susceptibility`,
    T, chi and g enter through their mantissas and their binary exponents
    are applied last, so T chi / g^2 overflows no intermediate. A subnormal
    chi, short of digits, is a ValueError; chi = 0 is not.
    """
    if not 0.0 < temperature < math.inf:
        raise ValueError("temperature must be finite and positive")
    if 0.0 < chi < sys.float_info.min:
        raise ValueError(f"susceptibility chi = {chi!r} is subnormal")
    (t, t_exp), (c, c_exp), (g, g_exp) = math.frexp(temperature), math.frexp(chi), math.frexp(model.g)
    w = 3.0 * _scaled(t * c / (model.n_ions * model.spin * g * g), t_exp + c_exp - 2 * g_exp) - 1.0
    if not math.isfinite(w):
        raise ValueError(f"witness from susceptibility is not finite for chi = {chi!r} and temperature = {temperature!r}")
    return w


def signed_concurrence(x):
    """Concurrence before clipping at zero: -(1 + 3 Re C(x))/2.

    Its sign changes mark the entanglement window boundaries, which the
    clipped form cannot expose to a root finder.
    """
    return _signed_concurrence(real_correlation(x))


def concurrence(x):
    """Two-qubit concurrence max(0, -(1 + 3 Re C(x))/2), in [0, 1]."""
    return _at_phase("concurrence", x)


def entanglement_of_formation(conc):
    """Binary-entropy function of the concurrence, in [0, 1].

    Uses the continuous extension 0 log 0 = 0, so the endpoints come out
    exact: E(0) = 0 and E(1) = 1.
    """
    conc = np.asarray(conc, dtype=float)
    # Written so that a NaN, which fails every comparison, is out of range too.
    if np.count_nonzero(~((conc >= 0.0) & (conc <= 1.0))):
        raise ValueError("concurrence must lie in [0, 1]")
    gamma_plus = 0.5 * (1.0 + np.sqrt(1.0 - conc**2))
    gamma_minus = 1.0 - gamma_plus
    # Subtracting from 0.0 rather than negating keeps E(0) = 0 from coming out as -0.
    entropy = 0.0 - (_xlogx(gamma_plus) + _xlogx(gamma_minus))
    return entropy / np.log(2.0)


def _xlogx(p):
    """p log p for p >= 0, with the continuous extension 0 log 0 = 0."""
    return p * np.log(p + (p == 0.0))


def bell_mean(x):
    """Mean of the fixed-direction Bell operator, 2 sqrt(2) S(x).

    Exceeding 2 signals a Bell-inequality violation; the quantum maximum
    2 sqrt(2) is reached only at x = pi.
    """
    return _at_phase("bell", x)


def geometric_discord(x, variant: str = "figure-consistent"):
    """Trace-norm geometric discord, in the two published readings.

    The two variants differ by the placement of a factor 2 and cannot both
    be right: `verbatim` is (1 - cos x)/4 = S(x)/2, which stays positive
    at x = pi/2; `figure-consistent` is |Re C(x)|/2, which vanishes with
    the correlation at pi/2 and 3 pi/2. Both agree (0.5) at x = pi. The
    inconsistency is surfaced by the verification report rather than
    resolved here.
    """
    if variant not in DISCORD_VARIANTS:
        raise ValueError(f"unknown discord variant {variant!r}; expected one of {DISCORD_VARIANTS}")
    return _at_phase("discord_verbatim" if variant == "verbatim" else "discord_figure", x)


# Name -> vectorized function of the phase, in canonical column order.
# This is the one quantifier vocabulary: the sweep columns, the point report
# (`verify.closed_form_vs_oracle`) and the `quantifier_table` keys.
QUANTIFIER_FUNCTIONS = {"S": scalar_structure_factor, **{name: partial(_at_phase, name) for name in _CLOSED_FORMS}}


def quantifier_table(x, s) -> dict[str, np.ndarray]:
    """Every quantifier derived from S, at phases x for structure factors s.

    The closed forms depend on the phase only through cos x and S, so a
    measured S (`ingest`) goes through the same formulas as the theoretical
    S(x). With s = S(x), each column equals the `QUANTIFIER_FUNCTIONS` entry
    of the same name bit for bit. Keys follow `QUANTIFIER_FUNCTIONS` without
    "S"; s must lie in [0, 1], which keeps the concurrence inside the range
    of `entanglement_of_formation`.
    """
    s = np.asarray(s, dtype=float)
    re_c = np.cos(np.asarray(x, dtype=float)) * s
    return {name: form(re_c, s) for name, form in _CLOSED_FORMS.items()}


def _finite_at(f, x):
    """f(x), or a ValueError naming x if x or f(x) is not finite: a NaN f
    would fail both of the bisection's sign tests and steer it without a
    sign change, and an end that is not finite makes every midpoint so."""
    if not math.isfinite(x):
        raise ValueError(f"bracket end x = {float(x)!r} is not finite")
    fx = f(x)
    if not math.isfinite(fx):
        raise ValueError(f"f is not finite at x = {float(x)!r}: {float(fx)!r}")
    return fx


def bisect_root(f, lo: float, hi: float) -> float:
    """Bisection on a bracketing interval, run until the bracket closes.

    The bracket is halved until its midpoint rounds to one of its ends, so
    the ends are adjacent doubles; the end where |f| is smaller is returned,
    the lower one on a tie. An exact zero of f, at an end or at a midpoint,
    is returned at once. Finite ends take at most about 2100 halvings. An
    end that is not finite, or a value of f that is not finite, is a
    ValueError that names its abscissa."""
    flo, fhi = _finite_at(f, lo), _finite_at(f, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ValueError("interval does not bracket a root")
    # Halving each end first keeps the midpoint of two huge ends finite.
    while (mid := 0.5 * lo + 0.5 * hi) not in (lo, hi):
        fmid = _finite_at(f, mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    # Tuples compare |f| first, then the abscissa, so a tie goes to the lower end.
    return min((abs(flo), lo), (abs(fhi), hi))[1]


def scan_roots(f, lo: float = 0.0, hi: float = 2.0 * np.pi, samples: int = 10_000) -> list[float]:
    """All sign-change roots of a vectorized f inside [lo, hi], in order.

    f is evaluated once on a uniform grid. A sign change between two grid
    points is polished by bisection; an interior grid point where f is
    exactly zero and the sign flips across it is returned as is. Zeros at
    lo or hi are not sign changes and are not returned.
    """
    grid = np.linspace(lo, hi, samples)
    sign = np.sign(f(grid))
    roots = [bisect_root(f, grid[k], grid[k + 1]) for k in np.nonzero(sign[:-1] * sign[1:] < 0)[0]]
    on_grid = np.nonzero((sign[1:-1] == 0) & (sign[:-2] * sign[2:] < 0))[0] + 1
    return sorted(roots + [float(grid[k]) for k in on_grid])


def _window(f) -> tuple[float, float]:
    roots = scan_roots(f)
    if len(roots) != 2:
        raise RuntimeError(f"expected exactly 2 sign changes on [0, 2pi], found {len(roots)}")
    return roots[0], roots[1]


def witness_window() -> tuple[float, float]:
    """Phase interval on [0, 2 pi] where the witness is negative."""
    return _window(witness)


def concurrence_window() -> tuple[float, float]:
    """Phase interval on [0, 2 pi] where the concurrence is positive."""
    return _window(signed_concurrence)


def bell_violation_window() -> tuple[float, float]:
    """Phase interval on [0, 2 pi] where the Bell mean exceeds 2."""
    return _window(lambda x: bell_mean(x) - 2.0)
